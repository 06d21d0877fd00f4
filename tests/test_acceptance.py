"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS line (visible with `pytest -s` or in the captured
output) and enforces its runtime budget where one is stated.  Everything is
seeded, so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from offload_game import (
    BoundInapplicable,
    GenParams,
    Objective,
    beneficial_threshold,
    cross_entropy_optimize,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    poa_beneficial,
    poa_overhead,
    run_dco,
    convergence_slot_bound,
)
from offload_game.cli import _sweep_cell
from offload_game.model import AccessModel
import reference
from support import integer_contention_scenario, random_instance, random_profile

SWEEP_SIZES = list(range(15, 51, 5))
SWEEP_SEEDS = 100


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_potential_strictly_decreases_on_improvements():
    """10,000 random (instance, profile, improving move) triples, both models."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    done = 0
    while done < 10_000:
        access = AccessModel.INTERFERENCE if done % 2 == 0 else AccessModel.CONTENTION
        env, users = random_instance(rng, access=access, finite_thresholds=True)
        a = random_profile(rng, env, users)
        improved = None
        for n in rng.permutation(len(users)):
            delta = reference.best_response_set(env, users, int(n), a)
            if delta:
                improved = (int(n), sorted(delta)[int(rng.integers(len(delta)))])
                break
        if improved is None:
            continue
        n, d = improved
        b = list(a)
        b[n] = d
        assert reference.potential(env, users, tuple(b)) < reference.potential(env, users, a)
        done += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"10000 improving deviations all decreased the potential ({elapsed:.1f}s)")


def test_criterion_2_beneficiality_matches_threshold_test():
    """10,000 checks: cost comparison agrees with the interference-threshold test."""
    rng = np.random.default_rng(1002)
    done = 0
    while done < 10_000:
        access = AccessModel.INTERFERENCE if done % 2 == 0 else AccessModel.CONTENTION
        env, users = random_instance(rng, access=access, finite_thresholds=True)
        a = random_profile(rng, env, users)
        n = int(rng.integers(len(users)))
        if a[n] == 0:
            continue
        t = beneficial_threshold(env, users[n])
        mu = reference.received_interference(env, users, n, a[n], a)
        assert reference.is_beneficial(env, users, n, a) == (mu <= t + 1e-9 * abs(t))
        done += 1
    _report(2, "10000 beneficiality checks agree with the threshold form at 1e-9")


def test_criterion_3_terminal_profiles_are_sound_equilibria():
    """200 enumerable scenarios: the run ends inside the enumerated Nash set."""
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for i in range(200):
        access = AccessModel.INTERFERENCE if i % 2 == 0 else AccessModel.CONTENTION
        params = GenParams(
            n_users=int(rng.integers(2, 7)),
            channels=int(rng.integers(1, 4)),
            access_model=access,
        )
        scenario = generate(params, 3000 + i)
        report = run_dco(scenario, seed=i)
        equilibria = enumerate_nash(scenario)
        assert equilibria, "an equilibrium always exists"
        assert report.final_profile in equilibria
        env, users = scenario.channel_env, scenario.user_profiles
        for n, decision in enumerate(report.final_profile):
            if decision > 0:
                assert reference.is_beneficial(env, users, n, report.final_profile)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"200 terminal profiles enumerated as equilibria, offloaders all gain ({elapsed:.1f}s)")


def test_criterion_4_update_count_within_quadratic_bound():
    """100 integer-weight instances: every run obeys the convergence bound."""
    rng = np.random.default_rng(1004)
    for i in range(100):
        scenario = integer_contention_scenario(
            int(rng.integers(3, 11)), int(rng.integers(1, 4)), 4000 + i
        )
        bound = convergence_slot_bound(scenario)
        for seed in range(3):
            assert run_dco(scenario, seed).update_slots <= bound
    _report(4, "300 runs over 100 integer instances stayed within the bound")


def test_criterion_5_poa_within_analytic_bands():
    """100 enumerable nonnegative-threshold instances: both ratios inside their bands."""
    rng = np.random.default_rng(1005)
    for i in range(100):
        params = GenParams(
            n_users=int(rng.integers(2, 7)),
            channels=int(rng.integers(1, 4)),
            energy_weight_choices=(0.0,),  # keeps every threshold finite and >= 0
        )
        scenario = generate(params, 5000 + i)
        beneficial = poa_beneficial(scenario)
        assert beneficial.bound_low is not None
        assert beneficial.bound_low - 1e-12 <= beneficial.ratio <= 1.0 + 1e-12
        overhead = poa_overhead(scenario)
        assert overhead.bound_high is not None
        assert 1.0 - 1e-12 <= overhead.ratio <= overhead.bound_high + 1e-12
    _report(5, "100 instances: both efficiency ratios inside the analytic bands")


def test_criterion_6_paper_scale_trace():
    """Default-scale runs (30 users, 5 channels): monotone descent to equilibrium."""
    for seed in range(5):
        scenario = generate(GenParams(), 6000 + seed)
        start = time.perf_counter()
        report = run_dco(scenario, seed)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        phis = [rec.potential for rec in report.slots]
        assert all(b < a for a, b in zip(phis, phis[1:]))
        env, users = scenario.channel_env, scenario.user_profiles
        assert reference.is_nash(env, users, report.final_profile)
        assert report.system_overhead <= report.slots[0].system_overhead
        assert run_dco(scenario, seed) == report
    _report(6, "5 default-scale traces: strict descent, equilibrium end, overhead never above all-local")


@pytest.fixture(scope="module")
def paper_sweep():
    """Shared data for criteria 7 and 8: the CLI's sweep rows for every size, plus both CE results."""
    start = time.perf_counter()
    rows = []
    for n in SWEEP_SIZES:
        params = GenParams(n_users=n)
        for s in range(SWEEP_SEEDS):
            row = _sweep_cell((params, 101 * n + s, s))
            scenario = generate(params, 101 * n + s)
            _, row["ce_beneficial"] = cross_entropy_optimize(
                scenario, Objective.MAX_BENEFICIAL, seed=s
            )
            _, row["ce_overhead"] = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=s)
            rows.append(row)
    return {"rows": rows, "elapsed": time.perf_counter() - start}


def test_criterion_7_sweep_orderings_and_ce_dominance(paper_sweep):
    """Means ordered as expected for every size; CE dominates the distributed result."""
    start = time.perf_counter()
    rows = paper_sweep["rows"]
    for n in SWEEP_SIZES:
        group = [r for r in rows if r["n"] == n]
        assert len(group) == SWEEP_SEEDS
        mean = lambda key: sum(r[key] for r in group) / len(group)
        assert mean("dco_beneficial") >= mean("all_cloud_beneficial")
        assert mean("dco_system_overhead") <= min(
            mean("all_local_overhead"), mean("all_cloud_overhead")
        )
    ce_max_wins = sum(r["ce_beneficial"] >= r["dco_beneficial"] for r in rows)
    ce_min_wins = sum(r["ce_overhead"] <= r["dco_system_overhead"] + 1e-9 for r in rows)
    assert ce_max_wins >= 0.9 * len(rows)
    assert ce_min_wins >= 0.9 * len(rows)
    total_elapsed = paper_sweep["elapsed"] + (time.perf_counter() - start)
    assert total_elapsed < 600.0
    _report(
        7,
        f"orderings hold for all sizes; CE dominance {ce_max_wins}/{len(rows)} (max) "
        f"and {ce_min_wins}/{len(rows)} (min) in {total_elapsed:.0f}s",
    )


def test_criterion_8_convergence_grows_linearly(paper_sweep):
    """Mean decision slots vs size fits a line; far below the quadratic envelope."""
    rows = paper_sweep["rows"]
    means = []
    for n in SWEEP_SIZES:
        group = [r for r in rows if r["n"] == n]
        means.append(sum(r["dco_update_slots"] for r in group) / len(group))
    x = np.array(SWEEP_SIZES, dtype=float)
    y = np.array(means)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r_squared = 1.0 - float((residuals**2).sum() / ((y - y.mean()) ** 2).sum())
    assert r_squared >= 0.9
    # the quadratic bound needs integer weights, so it does not apply to the
    # sweep's real-valued instances ...
    with pytest.raises(BoundInapplicable):
        convergence_slot_bound(generate(GenParams(n_users=15), 101 * 15))
    # ... so the far-below comparison runs on integer-weight instances, where
    # it does; "far below" pinned as one tenth of the weakest per-size bound
    for n in SWEEP_SIZES:
        bounds, slots = [], []
        for j in range(10):
            scenario = integer_contention_scenario(n, 5, 8000 + 13 * n + j)
            bounds.append(convergence_slot_bound(scenario))
            slots.extend(run_dco(scenario, seed).update_slots for seed in range(10))
        mean_slots = sum(slots) / len(slots)
        assert mean_slots <= 0.1 * min(bounds)
    _report(
        8,
        f"slots vs size linear with R^2={r_squared:.3f}, slope {slope:.3f}; "
        "integer-instance means far below their quadratic bounds",
    )


def test_criterion_9_ce_attains_exhaustive_optimum():
    """50 small instances: the default CE budget matches the optimum >= 95% per objective."""
    rng = np.random.default_rng(1009)
    hits_max = hits_min = 0
    for i in range(50):
        params = GenParams(
            n_users=int(rng.integers(2, 6)), channels=int(rng.integers(1, 3))
        )
        scenario = generate(params, 9000 + i)
        _, opt_max = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
        _, opt_min = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
        _, ce_max = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, seed=i)
        _, ce_min = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=i)
        hits_max += ce_max == opt_max
        hits_min += abs(ce_min - opt_min) <= 1e-12 * max(1.0, abs(opt_min))
    assert hits_max >= 48  # 95% of 50, rounded up
    assert hits_min >= 48
    _report(9, f"CE matched the exhaustive optimum on {hits_max}/50 (max) and {hits_min}/50 (min)")
