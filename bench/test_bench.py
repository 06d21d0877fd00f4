"""Tests of the benchmark itself: tiny runs, the output checks and span arithmetic.

    python -m pytest bench
"""

import numpy as np
import pytest

import run

og = run.load_package()

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ALL = sorted(workloads.WORKLOADS)


def tiny(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, tmp_path, tiny=True)


@pytest.mark.parametrize("name", ALL)
def test_tiny_run_passes_every_check(name, tmp_path):
    workload = tiny(name, tmp_path)
    result = run.measure(workload, seconds=0.0)
    tally = result["tally"]
    items = sum(len(workload.pass_items(p)) for p in range(workload.round_passes))
    assert tally.attempted == items
    assert tally.failed == 0
    assert len(tally.records) == items
    assert result["instances_per_s"] > 0 and result["peak_rss_mb"] > 0
    assert min(tally.report_bytes) > 0


@pytest.mark.parametrize("name", ALL)
def test_traced_and_untraced_runs_agree(name, tmp_path):
    workload = tiny(name, tmp_path)
    untraced = run.measure(workload, seconds=0.0)["tally"]
    traced = run.measure_traced(workload, seconds=0.0)
    assert traced["tally"].failed == 0
    assert traced["tally"].digest() == untraced.digest()
    again = run.measure_traced(workload, seconds=0.0)
    assert spans.counts(again["metrics"]) == spans.counts(traced["metrics"])
    assert traced["metrics"]["trace_overhead"] > 0


def test_traced_counts_follow_the_workload(tmp_path):
    workload = tiny("sweep", tmp_path)
    metrics = run.measure_traced(workload, seconds=0.0)["metrics"]
    cells = len(workload.sizes) * workload.round_passes
    assert metrics["dco.run.calls"] == cells
    assert metrics["scenario.generate.calls"] == cells
    assert metrics["game.candidate_overheads.calls"] == metrics["dco.slots"]
    assert metrics["baselines.enumerate_nash.calls"] == 0


def test_patches_are_removed_after_the_traced_pass():
    before = (og.dco.run_dco, og.cli.run_dco, og.game.ProfileEvaluator.potential)
    with spans.patched(spans.Recorder()) as missing:
        assert og.dco.run_dco is not before[0]
    assert missing == []
    assert (og.dco.run_dco, og.cli.run_dco, og.game.ProfileEvaluator.potential) == before


def test_one_flipped_decision_breaks_the_nash_check():
    scenario = og.generate(og.GenParams(n_users=12, channels=2), 5)
    profile = np.array(og.run_dco(scenario, 5).final_profile)
    inst = oracle.Instance.from_scenario(scenario)
    assert oracle.check_nash(inst, profile, "dco") == []
    margin = np.where(profile > 0, inst.local - inst.costs(profile), -np.inf)
    user = int(np.argmax(margin))
    assert margin[user] > 0, "instance needs an offloader that strictly gains"
    flipped = profile.copy()
    flipped[user] = 0
    problems = oracle.check_nash(inst, flipped, "flipped")
    assert len(problems) == 1 and str(user) in problems[0]


def test_reference_costs_match_the_cost_model():
    scenario = og.generate(og.GenParams(n_users=9, channels=3), 11)
    inst = oracle.Instance.from_scenario(scenario)
    env, users = scenario.channel_env, scenario.user_profiles
    profile = (0, 1, 1, 2, 3, 3, 3, 0, 2)
    expected = [og.user_overhead(env, users, n, profile) for n in range(len(users))]
    np.testing.assert_allclose(inst.costs(profile), expected, rtol=1e-12)


def span(label, layer, start, end, parent=None, **work):
    return spans.Span(label, layer, start, end, parent, work)


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        span("root", "dco.run", 0.0, 10.0),
        span("a", "game.potential", 1.0, 4.0, parent=0),
        span("b", "game.overheads", 3.0, 6.0, parent=0),  # overlaps a by 1
        span("c", "game.overheads", 2.0, 3.0, parent=1),
        span("d", "game.overheads", 9.0, 12.0, parent=0),  # runs past its parent
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_from_synthetic_spans():
    synthetic = [
        span("x.run_dco", "dco.run", 0.0, 0.010, slots=4, requests=7),
        span("x.candidate_overheads", "game.candidate_overheads", 0.001, 0.003, parent=0,
             rows=1, cells=30),
        span("x.potential", "game.potential", 0.004, 0.005, parent=0, rows=1),
        span("x.enumerate_nash", "baselines.enumerate_nash", 0.020, 0.030, equilibria=2),
        span("x.candidate_overheads", "game.candidate_overheads", 0.021, 0.029, parent=3,
             rows=500, cells=5000),
    ]
    metrics = spans.layer_metrics(synthetic)
    assert metrics["dco.run.self_ms"] == pytest.approx(7.0)
    assert metrics["game.candidate_overheads.self_ms"] == pytest.approx(10.0)
    assert metrics["game.candidate_overheads.calls"] == 2
    assert metrics["game.candidate_overheads.cells"] == 5030
    assert metrics["dco.ms_per_slot"] == pytest.approx(2.5)
    assert metrics["baselines.enumerate_nash.self_ms"] == pytest.approx(2.0)
    assert metrics["baselines.profiles_scanned"] == 500
    assert metrics["baselines.profiles_per_s"] == pytest.approx(50_000)
    assert metrics["metrics.equilibria"] == 2
