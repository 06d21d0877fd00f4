"""Tests for the centralized baselines and the cross-entropy optimizer."""

import itertools
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from offload_game import (
    CrossEntropyParams,
    GenParams,
    InstanceTooLarge,
    Objective,
    ProfileEvaluator,
    all_cloud_random,
    all_local,
    cross_entropy_optimize,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    local_overhead,
    poa_beneficial,
    poa_overhead,
    run_dco,
)
from offload_game import game, metrics
from offload_game.model import AccessModel
import reference
import test_game
from support import integer_contention_scenario, small_paper_scenario
from test_dco import all_never_beneficial_scenario


def brute_force_optima(scenario):
    """Independent oracle: plain loops over all profiles with the scalar model."""
    env, users = scenario.channel_env, scenario.user_profiles
    best_count, best_cost = -1, None
    for a in itertools.product(range(env.channels + 1), repeat=len(users)):
        if all(a[n] == 0 or reference.is_beneficial(env, users, n, a) for n in range(len(users))):
            count = sum(1 for d in a if d > 0)
            if count > best_count:
                best_count = count
        cost = reference.system_overhead(env, users, a)
        if best_cost is None or cost < best_cost:
            best_cost = cost
    return best_count, best_cost


class TestNaivePolicies:
    def test_all_local(self):
        scenario = small_paper_scenario(3, 2, seed=0)
        profile = all_local(scenario)
        assert profile == (0, 0, 0)
        env, users = scenario.channel_env, scenario.user_profiles
        assert reference.system_overhead(env, users, profile) == pytest.approx(
            sum(local_overhead(u) for u in users), rel=1e-15
        )
        assert reference.count_beneficial(env, users, profile) == 0

    def test_all_cloud_random_single_channel(self):
        scenario = small_paper_scenario(5, 1, seed=1)
        assert all_cloud_random(scenario, 3) == (1, 1, 1, 1, 1)

    def test_all_cloud_random_stays_on_cloud_and_replays(self):
        scenario = small_paper_scenario(20, 4, seed=2)
        profile = all_cloud_random(scenario, 9)
        assert all(1 <= d <= 4 for d in profile)
        assert profile == all_cloud_random(scenario, 9)
        assert profile != all_cloud_random(scenario, 10)


class TestExhaustive:
    def test_all_never_beneficial_forces_all_local(self):
        scenario = all_never_beneficial_scenario()
        profile, value = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
        assert (profile, value) == ((0, 0, 0), 0)

    def test_single_user_offloads_somewhere(self):
        scenario = small_paper_scenario(1, 2, seed=3, time_only=True)
        profile, value = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
        assert value == 1
        assert profile == (1,)  # lexicographic tie-break between the two channels

    def test_matches_plain_loop_oracle(self):
        for seed in range(5):
            scenario = small_paper_scenario(4, 2, seed=40 + seed)
            oracle_count, oracle_cost = brute_force_optima(scenario)
            _, value_max = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
            _, value_min = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
            assert value_max == oracle_count
            assert value_min == pytest.approx(oracle_cost, rel=1e-12)

    def test_min_overhead_not_above_any_equilibrium(self):
        scenario = small_paper_scenario(4, 2, seed=50)
        env, users = scenario.channel_env, scenario.user_profiles
        _, optimum = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
        equilibria = enumerate_nash(scenario)
        assert equilibria
        for a in equilibria:
            assert optimum <= reference.system_overhead(env, users, a) + 1e-12

    def test_cap_enforced(self):
        scenario = small_paper_scenario(30, 5, seed=0)
        with pytest.raises(InstanceTooLarge):
            exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
        with pytest.raises(InstanceTooLarge):
            enumerate_nash(small_paper_scenario(5, 2, seed=0), profile_cap=100)
        # 2^15000 has more digits than str() converts, so the message names the power
        with pytest.raises(InstanceTooLarge, match=r"^2\^15000 profiles exceed the cap 10000000$"):
            enumerate_nash(small_paper_scenario(15000, 1, seed=0))


class TestEnumerateNash:
    def test_single_user_two_channels(self):
        scenario = small_paper_scenario(1, 2, seed=3, time_only=True)
        assert enumerate_nash(scenario) == [(1,), (2,)]

    def test_all_never_beneficial_contains_all_local(self):
        assert (0, 0, 0) in enumerate_nash(all_never_beneficial_scenario())

    def test_matches_scalar_is_nash_oracle(self):
        for seed in range(3):
            scenario = small_paper_scenario(4, 2, seed=60 + seed)
            env, users = scenario.channel_env, scenario.user_profiles
            oracle = [
                a
                for a in itertools.product(range(env.channels + 1), repeat=len(users))
                if reference.is_nash(env, users, a)
            ]
            assert enumerate_nash(scenario) == oracle

    def test_dco_terminal_profiles_are_enumerated(self):
        rng = np.random.default_rng(32)
        for i in range(30):
            scenario = small_paper_scenario(
                int(rng.integers(2, 6)), int(rng.integers(1, 3)), seed=70 + i
            )
            equilibria = enumerate_nash(scenario)
            assert equilibria
            assert run_dco(scenario, seed=i).final_profile in equilibria


def hand_built_scenario(env, users):
    """What the enumerators and the PoA metrics read of a scenario, for an (env, users) pair."""
    return SimpleNamespace(n_users=len(users), channels=env.channels, channel_env=env,
                           user_profiles=tuple(users), evaluator=ProfileEvaluator(env, users))


class TestSharedScan:
    """The one cached scan against one separate scan per call, bit for bit."""

    @staticmethod
    def instances(access):
        """(label, scenario, chunk count): seeded instances, then the two-candidate corner cases.

        One multi-chunk size per access model bounds the test's run time: 4^9
        (4 full chunks) under interference, 5^8 (the last of 6 partial) under
        contention.
        """
        multi = (9, 3, 4) if access is AccessModel.INTERFERENCE else (8, 4, 6)
        for n, m, chunks in ((8, 3, 1), multi):
            params = GenParams(n_users=n, channels=m, access_model=access,
                               contention_weight_choices=(1.0, 2.0, 3.0))
            yield f"N={n}, M={m}", generate(params, 80 + n + m), chunks
        for label, env, users in test_game.TestTwoCandidateNashMask.corner_instances(access):
            yield label, hand_built_scenario(env, users), 1
        if access is AccessModel.CONTENTION:  # offloaders whose cost equals their local cost
            yield "exact ties with local", integer_contention_scenario(6, 2, seed=0), 1

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_equals_the_separate_scans(self, access, monkeypatch):
        for label, scenario, chunks in self.instances(access):
            assert math.ceil((scenario.channels + 1) ** scenario.n_users / game._CHUNK) == chunks
            equilibria = reference.enumerate_nash_separate(scenario)
            optima = {o: reference.exhaustive_optimize_separate(scenario, o) for o in Objective}
            assert enumerate_nash(scenario) == equilibria, label
            for objective, expected in optima.items():
                assert exhaustive_optimize(scenario, objective) == expected, label
            reports = asdict(poa_beneficial(scenario)), asdict(poa_overhead(scenario))
            with monkeypatch.context() as patch:  # the PoA reports from the separate scans
                patch.setattr(metrics, "enumerate_nash", lambda s, cap: list(equilibria))
                patch.setattr(metrics, "exhaustive_optimize", lambda s, o, cap: optima[o])
                assert reports == (asdict(poa_beneficial(scenario)),
                                   asdict(poa_overhead(scenario))), label


class TestScanCache:
    """One scan per scenario object; every call still checks its own cap and gets its own list."""

    def test_cap_is_checked_after_the_scan_is_cached(self):
        scenario = small_paper_scenario(5, 2, seed=0)  # 3^5 = 243 profiles
        enumerate_nash(scenario)
        with pytest.raises(InstanceTooLarge):
            enumerate_nash(scenario, profile_cap=100)
        for objective in Objective:
            exhaustive_optimize(scenario, objective)
            with pytest.raises(InstanceTooLarge):
                exhaustive_optimize(scenario, objective, profile_cap=100)

    def test_returned_list_is_the_callers_own(self):
        scenario = small_paper_scenario(5, 2, seed=0)
        first = enumerate_nash(scenario)
        expected = list(first)
        first.append((9,) * 5)
        first.pop(0)
        assert enumerate_nash(scenario) == expected

    @staticmethod
    def count_scans(monkeypatch) -> list:
        """Route `game._profile_chunks` through a recorder; one entry per scan."""
        chunks, calls = game._profile_chunks, []

        def counted(*args):
            calls.append(args)
            return chunks(*args)

        monkeypatch.setattr(game, "_profile_chunks", counted)
        return calls

    def test_every_enumerator_shares_one_scan_per_scenario(self, monkeypatch):
        calls = self.count_scans(monkeypatch)
        scenario = small_paper_scenario(5, 2, seed=0)
        poa_beneficial(scenario)
        poa_overhead(scenario)
        for objective in Objective:
            exhaustive_optimize(scenario, objective)
        enumerate_nash(scenario)
        assert len(calls) == 1

    def test_an_equal_new_scenario_scans_again(self, monkeypatch):
        """The cache lives on the object, so repeated rounds of equal scenarios repeat the work."""
        calls = self.count_scans(monkeypatch)
        scenario = small_paper_scenario(5, 2, seed=0)
        fresh = small_paper_scenario(5, 2, seed=0)
        assert fresh == scenario and fresh is not scenario
        assert enumerate_nash(fresh) == enumerate_nash(scenario)
        assert len(calls) == 2


class TestCrossEntropy:
    def test_finds_full_offload_when_channels_outnumber_users(self):
        scenario = small_paper_scenario(2, 3, seed=80, time_only=True)
        _, value = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, seed=1)
        assert value == 2

    def test_matches_exhaustive_on_small_instances(self):
        for seed in range(5):
            scenario = small_paper_scenario(4, 2, seed=90 + seed)
            _, opt_max = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
            _, opt_min = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
            _, ce_max = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, seed=seed)
            _, ce_min = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=seed)
            assert ce_max == opt_max
            assert ce_min == pytest.approx(opt_min, rel=1e-12)

    def test_single_user_needs_two_iterations_at_most(self):
        scenario = small_paper_scenario(1, 3, seed=100)
        params = CrossEntropyParams(iterations=2)
        _, opt = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
        _, ce = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, params, seed=0)
        assert ce == opt

    def test_never_beats_the_exhaustive_optimum(self):
        rng = np.random.default_rng(33)
        for i in range(15):
            scenario = small_paper_scenario(
                int(rng.integers(2, 6)), int(rng.integers(1, 3)), seed=110 + i
            )
            _, opt_max = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL)
            _, opt_min = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
            _, ce_max = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, seed=i)
            _, ce_min = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=i)
            assert ce_max <= opt_max
            assert ce_min >= opt_min - 1e-12

    def test_best_ever_value_monotone_in_iteration_budget(self):
        scenario = small_paper_scenario(8, 3, seed=120)
        values = [
            cross_entropy_optimize(
                scenario, Objective.MIN_OVERHEAD, CrossEntropyParams(iterations=k), seed=5
            )[1]
            for k in range(1, 7)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_returned_profile_scores_its_value(self):
        for objective in Objective:
            scenario = small_paper_scenario(6, 2, seed=130)
            env, users = scenario.channel_env, scenario.user_profiles
            profile, value = cross_entropy_optimize(scenario, objective, seed=2)
            if objective is Objective.MAX_BENEFICIAL:
                assert reference.count_beneficial(env, users, profile) == value
            else:
                assert reference.system_overhead(env, users, profile) == pytest.approx(value, rel=1e-12)

    def test_deterministic_per_seed(self):
        scenario = small_paper_scenario(7, 3, seed=140)
        first = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=8)
        second = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, seed=8)
        assert first == second

    @pytest.mark.parametrize("objective", ["max_beneficial", None])
    def test_rejects_an_objective_that_is_not_an_objective(self, objective):
        """A string or None used to run MIN_OVERHEAD here and fail with AttributeError in the scan."""
        scenario = generate(GenParams(n_users=6, channels=2), 1)
        with pytest.raises(ValueError, match="must be an Objective"):
            cross_entropy_optimize(scenario, objective)
        with pytest.raises(ValueError, match="must be an Objective"):
            exhaustive_optimize(scenario, objective)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CrossEntropyParams(samples=0)
        with pytest.raises(ValueError):
            CrossEntropyParams(elite_fraction=0.0)
        with pytest.raises(ValueError):
            CrossEntropyParams(smoothing=1.5)

    @pytest.mark.parametrize("overrides", [
        {"samples": 2.5},
        {"samples": True},
        {"iterations": 3.0},
        {"iterations": True},
    ])
    def test_rejects_non_integer_counts(self, overrides):
        with pytest.raises(ValueError):
            CrossEntropyParams(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"smoothing": True},  # was accepted as 1.0
        {"elite_fraction": "0.1"},  # failed a comparison with TypeError
        {"smoothing": None},
    ])
    def test_rejects_non_number_fractions(self, overrides):
        with pytest.raises(ValueError, match="must be a number"):
            CrossEntropyParams(**overrides)
