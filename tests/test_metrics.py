"""Tests for the efficiency-ratio metrics and analytic bounds."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from offload_game import (
    GenParams,
    InstanceTooLarge,
    Objective,
    ProfileEvaluator,
    access_weight,
    count_beneficial,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    local_overhead,
    poa_beneficial,
    poa_overhead,
    system_overhead,
)
from offload_game import metrics
from offload_game.metrics import BENEFICIAL_USERS, SYSTEM_OVERHEAD, _cloud_cost_extremes
from offload_game.model import AccessModel
from offload_game.scenario import Scenario, ScenarioUser
import reference
from support import (
    contention_scenario_from_users,
    contention_user_with_threshold,
    random_instance,
    simple_env,
    simple_user,
    small_paper_scenario,
)


class TestPoaBeneficial:
    def test_single_user_ratio_one(self):
        report = poa_beneficial(small_paper_scenario(1, 2, seed=3, time_only=True))
        assert report.metric == BENEFICIAL_USERS
        assert report.ratio == 1.0
        assert report.optimum == 1.0

    def test_bound_hand_arithmetic(self):
        # thresholds {4, 6}, weights {2, 1}: floor(4/2) / (floor(6/1)+1) = 2/7
        users = (
            contention_user_with_threshold(4, 2),
            contention_user_with_threshold(6, 1),
        )
        report = poa_beneficial(contention_scenario_from_users(users, channels=2))
        assert report.weight_max == 2.0 and report.weight_min == 1.0
        assert report.threshold_max == 6.0 and report.threshold_min == 4.0
        assert report.bound_low == pytest.approx(2.0 / 7.0, rel=1e-15)

    def test_bound_omitted_when_thresholds_negative(self):
        # default parameters include energy-focused users whose threshold is negative
        report = poa_beneficial(small_paper_scenario(4, 2, seed=7))
        assert report.bound_low is None
        assert 0.0 < report.ratio <= 1.0

    def test_bound_omitted_when_threshold_over_weight_overflows(self):
        """t_max / q_min = 3.75e150 / 1e-200 is inf; the bound cannot be computed, so it is None."""
        params = GenParams(n_users=4, channels=1, access_model=AccessModel.CONTENTION,
                           contention_weight_choices=(1e-200, 1e150), energy_weight_choices=(0.0,))
        report = poa_beneficial(generate(params, 1))
        assert report.weight_min == 1e-200 and report.threshold_max is not None
        assert math.isinf(report.threshold_max / report.weight_min)
        assert report.bound_low is None
        assert 0.0 < report.ratio <= 1.0

    def test_containment_on_random_nonnegative_instances(self):
        rng = np.random.default_rng(41)
        for i in range(30):
            scenario = small_paper_scenario(
                int(rng.integers(2, 7)), int(rng.integers(1, 4)), seed=200 + i, time_only=True
            )
            report = poa_beneficial(scenario)
            assert report.bound_low is not None
            assert report.bound_low - 1e-12 <= report.ratio <= 1.0 + 1e-12

    def test_ratio_is_zero_when_a_lone_cloud_cost_ties_the_local_cost(self):
        """One user, one channel: upload 1 s plus cloud 1 s ties 2 s local, so local is an equilibrium too."""
        user = ScenarioUser(q_mw=100.0, g=1.0, b_kb=125.0, d_megacycles=1000.0, f_m_ghz=0.5, f_c_ghz=1.0,
                            gamma_j_per_cycle=0.0, L_j=0.0, lambda_e=0.0, W=1.0, R_bps=1e6)
        scenario = contention_scenario_from_users([user], channels=1)
        assert enumerate_nash(scenario) == [(0,), (1,)]
        report = poa_beneficial(scenario)
        assert (report.worst_equilibrium, report.optimum) == (0.0, 1.0)
        assert report.ratio == 0.0 and report.bound_low == 0.0

    @pytest.mark.parametrize("access", list(AccessModel))
    @pytest.mark.parametrize("n_users, channels, seed", [
        (4, 2, 9), (8, 3, 0), (7, 5, 1),
        (10, 3, 2),  # more canonical profiles than one chunk holds: the scan streams
    ], ids=["4x2", "8x3", "7x5", "10x3"])
    def test_worst_equilibrium_is_the_min_over_the_nash_set(self, access, n_users, channels, seed):
        """Every offloader at an equilibrium is beneficial, so the fewest offloaders are the fewest beneficial users."""
        for energy_weights in ((1.0, 0.5, 0.0), (0.0,)):
            params = GenParams(n_users=n_users, channels=channels, access_model=access,
                               contention_weight_choices=(1.0, 2.0, 3.0), energy_weight_choices=energy_weights)
            scenario = generate(params, seed)
            equilibria = np.array(enumerate_nash(scenario))
            offloading = equilibria > 0
            assert np.array_equal(scenario.evaluator.beneficial_mask(equilibria), offloading)
            assert poa_beneficial(scenario).worst_equilibrium == offloading.sum(axis=1).min()

    def test_worst_equilibrium_matches_the_scalar_oracle(self):
        scenario = small_paper_scenario(4, 2, seed=9, time_only=True)
        env, users = scenario.channel_env, scenario.user_profiles
        counts = []
        for a in enumerate_nash(scenario):
            # every offloader at an equilibrium is beneficial, so the count
            # collapses to the number of offloaders
            assert reference.count_beneficial(env, users, a) == sum(1 for d in a if d > 0)
            counts.append(reference.count_beneficial(env, users, a))
        assert poa_beneficial(scenario).worst_equilibrium == min(counts)


class TestPoaOverhead:
    def test_single_user_ratio_one(self):
        report = poa_overhead(small_paper_scenario(1, 2, seed=3, time_only=True))
        assert report.metric == SYSTEM_OVERHEAD
        assert report.ratio == 1.0
        assert report.bound_low == 1.0

    def test_containment_on_random_instances(self):
        rng = np.random.default_rng(42)
        for i in range(30):
            scenario = small_paper_scenario(
                int(rng.integers(2, 7)), int(rng.integers(1, 4)), seed=230 + i
            )
            report = poa_overhead(scenario)
            assert report.bound_high is not None
            assert 1.0 <= report.ratio <= report.bound_high + 1e-12

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_worst_equilibrium_costs_at_least_the_optimum_exactly(self, access):
        """Both totals add users in order over one scan's costs, so no rounding puts the ratio below 1.

        4^8 seeds 0-119 hold interference cells (seed 8 the first) whose optimum total numpy's
        row sum rounds below the worst equilibrium's; 4^10 seeds 0-2 are streamed scans.
        """
        cells = [(8, seed) for seed in range(120)] + [(10, seed) for seed in range(3)]
        for n, seed in cells:
            report = poa_overhead(generate(GenParams(n_users=n, channels=3, access_model=access), seed))
            assert report.worst_equilibrium >= report.optimum, (n, seed)
            assert report.ratio >= 1.0, (n, seed)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_report_lists_no_nash_set(self, access, monkeypatch):
        """The ratio reads the scan's costliest equilibrium, and `exhaustive_optimize` checks the cap first."""
        params = GenParams(n_users=6, channels=2, access_model=access)
        expected = poa_overhead(generate(params, 3))

        def refuse(*args):
            raise AssertionError("poa_overhead listed the Nash set")

        monkeypatch.setattr(metrics, "enumerate_nash", refuse)
        assert repr(poa_overhead(generate(params, 3))) == repr(expected)
        with pytest.raises(InstanceTooLarge):
            poa_overhead(generate(params, 3), profile_cap=3**6 - 1)

    def test_worst_case_cloud_cost_vanishes_into_best_case_with_many_channels(self):
        users = [simple_user(), simple_user(channel_gain=2.0), simple_user(channel_gain=0.5)]
        k_maxes = []
        for m in (1, 2, 4, 8, 10**9):
            env = simple_env(channels=m, bandwidth_hz=1.0, noise_mw=0.25)
            k_min, k_max = _cloud_cost_extremes(ProfileEvaluator(env, users))[:, 0]
            k_maxes.append(k_max)
            assert k_max >= k_min
        assert all(b < a for a, b in zip(k_maxes, k_maxes[1:]))
        env = simple_env(channels=10**9, bandwidth_hz=1.0, noise_mw=0.25)
        k_min, k_max = _cloud_cost_extremes(ProfileEvaluator(env, users))[:, 0]
        assert k_max == pytest.approx(k_min, rel=1e-6)

    def test_no_bound_under_contention(self):
        users = (
            contention_user_with_threshold(2, 1),
            contention_user_with_threshold(4, 2),
        )
        report = poa_overhead(contention_scenario_from_users(users, channels=2))
        assert report.bound_high is None
        assert report.ratio >= 1.0


class TestCloudCostExtremes:
    def test_single_user_extremes_coincide(self):
        scenario = small_paper_scenario(1, 3, seed=4)
        env, users = scenario.channel_env, scenario.user_profiles
        k_min, k_max = _cloud_cost_extremes(ProfileEvaluator(env, users))[:, 0]
        assert k_min == k_max

    def test_rows_match_the_oracle_on_random_interference_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            env, users = random_instance(rng, n_range=(1, 9), m_range=(1, 5))
            extremes = _cloud_cost_extremes(ProfileEvaluator(env, users))
            assert extremes.shape == (2, len(users))
            for n, u in enumerate(users):
                others = 0.0
                for i, other in enumerate(users):
                    if i != n:
                        others += access_weight(env, other)
                for row, mu in enumerate((0.0, others / env.channels)):
                    expected = reference.cloud_cost_at_rate(u, reference.rate_at(env, u, mu))
                    assert extremes[row, n] == pytest.approx(expected, rel=1e-12)

    def test_lower_envelope_of_all_profiles(self):
        scenario = small_paper_scenario(4, 2, seed=13)
        env, users = scenario.channel_env, scenario.user_profiles
        k_min = _cloud_cost_extremes(ProfileEvaluator(env, users))[0]
        for n in range(len(users)):
            for a in itertools.product(range(env.channels + 1), repeat=len(users)):
                if a[n] > 0:
                    assert reference.cloud_overhead(env, users, n, a) >= k_min[n] - 1e-12

    def test_equilibrium_interference_and_cost_caps(self):
        rng = np.random.default_rng(43)
        for i in range(10):
            scenario = small_paper_scenario(
                int(rng.integers(2, 6)), int(rng.integers(1, 4)), seed=260 + i
            )
            env, users = scenario.channel_env, scenario.user_profiles
            k_max = _cloud_cost_extremes(ProfileEvaluator(env, users))[1]
            for a in enumerate_nash(scenario):
                for n in range(len(users)):
                    if a[n] == 0:
                        continue
                    spread = sum(
                        access_weight(env, users[i2]) for i2 in range(len(users)) if i2 != n
                    ) / env.channels
                    mu = reference.received_interference(env, users, n, a[n], a)
                    assert mu <= spread + 1e-12
                    cap = min(local_overhead(users[n]), k_max[n])
                    assert reference.cloud_overhead(env, users, n, a) <= cap + 1e-9 * cap


class TestReportConsistency:
    def test_ratios_recomputable_from_parts(self):
        scenario = small_paper_scenario(5, 2, seed=15, time_only=True)
        env, users = scenario.channel_env, scenario.user_profiles
        beneficial = poa_beneficial(scenario)
        assert beneficial.ratio == pytest.approx(
            beneficial.worst_equilibrium / beneficial.optimum
        )
        overhead = poa_overhead(scenario)
        _, optimum = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD)
        worst = max(reference.system_overhead(env, users, a) for a in enumerate_nash(scenario))
        assert overhead.optimum == pytest.approx(optimum, rel=1e-15)
        assert overhead.worst_equilibrium == pytest.approx(worst, rel=1e-15)


class TestScenarioEvaluatorOnly:
    @pytest.mark.parametrize("access", list(AccessModel))
    def test_equilibria_are_scored_without_a_new_evaluator(self, access, monkeypatch):
        """Both ratios score the canonical equilibria on `scenario.evaluator`, with the bits of the views.

        The single-profile views build an evaluator per call: 62 builds for
        two N=8, M=3 cells, were the ratios to score through them.
        """
        params = GenParams(n_users=8, channels=3, access_model=access,
                           contention_weight_choices=(1.0, 2.0, 3.0))
        scenarios = [generate(params, seed) for seed in range(2)]  # each builds its evaluator
        built = []
        init = ProfileEvaluator.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(ProfileEvaluator, "__init__", spy)
        reports = [(poa_beneficial(s), poa_overhead(s)) for s in scenarios]
        assert built == []
        monkeypatch.undo()
        for scenario, (beneficial, overhead) in zip(scenarios, reports):
            env, users = scenario.channel_env, scenario.user_profiles
            equilibria = enumerate_nash(scenario)
            assert beneficial.worst_equilibrium == min(count_beneficial(env, users, a) for a in equilibria)
            assert overhead.worst_equilibrium == max(system_overhead(env, users, a) for a in equilibria)


def _never_beneficial_scenario(access) -> Scenario:
    """Cloud execution alone outlasts local computing for every user, so no user ever benefits."""
    user = ScenarioUser(q_mw=100.0, g=1.0, b_kb=1.0, d_megacycles=10.0, f_m_ghz=1.0, f_c_ghz=0.5,
                        gamma_j_per_cycle=0.0, L_j=0.0, lambda_e=0.0, W=1.0, R_bps=8000.0)
    return replace(contention_scenario_from_users([user] * 4, channels=2), access_model=access)


class TestCanonicalScoring:
    """The ratios read both worst equilibria from the scan, which scores one profile per relabelling class."""

    @pytest.mark.parametrize("access", list(AccessModel))
    @pytest.mark.parametrize("n_users, channels, seeds", [
        (8, 3, (0, 1)), (7, 5, (0, 1)), (6, 2, (0, 1)), (5, 1, (0, 1)), (1, 1, (0, 1)), (3, 1, (0, 1)),
        # more canonical profiles than one chunk holds: the scan streams, over 2, 4 and 14 chunks
        (9, 4, (0,)), (10, 3, (2, 3)), (13, 2, (0,)),
    ], ids=["8x3", "7x5", "6x2", "5x1", "1x1", "3x1", "9x4", "10x3", "13x2"])
    def test_worst_equilibria_match_scoring_the_whole_nash_set(self, access, n_users, channels, seeds):
        for seed in seeds:
            for energy_weights in ((1.0, 0.5, 0.0), (0.0,)):
                params = GenParams(n_users=n_users, channels=channels, access_model=access,
                                   contention_weight_choices=(1.0, 2.0, 3.0), energy_weight_choices=energy_weights)
                self._check(generate(params, seed))

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_worst_equilibria_when_no_user_ever_benefits(self, access):
        scenario = _never_beneficial_scenario(access)
        assert enumerate_nash(scenario) == [(0, 0, 0, 0)]
        beneficial = self._check(scenario)
        assert (beneficial.worst_equilibrium, beneficial.optimum, beneficial.ratio) == (0.0, 0.0, 1.0)

    @staticmethod
    def _check(scenario):
        """Both worst equilibria equal the old whole-set loop's, bit for bit; returns the beneficial report."""
        beneficial, overhead = poa_beneficial(scenario), poa_overhead(scenario)
        fewest, costliest = reference.worst_equilibria(scenario)
        assert beneficial.worst_equilibrium == float(fewest)
        assert np.float64(overhead.worst_equilibrium).tobytes() == np.float64(costliest).tobytes()
        return beneficial

    def test_the_metrics_score_no_profile_once_the_scan_is_cached(self, monkeypatch):
        """At N=7, M=5 the Nash set has 120 relabellings per class; neither ratio scores any of them."""
        params = GenParams(n_users=7, channels=5, contention_weight_choices=(1.0, 2.0, 3.0),
                           energy_weight_choices=(0.0,))
        scenario = generate(params, 1)
        equilibria = enumerate_nash(scenario)  # the scan is cached before the spy goes in
        assert len(equilibria) > 120 and len(equilibria) % 120 == 0
        rows = []
        batch_costs = ProfileEvaluator._batch_costs

        def spy(self, batch):
            rows.append(len(batch))
            return batch_costs(self, batch)

        monkeypatch.setattr(ProfileEvaluator, "_batch_costs", spy)
        poa_beneficial(scenario)
        poa_overhead(scenario)
        assert rows == []
