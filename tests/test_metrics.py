"""Tests for the efficiency-ratio metrics and analytic bounds."""

import itertools
import math

import numpy as np
import pytest

from offload_game import (
    ContentionUnsupported,
    GenParams,
    Objective,
    ProfileEvaluator,
    access_weight,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    local_overhead,
    poa_beneficial,
    poa_overhead,
)
from offload_game.metrics import BENEFICIAL_USERS, SYSTEM_OVERHEAD
from offload_game.model import AccessModel
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

    def test_worst_equilibrium_is_the_min_over_the_nash_set(self):
        scenario = small_paper_scenario(4, 2, seed=9, time_only=True)
        report = poa_beneficial(scenario)
        env, users = scenario.channel_env, scenario.user_profiles
        counts = []
        for a in enumerate_nash(scenario):
            # every offloader at an equilibrium is beneficial, so the count
            # collapses to the number of offloaders
            assert reference.count_beneficial(env, users, a) == sum(1 for d in a if d > 0)
            counts.append(reference.count_beneficial(env, users, a))
        assert report.worst_equilibrium == min(counts)


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
            assert 1.0 - 1e-12 <= report.ratio <= report.bound_high + 1e-12

    def test_worst_case_cloud_cost_vanishes_into_best_case_with_many_channels(self):
        users = [simple_user(), simple_user(channel_gain=2.0), simple_user(channel_gain=0.5)]
        k_maxes = []
        for m in (1, 2, 4, 8, 10**9):
            env = simple_env(channels=m, bandwidth_hz=1.0, noise_mw=0.25)
            k_min, k_max = ProfileEvaluator(env, users).cloud_cost_extremes()[:, 0]
            k_maxes.append(k_max)
            assert k_max >= k_min
        assert all(b < a for a, b in zip(k_maxes, k_maxes[1:]))
        env = simple_env(channels=10**9, bandwidth_hz=1.0, noise_mw=0.25)
        k_min, k_max = ProfileEvaluator(env, users).cloud_cost_extremes()[:, 0]
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
        k_min, k_max = ProfileEvaluator(env, users).cloud_cost_extremes()[:, 0]
        assert k_min == k_max

    def test_rows_match_the_oracle_on_random_interference_instances(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            env, users = random_instance(rng, n_range=(1, 9), m_range=(1, 5))
            extremes = ProfileEvaluator(env, users).cloud_cost_extremes()
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
        k_min = ProfileEvaluator(env, users).cloud_cost_extremes()[0]
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
            k_max = ProfileEvaluator(env, users).cloud_cost_extremes()[1]
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

    def test_contention_unsupported(self):
        users = (contention_user_with_threshold(2, 1),)
        scenario = contention_scenario_from_users(users, channels=1)
        with pytest.raises(ContentionUnsupported):
            ProfileEvaluator(scenario.channel_env, scenario.user_profiles).cloud_cost_extremes()


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
