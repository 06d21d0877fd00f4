"""Tests for the slotted simulation and its convergence bound."""

from dataclasses import replace

import numpy as np
import pytest

from offload_game import (
    BoundInapplicable,
    GenParams,
    SchemaError,
    generate,
    run_dco,
    scenario_fingerprint,
    convergence_slot_bound,
)
from offload_game._version import __version__
from offload_game.game import BEST_RESPONSE_ATOL, ProfileEvaluator
from offload_game.model import AccessModel
from offload_game.scenario import Scenario, ScenarioUser
import reference
from support import (
    contention_scenario_from_users,
    contention_user_with_threshold,
    integer_contention_scenario,
    small_paper_scenario,
)


def all_never_beneficial_scenario(n_users=3, channels=2):
    """Cloud CPUs slower than the devices: offloading can never pay off."""
    row = ScenarioUser(
        q_mw=100.0, g=1e-4, b_kb=100.0, d_megacycles=1000.0,
        f_m_ghz=1.0, f_c_ghz=0.5, gamma_j_per_cycle=0.0, L_j=0.0,
        lambda_e=0.0, W=1.0, R_bps=1e8,
    )
    return Scenario(
        seed=0, generator={"source": "handwritten"}, version=__version__,
        channels=channels, bandwidth_hz=5e6, noise_dbm=-100.0,
        access_model=AccessModel.INTERFERENCE, users=(row,) * n_users,
    )


class TestRunDco:
    def test_all_never_beneficial_terminates_immediately(self):
        scenario = all_never_beneficial_scenario()
        report = run_dco(scenario, seed=4)
        assert report.update_slots == 0
        assert report.total_slots == 1
        assert report.final_profile == (0, 0, 0)
        assert len(report.slots) == 1
        assert report.slots[0].rtu_senders == ()
        assert report.slots[0].updater is None
        assert report.beneficial_count == 0

    def test_single_user_single_channel_one_update(self):
        scenario = small_paper_scenario(1, 1, seed=3, time_only=True)
        report = run_dco(scenario, seed=0)
        assert report.update_slots == 1
        assert report.total_slots == 2
        assert report.final_profile == (1,)
        first, last = report.slots
        assert first.profile == (0,) and first.updater == 0 and first.new_decision == 1
        assert last.profile == (1,) and last.rtu_senders == ()
        assert report.beneficial_count == 1

    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**128, None])
    def test_bad_seed_rejected_before_slot_0(self, seed):
        """On a scenario where nobody moves as well as on one where somebody does."""
        moves = small_paper_scenario(1, 1, seed=3, time_only=True)
        for scenario in (all_never_beneficial_scenario(), moves):
            with pytest.raises(SchemaError) as excinfo:
                run_dco(scenario, seed)
            assert excinfo.value.path == "seed"

    def test_largest_seed_runs(self):
        report = run_dco(small_paper_scenario(1, 1, seed=3, time_only=True), 2**128 - 1)
        assert report.seed == 2**128 - 1 and report.update_slots == 1

    def test_replay_is_bit_identical(self):
        scenario = small_paper_scenario(8, 3, seed=21)
        assert run_dco(scenario, seed=5) == run_dco(scenario, seed=5)
        assert run_dco(scenario, seed=5) != run_dco(scenario, seed=6)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_trace_structure_and_terminal_nash(self, access):
        rng = np.random.default_rng(30)
        for i in range(15):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 4))
            scenario = generate(GenParams(n_users=n, channels=m, access_model=access), 300 + i)
            report = run_dco(scenario, seed=i)
            env, users = scenario.channel_env, scenario.user_profiles
            # exactly one coordinate changes per update slot
            for before, after in zip(report.slots, report.slots[1:]):
                changed = [
                    k for k in range(n) if before.profile[k] != after.profile[k]
                ]
                assert changed == [before.updater]
                assert after.profile[before.updater] == before.new_decision
            # potential strictly decreases across the trace
            phis = [rec.potential for rec in report.slots]
            assert all(b < a for a, b in zip(phis, phis[1:]))
            # the result is the last slot, and it is a Nash equilibrium with
            # only winners offloading
            last = report.slots[-1]
            assert report.final_profile == last.profile
            assert report.total_slots == len(report.slots) == report.update_slots + 1
            assert report.beneficial_count == last.beneficial_count
            assert report.system_overhead == last.system_overhead
            assert reference.is_nash(env, users, report.final_profile)
            assert report.beneficial_count == reference.count_beneficial(
                env, users, report.final_profile
            )
            assert report.beneficial_count == sum(1 for d in report.final_profile if d > 0)

    def test_updater_always_a_request_sender(self):
        scenario = small_paper_scenario(10, 3, seed=77)
        report = run_dco(scenario, seed=9)
        for rec in report.slots[:-1]:
            assert rec.updater in rec.rtu_senders

    def test_report_metadata(self):
        scenario = small_paper_scenario(4, 2, seed=1)
        report = run_dco(scenario, seed=2)
        assert report.scenario_fingerprint == scenario_fingerprint(scenario)
        assert report.seed == 2
        assert report.total_slots == report.update_slots + 1
        assert reference.is_nash(scenario.channel_env, scenario.user_profiles, report.final_profile)


def _generated(access, weight_choices=(1.0,)):
    def build(seed):
        rng = np.random.default_rng(seed)
        params = GenParams(
            n_users=int(rng.integers(2, 9)), channels=int(rng.integers(1, 4)),
            access_model=access, contention_weight_choices=weight_choices,
        )
        return generate(params, 500 + seed)
    return build


class TestSlotStatistics:
    """Every SlotRecord against the scalar reference functions, slot by slot."""

    @pytest.mark.parametrize("build", [
        _generated(AccessModel.INTERFERENCE),
        _generated(AccessModel.CONTENTION),  # unit weights: symmetric channels tie exactly
        _generated(AccessModel.CONTENTION, weight_choices=(1.0, 2.0, 3.0)),
        lambda seed: integer_contention_scenario(6, 2, seed),  # exact integer ties
    ], ids=["interference", "contention-unit", "contention-weighted", "contention-integer"])
    def test_every_slot_matches_scalar_reference(self, build):
        for seed in range(12):
            scenario = build(seed)
            env, users = scenario.channel_env, scenario.user_profiles
            report = run_dco(scenario, seed)
            for rec in report.slots:
                a = rec.profile
                phi = reference.potential(env, users, a)
                assert rec.potential == pytest.approx(phi, rel=1e-9, abs=1e-18)
                assert rec.beneficial_count == reference.count_beneficial(env, users, a)
                expected = [reference.user_overhead(env, users, n, a) for n in range(len(users))]
                assert list(rec.overheads) == pytest.approx(expected, rel=1e-9)
                assert rec.system_overhead == pytest.approx(sum(expected), rel=1e-9)
                responses = [reference.best_response_set(env, users, n, a) for n in range(len(users))]
                assert rec.rtu_senders == tuple(n for n, r in enumerate(responses) if r)
                if rec.updater is not None:
                    assert rec.new_decision == min(responses[rec.updater])


# (N, M) shapes for the differential test: one channel, two, fewer users than
# channels, and many users on few channels
SHAPES = [(1, 1), (6, 1), (12, 1), (3, 2), (9, 2), (40, 2), (2, 5), (3, 8), (8, 3), (25, 4)]


class TestIncrementalEngine:
    """run_dco keeps per-channel state between slots; the dense loop rescores everything."""

    @pytest.mark.parametrize("access, weight_choices, energy_choices", [
        (AccessModel.INTERFERENCE, (1.0,), (1.0, 0.5, 0.0)),
        (AccessModel.INTERFERENCE, (1.0,), (0.0,)),  # time-only weights
        (AccessModel.CONTENTION, (1.0,), (1.0, 0.5, 0.0)),  # unit weights: exact ties
        (AccessModel.CONTENTION, (1.0, 2.0, 3.0), (0.0,)),
    ], ids=["interference", "interference-time-only", "contention-unit", "contention-weighted"])
    def test_reports_equal_the_dense_loop(self, access, weight_choices, energy_choices):
        for seed in range(520):
            n, m = SHAPES[seed % len(SHAPES)]
            params = GenParams(n_users=n, channels=m, access_model=access,
                               contention_weight_choices=weight_choices,
                               energy_weight_choices=energy_choices)
            scenario = generate(params, 7000 + seed)
            assert run_dco(scenario, seed) == reference.run_dco_dense(scenario, seed), (n, m, seed)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_large_report_equals_the_dense_loop(self, access):
        scenario = generate(GenParams(n_users=300, channels=50, access_model=access), 11)
        report = run_dco(scenario, 3)
        assert report.update_slots > 50
        assert report == reference.run_dco_dense(scenario, 3)

    def test_slots_run_no_profile_check(self, monkeypatch):
        """`run_dco` builds every profile itself, so no slot passes one through `_as_batch`."""
        scenario = generate(GenParams(n_users=30, channels=5), 3)
        calls = []
        check = ProfileEvaluator._as_batch

        def counted(evaluator, profiles):
            calls.append(profiles)
            return check(evaluator, profiles)

        monkeypatch.setattr(ProfileEvaluator, "_as_batch", counted)
        report = run_dco(scenario, 0)
        assert report.update_slots > 0 and calls == []
        assert scenario.evaluator.nash_mask([report.final_profile]).tolist() == [True]
        assert calls  # the counter sees an ordinary check


def assert_two_candidates_match(scenario, profile) -> int:
    """The slot engine's _costs, _improvers and _best_response against every candidate cost, bit for bit.

    Returns how many users have a move, each of which was checked against
    the reference tie rule and the μ of the measurement rule.
    """
    evaluator = scenario.evaluator
    decisions = np.array(profile, dtype=np.int64)
    loads = evaluator.channel_loads([decisions])[0]
    candidates = evaluator.candidate_overheads([decisions])[0]
    current = evaluator._costs(decisions, loads[decisions - 1] - evaluator.weights)
    assert current.tolist() == candidates[np.arange(len(decisions)), decisions].tolist()
    improvers = evaluator._improvers(current, loads.min())
    assert improvers.tolist() == (candidates.min(axis=1) < current).tolist()
    movers = np.flatnonzero(improvers).tolist()
    for n in movers:
        decision, mu_new, mu_old = evaluator._best_response(decisions, loads, n, float(current[n]))
        assert decision == reference.best_responses(candidates[n].tolist(), float(current[n]))[0]
        at_local, own = float(evaluator._phi_thresholds[n]), int(decisions[n])
        assert mu_new == (float(loads[decision - 1]) if decision else at_local)
        assert mu_old == (float(loads[own - 1] - evaluator.weights[n]) if own else at_local)
    return len(movers)


class TestTwoCandidates:
    """A user's cheapest channel is its own or the least-loaded one."""

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_user_on_the_least_loaded_channel(self, access):
        """The lightest user alone on channel 1; the other six share channels 2 and 3."""
        scenario = generate(GenParams(n_users=7, channels=3, access_model=access,
                                      contention_weight_choices=(1.0, 2.0, 3.0)), 4)
        by_weight = np.argsort(scenario.evaluator.weights)
        profile = np.empty(7, dtype=np.int64)
        profile[by_weight] = [1, 2, 3, 2, 3, 2, 3]
        loads = scenario.evaluator.channel_loads([profile])[0]
        assert loads[0] < loads[1:].min()
        assert_two_candidates_match(scenario, tuple(profile.tolist()))

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_two_channels_tied_for_least_load(self, access):
        """Seven copies of one user: channels 1 and 2 carry one each, 3 and 4 two each."""
        base = generate(GenParams(n_users=1, channels=4, access_model=access), 2)
        scenario = replace(base, users=base.users * 7)
        profile = (1, 2, 3, 3, 4, 4, 0)
        loads = scenario.evaluator.channel_loads([profile])[0].tolist()
        assert loads[0] == loads[1] < loads[2] == loads[3]
        assert_two_candidates_match(scenario, profile)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_single_channel(self, access):
        scenario = generate(GenParams(n_users=5, channels=1, access_model=access), 6)
        for profile in [(0,) * 5, (1, 0, 1, 0, 0), (1,) * 5]:
            assert_two_candidates_match(scenario, profile)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_random_profiles(self, access):
        rng = np.random.default_rng(40)
        movers = 0
        for seed in range(60):
            n, m = SHAPES[seed % len(SHAPES)]
            scenario = generate(GenParams(n_users=n, channels=m, access_model=access,
                                          contention_weight_choices=(1.0, 2.0)), 900 + seed)
            movers += assert_two_candidates_match(scenario, tuple(rng.integers(0, m + 1, n).tolist()))
        assert movers > 0


def near_tie_scenario():
    """Two copies of one contention user: weight 1, local cost 4, cloud cost 1 + μ + 4e-6."""
    row = ScenarioUser(
        q_mw=100.0, g=1.0, b_kb=1.0, d_megacycles=4.0, f_m_ghz=0.001, f_c_ghz=1000.0,
        gamma_j_per_cycle=0.0, L_j=0.0, lambda_e=0.0, W=1.0, R_bps=8000.0,
    )
    return contention_scenario_from_users([row, row], channels=2)


class TestBestResponseTieRule:
    """Near ties, where the tie rule and a plain argmin part ways; `load` is passed directly."""

    def test_lower_channel_within_tolerance_wins(self):
        evaluator = near_tie_scenario().evaluator
        load = np.array([np.nextafter(2.0, np.inf), 2.0])  # channel 1 one ulp heavier
        costs = evaluator._cloud_costs(load, 0).tolist()
        assert 0.0 < costs[0] - costs[1] <= BEST_RESPONSE_ATOL
        decisions = np.zeros(2, dtype=np.int64)
        move = evaluator._best_response(decisions, load, 0, float(evaluator.local_costs[0]))
        assert move == (1, float(load[0]), float(evaluator._phi_thresholds[0]))

    def test_local_within_tolerance_wins(self):
        evaluator = near_tie_scenario().evaluator
        # user 0 on channel 1 facing μ = 3; channel 2 just below its threshold
        load = np.array([4.0, np.nextafter(evaluator.thresholds[0], -np.inf)])
        own_cost, cheapest = evaluator._cloud_costs(load - [1.0, 0.0], 0).tolist()
        local = float(evaluator.local_costs[0])
        assert cheapest < local < own_cost and local - cheapest <= BEST_RESPONSE_ATOL
        decisions = np.array([1, 0], dtype=np.int64)
        move = evaluator._best_response(decisions, load, 0, own_cost)
        assert move == (0, float(evaluator._phi_thresholds[0]), 3.0)


class TestConvergenceBound:
    def test_hand_arithmetic(self):
        # weights (2,1,1,2), thresholds (2,3,0,0): bound = (4/2)*16 + (2*3/1)*4 = 56
        users = (
            contention_user_with_threshold(2, 2),
            contention_user_with_threshold(3, 1),
            contention_user_with_threshold(0, 1),
            contention_user_with_threshold(0, 2),
        )
        scenario = contention_scenario_from_users(users, channels=2)
        assert convergence_slot_bound(scenario) == 56.0

    def test_uniform_weights_zero_thresholds(self):
        users = tuple(contention_user_with_threshold(0, 3) for _ in range(4))
        scenario = contention_scenario_from_users(users, channels=2)
        # (9/6)*16 + 0 = 24, i.e. weight * n^2 / 2
        assert convergence_slot_bound(scenario) == 3.0 * 16 / 2

    def test_non_integer_instance_rejected(self):
        with pytest.raises(BoundInapplicable):
            convergence_slot_bound(small_paper_scenario(4, 2, seed=0))

    def test_never_beneficial_instance_rejected(self):
        with pytest.raises(BoundInapplicable):
            convergence_slot_bound(all_never_beneficial_scenario())

    def test_observed_updates_within_bound(self):
        rng = np.random.default_rng(31)
        for i in range(20):
            scenario = integer_contention_scenario(
                int(rng.integers(3, 10)), int(rng.integers(1, 4)), 500 + i
            )
            bound = convergence_slot_bound(scenario)
            for seed in range(5):
                assert run_dco(scenario, seed).update_slots <= bound
