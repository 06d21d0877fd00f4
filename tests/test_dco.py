"""Tests for the slotted simulation and its convergence bound."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offload_game import (
    BoundInapplicable,
    GenParams,
    SchemaError,
    generate,
    RunReport,
    run_dco,
    convergence_slot_bound,
    write_scenario,
)
from offload_game._version import __version__
from offload_game.cli import main
from offload_game import dco, game
from offload_game.game import BEST_RESPONSE_ATOL, ProfileEvaluator
from offload_game.model import AccessModel
from offload_game.scenario import Scenario, ScenarioUser
import reference
from test_jsonio import RECORD_CASES
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
        assert [f.name for f in fields(RunReport)] == ["seed", "slots"]
        assert report.seed == 2
        assert report.total_slots == report.update_slots + 1
        assert reference.is_nash(scenario.channel_env, scenario.user_profiles, report.final_profile)

    @pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
    def test_run_never_serializes_its_scenario(self, monkeypatch, access):
        """The report names no scenario, so a run neither saves nor hashes the scenario document."""
        scenario = generate(GenParams(n_users=8, channels=2, access_model=access), 3)

        def refuse(_):
            raise AssertionError("run_dco serialized its scenario")

        monkeypatch.setattr("offload_game.scenario.save_scenario", refuse)
        assert run_dco(scenario, 3).update_slots > 0


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


class TestSlotTotal:
    """A slot's total cost is its profile's `system_overheads`, one numpy total for both."""

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_every_slot_total_is_the_batch_total_bit_for_bit(self, access):
        """numpy's pairwise sum changes path at 8 and at 128 terms, so N crosses both."""
        for n_users in (1, 2, 7, 8, 9, 64, 127, 128, 129, 300, 1000, 2000):
            params = GenParams(n_users=n_users, channels=1 + n_users // 25, access_model=access)
            scenario = generate(params, n_users)
            evaluator = scenario.evaluator
            for rec in run_dco(scenario, n_users).slots:
                total = evaluator.system_overheads([rec.profile])[0]
                assert np.float64(rec.system_overhead).tobytes() == total.tobytes(), (n_users, rec.slot)


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

    @pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
    def test_least_load_moving_on_every_slot_or_on_none(self, access):
        """On one channel every move changes the least load, so `run_dco` rebuilds the requester set on
        every slot; with more channels than users one stays empty, so it rebuilds it on the first slot
        only and keeps it on every other.  Both equal the dense loop."""
        for seed in range(40):
            n = 2 + seed % 12
            for m in (1, n + 1):
                scenario = generate(GenParams(n_users=n, channels=m, access_model=access), 3000 + seed)
                report = run_dco(scenario, seed)
                assert report == reference.run_dco_dense(scenario, seed), (n, m, seed)
                want = [True] * report.total_slots if m == 1 else [True] + [False] * report.update_slots
                assert [t is None for t in report._renewed["rtu_senders"]] == want, (n, m, seed)

    @pytest.mark.parametrize("access", list(AccessModel), ids=lambda a: a.value)
    def test_copies_of_one_user_tie_for_the_least_load(self, access):
        """Copies of one user on two or four channels: equal loads are equal sums, so occupied channels
        tie for the least load on some slots, not only the empty ones of the first."""
        ties = 0
        for seed in range(30):
            base = generate(GenParams(n_users=1, channels=4, access_model=access), seed)
            for m in (2, 4):
                scenario = replace(base, channels=m, users=base.users * (3 + seed % 9))
                report = run_dco(scenario, seed)
                assert report == reference.run_dco_dense(scenario, seed), (m, seed)
                for rec in report.slots:
                    loads = scenario.evaluator.channel_loads([rec.profile])[0]
                    ties += int(loads.min() > 0 and np.count_nonzero(loads == loads.min()) > 1)
        assert ties > 10

    def test_contention_unit_weights_mostly_keep_the_requester_set(self):
        """Unit contention weights give exact integer loads, and the least load stays 0 until every
        channel carries a user, so most slots keep the requester set and re-test only moved costs."""
        for seed, (n, m) in enumerate([(60, 10), (200, 40)] * 3):
            scenario = generate(GenParams(n_users=n, channels=m, access_model=AccessModel.CONTENTION), seed)
            report = run_dco(scenario, seed)
            assert report == reference.run_dco_dense(scenario, seed), (n, m, seed)
            assert 4 * sum(t is None for t in report._renewed["rtu_senders"]) < report.total_slots

    @pytest.mark.parametrize("seed, params", [case for case in RECORD_CASES
                                              if case.id in ("free-upload", "sub-ulp-descent")])
    def test_edge_generators_equal_the_dense_loop(self, seed, params):
        scenario = generate(params, seed)
        assert run_dco(scenario, seed) == reference.run_dco_dense(scenario, seed)

    def test_one_philox_per_run_picks_as_a_fresh_one_per_slot(self):
        """15,000 (seed, slot, n) picks, slots out of order, against `Philox(key=seed, counter=slot)` each.

        n runs from 1 to past 2**32, where `integers` switches from 32-bit draws,
        which buffer half a word, to 64-bit ones; a pick left to read a buffer
        of the pick before it would draw otherwise.
        """
        rng = np.random.default_rng(27)
        edges = [1, 2, 3, 255, 256, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63]
        seeds = [0, 1, 2**64 - 1, 2**64, 2**128 - 1] + rng.integers(0, 2**63, size=20).tolist()
        triples = 0
        for seed in seeds:
            pick = dco._slot_picker(seed)
            slots = rng.permutation(np.concatenate([np.arange(40), rng.integers(40, 2**40, size=160)])).tolist()
            for slot in slots:
                for n in (edges[rng.integers(len(edges))], int(2 ** rng.uniform(0, 40)) + 1, int(2 ** rng.uniform(0, 62.9))):
                    assert pick(slot, n) == int(reference.slot_rng(seed, slot).integers(n)), (seed, slot, n)
                    triples += 1
        assert triples >= 15_000

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

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_unchanged_entries_are_the_last_slots_objects(self, access):
        """A slot hands on the very object of each entry that did not change, and only those.

        A cost entry is the last slot's object exactly when its float64 bits are
        equal; a decision entry is, unless its user moved.  Each is an exact
        float or int, as the streamed report writer needs.  A requester of the
        last slot that still requests is the same int object.
        """
        kept = renewed = kept_requesters = 0
        cases = [(seed, [(8, 3), (40, 5), (120, 20)][seed % 3]) for seed in range(6)]
        for seed, (n, m) in cases + [(6, (400, 66)), (7, (400, 66))]:
            report = run_dco(generate(GenParams(n_users=n, channels=m, access_model=access), seed), seed)
            for last, rec in zip(report.slots, report.slots[1:]):
                assert {type(c) for c in rec.overheads} == {float}
                assert {type(d) for d in rec.profile} == {int}
                same_bits = np.array(rec.overheads).view(np.int64) == np.array(last.overheads).view(np.int64)
                same_object = [c is c0 for c, c0 in zip(rec.overheads, last.overheads)]
                assert same_object == same_bits.tolist(), (n, m, seed, rec.slot)
                moved = [i == last.updater for i in range(n)]
                assert [d is not d0 for d, d0 in zip(rec.profile, last.profile)] == moved
                requesters = {i: i for i in last.rtu_senders}  # each requester's object, by value
                assert all(i is requesters[i] for i in rec.rtu_senders if i in requesters), (n, m, seed, rec.slot)
                kept += int(same_bits.sum())
                renewed += int((~same_bits).sum())
                # CPython caches the ints up to 256, so only those above show a shared object
                kept_requesters += len({i for i in rec.rtu_senders if i > 256} & requesters.keys())
        assert kept > renewed > 0 and kept_requesters > 0

    def test_a_move_that_does_not_lower_the_potential_raises(self, tmp_path, monkeypatch):
        """The descent guard names the slot and the user; `trace` lets it propagate as the bug it is."""
        scenario = generate(GenParams(n_users=8, channels=3), 1)
        first_mover = run_dco(scenario, 0).slots[0].updater
        best_response = ProfileEvaluator._best_response

        def level(evaluator, own, load, user, current_cost):
            new_decision, _, mu_old = best_response(evaluator, own, load, user, current_cost)
            return new_decision, mu_old, mu_old

        monkeypatch.setattr(ProfileEvaluator, "_best_response", level)
        message = f"potential failed to decrease at slot 0: user {first_mover} moves "
        with pytest.raises(RuntimeError, match=message):
            run_dco(scenario, 0)
        path = tmp_path / "scenario.json"
        write_scenario(path, scenario)
        with pytest.raises(RuntimeError, match=message):
            main(["trace", "--scenario", str(path), "--seed", "0", "--out", str(tmp_path / "out")])


def assert_two_candidates_match(scenario, profile) -> int:
    """The slot engine's _costs, _floor and _best_response against every candidate cost, bit for bit.

    The slot is a one-column batch: its costs have the bytes of `_batch_costs`
    on the same 1-row batch.  Returns how many users have a move, each of
    which was checked against the reference tie rule and the μ of the
    measurement rule.
    """
    evaluator = scenario.evaluator
    batch = np.array([profile], dtype=np.int64)
    decisions = batch.T  # a one-column batch's flat index into its loads, as in `run_dco`
    loads = evaluator._loads(game._one_hot(batch, evaluator.channels), 1)
    load = loads[:, 0]
    candidates = evaluator.candidate_overheads(batch)[0]
    current = evaluator._costs(decisions, decisions == 0, loads)
    batch_costs = evaluator._batch_costs(batch)[1]
    assert (current.shape, current.tobytes()) == (batch_costs.shape, batch_costs.tobytes())
    costs = current[:, 0]
    assert costs.tolist() == candidates[np.arange(len(costs)), batch[0]].tolist()
    improvers = (evaluator._floor(loads) < current)[:, 0]
    assert improvers.tolist() == (candidates.min(axis=1) < costs).tolist()
    movers = np.flatnonzero(improvers).tolist()
    for n in movers:
        own = int(batch[0, n])
        decision, mu_new, mu_old = evaluator._best_response(own, load, n, current[n, 0])
        assert decision == reference.best_responses(candidates[n].tolist(), float(costs[n]))[0]
        at_local = float(evaluator._phi_thresholds[n])
        assert mu_new == (float(load[decision]) if decision else at_local)
        assert mu_old == (float(load[own] - evaluator.weights[n]) if own else at_local)
    return len(movers)


class TestWeightScaling:
    def test_contention_weights_times_four_scale_only_the_potential(self):
        """Every contention weight times 4 scales each load and threshold by 4 exactly and leaves
        each rate share as it was, so a run makes the same moves at the same costs, and φ, a sum of
        weight products, reads exactly 16 times as much on every slot."""
        nonzero = 0
        for seed in range(20):
            base, scaled = (
                run_dco(generate(GenParams(n_users=40, channels=4, access_model=AccessModel.CONTENTION,
                                           contention_weight_choices=choices), seed), seed)
                for choices in [(1.0, 2.0, 0.5), (4.0, 8.0, 2.0)]
            )
            assert base.update_slots > 0 and scaled.total_slots == base.total_slots, seed
            for rec, twin in zip(base.slots, scaled.slots):
                assert replace(twin, potential=rec.potential) == rec, (seed, rec.slot)
                assert twin.potential == 16 * rec.potential, (seed, rec.slot)
                nonzero += rec.potential != 0
        assert nonzero > 0


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

    def test_a_thousand_channels_with_exact_ties(self):
        """Contention with weights 1 and 2: every load is an exact integer, so hundreds of channels tie.

        A random profile leaves some channels empty; a round-robin one loads every channel.
        """
        scenario = generate(GenParams(n_users=1500, channels=1000, access_model=AccessModel.CONTENTION,
                                      contention_weight_choices=(1.0, 2.0)), 17)
        random_profile = np.random.default_rng(17).integers(0, 1001, 1500).tolist()
        for profile in (tuple(random_profile), tuple(1 + n % 1000 for n in range(1500))):
            cloud = scenario.evaluator.candidate_overheads([profile])[0, :, 1:]
            assert np.count_nonzero((cloud == cloud.min(axis=1, keepdims=True)).sum(axis=1) > 1) >= 1000
            assert assert_two_candidates_match(scenario, profile) > 1000

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
        load = np.array([np.nan, np.nextafter(2.0, np.inf), 2.0])  # channel 1 one ulp heavier
        costs = evaluator._cloud_costs(load[np.newaxis, 1:], slice(0, 1))[0].tolist()
        assert 0.0 < costs[0] - costs[1] <= BEST_RESPONSE_ATOL
        move = evaluator._best_response(0, load, 0, float(evaluator.local_costs[0]))
        assert move == (1, float(load[1]), float(evaluator._phi_thresholds[0]))

    def test_local_within_tolerance_wins(self):
        evaluator = near_tie_scenario().evaluator
        # user 0 on channel 1 facing μ = 3; channel 2 just below its threshold
        load = np.array([np.nan, 4.0, np.nextafter(evaluator.thresholds[0], -np.inf)])
        own_cost, cheapest = evaluator._cloud_costs(load[np.newaxis, 1:] - [1.0, 0.0], slice(0, 1))[0]
        local = float(evaluator.local_costs[0])
        assert cheapest < local < own_cost and local - cheapest <= BEST_RESPONSE_ATOL
        move = evaluator._best_response(1, load, 0, own_cost)
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


def _magnitudes(lo, hi, zero=False, top=1e300):
    """Floats in [lo, hi], or an extreme: 1e-300, `top` and, where the model allows it, 0."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([1e-300, top] + [0.0] * zero))


GHZ_TOP = 1e290  # 1e300 GHz is past the float range in Hz, so the scenario would only be rejected


def _choices(values):
    return st.lists(values, min_size=1, max_size=3).map(tuple)


@st.composite
def generator_params(draw):
    """Small GenParams under either access model, from typical to extreme finite values."""
    return GenParams(
        n_users=draw(st.integers(1, 6)),
        channels=draw(st.integers(1, 4)),
        cell_radius_m=draw(_magnitudes(1.0, 500.0)),
        path_loss_exponent=draw(_magnitudes(2.0, 5.0)),
        bandwidth_hz=draw(_magnitudes(1e5, 1e8)),
        noise_dbm=draw(st.floats(-150.0, -50.0)),
        transmit_power_mw=draw(_magnitudes(1.0, 1e3, zero=True)),
        input_kb=draw(_magnitudes(1.0, 1e4)),
        task_megacycles=draw(_magnitudes(1.0, 1e4)),
        device_rate_choices_ghz=draw(_choices(_magnitudes(0.1, 3.0, top=GHZ_TOP))),
        cloud_rate_ghz=draw(_magnitudes(1.0, 100.0, top=GHZ_TOP)),
        energy_weight_choices=draw(_choices(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))),
        energy_per_cycle_j=draw(_magnitudes(1e-10, 1e-8, zero=True)),
        tail_energy_j=draw(_magnitudes(0.01, 1.0, zero=True)),
        access_model=draw(st.sampled_from(list(AccessModel))),
        contention_weight_choices=draw(_choices(_magnitudes(0.1, 10.0))),
        contention_peak_rate_bps=draw(_magnitudes(1e6, 1e9)),
    )


@settings(max_examples=300)
# bandwidth times the cost budget underflowed to 0: generate raised ZeroDivisionError
@example(params=GenParams(n_users=3, channels=2, bandwidth_hz=1e-300, task_megacycles=1e-300,
                          energy_weight_choices=(0.0,)), seed=0)
# a zero time weight times an overflowing local time: NaN costs, and DCO never moved
@example(params=GenParams(n_users=3, channels=2, access_model=AccessModel.CONTENTION,
                          transmit_power_mw=0.0, device_rate_choices_ghz=(1e-300,),
                          task_megacycles=1e300, energy_weight_choices=(1.0,),
                          energy_per_cycle_j=0.0), seed=0)
# two local times of 1e308 s: slot 0's total overflows to +inf
@example(params=GenParams(n_users=2, channels=1, task_megacycles=1e300,
                          device_rate_choices_ghz=(1e-11,), energy_weight_choices=(0.0,)), seed=0)
@given(params=generator_params(), seed=st.integers(0, 2**16))
def test_extreme_generators_run_as_the_dense_oracle(params, seed):
    """A generated instance raises SchemaError, or `run_dco` equals the dense oracle's run
    and ends at a profile the Nash test accepts."""
    try:
        scenario = generate(params, seed)
    except SchemaError:
        return
    report = run_dco(scenario, seed)
    with np.errstate(over="ignore"):  # the oracle's total of finite costs may pass the float range
        assert report == reference.run_dco_dense(scenario, seed)
    assert scenario.evaluator.nash_mask([report.final_profile])[0]
