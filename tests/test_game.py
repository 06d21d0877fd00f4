"""Unit and property tests for the game layer."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offload_game import (
    GenParams,
    ProfileEvaluator,
    SchemaError,
    access_weight,
    beneficial_threshold,
    count_beneficial,
    enumerate_nash,
    generate,
    is_nash,
    load_scenario,
    poa_beneficial,
    poa_overhead,
    system_overhead,
    user_overhead,
)
from offload_game import game
from offload_game.game import BEST_RESPONSE_ATOL
from offload_game.model import AccessModel, ChannelEnv, _cloud_cost_coefficients
import reference
from support import (
    INFINITE_COEFFICIENT_ROW,
    extreme_users,
    infinite_coefficient_users,
    integer_contention_scenario,
    never_beneficial_user,
    random_instance,
    random_profile,
    random_user,
    simple_env,
    simple_user,
    small_paper_scenario,
)


def find_improving_deviation(rng, env, users, a):
    """(user, new decision) with strictly lower cost, or None at an equilibrium."""
    for n in rng.permutation(len(users)):
        n = int(n)
        current = reference.user_overhead(env, users, n, a)
        for d in rng.permutation(env.channels + 1):
            d = int(d)
            if d == a[n]:
                continue
            b = list(a)
            b[n] = d
            if reference.user_overhead(env, users, n, tuple(b)) < current:
                return n, d
    return None


class TestAccessWeight:
    def test_interference_power_gain_product(self):
        u = simple_user(transmit_power_mw=100.0, channel_gain=1e-8)
        assert access_weight(simple_env(), u) == 100.0 * 1e-8

    def test_contention_weight(self):
        u = simple_user(contention_weight=3.0)
        assert access_weight(simple_env(access=AccessModel.CONTENTION), u) == 3.0

    def test_zero_gain(self):
        u = simple_user(channel_gain=0.0)
        assert access_weight(simple_env(), u) == 0.0


class TestInterferenceAndLoad:
    def test_empty_channel(self):
        env = simple_env(channels=2)
        users = [simple_user(), simple_user()]
        assert reference.received_interference(env, users, 0, 2, (1, 1)) == 0.0
        assert reference.channel_load(env, users, 2, (1, 1)) == 0.0

    def test_two_cochannel_users(self):
        env = simple_env()
        users = [simple_user(), simple_user(channel_gain=1.0), simple_user(channel_gain=2.0)]
        assert reference.received_interference(env, users, 0, 1, (1, 1, 1)) == 3.0

    def test_measurement_subtraction_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            env, users = random_instance(rng)
            a = random_profile(rng, env, users)
            for n in range(len(users)):
                if a[n] == 0:
                    continue
                assert reference.received_interference(env, users, n, a[n], a) == (
                    reference.channel_load(env, users, a[n], a) - access_weight(env, users[n])
                )

    def test_loads_partition_offloading_weight(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            env, users = random_instance(rng)
            a = random_profile(rng, env, users)
            total = sum(reference.channel_load(env, users, m, a) for m in range(1, env.channels + 1))
            offloading = sum(access_weight(env, users[n]) for n in range(len(users)) if a[n] > 0)
            assert total == pytest.approx(offloading, rel=1e-12, abs=1e-15)


class TestPotential:
    def test_all_local_is_weighted_threshold_sum(self):
        rng = np.random.default_rng(13)
        env, users = random_instance(rng, finite_thresholds=True)
        a = (0,) * len(users)
        expected = sum(
            access_weight(env, u) * beneficial_threshold(env, u) for u in users
        )
        assert reference.potential(env, users, a) == pytest.approx(expected, rel=1e-12)

    def test_two_unit_users_sharing_a_channel(self):
        env = simple_env(channels=2)
        users = [simple_user(), simple_user()]
        assert reference.potential(env, users, (1, 1)) == 1.0
        assert reference.potential(env, users, (1, 2)) == 0.0

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_improving_deviation_strictly_decreases_potential(self, access):
        rng = np.random.default_rng(14)
        done = 0
        while done < 500:
            env, users = random_instance(rng, access=access, finite_thresholds=True)
            a = random_profile(rng, env, users)
            move = find_improving_deviation(rng, env, users, a)
            if move is None:
                continue
            n, d = move
            b = list(a)
            b[n] = d
            assert reference.potential(env, users, tuple(b)) < reference.potential(env, users, a)
            done += 1

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_closed_form_descent_at_wide_weight_ranges(self, access):
        """Access weights log-uniform over 1e-5..1e2 against a 1e-10 mW noise floor.

        Here an improving move can change φ by less than one ulp of φ, so two
        rounded potentials may tie.  The mover's closed-form drop
        w * (μ_new - μ_old), which run_dco checks, is negative for every move
        and matches the difference of the potentials.
        """
        def check(env, users, a, n, d):
            b = list(a)
            b[n] = d
            mu_old = reference.co_channel_weight(env, users, n, a[n], a)
            mu_new = reference.co_channel_weight(env, users, n, d, a)
            assert mu_new < mu_old
            phi_a, phi_b = reference.potential(env, users, a), reference.potential(env, users, tuple(b))
            assert access_weight(env, users[n]) * (mu_new - mu_old) == pytest.approx(
                phi_b - phi_a, rel=1e-9, abs=1e-12 * (abs(phi_a) + abs(phi_b))
            )
            return phi_a, phi_b

        if access is AccessModel.INTERFERENCE:
            # a 3.3e-5 mW user leaves local for the empty channel beside a 9e4
            # pair term: φ drops by about 5e-14, below its ulp
            env = simple_env(channels=2, noise_mw=1e-10)
            big = simple_user(channel_gain=300.0)
            users = [big, big, simple_user(channel_gain=3.3e-5, input_bits=7.1)]
            assert find_improving_deviation(np.random.default_rng(0), env, users, (1, 1, 0)) == (2, 2)
            phi_a, phi_b = check(env, users, (1, 1, 0), 2, 2)
            assert phi_a == phi_b
        rng = np.random.default_rng(24)
        done = 0
        while done < 3000:
            env = ChannelEnv(channels=int(rng.integers(1, 4)),
                             bandwidth_hz=float(rng.uniform(0.5, 5.0)), noise_mw=1e-10, access=access)
            users = []
            for _ in range(int(rng.integers(2, 6))):
                weight = float(10.0 ** rng.uniform(-5.0, 2.0))
                u = replace(random_user(rng), transmit_power_mw=1.0, channel_gain=weight,
                            contention_weight=weight)
                if np.isfinite(beneficial_threshold(env, u)):
                    users.append(u)
            a = random_profile(rng, env, users)
            move = find_improving_deviation(rng, env, users, a) if users else None
            if move is None:
                continue
            check(env, users, a, *move)
            done += 1

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_infinite_thresholds_keep_potential_finite(self, access):
        """-inf and +inf thresholds: scalar and batch φ are finite and equal on every profile."""
        env = simple_env(channels=2, access=access)
        users = [
            never_beneficial_user(),  # -inf
            # +inf: a free upload (zero access weight under interference)
            simple_user(transmit_power_mw=0.0, time_weight=0.0, energy_weight=1.0,
                        energy_per_cycle_j=1.0),
            simple_user(channel_gain=2.0, contention_weight=2.0),
        ]
        if access is AccessModel.INTERFERENCE:
            users.append(simple_user(input_bits=1e-300))  # +inf at a positive weight
        thresholds = [beneficial_threshold(env, u) for u in users]
        assert -np.inf in thresholds and np.inf in thresholds
        profiles = list(itertools.product(range(env.channels + 1), repeat=len(users)))
        batch = ProfileEvaluator(env, users).potential(profiles)
        assert np.all(np.isfinite(batch))
        assert batch.tolist() == [reference.potential(env, users, a) for a in profiles]

    def test_integer_instances_drop_by_at_least_minimum_weight(self):
        rng = np.random.default_rng(15)
        done = 0
        while done < 300:
            scenario = integer_contention_scenario(int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(10_000)))
            env, users = scenario.channel_env, scenario.user_profiles
            q_min = min(access_weight(env, u) for u in users)
            a = random_profile(rng, env, users)
            move = find_improving_deviation(rng, env, users, a)
            if move is None:
                continue
            n, d = move
            b = list(a)
            b[n] = d
            drop = reference.potential(env, users, a) - reference.potential(env, users, tuple(b))
            assert drop >= q_min - 1e-9
            done += 1

    def test_bounds_for_nonnegative_thresholds(self):
        rng = np.random.default_rng(16)
        for i in range(50):
            scenario = small_paper_scenario(5, 2, seed=i, time_only=True)
            env, users = scenario.channel_env, scenario.user_profiles
            weights = [access_weight(env, u) for u in users]
            thresholds = [beneficial_threshold(env, u) for u in users]
            assert all(t >= 0 for t in thresholds)
            q_max, t_max, n = max(weights), max(thresholds), len(users)
            upper = 0.5 * q_max * q_max * n * n + q_max * t_max * n
            for _ in range(20):
                a = random_profile(rng, env, users)
                assert 0.0 <= reference.potential(env, users, a) <= upper


class TestBestResponse:
    def test_symmetric_empty_channels_tie(self):
        env = simple_env(channels=2, bandwidth_hz=1.0, noise_mw=1.0)
        user = simple_user(transmit_power_mw=30.0, channel_gain=1.0, input_bits=6.0,
                           task_cycles=2.0, device_rate_hz=1.0, cloud_rate_hz=4.0)
        assert beneficial_threshold(env, user) > 0
        assert reference.best_response_set(env, [user], 0, (0,)) == {1, 2}

    def test_empty_at_unique_minimum(self):
        env = simple_env(channels=1)
        u = simple_user(cloud_rate_hz=100.0, input_bits=0.5, transmit_power_mw=30.0)
        a = min(
            ((d,) for d in (0, 1)), key=lambda p: reference.user_overhead(env, [u], 0, p)
        )
        assert reference.best_response_set(env, [u], 0, a) == frozenset()

    def test_never_beneficial_user_returns_local(self):
        env = simple_env(channels=2)
        users = [never_beneficial_user(), simple_user()]
        assert reference.best_response_set(env, users, 0, (1, 1)) == {0}

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_members_are_equal_cost_strict_improvements(self, access):
        rng = np.random.default_rng(17)
        for _ in range(200):
            env, users = random_instance(rng, access=access)
            a = random_profile(rng, env, users)
            for n in range(len(users)):
                delta = reference.best_response_set(env, users, n, a)
                if not delta:
                    continue
                current = reference.user_overhead(env, users, n, a)
                costs = []
                for d in delta:
                    b = list(a)
                    b[n] = d
                    costs.append(reference.user_overhead(env, users, n, tuple(b)))
                assert all(c < current for c in costs)
                assert max(costs) - min(costs) <= BEST_RESPONSE_ATOL


class TestNashAndCounting:
    def test_all_never_beneficial_all_local_is_nash(self):
        env = simple_env(channels=2)
        users = [never_beneficial_user(), never_beneficial_user()]
        assert is_nash(env, users, (0, 0))
        assert count_beneficial(env, users, (0, 0)) == 0

    def test_single_user_with_positive_threshold_wants_to_move(self):
        env = simple_env(bandwidth_hz=1.0, noise_mw=1.0)
        user = simple_user(transmit_power_mw=30.0, channel_gain=1.0, input_bits=6.0,
                           task_cycles=2.0, device_rate_hz=1.0, cloud_rate_hz=4.0)
        assert not is_nash(env, [user], (0,))
        assert count_beneficial(env, [user], (1,)) == 1

    def test_system_overhead_sums_user_costs(self):
        rng = np.random.default_rng(18)
        env, users = random_instance(rng)
        a = random_profile(rng, env, users)
        expected = sum(reference.user_overhead(env, users, n, a) for n in range(len(users)))
        assert system_overhead(env, users, a) == pytest.approx(expected, rel=1e-15)


class TestProfileEvaluator:
    @pytest.mark.parametrize("access", list(AccessModel))
    def test_matches_scalar_functions(self, access):
        """The batch methods and their single-profile views against the plain-loop oracle."""
        rng = np.random.default_rng(19)
        for _ in range(30):
            env, users = random_instance(rng, access=access)
            evaluator = ProfileEvaluator(env, users)
            profiles = [random_profile(rng, env, users) for _ in range(20)]
            batch = np.array(profiles)
            costs = evaluator.overheads(batch)
            nash = evaluator.nash_mask(batch)
            counts = evaluator.beneficial_counts(batch)
            phis = evaluator.potential(batch)
            for k, a in enumerate(profiles):
                for n in range(len(users)):
                    expected = reference.user_overhead(env, users, n, a)
                    assert costs[k, n] == pytest.approx(expected, rel=1e-12)
                    assert user_overhead(env, users, n, a) == pytest.approx(expected, rel=1e-12)
                assert system_overhead(env, users, a) == pytest.approx(
                    reference.system_overhead(env, users, a), rel=1e-12
                )
                assert bool(nash[k]) == is_nash(env, users, a) == reference.is_nash(env, users, a)
                assert counts[k] == count_beneficial(env, users, a) == reference.count_beneficial(
                    env, users, a
                )
                assert phis[k] == pytest.approx(reference.potential(env, users, a), rel=1e-12, abs=1e-15)

    def test_candidate_costs_match_unilateral_rewrites(self):
        """Entry (k, n, d) is user n's cost once profile k is rewritten to a[n] = d.

        Batches of several profiles with N != M under both access models, so
        a swapped axis cannot pass.  The entries for staying put share the
        batch's channel loads with `overheads` and match it exactly.  A
        rewritten profile's loads are summed afresh, and (load + w) - w can
        round differently, so the other entries match within rounding.
        """
        rng = np.random.default_rng(20)
        for access, _ in itertools.product(AccessModel, range(20)):
            env, users = random_instance(rng, access=access, n_range=(5, 8), m_range=(1, 5))
            if access is AccessModel.CONTENTION:  # a user whose upload costs nothing
                users[0] = replace(users[0], time_weight=0.0, energy_weight=0.5, transmit_power_mw=0.0)
            evaluator = ProfileEvaluator(env, users)
            batch = np.array([random_profile(rng, env, users) for _ in range(3)])
            cand = evaluator.candidate_overheads(batch)
            assert cand.shape == (3, len(users), env.channels + 1)
            current = np.take_along_axis(cand, batch[:, :, np.newaxis], axis=2)[:, :, 0]
            assert current.tolist() == evaluator.overheads(batch).tolist()
            for k, a in enumerate(batch.tolist()):
                for n in range(len(users)):
                    for d in range(env.channels + 1):
                        b = list(a)
                        b[n] = d
                        assert cand[k, n, d] == pytest.approx(
                            evaluator.overheads([b])[0, n], rel=1e-12
                        )
                        assert cand[k, n, d] == pytest.approx(
                            reference.user_overhead(env, users, n, tuple(b)), rel=1e-12
                        )

    def test_potential_adds_channel_terms_in_channel_order(self):
        """φ of one profile is its pair terms added one channel after another.

        run_dco adds its cached per-channel terms the same way, so a pairwise
        or reordered sum would move recorded potentials in the last bits.
        Every user offloads here, so the local term is an exact 0.
        """
        rng = np.random.default_rng(23)
        for _ in range(30):
            env, users = random_instance(rng, n_range=(100, 200), m_range=(20, 60))
            evaluator = ProfileEvaluator(env, users)
            a = rng.integers(1, env.channels + 1, len(users))
            _, pair_terms = evaluator._channel_terms(a[np.newaxis, :], range(1, env.channels + 1))
            in_order = 0.0
            for term in pair_terms[:, 0].tolist():
                in_order += term
            assert evaluator.potential([a])[0] == in_order

    def test_repair_sends_exactly_the_losing_offloaders_local(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            env, users = random_instance(rng)
            evaluator = ProfileEvaluator(env, users)
            a = random_profile(rng, env, users)
            repaired = tuple(int(d) for d in evaluator.repair_to_beneficial([a])[0])
            for n in range(len(users)):
                if a[n] == 0:
                    assert repaired[n] == 0
                elif reference.is_beneficial(env, users, n, a):
                    assert repaired[n] == a[n]
                else:
                    assert repaired[n] == 0
            # everyone still offloading is beneficial afterwards
            for n in range(len(users)):
                if repaired[n] > 0:
                    assert reference.is_beneficial(env, users, n, repaired)

    def test_rejects_wrong_width(self):
        env, users = random_instance(np.random.default_rng(22))
        with pytest.raises(ValueError, match="width"):
            ProfileEvaluator(env, users).overheads([(0,) * (len(users) + 1)])
        # profiles no method can score: a negative, a fractional and a too-high decision
        env, users = simple_env(channels=2), [simple_user()] * 3
        evaluator = ProfileEvaluator(env, users)
        methods = (evaluator.overheads, evaluator.potential, evaluator.nash_mask,
                   evaluator.candidate_overheads, evaluator.beneficial_mask, evaluator.channel_loads)
        for bad in ([[-1, 0, 0]], [[1.7, 0, 0]], [[3, 0, 0]]):
            for method in methods:
                with pytest.raises(ValueError, match="profile entries"):
                    method(bad)
            with pytest.raises(ValueError, match="profile entries"):
                is_nash(env, users, bad[0])
        for n in (-1, 3):
            with pytest.raises(IndexError):
                user_overhead(env, users, n, (0, 0, 0))

    def test_rejects_ranks_other_than_one_and_two(self):
        """A 0-D decision and a 3-D stack of batches name their shape, not a numpy internal."""
        evaluator = ProfileEvaluator(simple_env(channels=2), [simple_user()] * 3)
        methods = (evaluator.overheads, evaluator.nash_mask, evaluator.potential,
                   evaluator.candidate_overheads)
        stacked = np.zeros((2, 3, 3), dtype=np.int64)
        for bad, shape in ((np.int64(1), r"shape \(\)"), (stacked, r"shape \(2, 3, 3\)")):
            for method in methods:
                with pytest.raises(ValueError, match=shape):
                    method(bad)
        for method in methods:  # a 1-D profile and a 2-D batch still pass the rank check
            with pytest.raises(ValueError, match="profile width 2 != user count 3"):
                method([0, 0])
            with pytest.raises(ValueError, match="profile width 2 != user count 3"):
                method([[0, 0]])


class TestTwoCandidateNashMask:
    """`nash_mask` against the dense mask over every candidate decision, bit for bit."""

    @pytest.mark.parametrize("peak_rate_bps", [1e308, 1e8], ids=["nan-cost", "infinite-cost"])
    def test_an_infinite_rate_coefficient(self, peak_rate_bps):
        """User 2's rate coefficient is +inf, its cloud cost NaN at an infinite rate and +inf at a finite one.

        Neither reaches the Nash test: the evaluator refuses a user any of
        whose cost constants is not finite, and the scenario names the user
        at `users`.  A check for NaN alone would let the finite rate's +inf through.
        """
        scenario, rows, profiles = infinite_coefficient_users(peak_rate_bps)
        assert _cloud_cost_coefficients(profiles[2])[0] == np.inf
        with pytest.raises(ValueError, match="^user 2: a cost constant is not finite$"):
            ProfileEvaluator(scenario.channel_env, profiles)
        with pytest.raises(SchemaError) as info:
            replace(scenario, users=rows)
        assert info.value.path == "users" and info.value.reason.startswith("user 2: ")

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_seeded_random_batches(self, access):
        """500-row random batches of generated instances and of random ones with extreme users."""
        rng = np.random.default_rng(21)
        evaluators = [generate(GenParams(n_users=3 + seed % 7, channels=1 + seed % 4, access_model=access,
                                         contention_weight_choices=(0.5, 1.0, 3.0)), seed).evaluator
                      for seed in range(12)]
        for _ in range(6):
            env, users = random_instance(rng, access=access, n_range=(3, 7))
            evaluators.append(ProfileEvaluator(env, users + extreme_users()))
        found = 0
        for evaluator in evaluators:
            batch = rng.integers(0, evaluator.channels + 1, size=(500, evaluator.n_users))
            mask = evaluator.nash_mask(batch)
            assert np.array_equal(mask, reference.nash_mask_dense(evaluator, batch))
            found += int(mask.sum())
        assert found > 0

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_every_profile_of_seeded_instances(self, access):
        for seed in range(3):
            params = GenParams(n_users=8, channels=3, access_model=access,
                               contention_weight_choices=(1.0, 2.0, 3.0))
            evaluator = generate(params, 60 + seed).evaluator
            (chunk,) = reference.profile_chunks(8, 3, 4**8)
            mask = evaluator.nash_mask(chunk)
            assert mask.any() and not mask.all()
            assert np.array_equal(mask, reference.nash_mask_dense(evaluator, chunk)), seed

    @staticmethod
    def corner_instances(access):
        """(label, env, users) triples, each with one corner of the two-candidate rule."""
        rng = np.random.default_rng(70)
        env, users = random_instance(rng, access=access, n_range=(5, 6), m_range=(1, 2))
        yield "one channel: the least-loaded channel is every offloader's own", env, users
        env, users = random_instance(rng, access=access, n_range=(4, 5), m_range=(3, 4))
        yield "never beneficial", env, [never_beneficial_user()] + users[1:]
        if access is AccessModel.CONTENTION:
            env, users = random_instance(rng, access=access, n_range=(4, 5), m_range=(2, 4))
            flat = replace(users[0], time_weight=0.0, energy_weight=0.5, transmit_power_mw=0.0)
            yield "zero upload coefficient: a flat cost", env, [flat] + users[1:]
            yield "equal weights: exact load ties", env, [replace(u, contention_weight=1.0) for u in users]

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_corner_cases_in_three_row_batches(self, access):
        for label, env, users in self.corner_instances(access):
            evaluator = ProfileEvaluator(env, users)
            n, m = len(users), env.channels
            if label.startswith("never"):
                assert evaluator.thresholds[0] == -np.inf
            if label.startswith("zero"):
                assert evaluator.rate_coeffs[0] == 0.0
            (profiles,) = reference.profile_chunks(n, m, (m + 1) ** n)
            if label.startswith("equal"):
                loads = evaluator.channel_loads(profiles)
                assert np.any(loads.min(axis=1) == np.sort(loads, axis=1)[:, 1])
            masks = [evaluator.nash_mask(profiles[i:i + 3]) for i in range(0, len(profiles), 3)]
            dense = [reference.nash_mask_dense(evaluator, profiles[i:i + 3])
                     for i in range(0, len(profiles), 3)]
            assert np.concatenate(masks).any(), label
            assert [mask.tolist() for mask in masks] == [mask.tolist() for mask in dense], label


@pytest.mark.parametrize("n_users, channels, chunks", [(9, 3, 4), (8, 4, 6)])
def test_profile_chunks_are_every_profile_in_lexicographic_order(n_users, channels, chunks):
    """The separate scans' rows: across chunk boundaries, the last chunk partial at 5^8; C-ordered int64."""
    total = (channels + 1) ** n_users
    parts = list(reference.profile_chunks(n_users, channels, total))
    assert len(parts) == chunks and sum(map(len, parts)) == total
    assert all(part.dtype == np.int64 and part.flags.c_contiguous for part in parts)
    rows = map(tuple, np.concatenate(parts).tolist())
    assert list(rows) == list(itertools.product(range(channels + 1), repeat=n_users))


def numbers_channels_in_first_use_order(profile) -> bool:
    top = 0
    for decision in profile:
        if decision > top + 1:
            return False
        top = max(top, decision)
    return True


@pytest.mark.parametrize("chunk", [game._CHUNK, 7])
def test_canonical_chunks_are_the_first_use_profiles_in_lexicographic_order(chunk, monkeypatch):
    """Every N <= 6, M <= 4: the rows are the product filtered by the first-use test, in order."""
    monkeypatch.setattr(game, "_CHUNK", chunk)
    for n_users, channels in itertools.product(range(1, 7), range(1, 5)):
        parts = list(game._canonical_chunks(n_users, channels))
        assert all(part.dtype == np.int64 and part.flags.c_contiguous and 0 < len(part) <= chunk
                   and part.shape[1] == n_users for part in parts)
        expected = filter(numbers_channels_in_first_use_order,
                          itertools.product(range(channels + 1), repeat=n_users))
        assert list(map(tuple, np.concatenate(parts).tolist())) == list(expected), (n_users, channels)


@pytest.mark.parametrize("n_users, channels, rows", [(8, 3, 11_051), (9, 4, 86_472)])
def test_canonical_profile_counts(n_users, channels, rows):
    parts = list(game._canonical_chunks(n_users, channels))
    assert sum(map(len, parts)) == rows
    assert all(part.flags.c_contiguous and part.dtype == np.int64 and len(part) <= game._CHUNK
               for part in parts)


def test_nash_path_builds_no_candidate_block(monkeypatch):
    """Nash enumeration, the single-profile test and both PoA metrics use the two-candidate rule."""

    def refuse(self, profiles):
        raise AssertionError("the Nash path built the dense candidate block")

    monkeypatch.setattr(ProfileEvaluator, "candidate_overheads", refuse)
    for scenario in (small_paper_scenario(5, 2, 3), integer_contention_scenario(5, 2, seed=1)):
        equilibria = enumerate_nash(scenario)
        assert is_nash(scenario.channel_env, scenario.user_profiles, equilibria[0])
        poa_beneficial(scenario)
        poa_overhead(scenario)


def test_each_batch_is_checked_once(monkeypatch):
    """A public batch method checks its profiles once; the cached scan checks none of its chunks."""
    evaluator = small_paper_scenario(5, 2, 3).evaluator
    calls = []
    check = ProfileEvaluator._as_batch

    def counted(self, profiles):
        calls.append(profiles)
        return check(self, profiles)

    monkeypatch.setattr(ProfileEvaluator, "_as_batch", counted)
    batch = np.array([[0, 1, 2, 1, 0], [2, 2, 0, 1, 1]])
    for method in (evaluator.channel_loads, evaluator.overheads, evaluator.system_overheads,
                   evaluator.beneficial_mask, evaluator.beneficial_counts, evaluator.repair_to_beneficial,
                   evaluator.nash_mask, evaluator.candidate_overheads, evaluator.potential):
        calls.clear()
        method(batch)
        assert len(calls) == 1, method.__name__
    calls.clear()
    assert evaluator._scan.equilibria and calls == []


@pytest.mark.parametrize("access", list(AccessModel))
def test_channel_relabelling_keeps_every_bit(access):
    """Channels share one bandwidth and noise floor, so relabelling them moves no cost.

    A relabelled profile has each load of the original, the same product over
    the same users, in another column.  So in calls of one shape a batch and
    its image score bit for bit alike, and the Nash set maps onto itself.
    """
    relabellings = [np.array([0, *p]) for p in itertools.permutations(range(1, 4))][1:]  # local stays 0
    rng = np.random.default_rng(80)
    for seed in range(40):
        params = GenParams(n_users=6, channels=3, access_model=access, contention_weight_choices=(1.0, 2.0, 3.0))
        scenario = generate(params, seed)
        evaluator, relabel = scenario.evaluator, relabellings[seed % len(relabellings)]
        batch = rng.integers(0, 4, size=(200, 6))
        for rows in (batch, *batch[:5, np.newaxis]):  # one 200-row call, then 1-row calls
            for method in (evaluator.overheads, evaluator.system_overheads, evaluator.beneficial_counts,
                           evaluator.nash_mask):
                assert method(rows).tobytes() == method(relabel[rows]).tobytes(), (seed, method.__name__)
        equilibria = set(enumerate_nash(scenario))
        assert {tuple(relabel[list(profile)].tolist()) for profile in equilibria} == equilibria, seed


@settings(max_examples=300)
@given(
    access=st.sampled_from(list(AccessModel)),
    generated=st.booleans(),
    cell_radius_m=st.floats(1.0, 2000.0),
    instance_seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=40),
)
def test_cloud_cost_never_decreases_as_mu_grows(access, generated, cell_radius_m, instance_seed,
                                                fractions):
    """What the two-candidate rule of run_dco and nash_mask rests on, down to adjacent floats.

    Each user is costed along one sorted μ vector from 0 to 10**6 times the
    instance's largest access weight; the cost must never fall along it.
    """
    if generated:
        params = GenParams(n_users=6, channels=2, access_model=access, cell_radius_m=cell_radius_m,
                           contention_weight_choices=(0.5, 1.0, 3.0))
        evaluator = generate(params, instance_seed).evaluator
    else:
        evaluator = ProfileEvaluator(*random_instance(np.random.default_rng(instance_seed), access=access))
    top = 1e6 * evaluator.weights.max()
    mu = np.array([0.0, top] + [f * top for f in fractions])
    mu = np.sort(np.concatenate([mu, np.nextafter(mu, np.inf)]))
    costs = evaluator._cloud_costs(mu[np.newaxis, :]).T  # (len(mu), n_users)
    assert np.all(costs[1:] >= costs[:-1])


_TYPICAL_USER = {"q_mw": 100.0, "g": 1e-4, "b_kb": 5000.0, "d_megacycles": 1000.0, "f_m_ghz": 1.0,
                 "f_c_ghz": 10.0, "gamma_j_per_cycle": 1e-9, "L_j": 0.1, "lambda_e": 0.5, "W": 1.0, "R_bps": 1e8}
_LOG_UNIFORM = st.floats(-300.0, 308.0).map(lambda exponent: 10.0 ** exponent)


def _document(access: str, channels: int, users: list, w_hz=5e6, noise_dbm=-100.0) -> dict:
    return {"meta": {"seed": 1, "generator": {}, "version": "0.1.0"},
            "env": {"M": channels, "w_hz": w_hz, "noise_dbm": noise_dbm, "access_model": access},
            "users": users}


@st.composite
def extreme_documents(draw):
    """Documents of N <= 4 users on M <= 2 channels under either access model.

    Each user number keeps its `_TYPICAL_USER` value or is drawn log-uniform
    over 1e-300..1e308, the energy priority from 0, 0.5 and 1; the bandwidth
    is typical or log-uniform too, the noise floor from -3,000 to 3,080 dBm.
    """
    def number(typical):
        return draw(st.just(typical) | _LOG_UNIFORM)

    users = [{key: draw(st.sampled_from([0.0, 0.5, 1.0])) if key == "lambda_e" else number(value)
              for key, value in _TYPICAL_USER.items()} for _ in range(draw(st.integers(1, 4)))]
    return _document(draw(st.sampled_from([m.value for m in AccessModel])), draw(st.integers(1, 2)), users,
                     number(5e6), draw(st.just(-100.0) | st.floats(-3000.0, 3080.0)))


@settings(max_examples=200, deadline=None)
# an infinite rate coefficient at an infinite rate: its cloud cost was inf/inf = NaN
@example(doc=_document("contention", 2, [_TYPICAL_USER, {**_TYPICAL_USER, **INFINITE_COEFFICIENT_ROW,
                                                         "R_bps": 1e308}]), seed=0)
@given(doc=extreme_documents(), seed=st.integers(0, 2**16))
def test_extreme_documents_are_refused_or_cost_no_nan(doc, seed):
    """A document of extreme finite numbers raises SchemaError, or costs no NaN.

    On 64 random profiles no cost or potential is NaN and `nash_mask` is the
    dense mask over every candidate decision; no total the scan reports is NaN.
    """
    try:
        evaluator = load_scenario(doc).evaluator
    except SchemaError:
        return
    batch = np.random.default_rng(seed).integers(0, evaluator.channels + 1, size=(64, evaluator.n_users))
    assert not np.isnan(evaluator.overheads(batch)).any()
    assert not np.isnan(evaluator.potential(batch)).any()
    assert np.array_equal(evaluator.nash_mask(batch), reference.nash_mask_dense(evaluator, batch))
    scan = evaluator._scan
    assert not np.isnan([scan.worst_overhead, scan.min_overhead[1]]).any()
