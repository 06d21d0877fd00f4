"""Tests for the centralized baselines and the cross-entropy optimizer."""

import itertools
import math
import time
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from offload_game import (
    CrossEntropyParams,
    GenParams,
    InstanceTooLarge,
    Objective,
    ProfileEvaluator,
    SchemaError,
    all_cloud_random,
    all_local,
    beneficial_threshold,
    cross_entropy_optimize,
    enumerate_nash,
    exhaustive_optimize,
    generate,
    local_overhead,
    poa_beneficial,
    poa_overhead,
    run_dco,
)
from offload_game import baselines, game, metrics
from offload_game.baselines import DEFAULT_PROFILE_CAP
from offload_game.model import AccessModel
import reference
import test_game
from support import (
    infinite_coefficient_users,
    integer_contention_scenario,
    never_beneficial_user,
    random_instance,
    simple_user,
    small_paper_scenario,
)
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

    def test_cap_past_the_bit_length_raises_unbuilt(self):
        """6^(10^8) is never built: past the cap's bit length, 2^N alone exceeds it (6^(10^7) takes seconds)."""
        start = time.perf_counter()
        with pytest.raises(InstanceTooLarge, match=r"^6\^100000000 profiles exceed the cap 10000000$"):
            baselines._check_cap(SimpleNamespace(channels=5, n_users=10**8), DEFAULT_PROFILE_CAP)
        assert time.perf_counter() - start < 1.0

    def test_cap_is_exact_at_the_bit_length(self):
        for cap, n, m in itertools.product(range(1, 70), range(1, 9), range(1, 5)):
            instance = SimpleNamespace(channels=m, n_users=n)
            if (m + 1) ** n > cap:
                with pytest.raises(InstanceTooLarge):
                    baselines._check_cap(instance, cap)
            else:
                baselines._check_cap(instance, cap)

    @pytest.mark.parametrize("cap", [0, -5, True, 2.5, None, "x"])
    @pytest.mark.parametrize("entry", [
        enumerate_nash,
        lambda scenario, cap: exhaustive_optimize(scenario, Objective.MIN_OVERHEAD, cap),
        poa_beneficial,
        poa_overhead,
    ], ids=["enumerate_nash", "exhaustive_optimize", "poa_beneficial", "poa_overhead"])
    def test_cap_that_is_not_a_positive_int_is_rejected(self, entry, cap):
        """0, -5, True and 2.5 used to read as InstanceTooLarge, None and "x" as a bare TypeError."""
        with pytest.raises(ValueError, match="^profile_cap must be"):
            entry(small_paper_scenario(4, 2, seed=0), cap)


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
        contention.  Interference seed 8 of 4^8 has an optimum whose total
        numpy's row sum rounds differently from the user-order sum.
        """
        multi = (9, 3, 4) if access is AccessModel.INTERFERENCE else (8, 4, 6)
        for n, m, chunks in ((8, 3, 1), multi):
            params = GenParams(n_users=n, channels=m, access_model=access,
                               contention_weight_choices=(1.0, 2.0, 3.0))
            yield f"N={n}, M={m}", generate(params, 80 + n + m), chunks
        if access is AccessModel.INTERFERENCE:
            yield "N=8, M=3, seed 8", generate(GenParams(n_users=8, channels=3), 8), 1
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

    @pytest.mark.parametrize("peak_rate_bps", [1e308, 1e8], ids=["nan-cost", "infinite-cost"])
    def test_an_infinite_rate_coefficient(self, peak_rate_bps):
        """User 2's rate coefficient is +inf (`support.infinite_coefficient_users`): no scan is reached.

        Its cloud cost is NaN at an infinite rate, where the scan reported a
        NaN least total, and +inf at a finite rate.  Both scenarios are
        refused at `users`, naming user 2, and so is an evaluator of their users.
        """
        scenario, rows, profiles = infinite_coefficient_users(peak_rate_bps)
        with pytest.raises(SchemaError) as info:
            replace(scenario, users=rows)
        assert info.value.path == "users" and info.value.reason.startswith("user 2: ")
        with pytest.raises(ValueError, match="^user 2: "):
            ProfileEvaluator(scenario.channel_env, profiles)

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_equals_the_separate_scans_across_chunk_boundaries(self, access, monkeypatch):
        """At 97 rows a chunk, equilibria and optimum ties fall into many chunks of both scans."""
        monkeypatch.setattr(game, "_CHUNK", 97)
        spread = []
        for label, scenario, _ in self.instances(access):
            equilibria = reference.enumerate_nash_separate(scenario)
            assert enumerate_nash(scenario) == equilibria, label
            for objective in Objective:
                expected = reference.exhaustive_optimize_separate(scenario, objective)
                assert exhaustive_optimize(scenario, objective) == expected, label
            chunks = list(game._canonical_chunks(scenario.n_users, scenario.channels))
            spread.append(len({i for i, chunk in enumerate(chunks) for row in chunk.tolist()
                               if tuple(row) in equilibria}))
        assert max(spread) > 1, spread


class TestScanCache:
    """One scan per scenario object; every call still checks its own cap and gets its own list.

    A scan is counted at its entry point, `game._profile_blocks`, which runs
    once per scan whether the size's canonical profiles are kept or streamed.
    """

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
        """Route `game._profile_blocks` through a recorder; one entry per scan."""
        blocks, calls = game._profile_blocks, []

        def counted(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(game, "_profile_blocks", counted)
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


class TestKeptProfiles:
    """A single-chunk size's canonical profiles are built once per process and shared by every scan."""

    @staticmethod
    def single_chunk_sizes():
        """Every single-chunk (N, M) for M up to 9; from M = N on, more channels add no profile."""
        for m in range(1, 10):
            n = 1
            while game._completions(n, m)[n][0] <= game._CHUNK:
                yield n, m
                n += 1

    def test_kept_blocks_reject_writes(self):
        """Every kept plan array is read-only and holds what the scan reads of the canonical profiles."""
        sizes = list(self.single_chunk_sizes())
        assert {(9, 3), (8, 5)} <= set(sizes) and (10, 3) not in sizes and (9, 5) not in sizes
        for n, m in sizes:
            (plan,), (profiles,) = game._profile_blocks(n, m), game._canonical_chunks(n, m)
            k = len(profiles)
            assert len(plan.one_hot) == min(n, m)
            for channel, on in enumerate(plan.one_hot, 1):
                assert on.dtype == np.float64 and on.flags.c_contiguous
                assert (on == (profiles == channel)).all()
            starts = [block.columns.start for block in plan.blocks]
            assert starts == list(range(0, k, max(1, game._BLOCK_CELLS // n)))
            assert [block.columns.stop for block in plan.blocks] == starts[1:] + [k]
            for block in plan.blocks:
                decisions = profiles[block.columns].T
                assert block.decisions.flags.c_contiguous and (block.decisions == decisions).all()
                assert block.decisions.size <= max(n, game._BLOCK_CELLS)
                assert (block.index == decisions * k + np.arange(k)[block.columns]).all()
                assert (block.local == (decisions == 0)).all()
                assert (block.offloaders == (decisions > 0).sum(axis=0)).all()
            arrays = [*plan.one_hot, *(array for block in plan.blocks for array in block[1:])]
            assert len(arrays) == len(plan.one_hot) + 4 * len(plan.blocks)
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_a_scan_reads_only_its_own_instance(self, access):
        """A, then B of the same size, then a fresh copy of A: each scan gives its own instance's result."""
        params = GenParams(n_users=6, channels=3, access_model=access,
                           contention_weight_choices=(1.0, 2.0, 3.0))

        def scanned(scenario):
            return [enumerate_nash(scenario)] + [exhaustive_optimize(scenario, o) for o in Objective]

        def separate(scenario):
            return [reference.enumerate_nash_separate(scenario)] + [
                reference.exhaustive_optimize_separate(scenario, o) for o in Objective]

        first, other = generate(params, 11), generate(params, 12)
        expected = scanned(first)
        assert scanned(other) == separate(other) != expected
        again = generate(params, 11)
        assert again == first and again is not first
        assert scanned(again) == expected == separate(first)

    def test_a_multi_chunk_size_keeps_nothing(self):
        """N=10, M=3 has 175,275 canonical profiles, four chunks, streamed and dropped after the scan.

        N=8, M=3 fits one chunk: its first scan keeps it and the next reads it.
        """
        assert game._completions(10, 3)[10][0] == 175_275
        game._single_block.cache_clear()
        scenario = small_paper_scenario(10, 3, seed=0)
        assert enumerate_nash(scenario) == reference.enumerate_nash_separate(scenario)
        assert game._single_block.cache_info().currsize == 0
        for seed in range(2):
            enumerate_nash(small_paper_scenario(8, 3, seed=seed))
        info = game._single_block.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


class TestScanBlocks:
    """The scan runs its per-user rules one column block of its plan at a time.

    The seam tests cut `_BLOCK_CELLS` to 7 rows a block (1 at N=1), so no
    canonical count is a multiple of the block rows and equilibria and equal
    optima fall into different blocks; with `_CHUNK` cut to 97 rows the same
    sizes stream, building a plan per chunk.
    """

    ROWS = 7

    @pytest.fixture(autouse=True)
    def fresh_plans(self):
        """A plan kept under a patched block size must not outlive the test."""
        game._single_block.cache_clear()
        yield
        game._single_block.cache_clear()

    @staticmethod
    def instances(access):
        """(label, scenario): instances with exact cost ties, the M=1 and the N=1 edges.

        Under interference, two users whose upload is free (its cost ignores
        the rate) and whose weight is 0 cost the same on every channel.
        """
        if access is AccessModel.CONTENTION:
            for n, m, seed in ((7, 2, 0), (7, 2, 2), (5, 3, 2), (6, 1, 1), (6, 1, 2), (1, 1, 0), (1, 3, 0)):
                yield f"integer N={n}, M={m}, seed {seed}", integer_contention_scenario(n, m, seed)
            return
        free = simple_user(transmit_power_mw=0.0, time_weight=0.0, energy_weight=1.0, tail_energy_j=0.1,
                           energy_per_cycle_j=1.0)
        for seed in range(4):
            env, users = random_instance(np.random.default_rng(seed), access=access, n_range=(4, 5), m_range=(2, 3))
            yield f"two free uploads, seed {seed}", hand_built_scenario(env, users + [free, free])
        for n, m, seed in ((7, 2, 1), (6, 1, 0), (1, 1, 0), (1, 3, 0)):
            yield f"paper N={n}, M={m}, seed {seed}", small_paper_scenario(n, m, seed)

    @staticmethod
    def seams_crossed(scenario, rows: int) -> set:
        """Which of the Nash set and the two optima have members in more than one block of `rows` rows."""
        evaluator, found = scenario.evaluator, {"nash": [], "max_beneficial": [], "min_overhead": []}
        for c, profiles in enumerate(game._canonical_chunks(scenario.n_users, scenario.channels)):
            blocks = [(c, i // rows) for i in range(len(profiles))]
            offloading = profiles > 0
            feasible = (evaluator.beneficial_mask(profiles) == offloading).all(axis=1)
            found["nash"] += zip(evaluator.nash_mask(profiles).tolist(), blocks)
            found["max_beneficial"] += zip(np.where(feasible, offloading.sum(axis=1), -1).tolist(), blocks)
            found["min_overhead"] += zip((-evaluator.system_overheads(profiles)).tolist(), blocks)
        return {key for key, pairs in found.items()
                if len({block for value, block in pairs if value == max(pairs)[0]}) > 1}

    @pytest.mark.parametrize("chunk", [game._CHUNK, 97])
    @pytest.mark.parametrize("access", list(AccessModel))
    def test_equals_the_separate_scans_across_block_seams(self, access, chunk, monkeypatch):
        monkeypatch.setattr(game, "_CHUNK", chunk)
        crossed = set()
        for label, scenario in self.instances(access):
            n, m = scenario.n_users, scenario.channels
            rows = 1 if n == 1 else self.ROWS
            assert n == 1 or game._completions(n, m)[n][0] % rows != 0, label
            monkeypatch.setattr(game, "_BLOCK_CELLS", rows * n)
            game._single_block.cache_clear()
            assert enumerate_nash(scenario) == reference.enumerate_nash_separate(scenario), label
            for objective in Objective:
                expected = reference.exhaustive_optimize_separate(scenario, objective)
                assert exhaustive_optimize(scenario, objective) == expected, label
            crossed |= self.seams_crossed(scenario, rows)
        assert crossed == {"nash", "max_beneficial", "min_overhead"}

    def test_no_cost_call_of_a_scan_exceeds_a_block(self, monkeypatch):
        """Kept (N=8, M=3) or streamed (N=10, M=3), a scan prices at most _BLOCK_CELLS costs a call.

        Each block costs its users once on their own channel.  The least-load
        floor prices, in one call a block or none, only the block's columns
        where no offloader loses out, in order: the loads it is given are
        exactly those columns' loads.  The loads come from one `_loads` call
        per chunk, over all its rows, since a load's bits depend on the row count.
        """
        scenarios = [small_paper_scenario(n, 3, seed=0) for n in (8, 10)]
        blocks, chunk_rows, candidate_loads = 0, [], []
        for scenario in scenarios:
            n, evaluator = scenario.n_users, scenario.evaluator
            assert np.isfinite(evaluator.rate_coeffs).all()
            for chunk in game._canonical_chunks(n, 3):
                blocks += -(-len(chunk) // (game._BLOCK_CELLS // n))
                chunk_rows.append(len(chunk))
                feasible = (evaluator.beneficial_mask(chunk) == (chunk > 0)).all(axis=1)
                candidate_loads.append(evaluator.channel_loads(chunk)[feasible])
        sizes, rows_loaded, floored = [], [], []
        cloud_costs, loads, floor = ProfileEvaluator._cloud_costs, ProfileEvaluator._loads, ProfileEvaluator._floor

        def spy(self, received, users=None):
            costs = cloud_costs(self, received, users)
            sizes.append(costs.size)
            return costs

        def loads_spy(self, one_hot, rows):
            rows_loaded.append(rows)
            return loads(self, one_hot, rows)

        def floor_spy(self, loads):
            floored.append(loads[1:].T.copy())
            return floor(self, loads)

        monkeypatch.setattr(ProfileEvaluator, "_cloud_costs", spy)
        monkeypatch.setattr(ProfileEvaluator, "_loads", loads_spy)
        monkeypatch.setattr(ProfileEvaluator, "_floor", floor_spy)
        for scenario in scenarios:
            scenario.evaluator._scan
        assert rows_loaded == chunk_rows and len(chunk_rows) == 5  # one kept chunk, four streamed
        assert 0 < len(floored) <= blocks and all(len(part) for part in floored)
        assert np.array_equal(np.concatenate(floored), np.concatenate(candidate_loads))
        assert len(sizes) == blocks + len(floored) and max(sizes) <= game._BLOCK_CELLS

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_the_floor_prices_few_canonical_columns(self, access, monkeypatch):
        """At N=8, M=3, seeds 0-19, the least-load floor prices at most 1% of the canonical columns."""
        priced, floor = [], ProfileEvaluator._floor

        def floor_spy(self, loads):
            priced.append(loads.shape[1])
            return floor(self, loads)

        monkeypatch.setattr(ProfileEvaluator, "_floor", floor_spy)
        for seed in range(20):
            generate(GenParams(n_users=8, channels=3, access_model=access), seed).evaluator._scan
        assert sum(priced) <= 0.01 * 20 * game._completions(8, 3)[8][0]


class TestMetamorphic:
    """Relations between the results of two instances, so no second implementation is needed."""

    @staticmethod
    def seeded(access, seed):
        n, m = ((6, 3), (7, 2), (8, 3))[seed % 3]
        params = GenParams(n_users=n, channels=m, access_model=access,
                           contention_weight_choices=(1.0, 2.0, 3.0))
        return generate(params, seed)

    @staticmethod
    def feasible_count(scenario, profile) -> int:
        """Offloaders of `profile` if none loses out, else -1: the MAX_BENEFICIAL score."""
        offloaders = sum(d > 0 for d in profile)
        return offloaders if scenario.evaluator.beneficial_counts([profile])[0] == offloaders else -1

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_permuting_users_permutes_the_nash_set_and_both_optima(self, access):
        """Exact for the Nash set and the offloader counts; totals add the users in another order.

        Distinct profiles can tie for an optimum, so each side's optimum
        profile, renamed, must score the other side's optimum rather than
        equal its profile.  A total is compared to a relative 1e-12, as the
        row sum rounds differently once the users are reordered.
        """
        for seed in range(24):
            scenario = self.seeded(access, seed)
            order = np.random.default_rng(seed).permutation(scenario.n_users).tolist()
            image = hand_built_scenario(scenario.channel_env, [scenario.user_profiles[i] for i in order])

            def rename(profile):  # image user i is scenario user order[i]
                return tuple(profile[i] for i in order)

            def unrename(profile):
                return tuple(profile[order.index(n)] for n in range(len(order)))

            assert enumerate_nash(image) == sorted(map(rename, enumerate_nash(scenario))), seed
            (best, count), (image_best, image_count) = (
                exhaustive_optimize(s, Objective.MAX_BENEFICIAL) for s in (scenario, image))
            assert image_count == count
            assert self.feasible_count(image, rename(best)) == count, seed
            assert self.feasible_count(scenario, unrename(image_best)) == count, seed
            (cheapest, total), (image_cheapest, image_total) = (
                exhaustive_optimize(s, Objective.MIN_OVERHEAD) for s in (scenario, image))
            assert image_total == pytest.approx(total, rel=1e-12)
            renamed_total = image.evaluator.system_overheads([rename(cheapest)])[0]
            assert renamed_total == pytest.approx(image_total, rel=1e-12), seed
            unrenamed_total = scenario.evaluator.system_overheads([unrename(image_cheapest)])[0]
            assert unrenamed_total == pytest.approx(total, rel=1e-12), seed

    @pytest.mark.parametrize("access", list(AccessModel))
    def test_a_user_who_never_gains_leaves_the_nash_set_of_the_others(self, access):
        """Its cloud cost beats its local cost on no channel, so it stays local in every equilibrium."""
        extra = never_beneficial_user()
        for seed in range(24):
            scenario = self.seeded(access, seed)
            env = scenario.channel_env
            assert beneficial_threshold(env, extra) == -math.inf
            grown = hand_built_scenario(env, [*scenario.user_profiles, extra])
            assert enumerate_nash(grown) == [profile + (0,) for profile in enumerate_nash(scenario)], seed


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

    @pytest.mark.parametrize("params", [{}, CrossEntropyParams, {"samples": 5}])
    def test_rejects_params_that_are_not_cross_entropy_params(self, params):
        """`{}` and the class itself used to run the defaults; `{"samples": 5}` ended in AttributeError."""
        scenario = generate(GenParams(n_users=6, channels=2), 1)
        with pytest.raises(ValueError, match="^params must be a CrossEntropyParams"):
            cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, params)

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
