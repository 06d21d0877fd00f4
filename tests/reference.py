"""Plain-loop oracle for the cost model and the game layer.

The package computes rates, costs, channel loads and the potential in one
vectorized place, `offload_game.game.ProfileEvaluator`.  The functions here
are the scalar formulas written out user by user and channel by channel with
`math`, so a test that checks the evaluator, or one of its single-profile
views, against them compares two independent implementations.

`nash_mask_dense` and `run_dco_dense` are the exceptions: the Nash test and
the slot loop as they were before the two-candidate rule, scoring every user
on every channel with the evaluator's `candidate_overheads` block and
choosing moves by this module's own tie rule, `best_responses`.  They are
the bit-exact oracles for `ProfileEvaluator.nash_mask` and `run_dco`.  So are
`enumerate_nash_separate` and `exhaustive_optimize_separate`: one scan of
every profile (`profile_chunks`) per call through the evaluator's public
methods, as the enumerators were before they shared one cached scan of the
canonical profiles per scenario.  `UserLastKernel` is the evaluator's batch
kernel as it was before it went user-major, the bit-exact oracle of every
batch method and of the profile scan.  `worst_equilibria` is the
price-of-anarchy metrics' scoring loop as it was before they read their worst
equilibria from the scan: every member of the Nash set, one-row calls each.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence

import numpy as np

from offload_game import game
from offload_game.baselines import DEFAULT_PROFILE_CAP, Objective, _check_cap, enumerate_nash
from offload_game.dco import RunReport, SlotRecord
from offload_game.game import BEST_RESPONSE_ATOL
from offload_game.model import (
    LOCAL,
    AccessModel,
    ChannelEnv,
    UserProfile,
    _cloud_cost_coefficients,
    access_weight,
    beneficial_threshold,
    local_overhead,
)


def sum_in_order(values):
    """Left to right from 0, one rounding per add; the builtin `sum` compensates floats from 3.12 on."""
    return functools.reduce(operator.add, values, 0)


# cost model, one user at a time


def validate_profile(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> tuple:
    """Check a decision profile against the instance and return it as a tuple."""
    if len(a) != len(users):
        raise ValueError(f"profile length {len(a)} != user count {len(users)}")
    for n, decision in enumerate(a):
        if not isinstance(decision, int) or isinstance(decision, bool):
            raise ValueError(f"profile entry {n} is not an int: {decision!r}")
        if not 0 <= decision <= env.channels:
            raise ValueError(f"profile entry {n} out of range 0..{env.channels}: {decision}")
    return tuple(a)


def _check_cloud_decision(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]):
    if not 0 <= n < len(users):
        raise IndexError(f"user index {n} out of range")
    if len(a) != len(users):
        raise ValueError(f"profile length {len(a)} != user count {len(users)}")
    if a[n] == LOCAL:
        raise ValueError(f"user {n} computes locally; no uplink quantity is defined")
    if not 1 <= a[n] <= env.channels:
        raise ValueError(f"channel {a[n]} out of range 1..{env.channels}")


def rate_at(env: ChannelEnv, u: UserProfile, received: float) -> float:
    """Uplink rate (bits/s) of user u facing co-channel access weight `received`.

    Interference model: bandwidth * log2(1 + own power-gain over noise plus
    the received power-gain).  Contention model: the peak rate scaled by the
    user's share of the co-channel contention weights.
    """
    own = access_weight(env, u)
    if env.access is AccessModel.INTERFERENCE:
        return env.bandwidth_hz * math.log2(1.0 + own / (env.noise_mw + received))
    if u.peak_rate_bps <= 0:
        raise ValueError("contention peak rate must be > 0 under the contention model")
    return u.peak_rate_bps * own / (own + received)


def uplink_rate(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]) -> float:
    """Uplink data rate (bits/s) of user n on its chosen channel a[n] > 0."""
    _check_cloud_decision(env, users, n, a)
    received = 0.0
    for i, other in enumerate(users):
        if i != n and a[i] == a[n]:
            received += access_weight(env, other)
    return rate_at(env, users[n], received)


def cloud_cost_at_rate(u: UserProfile, rate: float) -> float:
    """Cloud-computing cost for a given uplink rate (bits/s)."""
    coeff, fixed = _cloud_cost_coefficients(u)
    if coeff == 0.0:
        return fixed
    return coeff / rate + fixed


def cloud_overhead(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]) -> float:
    """Weighted time+energy cost of offloading: upload, tail energy, cloud execution."""
    return cloud_cost_at_rate(users[n], uplink_rate(env, users, n, a))


def user_overhead(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]) -> float:
    """Cost user n pays under profile a: local cost if a[n]=0, cloud cost otherwise."""
    if a[n] == LOCAL:
        return local_overhead(users[n])
    return cloud_overhead(env, users, n, a)


def is_beneficial(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]) -> bool:
    """True when offloading under profile a costs user n no more than computing locally.

    Only defined for users that actually offload (a[n] > 0); ties count as
    beneficial.
    """
    return cloud_overhead(env, users, n, a) <= local_overhead(users[n])


# game layer


def clamped_thresholds(env: ChannelEnv, users: Sequence[UserProfile]) -> list:
    """The beneficiality thresholds with the finite stand-ins the potential uses.

    -inf (never beneficial) becomes 0 and +inf becomes twice the total access
    weight of the instance.
    """
    total = 0.0
    for u in users:
        total += access_weight(env, u)
    out = []
    for u in users:
        t = beneficial_threshold(env, u)
        if t == -math.inf:
            t = 0.0
        elif t == math.inf:
            t = 2.0 * total
        out.append(t)
    return out


def channel_load(env: ChannelEnv, users: Sequence[UserProfile], m: int, a: Sequence[int]) -> float:
    """Total access weight currently on channel m (what the base-station measures)."""
    if not 1 <= m <= env.channels:
        raise ValueError(f"channel {m} out of range 1..{env.channels}")
    return sum_in_order(access_weight(env, users[i]) for i in range(len(users)) if a[i] == m)


def received_interference(
    env: ChannelEnv, users: Sequence[UserProfile], n: int, m: int, a: Sequence[int]
) -> float:
    """Co-channel weight user n would see on channel m, excluding itself.

    Follows the measurement rule: the total load on m, minus the user's own
    weight when it is currently transmitting there.
    """
    load = channel_load(env, users, m, a)
    if a[n] == m:
        return load - access_weight(env, users[n])
    return load


def co_channel_weight(
    env: ChannelEnv, users: Sequence[UserProfile], n: int, d: int, a: Sequence[int]
) -> float:
    """μ: the co-channel weight user n faces at decision d under profile a.

    At local it is the user's clamped threshold.  Moving user n from decision
    a[n] to d changes the potential by exactly w_n * (μ_d - μ_{a[n]}).
    """
    if d == LOCAL:
        return clamped_thresholds(env, users)[n]
    return received_interference(env, users, n, d, a)


def potential(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> float:
    """Scalar function that strictly decreases on every improving unilateral move.

    Half the sum of pairwise co-channel weight products, plus each local
    user's weight times its beneficiality threshold.
    """
    weights = [access_weight(env, u) for u in users]
    thresholds = clamped_thresholds(env, users)
    pair_term = 0.0
    for m in range(1, env.channels + 1):
        total = 0.0
        total_sq = 0.0
        for i in range(len(users)):
            if a[i] == m:
                total += weights[i]
                total_sq += weights[i] * weights[i]
        pair_term += 0.5 * (total * total - total_sq)
    local_term = 0.0
    for i in range(len(users)):
        if a[i] == LOCAL:
            local_term += weights[i] * thresholds[i]
    return pair_term + local_term


def best_responses(costs: Sequence[float], current: float) -> list:
    """The tie rule over one user's costs at decisions 0..M, in ascending order.

    The decisions within BEST_RESPONSE_ATOL of the cheapest that strictly
    beat `current`; empty when no strict improvement exists.  The move a
    granted user makes is the first of them.
    """
    best = costs[0]
    for cost in costs:
        if cost < best:
            best = cost
    out = []
    for d, cost in enumerate(costs):
        if cost - best <= BEST_RESPONSE_ATOL and cost < current:
            out.append(d)
    return out


def best_response_set(
    env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]
) -> frozenset:
    """Decisions that strictly beat user n's current cost, restricted to the argmin.

    Empty when no strict improvement exists.  Candidates within
    BEST_RESPONSE_ATOL of the best value are all reported, so symmetric
    channels appear together.
    """
    candidates = []
    scratch = list(a)
    for decision in range(env.channels + 1):
        scratch[n] = decision
        candidates.append(user_overhead(env, users, n, scratch))
    return frozenset(best_responses(candidates, candidates[a[n]]))


def is_nash(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> bool:
    """True when no user can strictly reduce its own cost by deviating alone."""
    return all(not best_response_set(env, users, n, a) for n in range(len(users)))


def count_beneficial(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> int:
    """Number of users that offload and are no worse off than computing locally."""
    return sum(
        1 for n in range(len(users)) if a[n] != LOCAL and is_beneficial(env, users, n, a)
    )


def system_overhead(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> float:
    """Total cost across all users under profile a."""
    return sum_in_order(user_overhead(env, users, n, a) for n in range(len(users)))


# the dense candidate block


def nash_mask_dense(evaluator, profiles) -> np.ndarray:
    """`ProfileEvaluator.nash_mask` as it was: every user's cost at every decision."""
    batch = np.asarray(profiles, dtype=np.int64)
    cand = evaluator.candidate_overheads(batch)
    current = np.take_along_axis(cand, batch[:, :, np.newaxis], axis=2)[:, :, 0]
    return ~np.any(cand.min(axis=2) < current, axis=1)


def slot_rng(seed: int, slot: int) -> np.random.Generator:
    """A fresh counter-based stream per slot, as `run_dco` drew its picks before it kept one Philox per run."""
    return np.random.Generator(np.random.Philox(key=seed, counter=slot))


def run_dco_dense(scenario, seed: int) -> RunReport:
    """`run_dco` as it was before the incremental engine: every candidate cost each slot."""
    evaluator = scenario.evaluator
    weights, phi_thresholds = evaluator.weights, evaluator._phi_thresholds

    def mu(profile, user, decision):
        if decision == LOCAL:
            return float(phi_thresholds[user])
        load = float(((profile == decision) @ weights)[0])
        return float(load - weights[user]) if profile[0, user] == decision else load

    n_users = scenario.n_users
    profile = np.zeros((1, n_users), dtype=np.int64)
    potential_now = float(evaluator.potential(profile)[0])
    records = []
    for slot in itertools.count():
        candidates = evaluator.candidate_overheads(profile)[0]
        current = candidates[np.arange(n_users), profile[0]]
        best = candidates.min(axis=1)
        senders = tuple(int(n) for n in np.flatnonzero(best < current))
        pick = new_decision = None
        if senders:
            pick = senders[int(slot_rng(seed, slot).integers(len(senders)))]
            new_decision = best_responses(candidates[pick].tolist(), float(current[pick]))[0]
        records.append(
            SlotRecord(
                slot=slot,
                profile=tuple(int(d) for d in profile[0]),
                potential=potential_now,
                system_overhead=float(current.sum()),
                beneficial_count=int(((profile[0] > 0) & (current <= evaluator.local_costs)).sum()),
                overheads=tuple(float(z) for z in current),
                rtu_senders=senders,
                updater=pick,
                new_decision=new_decision,
            )
        )
        if not senders:
            break
        if not mu(profile, pick, new_decision) < mu(profile, pick, int(profile[0, pick])):
            raise RuntimeError(f"potential failed to decrease at slot {slot}")
        profile[0, pick] = new_decision
        potential_now = float(evaluator.potential(profile)[0])
    return RunReport(seed=seed, slots=tuple(records))


# one profile scan per call


def profile_chunks(n_users: int, channels: int, total: int):
    """Yield all decision profiles in lexicographic order, (game._CHUNK, n_users) at a time."""
    places = [(channels + 1) ** p for p in range(n_users - 1, -1, -1)]
    for start in range(0, total, game._CHUNK):
        indices = np.arange(start, min(start + game._CHUNK, total), dtype=np.int64)
        chunk = np.empty((len(indices), n_users), dtype=np.int64)
        for column, place in enumerate(places):  # a scalar divisor divides fastest
            chunk[:, column] = (indices // place) % (channels + 1)
        yield chunk


def exhaustive_optimize_separate(
    scenario, objective: Objective, profile_cap: int = DEFAULT_PROFILE_CAP
) -> tuple:
    """`baselines.exhaustive_optimize` as it was: its own scan on every call, totals summed in user order."""
    _check_cap(scenario, profile_cap)
    total = (scenario.channels + 1) ** scenario.n_users
    evaluator = scenario.evaluator
    maximize = objective is Objective.MAX_BENEFICIAL
    best_profile = None
    best_value = None
    for chunk in profile_chunks(scenario.n_users, scenario.channels, total):
        if maximize:
            offloading = chunk > 0
            feasible = ~np.any(offloading & ~evaluator.beneficial_mask(chunk), axis=1)
            values = np.where(feasible, offloading.sum(axis=1), -1)
            pick = int(np.argmax(values))
            better = best_value is None or values[pick] > best_value
        else:
            with np.errstate(over="ignore"):
                values = sum_in_order(evaluator.overheads(chunk).T)
            pick = int(np.argmin(values))
            better = best_value is None or values[pick] < best_value
        if better:
            best_value = values[pick]
            best_profile = tuple(int(d) for d in chunk[pick])
    return best_profile, (int(best_value) if maximize else float(best_value))


def enumerate_nash_separate(scenario, profile_cap: int = DEFAULT_PROFILE_CAP) -> list:
    """`baselines.enumerate_nash` as it was: its own scan on every call."""
    _check_cap(scenario, profile_cap)
    total = (scenario.channels + 1) ** scenario.n_users
    evaluator = scenario.evaluator
    found = []
    for chunk in profile_chunks(scenario.n_users, scenario.channels, total):
        for row in chunk[evaluator.nash_mask(chunk)]:
            found.append(tuple(int(d) for d in row))
    return found


def worst_equilibria(scenario, profile_cap: int = DEFAULT_PROFILE_CAP) -> tuple:
    """(fewest offloaders, costliest user-order total) over the whole Nash set.

    `metrics.poa_beneficial` and `poa_overhead` as they were: the same one-row
    calls on `scenario.evaluator`, made on every equilibrium.
    """
    evaluator, equilibria = scenario.evaluator, enumerate_nash(scenario, profile_cap)
    return (min(int(evaluator.beneficial_counts([a])[0]) for a in equilibria),
            max(sum_in_order(evaluator.overheads([a])[0].tolist()) for a in equilibria))


# the user-last batch kernel


class UserLastKernel:
    """`ProfileEvaluator`'s batch kernel as it was before it went user-major.

    Loads are (k, channels), by the same matmul; the own-channel μ is one
    `take_along_axis` gather that reads a local user's entry from channel 1;
    costs keep the user axis last and are picked with `np.where`; the batch
    methods' row totals are numpy's row sums of the (k, n_users) costs, the
    scan's add users in order.  It reads the evaluator's per-user constants,
    so it checks the kernel, not the cost model: every batch method must
    equal it bit for bit.
    """

    def __init__(self, evaluator, users: Sequence[UserProfile]):
        self.evaluator = evaluator
        self.peaks = np.array([u.peak_rate_bps for u in users])

    def loads(self, batch: np.ndarray) -> np.ndarray:
        loads = np.empty((batch.shape[0], self.evaluator.channels))
        for m in range(1, self.evaluator.channels + 1):
            loads[:, m - 1] = (batch == m) @ self.evaluator.weights
        return loads

    def cloud_costs(self, received: np.ndarray) -> np.ndarray:
        """Every user's cloud cost at co-channel weights `received`, user axis last."""
        ev, env = self.evaluator, self.evaluator.env
        w, coeff, fixed = ev.weights, ev.rate_coeffs, ev.fixed_cloud_costs
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if env.access is AccessModel.INTERFERENCE:
                rates = env.bandwidth_hz * np.log2(1.0 + w / (env.noise_mw + received))
            else:
                rates = self.peaks * w / (w + received)
            upload = coeff / rates
        return np.where(coeff == 0.0, fixed, upload + fixed)

    def batch_costs(self, batch: np.ndarray) -> tuple:
        """(costs, least_load): (k, n_users) costs and the (k, 1) least channel load."""
        loads = self.loads(batch)
        own_mu = np.take_along_axis(loads, np.maximum(batch - 1, 0), axis=1) - self.evaluator.weights
        costs = np.where(batch > 0, self.cloud_costs(own_mu), self.evaluator.local_costs)
        return costs, loads.min(axis=1, keepdims=True)

    def improvers(self, costs: np.ndarray, least_load: np.ndarray) -> np.ndarray:
        return np.minimum(self.evaluator.local_costs, self.cloud_costs(least_load)) < costs

    def nash_mask(self, batch: np.ndarray) -> np.ndarray:
        return ~np.any(self.improvers(*self.batch_costs(batch)), axis=1)

    def beneficial_mask(self, batch: np.ndarray) -> np.ndarray:
        return (batch > 0) & (self.batch_costs(batch)[0] <= self.evaluator.local_costs)

    def repair_to_beneficial(self, batch: np.ndarray) -> np.ndarray:
        return np.where(self.beneficial_mask(batch), batch, 0)

    @np.errstate(over="ignore")
    def system_overheads(self, batch: np.ndarray) -> np.ndarray:
        return self.batch_costs(batch)[0].sum(axis=1)

    def candidate_overheads(self, batch: np.ndarray) -> np.ndarray:
        ev = self.evaluator
        own = batch[:, np.newaxis, :] == np.arange(1, ev.channels + 1)[:, np.newaxis]
        mu = self.loads(batch)[:, :, np.newaxis] - ev.weights * own  # (k, channels, n_users)
        out = np.empty((len(batch), ev.n_users, ev.channels + 1))
        out[:, :, 0] = ev.local_costs
        out[:, :, 1:] = self.cloud_costs(mu).transpose(0, 2, 1)
        return out

    def scan(self):
        """`ProfileEvaluator._scan` from this kernel, over the same canonical chunks.

        The costliest equilibrium's total comes from the whole Nash set of
        each chunk; it and the optimum rank totals summed user by user.
        """
        ev = self.evaluator
        equilibria, costliest, most, least = [], [], [], []
        for chunk in game._canonical_chunks(ev.n_users, ev.channels):
            costs, least_load = self.batch_costs(chunk)
            nash = ~np.any(self.improvers(costs, least_load), axis=1)
            equilibria.append(chunk[nash])
            with np.errstate(over="ignore"):
                costliest += sum_in_order(costs[nash].T).tolist()
            offloading = chunk > 0
            feasible = np.all((offloading & (costs <= ev.local_costs)) == offloading, axis=1)
            counts = np.where(feasible, offloading.sum(axis=1), -1)
            with np.errstate(over="ignore"):
                totals = sum_in_order(costs.T)
            high, low = int(np.argmax(counts)), int(np.argmin(totals))
            most.append((tuple(chunk[high].tolist()), int(counts[high])))
            least.append((tuple(chunk[low].tolist()), float(totals[low])))
        return game._ProfileScan(game._relabellings(np.concatenate(equilibria), ev.channels), max(costliest),
                                 max(most, key=lambda pair: pair[1]), min(least, key=lambda pair: pair[1]))
