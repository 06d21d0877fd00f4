"""Strategic-game layer over the per-user cost model.

Both access models reduce to the same structure through a per-user access
weight: transmit power times channel gain under interference, the contention
weight otherwise.  ProfileEvaluator is the one place rates, costs, cost totals,
channel loads and the potential are computed, for numpy batches of decision
profiles.  Its cost kernel keeps the per-user constants as (n_users, 1) columns
and puts the user axis first, so a batch's C-ordered (n_users, k) arrays run
each ufunc along the batch, one buffer per call, and a local user's μ is NaN,
never a negative number.  The potential is assembled from per-channel terms, so
`dco.run_dco` can keep those terms between slots and refresh only the channels
a move touches.  A `run_dco` slot is a batch of one column with `_loads`'
(channels + 1, 1) loads, indexed by decision, so batches and slots share one
method per rule: a user's cost (`_costs`), whether it has an improving move,
checked on its own and the least-loaded channel only (`_improvers`), whether
it offloads at no loss (`_beneficial`) and a profile's total cost (`_totals`);
the granted user's move, its tie rule and the μ of its potential change come
from `_best_response`.  A scenario builds its evaluator once, as
`Scenario.evaluator`, and one cached pass over the canonical profiles, one per
channel relabelling, gives the Nash set, both exhaustive optima and the
costliest equilibrium's total, so `metrics` scores no profile itself.  The pass
reads a scan plan per chunk of those profiles: each channel's one-hot matrix,
for the chunk's loads, and column blocks of at most _BLOCK_CELLS user entries,
which the per-user rules run over one at a time; a size that fits one chunk
builds its plan once per process.  The module-level functions are
single-profile views of it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContentionUnsupported
from .model import (
    LOCAL,
    AccessModel,
    ChannelEnv,
    UserProfile,
    _cloud_cost_coefficients,
    _sum_in_order,
    _threshold,
    access_weight,
    local_overhead,
)

__all__ = ["user_overhead", "is_nash", "count_beneficial", "system_overhead", "ProfileEvaluator"]

# Two candidate decisions count as equally good when their costs are this close;
# the improvement test against the status quo stays an exact float comparison.
BEST_RESPONSE_ATOL = 1e-12
_CHUNK = 1 << 16
# a scan's per-user temporaries stay within 128 KB of float64, small enough for the heap to reuse
_BLOCK_CELLS = 1 << 14


def _clamped(thresholds: Sequence[float], weights: Sequence[float]) -> list:
    """The finite stand-ins the potential uses for the beneficiality thresholds.

    -inf (never beneficial) becomes 0: such users stay local on every
    improvement path.  +inf (any co-channel weight is tolerable) becomes twice
    the instance's total access weight, above any co-channel weight a user can
    face even after rounding.  Finite thresholds pass through unchanged.
    """
    ceiling = 2.0 * _sum_in_order(weights)
    return [0.0 if t == -math.inf else ceiling if t == math.inf else t for t in thresholds]


def _grow(block: np.ndarray, top: np.ndarray, columns: int, channels: int) -> tuple:
    """Append `columns` canonical columns to every row of `block`, in lexicographic order.

    `top` is each row's largest channel so far; a row grows by 0 (local) and
    every channel up to one above its top.
    """
    for _ in range(columns):
        width = np.minimum(top + 1, channels) + 1
        parent = np.repeat(np.arange(len(block)), width)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        block = np.column_stack((block[parent], value))
        top = np.maximum(top[parent], value)
    return block, top


def _completions(n_users: int, channels: int) -> list:
    """completions[s][t]: canonical suffixes of length s after a prefix whose top channel is t.

    completions[n_users][0] counts the canonical profiles.  No profile uses
    more channels than it has users, so t runs to min(channels, n_users).
    """
    reach = min(channels, n_users)
    completions = [[1] * (reach + 1)]
    for _ in range(n_users):
        last = completions[-1]
        completions.append([(t + 1) * last[t] + (last[t + 1] if t < reach else 0)
                            for t in range(reach + 1)])
    return completions


def _canonical_chunks(n_users: int, channels: int) -> Iterator[np.ndarray]:
    """Yield the canonical profiles in lexicographic order, at most _CHUNK rows at a time.

    A profile is canonical when it numbers its channels in order of first use:
    every entry is 0 or at most one above the largest entry before it.  Each
    is the lexicographically smallest profile its channel relabellings reach.
    The first columns are the shortest prefix that no canonical prefix
    completes in more than _CHUNK ways; consecutive prefixes share a chunk
    while their completions fit.  Every call builds its chunks anew; the scan
    reads them as plans through `_profile_blocks`, which keeps a single-chunk size's.
    """
    completions, reach = _completions(n_users, channels), min(channels, n_users)
    prefix = next(p for p in range(n_users + 1) if completions[n_users - p][min(p, reach)] <= _CHUNK)
    suffix = n_users - prefix
    heads, tops = _grow(np.empty((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), prefix, channels)
    counts = [completions[suffix][t] for t in tops.tolist()]
    start, rows = 0, 0
    for end, count in enumerate(counts):
        if rows + count > _CHUNK:
            yield _grow(heads[start:end], tops[start:end], suffix, channels)[0]
            start, rows = end, 0
        rows += count
    yield _grow(heads[start:], tops[start:], suffix, channels)[0]


def _one_hot(batch: np.ndarray, channels: int) -> Iterator[np.ndarray]:
    """`batch == m` for channels m = 1..channels, one (k, n_users) bool matrix at a time."""
    return (batch == m for m in range(1, channels + 1))


def _flat_index(decisions: np.ndarray, rows: int, start: int = 0) -> np.ndarray:
    """Each user's flat index, decision·rows + column, into `_loads`' (channels + 1, rows) loads.

    `decisions` is (n_users, b), in any memory order, and holds the columns from `start` on.
    """
    index = np.multiply(decisions, rows, order="C")
    index += np.arange(start, start + decisions.shape[1])
    return index


class _Block(NamedTuple):
    """A column block of a scan plan: at most _BLOCK_CELLS user entries of the chunk's canonical profiles."""

    columns: slice  # of the chunk
    decisions: np.ndarray  # (n_users, b), C-ordered
    index: np.ndarray  # `_flat_index` into the chunk's `_loads`
    local: np.ndarray  # decisions == LOCAL
    offloaders: np.ndarray  # (b,) offloading users per profile


class _Plan(NamedTuple):
    """The scan plan of one chunk of k canonical profiles: tuples when kept, else built as the scan reads them."""

    rows: int  # k
    one_hot: Iterable  # (k, n_users) C-ordered float64 `profiles == m` per channel m the profiles reach
    blocks: Iterable  # _Block, in column order


def _plan(profiles: np.ndarray, channels: int) -> _Plan:
    """The scan plan of the canonical `profiles` (k, n_users), each part built as it is read.

    The one-hot matrices are the float64 the bool `profiles == m` casts to in
    `_loads`' product, so the loads keep their bits.  A canonical profile uses
    no channel past min(channels, n_users); those carry no one-hot and no load.
    """
    rows, n_users = profiles.shape

    def block(columns: slice) -> _Block:
        decisions = np.ascontiguousarray(profiles[columns].T)
        return _Block(columns, decisions, _flat_index(decisions, rows, columns.start), decisions == LOCAL,
                      np.count_nonzero(decisions, axis=0))

    step = max(1, _BLOCK_CELLS // n_users)
    return _Plan(rows, (on.astype(np.float64) for on in _one_hot(profiles, min(channels, n_users))),
                 (block(slice(start, min(start + step, rows))) for start in range(0, rows, step)))


@lru_cache(maxsize=4)
def _single_block(n_users: int, channels: int) -> _Plan:
    """A single-chunk size's scan plan, built whole, every array read-only."""
    rows, one_hot, blocks = _plan(next(_canonical_chunks(n_users, channels)), channels)
    plan = _Plan(rows, tuple(one_hot), tuple(blocks))
    for array in (*plan.one_hot, *(array for block in plan.blocks for array in block[1:])):
        array.flags.writeable = False
    return plan


def _profile_blocks(n_users: int, channels: int) -> Iterator[_Plan]:
    """Yield the scan plan of each canonical chunk, in order.

    A size whose canonical profiles fit in one _CHUNK (M=3 up to N=9, M=5 up
    to N=8) builds its plan once per process and keeps it, read-only, in an
    LRU of four sizes, each at most 27 MB (N=16, M=1: k·N·(8·min(M, N) + 17)
    bytes for k profiles); larger sizes build each chunk's plan from
    `_canonical_chunks` one matrix and one block at a time and keep none of it.
    """
    if _completions(n_users, channels)[n_users][0] <= _CHUNK:
        yield _single_block(n_users, channels)
        return
    for profiles in _canonical_chunks(n_users, channels):
        yield _plan(profiles, channels)


def _relabellings(profiles: np.ndarray, channels: int) -> tuple:
    """Every channel relabelling of the canonical `profiles`, as tuples in lexicographic order.

    A profile on channels 1..k has one relabelling per one-to-one map of 1..k
    into 1..channels, channels!/(channels-k)! in all; local stays 0.
    """
    used = profiles.max(axis=1, initial=LOCAL)
    parts = [np.empty((0, profiles.shape[1]), dtype=np.int64)]
    for k in np.unique(used).tolist():
        maps = np.array([(LOCAL, *image) for image in itertools.permutations(range(1, channels + 1), k)])
        parts.append(maps[:, profiles[used == k]].reshape(-1, profiles.shape[1]))
    every = np.concatenate(parts)
    return tuple(map(tuple, every[np.lexsort(every.T[::-1])].tolist()))


class _ProfileScan(NamedTuple):
    """The Nash set, its costliest total and both exhaustive optima, from one pass over the canonical profiles.

    The costliest equilibrium's total adds its users in order, as the
    `system_overhead` view does.
    """

    equilibria: tuple  # in lexicographic order
    worst_overhead: float  # costliest equilibrium's total, summed in user order
    max_beneficial: tuple  # (profile, most offloaders with none losing out)
    min_overhead: tuple  # (profile, least total cost)


class ProfileEvaluator:
    """Vectorized scoring of decision-profile batches for one fixed instance.

    Profiles are passed as an int array of shape (k, n_users); every method
    is read-only and the cached scan has the same value whichever thread
    stores it, so one evaluator can serve any number of threads.  The scan's
    plan of the canonical profiles depends only on (n_users, channels):
    evaluators of one size share it, read-only, when the profiles fit one
    chunk (`_profile_blocks`).
    The per-user interference is derived from channel loads by subtracting
    the user's own weight, mirroring the measurement feedback a running
    system would use.
    """

    def __init__(self, env: ChannelEnv, users: Sequence[UserProfile]):
        self.env = env
        self.n_users = len(users)
        self.channels = env.channels
        weights = [access_weight(env, u) for u in users]
        local_costs = [local_overhead(u) for u in users]
        coeff_fixed = [_cloud_cost_coefficients(u) for u in users]
        thresholds = [_threshold(env, u, c, f, lc) for u, (c, f), lc in zip(users, coeff_fixed, local_costs)]
        phi_thresholds = _clamped(thresholds, weights)
        # a sum of terms >= 0 is NaN only through a NaN term; infinite local and cloud
        # costs leave the threshold inf - inf = NaN
        for n, (local, (coeff, fixed), t) in enumerate(zip(local_costs, coeff_fixed, thresholds)):
            if math.isnan(local + coeff + fixed + abs(t)):
                raise ValueError(f"user {n}: a cost or its threshold is not a number")
        # Python floats overflow to inf without a warning; the bound covers
        # every pair term, every local term and the potential itself
        total = _sum_in_order(weights)
        local_terms = _sum_in_order(abs(w * t) for w, t in zip(weights, phi_thresholds))
        if not math.isfinite(0.5 * (total * total) + local_terms):
            raise ValueError("access weights too large: the potential would overflow")
        self.weights = np.array(weights)
        self.local_costs = np.array(local_costs)
        coeffs = [cf[0] for cf in coeff_fixed]
        self.rate_coeffs = np.array(coeffs)
        self.fixed_cloud_costs = np.array([cf[1] for cf in coeff_fixed])
        self.thresholds = np.array(thresholds)
        self._phi_thresholds = np.array(phi_thresholds)
        self._squared_weights = self.weights * self.weights
        self._local_phi_weights = self.weights * self._phi_thresholds
        # the cost kernel's per-user constants as (n_users, 1) columns.  A rate's numerator is w,
        # or under contention peak·w in Python floats (> 0: see _threshold)
        numerators = self.weights if env.access is AccessModel.INTERFERENCE else np.array(
            [float(u.peak_rate_bps) * w for u, w in zip(users, weights)])
        self._columns = tuple([row[:, np.newaxis] for row in (
            self.weights, numerators, self.rate_coeffs, self.fixed_cloud_costs, self.local_costs)])
        self._free_upload = 0.0 in coeffs  # some user's cloud cost ignores its rate

    def _as_batch(self, profiles) -> np.ndarray:
        """The one check on profiles: integer decisions in 0..channels, one per user.

        A 1-D array is one profile and a 2-D array a batch; any other rank is rejected.
        """
        batch = np.asarray(profiles)
        if batch.ndim not in (1, 2):
            raise ValueError(f"profiles must be one profile or a 2-D batch, got shape {batch.shape}")
        if batch.ndim == 1:
            batch = batch[np.newaxis, :]
        if batch.shape[1] != self.n_users:
            raise ValueError(f"profile width {batch.shape[1]} != user count {self.n_users}")
        if batch.dtype.kind not in "iu":
            raise ValueError(f"profile entries must be integers, not {batch.dtype}")
        if batch.size and (batch.min() < LOCAL or batch.max() > self.channels):
            raise ValueError(f"profile entries must lie in {LOCAL}..{self.channels}")
        return batch.astype(np.int64, copy=False)

    def channel_loads(self, profiles) -> np.ndarray:
        """(k, channels) array of summed access weights per channel."""
        batch = self._as_batch(profiles)
        return self._loads(_one_hot(batch, self.channels), len(batch))[1:].T

    def _loads(self, one_hot: Iterable[np.ndarray], rows: int) -> np.ndarray:
        """(channels + 1, rows) loads, channel-major, from the one-hot matrices of channels 1, 2, ….

        Each channel's load is one product of its whole one-hot matrix with
        the weights, whose bits depend on the row count.  Row 0 (local) is
        NaN, and channels past the last matrix carry no user.
        """
        loads = np.empty((self.channels + 1, rows))
        loads[LOCAL] = np.nan
        m = LOCAL
        for m, on in enumerate(one_hot, 1):
            np.matmul(on, self.weights, out=loads[m])
        loads[m + 1:] = 0.0
        return loads

    # entries a caller discards may be NaN or a 0/0; an upload cost past the float range is +inf,
    # as at rate 0.  A decorator costs half a `with` block per call, and a slot makes three calls
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def _cloud_costs(self, received, users=None) -> np.ndarray:
        """Cloud costs at co-channel weights `received`, every ufunc written into one buffer.

        The user axis comes first: `received` is (n_users, k) or (1, k), a
        `run_dco` slot being a batch of one column.  A slice `users` selects
        those rows of the constants, one user's being a (1, 1) slice.  NaN μ costs NaN.
        """
        w, numerator, coeff, fixed, _ = self._columns if users is None else (c[users] for c in self._columns)
        if self.env.access is AccessModel.INTERFERENCE:
            costs = np.divide(numerator, self.env.noise_mw + received)
            np.add(1.0, costs, out=costs)
            np.log2(costs, out=costs)
            np.multiply(self.env.bandwidth_hz, costs, out=costs)  # the rate
        else:
            costs = np.add(w, received)
            np.divide(numerator, costs, out=costs)  # the rate, (peak·w) / (w + μ)
        np.divide(coeff, costs, out=costs)
        np.add(costs, fixed, out=costs)
        if self._free_upload:
            np.copyto(costs, fixed, where=coeff == 0.0)
        return costs

    def cloud_cost_extremes(self) -> np.ndarray:
        """(2, n_users) best- and worst-case cloud cost per user, interference model only.

        Row 0: the user has its channel to itself.  Row 1: it faces the
        average co-channel weight, the total weight of everyone else spread
        over the channel count, which no equilibrium exceeds.
        """
        if self.env.access is not AccessModel.INTERFERENCE:
            raise ContentionUnsupported("cloud-cost extremes are defined for the interference model")
        weights = self.weights.tolist()
        # everyone else summed in user order, not total - w_n, which rounds differently
        others = [_sum_in_order(w for i, w in enumerate(weights) if i != n) for n in range(self.n_users)]
        return self._cloud_costs(np.column_stack([np.zeros(self.n_users), np.array(others) / self.channels])).T

    def overheads(self, profiles) -> np.ndarray:
        """(k, n_users) per-user costs under each profile, C-ordered, so its row sums add in one order."""
        return np.ascontiguousarray(self._batch_costs(self._as_batch(profiles))[1].T)

    def system_overheads(self, profiles) -> np.ndarray:
        """(k,) total cost of each profile, by `_totals`."""
        return self._totals(self._batch_costs(self._as_batch(profiles))[1])

    @np.errstate(over="ignore")  # a total of finite costs past the float range is +inf
    def _totals(self, costs: np.ndarray) -> np.ndarray:
        """(k,) totals of (n_users, k) costs: the one numpy total, row sums of their C-ordered transpose.

        Only the scan's worst equilibrium and the `system_overhead` view sum in user order, as the bench's
        `poa` digest records.
        """
        return np.ascontiguousarray(costs.T).sum(axis=1)

    def beneficial_mask(self, profiles) -> np.ndarray:
        """(k, n_users) True where a user offloads at no loss versus local computing."""
        return self._beneficial(*self._batch_costs(self._as_batch(profiles))[:2]).T

    def beneficial_counts(self, profiles) -> np.ndarray:
        return self.beneficial_mask(profiles).sum(axis=1)

    def repair_to_beneficial(self, profiles) -> np.ndarray:
        """Send every non-beneficial offloader local; the rest only gain from it."""
        batch = self._as_batch(profiles)
        return np.where(self._beneficial(*self._batch_costs(batch)[:2]).T, batch, 0)

    def candidate_overheads(self, profiles) -> np.ndarray:
        """(k, n_users, channels+1) cost of every unilateral decision per user.

        No `src/` caller is left, since the Nash test and the slot engine need
        two candidates per user.  It stays for the dense test oracles, which
        call it, and the benchmark's tracer, which wraps it.
        """
        batch = self._as_batch(profiles)
        own = batch.T[:, np.newaxis, :] == np.arange(1, self.channels + 1)[:, np.newaxis]
        loads = self._loads(_one_hot(batch, self.channels), len(batch))
        mu = loads[1:] - self.weights[:, np.newaxis, np.newaxis] * own  # (n_users, channels, k)
        cloud_costs = self._cloud_costs(mu.reshape(self.n_users, -1)).reshape(mu.shape)
        out = np.empty((len(batch), self.n_users, self.channels + 1))  # once temporaries are freed
        out[:, :, 0] = self.local_costs
        out[:, :, 1:] = cloud_costs.transpose(2, 0, 1)
        return out

    def _costs(self, index: np.ndarray, local: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """(n_users, k) cost of each user; `local` is True where it computes locally.

        The one own-channel μ gather, load − w: one flat take of `index`,
        each user's `_flat_index` into `_loads`' (channels + 1, k) `loads`,
        whose row 0 makes μ NaN for a local user.  A `run_dco` slot's index is
        its (n_users, 1) decisions, a scan block's is kept in its plan.
        """
        own_mu = loads.take(index)
        own_mu -= self._columns[0]
        costs = self._cloud_costs(own_mu)
        np.copyto(costs, self._columns[4], where=local)
        return costs

    def _improvers(self, costs: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """True where a user at cost `costs` has a strictly improving unilateral move.

        A cloud cost never decreases as μ grows, so a user's cheapest move is
        local, its own channel (its cost now) or the one with the least of
        `loads[1:]`.  On the least-loaded or only channel, that last is its own
        at μ = load, never below staying; every other channel is at least as loaded.
        """
        best = self._cloud_costs(loads[1:].min(axis=0, keepdims=True))
        np.minimum(self._columns[4], best, out=best)
        return best < costs

    def _beneficial(self, local: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """True where a user offloads (is not `local`) and its cost `costs` is at most its local cost."""
        return ~local & (costs <= self._columns[4])

    def _best_response(self, own: int, load: np.ndarray, user: int, current_cost: float) -> tuple:
        """(new_decision, mu_new, mu_old): the best response of `user`, now at decision `own`.

        `load` is one profile's (channels + 1,) column of `_loads`, costed as one (1, channels + 1)
        row.  The first decision within BEST_RESPONSE_ATOL of the cheapest that strictly beats
        `current_cost`, and μ there and at `own`; μ at local is the clamped threshold.
        """
        mu = load.copy()
        mu[own] -= self.weights[user]
        mu[LOCAL] = self._phi_thresholds[user]
        costs = self._cloud_costs(mu[np.newaxis], slice(user, user + 1))[0].tolist()
        costs[LOCAL] = float(self.local_costs[user])
        best = min(costs)
        new = next(
            d for d, cost in enumerate(costs) if cost - best <= BEST_RESPONSE_ATOL and cost < current_cost
        )
        return new, float(mu[new]), float(mu[own])

    def _batch_costs(self, batch: np.ndarray) -> tuple:
        """(local, costs, loads) of a checked batch: C-ordered (n_users, k) and `_loads`' (channels + 1, k).

        `local` is True where a user computes locally.  With `_improvers` it
        gives the Nash mask, so no (k, n_users, channels+1) block is built.
        """
        local = np.equal(batch.T, LOCAL, order="C")
        loads = self._loads(_one_hot(batch, self.channels), len(batch))
        return local, self._costs(_flat_index(batch.T, len(batch)), local, loads), loads

    def nash_mask(self, profiles) -> np.ndarray:
        """(k,) True where no user has a strictly improving unilateral deviation."""
        _, costs, loads = self._batch_costs(self._as_batch(profiles))
        return ~np.any(self._improvers(costs, loads), axis=0)

    @cached_property
    def _scan(self) -> _ProfileScan:
        """One pass over the canonical profiles, cached; callers check the profile cap.

        Per plan of `_profile_blocks`, `_loads` gives the chunk's loads from
        its one-hot matrices, over the whole chunk as the bits of a load
        depend on the row count.  Then per column block, `_costs`,
        `_improvers`, `_beneficial` and `_totals` give the Nash mask, the
        offloader counts of rows where no offloader loses out and the totals,
        with the bits of the public methods, which call the same kernels
        through `_batch_costs`; a block's temporaries stay small enough for
        the heap to reuse, where a chunk's would fault in fresh pages on
        every scan.  A canonical profile is the first of its channel
        relabellings, so argmax/argmin and `max`/`min`, which keep the first,
        break ties for the lexicographically first profile, across blocks as
        within one.  Each Nash column's user-order total is the
        `system_overhead` view's, up to the bits of its loads: a chunk's load
        can differ from a one-row call's only on a channel three or more
        users share, since zeros and two weights sum alike in any order.
        Every seeded equilibrium's total matched with OpenBLAS on a 2-core
        Xeon, but another BLAS kernel may move such a cell's last bits.  The
        canonical equilibria expand into all their relabellings.
        """
        # ChannelEnv gives every channel one bandwidth and one noise floor, so relabelling
        # the channels of a profile moves no load, cost or Nash flag of it
        equilibria, costliest, most, least = [], [], [], []  # most/least: (profile, value) per block
        for plan in _profile_blocks(self.n_users, self.channels):
            loads = self._loads(plan.one_hot, plan.rows)
            for block in plan.blocks:
                costs = self._costs(block.index, block.local, loads)
                nash = ~np.any(self._improvers(costs, loads[:, block.columns]), axis=0)
                equilibria.append(block.decisions.T[nash])
                if nash.any():
                    with np.errstate(over="ignore"):  # as in `_totals`
                        costliest.append(float(_sum_in_order(costs[:, nash]).max()))
                # no offloader loses out: beneficial exactly where not local
                feasible = np.all(self._beneficial(block.local, costs) != block.local, axis=0)
                counts = np.where(feasible, block.offloaders, -1)
                totals = self._totals(costs)
                high, low = int(np.argmax(counts)), int(np.argmin(totals))
                most.append((tuple(block.decisions[:, high].tolist()), int(counts[high])))
                least.append((tuple(block.decisions[:, low].tolist()), float(totals[low])))
        return _ProfileScan(_relabellings(np.concatenate(equilibria), self.channels), max(costliest),
                            max(most, key=itemgetter(1)), min(least, key=itemgetter(1)))

    def _channel_terms(self, batch: np.ndarray, channels) -> tuple:
        """Loads t and pair terms ½(t² − Σw²) of `channels` under `batch`, each (len(channels), k).

        One (k, n_users) product with the weights and one with their squares
        per channel, so a channel's terms have the same bits whichever other
        channels are asked for.
        """
        loads = np.empty((len(channels), len(batch)))
        pair_terms = np.empty_like(loads)
        for i, m in enumerate(channels):
            on = batch == m
            total = on @ self.weights
            loads[i] = total
            pair_terms[i] = 0.5 * (total * total - on @ self._squared_weights)
        return loads, pair_terms

    def _phi(self, pair_terms: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """(k,) potential from every channel's pair terms, summed in channel order, plus the local term."""
        return np.add.accumulate(pair_terms)[-1] + (batch == LOCAL) @ self._local_phi_weights

    def potential(self, profiles) -> np.ndarray:
        """(k,) potential values.

        Half the sum of pairwise co-channel weight products, plus each local
        user's weight times its clamped beneficiality threshold; it strictly
        decreases on every improving unilateral move.  Moving a user of
        weight w from a decision where it faces co-channel weight μ_a to one
        where it faces μ_b changes it by exactly w·(μ_b − μ_a), where μ at
        local is the user's clamped threshold.
        """
        batch = self._as_batch(profiles)
        _, pair_terms = self._channel_terms(batch, range(1, self.channels + 1))
        return self._phi(pair_terms, batch)


def user_overhead(env: ChannelEnv, users: Sequence[UserProfile], n: int, a: Sequence[int]) -> float:
    """Cost user n pays under profile a: local cost if a[n]=0, cloud cost otherwise."""
    if not 0 <= n < len(users):  # a negative index would wrap
        raise IndexError(f"user index {n} out of range 0..{len(users) - 1}")
    return float(ProfileEvaluator(env, users).overheads([a])[0, n])


def is_nash(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> bool:
    """True when no user can strictly reduce its own cost by deviating alone."""
    return bool(ProfileEvaluator(env, users).nash_mask([a])[0])


def count_beneficial(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> int:
    """Number of users that offload and are no worse off than computing locally."""
    return int(ProfileEvaluator(env, users).beneficial_counts([a])[0])


def system_overhead(env: ChannelEnv, users: Sequence[UserProfile], a: Sequence[int]) -> float:
    """Total cost across all users under profile a, summed in user order, as the scan's worst equilibrium."""
    return _sum_in_order(ProfileEvaluator(env, users).overheads([a])[0].tolist())
