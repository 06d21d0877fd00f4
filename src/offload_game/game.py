"""Strategic-game layer over the per-user cost model.

Both access models reduce to the same structure through a per-user access
weight: transmit power times channel gain under interference, the contention
weight otherwise.  ProfileEvaluator is the one place rates, costs, channel
loads and the potential are computed: it precomputes per-user constants so
that batches of decision profiles can be scored with numpy; its cost kernel
takes co-channel weights with the user axis last (or any shape for one
selected user), and it also gives each user's best- and worst-case cloud cost
for the price-of-anarchy overhead bound.  The potential is assembled from
per-channel terms, so `dco.run_dco` can keep those terms between slots and
refresh only the channels a move touches.  Batches and `run_dco` share one
method per per-user rule: a user's cost (`_costs`), whether it has an
improving move, checked on its own and the least-loaded channel only
(`_improvers`), and whether it offloads at no loss (`_beneficial`); the
granted user's move, its tie rule and the μ of its potential change come
from `_best_response`.  A scenario builds its evaluator once, as
`Scenario.evaluator`, and it scans all profiles at most once: one cached pass
gives the Nash set and both exhaustive optima.  The module-level functions are
single-profile views of it.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ContentionUnsupported
from .model import (
    LOCAL,
    AccessModel,
    ChannelEnv,
    UserProfile,
    _cloud_cost_coefficients,
    access_weight,
    beneficial_threshold,
    local_overhead,
)

__all__ = ["user_overhead", "is_nash", "count_beneficial", "system_overhead", "ProfileEvaluator"]

# Two candidate decisions count as equally good when their costs are this close;
# the improvement test against the status quo stays an exact float comparison.
BEST_RESPONSE_ATOL = 1e-12
_CHUNK = 1 << 16


def _clamped(thresholds: Sequence[float], weights: Sequence[float]) -> list:
    """The finite stand-ins the potential uses for the beneficiality thresholds.

    -inf (never beneficial) becomes 0: such users stay local on every
    improvement path.  +inf (any co-channel weight is tolerable) becomes twice
    the instance's total access weight, above any co-channel weight a user can
    face even after rounding.  Finite thresholds pass through unchanged.
    """
    ceiling = 2.0 * sum(weights)
    return [0.0 if t == -math.inf else ceiling if t == math.inf else t for t in thresholds]


def _profile_chunks(n_users: int, channels: int, total: int) -> Iterator[np.ndarray]:
    """Yield all decision profiles in lexicographic order, (chunk, n_users) at a time."""
    places = [(channels + 1) ** p for p in range(n_users - 1, -1, -1)]
    for start in range(0, total, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        chunk = np.empty((len(indices), n_users), dtype=np.int64)
        for column, place in enumerate(places):  # a scalar divisor divides fastest
            chunk[:, column] = (indices // place) % (channels + 1)
        yield chunk


class _ProfileScan(NamedTuple):
    """The Nash set and both exhaustive optima, from one pass over every profile."""

    equilibria: tuple  # in lexicographic order
    max_beneficial: tuple  # (profile, most offloaders with none losing out)
    min_overhead: tuple  # (profile, least total cost)


class ProfileEvaluator:
    """Vectorized scoring of decision-profile batches for one fixed instance.

    Profiles are passed as an int array of shape (k, n_users); every method
    is read-only and the cached scan has the same value whichever thread
    stores it, so one evaluator can serve any number of threads.  The
    per-user interference is derived from channel loads by subtracting the
    user's own weight, mirroring the measurement feedback a running system
    would use.
    """

    def __init__(self, env: ChannelEnv, users: Sequence[UserProfile]):
        self.env = env
        self.n_users = len(users)
        self.channels = env.channels
        weights = [access_weight(env, u) for u in users]
        thresholds = [beneficial_threshold(env, u) for u in users]
        phi_thresholds = _clamped(thresholds, weights)
        # Python floats overflow to inf without a warning; the bound covers
        # every pair term, every local term and the potential itself
        total = sum(weights)
        local_terms = sum(abs(w * t) for w, t in zip(weights, phi_thresholds))
        if not math.isfinite(0.5 * (total * total) + local_terms):
            raise ValueError("access weights too large: the potential would overflow")
        self.weights = np.array(weights)
        self.local_costs = np.array([local_overhead(u) for u in users])
        coeff_fixed = [_cloud_cost_coefficients(u) for u in users]
        self.rate_coeffs = np.array([cf[0] for cf in coeff_fixed])
        self.fixed_cloud_costs = np.array([cf[1] for cf in coeff_fixed])
        self.thresholds = np.array(thresholds)
        self._phi_thresholds = np.array(phi_thresholds)
        self._squared_weights = self.weights * self.weights
        self._local_phi_weights = self.weights * self._phi_thresholds
        # > 0 under contention: beneficial_threshold above raises otherwise
        self._peaks = np.array([u.peak_rate_bps for u in users])

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
        return self._loads(self._as_batch(profiles))

    def _loads(self, batch: np.ndarray) -> np.ndarray:
        """`channel_loads` of a checked batch."""
        loads = np.empty((batch.shape[0], self.channels))
        for m in range(1, self.channels + 1):
            loads[:, m - 1] = (batch == m) @ self.weights
        return loads

    def _cloud_costs(self, received: np.ndarray, users=slice(None)) -> np.ndarray:
        """Cloud costs of the selected users (default: all) at co-channel weights `received`.

        `received` broadcasts against the selection: for all users its last
        axis is the user axis; for one user index it holds that user's μ
        values in any shape.
        """
        w, coeff, fixed = self.weights[users], self.rate_coeffs[users], self.fixed_cloud_costs[users]
        # entries a caller discards may be a log2 of a negative number or a 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.env.access is AccessModel.INTERFERENCE:
                rates = self.env.bandwidth_hz * np.log2(1.0 + w / (self.env.noise_mw + received))
            else:
                rates = self._peaks[users] * w / (w + received)
            upload = coeff / rates
        return np.where(coeff == 0.0, fixed, upload + fixed)

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
        others = [sum(w for i, w in enumerate(weights) if i != n) for n in range(self.n_users)]
        return self._cloud_costs(np.stack([np.zeros(self.n_users), np.array(others) / self.channels]))

    def overheads(self, profiles) -> np.ndarray:
        """(k, n_users) per-user costs under each profile."""
        return self._batch_costs(self._as_batch(profiles))[0]

    def system_overheads(self, profiles) -> np.ndarray:
        return self.overheads(profiles).sum(axis=1)

    def beneficial_mask(self, profiles) -> np.ndarray:
        """(k, n_users) True where a user offloads at no loss versus local computing."""
        batch = self._as_batch(profiles)
        return self._beneficial(batch, self._batch_costs(batch)[0])

    def beneficial_counts(self, profiles) -> np.ndarray:
        return self.beneficial_mask(profiles).sum(axis=1)

    def repair_to_beneficial(self, profiles) -> np.ndarray:
        """Send every non-beneficial offloader local; the rest only gain from it."""
        batch = self._as_batch(profiles)
        return np.where(self._beneficial(batch, self._batch_costs(batch)[0]), batch, 0)

    def candidate_overheads(self, profiles) -> np.ndarray:
        """(k, n_users, channels+1) cost of every unilateral decision per user.

        No `src/` caller is left, since the Nash test and the slot engine need
        two candidates per user.  It stays for the dense test oracles, which
        call it, and the benchmark's tracer, which wraps it.
        """
        batch = self._as_batch(profiles)
        loads = self._loads(batch)
        own = batch[:, np.newaxis, :] == np.arange(1, self.channels + 1)[:, np.newaxis]
        mu = loads[:, :, np.newaxis] - self.weights * own  # (k, channels, n_users)
        cloud_costs = self._cloud_costs(mu).transpose(0, 2, 1)
        out = np.empty((len(batch), self.n_users, self.channels + 1))  # once temporaries are freed
        out[:, :, 0] = self.local_costs
        out[:, :, 1:] = cloud_costs
        return out

    def _costs(self, decisions: np.ndarray, own_mu: np.ndarray) -> np.ndarray:
        """Each user's cost at `own_mu`, its co-channel weight on its own channel (load − w)."""
        return np.where(decisions > 0, self._cloud_costs(own_mu), self.local_costs)

    def _improvers(self, costs: np.ndarray, least_load) -> np.ndarray:
        """True where a user at cost `costs` has a strictly improving unilateral move.

        `least_load` is the least channel load per profile (a scalar or a (k, 1)
        column).  A cloud cost never decreases as μ grows, so a user's cheapest
        move is local, its own channel (its cost now) or the least-loaded one.
        On the least-loaded or only channel, that last is its own at μ = load,
        never below staying; every other channel is at least as loaded.
        """
        return np.minimum(self.local_costs, self._cloud_costs(least_load)) < costs

    def _beneficial(self, decisions: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """True where a user offloads and its cost `costs` is at most its local cost."""
        return (decisions > 0) & (costs <= self.local_costs)

    def _best_response(self, decisions: np.ndarray, load: np.ndarray, user: int, current_cost: float) -> tuple:
        """(new_decision, mu_new, mu_old): `user`'s best response to channel loads `load`.

        The first decision within BEST_RESPONSE_ATOL of the cheapest that
        strictly beats `current_cost`, and μ there and at the old decision.
        """
        own = int(decisions[user])
        mu = load.copy()
        if own:
            mu[own - 1] -= self.weights[user]
        costs = [float(self.local_costs[user])] + self._cloud_costs(mu, user).tolist()
        best = min(costs)
        new = next(
            d for d, cost in enumerate(costs) if cost - best <= BEST_RESPONSE_ATOL and cost < current_cost
        )
        at_local = float(self._phi_thresholds[user])
        return new, float(mu[new - 1]) if new else at_local, float(mu[own - 1]) if own else at_local

    def _batch_costs(self, batch: np.ndarray) -> tuple:
        """(costs, least_load) of a checked batch: per-user costs and each profile's least channel load.

        The one own-channel μ gather for batches; with `_improvers` it gives
        the Nash mask, so no (k, n_users, channels+1) block is built.
        """
        loads = self._loads(batch)
        own_mu = np.take_along_axis(loads, np.maximum(batch - 1, 0), axis=1) - self.weights
        return self._costs(batch, own_mu), loads.min(axis=1, keepdims=True)

    def nash_mask(self, profiles) -> np.ndarray:
        """(k,) True where no user has a strictly improving unilateral deviation."""
        costs, least_load = self._batch_costs(self._as_batch(profiles))
        return ~np.any(self._improvers(costs, least_load), axis=1)

    @cached_property
    def _scan(self) -> _ProfileScan:
        """One pass over all (channels+1)^n_users profiles, cached; callers check the profile cap.

        Per chunk, one `_batch_costs` call, `_improvers` and `_beneficial` give
        the Nash mask, the offloader counts of rows where no offloader loses out
        and the row totals, with the bits of the public methods.  Ties go to the
        lexicographically first profile: argmax/argmin and `max`/`min` keep the first.
        """
        equilibria, most, least = [], [], []  # most/least: (profile, value) per chunk
        for chunk in _profile_chunks(self.n_users, self.channels, (self.channels + 1) ** self.n_users):
            costs, least_load = self._batch_costs(chunk)
            nash = ~np.any(self._improvers(costs, least_load), axis=1)
            equilibria.extend(map(tuple, chunk[nash].tolist()))
            offloading = chunk > 0
            feasible = np.all(self._beneficial(chunk, costs) == offloading, axis=1)
            counts, totals = np.where(feasible, offloading.sum(axis=1), -1), costs.sum(axis=1)
            high, low = int(np.argmax(counts)), int(np.argmin(totals))
            most.append((tuple(chunk[high].tolist()), int(counts[high])))
            least.append((tuple(chunk[low].tolist()), float(totals[low])))
        return _ProfileScan(tuple(equilibria), max(most, key=itemgetter(1)), min(least, key=itemgetter(1)))

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
    """Total cost across all users under profile a."""
    # summed in user order, not by numpy's row sum, so the bench's recorded poa digest holds
    return sum(ProfileEvaluator(env, users).overheads([a])[0].tolist())
