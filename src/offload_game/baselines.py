"""Centralized reference policies and optimizers.

Two exhaustive oracles (maximize the number of users that gain from
offloading; minimize total cost), full Nash-set enumeration, a categorical
cross-entropy search for instances too large to enumerate, and the two naive
policies everything is compared against.  Nash enumeration and both exhaustive
objectives read one cached profile scan per scenario (`ProfileEvaluator._scan`),
which scores one profile per channel relabelling, the canonical one, and
expands the canonical equilibria into the full Nash set; the same scan gives
`metrics` the costliest equilibrium's total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InstanceTooLarge
from .model import _check_count, _check_real
from .scenario import Scenario, _check_seed

__all__ = [
    "Objective",
    "CrossEntropyParams",
    "all_local",
    "all_cloud_random",
    "exhaustive_optimize",
    "enumerate_nash",
    "cross_entropy_optimize",
]

DEFAULT_PROFILE_CAP = 10**7
DEGENERATE_TOL = 1e-3  # CE stops once every row has mass 1-tol on one decision


class Objective(Enum):
    MAX_BENEFICIAL = "max_beneficial"  # most offloaders, none of them losing out
    MIN_OVERHEAD = "min_overhead"  # least total cost, unconstrained


def all_local(scenario: Scenario) -> tuple:
    """Everyone computes on-device; the risk-averse reference point."""
    return (0,) * scenario.n_users


def all_cloud_random(scenario: Scenario, seed: int) -> tuple:
    """Everyone offloads via an independently, uniformly drawn channel."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    return tuple(int(c) for c in rng.integers(1, scenario.channels + 1, scenario.n_users))


def _check_cap(scenario: Scenario, profile_cap: int) -> None:
    """InstanceTooLarge past the cap; ValueError for a cap that is not an int >= 1."""
    _check_count("profile_cap", profile_cap)
    if profile_cap < 1:
        raise ValueError(f"profile_cap must be >= 1, got {profile_cap}")
    # the power is named, not printed: it can have more digits than str() converts
    if (scenario.channels + 1) ** scenario.n_users > profile_cap:
        raise InstanceTooLarge(f"{scenario.channels + 1}^{scenario.n_users} profiles exceed the cap {profile_cap}")


def _check_objective(objective) -> None:
    if not isinstance(objective, Objective):
        raise ValueError(f"objective must be an Objective, got {objective!r}")


def exhaustive_optimize(
    scenario: Scenario, objective: Objective, profile_cap: int = DEFAULT_PROFILE_CAP
) -> tuple:
    """The best of all profiles; returns (best profile, objective value).

    MAX_BENEFICIAL only considers profiles where every offloader gains;
    MIN_OVERHEAD is unconstrained.  Ties resolve to the lexicographically
    smallest profile, which the scan order provides for free.  The cap
    counts all (channels+1)^n_users profiles, not the canonical ones scanned.
    An objective that is not an Objective, or a cap that is not an int >= 1,
    raises ValueError.
    """
    _check_objective(objective)
    _check_cap(scenario, profile_cap)
    return getattr(scenario.evaluator._scan, objective.value)  # fields named by objective


def enumerate_nash(scenario: Scenario, profile_cap: int = DEFAULT_PROFILE_CAP) -> list:
    """All Nash equilibria, in lexicographic order, never empty.  A cap not an int >= 1 raises ValueError."""
    _check_cap(scenario, profile_cap)
    return list(scenario.evaluator._scan.equilibria)


@dataclass(frozen=True)
class CrossEntropyParams:
    """Budget and update rule of the cross-entropy search."""

    samples: int = 200  # profiles drawn per iteration
    elite_fraction: float = 0.1  # top fraction refit into the sampling table
    smoothing: float = 0.7  # new table = smoothing*elite_freq + (1-smoothing)*old
    iterations: int = 100

    def __post_init__(self):
        _check_count("samples", self.samples)
        _check_count("iterations", self.iterations)
        _check_real("elite_fraction", self.elite_fraction)
        _check_real("smoothing", self.smoothing)
        if self.samples < 1 or self.iterations < 1:
            raise ValueError("samples and iterations must be >= 1")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise ValueError("elite fraction must lie in (0, 1]")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must lie in (0, 1]")


def cross_entropy_optimize(
    scenario: Scenario,
    objective: Objective,
    params: CrossEntropyParams | None = None,
    seed: int = 0,
) -> tuple:
    """Randomized search over profiles; returns (best profile ever seen, value).

    Maintains one categorical distribution per user over {local, ch 1..M},
    initially uniform.  Each iteration samples profiles, repairs them by
    sending every losing offloader local, scores the repaired profiles,
    refits the elite fraction and smooths the table.  Repair keeps
    MAX_BENEFICIAL samples feasible; for MIN_OVERHEAD it is a strict
    point-wise improvement (a losing offloader's own cost drops and its
    co-channel users only gain), so no optimum is ever repaired away.
    Deterministic per (scenario, params, seed); a seed that is not an int in
    [0, 2**128) raises SchemaError, an objective that is not an Objective
    or params that are neither None nor a CrossEntropyParams ValueError.
    """
    _check_objective(objective)
    _check_seed(seed)
    params = CrossEntropyParams() if params is None else params
    if not isinstance(params, CrossEntropyParams):
        raise ValueError(f"params must be a CrossEntropyParams, got {params!r}")
    evaluator = scenario.evaluator
    n_users, n_decisions = scenario.n_users, scenario.channels + 1
    maximize = objective is Objective.MAX_BENEFICIAL
    rng = np.random.default_rng(seed)
    table = np.full((n_users, n_decisions), 1.0 / n_decisions)
    elite_count = math.ceil(params.elite_fraction * params.samples)
    best_profile = None
    best_key = math.inf
    for _ in range(params.iterations):
        draws = rng.random((params.samples, n_users))
        cumulative = np.cumsum(table, axis=1)
        # inverse-CDF draw; leaving out the last column caps a draw above a
        # rounded-down total at the last decision
        profiles = sum(draws >= cumulative[:, d] for d in range(n_decisions - 1))
        candidates = evaluator.repair_to_beneficial(profiles)
        if maximize:
            sort_key = -(candidates > 0).sum(axis=1)
        else:
            sort_key = evaluator.system_overheads(candidates)
        # primary key: score; ties: lexicographically smallest profile first
        order = np.lexsort(
            tuple(candidates[:, c] for c in range(n_users - 1, -1, -1)) + (sort_key,)
        )
        top = order[0]
        if sort_key[top] < best_key:
            best_key = sort_key[top]
            best_profile = candidates[top].copy()
        elite = candidates[order[:elite_count]]
        frequencies = (elite[:, :, np.newaxis] == np.arange(n_decisions)).mean(axis=0)
        table = params.smoothing * frequencies + (1.0 - params.smoothing) * table
        if np.all(table.max(axis=1) >= 1.0 - DEGENERATE_TOL):
            break
    profile = tuple(int(d) for d in best_profile)
    return profile, (int(-best_key) if maximize else float(best_key))
