"""Worst-case equilibrium efficiency (price of anarchy) and analytic bounds.

Both ratios come from full Nash enumeration against the exhaustive optimum,
so they are only computed on instances small enough to enumerate; both read
one cached profile scan per scenario (`ProfileEvaluator._scan`), so a
scenario costs one scan and this module scores no profile itself.  The
beneficial ratio counts each equilibrium's offloaders; the overhead ratio
takes the costliest equilibrium's total from the scan.
The analytic bounds attach when their preconditions hold and are reported as
None otherwise; the measured ratio is always reported.  The bounds read their
per-user weights, thresholds and local costs from `Scenario.evaluator`, and
the overhead bound prices its two cloud-cost rows with that evaluator's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import DEFAULT_PROFILE_CAP, Objective, enumerate_nash, exhaustive_optimize
# not called here: bench/spans.py patches both names in this module, and tests/test_package.py checks they exist
from .game import count_beneficial, system_overhead  # noqa: F401
from .game import ProfileEvaluator
from .model import AccessModel, _sum_in_order
from .scenario import Scenario

__all__ = ["PoaReport", "poa_beneficial", "poa_overhead"]

BENEFICIAL_USERS = "beneficial_users"
SYSTEM_OVERHEAD = "system_overhead"


@dataclass(frozen=True)
class PoaReport:
    """Measured worst-equilibrium-to-optimum ratio plus its analytic band."""

    metric: str  # BENEFICIAL_USERS or SYSTEM_OVERHEAD
    worst_equilibrium: float
    optimum: float
    ratio: float
    bound_low: float | None
    bound_high: float | None
    weight_max: float
    weight_min: float
    threshold_max: float | None  # None when some threshold is infinite
    threshold_min: float | None


def _instance_extremes(scenario: Scenario) -> dict:
    """PoaReport's weight and threshold fields; the thresholds are None unless all are finite."""
    weights, thresholds = scenario.evaluator.weights.tolist(), scenario.evaluator.thresholds.tolist()
    finite = all(math.isfinite(t) for t in thresholds)
    return {"weight_max": max(weights), "weight_min": min(weights),
            "threshold_max": max(thresholds) if finite else None,
            "threshold_min": min(thresholds) if finite else None}


def _cloud_cost_extremes(evaluator: ProfileEvaluator) -> np.ndarray:
    """(2, n_users) best- and worst-case cloud cost per user, for the interference bound.

    Row 0: the user has its channel to itself.  Row 1: it faces everyone
    else's weight spread over the M channels, which no equilibrium exceeds.
    """
    weights = evaluator.weights.tolist()
    # everyone else summed in user order, not total - w_n, which rounds differently
    others = [_sum_in_order(w for i, w in enumerate(weights) if i != n) for n in range(len(weights))]
    return evaluator._cloud_costs(np.array([[0.0, o / evaluator.channels] for o in others])).T


def poa_beneficial(scenario: Scenario, profile_cap: int = DEFAULT_PROFILE_CAP) -> PoaReport:
    """Ratio of the fewest offloaders at any equilibrium to the optimum count.

    Always in [0, 1]; defined as 1 when the optimum itself is 0 (nobody can
    ever benefit).  It is 0 only on a tie: when no user's cloud cost alone on
    a channel is below its local cost and some user's equals it, all-local is
    an equilibrium while that user offloading is optimal.  The analytic lower
    bound needs every threshold finite and nonnegative and every weight
    positive, and t_max / q_min must not overflow.
    """
    # at an equilibrium no offloader loses out, so its offloaders are its beneficial users
    worst = min(sum(1 for d in a if d) for a in enumerate_nash(scenario, profile_cap))
    _, optimum = exhaustive_optimize(scenario, Objective.MAX_BENEFICIAL, profile_cap)
    extremes = _instance_extremes(scenario)
    q_max, q_min, t_max, t_min = extremes.values()
    bound_low = None
    # t_min / q_max is never larger than t_max / q_min, so one finiteness check covers both
    if t_min is not None and t_min >= 0.0 and q_min > 0.0 and math.isfinite(t_max / q_min):
        bound_low = math.floor(t_min / q_max) / (math.floor(t_max / q_min) + 1.0)
    return PoaReport(
        metric=BENEFICIAL_USERS,
        worst_equilibrium=float(worst),
        optimum=float(optimum),
        ratio=1.0 if optimum == 0 else worst / optimum,
        bound_low=bound_low,
        bound_high=1.0,
        **extremes,
    )


def poa_overhead(scenario: Scenario, profile_cap: int = DEFAULT_PROFILE_CAP) -> PoaReport:
    """Ratio of the costliest equilibrium's total cost to the minimum total cost.

    At least 1: the scan reads both totals from one user-order sum of the
    same costs, so the optimum is the least of a set the worst equilibrium's
    total belongs to.  The analytic upper bound exists only under the
    interference model.
    """
    _, optimum = exhaustive_optimize(scenario, Objective.MIN_OVERHEAD, profile_cap)  # checks the cap
    worst = scenario.evaluator._scan.worst_overhead
    bound_high = None
    if scenario.channel_env.access is AccessModel.INTERFERENCE:
        k_min, k_max = _cloud_cost_extremes(scenario.evaluator).tolist()
        local = scenario.evaluator.local_costs.tolist()
        numerator = _sum_in_order(min(k_local, k) for k_local, k in zip(local, k_max))
        denominator = _sum_in_order(min(k_local, k) for k_local, k in zip(local, k_min))
        bound_high = numerator / denominator if denominator > 0 else None
    return PoaReport(
        metric=SYSTEM_OVERHEAD,
        worst_equilibrium=worst,
        optimum=optimum,
        ratio=1.0 if worst == optimum else worst / optimum,
        bound_low=1.0,
        bound_high=bound_high,
        **_instance_extremes(scenario),
    )
