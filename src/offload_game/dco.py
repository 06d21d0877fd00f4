"""Slotted simulation of the distributed offloading decision process.

Each slot has two stages.  Measurement: the base-station reports per-channel
loads, from which every user derives the co-channel weight it would face on
each channel (own weight subtracted on its current one).  Update: users with
a strictly improving decision request an update, the coordinator grants it
to exactly one of them at random, and that user adopts its best response.
The run ends on the first slot with no update requests, which is exactly a
Nash equilibrium of the underlying game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicable
from .game import ProfileEvaluator, _best_responses
from .model import NEVER_BENEFICIAL
from .scenario import Scenario, scenario_fingerprint

__all__ = ["SlotRecord", "RunReport", "run_dco", "convergence_slot_bound"]


@dataclass(frozen=True)
class SlotRecord:
    """State observed during one decision slot, before any update applies."""

    slot: int
    profile: tuple  # decisions at slot start
    potential: float
    system_overhead: float
    beneficial_count: int
    overheads: tuple  # per-user cost at slot start
    rtu_senders: tuple  # users that requested an update this slot
    updater: int | None  # user granted the update, None on the terminal slot
    new_decision: int | None


@dataclass(frozen=True)
class RunReport:
    """Complete, replayable record of one simulation run."""

    scenario_fingerprint: str
    seed: int
    slots: tuple  # tuple[SlotRecord, ...]
    final_profile: tuple
    update_slots: int  # slots in which a decision changed
    total_slots: int  # update slots plus the terminal empty slot
    nash_terminal: bool
    beneficial_count: int
    system_overhead: float


def _slot_rng(seed: int, slot: int) -> np.random.Generator:
    """Counter-based stream: the pick at slot t never depends on earlier draws."""
    return np.random.Generator(np.random.Philox(key=seed, counter=slot))


def run_dco(scenario: Scenario, seed: int) -> RunReport:
    """Run the slotted update process from the all-local profile to equilibrium.

    Deterministic given (scenario, seed): the only randomness is the choice
    among simultaneous update requesters, drawn from a stream keyed by
    (seed, slot).
    """
    n_users = scenario.n_users
    evaluator = ProfileEvaluator(scenario.channel_env, scenario.user_profiles)
    profile = np.zeros((1, n_users), dtype=np.int64)
    potential_now = float(evaluator.potential(profile)[0])
    records = []
    updates = 0
    slot = 0
    while True:
        candidates = evaluator.candidate_overheads(profile)[0]
        current = candidates[np.arange(n_users), profile[0]]
        best = candidates.min(axis=1)
        senders = tuple(int(n) for n in np.flatnonzero(best < current))
        pick = new_decision = None
        if senders:
            pick = senders[int(_slot_rng(seed, slot).integers(len(senders)))]
            new_decision = _best_responses(candidates[pick].tolist(), float(current[pick]))[0]
        records.append(
            SlotRecord(
                slot=slot,
                profile=tuple(int(d) for d in profile[0]),
                potential=potential_now,
                system_overhead=float(current.sum()),
                beneficial_count=int(evaluator.beneficial_mask(profile, current).sum()),
                overheads=tuple(float(z) for z in current),
                rtu_senders=senders,
                updater=pick,
                new_decision=new_decision,
            )
        )
        if not senders:
            break
        profile[0, pick] = new_decision
        next_potential = float(evaluator.potential(profile)[0])
        if not next_potential < potential_now:
            raise RuntimeError(
                f"potential failed to decrease at slot {slot} "
                f"({potential_now!r} -> {next_potential!r}); improvement path broken"
            )
        potential_now = next_potential
        updates += 1
        slot += 1

    final = tuple(int(d) for d in profile[0])
    return RunReport(
        scenario_fingerprint=scenario_fingerprint(scenario),
        seed=seed,
        slots=tuple(records),
        final_profile=final,
        update_slots=updates,
        total_slots=updates + 1,
        nash_terminal=True,  # loop exits only when no user can improve
        beneficial_count=records[-1].beneficial_count,
        system_overhead=records[-1].system_overhead,
    )


def convergence_slot_bound(scenario: Scenario) -> float:
    """Worst-case update-slot count for integer-valued instances.

    Requires every access weight and every beneficiality threshold to be a
    nonnegative integer (with positive minimum weight); otherwise the
    quadratic guarantee does not apply and BoundInapplicable is raised.
    """
    evaluator = ProfileEvaluator(scenario.channel_env, scenario.user_profiles)
    weights, thresholds = evaluator.weights.tolist(), evaluator.thresholds
    for i, t in enumerate(thresholds):
        if t is NEVER_BENEFICIAL:
            raise BoundInapplicable(f"user {i} can never benefit; no integer threshold")
    for name, values in (("weight", weights), ("threshold", thresholds)):
        for i, v in enumerate(values):
            if v < 0 or not float(v).is_integer():
                raise BoundInapplicable(f"user {i} {name} {v!r} is not a nonnegative integer")
    q_min = min(weights)
    if q_min <= 0:
        raise BoundInapplicable("minimum access weight must be positive")
    q_max = max(weights)
    t_max = max(thresholds)
    n = len(weights)
    return q_max * q_max / (2.0 * q_min) * n * n + q_max * t_max / q_min * n
