"""Slotted simulation of the distributed offloading decision process.

Each slot has two stages.  Measurement: the base-station reports per-channel
loads, from which every user derives the co-channel weight it would face on
each channel (own weight subtracted on its current one).  Update: users with
a strictly improving decision request an update, the coordinator grants it
to exactly one of them at random, and that user adopts its best response.
The run ends on the first slot with no update requests, which is exactly a
Nash equilibrium of the underlying game.

As in the paper's protocol, one user moves per slot, so the simulation keeps
the per-channel loads and potential terms between slots and refreshes only
the two channels a move touches; each user is costed on its own channel and
on the least-loaded one, by the Nash test's rule (`_costs`, `_improvers`); the
granted user's move and both μ of its descent check are the evaluator's
`_best_response`.  A slot then costs O(N + M), and every SlotRecord has the
bits a full rescoring of the profile would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicable
from .scenario import Scenario, _check_seed, scenario_fingerprint

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
    """Complete, replayable record of one simulation run; its result is the last slot."""

    scenario_fingerprint: str
    seed: int
    slots: tuple  # tuple[SlotRecord, ...], ending at a Nash equilibrium

    @property
    def final_profile(self) -> tuple:
        return self.slots[-1].profile

    @property
    def update_slots(self) -> int:
        return len(self.slots) - 1  # every slot but the terminal one moves a user

    @property
    def total_slots(self) -> int:
        return len(self.slots)

    @property
    def beneficial_count(self) -> int:
        return self.slots[-1].beneficial_count

    @property
    def system_overhead(self) -> float:
        return self.slots[-1].system_overhead


def _slot_rng(seed: int, slot: int) -> np.random.Generator:
    """Counter-based stream: the pick at slot t never depends on earlier draws."""
    return np.random.Generator(np.random.Philox(key=seed, counter=slot))


def run_dco(scenario: Scenario, seed: int) -> RunReport:
    """Run the slotted update process from the all-local profile to equilibrium.

    Deterministic given (scenario, seed): the only randomness is the choice
    among simultaneous update requesters, drawn from a stream keyed by
    (seed, slot).  A seed that is not an int in [0, 2**128) raises SchemaError.

    The per-channel loads and potential pair terms are kept between slots and
    recomputed only for the two channels a move touches, so a slot costs
    O(N + M) rather than O(N·M), with the same bits as scoring the whole
    profile afresh.
    """
    _check_seed(seed)
    evaluator = scenario.evaluator
    profile = np.zeros((1, scenario.n_users), dtype=np.int64)
    decisions = profile[0]
    loads, pair_terms = evaluator._channel_terms(profile, range(1, evaluator.channels + 1))
    load = loads[:, 0]  # a view, so it follows every refresh of `loads`
    records = []
    for slot in itertools.count():
        own_mu = load[decisions - 1] - evaluator.weights  # a local user's entry is discarded
        current = evaluator._costs(decisions, own_mu)
        senders = tuple(np.flatnonzero(evaluator._improvers(current, load.min())).tolist())
        pick = new_decision = None
        if senders:
            pick = senders[int(_slot_rng(seed, slot).integers(len(senders)))]
            new_decision, mu_new, mu_old = evaluator._best_response(
                decisions, load, pick, float(current[pick])
            )
        records.append(
            SlotRecord(
                slot=slot,
                profile=tuple(decisions.tolist()),
                potential=float(evaluator._phi(pair_terms, profile)[0]),
                system_overhead=float(current.sum()),
                beneficial_count=int(evaluator._beneficial(decisions, current).sum()),
                overheads=tuple(current.tolist()),
                rtu_senders=senders,
                updater=pick,
                new_decision=new_decision,
            )
        )
        if not senders:
            break
        # the move changes φ by w·(μ_new - μ_old) exactly, and w > 0 (Scenario
        # checks it), so the sign test holds where two rounded φ sums can tie
        if not mu_new < mu_old:
            raise RuntimeError(
                f"potential failed to decrease at slot {slot}: user {pick} moves from "
                f"co-channel weight {mu_old!r} to {mu_new!r}; improvement path broken"
            )
        old_decision = int(decisions[pick])
        decisions[pick] = new_decision
        moved = [d for d in (old_decision, new_decision) if d > 0]
        rows = [d - 1 for d in moved]
        loads[rows], pair_terms[rows] = evaluator._channel_terms(profile, moved)

    return RunReport(
        scenario_fingerprint=scenario_fingerprint(scenario), seed=seed, slots=tuple(records)
    )


def convergence_slot_bound(scenario: Scenario) -> float:
    """Worst-case update-slot count for integer-valued instances.

    Requires every access weight (positive in any Scenario) and every
    beneficiality threshold to be a nonnegative integer; otherwise the
    quadratic guarantee does not apply and BoundInapplicable is raised.
    """
    weights, thresholds = scenario.evaluator.weights.tolist(), scenario.evaluator.thresholds.tolist()
    for name, values in (("weight", weights), ("threshold", thresholds)):
        for i, v in enumerate(values):
            if v < 0 or not float(v).is_integer():
                raise BoundInapplicable(f"user {i} {name} {v!r} is not a nonnegative integer")
    q_min, q_max = min(weights), max(weights)
    t_max = max(thresholds)
    n = len(weights)
    return q_max * q_max / (2.0 * q_min) * n * n + q_max * t_max / q_min * n
