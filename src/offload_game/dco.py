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
the two channels a move touches.  Each slot is a one-column batch of the
evaluator's kernel: a user requests an update where its cost (`_costs`) lies
above its `_floor`, the Nash test's rule, and the granted user's move and
both μ of its descent check are `_best_response`.  A floor moves only with
the least load, so the run keeps the floors and the sorted requesters, and
while the least load stays re-tests only the users whose cost moved.  A slot
then costs O(N + M), and every SlotRecord has the bits a full rescoring of
the profile would give.  Records share what did not change: an entry the
slot left alone, to the bit, is the very object of the record before, and
the report lists the costs each slot renewed (`RunReport`).
A report is its seed and slots, compares by them alone, and names no scenario.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BoundInapplicable
from .model import LOCAL
from .scenario import Scenario, _check_seed

__all__ = ["SlotRecord", "RunReport", "run_dco", "convergence_slot_bound"]


@dataclass(frozen=True)
class SlotRecord:
    """State observed during one decision slot, before any update applies.

    `profile` holds Python ints and `overheads` Python floats; an entry equal
    to the last slot's, bit for bit, is the same object as that slot's entry,
    as each user index in the sorted `rtu_senders` is.  `profile` differs from
    the last slot's only at that slot's `updater`.
    """

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
    """One run's record, replayable from its scenario and `seed`; its result is the last slot.

    `run_dco` sets the private `_repriced` on the reports it makes: per slot,
    the users whose `overheads` entry is another object than the slot before's
    (None on the first slot), the one change the slots do not name.  Any
    other report, one built by hand or by `dataclasses.replace`, has it
    empty.  It is not a field: equality, hashing, `repr` and `fields` see
    only `seed` and `slots`.
    """

    seed: int
    slots: tuple  # tuple[SlotRecord, ...], ending at a Nash equilibrium
    _repriced = ()  # not annotated, so no field

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


def _slot_picker(seed: int):
    """pick(slot, n): a uniform draw from range(n) that never depends on earlier draws.

    One Philox keyed by the seed serves the run.  Before each pick its
    counter is set to (slot, 0, 0, 0) with an empty buffer, the state of a
    fresh `Philox(key=seed, counter=slot)`, which costs several times as
    much to build.
    """
    bit_generator = np.random.Philox(key=seed)
    rng, state = np.random.Generator(bit_generator), bit_generator.state  # fresh: buffer_pos 4, has_uint32 0

    def pick(slot: int, n: int) -> int:
        state["state"]["counter"][0] = slot
        bit_generator.state = state
        return int(rng.integers(n))

    return pick


def run_dco(scenario: Scenario, seed: int) -> RunReport:
    """Run the slotted update process from the all-local profile to equilibrium.

    Deterministic given (scenario, seed): the only randomness is the choice
    among simultaneous update requesters, drawn from a stream keyed by
    (seed, slot).  A seed that is not an int in [0, 2**128) raises SchemaError.

    The per-channel loads and potential pair terms are kept between slots and
    recomputed only for the two channels a move touches, so a slot costs
    O(N + M) rather than O(N·M), with the same bits as scoring the whole
    profile afresh; its total cost is the evaluator's `_totals`.
    """
    _check_seed(seed)
    evaluator, pick_from = scenario.evaluator, _slot_picker(seed)
    profile = np.zeros((1, scenario.n_users), dtype=np.int64)
    # the slot is a one-column batch, whose flat index of loads[d, 0] is d
    decisions = profile.T
    # `_loads`' layout, indexed by decision; all-local, no channel carries a user and every pair term is 0
    loads = evaluator._loads((), 1)
    pair_terms = np.zeros_like(loads)  # row 0 (local) stays 0
    # the records' decisions and costs as Python objects, renewed only where a move or a cost's bits
    # change; per slot, the costs renewed since the slot before (None on the first: all are new)
    entries, kept, last = [0] * scenario.n_users, [None] * scenario.n_users, None
    repriced, records = [None], []
    # the sorted requesters, one int object per user, each user's `_floor` and whether it lies below
    # its cost: all rebuilt only when the least load moves
    ids, least = np.arange(scenario.n_users).astype(object), None
    for slot in itertools.count():
        local = decisions == LOCAL
        costs = evaluator._costs(decisions, local, loads)
        bits = costs[:, 0].view(np.int64)
        changed = (bits != last).nonzero()[0].tolist() if slot else range(len(kept))
        for i in changed:
            kept[i] = costs.item(i)
        if slot:
            repriced.append(changed)
        last = bits
        if least != (least := loads[1:].min()):  # every user's floor moved with it
            floor = evaluator._floor(loads)[:, 0]
            requesting = floor < costs[:, 0]
            senders = ids[requesting].tolist()
        else:  # only a user whose cost moved can join or leave
            for i in [i for i in changed if (floor.item(i) < kept[i]) != requesting.item(i)]:
                requesting[i] = not requesting[i]
                if requesting[i]:
                    bisect.insort(senders, ids[i])
                else:
                    del senders[bisect.bisect_left(senders, i)]
        pick = new_decision = None
        if senders:
            pick = senders[pick_from(slot, len(senders))]
            old_decision = entries[pick]
            new_decision, mu_new, mu_old = evaluator._best_response(
                old_decision, loads[:, 0], pick, kept[pick]
            )
        records.append(
            SlotRecord(
                slot=slot,
                profile=tuple(entries),
                potential=float(evaluator._phi(pair_terms[1:], profile)[0]),
                system_overhead=float(evaluator._totals(costs)[0]),
                beneficial_count=int(evaluator._beneficial(local, costs).sum()),
                overheads=tuple(kept),
                rtu_senders=tuple(senders),
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
        profile[0, pick] = entries[pick] = new_decision
        channels = [d for d in (old_decision, new_decision) if d > 0]
        loads[channels], pair_terms[channels] = evaluator._channel_terms(profile, channels)

    report = RunReport(seed=seed, slots=tuple(records))
    object.__setattr__(report, "_repriced", repriced)
    return report


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
