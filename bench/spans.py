"""Span recording for the traced benchmark run.

The benchmark's own files wrap the library's public functions and the
`ProfileEvaluator` methods, patching each name in every module that looks it
up, and record one span (label, layer, start, end, parent) per call.  Spans
stay in memory; `layer_metrics` turns them into per-layer self times and
work counts.  Nothing here changes what the wrapped calls compute.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

def _rows(result) -> dict:
    return {"rows": len(result)}


def _cells(result) -> dict:
    return {"rows": len(result), "cells": int(result.size)}


def _run_work(report) -> dict:
    return {
        "slots": report.total_slots,
        "requests": sum(len(slot.rtu_senders) for slot in report.slots),
    }


def _equilibria(found) -> dict:
    return {"equilibria": len(found)}


# (layer, module looked up in, attribute, work counter).  A function imported
# into several modules is patched in each of them, so every call site records.
FUNCTIONS = [
    ("scenario.generate", "offload_game.scenario", "generate", None),
    ("scenario.generate", "offload_game.cli", "generate", None),
    ("scenario.io", "offload_game.scenario", "read_scenario", None),
    ("scenario.io", "offload_game.scenario", "write_scenario", None),
    ("scenario.io", "offload_game.cli", "read_scenario", None),
    ("scenario.io", "offload_game.cli", "write_scenario", None),
    ("game.scalar", "offload_game.game", "count_beneficial", None),
    ("game.scalar", "offload_game.game", "system_overhead", None),
    ("game.scalar", "offload_game.game", "is_nash", None),
    ("game.scalar", "offload_game.metrics", "count_beneficial", None),
    ("game.scalar", "offload_game.metrics", "system_overhead", None),
    ("dco.run", "offload_game.dco", "run_dco", _run_work),
    ("dco.run", "offload_game.cli", "run_dco", _run_work),
    ("baselines.enumerate_nash", "offload_game.baselines", "enumerate_nash", _equilibria),
    ("baselines.enumerate_nash", "offload_game.metrics", "enumerate_nash", _equilibria),
    ("baselines.exhaustive", "offload_game.baselines", "exhaustive_optimize", None),
    ("baselines.exhaustive", "offload_game.metrics", "exhaustive_optimize", None),
    ("baselines.ce", "offload_game.baselines", "cross_entropy_optimize", None),
    ("baselines.ce", "offload_game.cli", "cross_entropy_optimize", None),
    ("metrics.poa", "offload_game.metrics", "poa_beneficial", None),
    ("metrics.poa", "offload_game.metrics", "poa_overhead", None),
    ("metrics.poa", "offload_game.cli", "poa_beneficial", None),
    ("metrics.poa", "offload_game.cli", "poa_overhead", None),
    ("cli.report_document", "offload_game.cli", "report_document", None),
    ("cli.write", "offload_game.cli", "_write_json", None),
    ("cli.write", "offload_game.cli", "_write_csv", None),
    ("cli.write", "offload_game.cli", "_write_config", None),
    ("cli.write", "offload_game.cli", "write_slots_csv", None),
]

# (layer, ProfileEvaluator method, work counter)
METHODS = [
    ("game.evaluator_init", "__init__", None),
    ("game.candidate_overheads", "candidate_overheads", _cells),
    ("game.potential", "potential", _rows),
    ("game.overheads", "overheads", _rows),
    ("game.overheads", "system_overheads", _rows),
    ("game.overheads", "beneficial_mask", _rows),
    ("game.overheads", "beneficial_counts", _rows),
    ("game.overheads", "repair_to_beneficial", _rows),
]


@dataclass
class Span:
    label: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: dict = field(default_factory=dict)


class Recorder:
    """Collects the spans of one traced pass; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, label: str, layer: str, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(label, layer, time.perf_counter(), parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(result)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def patched(recorder: Recorder):
    """Route every call in FUNCTIONS and METHODS through the recorder.

    Names a module does not have are skipped and yielded, so a renamed helper
    shows up as a missing layer rather than a crash.  Originals are restored
    on exit.
    """
    saved, missing = [], []
    cls = importlib.import_module("offload_game.game").ProfileEvaluator
    targets = [(layer, importlib.import_module(mod), name, work) for layer, mod, name, work in FUNCTIONS]
    targets += [(layer, cls, name, work) for layer, name, work in METHODS]
    try:
        for layer, owner, name, work in targets:
            original = owner.__dict__.get(name)
            if original is None:
                missing.append(f"{owner.__name__}.{name}")
                continue
            label = f"{owner.__name__}.{name}"
            saved.append((owner, name, original))
            setattr(owner, name, recorder.wrap(label, layer, original, work))
        yield missing
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            low, high = max(child.start, reach), min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer calls, self times (ms) and work counts of one traced pass.

    Every layer gets `.calls` and `.self_ms`; BENCHMARK.json picks the ones
    it reports.
    """
    calls = Counter()
    self_ms = defaultdict(float)
    total_ms = defaultdict(float)
    work = Counter()
    for span, own in zip(spans, self_times(spans)):
        calls[span.layer] += 1
        self_ms[span.layer] += own * 1e3
        total_ms[span.layer] += (span.end - span.start) * 1e3
        work.update(span.work)
        parent = spans[span.parent].layer if span.parent is not None else None
        if parent in ("baselines.enumerate_nash", "baselines.exhaustive"):
            work["profiles_scanned"] += span.work.get("rows", 0)
        if parent == "baselines.ce" and span.label.endswith(".repair_to_beneficial"):
            work["ce_iterations"] += 1
    scan_ms = total_ms["baselines.enumerate_nash"] + total_ms["baselines.exhaustive"]
    out = {
        "dco.slots": work["slots"],
        "dco.update_requests": work["requests"],
        "dco.ms_per_slot": total_ms["dco.run"] / work["slots"] if work["slots"] else 0.0,
        "game.candidate_overheads.cells": work["cells"],
        "baselines.profiles_scanned": work["profiles_scanned"],
        "baselines.profiles_per_s": (
            work["profiles_scanned"] / (scan_ms / 1e3) if scan_ms else 0.0
        ),
        "baselines.ce.iterations": work["ce_iterations"],
        "baselines.ce.ms_per_iteration": (
            total_ms["baselines.ce"] / work["ce_iterations"] if work["ce_iterations"] else 0.0
        ),
        "metrics.equilibria": work["equilibria"],
    }
    for layer in {layer for layer, *_ in FUNCTIONS + METHODS}:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_ms"] = self_ms[layer]
    return out


COUNT_SUFFIXES = (".calls", ".cells", ".slots", ".update_requests", ".profiles_scanned",
                  ".iterations", ".equilibria")


def counts(metrics: dict) -> dict:
    """The metrics that count work, which must repeat exactly between passes."""
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
