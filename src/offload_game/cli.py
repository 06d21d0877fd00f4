"""Command-line harness: single traces, seed sweeps, oracle comparisons, PoA studies.

Every invocation writes into one output directory: the scenario(s) involved,
a `config.json` with the tool version and every option the command read, and
CSV/JSON artifacts whose numbers are recomputable from (scenario, seed).  CSV
files use a header row, '.' decimals and '\n' line endings.  A trace's report.json
names its scenario by `scenario_fingerprint`, computed once as the file is written.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from enum import Enum
from pathlib import Path

from ._version import __version__
from .baselines import (
    DEFAULT_PROFILE_CAP,
    CrossEntropyParams,
    Objective,
    _check_cap,
    all_cloud_random,
    cross_entropy_optimize,
)
from .dco import RunReport, SlotRecord, run_dco
from .errors import InstanceTooLarge, OffloadGameError, SchemaError
from .metrics import poa_beneficial, poa_overhead
from .model import _sum_in_order
from .scenario import (SEED_LIMIT, GenParams, Scenario, generate, read_scenario,
                       scenario_fingerprint, write_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOO_LARGE = 3

TOOL_META = {"tool": "offload-game", "version": __version__}  # heads config.json and report.json


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def _int_range(text: str) -> tuple:
    """Parse 'A..B' (inclusive) or a single integer into (lo, hi), 1 <= lo <= hi."""
    if ".." in text:
        lo, hi = (int(part) for part in text.split("..", 1))
    else:
        lo = hi = int(text)
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected LO..HI with 1 <= LO <= HI, got {text!r}")
    return lo, hi


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2**128), got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _add_fields(parser: argparse.ArgumentParser, cls, prefix: str = "", omit=()):
    """One flag per field of dataclass `cls`, in field order: --<prefix><name> for <name>."""
    for f in fields(cls):
        if f.name in omit:
            continue
        flag = "--" + (prefix + f.name).replace("_", "-")
        if isinstance(f.default, Enum):
            choices = [e.value for e in type(f.default)]
            parser.add_argument(flag, choices=choices, default=f.default.value)
        elif isinstance(f.default, tuple):
            parser.add_argument(flag, type=_float_list, default=f.default)
        else:
            parser.add_argument(flag, type=type(f.default), default=f.default)


def _from_fields(args: argparse.Namespace, cls, label: str, prefix: str = "", **set_by_command):
    """`cls` built from the flags _add_fields registered plus the fields the command sets."""
    values = {}
    for f in fields(cls):
        if hasattr(args, prefix + f.name):
            value = getattr(args, prefix + f.name)
            values[f.name] = type(f.default)(value) if isinstance(f.default, Enum) else value
    try:
        return cls(**values, **set_by_command)
    except ValueError as exc:
        raise SchemaError(label, str(exc)) from exc


def _add_cell_flags(parser: argparse.ArgumentParser, seeds: int, profile_cap: bool):
    """Flags shared by the seed-cell commands (sweep, oracle, poa), in config.json order."""
    parser.add_argument("--seeds", type=_positive_int, default=seeds)
    parser.add_argument("--seed-base", type=_seed, default=0)
    if profile_cap:
        parser.add_argument("--profile-cap", type=_positive_int, default=DEFAULT_PROFILE_CAP)
    parser.add_argument("--workers", type=_positive_int, default=1)
    parser.add_argument("--out", type=Path, default=None)


def _seed_range(args: argparse.Namespace) -> range:
    seeds = range(args.seed_base, args.seed_base + args.seeds)
    if seeds[-1] >= SEED_LIMIT:
        raise SchemaError("--seed-base", f"seeds {seeds.start}..{seeds[-1]} run past 2**128 - 1")
    return seeds


def _worker_count(requested: int, cells: int) -> int:
    """Worker processes for a cell map: never more than the CPUs this process may run on, or the cells."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(requested, cpus, cells)


def _map_cells(func, cells, requested_workers: int) -> list:
    workers = _worker_count(requested_workers, len(cells))
    if workers <= 1:
        return [func(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, cells, chunksize=max(1, len(cells) // (workers * 4))))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list):
    """CSV of dict rows; the header is the key order, which every row shares."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(["" if v is None else v for v in row.values()])


def _write_config(out: Path, args: argparse.Namespace):
    options = {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()}
    del options["func"]
    _write_json(out / "config.json", {**TOOL_META, "command": args.command, "options": options})


def report_document(report: RunReport, scenario: Scenario) -> dict:
    """JSON form of `report`, a run on `scenario`; each slot is its SlotRecord, in field order."""
    return {
        "meta": {
            **TOOL_META,
            "seed": report.seed,
            "scenario_fingerprint": scenario_fingerprint(scenario),
            "config": {},
        },
        "result": {
            "final_profile": report.final_profile,
            "update_slots": report.update_slots,
            "total_slots": report.total_slots,
            "is_nash": True,  # run_dco stops only at a Nash equilibrium
            "beneficial_count": report.beneficial_count,
            "system_overhead": report.system_overhead,
        },
        "slots": [vars(rec) for rec in report.slots],
    }


_FIELD, _ENTRY = "\n      ", "\n        "  # a slot's fields and a tuple field's entries in indent=2 text
_SEP = "," + _ENTRY
_BLOCK = 32  # entries per cached text block of a tuple column


def _texts(values) -> list:
    """The JSON text of each value, from one C-encoder call; each must be a JSON number, bool or None."""
    return json.dumps(values)[1:-1].split(", ")


class _Column:
    """One tuple field of SlotRecord across slots, as its entries' texts and their joins in blocks
    of `_BLOCK`.  A slot re-encodes only the entries `renewals` names for it (all of them for None)
    and re-joins only the blocks those entries fall in."""

    def __init__(self, renewals):
        self.renewals, self.texts, self.blocks = iter(renewals), [], []

    def encode(self, values) -> str:
        renewed = next(self.renewals)
        if not values:
            return "[]"
        if renewed is None:
            self.texts = _texts(values)
            self.blocks = [_SEP.join(self.texts[b:b + _BLOCK]) for b in range(0, len(values), _BLOCK)]
        elif renewed:
            for i, text in zip(renewed, _texts([values[i] for i in renewed])):
                self.texts[i] = text
            for b in {i // _BLOCK for i in renewed}:
                self.blocks[b] = _SEP.join(self.texts[b * _BLOCK:(b + 1) * _BLOCK])
        return f"[{_ENTRY}{_SEP.join(self.blocks)}{_FIELD}]"


def write_report(path: Path, report: RunReport, scenario: Scenario):
    """`_write_json(path, report_document(report, scenario))`, streamed slot by slot with no
    report-sized string.  For a report `run_dco` made (see `RunReport`) a slot re-encodes only the
    costs it renewed and the decision of the slot before's updater, and joins its requesters from
    the user indices' texts, made once; any other report has its tuple fields re-encoded whole on
    every slot.  A slot's other fields take one C-encoder call together.  The fields must hold
    JSON numbers, bools and None, or tuples of them, as SlotRecord declares."""
    head = report_document(report, scenario)
    del head["slots"]
    slots = report.slots
    encoders = {}
    if report._repriced:
        users = _texts(list(range(len(slots[0].profile))))
        encoders = {
            "profile": _Column([None, *([rec.updater] for rec in slots[:-1])]).encode,
            "overheads": _Column(report._repriced).encode,
            "rtu_senders": lambda senders: f"[{_ENTRY}{_SEP.join([users[i] for i in senders])}{_FIELD}]"
            if senders else "[]",
        }
    # (name, key text, encoder) per field in order: a field holding a tuple has an encoder, a scalar None
    layout = [(f.name, ("," if k else "") + _FIELD + json.dumps(f.name) + ": ",
               encoders.get(f.name) or _Column(itertools.repeat(None)).encode
               if isinstance(getattr(slots[0], f.name), tuple) else None)
              for k, f in enumerate(fields(SlotRecord))]
    scalars = [name for name, _, encode in layout if encode is None]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "slots": [')
        for i, rec in enumerate(slots):
            texts = iter(_texts([getattr(rec, name) for name in scalars]))
            parts = [",\n    {" if i else "\n    {"]
            for name, key, encode in layout:
                parts += key, next(texts) if encode is None else encode(getattr(rec, name))
            parts.append("\n    }")
            fh.write("".join(parts))
        fh.write("\n  ]\n}\n")


def write_slots_csv(path: Path, report: RunReport):
    _write_csv(path, [
        {"slot": rec.slot, "phi": rec.potential, "system_overhead": rec.system_overhead,
         "beneficial_count": rec.beneficial_count, "updater": rec.updater,
         "new_decision": rec.new_decision}
        for rec in report.slots
    ])


def cmd_gen(args: argparse.Namespace, out: Path):
    scenario = generate(_from_fields(args, GenParams, "generator flags"), args.seed)
    write_scenario(out / "scenario.json", scenario)
    print(f"wrote {out / 'scenario.json'}")


def cmd_trace(args: argparse.Namespace, out: Path):
    scenario = read_scenario(args.scenario)
    report = run_dco(scenario, args.seed)
    write_scenario(out / "scenario.json", scenario)
    write_report(out / "report.json", report, scenario)
    write_slots_csv(out / "slots.csv", report)
    print(
        f"converged after {report.update_slots} update slots; "
        f"{report.beneficial_count} beneficial offloaders, "
        f"system overhead {report.system_overhead:.6g}"
    )


def _sweep_cell(cell) -> dict:
    """One runs.csv row: the scenario from `gen_seed`; DCO and the random baseline from `run_seed`."""
    params, gen_seed, run_seed = cell
    scenario = generate(params, gen_seed)
    evaluator = scenario.evaluator
    report = run_dco(scenario, run_seed)
    random_profile = all_cloud_random(scenario, run_seed)
    return {
        "n": params.n_users,
        "seed": gen_seed,
        "dco_beneficial": report.beneficial_count,
        "dco_system_overhead": report.system_overhead,
        "dco_update_slots": report.update_slots,
        "all_local_overhead": report.slots[0].system_overhead,  # the run starts all-local
        "all_cloud_beneficial": int(evaluator.beneficial_counts([random_profile])[0]),
        "all_cloud_overhead": float(evaluator.system_overheads([random_profile])[0]),
    }


def _sweep_summary(rows: list) -> list:
    """Per-size means of every per-run column after (n, seed)."""
    summary = []
    for n in dict.fromkeys(row["n"] for row in rows):
        group = [row for row in rows if row["n"] == n]
        means = {f"mean_{key}": _sum_in_order(row[key] for row in group) / len(group)
                 for key in list(group[0])[2:]}
        summary.append({"n": n, "seeds": len(group), **means})
    return summary


def _run_cells(args: argparse.Namespace, out: Path, cell_fn, cells: list, summarize=None):
    """The seed-cell driver: map cell_fn over cells in order, then write the CSVs.

    With `summarize`, the per-cell rows go to runs.csv and summarize(rows) to
    summary.csv; without it, the per-cell rows are the summary.
    """
    rows = _map_cells(cell_fn, cells, args.workers)
    if summarize is not None:
        _write_csv(out / "runs.csv", rows)
    _write_csv(out / "summary.csv", summarize(rows) if summarize else rows)
    print(f"wrote {out / 'summary.csv'} ({len(rows)} {'runs' if summarize else 'instances'})")


def cmd_sweep(args: argparse.Namespace, out: Path):
    lo, hi = args.n
    size_params = [
        _from_fields(args, GenParams, "generator flags", n_users=n)
        for n in range(lo, hi + 1, args.step)
    ]
    cells = [(params, seed, seed) for params in size_params for seed in _seed_range(args)]
    _run_cells(args, out, _sweep_cell, cells, _sweep_summary)


def _oracle_cell(cell) -> dict:
    params, seed, profile_cap, ce_params = cell
    scenario = generate(params, seed)
    report = run_dco(scenario, seed)
    beneficial = poa_beneficial(scenario, profile_cap)
    overhead = poa_overhead(scenario, profile_cap)
    _, ce_max = cross_entropy_optimize(scenario, Objective.MAX_BENEFICIAL, ce_params, seed)
    ce_profile, _ = cross_entropy_optimize(scenario, Objective.MIN_OVERHEAD, ce_params, seed)
    # in user order, as `opt_overhead` is: slot and CE totals are numpy row sums, which can round below it
    dco_total, ce_total = (_sum_in_order(scenario.evaluator.overheads([a])[0].tolist())
                           for a in (report.final_profile, ce_profile))
    return {
        "seed": seed,
        "n": params.n_users,
        "m": params.channels,
        "dco_beneficial": report.beneficial_count,
        "dco_overhead": dco_total,
        "dco_update_slots": report.update_slots,
        "opt_beneficial": int(beneficial.optimum),
        "opt_overhead": overhead.optimum,
        "ce_beneficial": ce_max,
        "ce_overhead": ce_total,
        "poa_beneficial": beneficial.ratio,
        "poa_overhead": overhead.ratio,
    }


def cmd_oracle(args: argparse.Namespace, out: Path):
    params = _from_fields(args, GenParams, "generator flags", n_users=args.n, channels=args.m)
    _check_cap(params, args.profile_cap)
    ce_params = _from_fields(args, CrossEntropyParams, "ce flags", prefix="ce_")
    cells = [(params, seed, args.profile_cap, ce_params) for seed in _seed_range(args)]
    _run_cells(args, out, _oracle_cell, cells)


def _poa_cell(cell) -> dict:
    params, seed, profile_cap = cell
    scenario = generate(params, seed)
    beneficial = poa_beneficial(scenario, profile_cap)
    overhead = poa_overhead(scenario, profile_cap)
    return {
        "seed": seed,
        "n": params.n_users,
        "m": params.channels,
        "poa_beneficial": beneficial.ratio,
        "beneficial_bound_low": beneficial.bound_low,
        "poa_overhead": overhead.ratio,
        "overhead_bound_high": overhead.bound_high,
        "weight_max": beneficial.weight_max,
        "weight_min": beneficial.weight_min,
        "threshold_max": beneficial.threshold_max,
        "threshold_min": beneficial.threshold_min,
    }


def cmd_poa(args: argparse.Namespace, out: Path):
    params = _from_fields(args, GenParams, "generator flags", n_users=args.n, channels=args.m)
    _check_cap(params, args.profile_cap)
    cells = [(params, seed, args.profile_cap) for seed in _seed_range(args)]
    _run_cells(args, out, _poa_cell, cells)


def cmd_ce(args: argparse.Namespace, out: Path):
    scenario = read_scenario(args.scenario)
    objective = Objective(args.objective.replace("-", "_"))
    ce_params = _from_fields(args, CrossEntropyParams, "ce flags", prefix="ce_")
    profile, value = cross_entropy_optimize(scenario, objective, ce_params, args.seed)
    write_scenario(out / "scenario.json", scenario)
    _write_json(
        out / "report.json",
        {
            "meta": {**TOOL_META, "seed": args.seed},
            "objective": args.objective,
            "value": value,
            "profile": list(profile),
            "params": asdict(ce_params),
        },
    )
    print(f"{args.objective} = {value}")


def build_parser() -> argparse.ArgumentParser:
    """The six commands; each registers only the flags it reads.

    Generator and CE flags are GenParams and CrossEntropyParams fields, less
    the ones a command sets itself from --n/--m.
    """
    parser = argparse.ArgumentParser(
        prog="offload-game",
        description="Multi-user computation offloading: traces, sweeps, oracles, efficiency studies.",
    )
    parser.add_argument("--version", action="version", version=f"offload-game {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    _add_fields(gen, GenParams)
    gen.add_argument("--seed", type=_seed, required=True)
    gen.add_argument("--out", type=Path, default=None)
    gen.set_defaults(func=cmd_gen)

    trace = sub.add_parser("trace", help="run one seeded trace of the distributed algorithm")
    trace.add_argument("--scenario", type=Path, required=True)
    trace.add_argument("--seed", type=_seed, required=True)
    trace.add_argument("--out", type=Path, default=None)
    trace.set_defaults(func=cmd_trace)

    sweep = sub.add_parser("sweep", help="multi-seed sweep over user counts")
    _add_fields(sweep, GenParams, omit={"n_users"})
    sweep.add_argument("--n", type=_int_range, required=True, metavar="LO..HI")
    sweep.add_argument("--step", type=_positive_int, default=5)
    _add_cell_flags(sweep, seeds=100, profile_cap=False)
    sweep.set_defaults(func=cmd_sweep)

    oracle = sub.add_parser("oracle", help="compare the distributed result with exhaustive/CE optima")
    _add_fields(oracle, GenParams, omit={"n_users", "channels"})
    _add_fields(oracle, CrossEntropyParams, prefix="ce_")
    oracle.add_argument("--n", type=int, required=True)
    oracle.add_argument("--m", type=int, required=True)
    _add_cell_flags(oracle, seeds=50, profile_cap=True)
    oracle.set_defaults(func=cmd_oracle)

    poa = sub.add_parser("poa", help="price-of-anarchy study on enumerable instances")
    _add_fields(poa, GenParams, omit={"n_users", "channels"})
    poa.add_argument("--n", type=int, required=True)
    poa.add_argument("--m", type=int, required=True)
    _add_cell_flags(poa, seeds=50, profile_cap=True)
    poa.set_defaults(func=cmd_poa)

    ce = sub.add_parser("ce", help="cross-entropy optimization of one scenario")
    ce.add_argument("--scenario", type=Path, required=True)
    objectives = [o.value.replace("_", "-") for o in Objective]
    ce.add_argument("--objective", choices=objectives, required=True)
    ce.add_argument("--seed", type=_seed, default=0)
    _add_fields(ce, CrossEntropyParams, prefix="ce_")
    ce.add_argument("--out", type=Path, default=None)
    ce.set_defaults(func=cmd_ce)

    return parser


def main(argv=None) -> int:
    """Run one command into its output directory; a command reports failure by raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    out = args.out or Path("runs") / args.command
    try:
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, out)
        _write_config(out, args)
    except (OffloadGameError, OSError) as exc:  # anything else is a bug: let it raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE if isinstance(exc, InstanceTooLarge) else EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
