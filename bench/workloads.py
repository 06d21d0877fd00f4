"""The four benchmark workloads: sweep, trace, poa and ce.

Each workload builds its inputs from the workload seed, splits its work into
passes of items, checks every item's outputs against the reference model in
`oracle`, and reduces the first `round_passes` passes to a digest record that
must replay bit for bit.  An item is one unit the matching CLI command runs
with `workers=1`: a sweep cell, one trace with its written outputs, one PoA
cell, or one cross-entropy call; a trace item holds one trace per access
model.  README.md says why each workload exists.

Library calls go through module attributes (`dco.run_dco`, ...) so that the
traced run's patches see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import asdict, replace
from pathlib import Path

from offload_game import __version__, baselines, cli, dco, game, metrics, scenario
from offload_game.model import AccessModel

import oracle

# Pass p of a workload run with seed s uses instance seeds from s * SEED_STRIDE + p,
# so runs with different seeds never share an instance.
SEED_STRIDE = 10**6


def _csv_bytes(row) -> int:
    """Bytes of one row in the CLI's CSV format."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(["" if v is None else v for v in row])
    return len(buffer.getvalue().encode("utf-8"))


class Sweep:
    """The paper's figure grid: DCO against all-local and random-channel."""

    name = "sweep"
    round_passes = 5

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.base = seed * SEED_STRIDE
        self.sizes = (4, 6) if tiny else tuple(range(15, 51, 5))
        self.params = scenario.GenParams(channels=2 if tiny else 5)

    def pass_items(self, p: int) -> list:
        seed = self.base + p
        return [lambda n=n: self.cell(n, seed) for n in self.sizes]

    def cell(self, n: int, seed: int) -> dict:
        """What `offload-game sweep` computes for one (n, seed) cell."""
        instance = scenario.generate(replace(self.params, n_users=n), seed)
        evaluator = game.ProfileEvaluator(instance.channel_env, instance.user_profiles)
        report = dco.run_dco(instance, seed)
        local_cost = float(evaluator.system_overheads([baselines.all_local(instance)])[0])
        random_profile = baselines.all_cloud_random(instance, seed)
        return {
            "scenario": instance,
            "report": report,
            "all_local_overhead": local_cost,
            "random_profile": random_profile,
            "all_cloud_beneficial": int(evaluator.beneficial_counts([random_profile])[0]),
            "all_cloud_overhead": float(evaluator.system_overheads([random_profile])[0]),
        }

    def check(self, out: dict) -> list:
        inst = oracle.Instance.from_scenario(out["scenario"])
        report = out["report"]
        label = f"sweep n={inst.n_users} seed={report.seed}"
        phi = [slot.potential for slot in report.slots]
        problems = [f"{label}: potential did not strictly decrease"] if any(
            b >= a for a, b in zip(phi, phi[1:])
        ) else []
        problems += oracle.check_nash(inst, report.final_profile, label)
        problems += oracle.check_totals(
            inst, report.final_profile, report.system_overhead, report.beneficial_count, label
        )
        if not oracle.close(out["all_local_overhead"], float(inst.local.sum())):
            problems.append(f"{label}: all-local overhead differs from the reference")
        if 0 in out["random_profile"]:
            problems.append(f"{label}: random-channel profile has a local user")
        problems += oracle.check_totals(
            inst, out["random_profile"], out["all_cloud_overhead"],
            out["all_cloud_beneficial"], f"{label} random",
        )
        return problems

    def digest(self, out: dict) -> list:
        report = out["report"]
        return [
            out["scenario"].n_users, report.seed, list(report.final_profile), report.update_slots,
            report.beneficial_count, report.system_overhead, out["all_local_overhead"],
            out["all_cloud_beneficial"], out["all_cloud_overhead"],
        ]

    def report_bytes(self, out: dict) -> int:
        """Size of this cell's row in the CLI's runs.csv."""
        report = out["report"]
        return _csv_bytes([
            out["scenario"].n_users, report.seed, report.beneficial_count, report.system_overhead,
            report.update_slots, out["all_local_overhead"], out["all_cloud_beneficial"],
            out["all_cloud_overhead"],
        ])


class Trace:
    """`offload-game trace` at paper scale.

    One item is one interference trace and one contention trace, each with
    its written outputs.  Timing the pair keeps the per-item population
    unimodal: with the few items a run holds, a median over two kinds of
    trace of different length swings with whichever kind sits in the middle.
    """

    name = "trace"
    round_passes = 1
    pool = 2  # scenarios per access model; pass p uses scenario p % pool
    models = (AccessModel.INTERFERENCE.value, AccessModel.CONTENTION.value)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.base = seed * SEED_STRIDE
        n, m = (20, 4) if tiny else (1000, 166)
        self.paths = {}
        for access in self.models:
            params = scenario.GenParams(n_users=n, channels=m, access_model=AccessModel(access))
            for k in range(self.pool):
                path = workdir / f"{'tiny-' if tiny else ''}{access}-{k}.json"
                scenario.write_scenario(path, scenario.generate(params, self.base + k))
                self.paths[access, k] = path

    def pass_items(self, p: int) -> list:
        return [lambda: [self.run(access, p) for access in self.models]]

    def run(self, access: str, p: int) -> dict:
        source = self.paths[access, p % self.pool]
        seed = self.base + p
        out = source.parent / f"{source.stem}-out-{seed}"
        argv = ["trace", "--scenario", str(source), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"offload-game {' '.join(argv)} exited with {code}")
        return {"access": access, "seed": seed, "source": source, "out": out}

    def _load(self, out: dict) -> tuple:
        """(scenario document, report document, slots.csv text), each read once."""
        if "report" not in out:
            out["scenario"] = json.loads(out["source"].read_text(encoding="utf-8"))
            out["report"] = json.loads((out["out"] / "report.json").read_text(encoding="utf-8"))
            out["slots_csv"] = (out["out"] / "slots.csv").read_text(encoding="utf-8")
        return out["scenario"], out["report"], out["slots_csv"]

    def check(self, outs: list) -> list:
        problems = []
        for out in outs:
            doc, report, slots_csv = self._load(out)
            label = f"trace {out['access']} seed={out['seed']}"
            problems += oracle.check_trace(oracle.Instance.from_document(doc), report, slots_csv, label)
        return problems

    def digest(self, outs: list) -> list:
        records = []
        for out in outs:
            result = self._load(out)[1]["result"]
            records.append([
                out["access"], out["seed"], result["final_profile"], result["update_slots"],
                result["total_slots"], result["beneficial_count"], result["system_overhead"],
            ])
        return records

    def report_bytes(self, outs: list) -> float:
        """Mean bytes of report.json plus slots.csv per trace."""
        files = [out["out"] / name for out in outs for name in ("report.json", "slots.csv")]
        return sum(path.stat().st_size for path in files) / len(outs)

    def release(self, outs: list):
        """Delete the output directories once they have been checked."""
        for out in outs:
            for path in sorted(out["out"].iterdir()):
                path.unlink()
            out["out"].rmdir()
            for key in ("scenario", "report", "slots_csv"):
                out.pop(key, None)


class Poa:
    """`offload-game poa`: full Nash enumeration against the exhaustive optima."""

    name = "poa"
    round_passes = 2

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.base = seed * SEED_STRIDE
        n, m = (4, 2) if tiny else (8, 3)
        self.params = scenario.GenParams(n_users=n, channels=m)

    def pass_items(self, p: int) -> list:
        return [lambda: self.cell(self.base + p)]

    def cell(self, seed: int) -> dict:
        instance = scenario.generate(self.params, seed)
        return {
            "seed": seed,
            "scenario": instance,
            "beneficial": metrics.poa_beneficial(instance),
            "overhead": metrics.poa_overhead(instance),
        }

    def check(self, out: dict) -> list:
        inst = oracle.Instance.from_scenario(out["scenario"])
        ben, ovh = out["beneficial"], out["overhead"]
        label = f"poa seed={out['seed']}"
        problems = []
        if not 0 <= ben.worst_equilibrium <= ben.optimum <= inst.n_users:
            problems.append(f"{label}: beneficial worst {ben.worst_equilibrium} vs optimum {ben.optimum}")
        expected = 1.0 if ben.optimum == 0 else ben.worst_equilibrium / ben.optimum
        if ben.ratio != expected or not 0.0 < ben.ratio <= 1.0:
            problems.append(f"{label}: beneficial ratio {ben.ratio!r}, expected {expected!r}")
        if ben.bound_low is not None and ben.ratio < ben.bound_low:
            problems.append(f"{label}: beneficial ratio {ben.ratio!r} below bound {ben.bound_low!r}")
        if not ovh.optimum <= float(inst.local.sum()) * (1.0 + oracle.RTOL):
            problems.append(f"{label}: overhead optimum {ovh.optimum!r} above the all-local cost")
        # worst and optimum are summed along different paths, so an optimal
        # equilibrium can read a rounding step below the optimum
        if not ovh.optimum <= ovh.worst_equilibrium * (1.0 + oracle.RTOL):
            problems.append(f"{label}: overhead worst {ovh.worst_equilibrium!r} below optimum")
        ratio = ovh.worst_equilibrium / ovh.optimum
        if not oracle.close(ovh.ratio, ratio) or ovh.ratio < 1.0 - oracle.RTOL:
            problems.append(f"{label}: overhead ratio {ovh.ratio!r} inconsistent")
        if ovh.bound_high is not None and ovh.ratio > ovh.bound_high * (1.0 + oracle.RTOL):
            problems.append(f"{label}: overhead ratio {ovh.ratio!r} above bound {ovh.bound_high!r}")
        return problems

    def digest(self, out: dict) -> list:
        return [out["seed"], asdict(out["beneficial"]), asdict(out["overhead"])]

    def report_bytes(self, out: dict) -> int:
        """Size of this cell's row in the CLI's poa summary.csv."""
        ben, ovh = out["beneficial"], out["overhead"]
        return _csv_bytes([
            out["seed"], self.params.n_users, self.params.channels, ben.ratio, ben.bound_low,
            ovh.ratio, ovh.bound_high, ben.weight_max, ben.weight_min, ben.threshold_max,
            ben.threshold_min,
        ])


class CrossEntropy:
    """`cross_entropy_optimize` with default parameters, both objectives."""

    name = "ce"
    round_passes = 4
    pool = 8  # scenarios per size; pass p uses scenario p % pool

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.base = seed * SEED_STRIDE
        sizes = (6, 8) if tiny else (30, 50)
        params = scenario.GenParams(channels=2 if tiny else 5)
        self.scenarios = {
            n: [scenario.generate(replace(params, n_users=n), self.base + k) for k in range(self.pool)]
            for n in sizes
        }
        self.instances = {
            n: [oracle.Instance.from_scenario(s) for s in pool] for n, pool in self.scenarios.items()
        }

    def pass_items(self, p: int) -> list:
        return [
            lambda n=n, objective=objective: self.call(n, p, objective)
            for n in self.scenarios
            for objective in (baselines.Objective.MIN_OVERHEAD, baselines.Objective.MAX_BENEFICIAL)
        ]

    def call(self, n: int, p: int, objective) -> dict:
        instance = self.scenarios[n][p % self.pool]
        profile, value = baselines.cross_entropy_optimize(instance, objective, seed=self.base + p)
        return {"n": n, "p": p, "objective": objective.value, "profile": profile, "value": value}

    def check(self, out: dict) -> list:
        inst = self.instances[out["n"]][out["p"] % self.pool]
        label = f"ce n={out['n']} pass={out['p']} {out['objective']}"
        profile, value = out["profile"], out["value"]
        problems = oracle.check_profile(inst, profile, label)
        if problems:
            return problems
        if out["objective"] == baselines.Objective.MIN_OVERHEAD.value:
            if not value <= float(inst.local.sum()) * (1.0 + oracle.RTOL):
                problems.append(f"{label}: value {value!r} above the all-local cost")
            if not oracle.close(value, float(inst.costs(profile).sum())):
                problems.append(f"{label}: value {value!r} is not the profile's cost")
        else:
            _, high = inst.beneficial_range(profile)
            offloaders = sum(1 for d in profile if d > 0)
            if high < offloaders:
                problems.append(f"{label}: profile infeasible; an offloader loses out")
            if value != offloaders:
                problems.append(f"{label}: value {value} != {offloaders} offloaders")
        return problems

    def digest(self, out: dict) -> list:
        return [out["n"], out["p"], out["objective"], list(out["profile"]), out["value"]]

    def report_bytes(self, out: dict) -> int:
        """Size of the report.json `offload-game ce` writes for this call."""
        doc = {
            "meta": {"tool": "offload-game", "version": __version__, "seed": self.base + out["p"]},
            "objective": out["objective"].replace("_", "-"),
            "value": out["value"],
            "profile": list(out["profile"]),
            "params": asdict(baselines.CrossEntropyParams()),
        }
        return len((json.dumps(doc, indent=2) + "\n").encode("utf-8"))


WORKLOADS = {w.name: w for w in (Sweep, Trace, Poa, CrossEntropy)}
