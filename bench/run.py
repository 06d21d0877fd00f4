"""offload-game benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
it replays the workload's fixed round of items untraced and traced in turn
and reports per-layer metrics from the spans.  Either way every item's
outputs are checked, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The metric names and
units come from BENCHMARK.json at the repository root.  README.md describes
the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from hashlib import sha256
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads in load_package: timings then
# do not depend on how many cores the machine lends to a threaded BLAS, and
# float sums keep one order, so digests replay bit for bit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
EXIT_BROKEN = 2


def load_package():
    """Import offload_game from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import offload_game

    if Path(offload_game.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"offload_game loaded from {offload_game.__file__}, not from {src}")
    return offload_game


class Tally:
    """Attempted and failed items plus the digest records of the round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.report_bytes = []

    def fail(self, message: str):
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)

    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"))
        return sha256(text.encode("utf-8")).hexdigest()


def run_items(workload, p: int) -> tuple:
    """Run pass p's items back to back; returns (outputs, seconds per item)."""
    outs, seconds = [], []
    for item in workload.pass_items(p):
        start = time.perf_counter()
        try:
            out = item()
        except Exception:  # an item that raises is a failed item; keep measuring
            out = traceback.format_exc()
        seconds.append(time.perf_counter() - start)
        outs.append(out)
    return outs, seconds


def settle(workload, outs: list, tally: Tally, keep_digest: bool):
    """Check each output, then count it, record its digest and release it.

    An output the checks cannot read is rejected and left in the work
    directory, which is removed when the run ends.
    """
    for out in outs:
        tally.attempted += 1
        if isinstance(out, str):
            tally.fail(f"{workload.name}: item raised\n{out}")
            continue
        try:
            problems = workload.check(out)
            if keep_digest:
                tally.records.append(workload.digest(out))
            tally.report_bytes.append(workload.report_bytes(out))
            if hasattr(workload, "release"):
                workload.release(out)
        except Exception:  # a check that cannot read the output rejects it
            problems = [traceback.format_exc()]
        if problems:
            tally.fail(f"{workload.name}: " + "; ".join(problems[:3]))


def warm_up(cls, seed: int, workdir: Path):
    """Run one pass of the tiny variant, so lazy imports and first calls are paid."""
    tiny = cls(seed, workdir, tiny=True)
    outs, _ = run_items(tiny, 0)
    settle(tiny, outs, Tally(), keep_digest=False)


def keep_going(start: float, pass_start: float, seconds: float) -> bool:
    """True while another pass would end nearer the time budget than stopping now."""
    now = time.perf_counter()
    return now - start + (now - pass_start) / 2 < seconds


def measure(workload, seconds: float) -> dict:
    """Untraced closed loop: passes until the time budget is spent."""
    tally = Tally()
    item_ms = []
    start = time.perf_counter()
    p = 0
    while True:
        pass_start = time.perf_counter()
        outs, times = run_items(workload, p)
        item_ms += [t * 1e3 for t in times]
        settle(workload, outs, tally, keep_digest=p < workload.round_passes)
        p += 1
        if p >= workload.round_passes and not keep_going(start, pass_start, seconds):
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "tally": tally,
        "item_ms": item_ms,
        "instances_per_s": len(item_ms) / (sum(item_ms) / 1e3),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def run_round(workload, tally: Tally) -> float:
    """All round passes; returns the summed item time in seconds."""
    total = 0.0
    for p in range(workload.round_passes):
        outs, times = run_items(workload, p)
        total += sum(times)
        settle(workload, outs, tally, keep_digest=True)
    return total


def measure_traced(workload, seconds: float) -> dict:
    """The fixed round, untraced then traced, repeated while time remains.

    A first untimed round brings the process to the steady state both timed
    rounds then share; the first large trace in a process pays for growing
    the heap.  Counts must repeat exactly between traced repetitions and
    digests between every round; timings are medians over the repetitions.
    """
    import spans

    tally = Tally()
    untraced_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    run_round(workload, tally)
    digests = [tally.digest()]
    while True:
        rep_start = time.perf_counter()
        plain = Tally()
        untraced_s.append(run_round(workload, plain))
        traced = Tally()
        recorder = spans.Recorder()
        with spans.patched(recorder) as missing:
            traced_s.append(run_round(workload, traced))
        layers.append(spans.layer_metrics(recorder.spans))
        for part in (plain, traced):
            tally.attempted += part.attempted
            tally.failed += part.failed
            digests.append(part.digest())
        if not keep_going(start, rep_start, seconds):
            break
    if missing:
        print(f"untraced names (renamed or removed): {', '.join(missing)}", file=sys.stderr)
    tally.attempted += 2
    if len(set(digests)) != 1:
        tally.fail(f"{workload.name}: traced and untraced rounds gave different digests")
    if any(spans.counts(m) != spans.counts(layers[0]) for m in layers):
        tally.fail(f"{workload.name}: work counts differ between traced repetitions")
    metrics = {
        name: statistics.median(m[name] for m in layers) for name in layers[0]
    }
    metrics.update(spans.counts(layers[0]))
    metrics["trace_overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return {"tally": tally, "metrics": metrics, "repetitions": len(layers)}


def probe_setup(args) -> float:
    """Median time from process start to the first timed item, over fresh processes."""
    values = []
    for _ in range(SETUP_PROBES):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe",
        ]
        spawned = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}:\n{proc.stderr}")
        values.append(float(proc.stdout.split()[-1]) - spawned)
    return statistics.median(values)


def environment(og) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "offload_game": og.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def expected_digest(workload: str, seed: int):
    """The digest recorded for this workload at the default seed, else None."""
    recorded = json.loads((BENCH / "expected_digests.json").read_text(encoding="utf-8"))
    return recorded["digests"].get(workload) if seed == recorded["seed"] else None


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "trace", "poa", "ce"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        og = load_package()
    except ImportError as exc:
        print(f"error: cannot import offload_game from this checkout: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        workload = cls(args.seed, workdir)
        warm_up(cls, args.seed, workdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        units = metric_specs("per_layer" if args.trace else "end_to_end")
        print("env " + json.dumps(environment(og), sort_keys=True))
        if args.trace:
            result = measure_traced(workload, args.seconds)
            values = result["metrics"]
            print(f"{args.workload}: {result['repetitions']} traced repetitions of the round")
        else:
            setup_s = probe_setup(args)
            result = measure(workload, args.seconds)
            item_ms = result["item_ms"]
            values = {
                "instances_per_s": result["instances_per_s"],
                "instance_ms.p50": statistics.median(item_ms),
                "setup_s": setup_s,
                "peak_rss_mb": result["peak_rss_mb"],
                "report_bytes": statistics.fmean(result["tally"].report_bytes or [0]),
            }
            print(f"{args.workload}: {len(item_ms)} items")
        tally = result["tally"]
        digest = tally.digest()
        expected = expected_digest(args.workload, args.seed)
        print(f"digest {args.workload} seed={args.seed} {digest}")
        if expected is not None:
            tally.attempted += 1
            if digest != expected:
                tally.fail(f"{args.workload}: digest {digest} != recorded {expected}")
        for name, unit in units.items():
            print(f"  {name:<34} {values[name]:>14.6g} {unit}")
        if not args.trace and len(item_ms) >= 100:  # ten samples beyond p90
            p90 = statistics.quantiles(item_ms, n=10)[-1]
            print(f"  {'instance_ms.p90':<34} {p90:>14.6g} ms (n={len(item_ms)})")
        print(f"  {'failed_ratio':<34} {tally.failed / tally.attempted:>14.6g} "
              f"({tally.failed}/{tally.attempted})")
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
