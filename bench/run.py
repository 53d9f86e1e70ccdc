"""Benchmark of torushall: one workload, timed end to end or traced layer by layer.

Run from the root of a torushall checkout:

    python3 bench/run.py --workload verify-readme --seed 0 --seconds 15 --trace 0

The program is imported from ./src of that checkout.  The run builds the
workload's inputs from --seed, repeats whole units (one pass over the
workload's operation list) until --seconds have passed, checks every output
against the independent checks in bench_checks.py, and prints as the last
line of stdout one JSON object with the keys correct, attempted, failed and
metrics.  Details (per-unit times, notes, check problems) go to stderr.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced units and reports the per-layer metrics, with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
# Set-up is probed this many times before the timed units and as many after,
# so that a slow spell of the machine at either end weighs less in the median.
SETUP_PROBES_EACH_SIDE = 2
CHILD_TIMEOUT_S = 120
# per-layer metric -> module whose cumulative import time it reports
IMPORT_MODULES = {
    "import.torushall_s": "torushall",
    "import.scipy_stats_s": "scipy.stats",
    "import.numpy_s": "numpy",
}


def import_program():
    """Import torushall from ./src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import torushall

    if Path(torushall.__file__).resolve().parent != (SRC / "torushall").resolve():
        raise SystemExit(f"bench/run.py: imported torushall from {torushall.__file__}, not {SRC}")


def setup_probe(args, workdir: Path) -> float:
    """Wall time from starting a fresh interpreter to the point where the first unit would run.

    The probe imports torushall and builds the workload's inputs, then says
    "ready"; the time is taken when that line arrives.
    """
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--probe", str(workdir),
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench/run.py: set-up probe failed:\n{err}")
    return elapsed


def import_seconds() -> dict[str, float]:
    """Cumulative import times from `python -X importtime` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import torushall"
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    cumulative = {}
    for line in res.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return {metric: cumulative[module] for metric, module in IMPORT_MODULES.items()}


class Units:
    """Runs a workload's units and keeps their tallies.

    Only the latest unit's outputs stay alive, and they are dropped before
    the next unit runs, so the peak memory does not grow with the number of
    units.  Later units are compared with the first through digests.
    """

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.walls: list[float] = []
        self.attempted = self.failed = self.work = 0
        self.first_digests = None
        self.all_same = True
        self.last = None

    def run(self, tracer: spans.Tracer | None = None) -> float:
        self.last = None
        if tracer is None:
            t0 = time.perf_counter()
            outputs = workloads.run_unit(self.workload)
            wall = time.perf_counter() - t0
        else:
            with spans.traced(tracer):
                t0 = time.perf_counter()
                root = tracer.open("bench")
                outputs = workloads.run_unit(self.workload)
                tracer.close(root)
                wall = time.perf_counter() - t0
        self.walls.append(wall)
        attempted, failed, work = workloads.tally(self.workload.ops, [outputs])
        self.attempted += attempted
        self.failed += failed
        self.work += work
        digests = [out if isinstance(out, workloads.Raised) else self.workload.digest(out) for out in outputs]
        if self.first_digests is None:
            self.first_digests = digests
        self.all_same &= digests == self.first_digests
        self.last = outputs
        return wall


def timed_run(workload, seconds: float) -> Units:
    units = Units(workload)
    start = time.perf_counter()
    while not units.walls or time.perf_counter() - start < seconds:
        units.run()
    return units


def traced_run(workload, seconds: float):
    """Alternate untraced and traced units; return both unit times and per-unit spans."""
    untraced, traced_walls, per_unit, units = [], [], [], Units(workload)
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        untraced.append(units.run())
        tracer = spans.Tracer()
        traced_walls.append(units.run(tracer))
        per_unit.append((tracer.self_times(), dict(tracer.counts), len(tracer.spans)))
    return untraced, traced_walls, per_unit, units


def layer_metrics(untraced, traced_walls, per_unit) -> dict[str, tuple[float, str]]:
    n = len(per_unit)
    metrics = {}
    layer_total = 0.0
    for span, metric in spans.SELF_METRICS.items():
        value = sum(selfs.get(span, 0.0) for selfs, _c, _s in per_unit) / n
        metrics[metric] = (value, "s")
        if span != "bench":
            layer_total += value
    for metric in spans.COUNT_METRICS:
        metrics[metric] = (sum(c.get(metric, 0) for _s, c, _n in per_unit) / n, "count")
    traced_p50 = statistics.median(traced_walls)
    untraced_p50 = statistics.median(untraced)
    metrics["trace.spans"] = (sum(k for _s, _c, k in per_unit) / n, "count")
    metrics["trace.unit_s"] = (traced_p50, "s")
    metrics["trace.untraced_unit_s"] = (untraced_p50, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
    metrics["trace.layers_pct"] = (100.0 * layer_total / (sum(traced_walls) / len(traced_walls)), "%")
    return metrics


def end_to_end(args, workdir: Path):
    """Timed units with tracing off; set-up probed on both sides of them."""
    setups = [setup_probe(args, workdir) for _ in range(SETUP_PROBES_EACH_SIDE)]
    import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    units = timed_run(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe(args, workdir) for _ in range(SETUP_PROBES_EACH_SIDE)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "unit_p50_s": (statistics.median(units.walls), "s"),
        "work_per_s": (units.work / sum(units.walls), "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    return workload, units, metrics, {"setup_samples_s": [round(s, 4) for s in setups]}


def per_layer(args, workdir: Path):
    """Untraced and traced units in turn; import times from fresh interpreters."""
    imports = [import_seconds() for _ in range(2 * SETUP_PROBES_EACH_SIDE)]
    import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    untraced, traced_walls, per_unit, units = traced_run(workload, args.seconds)
    metrics = layer_metrics(untraced, traced_walls, per_unit)
    for name in IMPORT_MODULES:
        metrics[name] = (statistics.median(m[name] for m in imports), "s")
    return workload, units, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "torushall" / "__init__.py").is_file():
        print(f"bench/run.py: no {SRC / 'torushall'}; run from the root of a torushall checkout", file=sys.stderr)
        return 2

    if args.probe:
        import_program()
        workloads.WORKLOADS[args.workload](args.seed, Path(args.probe))
        print("ready", flush=True)
        return 0

    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        measure = per_layer if args.trace else end_to_end
        workload, units, metrics, details = measure(args, Path(workdir))
        problems, notes = workload.check(units.last)
    if not units.all_same:
        problems.append("outputs differ between units of one run")

    details.update(
        workload=args.workload, seed=args.seed, units=len(units.walls),
        unit_s=[round(w, 4) for w in units.walls], work=units.work, notes=notes, problems=problems,
    )
    print(json.dumps(details), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": units.attempted,
        "failed": units.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
