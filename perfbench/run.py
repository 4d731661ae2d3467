"""qwgeom benchmark: run one workload and print its metrics.

Usage, from the root of a qwgeom checkout:

    python3 perfbench/run.py --workload scan|walk|geometry --seed N \
        --seconds S --trace 0|1

The package is imported from ./src of the checkout.  QWGEOM_WORKERS is
pinned to the number of usable cores.  Jobs of the workload repeat in
passes until S seconds have elapsed; each timing is the median over
passes, and the correctness checks run outside the timed sections.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, then traced passes with run-time span wrappers installed (see
tracer.py), and prints the per-layer metrics; it also writes the spans
to perfbench/out/.  The line before the last carries the run's
provenance and the workload-specific metrics; the last line is the JSON
result {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import qwgeom.cli; "
               "qwgeom.cli.build_parser(); print('ready', flush=True)")


def measure_setup() -> float:
    """Median time from interpreter launch until qwgeom.cli is imported
    and its parser built, over several fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed to import qwgeom.cli")
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, run, check):
        """Time run(), then check its result untimed.  Returns (result,
        seconds); the result is None when the operation failed."""
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception:  # a raising operation is a failed operation
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
        if error is None:
            try:
                check(result)
            except Exception:  # so is one whose output fails its check
                error = traceback.format_exc()
        if error is None:
            return result, elapsed
        self.failed += 1
        print(f"FAILED {label}:\n{error}", file=sys.stderr)
        return None, elapsed


def run_pass(ops, tally: Tally, tracer=None):
    """Run one pass of operations; returns (seconds per group, with the
    pass total as wall_s, and the query latencies)."""
    groups = defaultdict(float)
    latencies = []
    for op in ops:
        run = op.run
        if tracer is not None and op.cli:
            run = tracer.spanned("cli.main", "cli", run)
        _, elapsed = tally.attempt(op.group, run, op.check)
        groups[op.group] += elapsed
        groups["wall_s"] += elapsed
        if op.group == "queries_s":
            latencies.append(elapsed)
    return groups, latencies


def median_of(passes, key: str) -> float:
    return statistics.median(p.get(key, 0.0) for p in passes)


def run_untraced(workload, rng, seconds: float, tally: Tally):
    passes, latencies = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        groups, lat = run_pass(workload.build_pass(rng), tally)
        passes.append(groups)
        latencies.extend(lat)
    metrics = {name: (median_of(passes, name), unit)
               for name, unit in workload.details.items()}
    # Every operation belongs to one group, so the groups' medians add up
    # to a pass; summing them damps a slow group in one pass and another
    # group in the next better than the median of pass totals would.
    metrics["wall_s"] = (sum(v for v, _ in metrics.values()), "s")
    if latencies:
        ms = 1e3 * np.asarray(latencies)
        metrics["query_p50_ms"] = (float(np.percentile(ms, 50)), "ms")
        metrics["query_p99_ms"] = (float(np.percentile(ms, 99)), "ms")
    return metrics, len(passes)


def run_rows_speedup(tally: Tally) -> float:
    """scan_gap and zak_map of the scan workload at 1 worker divided by
    the same calls at the pinned worker count, both untraced."""
    import checks
    import qwgeom.topology
    import qwgeom.zak
    from workloads import (SCAN_K_SAMPLES, SCAN_RESOLUTION, ZAK_MAP_POINTS,
                           ZAK_MAP_RESOLUTION)

    def pair():
        return (qwgeom.topology.scan_gap("noncommuting", SCAN_RESOLUTION,
                                         SCAN_K_SAMPLES),
                qwgeom.zak.zak_map("noncommuting", ZAK_MAP_RESOLUTION,
                                   ZAK_MAP_POINTS))

    def check(result):
        gm, zm = result
        a1, a2 = np.meshgrid(gm.angles1, gm.angles2, indexing="ij")
        checks.check_gap_map(a1, a2, gm.gap, SCAN_RESOLUTION)
        z1, z2 = np.meshgrid(zm.angles1, zm.angles2, indexing="ij")
        checks.check_zak_map(z1, z2, zm.zak_plus, zm.zak_minus, zm.masked,
                             ZAK_MAP_RESOLUTION)

    pinned = os.environ["QWGEOM_WORKERS"]
    os.environ["QWGEOM_WORKERS"] = "1"
    try:
        single, t_single = tally.attempt("run_rows at 1 worker", pair, check)
    finally:
        os.environ["QWGEOM_WORKERS"] = pinned
    parallel, t_parallel = tally.attempt(f"run_rows at {pinned} workers",
                                         pair, check)
    if single is None or parallel is None:
        return 0.0
    return t_single / t_parallel


def run_traced(workload, rng, seconds: float, tally: Tally):
    """One untraced pass, then traced passes; returns (per-layer medians,
    spans of each traced pass, end-to-end figures of the two modes)."""
    import qwgeom.utils
    import tracer as tracing

    start = time.perf_counter()
    untraced, _ = run_pass(workload.build_pass(rng), tally)
    tracer = tracing.Tracer()
    passes, walls, spans = [], [], []
    tracer.install()
    try:
        while not passes or time.perf_counter() - start < seconds:
            tracer.spans = []
            groups, _ = run_pass(workload.build_pass(rng), tally, tracer)
            walls.append(groups["wall_s"])
            passes.append(tracing.pass_metrics(tracer.spans))
            spans.append(tracer.spans)
    finally:
        tracer.uninstall()

    layer = {name: median_of(passes, name) for name in set().union(*passes)}
    layer.update(tracing.per_call_ms([s for ps in spans for s in ps]))
    layer["utils.workers"] = qwgeom.utils.worker_count()
    layer["utils.run_rows_speedup"] = (run_rows_speedup(tally)
                                       if workload.name == "scan" else 0.0)
    traced_wall = statistics.median(walls)
    layer["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    detail = {"wall_s_untraced": (untraced["wall_s"], "s"),
              "wall_s_traced": (traced_wall, "s")}
    return layer, spans, detail


def _typed(value, unit: str):
    return int(value) if unit in ("count", "bytes") else float(value)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwgeom" / "cli.py").is_file():
        print("error: run from the root of a qwgeom checkout (no src/qwgeom)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0))
    os.environ["QWGEOM_WORKERS"] = str(nproc)

    import qwgeom
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = (ROOT / "src").resolve()
    if not Path(qwgeom.__file__).resolve().is_relative_to(src):
        print(f"error: imported qwgeom from {qwgeom.__file__}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    tally = Tally()
    spans = None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](tmp)
        if args.trace:
            layer, spans, detail = run_traced(workload, rng, args.seconds,
                                              tally)
            n_passes = len(spans)
            metrics = {m["name"]: (_typed(layer.get(m["name"], 0.0), m["unit"]),
                                   m["unit"]) for m in spec["per_layer"]}
        else:
            setup_s = measure_setup()
            detail, n_passes = run_untraced(workload, rng, args.seconds, tally)
            detail["setup_s"] = (setup_s, "s")
            detail["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
            metrics = {m["name"]: detail[m["name"]] for m in spec["end_to_end"]}

    detail["failed_ratio"] = (tally.failed / max(1, tally.attempted), "ratio")
    record = {
        "workload": args.workload,
        "provenance": {
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "passes": n_passes, "nproc": nproc,
            "QWGEOM_WORKERS": os.environ["QWGEOM_WORKERS"],
            "python": sys.version.split()[0], "numpy": np.__version__,
            "qwgeom": qwgeom.__version__, "src_lines": src_line_count(),
        },
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "notes": {
            "walk.oracle_bytes": "computed from the oracle's array sizes (two "
                                 "dense m x m complex128 matrices), not measured",
            "per_layer": "a layer or call this workload never reaches reads 0; "
                         "utils.run_rows_speedup is measured on scan only",
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(
            json.dumps({"fields": ["name", "layer", "parent", "start", "end",
                                   "info"], "passes": spans}),
            encoding="utf-8")
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(record, indent=1),
                                               encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
