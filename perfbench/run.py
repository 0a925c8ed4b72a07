"""Benchmark of the affinetrees package: one workload per invocation.

    python3 perfbench/run.py --workload embed-rational --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  The run

1. times ``SETUP_PROBES`` fresh processes that each import affinetrees,
   generate the seeded inputs and run one warm-up operation (``setup_s``
   is their median);
2. runs one warm-up group in this process, checks its outputs, and feeds
   every check a corrupted copy that it must flag (the self-check);
3. runs whole rounds of operations, one at a time, until ``--seconds``
   have passed and at least ``MIN_OPS`` operations were attempted,
   checking each group's outputs outside the timed spans.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it wraps the calls into every module (see ``tracing.py``), reports the
per-layer metrics and writes the spans to ``.bench_out/``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation fails if it raises or if a check
on its group's outputs disagrees; ``correct`` is false if any check
disagreed or the self-check missed a corruption.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
#: Seconds the calibration slice takes at the reference speed, about its
#: usual time between operations on a 2-core 2.0 GHz Xeon VM.
CALIBRATION_S = 0.0015
MIN_OPS = 100
#: Stop after the round that crosses this, whatever --seconds says, so a
#: run ends well within three minutes.
MAX_SECONDS = 150

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def import_package():
    """Import affinetrees from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import affinetrees

    if Path(affinetrees.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"affinetrees imported from {affinetrees.__file__}, not {SRC}")
    return affinetrees


def check_names(tracing):
    """The metric names printed must be the ones BENCHMARK.json declares;
    returns the declared workload names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}
    ours = {name for name, _ in END_TO_END}, {name for name, *_ in tracing.PER_LAYER}
    if declared != ours:
        raise SystemExit("metric names differ from BENCHMARK.json")
    return [w["name"] for w in spec["workloads"]]


def calibration():
    """Seconds for a fixed slice of Fraction and dict work (best of two).

    On a shared virtual machine the CPU's speed swings as other tenants
    load the host: on a 2-core Xeon VM a fixed loop ran up to 1.6x faster
    for seconds at a time, and raw times spread by 0.25-0.35 between runs.
    Every time the benchmark reports is scaled by CALIBRATION_S over the
    mean of the calibrations just before and just after it, which cancels
    the machine's speed and keeps the program's: the slice is fixed here
    and does not call the program.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total, counts = Fraction(0), {}
        for i in range(1, 380):
            total += Fraction(i % 7 - 3, i)
            counts[i % 31] = counts.get(i % 31, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def setup_probe(workload, seed, tmpdir):
    """Body of one setup process: import, generate inputs, one warm-up op."""
    before = calibration()
    start = time.perf_counter()
    import_package()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, tmpdir)
    group = wl.groups(-1)[0]
    wl.run_op(group["ops"][0])
    elapsed = time.perf_counter() - start
    return elapsed * CALIBRATION_S / ((before + calibration()) / 2)


def measure_setup(workload, seed, tmpdir):
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(tmpdir, f"probe{i}")
        os.mkdir(probe_dir)
        code = f"import run; print(run.setup_probe({workload!r}, {seed}, {probe_dir!r}))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=HERE,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"setup probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_group(wl, group, tracer, op_ids):
    """Run one group's operations; returns (latencies, scales, outputs or
    None), where a latency times its scale is the scaled latency."""
    latencies, scales, outputs = [], [], []
    for inp in group["ops"]:
        op_id = next(op_ids)
        before = calibration()
        token = tracer.begin_op(op_id) if tracer else None
        start = time.perf_counter()
        try:
            out = wl.run_op(inp)
        except Exception as exc:  # an operation that raises is counted, not fatal
            if tracer:
                tracer.end_op(token)
            print(f"operation {op_id} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return latencies, scales, None
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_op(token)
        scales.append(CALIBRATION_S / ((before + calibration()) / 2))
        outputs.append(out)
    return latencies, scales, outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    import tracing

    names = check_names(tracing)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import affinetrees from {SRC}: {exc}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        return run(args, tracing, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, tracing, tmpdir):
    import workloads

    setup_s = measure_setup(args.workload, args.seed, tmpdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)

    warm = wl.groups(-1)[0]
    _, _, outputs = run_group(wl, warm, None, itertools.count(-len(warm["ops"])))
    if outputs is None:
        raise SystemExit("warm-up group raised")
    view = wl.view(warm, outputs)
    disagreements = wl.check(view)
    missed = wl.self_check(view)
    for name in missed:
        print(f"self-check: check {name!r} passed a corrupted output", file=sys.stderr)
    wl.figures = {key: 0 for key in wl.figures}

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, scales, attempted, failed = [], [], 0, 0
    op_ids = itertools.count(1)
    start = time.perf_counter()
    r = 0
    while True:
        for group in wl.groups(r):
            attempted += len(group["ops"])
            lat, scale, outputs = run_group(wl, group, tracer, op_ids)
            errors = ["raised"] if outputs is None else wl.check(wl.view(group, outputs))
            if errors:
                failed += len(group["ops"])
                if outputs is not None:
                    disagreements.extend(errors)
                    print(f"round {r}: {errors}", file=sys.stderr)
            else:
                latencies.extend(lat)
                scales.extend(scale)
        r += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and attempted >= MIN_OPS) or elapsed >= MAX_SECONDS:
            break

    if len(latencies) < 2:
        raise SystemExit(f"only {len(latencies)} of {attempted} operations succeeded")
    correct = not disagreements and not missed
    scaled = [lat * s for lat, s in zip(latencies, scales)]
    if tracer:
        metrics = tracing.layer_metrics(
            tracer, len(scaled), sum(scaled), statistics.median(scales), wl.figures
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(
            out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "ops": len(latencies)},
        )
    else:
        values = {
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_ms": statistics.median(scaled) * 1e3,
            "op_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload} seed {args.seed}: {r} rounds, "
          f"{attempted} attempted, {failed} failed, correct={correct}")
    print(f"  unscaled: {len(latencies) / sum(latencies):.6g} ops/s, "
          f"p50 {statistics.median(latencies) * 1e3:.6g} ms, "
          f"median scale {statistics.median(scales):.4g}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
