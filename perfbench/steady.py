"""Steadiness check: two sets of runs of the same commit, compared.

    python3 perfbench/steady.py [--traced]

Runs ``perfbench/run.py`` once per workload of BENCHMARK.json and seed,
for two sets of ``RUNS`` seeds (1.. and 101..), with the run length from
BENCHMARK.json.  For each end-to-end metric and workload it prints each
set's median and quartiles and the spread (q3 - q1) / median, and says
whether the sets agree within the metric's bound: every spread within
the bound, the two medians apart by at most the bound (as a share of the
first, in either direction), and the same share of failed operations.
With ``--traced`` it also makes traced runs on the first ``TRACED_RUNS``
seeds of the first set and prints the per-layer medians and the tracing
overhead, 1 - traced ops/s / untraced ops/s.
Raw results go to ``.bench_out/steady.json``.  Exits 1 if any check
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
TRACED_RUNS = 3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workloads, seeds, seconds, trace):
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run_once(w, seed, seconds, trace)
            results[w].append(res)
            print(f"  trace={trace} seed={seed} {w}: attempted {res['attempted']} failed {res['failed']}"
                  f" correct {res['correct']}", flush=True)
    return results


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec, first, second):
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n{'workload':15} {'metric':12} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7}  verdict")
    for w in first:
        share = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]) for s in (first, second)]
        if not all(r["correct"] for s in (first, second) for r in s[w]) or share[0] != share[1]:
            ok = False
            print(f"{w}: correct/failed-share check FAILED (failed shares {share})")
        for name, m in bounds.items():
            rows = []
            for s in (first, second):
                values = [r["metrics"][name]["value"] for r in s[w]]
                q1, med, q3 = quartiles(values)
                rows.append((q1, med, q3, (q3 - q1) / med))
            shift = (rows[1][1] - rows[0][1]) / rows[0][1]
            if m["better"] == "higher":
                shift = -shift
            verdicts = [f"spread {'ok' if r[3] <= m['bound'] else 'OVER'}" for r in rows]
            verdicts.append(f"shift {shift:+.3f} {'ok' if abs(shift) <= m['bound'] else 'OVER'} (bound {m['bound']})")
            ok = ok and all("OVER" not in v for v in verdicts)
            for i, (q1, med, q3, spread) in enumerate(rows):
                tail = ", ".join(verdicts) if i == 1 else ""
                print(f"{w:15} {name:12} {'AB'[i]:>3} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:7.3f}  {tail}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true", help="also make traced runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    sets = {}
    for label, first_seed in (("A", 1), ("B", 101)):
        print(f"set {label}", flush=True)
        sets[label] = run_set(workloads, range(first_seed, first_seed + RUNS), seconds, 0)
    if args.traced:
        print("traced set", flush=True)
        sets["traced"] = run_set(workloads, range(1, 1 + TRACED_RUNS), seconds, 1)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets, indent=1))

    ok = compare(spec, sets["A"], sets["B"])
    if args.traced:
        print("\nper-layer medians of the traced set (nonzero only)")
        for w in workloads:
            untraced = statistics.median(
                r["metrics"]["ops_per_s"]["value"] for r in sets["A"][w][:TRACED_RUNS]
            )
            traced = statistics.median(r["metrics"]["trace.ops_per_s"]["value"] for r in sets["traced"][w])
            print(f"{w}: tracing overhead {1 - traced / untraced:+.1%} ({untraced:.4g} -> {traced:.4g} ops/s)")
            for m in spec["per_layer"]:
                med = statistics.median(r["metrics"][m["name"]]["value"] for r in sets["traced"][w])
                if med:
                    print(f"  {m['name']:40} {med:12.5g} {m['unit']}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
