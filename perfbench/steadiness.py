#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                    [--workload W ...] [--json FILE]
    python3 perfbench/steadiness.py --from-json FILE [--trace 0|1]

Runs every workload once per seed (seeds first-seed .. first-seed+runs-1)
and prints a markdown table per workload: for each metric the median, the
quartiles and the spread, which is the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.  With
--trace 0 the end-to-end metrics are compared with their bounds in
BENCHMARK.json; with --trace 1 the per-layer metrics are listed.  --json
keeps every run's raw result; --from-json prints the tables of a kept file
without running anything.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--json")
    ap.add_argument("--from-json")
    a = ap.parse_args()
    metrics = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    raw = json.loads(Path(a.from_json).read_text()) if a.from_json else {}
    for w in a.workload or [w for w in names if w in raw or not a.from_json]:
        runs = raw.setdefault(w, [])
        for seed in [] if a.from_json else range(a.first_seed, a.first_seed + a.runs):
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds",
                                    str(bench["run_seconds"]), "--trace", str(a.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            res = json.loads(lines[-1])
            runs.append({"seed": seed, "context": json.loads(lines[-2])["context"],
                         "result": res})
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
        ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
        seeds = [r["seed"] for r in runs]
        print(f"\n### {w}: {len(runs)} runs, seeds {min(seeds)}-{max(seeds)}, "
              f"all correct: {ok}\n")
        print("| metric | median | q1 | q3 | spread | bound | spread/bound |")
        print("|---|---:|---:|---:|---:|---:|---:|")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  + (f"{bound} | {spread / bound:.3f} |" if bound else "| |"))
        sys.stdout.flush()
    if a.json and not a.from_json:
        Path(a.json).write_text(json.dumps(raw) + "\n")


if __name__ == "__main__":
    main()
