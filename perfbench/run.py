#!/usr/bin/env python3
"""Build and run the psnap benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a psnap checkout.  The benchmark is built from source
with dune, then run once; its last line of standard output is the result
JSON.  The benchmark process is pinned to one CPU, the last it may run
on: its domains (the ABD replicas too) time-share that core, which keeps
the run-to-run spread low on small shared hosts.  Peak resident memory
(`peak_rss_mb`) is the benchmark process's maximum RSS as reported by the
kernel when it exits.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "main.exe"
OUT = ROOT / "perfbench" / "out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        sys.exit("perfbench: the psnap sources are missing; run from a checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run(args):
    """Runs the benchmark binary; returns (exit status, stdout lines, peak RSS in MB)."""
    p = subprocess.Popen([str(EXE)] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(p.stdout))
    reader.start()
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        reader.join()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, lines, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")
    build()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if a.selftest:
        code, lines, _ = run(["--selftest"])
        sys.stdout.write("".join(lines))
        sys.exit(code)
    OUT.mkdir(exist_ok=True)
    code, lines, rss_mb = run([
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(OUT)])
    if code != 0 or not lines:
        sys.exit(f"perfbench: benchmark exited with status {code}")
    result = json.loads(lines[-1])
    if a.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    sys.stdout.write("".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
