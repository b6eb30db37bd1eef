#!/usr/bin/env python3
"""Build and run the day-loop benchmark.

    python3 perfbench/run.py --workload campaign|rescan|bootstrap \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus the driver) in
.bench_build/perfbench; later runs rebuild incrementally. Build output
goes to stderr, so the last line on stdout is the driver's JSON result.
Per-run results and traces are written under .bench_build/results.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORKLOADS = ("campaign", "rescan", "bootstrap")


def git_sha():
    """HEAD's commit id, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "hitlist" / "pipeline.h").is_file():
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in 1..3600")

    binary = build()
    sys.stdout.flush()
    return subprocess.run([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(RESULTS_DIR), "--git-sha", git_sha(),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
