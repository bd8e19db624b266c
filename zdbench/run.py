#!/usr/bin/env python3
"""Build and run the zdbench benchmark from the root of a checkout.

    python3 zdbench/run.py --workload archive_census --seed 1 --seconds 30 --trace 0
    python3 zdbench/run.py --self-test

The first form builds zdbench (a CMake package in this directory that
compiles the library from ../src) into .bench_build/zdbench, then runs one
workload; the last line of stdout is the result JSON.  Build output goes to
stderr.  Exit status is the benchmark's: 0 when every output check passed.

--self-test checks the benchmark's attribution: it injects a fixed busy
delay into the benchmark's own wrapper around LoadJob::run and checks that
the delay lands in workload.load_busy_s, lowers archive_census cells_per_s,
and leaves campaign alone.  Only the first check tests the span attribution;
the other two confirm where the benchmark's own spin lands (README.md).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "zdbench"
BINARY = BUILD / "zdbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("archive_census", "traffic_census", "campaign")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("zdbench: no library sources at %s (run from a full checkout)" % (ROOT / "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "zdbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("zdbench: build failed: %s" % " ".join(cmd))


def run_binary(args, capture=False):
    cmd = [str(BINARY), "--out-dir", str(OUT_DIR)] + args
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def metric(result, name):
    return result["metrics"][name]["value"]


def self_test(seconds):
    """Injected LoadJob::run delay: where must it show, and where not."""
    delay = "3"  # microseconds per run, ~0.2 s per 70k-run archive season
    failures = []

    def measure(workload, trace, name):
        """Median `name` over three base and three delayed runs, alternated
        so that a drift of the machine's speed hits both sides alike."""
        base, slow = [], []
        for seed in (1, 2, 3):
            for extra, into in (([], base), (["--inject-load-delay-us", delay], slow)):
                code, result = run_binary(["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(seconds), "--trace", trace] + extra,
                                          capture=True)
                if code != 0 or result is None or not result["correct"]:
                    failures.append("%s trace=%s %s: run failed" % (workload, trace, extra))
                    return None
                into.append(result)
        return (statistics.median(metric(r, name) for r in base),
                statistics.median(metric(r, name) for r in slow), base[0])

    checks = []
    got = measure("archive_census", "0", "cells_per_s")
    if got:
        b, s, _ = got
        checks.append(("archive_census cells_per_s drops", s < 0.9 * b, b, s))
    got = measure("archive_census", "1", "workload.load_busy_s")
    if got:
        b, s, first = got
        want = metric(first, "workload.load_runs") * float(delay) * 1e-6
        checks.append(("workload.load_busy_s grows by the injected delay",
                       0.8 * want < s - b < 1.5 * want, b, s))
    got = measure("campaign", "0", "cells_per_s")
    if got:
        # The campaign makes no LoadJob::run calls, so only noise may move
        # it: allow the campaign's 0.25 bound from BENCHMARK.json.
        b, s, _ = got
        checks.append(("campaign cells_per_s unchanged", abs(s - b) < 0.25 * b, b, s))

    for name, ok, before, after in checks:
        print("%-50s %s  (%.6g -> %.6g)" % (name, "ok" if ok else "FAILED", before, after))
        if not ok:
            failures.append(name)
    for f in failures:
        print("self-test failure: " + f)
    return 1 if failures or len(checks) < 3 else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring budget per run (default 30; 6 with --self-test)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        return self_test(args.seconds or 6)
    code, _ = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", repr(args.seconds or 30), "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
