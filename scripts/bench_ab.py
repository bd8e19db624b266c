#!/usr/bin/env python3
"""Same-machine A/B perf gate: the working tree against a base revision.

    python3 scripts/bench_ab.py BASE

Copies BASE (any git revision) and the working tree as it is on disk into
two sibling temporary directories, so both sides build from scratch and run
from equally long paths.  Runs each side's own benchmark (BENCHMARK.json's
`command`) on every workload PAIRS times, alternating which side goes first,
with the same --seed and --seconds, and prints each end-to-end metric's
median and quartiles per side.  Exits 1 when a run fails, or when the
working tree's median is worse than BASE's by more than the metric's
BENCHMARK.json `bound` (a fraction of BASE's median, in the direction of
`better`).  Only numbers taken on one machine in one session are compared.
"""
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
SECONDS = 10
SEED = 1


def run_failed(result):
    """A run fails when it printed no result, or a result that is not correct."""
    return result is None or not result.get("correct")


def quartiles(values):
    """(q1, median, q3) of at least two `values`."""
    return statistics.quantiles(values, n=4, method="inclusive")


def relative_loss(base, head, better):
    """How much worse `head` is than `base`, as a fraction of `base` (<= 0: not worse)."""
    return ((base - head) if better == "higher" else (head - base)) / base


def verdict(base_runs, head_runs, end_to_end):
    """Compare one workload's runs of both sides.

    `base_runs` and `head_runs` are lists of zdbench result objects (None for
    a run that printed none); `end_to_end` is BENCHMARK.json's list of
    {name, better, bound}.  Returns (rows, problems): one row per metric with
    each side's (q1, median, q3), and one line per reason to fail.
    """
    problems = []
    for side, runs in (("base", base_runs), ("head", head_runs)):
        bad = sum(1 for r in runs if run_failed(r))
        if bad:
            problems.append("%s: %d of %d runs failed" % (side, bad, len(runs)))
    if problems:
        return [], problems
    rows = []
    for m in end_to_end:
        name = m["name"]
        base = quartiles([r["metrics"][name]["value"] for r in base_runs])
        head = quartiles([r["metrics"][name]["value"] for r in head_runs])
        loss = relative_loss(base[1], head[1], m["better"])
        rows.append((name, base, head, loss))
        if loss > m["bound"]:
            problems.append("%s: median %.6g -> %.6g is %.1f %% worse (bound %.0f %%, %s is "
                            "better)" % (name, base[1], head[1], 100 * loss, 100 * m["bound"],
                                         m["better"]))
    return rows, problems


def run_once(command, root, workload):
    """One benchmark run from checkout `root`; its result object or None."""
    args = command + ["--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)]
    # A session of its own, so an interrupted gate can stop the benchmark
    # binary that run.py started, not just run.py.
    proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or run_failed(result):
        sys.stderr.write("bench_ab: %s run in %s failed (exit %d)\n%s%s\n"
                         % (workload, root, proc.returncode, err[-2000:], out[-2000:]))
        return None
    return result


def git(*args, env=None):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args), env=env, check=True,
                          stdout=subprocess.PIPE).stdout


def extract(tree_ish, dest):
    """Write the files of `tree_ish` into the new directory `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", tree_ish))) as tar:
        tar.extractall(dest)


def working_tree(scratch):
    """The tree id of the working tree as it is on disk.  A throwaway index
    leaves HEAD, the real index and every ref untouched."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "index"))
    git("add", "--all", env=env)
    return git("write-tree", env=env).decode().strip()


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        sys.exit("usage: bench_ab.py BASE")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    scratch = Path(tempfile.mkdtemp(prefix="zd_bench_ab."))
    sides = {"base": scratch / "base", "head": scratch / "head"}
    failed = False
    try:
        extract(argv[1], sides["base"])
        extract(working_tree(scratch), sides["head"])
        for w in spec["workloads"]:
            workload = w["name"]
            runs = {"base": [], "head": []}
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(command, sides[side], workload))
            rows, problems = verdict(runs["base"], runs["head"], spec["end_to_end"])
            print("%s: %d pairs of %g s runs, seed %d; median [q1, q3], then how much"
                  " better (+) or worse (-) head is" % (workload, PAIRS, SECONDS, SEED))
            for name, base, head, loss in rows:
                print("  %-14s base %-32s head %-32s %+6.1f %%"
                      % (name, "%.4g [%.4g, %.4g]" % (base[1], base[0], base[2]),
                         "%.4g [%.4g, %.4g]" % (head[1], head[0], head[2]), -100 * loss))
            for p in problems:
                print("  FAIL %s %s" % (workload, p))
            sys.stdout.flush()
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("bench_ab: %s against %s" % ("FAILED" if failed else "passed", argv[1]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
