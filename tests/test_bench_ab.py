#!/usr/bin/env python3
"""Verdict logic of scripts/bench_ab.py, fed canned zdbench results."""
import importlib.util
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep scripts/ free of __pycache__
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "cells_per_s", "better": "higher", "bound": 0.25},
    {"name": "cell_s_p50", "better": "lower", "bound": 0.25},
]


def result(cells_per_s, cell_s_p50, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {"cells_per_s": {"value": cells_per_s, "unit": "1/s"},
                        "cell_s_p50": {"value": cell_s_p50, "unit": "s"}}}


BASE = [result(v, 1.0 / v) for v in (7.6, 7.9, 8.1, 7.7, 8.0)]


class Verdict(unittest.TestCase):
    def test_within_the_bound_passes(self):
        head = [result(v, 1.0 / v) for v in (6.9, 7.1, 7.3, 7.0, 7.2)]
        rows, problems = bench_ab.verdict(BASE, head, END_TO_END)
        self.assertEqual(problems, [])
        self.assertEqual([r[0] for r in rows], ["cells_per_s", "cell_s_p50"])

    def test_higher_is_better_metric_past_its_bound_fails(self):
        # Throughput down 30 %, per-cell time unchanged.
        head = [result(0.7 * r["metrics"]["cells_per_s"]["value"],
                       r["metrics"]["cell_s_p50"]["value"]) for r in BASE]
        _, problems = bench_ab.verdict(BASE, head, END_TO_END)
        self.assertEqual(len(problems), 1)
        self.assertIn("cells_per_s", problems[0])

    def test_lower_is_better_metric_past_its_bound_fails(self):
        # Per-cell time up 40 %, throughput unchanged.
        head = [result(r["metrics"]["cells_per_s"]["value"],
                       1.4 * r["metrics"]["cell_s_p50"]["value"]) for r in BASE]
        _, problems = bench_ab.verdict(BASE, head, END_TO_END)
        self.assertEqual(len(problems), 1)
        self.assertIn("cell_s_p50", problems[0])

    def test_a_failed_run_fails(self):
        for head in (BASE[:4] + [result(8.0, 0.125, correct=False)], BASE[:4] + [None]):
            _, problems = bench_ab.verdict(BASE, head, END_TO_END)
            self.assertEqual(len(problems), 1)
            self.assertIn("head: 1 of 5 runs failed", problems[0])
        _, problems = bench_ab.verdict([None] + BASE[1:], BASE, END_TO_END)
        self.assertIn("base: 1 of 5 runs failed", problems[0])


if __name__ == "__main__":
    sys.exit(unittest.main())
