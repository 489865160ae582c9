"""Smoke tests for the benchmark: the reference checker on the README's worked
example, and every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench          (or: python3 perfbench/test_perfbench.py)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the five-individual example from the project README
EXAMPLE = [
    [1, 1, 1, -1, 1],
    [-1, -1, 1, -1, 1],
    [-1, 1, 1, -1, -1],
    [1, 1, 1, 1, -1],
    [-1, 1, 1, -1, -1],
]
CSR = ("csr", None, None, None)


class ReferenceTest(unittest.TestCase):
    def test_readme_example(self):
        self.assertEqual(ref.evaluate(CSR, EXAMPLE), {1, 2, 4})  # a2 a3 a5
        self.assertEqual(ref.sequential_rounds(CSR, EXAMPLE), [{2}, {1, 2}, {1, 2, 4}])
        self.assertEqual(ref.evaluate(("consent", 1, None, 1), EXAMPLE), {0, 2, 3})  # a1 a3 a4

    def test_consent_duality(self):
        negated = [[-v for v in row] for row in EXAMPLE]
        for s, t in ((1, 1), (2, 1), (1, 3), (3, 2)):
            left = ref.evaluate(("consent", s, None, t), EXAMPLE)
            right = ref.evaluate(("consent", t, None, s), negated)
            self.assertEqual(left, set(range(5)) - right)

    def test_exact_cover(self):
        self.assertTrue(ref.has_exact_cover([{0, 1, 2}, {3, 4, 5}, {0, 3, 4}, {1, 2, 5}, {0, 1, 5}, {2, 3, 4}], 2))
        self.assertFalse(ref.has_exact_cover([{0, 1, 3}, {1, 2, 4}, {2, 3, 5}, {3, 4, 0}, {4, 5, 1}, {5, 0, 2}], 2))

    def test_completions(self):
        grid = [[1, 0], [0, -1]]
        self.assertEqual(len(list(ref.completions(grid))), 4)
        self.assertEqual(len(list(ref.completions(grid, r=1))), 1)
        self.assertEqual(ref.count_completions(grid, r=1), 1)


class WorkloadSmokeTest(unittest.TestCase):
    def run_tiny(self, name, trace):
        result, routes, errors = run.measure(name, seed=3, seconds=0, trace=trace, size=0.05)
        self.assertTrue(result["correct"], errors)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), set(METRICS[trace]))
        return result, routes

    def test_every_workload(self):
        for name in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    result, routes = self.run_tiny(name, trace)
                    # the only failing operation is the non-ASCII eval, once in each of
                    # the run's rounds (two, and as many traced ones with trace on)
                    rounds = run.MIN_ROUNDS * (2 if trace else 1)
                    self.assertEqual(result["failed"], rounds if name == "cli-session" else 0)
                    self.assertTrue(routes or name == "cli-session")

    def test_needs_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "_work"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "attack-fast", "--seed", "1",
                 "--seconds", "1"], cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


def _metric_names():
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}


METRICS = _metric_names()


if __name__ == "__main__":
    unittest.main()
