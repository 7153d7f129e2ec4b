"""Tests of the benchmark itself (not of poiscoh).

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

pkg = run.import_program()

SMALL = ["cohomology", "--algebra", "builtin:ut2", "--theory", "hp",
         "--max-degree", "3"]
SMALL_DIMS = [1, 0, 1, 5]


def small_job(want_dims, name="ut2-hp-3"):
    def check(payload, full):
        if payload["dims"] != want_dims:
            return [f"dims {payload['dims']}, expected {want_dims}"]
        return []

    return workloads.cli_job(pkg, name, SMALL, 0, check, None, seed=1)


class TracedRunTest(unittest.TestCase):
    def test_traced_stdout_equals_untraced(self):
        job = small_job(SMALL_DIMS)
        plain = job.run()
        tracer = spans.Tracer()
        instrumentation = spans.Instrumentation(pkg, tracer)
        instrumentation.install()
        try:
            tracer.job = job.name
            traced = job.run()
        finally:
            tracer.job = None
            instrumentation.uninstall()
        self.assertEqual(plain.stdout.encode(), traced.stdout.encode())
        self.assertEqual(plain.code, traced.code)
        names = {s[0] for s in tracer.spans}
        for name in ("cli.main", "cohomology.cohomology_dims",
                     "complexes.build_complex", "complexes.differential",
                     "complexes.delta_H", "linalg.echelon", "linalg.matmul"):
            self.assertIn(name, names)

    def test_wrappers_replace_every_binding_and_come_off(self):
        modules = [m for n, m in sys.modules.items() if n.startswith("poiscoh")]
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, *_ in spans._targets(pkg)]
        instrumentation = spans.Instrumentation(pkg, spans.Tracer())
        instrumentation.install()
        try:
            for owner, attr, original in originals:
                self.assertIsNot(owner.__dict__[attr], original, attr)
                for module in modules:
                    for key, value in vars(module).items():
                        self.assertIsNot(value, original,
                                         f"{module.__name__}.{key} not wrapped")
        finally:
            instrumentation.uninstall()
        for owner, attr, original in originals:
            self.assertIs(owner.__dict__[attr], original)
        self.assertIs(pkg.cli.cohomology_dims, pkg.cohomology.cohomology_dims)
        self.assertIs(pkg.deformation.solve, pkg.linalg.solve)


class CountTest(unittest.TestCase):
    def test_components_of_block_diagonal_matrix(self):
        m = pkg.linalg.SparseMatrix(7, 6)
        blocks = [((0, 1), (0, 1)), ((2, 3, 4), (2, 3)), ((5,), (4,))]
        for rows, cols in blocks:
            for r in rows:
                for c in cols:
                    m[r, c] = r + c + 1
        # row 6 and column 5 are empty and belong to no component
        self.assertEqual(spans.components(m), 3)
        m[6, 5] = 1
        self.assertEqual(spans.components(m), 4)
        m[6, 0] = 2
        self.assertEqual(spans.components(m), 3)

    def test_scalar_products(self):
        a = pkg.linalg.SparseMatrix.from_dense([[1, 0, 2], [0, 3, 0]])
        b = pkg.linalg.SparseMatrix.from_dense([[1, 1], [0, 0], [4, 0]])
        # a[0,0] meets row 0 of b (2 entries), a[0,2] row 2 (1), a[1,1] row 1 (0)
        self.assertEqual(spans.scalar_products(a, b), 3)


class GroupTest(unittest.TestCase):
    def test_each_group_starts_from_cold_caches(self):
        shared = run.Harness(pkg, [[small_job(SMALL_DIMS), small_job(SMALL_DIMS)]])
        split = run.Harness(pkg, [[small_job(SMALL_DIMS)], [small_job(SMALL_DIMS)]])
        (shared_hits, shared_misses), (split_hits, split_misses) = (
            shared.one_pass()["cache"], split.one_pass()["cache"])
        # the same lookups either way; only the split pass misses twice
        self.assertEqual(shared_hits + shared_misses, split_hits + split_misses)
        self.assertEqual(split_misses, 2 * shared_misses)
        self.assertEqual(split.failed, 0)


class FailureTest(unittest.TestCase):
    def test_wrong_expectation_raises_failed_frac(self):
        jobs = [small_job(SMALL_DIMS), small_job([1, 0, 1, 6], name="wrong")]
        with tempfile.TemporaryDirectory() as tmp:
            harness, report = run.traced(pkg, [jobs], 0.01, Path(tmp) / "spans.json")
            written = json.loads((Path(tmp) / "spans.json").read_text())
        self.assertEqual(harness.attempted, 4)  # one traced and one plain pass
        self.assertEqual(harness.failed, 2)
        self.assertEqual(report["metrics"]["failed_frac"]["value"], 0.5)
        self.assertTrue(any("wrong: dims" in p for p in harness.problems))
        self.assertTrue(written["passes"][0])


if __name__ == "__main__":
    unittest.main()
