#!/usr/bin/env python3
"""Self-tests of the repo benchmark runner (stdlib unittest).

    python3 bench/e2e/test_run.py

The compare cases run on synthetic reports; the smoke, seed and stripped-
checkout cases build dsn_e2e and run it at toy sizes.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def report(work, setup=None, failed=0, digest="aaaa"):
    """A synthetic report: one run per value, all of one workload."""
    setup = setup or [1.0] * len(work)
    return {"runs": [{"workload": "flit-low", "attempted": 10, "failed": failed if i == 0 else 0,
                      "digests": {"topology": "t", "output": digest},
                      "metrics": {"work_per_s": w, "setup_s": s}}
                     for i, (w, s) in enumerate(zip(work, setup))]}


def verdict(rows, metric):
    return next(r["verdict"] for r in rows if r["metric"] == metric)


class CompareTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_within_bound(self):
        rows, problems = run.compare(report(self.BASE), report([97, 98, 99, 96, 98]), SPEC)
        self.assertEqual(verdict(rows, "work_per_s"), "within bound")
        self.assertEqual(problems, [])

    def test_regression(self):
        rows, problems = run.compare(report(self.BASE), report([80, 81, 79, 80, 82]), SPEC)
        self.assertEqual(verdict(rows, "work_per_s"), "regressed")
        self.assertEqual(len(problems), 1)

    def test_lower_is_better_regression(self):
        base = report(self.BASE, setup=[1.0, 1.01, 0.99, 1.0, 1.0])
        new = report(self.BASE, setup=[1.4, 1.41, 1.39, 1.4, 1.4])
        rows, _ = run.compare(base, new, SPEC)
        self.assertEqual(verdict(rows, "setup_s"), "regressed")
        self.assertEqual(verdict(rows, "work_per_s"), "within bound")

    def test_setup_floor(self):
        # A few ms of set-up may double without regressing; 20 ms more may not.
        base = report(self.BASE, setup=[0.005, 0.0051, 0.0049, 0.005, 0.005])
        doubled = report(self.BASE, setup=[0.010, 0.0101, 0.0099, 0.010, 0.010])
        slower = report(self.BASE, setup=[0.030, 0.0301, 0.0299, 0.030, 0.030])
        self.assertEqual(verdict(run.compare(base, doubled, SPEC)[0], "setup_s"), "within bound")
        self.assertEqual(verdict(run.compare(base, slower, SPEC)[0], "setup_s"), "regressed")

    def test_unresolved_when_spread_exceeds_bound(self):
        rows, problems = run.compare(report([100, 60, 140, 80, 120]),
                                     report([70, 75, 80, 72, 78]), SPEC)
        self.assertEqual(verdict(rows, "work_per_s"), "unresolved")
        self.assertEqual(problems, [])

    def test_higher_fail_frac_is_rejected(self):
        rows, problems = run.compare(report(self.BASE), report(self.BASE, failed=1), SPEC)
        self.assertEqual(verdict(rows, "fail_frac"), "regressed")
        self.assertTrue(any("fail_frac" in p for p in problems))

    def test_digest_change_is_labelled(self):
        rows, problems = run.compare(report(self.BASE), report(self.BASE, digest="bbbb"), SPEC)
        self.assertEqual(verdict(rows, "output_digest"), "model changed")
        self.assertEqual(problems, [])

    def test_win_fraction(self):
        rows, _ = run.compare(report(self.BASE), report([101, 102, 98, 101.5, 100]), SPEC)
        row = next(r for r in rows if r["metric"] == "work_per_s")
        self.assertAlmostEqual(row["new_win_frac"], 0.8)


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_smoke(self):
        proc = subprocess.run([sys.executable, str(run.SOURCE / "run.py"), "--smoke"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("smoke ok", proc.stdout)

    def test_result_line_shape(self):
        proc = subprocess.run([sys.executable, str(run.SOURCE / "run.py"), "--workload",
                               "analyze", "--smoke", "--seconds", "0", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in run.load_spec()["end_to_end"]})

    def test_emits_exactly_the_declared_layer_metrics(self):
        declared = {m["name"] for m in run.load_spec()["per_layer"]}
        emitted = set()
        for name in run.WORKLOADS:
            emitted |= set(run.run_workload(name, 1, 0, True, smoke=True)["per_layer"])
        self.assertEqual(emitted, declared)

    def test_seed_changes_outputs_but_not_dsn_topologies(self):
        for name in run.WORKLOADS:
            one = run.run_workload(name, 1, 0, False, smoke=True)["digests"]
            two = run.run_workload(name, 2, 0, False, smoke=True)["digests"]
            self.assertEqual(one["topology"], two["topology"], name)
            self.assertNotEqual(one["output"], two["output"], name)

    def test_fails_without_the_library_sources(self):
        # Only BENCHMARK.json and the benchmark directory: the build must fail
        # and no result line may be printed.
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.SOURCE, Path(tmp) / "bench" / "e2e",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "bench/e2e/run.py", "--workload",
                                   "analyze", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
