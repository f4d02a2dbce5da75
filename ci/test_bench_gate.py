#!/usr/bin/env python3
"""Self-test for the shared committed-bench gate plumbing (bench_gate.py)
and the four gates built on it. Stdlib-only; wired into ctest as
bench_gate.selftest alongside slint.selftest.

Covers the BenchGate framework (shape gating, check-field verdicts, hook
dispatch, smoke-vs-committed modes, exit codes, output contract) against a
toy gate, then runs each real gate against its committed repository-root
baseline and against synthetic violations of its headline invariants.
"""
import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench_gate import BenchGate  # noqa: E402
import check_bench_flow  # noqa: E402
import check_bench_graph  # noqa: E402
import check_bench_opt  # noqa: E402
import check_bench_sim  # noqa: E402


def toy_gate(**overrides):
    committed_calls = []

    def check_committed(gate, path, rows):
        committed_calls.append(len(rows))
        if len(rows) < 2:
            gate.fail(f"{path}: need >= 2 rows")

    def check_row(gate, path, row):
        if row["value"] <= 0:
            gate.fail(f"{path}: row {gate.row_name(row)} non-positive")

    kwargs = dict(name="toy", bench="micro_toy", unit="widgets_per_sec",
                  top_keys={"bench", "unit", "results"},
                  row_keys={"name", "value"},
                  row_name=lambda row: f"(name={row.get('name')})",
                  check_row=check_row, check_committed=check_committed)
    kwargs.update(overrides)
    gate = BenchGate(**kwargs)
    gate.committed_calls = committed_calls
    return gate


def good_report():
    return {"bench": "micro_toy", "unit": "widgets_per_sec",
            "results": [{"name": "a", "value": 1},
                        {"name": "b", "value": 2, "check": "ok"}]}


def run_gate(gate, report, *args):
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(report, f)
        path = f.name
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gate.run([path, *args])
    finally:
        os.unlink(path)
    return code, out.getvalue(), err.getvalue()


class BenchGateFrameworkTest(unittest.TestCase):
    def test_pass_committed(self):
        gate = toy_gate()
        code, out, err = run_gate(gate, good_report())
        self.assertEqual(code, 0, err)
        self.assertIn("toy-bench-gate: all checks passed (committed, 2 rows)",
                      out)
        self.assertEqual(gate.committed_calls, [2])

    def test_smoke_skips_committed_hook(self):
        gate = toy_gate()
        report = good_report()
        report["results"] = report["results"][:1]  # would fail committed
        code, out, _ = run_gate(gate, report, "--smoke")
        self.assertEqual(code, 0)
        self.assertIn("(smoke, 1 rows)", out)
        self.assertEqual(gate.committed_calls, [])

    def test_committed_hook_failure(self):
        gate = toy_gate()
        report = good_report()
        report["results"] = report["results"][:1]
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("need >= 2 rows", err)

    def test_top_key_mismatch_reports_and_stops(self):
        gate = toy_gate()
        report = good_report()
        report["extra"] = 1
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("top-level keys", err)
        self.assertEqual(gate.committed_calls, [])

    def test_wrong_bench_and_unit(self):
        gate = toy_gate()
        report = good_report()
        report["bench"] = "micro_other"
        report["unit"] = "other"
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("bench 'micro_other' != 'micro_toy'", err)
        self.assertIn("unit 'other' != 'widgets_per_sec'", err)

    def test_empty_results(self):
        gate = toy_gate()
        report = good_report()
        report["results"] = []
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("empty results array", err)

    def test_missing_row_keys_skip_row_hooks(self):
        gate = toy_gate()
        report = good_report()
        # Missing 'value' AND a failing check verdict: the row must report
        # the missing keys once, not crash inside check_row.
        report["results"][0] = {"name": "a", "check": "bad"}
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("missing keys ['value']", err)
        self.assertNotIn("check='bad'", err)

    def test_check_verdict_gated_in_smoke_mode(self):
        gate = toy_gate()
        report = good_report()
        report["results"][1]["check"] = "mismatch"
        code, _, err = run_gate(gate, report, "--smoke")
        self.assertEqual(code, 1)
        self.assertIn("check='mismatch'", err)

    def test_row_hook_failure(self):
        gate = toy_gate()
        report = good_report()
        report["results"][0]["value"] = 0
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("non-positive", err)

    def test_all_failures_listed(self):
        gate = toy_gate()
        report = good_report()
        report["results"][0]["value"] = 0
        report["results"][1]["check"] = "bad"
        code, _, err = run_gate(gate, report)
        self.assertEqual(code, 1)
        self.assertIn("2 check(s) failed", err)

    def test_unreadable_report(self):
        gate = toy_gate()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gate.run(["/nonexistent/bench.json"])
        self.assertEqual(code, 1)
        self.assertIn("cannot load JSON", err.getvalue())


class CommittedBaselineTest(unittest.TestCase):
    """Every real gate must pass on its committed repository-root baseline
    (the same invocation CI runs), except BENCH_opt.json which may not exist
    yet in a fresh checkout mid-PR — its gate is exercised synthetically
    below."""

    def run_real(self, module, baseline, *args):
        path = os.path.join(REPO_ROOT, baseline)
        if not os.path.exists(path):
            self.skipTest(f"{baseline} not committed")
        out, err = io.StringIO(), io.StringIO()
        module.GATE.errors = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = module.GATE.run([path, *args])
        self.assertEqual(code, 0, err.getvalue())
        self.assertIn("all checks passed", out.getvalue())

    def test_sim_baseline(self):
        self.run_real(check_bench_sim, "BENCH_sim.json")

    def test_flow_baseline(self):
        self.run_real(check_bench_flow, "BENCH_flow.json")

    def test_graph_baseline(self):
        self.run_real(check_bench_graph, "BENCH_graph.json")

    def test_opt_baseline(self):
        self.run_real(check_bench_opt, "BENCH_opt.json")


class FlowGateInvariantTest(unittest.TestCase):
    """Synthetic violations of the flow gate's per-row invariants."""

    def make_report(self):
        def row(topology, n, workload, check=None):
            r = {"topology": topology, "n": n, "hosts": 4 * n,
                 "workload": workload, "flows": 64, "flits": 4096,
                 "epochs": 3, "waterfill_rounds_max": 5,
                 "waterfill_rounds_total": 12, "converged": True,
                 "makespan_cycles": 900.0, "per_host_flits_per_cycle": 0.01,
                 "wall_ms": 2.0, "flows_per_sec": 32000.0}
            if check is not None:
                r["check"] = check
            return r

        return {"bench": "micro_flow", "unit": "flows_per_sec",
                "clients": 16, "shuffle_clients": 8, "units": 4,
                "unit_flits": 64, "window": 4, "min_epoch_cycles": 512,
                "results": [row("dsn-11-4096", 4096, "hdfs-write", check="ok"),
                            row("dln-18-262144", 262144, "shuffle")]}

    def run_flow(self, report, *args):
        gate = copy.copy(check_bench_flow.GATE)
        gate.errors = []
        return run_gate(gate, report, *args)

    def assert_fails_both_modes(self, report, message):
        for mode in ([], ["--smoke"]):
            code, _, err = self.run_flow(report, *mode)
            self.assertEqual(code, 1, mode)
            self.assertIn(message, err)
            self.assertIn("1 check(s) failed", err)

    def test_synthetic_committed_pass(self):
        for mode in ([], ["--smoke"]):
            code, _, err = self.run_flow(self.make_report(), *mode)
            self.assertEqual(code, 0, err)

    def test_fewer_rounds_than_epochs(self):
        report = self.make_report()
        report["results"][1].update(epochs=10, waterfill_rounds_max=3,
                                    waterfill_rounds_total=8)
        self.assert_fails_both_modes(
            report, "ran 10 epochs but only 8 water-filling rounds")

    def test_round_max_above_total(self):
        report = self.make_report()
        report["results"][1].update(epochs=1, waterfill_rounds_max=5,
                                    waterfill_rounds_total=4)
        self.assert_fails_both_modes(
            report, "waterfill_rounds_max 5 exceeds waterfill_rounds_total 4")

    def test_round_total_above_epochs_times_max(self):
        report = self.make_report()
        report["results"][1].update(epochs=2, waterfill_rounds_max=3,
                                    waterfill_rounds_total=7)
        self.assert_fails_both_modes(
            report, "waterfill_rounds_total 7 exceeds epochs x "
                    "waterfill_rounds_max = 6")

    def test_non_converged_row(self):
        report = self.make_report()
        report["results"][0]["converged"] = False
        self.assert_fails_both_modes(report, "did not converge")

    def test_rounds_over_ceiling(self):
        report = self.make_report()
        over = check_bench_flow.ROUNDS_CEILING + 1
        report["results"][1].update(epochs=1, waterfill_rounds_max=over,
                                    waterfill_rounds_total=over)
        self.assert_fails_both_modes(
            report, f"needed {over} water-filling rounds in one solve")


class OptGateInvariantTest(unittest.TestCase):
    """Synthetic violations of the opt gate's front invariants."""

    def make_report(self):
        def point(cable, aspl):
            return {"cable_m": cable, "aspl": aspl,
                    "max_normalized_load": 1.0, "throughput_bound": 1.0,
                    "pass": 0, "iteration": 0}

        def row(family, n, check=None):
            r = {"topology": f"{family}-{n}", "family": family, "n": n,
                 "links": 10, "shortcuts": 4, "degree_min": 2,
                 "degree_max": 4, "degree_avg": 3.0, "sample_sources": 16,
                 "seed_point": point(100.0, 5.0),
                 "front": [point(90.0, 5.0), point(95.0, 4.5)],
                 "archive_size": 2, "proposals": 10, "accepted": 5,
                 "invalid": 2, "full_sweeps": 8,
                 "beats_seed": True, "best_cable_m_at_seed_aspl": 90.0,
                 "cable_saved_pct": 10.0, "best_aspl": 4.5, "wall_ms": 1.0,
                 "proposals_per_sec": 10000.0}
            if check is not None:
                r["check"] = check
            return r

        return {"bench": "micro_opt", "unit": "proposals_per_sec",
                "passes": 1, "iterations": 10, "plateau": 5, "seed": 1,
                "results": [row("dsn", 1024, check="ok"),
                            row("dln", 65536)]}

    def run_opt(self, report, *args):
        check_bench_opt.GATE.errors = []
        gate = copy.copy(check_bench_opt.GATE)
        gate.errors = []
        return run_gate(gate, report, *args)

    def test_synthetic_committed_pass(self):
        code, _, err = self.run_opt(self.make_report())
        self.assertEqual(code, 0, err)

    def test_non_monotone_front(self):
        report = self.make_report()
        report["results"][0]["front"][1]["aspl"] = 5.0  # not descending
        code, _, err = self.run_opt(report)
        self.assertEqual(code, 1)
        self.assertIn("not a strict staircase", err)

    def test_front_worse_than_seed(self):
        report = self.make_report()
        for row in report["results"]:
            row["front"] = [{"cable_m": 101.0, "aspl": 4.9,
                             "max_normalized_load": 1.0,
                             "throughput_bound": 1.0, "pass": 0,
                             "iteration": 0}]
            row["best_cable_m_at_seed_aspl"] = 100.0
        code, _, err = self.run_opt(report)
        self.assertEqual(code, 1)
        self.assertIn("no point covering the seed", err)

    def test_empty_front(self):
        report = self.make_report()
        report["results"][0]["front"] = []
        code, _, err = self.run_opt(report)
        self.assertEqual(code, 1)
        self.assertIn("empty Pareto front", err)

    def test_sweeps_not_one_per_valid_proposal(self):
        report = self.make_report()
        report["results"][1]["full_sweeps"] = 9  # 10 proposals - 2 invalid
        for mode in ([], ["--smoke"]):
            code, _, err = self.run_opt(report, *mode)
            self.assertEqual(code, 1, mode)
            self.assertIn("ran 9 full sweeps for 8 valid proposals", err)

    def test_missing_scale_row(self):
        report = self.make_report()
        report["results"][1]["n"] = 4096
        report["results"][1]["topology"] = "dln-4096"
        code, _, err = self.run_opt(report)
        self.assertEqual(code, 1)
        self.assertIn("no n >= 65536 row", err)
        # ... but a smoke run does not gate sweep extents.
        code, _, err = self.run_opt(report, "--smoke")
        self.assertEqual(code, 0, err)


if __name__ == "__main__":
    unittest.main()
