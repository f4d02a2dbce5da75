#!/usr/bin/env python3
"""CI shape gate for the committed flow-tier benchmark (BENCH_flow.json).

Validates a micro_flow JSON report. Two modes:

  * committed (default): the report is the repository-root BENCH_flow.json —
    the scale trajectory the flow tier promised. Beyond the shape, this
    asserts the headline claims future PRs must not regress structurally:
    every run converged, the sweep covers multiple topology families, sizes
    and workloads, at least one row simulates >= 1,000,000 hosts (the scale
    point the flit simulator cannot reach), at least one row carries a
    passing max-min invariant check, and no water-filling solve needed more
    than ROUNDS_CEILING rounds (the progressive water-filling bound is one
    saturated resource per round; a blow-up here means the solver's freeze
    cascade regressed).
  * --smoke: the report came from a fresh small-n CI run used as a
    correctness + JSON-shape smoke; only the shape, convergence and the
    invariant checks are gated — never timings or sweep extents, which
    depend on the runner.

In both modes the round counters must describe the work a row measured:
every epoch solves once with at least one round, so
epochs <= waterfill_rounds_total and
waterfill_rounds_max <= waterfill_rounds_total <= epochs * waterfill_rounds_max.

Exits 1 listing every failed check — never just the first.
"""
import sys

from bench_gate import BenchGate

TOP_KEYS = {"bench", "unit", "clients", "shuffle_clients", "units",
            "unit_flits", "window", "min_epoch_cycles", "results"}
ROW_KEYS = {"topology", "n", "hosts", "workload", "flows", "flits", "epochs",
            "waterfill_rounds_max", "waterfill_rounds_total", "converged",
            "makespan_cycles", "per_host_flits_per_cycle", "wall_ms",
            "flows_per_sec"}

SCALE_HOSTS = 1_000_000
ROUNDS_CEILING = 4096


def row_name(row):
    return (f"(topology={row.get('topology')}, n={row.get('n')}, "
            f"workload={row.get('workload')})")


def check_row(gate, path, row):
    if row["flows"] <= 0 or row["flits"] <= 0 or row["flows_per_sec"] <= 0:
        gate.fail(f"{path}: row {row_name(row)} has non-positive volume")
    if row["converged"] is not True:
        gate.fail(f"{path}: row {row_name(row)} did not converge")
    epochs = row["epochs"]
    rounds_max = row["waterfill_rounds_max"]
    rounds_total = row["waterfill_rounds_total"]
    if rounds_max > ROUNDS_CEILING:
        gate.fail(f"{path}: row {row_name(row)} needed {rounds_max} "
                  f"water-filling rounds in one solve; ceiling is "
                  f"{ROUNDS_CEILING}")
    if epochs > rounds_total:
        gate.fail(f"{path}: row {row_name(row)} ran {epochs} epochs but "
                  f"only {rounds_total} water-filling rounds; every epoch "
                  f"solves with at least one round")
    if rounds_max > rounds_total:
        gate.fail(f"{path}: row {row_name(row)} waterfill_rounds_max "
                  f"{rounds_max} exceeds waterfill_rounds_total {rounds_total}")
    if rounds_total > epochs * rounds_max:
        gate.fail(f"{path}: row {row_name(row)} waterfill_rounds_total "
                  f"{rounds_total} exceeds epochs x waterfill_rounds_max = "
                  f"{epochs * rounds_max}")
    # The 'check' field (gated by bench_gate) is the per-solve max-min
    # invariant verification on rows up to --verify-max-n.


def check_committed(gate, path, rows):
    topologies = {row["topology"] for row in rows}
    ns = {row["n"] for row in rows}
    workloads = {row["workload"] for row in rows}
    if len(topologies) < 2:
        gate.fail(f"{path}: sweep covers a single topology "
                  f"{sorted(topologies)}; need >= 2 families")
    if len(ns) < 2:
        gate.fail(f"{path}: sweep covers a single size {sorted(ns)}; need >= 2")
    if len(workloads) < 2:
        gate.fail(f"{path}: sweep covers a single workload "
                  f"{sorted(workloads)}; need >= 2")
    if not any(row["hosts"] >= SCALE_HOSTS for row in rows):
        gate.fail(f"{path}: no hosts >= {SCALE_HOSTS} row — the million-host "
                  "scale target is gone")
    if not any(row.get("check") == "ok" for row in rows):
        gate.fail(f"{path}: no row carries a passing max-min invariant check")


GATE = BenchGate(name="flow", bench="micro_flow", unit="flows_per_sec",
                 top_keys=TOP_KEYS, row_keys=ROW_KEYS, row_name=row_name,
                 check_row=check_row, check_committed=check_committed,
                 doc=__doc__,
                 smoke_help="fresh CI run: gate shape + convergence + "
                            "invariant checks only, no sweep-extent gates")

if __name__ == "__main__":
    sys.exit(GATE.run())
