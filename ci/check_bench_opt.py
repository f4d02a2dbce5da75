#!/usr/bin/env python3
"""CI gate for the committed shortcut-optimizer benchmark (BENCH_opt.json).

Validates a micro_opt JSON report. Two modes:

  * committed (default): the report is the repository-root BENCH_opt.json —
    the Pareto-front trajectory the optimizer promised. Beyond the shape,
    this asserts the structural headline claims: the sweep covers multiple
    topology families and sizes, at least one n >= 65536 row ran (the
    DSN-x-n comparison scale in EXPERIMENTS.md), and at least one row
    carries a passing exact-mode estimator cross-check.
  * --smoke: the report came from a fresh small-n CI run used as a
    correctness + JSON-shape smoke; sweep extents are not gated.

In BOTH modes every row's Pareto front must be a strict staircase (cable
strictly ascending, ASPL strictly descending — the front_2d invariant) and
must never be worse than the seed placement: some front point has cable and
ASPL both <= the seed's. These are deterministic optimizer invariants, not
runner-dependent measurements, so a smoke run gates them too.

Exits 1 listing every failed check — never just the first.
"""
import sys

from bench_gate import BenchGate

TOP_KEYS = {"bench", "unit", "passes", "iterations", "plateau", "seed",
            "results"}
ROW_KEYS = {"topology", "family", "n", "links", "shortcuts", "degree_min",
            "degree_max", "degree_avg", "sample_sources", "seed_point",
            "front", "archive_size", "proposals", "accepted", "invalid",
            "full_sweeps", "beats_seed",
            "best_cable_m_at_seed_aspl", "cable_saved_pct", "best_aspl",
            "wall_ms", "proposals_per_sec"}
POINT_KEYS = {"cable_m", "aspl", "max_normalized_load", "throughput_bound",
              "pass", "iteration"}

SCALE_N = 65536


def row_name(row):
    return f"(topology={row.get('topology')}, n={row.get('n')})"


def check_row(gate, path, row):
    name = row_name(row)
    if row["proposals"] <= 0 or row["proposals_per_sec"] <= 0:
        gate.fail(f"{path}: row {name} has non-positive throughput")

    seed = row["seed_point"]
    front = row["front"]
    for point in [seed] + front:
        missing = sorted(POINT_KEYS - set(point))
        if missing:
            gate.fail(f"{path}: row {name} has a front/seed point missing "
                      f"keys {missing}")
            return
    if not front:
        gate.fail(f"{path}: row {name} has an empty Pareto front")
        return

    # front_2d invariant: a strict staircase. Equal-cable or equal-ASPL
    # neighbors mean the dominance filter regressed.
    for a, b in zip(front, front[1:]):
        if not (b["cable_m"] > a["cable_m"] and b["aspl"] < a["aspl"]):
            gate.fail(f"{path}: row {name} front is not a strict staircase "
                      f"at cable {a['cable_m']} -> {b['cable_m']}, "
                      f"aspl {a['aspl']} -> {b['aspl']}")
            break

    # Never worse than the seed: the archive seeds from the unmodified
    # placement, so its staircase must contain a point at least as good on
    # both axes (the seed itself when nothing dominated it).
    if not any(p["cable_m"] <= seed["cable_m"] and p["aspl"] <= seed["aspl"]
               for p in front):
        gate.fail(f"{path}: row {name} front has no point covering the seed "
                  f"(cable <= {seed['cable_m']}, aspl <= {seed['aspl']})")
    if row["best_cable_m_at_seed_aspl"] > seed["cable_m"]:
        gate.fail(f"{path}: row {name} best_cable_m_at_seed_aspl "
                  f"{row['best_cable_m_at_seed_aspl']} exceeds the seed's "
                  f"{seed['cable_m']}")


def check_committed(gate, path, rows):
    families = {row["family"] for row in rows}
    ns = {row["n"] for row in rows}
    if len(families) < 2:
        gate.fail(f"{path}: sweep covers a single family {sorted(families)}; "
                  "need >= 2")
    if len(ns) < 2:
        gate.fail(f"{path}: sweep covers a single size {sorted(ns)}; need >= 2")
    if not any(row["n"] >= SCALE_N for row in rows):
        gate.fail(f"{path}: no n >= {SCALE_N} row — the DSN-x-n comparison "
                  "scale is gone")
    if not any(row.get("check") == "ok" for row in rows):
        gate.fail(f"{path}: no row carries a passing exact-mode estimator "
                  "cross-check")


GATE = BenchGate(name="opt", bench="micro_opt", unit="proposals_per_sec",
                 top_keys=TOP_KEYS, row_keys=ROW_KEYS, row_name=row_name,
                 check_row=check_row, check_committed=check_committed,
                 doc=__doc__,
                 smoke_help="fresh CI run: gate shape + front invariants + "
                            "estimator cross-checks only, no sweep-extent "
                            "gates")

if __name__ == "__main__":
    sys.exit(GATE.run())
