#!/usr/bin/env python3
"""Repo benchmark runner: builds dsn_e2e, runs the workloads, compares reports.

    python3 bench/e2e/run.py                      # all workloads, end-to-end metrics
    python3 bench/e2e/run.py --trace              # all workloads, per-layer metrics + traces
    python3 bench/e2e/run.py --workload analyze --seed 2 --seconds 10 --trace 0
    python3 bench/e2e/run.py --sets 5 --out base.json
    python3 bench/e2e/run.py --compare base.json new.json
    python3 bench/e2e/run.py --smoke              # toy sizes, every check, < 20 s

Metric names, units and bounds come from BENCHMARK.json at the repository
root. With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Exit codes: 0 all checks passed,
1 a correctness check failed (or --compare found a regression), 2 dsn_e2e
could not be built or run. See bench/e2e/README.md.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "e2e"
OUT = ROOT / ".bench_build" / "e2e-out"
BINARY = BUILD / "dsn_e2e"
WORKLOADS = ["flit-low", "flit-busy", "flow-shuffle", "analyze", "anneal"]
THREADS = "4"
RUN_TIMEOUT_S = 170
# setup_s may worsen by its bound or by 20 ms, whichever is larger: a few
# milliseconds of set-up move with the machine more than with the code.
SETUP_FLOOR_S = 0.020


class BenchError(Exception):
    """dsn_e2e could not be built or run (exit code 2)."""


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def build():
    """Configure once, then let the build tool bring dsn_e2e up to date."""
    try:
        if not (BUILD / "Makefile").exists():
            subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "dsn_e2e",
                        "-j", THREADS], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"building dsn_e2e failed: {e}") from e


def trace_balanced(path):
    """True when every thread's B/E events nest properly in the Chrome trace."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    stacks = {}
    for ev in events:
        stack = stacks.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif ev["ph"] == "E" and (not stack or stack.pop() != ev["name"]):
            return False
    return all(not s for s in stacks.values())


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload in its own dsn_e2e process; return its report.

    The report gains "trace_file" and, when the Chrome trace is unbalanced, a
    failure; a nonzero exit without a report raises BenchError.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"bench-trace-{name}.json"
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--smoke", "1" if smoke else "0"]
    env = dict(os.environ, DSN_THREADS=THREADS, DSN_OBS="0")
    try:
        proc = subprocess.run(cmd, env=env, cwd=OUT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{name}: dsn_e2e exceeded {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{name}: dsn_e2e exited {proc.returncode}")
    report = json.loads(lines[-1])
    if trace:
        report["trace_file"] = str(trace_file)
        if not trace_balanced(trace_file):
            report["failed"] += 1
            report["failures"].append("unbalanced Chrome trace")
    return report


def result_metrics(report, spec, trace):
    """The report's metrics, by BENCHMARK.json name, with their units."""
    if trace:
        source, names = report["per_layer"], spec["per_layer"]
    else:
        source, names = report["end_to_end"], spec["end_to_end"]
    # A layer the workload never calls reports 0 (e.g. sim.* on analyze).
    return {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
            for m in names}


def provenance(reports, seed):
    """Build, machine and configuration of a set of reports."""
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    first = reports[0]["build"] if reports else {}
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "build_type": first.get("build_type"),
        "compiler": first.get("compiler"),
        "dsn_obs": first.get("dsn_obs"),
        "pool_workers": first.get("pool_workers"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "config": {r["workload"]: r["config"] for r in reports},
    }


def print_provenance(prov):
    for key, value in prov.items():
        if key != "config":
            print(f"# {key}: {value}")
    for name, cfg in prov["config"].items():
        print(f"# config {name}: {json.dumps(cfg)}")


def print_report(report, metrics):
    fail_frac = report["failed"] / max(1, report["attempted"])
    print(f"{report['workload']}: {report['attempted']} ops, fail_frac {fail_frac:g}, "
          f"{len(report['samples']['op_ms'])} timed samples, "
          f"digests output {report['digests']['output']} "
          f"topology {report['digests']['topology']}, "
          f"host slowdown {report['host']['slowdown']:.4g}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def print_spans(report):
    print("  spans (calls, total ms, self ms):")
    for name, s in report["spans"].items():
        print(f"    {name:30s} {s['calls']:>6} {s['total_ms']:>12.3f} {s['self_ms']:>12.3f}")


def run_sets(args, spec):
    """Every workload (or --workload), --sets times; the runs go to --out for
    --compare. A single run of one workload ends with the benchmark's result
    object as the last stdout line."""
    workloads = [args.workload] if args.workload else WORKLOADS
    runs, failed = [], False
    for _ in range(args.sets):
        for name in workloads:
            report = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            metrics = result_metrics(report, spec, args.trace)
            if not runs:
                print_provenance(provenance([report], args.seed))
            print_report(report, metrics)
            if args.trace:
                print_spans(report)
                print(f"  trace: {report['trace_file']}")
            failed |= report["failed"] > 0
            runs.append({"workload": name, "attempted": report["attempted"],
                         "failed": report["failed"], "digests": report["digests"],
                         "metrics": {k: m["value"] for k, m in metrics.items()},
                         "config": report["config"], "build": report["build"]})
    out = Path(args.out) if args.out else OUT / ("trace.json" if args.trace else "report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"provenance": provenance(runs, args.seed), "trace": bool(args.trace), "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    if len(runs) == 1:
        print(json.dumps({"correct": not failed, "attempted": report["attempted"],
                          "failed": report["failed"], "metrics": metrics}))
    return 1 if failed else 0


def run_smoke(spec):
    """Toy sizes, traced and untraced: every check and the result shape."""
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, 1, 0, trace, smoke=True)
            metrics = result_metrics(report, spec, trace)
            problems += [f"{name}: {f}" for f in report["failures"]]
            expected = spec["per_layer" if trace else "end_to_end"]
            if [m["name"] for m in expected] != list(metrics):
                problems.append(f"{name}: metric names differ from BENCHMARK.json")
            for key, m in metrics.items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{name}: {key} is not a number")
            if not trace and any(m["value"] <= 0 for m in metrics.values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
            print(f"smoke {name} trace={int(trace)}: {report['attempted']} ops, "
                  f"{report['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


# --------------------------------------------------------------------------
# --compare
# --------------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base, new, spec):
    """Rows of (workload, metric) verdicts plus the list of blocking problems.

    A metric regresses when the new median is worse than the base median by
    more than its allowance: the bound times the base median, and for
    setup_s at least SETUP_FLOOR_S. It is unresolved when the base runs'
    inter-quartile range exceeds the allowance, unless every new run beats
    every base run. A higher failure share always regresses.
    """
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, problems = [], []

    def by_workload(doc):
        out = {}
        for run in doc["runs"]:
            out.setdefault(run["workload"], []).append(run)
        return out

    b_runs, n_runs = by_workload(base), by_workload(new)
    for name in [w for w in b_runs if w in n_runs]:
        b, n = b_runs[name], n_runs[name]
        b_fail = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        n_fail = sum(r["failed"] for r in n) / max(1, sum(r["attempted"] for r in n))
        if n_fail > b_fail:
            rows.append({"workload": name, "metric": "fail_frac", "base": b_fail,
                         "new": n_fail, "verdict": "regressed"})
            problems.append(f"{name}: fail_frac rose from {b_fail:g} to {n_fail:g}")
        b_dig = {r["digests"]["output"] for r in b}
        n_dig = {r["digests"]["output"] for r in n}
        if b_dig != n_dig:
            rows.append({"workload": name, "metric": "output_digest",
                         "base": sorted(b_dig), "new": sorted(n_dig),
                         "verdict": "model changed"})
        for metric, m in bounds.items():
            bv = [r["metrics"][metric] for r in b if metric in r["metrics"]]
            nv = [r["metrics"][metric] for r in n if metric in r["metrics"]]
            if not bv or not nv:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            bq, nq = quartiles(bv), quartiles(nv)
            pairs = list(zip(bv, nv))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            allowance = m["bound"] * abs(bq[1])
            if metric == "setup_s":
                allowance = max(allowance, SETUP_FLOOR_S)
            worse = sign * (bq[1] - nq[1])
            if all(sign * (y - x) > 0 for x in bv for y in nv):
                verdict = "within bound"
            elif bq[2] - bq[0] > allowance:
                verdict = "unresolved"
            elif worse > allowance:
                verdict = "regressed"
                problems.append(f"{name}: {metric} median worse by {worse:.6g} {m['unit']} "
                                f"(allowed {allowance:.6g})")
            else:
                verdict = "within bound"
            rows.append({"workload": name, "metric": metric, "unit": m["unit"],
                         "base_quartiles": bq, "new_quartiles": nq,
                         "new_win_frac": wins / len(pairs), "worse": worse,
                         "allowance": allowance, "verdict": verdict})
    return rows, problems


def run_compare(base_path, new_path, spec):
    try:
        base = json.loads(Path(base_path).read_text())
        new = json.loads(Path(new_path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read reports: {e}") from e
    rows, problems = compare(base, new, spec)
    for r in rows:
        if "base_quartiles" in r:
            bq, nq = r["base_quartiles"], r["new_quartiles"]
            print(f"{r['workload']:13s} {r['metric']:12s} base {bq[1]:.6g} [{bq[0]:.6g}, "
                  f"{bq[2]:.6g}]  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {r['unit']}  "
                  f"new wins {100 * r['new_win_frac']:.0f}%  {r['verdict']}")
        else:
            print(f"{r['workload']:13s} {r['metric']:12s} base {r['base']} new {r['new']}  "
                  f"{r['verdict']}")
    for p in problems:
        print(f"REGRESSION: {p}")
    return 1 if problems else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and print the result object last")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement budget per run (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1 (or bare --trace): per-layer metrics from traced operations")
    p.add_argument("--sets", type=int, default=1, help="repeat the workload set")
    p.add_argument("--out", help="report path of a multi-workload run")
    p.add_argument("--smoke", action="store_true", help="toy sizes, every check")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return run_compare(*args.compare, spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        if args.smoke and not args.workload:
            return run_smoke(spec)
        return run_sets(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
