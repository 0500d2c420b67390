"""capdist benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload points --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``points`` (single points and curves on
tiny channels), ``outer`` (cpud and compound, thousands of point solves per
op) and ``large`` (block channels K = 9-11 and 1e6-sample simulation).

``--trace 0`` prints the end-to-end metrics: ops_per_s, op_ms_p50,
op_ms_p90 (Harrell-Davis quantiles of the op times), peak_rss_mb and
setup_s, plus fail_frac with its counts by kind.
``--trace 1`` first repeats the untraced run, then replays the same ops in
a traced process and prints the per-layer metrics and trace_overhead_frac.
A run executes the first ``--seconds x NOMINAL_OPS_PER_S`` ops of its
workload (see there for how long they take).
The last stdout line is one JSON object: correct, attempted, failed,
metrics.

Every workload runs in fresh single-threaded processes (BLAS thread
variables set to 1), one after another.  Set-up time is the CPU time a
fresh process takes to start, import capdist and generate the inputs: the
median over SETUPS such processes.  Op times are the worker's CPU time
(see ``tracing.clock``) summed only over the ops themselves: the output
checks run between ops, outside the timed region.  Each op's time is
divided by its own machine-speed factor (see ``worker.py``); the
per-family table shows them as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("points", "outer", "large")
SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The whole command must end within 180 s; workers get what is left of this.
TOTAL_BUDGET_S = 170.0
# A worker starts no op after what is left of TOTAL_BUDGET_S minus this, so
# that the op it is running can still end.
LAST_OP_MARGIN_S = 30.0
KINDS = ("raise", "warning", "deadline", "check")
# A run executes the first --seconds x this many ops of its workload: a
# fixed amount of work, so every run of a workload covers the same ops (its
# op list mixes heavy and light channels, and a run that stops on time
# covers a different mix in a slow machine phase).  At --seconds 25 that is
# 128 points ops (about 13 library channels, with their iteration-cap
# warning, 3 check failures and 1 deadline), 14 outer ops (each scalar case
# once, cpud r = 0.1 twice, 7 random families, the last one stopped by its
# deadline) and 96 large ops (6 whole rounds).  The counts keep the whole
# command set of the benchmark (22 runs per workload) within its time
# limit when the machine is in its slow state.
NOMINAL_OPS_PER_S = {"points": 5.12, "outer": 0.56, "large": 3.84}


def worker(args, mode: str, started: float, *extra: str) -> dict:
    """Run worker.py to completion; return its JSON output."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, TOTAL_BUDGET_S - (time.perf_counter() - started)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "READY":
        raise RuntimeError(f"worker {mode} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics.  Unlike a single order statistic it does not jump
    between neighbouring ops when a run has few ops (``outer`` has ~15)."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(xs)))


def outcome_counts(run: dict) -> dict[str, int]:
    counts = {kind: 0 for kind in KINDS}
    for _, _, outcome, _, _ in run["records"]:
        if outcome != "ok":
            counts[outcome] += 1
    return counts


def report_ops(run: dict) -> None:
    """Per input family: count, median and max time, failures by kind."""
    by_label: dict[str, list] = {}
    for label, seconds, outcome, detail, _ in run["records"]:
        by_label.setdefault(label, []).append((seconds, outcome, detail))
    print(f"{'op/input family':44s} {'n':>4s} {'p50_ms':>10s} {'max_ms':>10s}  failed")
    for label, rows in by_label.items():
        times = [t for t, _, _ in rows]
        failed = [o for _, o, _ in rows if o != "ok"]
        print(f"{label:44s} {len(rows):4d} {statistics.median(times) * 1e3:10.2f} "
              f"{max(times) * 1e3:10.2f}  {', '.join(failed)}")
    for label, seconds, outcome, detail, wrong in run["records"]:
        if outcome in ("raise", "check", "warning"):
            print(f"  {outcome}: {label}: {detail}")


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "capdist", "__init__.py")):
        print("perfbench: run from the repository root (src/capdist not found)", file=sys.stderr)
        return 2

    n_ops = max(1, round(args.seconds * NOMINAL_OPS_PER_S[args.workload]))

    def budget(ops: int, share: float = 1.0) -> tuple[str, ...]:
        left = TOTAL_BUDGET_S - (time.perf_counter() - started) - LAST_OP_MARGIN_S
        return "--ops", str(ops), "--stop-after", str(max(1.0, share * left))

    if args.trace:
        # The untraced pass, for trace_overhead_frac, covers the first half
        # of the ops; the traced pass, about 1.2x slower, covers them all.
        run = worker(args, "run", started, *budget(max(1, n_ops // 2), 0.3))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        traced = worker(args, "trace", started, *budget(n_ops), "--trace-file", trace_file)
        n_ops = len(traced["records"])
        common = min(n_ops, len(run["records"]))
        overhead = sum(traced["scaled"][:common]) / sum(run["scaled"][:common]) - 1.0
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["per_layer"].items()}
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        shown = traced
        checked = (run, traced)
        print(f"traced {n_ops} ops; spans in {os.path.relpath(trace_file)}")
        if traced["absent"]:
            print(f"absent hooks (their counters are left out): {', '.join(traced['absent'])}")
    else:
        setups = [worker(args, "setup", started)["setup_s"] for _ in range(SETUPS)]
        run = worker(args, "run", started, *budget(n_ops))
        times = run["scaled"]
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_ms_p50": {"value": hd_quantile(times, 0.5) * 1e3, "unit": "ms"},
            "op_ms_p90": {"value": hd_quantile(times, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        shown = run
        checked = (run,)

    machine = shown["machine"]
    counts = outcome_counts(shown)
    attempted = len(shown["records"])
    failed = sum(counts.values())
    print(f"capdist benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"deadline {shown['deadline_s']} s per budget point at nominal speed; {attempted} ops in "
          f"{shown['measured_s']:.2f} s of op time")
    print(f"machine speed factor: median {shown['speed_factor']:.4f} over the ops, from "
          f"{shown['reference_samples']} reference-kernel samples against {shown['reference_ms']} ms; "
          "each op's time is divided by its own factor")
    report_ops(shown)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':32s} {failed / attempted:14.6g} ({failed} failed / {attempted} attempted: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()) + ")")
    tests = [r["self_test"] for r in checked]
    for test in tests:
        for problem in test["problems"]:
            print(f"self-test FAILED: {problem}")
    wrong = sum(rec[4] for r in checked for rec in r["records"])
    if wrong:
        print(f"{wrong} results are invalid (wrong answers, not missed tolerances)")
    correct = all(t["ok"] for t in tests) and wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
