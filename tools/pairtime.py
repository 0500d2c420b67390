"""Time two checkouts of capdist against each other, op by op, in one process.

    python tools/pairtime.py PARENT CHANGE --workload points --ops 128 --reps 8
    python tools/pairtime.py PARENT CHANGE --workload outer --ops 48 --reps 8 --label compound_cd

Each checkout's ``src/capdist`` is copied into a temporary directory as the
packages ``capdist_a`` (PARENT) and ``capdist_b`` (CHANGE), and each side's
op list is built by that checkout's own ``perfbench/workloads.py`` (and
``checks.py``) bound to its package.  Every rep then runs the first N ops
(cycling, as the benchmark worker does) with the two sides alternated per
op, the side that goes first alternating too, and sums each side's thread
CPU time over the op calls; output checks are not run.  A rep's ratio is
CHANGE / PARENT CPU; the script prints each rep's totals and the ratios'
median, min and max.  Alternating within one process pairs both sides with
the same machine state, so a ratio holds steady where whole-process totals
of one checkout swing by half.  An op that raises is reported and exits 1.

``--label PREFIX`` times only those of the first N ops whose label starts
with PREFIX (the alternation follows their order), and also prints each
one's CHANGE / PARENT CPU summed over the reps, and the median of these
per-op ratios.  No op matching exits 2.

BLAS runs one thread, as in the benchmark worker.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("points", "outer", "large")


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side_ops(root: Path, package: str, workload: str, seed: int) -> list:
    """``workloads.build_ops(workload, seed)`` of the checkout at ``root``,
    with ``capdist`` (in workloads and checks alike) bound to ``package``."""
    sys.modules["capdist"] = importlib.import_module(package)
    try:
        _load_module("checks", root / "perfbench" / "checks.py")
        workloads = _load_module("workloads", root / "perfbench" / "workloads.py")
        return workloads.build_ops(workload, seed)
    finally:
        for name in ("capdist", "checks", "workloads"):
            sys.modules.pop(name, None)


def _timed(op) -> tuple[float, str | None]:
    """(CPU seconds, error or None) of one op call; the result is freed
    after the clock is read, as in the benchmark worker."""
    start = time.thread_time()
    try:
        result = op.call()  # noqa: F841
    except Exception as exc:  # noqa: BLE001 - a raise is reported, not timed away
        return time.thread_time() - start, f"{type(exc).__name__}: {exc}"
    return time.thread_time() - start, None


def pair(parent: Path, change: Path, workload: str, seed: int, n_ops: int, reps: int,
         label: str | None = None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for package, root in (("capdist_a", parent), ("capdist_b", change)):
            shutil.copytree(root / "src" / "capdist", Path(tmp) / package,
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        ops = {"a": side_ops(parent, "capdist_a", workload, seed),
               "b": side_ops(change, "capdist_b", workload, seed)}
        chosen = [i for i in range(n_ops)
                  if label is None or ops["a"][i % len(ops["a"])].label.startswith(label)]
        if not chosen:
            print(f"no op of the first {n_ops} has a label starting with {label!r}", file=sys.stderr)
            return 2
        per_op = {i: {"a": 0.0, "b": 0.0} for i in chosen}
        ratios, errors = [], 0
        for rep in range(reps):
            total = {"a": 0.0, "b": 0.0}
            for k, i in enumerate(chosen):
                for side in ("ab" if k % 2 == 0 else "ba"):
                    op = ops[side][i % len(ops[side])]
                    seconds, error = _timed(op)
                    total[side] += seconds
                    per_op[i][side] += seconds
                    if error is not None:
                        errors += 1
                        print(f"rep {rep} op {i} {op.label} ({side}): {error}", file=sys.stderr)
            ratio = total["b"] / total["a"] if total["a"] > 0 else float("nan")
            ratios.append(ratio)
            print(f"rep {rep}: parent {1e3 * total['a']:.1f} ms, change {1e3 * total['b']:.1f} ms,"
                  f" ratio {ratio:.4f}", flush=True)
    if label is not None:
        op_ratios = []
        for i in chosen:
            a, b = per_op[i]["a"], per_op[i]["b"]
            op_ratios.append(b / a if a > 0 else float("nan"))
            print(f"op {i} {ops['a'][i % len(ops['a'])].label}: parent {1e3 * a:.2f} ms,"
                  f" change {1e3 * b:.2f} ms, ratio {op_ratios[-1]:.4f}")
        print(f"{label}: {len(chosen)} ops, per-op change/parent CPU ratio median"
              f" {statistics.median(op_ratios):.4f}")
    timed = f"{len(chosen)} of {n_ops}" if label is not None else f"{n_ops}"
    print(f"{workload} seed {seed}, {timed} ops x {reps} reps: change/parent CPU ratio median"
          f" {statistics.median(ratios):.4f} (min {min(ratios):.4f}, max {max(ratios):.4f})")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout root of the parent side (A)")
    parser.add_argument("change", type=Path, help="checkout root of the change side (B)")
    parser.add_argument("--workload", choices=WORKLOADS, default="points")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=128, help="ops per rep")
    parser.add_argument("--reps", type=int, default=4)
    parser.add_argument("--label", metavar="PREFIX", help="time only the ops whose label starts with PREFIX")
    args = parser.parse_args(argv)
    return pair(args.parent.resolve(), args.change.resolve(), args.workload, args.seed, args.ops, args.reps,
                args.label)


if __name__ == "__main__":
    sys.exit(main())
