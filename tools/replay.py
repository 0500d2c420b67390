"""Replay a benchmark op list and record every result bit for bit.

Runs the first N ops of ``perfbench/workloads.build_ops(workload, seed)``
in order (cycling, as the benchmark worker does), with no deadline and no
timing, and writes one JSON line per op to stdout:

    {"op": i, "label": ..., "fields": {field: hash}, "check": None or why,
     "counts": {"scores": n, "_frank_wolfe": n, "_ascend": n, "lp_solves": n}}

``fields`` hashes each field of the result (a dataclass; anything else is
one field, ``value``): arrays by dtype, shape and bytes, floats by their
hex form, containers item by item.  An op that raises has ``"error"`` in
place of ``fields``.  ``counts`` are the op's calls of
``solver._Objective.scores``, ``solver._frank_wolfe``, ``solver._ascend``
and ``solver._LinearProgram.solve`` (``lp_solves``: the linear steps on
several rows, and the Kelley games).  The totals, the replay's CPU time
and the process's peak resident set (``ru_maxrss``, in MB) go to stderr.
Exit status 1 when an op raised or failed its check.

    python tools/replay.py points --seed 5 --ops 128 > change.jsonl
    python tools/replay.py --diff parent.jsonl change.jsonl

Besides the benchmark's workloads, three corpora are built here from
``--seed`` and kept out of the benchmark: ``wide``, alphabets wider than
any of theirs (``wide_ops``); ``blocks``, block channels of sparse, dense
and mixed factors (``blocks_ops``), whose ops hash the support each block
holds besides its fields; and ``several``, points under 2 and 3 budgets
(``several_ops``), whose binding ones run Frank-Wolfe on one linear program
re-optimized at every step, checked against scipy's HiGHS.

``--diff`` prints each op whose label, fields, check or error changed and
the count deltas, and exits 1 if anything differs.  A count that a file
made by an older copy of this script lacks reads as absent and is not
compared.  Compare two checkouts by running each one's copy of this
script; it imports the ``src`` and ``perfbench`` next to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("scores", "_frank_wolfe", "_ascend", "lp_solves")
WORKLOADS = ("points", "outer", "large", "wide", "blocks", "several")
# wide: budgeted points on Dirichlet(0.3) channels with |S| = 3 and |Y| = 8,
# at these fractions of [d_min, d_max]; then simulate on a |X| = 4, |S| = 2,
# |Y| = 2,000 channel, where draws are per row, at these sample counts.
WIDE_INPUTS = (1024, 4096)
WIDE_FRACTIONS = (0.2, 0.5, 0.8)
WIDE_SIM_SAMPLES = (100, 10_000)
# several: random channels, each with a 2-row and a 3-row budget set, at
# these fractions of [budget game value, largest cost].
SEVERAL_CHANNELS = 4
SEVERAL_FRACTIONS = (0.2, 0.5, 0.8)


def _feed(h, obj) -> None:
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, (tuple, list)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def _hash(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def field_hashes(result) -> dict[str, str]:
    if dataclasses.is_dataclass(result):
        return {f.name: _hash(getattr(result, f.name)) for f in dataclasses.fields(result)}
    return {"value": _hash(result)}


def _install_counters(counts: dict[str, int]) -> None:
    from capdist import solver

    def counting(owner, name, key=None):
        target = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key or name] += 1
            return target(*args, **kwargs)

        setattr(owner, name, wrapper)

    counting(solver._Objective, "scores")
    counting(solver, "_frank_wolfe")
    counting(solver, "_ascend")
    counting(solver._LinearProgram, "solve", "lp_solves")


def dual_bound(a: np.ndarray, b: np.ndarray) -> float:
    """min over lam >= 0 of max_x (a_x - lam * b_x), in O(|X|) per step.

    The objective is convex in lam and -b at its maximizing letter is a
    subgradient, so lam is found by 100 halvings of a bracket on that sign;
    any lam gives a valid upper bound, so the bracket's better end is
    returned.  +inf when
    every b_x > 0 (no law meets the budget).
    """
    def at(lam):
        line = a - lam * b
        x = int(np.argmax(line))
        return float(line[x]), -float(b[x])

    value, slope = at(0.0)
    if slope >= 0.0:
        return value
    if np.all(b > 0.0):
        return math.inf
    lo, hi = 0.0, 1.0
    while at(hi)[1] < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if at(mid)[1] < 0.0:
            lo = mid
        else:
            hi = mid
    return min(at(lo)[0], at(hi)[0])


def check_wide_point(model, point) -> str | None:
    """``checks.point_validity`` (budget met, capacity = I(law)) and a dual
    gap <= ``checks.POINT_TOL`` from ``dual_bound``: O(|X| |Y|) where
    ``checks.check_point_dual`` tries every crossing of two letters' lines."""
    import checks

    import capdist as cd

    probs, budget = point.optimizer.probs, point.distortion_budget
    cost = cd.optimal_estimator(model).cost_vector
    mi = cd.mutual_information(model, probs)
    bad = checks.point_validity(point, budget, cost, mi)
    if bad:
        return bad
    a = checks._kl_rows(model.output_given_input, cd.output_marginal(model, probs))
    gap = dual_bound(a, checks._excess(cost, budget)) - mi
    if not gap <= checks.POINT_TOL:
        return f"dual gap {gap:.3e} > {checks.POINT_TOL:.0e}"
    return None


def wide_ops(seed: int) -> list:
    """Three budgets per ``WIDE_INPUTS`` channel, then simulate at each of
    ``WIDE_SIM_SAMPLES``.  A channel's feasible range is solved by the
    first of its ops that runs and shared by the others."""
    import checks
    from workloads import Op

    import capdist as cd

    rng = np.random.default_rng(seed)
    ops = []
    for nx in WIDE_INPUTS:
        model = cd.validate_channel(rng.dirichlet(np.full(8, 0.3), size=(nx, 3)),
                                    rng.dirichlet(np.ones(3)), 1.0 - np.eye(3))
        span = functools.cache(lambda m=model: cd.feasible_range(m))
        for frac in WIDE_FRACTIONS:
            ops.append(Op(f"capacity_distortion_point/dirichlet |X|={nx}",
                          lambda m=model, s=span, f=frac: cd.capacity_distortion_point(
                              m, s()[0] + f * (s()[1] - s()[0])),
                          lambda pt, m=model: check_wide_point(m, pt)))
    model = cd.validate_channel(rng.dirichlet(np.ones(2000), size=(4, 2)),
                                rng.dirichlet(np.ones(2)), 1.0 - np.eye(2))
    probs, cost = np.full(4, 0.25), cd.optimal_estimator(model).cost_vector
    for n in WIDE_SIM_SAMPLES:
        sim_seed = int(rng.integers(2**31))
        ops.append(Op(f"simulate/dirichlet |Y|=2000 n={n}",
                      lambda m=model, n=n, s=sim_seed: cd.simulate(m, probs, n, s),
                      lambda rep, m=model, n=n: checks.check_simulation(m, probs, cost, n, rep)))
    return ops


@dataclasses.dataclass(frozen=True)
class BlockBuild:
    """What a ``blocks`` op records: the block model's fields and the
    support it holds, from its factors or from a scan on this first read."""

    transition: np.ndarray
    state_prior: np.ndarray
    distortion: np.ndarray
    support: object


def check_block_build(build: BlockBuild, block_len: int) -> str | None:
    """Rows sum to 1 within 4 K eps, and the support is a fresh scan's."""
    from capdist.channel import ChannelModel

    off = float(np.max(np.abs(build.transition.sum(axis=2) - 1.0)))
    if not off <= 4 * block_len * np.finfo(np.float64).eps:
        return f"row sums off by {off:.3e}"
    if _hash(ChannelModel(build.transition, build.state_prior, build.distortion)._support) != _hash(build.support):
        return "support differs from a scan of the tensor"
    return None


def blocks_ops(seed: int) -> list:
    """``block_to_super_symbol`` on: random sparse factors (|X| = 3, |S| = 2,
    |Y| = 6, two nonzeros per row) at K = 3, 4 and 5, a Dirichlet 2 x 2 x 2
    base at K = 6, a base with one such sparse state and one Dirichlet state
    at K = 5, and the additive mod-2 channel at K = 9, 10 and 11."""
    from workloads import Op

    import capdist as cd

    rng = np.random.default_rng(seed)

    def sparse_rows(nx, ny):
        rows = np.zeros((nx, ny))
        for x in range(nx):
            rows[x, rng.choice(ny, 2, replace=False)] = rng.dirichlet(np.ones(2))
        return rows

    def channel(states):
        return cd.validate_channel(np.stack(states, axis=1), rng.dirichlet(np.ones(len(states))),
                                   1.0 - np.eye(len(states)))

    cases = [(f"sparse 3x2x6 K={k}", channel([sparse_rows(3, 6), sparse_rows(3, 6)]), k) for k in (3, 4, 5)]
    cases.append(("dirichlet 2x2x2 K=6", channel(list(rng.dirichlet(np.ones(2), size=(2, 2)))), 6))
    cases.append(("mixed 3x2x6 K=5", channel([sparse_rows(3, 6), rng.dirichlet(np.ones(6), size=3)]), 5))
    mod2 = cd.additive_mod2_model(float(rng.uniform(0.1, 0.4)))
    cases += [(f"additive_mod2 K={k}", mod2, k) for k in (9, 10, 11)]

    def build(base, k):
        model = cd.block_to_super_symbol(base, k)
        return BlockBuild(model.transition, model.state_prior, model.distortion, model._support)

    return [Op(f"block_to_super_symbol/{name}", lambda b=base, k=k: build(b, k),
               lambda built, k=k: check_block_build(built, k)) for name, base, k in cases]


def check_several_point(model, rows: np.ndarray, budgets: np.ndarray, point) -> str | None:
    """Every budget met to ``checks.COST_TOL``, capacity = I(law) to
    ``checks.MI_TOL``, and a gap of at most ``checks.POINT_TOL`` to the
    Lagrangian bound max_x [D(P(.|x) || q) - mu . (rows[:, x] - budgets)]
    at the law's output law q, with multipliers mu >= 0 from scipy's HiGHS.
    Any mu gives an upper bound; rows are scaled to a largest entry of 1
    for HiGHS, and a cost a rounding error above its budget is put on it
    (``checks._excess``)."""
    import checks
    from scipy.optimize import linprog

    import capdist as cd

    probs = point.optimizer.probs
    spent = rows @ probs
    if np.any(spent > budgets + checks.COST_TOL):
        return f"{checks.INVALID}: costs {spent.tolist()} over budgets {budgets.tolist()}"
    mi = cd.mutual_information(model, probs)
    if abs(point.capacity - mi) > checks.MI_TOL:
        return f"{checks.INVALID}: capacity {point.capacity:.12g} != I(p) {mi:.12g}"
    divergence = checks._kl_rows(model.output_given_input, cd.output_marginal(model, probs))
    excess = np.stack([checks._excess(row, b) for row, b in zip(rows, budgets)])
    scale = np.abs(excess).max(axis=1)
    scale[scale == 0.0] = 1.0
    m = rows.shape[0]
    a_ub = np.hstack([-(excess / scale[:, None]).T, -np.ones((rows.shape[1], 1))])
    res = linprog(np.r_[np.zeros(m), 1.0], A_ub=a_ub, b_ub=-divergence,
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    if not res.success:
        return f"dual LP failed: {res.message}"
    mu = np.maximum(res.x[:m], 0.0) / scale
    gap = float(np.max(divergence - mu @ excess)) - mi
    if gap < -checks.MI_TOL:
        return f"{checks.INVALID}: capacity above the dual bound by {-gap:.3e}"
    if not gap <= checks.POINT_TOL:
        return f"dual gap {gap:.3e} > {checks.POINT_TOL:.0e}"
    return None


def several_ops(seed: int) -> list:
    """``multi_constraint_point`` under 2 and 3 rows, d* and uniform random
    costs, on ``SEVERAL_CHANNELS`` Dirichlet channels with |X| 3-16, |S|
    2-3, |Y| 2-5 and Hamming distortion.  The rows share one budget, at
    each of ``SEVERAL_FRACTIONS`` of the way from the budget game's value
    (min over laws of the largest cost, by scipy's HiGHS) to the largest
    cost."""
    from workloads import Op, _common_min_cost

    import capdist as cd

    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(SEVERAL_CHANNELS):
        nx, ns, ny = int(rng.integers(3, 17)), int(rng.integers(2, 4)), int(rng.integers(2, 6))
        model = cd.validate_channel(rng.dirichlet(np.full(ny, 0.5), size=(nx, ns)),
                                    rng.dirichlet(np.ones(ns)), 1.0 - np.eye(ns))
        cost = cd.optimal_estimator(model).cost_vector
        for m in (2, 3):
            rows = np.vstack([cost, rng.uniform(0.0, 1.0, (m - 1, nx))])
            lo, hi = _common_min_cost(rows), float(rows.max())
            for frac in SEVERAL_FRACTIONS:
                budgets = np.full(m, lo + frac * (hi - lo))
                ops.append(Op(f"multi_constraint_point/dirichlet |X|={nx} {m} rows",
                              lambda md=model, r=rows, b=budgets: cd.multi_constraint_point(
                                  md, [cd.CostConstraint(row, float(x)) for row, x in zip(r, b)]),
                              lambda pt, md=model, r=rows, b=budgets: check_several_point(md, r, b, pt)))
    return ops


CORPORA = {"wide": wide_ops, "blocks": blocks_ops, "several": several_ops}


def record(workload: str, seed: int, n_ops: int) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ops = CORPORA[workload](seed) if workload in CORPORA else workloads.build_ops(workload, seed)
    counts = dict.fromkeys(COUNTED, 0)
    _install_counters(counts)
    totals = dict.fromkeys(COUNTED, 0)
    failed = 0
    start = time.process_time()
    for i in range(n_ops):
        op = ops[i % len(ops)]
        counts.update(dict.fromkeys(COUNTED, 0))
        line = {"op": i, "label": op.label}
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - a raise is a recorded outcome
            line["error"] = f"{type(exc).__name__}: {exc}"
            failed += 1
        else:
            line["fields"] = field_hashes(result)
            line["check"] = op.check(result)
            failed += line["check"] is not None
            del result
        line["counts"] = dict(counts)
        for name in COUNTED:
            totals[name] += counts[name]
        print(json.dumps(line), flush=True)
    cpu = time.process_time() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"{workload} seed {seed}: {n_ops} ops, {failed} failed, counts {totals}, {cpu:.2f} s CPU, "
          f"{peak:.1f} MB peak RSS", file=sys.stderr)
    return 1 if failed else 0


def _load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def diff(path_a: str, path_b: str) -> int:
    a, b = _load(path_a), _load(path_b)
    changed = 0
    if len(a) != len(b):
        print(f"op count: {len(a)} -> {len(b)}")
        changed += 1
    for old, new in zip(a, b):
        keys = [k for k in ("label", "fields", "check", "error") if old.get(k) != new.get(k)]
        if keys:
            changed += 1
            fields = [f for f in {**old.get("fields", {}), **new.get("fields", {})}
                      if old.get("fields", {}).get(f) != new.get("fields", {}).get(f)]
            print(f"op {old['op']} {old['label']}: {', '.join(keys)} changed"
                  + (f" (fields: {', '.join(fields)})" if fields else ""))
            for k in ("check", "error"):
                if old.get(k) != new.get(k):
                    print(f"    {k}: {old.get(k)!r} -> {new.get(k)!r}")
    for name in COUNTED:
        before, after = (sum(line["counts"][name] for line in lines)
                         if all(name in line["counts"] for line in lines) else None for lines in (a, b))
        if before is None or after is None:
            print(f"{name}: {'absent' if before is None else before} -> {'absent' if after is None else after}")
            continue
        changed += before != after
        print(f"{name}: {before} -> {after} ({after - before:+d})")
    print(f"{changed} difference(s) over {min(len(a), len(b))} ops")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="?", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--ops", type=int, default=8, help="number of ops to replay")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two replay files")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.workload is None:
        parser.error("a workload or --diff is required")
    return record(args.workload, args.seed, args.ops)


if __name__ == "__main__":
    sys.exit(main())
