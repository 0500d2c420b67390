"""Command-line front end.

Channel descriptions are JSON documents, either explicit

    {
      "sizes": {"x": 2, "y": 2, "s": 2},
      "transition": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
      "state_prior": [0.6, 0.4],
      "distortion": [[0.0, 1.0], [1.0, 0.0]],
      "compound": {"priors": [[0.7, 0.3], [0.6, 0.4]]}   // optional
    }

or a named preset, {"preset": "scalar_multiplicative r=0.4"}.  Presets:
scalar_multiplicative r=R, block_multiplicative r=R K=K, additive_mod2 r=R.
Anywhere a spec path is expected, a bare preset string may be passed instead
of a filename.

Exit codes: 0 success, 2 malformed input (a NaN budget included) or an
input too large for memory, 3 infeasible budget or constraint set, 4 solver
could not converge or certify, a fault of its own linear programs (a
singular basis, an unbounded program, a vertex off the simplex) included.
Rates print in nats; --bits adds the base-2 conversion where supported.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import analytic
from .channel import (
    ChannelModel,
    InputDistribution,
    optimal_estimator,
    validate_channel,
)
from .errors import (
    CapdistError,
    InfeasibleConstraints,
    InfeasibleDistortion,
    NotCertified,
    SolverNonmonotone,
)
from .extensions import (
    CompoundFamily,
    compound_cd,
    cpud_ratio_formula,
    cpud_sup_definition,
)
from .simulate import simulate
from .solver import _check_budgets, capacity_distortion_point, cd_curve

LN2 = math.log(2.0)

CSV_HEADER = "D,capacity_nats,capacity_bits,constraint_active"

# Each builder reads its parameters through get(name, type).
_PRESETS = {
    "scalar_multiplicative": lambda get: analytic.scalar_multiplicative_model(get("r", float)),
    "block_multiplicative": lambda get: analytic.block_multiplicative_model(get("r", float), get("K", int)),
    "additive_mod2": lambda get: analytic.additive_mod2_model(get("r", float)),
}


# ---------------------------------------------------------------------------
# channel description files
# ---------------------------------------------------------------------------


def _parse_preset(text: str) -> ChannelModel:
    tokens = text.split()
    if not tokens or tokens[0] not in _PRESETS:
        raise ValueError(f"unknown preset {text!r}; expected one of {', '.join(_PRESETS)}")
    name, params = tokens[0], {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"preset parameter {tok!r} is not key=value")
        key, _, val = tok.partition("=")
        params[key] = val

    def get(key: str, kind: type):
        if key not in params:
            raise ValueError(f"preset {name!r} requires {key}=")
        value = params.pop(key)
        try:
            return kind(value)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"preset {name!r}: parameter {key}={value} is not {what}") from None

    model = _PRESETS[name](get)
    if params:
        raise ValueError(f"preset {name!r}: unexpected parameters {sorted(params)}")
    return model


def _floats(value, field: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field '{field}' must be an array of numbers: {exc}") from None


def load_spec(path_or_preset: str) -> tuple[ChannelModel, np.ndarray | None]:
    """Load a channel description file (or inline preset string).

    Returns (model, compound_priors_or_None), the priors a (k, |S|) array.
    """
    if os.path.exists(path_or_preset):
        with open(path_or_preset, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    elif path_or_preset.split() and path_or_preset.split()[0] in _PRESETS:
        doc = {"preset": path_or_preset}
    else:
        raise ValueError(f"no such file or preset: {path_or_preset!r}")
    if not isinstance(doc, dict):
        raise ValueError("channel description must be a JSON object")

    compound = None
    if "compound" in doc:
        block = doc["compound"]
        if not isinstance(block, dict) or not isinstance(block.get("priors"), list):
            raise ValueError("field 'compound' must be an object with a 'priors' list")
        compound = [_floats(prior, f"compound.priors[{i}]") for i, prior in enumerate(block["priors"])]

    if "preset" in doc:
        model = _parse_preset(str(doc["preset"]))
    else:
        for field in ("transition", "state_prior", "distortion"):
            if field not in doc:
                raise ValueError(f"missing required field '{field}'")
        sizes = doc.get("sizes", {})
        if not isinstance(sizes, dict):
            raise ValueError("field 'sizes' must be an object such as {\"x\": 2, \"y\": 2, \"s\": 2}")
        for axis in "xys":
            if sizes.get(axis) is not None and type(sizes[axis]) is not int:
                raise ValueError(f"field 'sizes.{axis}' must be an integer")
        model = validate_channel(
            *(_floats(doc[field], field) for field in ("transition", "state_prior", "distortion")),
            input_size=sizes.get("x"),
            output_size=sizes.get("y"),
            state_size=sizes.get("s"),
        )
    if compound is not None:
        if not compound:
            raise ValueError("field 'compound.priors' must list at least one prior")
        for i, prior in enumerate(compound):
            if prior.shape != (model.state_size,):
                found = f"{prior.size} entries" if prior.ndim == 1 else f"shape {prior.shape}"
                raise ValueError(f"field 'compound.priors[{i}]' has {found}, expected {model.state_size}")
        compound = np.stack(compound)
    return model, compound


# ---------------------------------------------------------------------------
# delimited curve output
# ---------------------------------------------------------------------------


def _sig(v: float) -> str:
    return f"{v:.12g}"


def format_curve_rows(rows) -> str:
    """Render (D, nats, bits, active) rows in the curve file format."""
    lines = [CSV_HEADER]
    for budget, nats, bits, active in rows:
        lines.append(f"{_sig(budget)},{_sig(nats)},{_sig(bits)},{'true' if active else 'false'}")
    return "\n".join(lines) + "\n"


def read_curve_csv(path: str) -> list[tuple[float, float, float, bool]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad curve file header; expected {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cols = line.split(",")
        if len(cols) != 4 or cols[3] not in ("true", "false"):
            raise ValueError(f"bad curve row: {line!r}")
        rows.append((float(cols[0]), float(cols[1]), float(cols[2]), cols[3] == "true"))
    return rows


def write_curve_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_curve_rows(rows))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_dstar(args) -> int:
    model, _ = load_spec(args.spec)
    policy = optimal_estimator(model)
    print("x  d*(x)           estimates y->s_hat")
    for x in range(model.input_size):
        pairs = []
        for y in range(model.output_size):
            mark = "" if policy.reachable[x, y] else "*"
            pairs.append(f"{y}:{policy.table[x, y]}{mark}")
        print(f"{x}  {_sig(float(policy.cost_vector[x])):<15} {' '.join(pairs)}")
    if not policy.reachable.all():
        print("(* marks outputs with P(y|x) = 0; excluded from the cost)")
    return 0


def _cmd_point(args) -> int:
    model, _ = load_spec(args.spec)
    point = capacity_distortion_point(model, args.distortion)
    print(f"D = {_sig(args.distortion)}")
    print(f"C(D) = {_sig(point.capacity)} nats")
    if args.bits:
        print(f"C(D) = {_sig(point.capacity / LN2)} bits")
    print(f"optimizer = {','.join(_sig(v) for v in point.optimizer.probs)}")
    print(f"constraint_active = {'true' if point.constraint_active else 'false'}")
    if point.convergence_warning:
        print(f"warning: {point.convergence_warning}", file=sys.stderr)
        return 4
    return 0


def _cmd_curve(args) -> int:
    model, _ = load_spec(args.spec)
    exit_code = 0
    if args.d_list is not None:
        budgets = sorted(float(tok) for tok in args.d_list.split(","))
        cost = optimal_estimator(model).cost_vector[None, :]
        keep, skipped = [], []
        for b in budgets:
            try:
                _check_budgets(cost, np.array([b]))
                keep.append(b)
            except InfeasibleDistortion as exc:
                skipped.append(b)
                d_min = exc.d_min
        if skipped:
            print(
                "warning: skipping infeasible budgets below d_min="
                f"{_sig(d_min)}: {', '.join(_sig(b) for b in skipped)}",
                file=sys.stderr,
            )
            exit_code = 3
        if not keep:
            write_curve_csv(args.out, [])
            return 3
        curve = cd_curve(model, keep)
    else:
        curve = cd_curve(model, args.grid)
    rows = [
        (pt.distortion_budget, pt.capacity, pt.capacity / LN2, pt.constraint_active)
        for pt in curve.points
    ]
    write_curve_csv(args.out, rows)
    print(f"wrote {len(rows)} points to {args.out}")
    print(f"d_min = {_sig(curve.d_min)}  d_max = {_sig(curve.d_max)}")
    warned = [pt for pt in curve.points if pt.convergence_warning]
    if warned:
        for pt in warned:
            print(f"warning at D={_sig(pt.distortion_budget)}: {pt.convergence_warning}", file=sys.stderr)
        return 4
    return exit_code


def _cmd_cpud(args) -> int:
    model, _ = load_spec(args.spec)
    try:
        ratio = cpud_ratio_formula(model)
        if math.isinf(ratio.value):
            print(f"ratio-formula: infinite ({ratio.condition})")
        else:
            print(f"ratio-formula: {_sig(ratio.value)} nats per unit distortion "
                  f"(witness letter {ratio.witness})")
    except CapdistError as exc:
        print(f"ratio-formula: not applicable ({exc})")
    sup = cpud_sup_definition(model)
    if math.isinf(sup.value):
        print(f"sup-definition: infinite ({sup.condition})")
    else:
        print(f"sup-definition: {_sig(sup.value)} nats per unit distortion")
    return 0


def _cmd_compound(args) -> int:
    model, priors = load_spec(args.spec)
    if priors is None:
        priors = [model.state_prior]
    family = CompoundFamily(model.transition, tuple(priors), model.distortion)
    result = compound_cd(family, args.distortion)
    print(f"D = {_sig(args.distortion)}")
    print(f"worst-case capacity = {_sig(result.value)} nats")
    print(f"optimizer = {','.join(_sig(v) for v in result.optimizer.probs)}")
    print(f"worst prior index = {result.worst_theta}")
    print(f"certified gap = {_sig(result.gap)}")
    return 0


def _cmd_simulate(args) -> int:
    model, _ = load_spec(args.spec)
    if args.px is not None:
        px = InputDistribution([float(tok) for tok in args.px.split(",")])
    else:
        px = capacity_distortion_point(model, args.optimal_for).optimizer
    report = simulate(model, px, args.samples, args.seed)
    print(f"samples = {report.samples}")
    print(f"seed = {report.seed}")
    print(f"input law = {','.join(_sig(v) for v in px.probs)}")
    print(f"empirical_distortion = {_sig(report.empirical_distortion)}")
    print(f"analytic_distortion = {_sig(report.analytic_distortion)}")
    print(f"empirical_mi = {_sig(report.empirical_mi)} nats")
    return 0


def _cmd_analytic(args) -> int:
    r = args.r
    if args.model == "scalar":
        block_len, column, unit = 1, "nats", "nats"
        closed_form = functools.partial(analytic.scalar_cd_closed_form, r)
        model = analytic.scalar_multiplicative_model(r) if args.compare else None
    else:
        block_len, column, unit = args.block_len, "nats_per_use", "nats/use"
        if block_len is None:
            raise ValueError("--model block requires --block-len")
        closed_form = functools.partial(analytic.block_cd_closed_form, r, block_len)
        flat = analytic.case1_predicate(r, block_len)
        print(f"case 1 (flat tradeoff, silent letter unused) = {'true' if flat else 'false'}")
        zero_rate = analytic.block_zero_budget_rate(r, block_len)
        print(f"C(0) = {_sig(zero_rate)} nats/use")
        if block_len > 1:
            train = analytic.training_rate(r, block_len)
            print(f"training baseline R(0) = {_sig(train)} nats/use")
            print(f"C(0)/R(0) = {_sig(zero_rate / train)}")
        model = analytic.block_multiplicative_model(r, block_len) if args.compare else None
    print(f"D,closed_form_{column},p_star" + (f",solver_{column},delta" if args.compare else ""))
    worst = 0.0
    for budget in np.linspace(0.0, r, args.points):
        value, p_star = closed_form(float(budget))
        cols = [_sig(float(budget)), _sig(value), _sig(p_star)]
        if args.compare:
            # rates are per channel use; the budget is already on the
            # one-estimate-per-block scale the super-symbol model uses
            solved = capacity_distortion_point(model, float(budget)).capacity / block_len
            worst = max(worst, abs(solved - value))
            cols += [_sig(solved), _sig(solved - value)]
        print(",".join(cols))
    if args.compare:
        print(f"max |closed form - solver| = {_sig(worst)} {unit}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capdist",
        description="Capacity under an estimation-cost budget for state-dependent channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("spec", help="channel description file, or an inline preset string")

    p = sub.add_parser("dstar", help="per-letter estimation costs and the optimal estimator")
    add_spec(p)
    p.set_defaults(func=_cmd_dstar)

    p = sub.add_parser("point", help="capacity at one distortion budget")
    add_spec(p)
    p.add_argument("--distortion", type=float, required=True, help="budget D")
    p.add_argument("--bits", action="store_true", help="also print the rate in bits")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("curve", help="tradeoff curve written as delimited text")
    add_spec(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", type=int, help="number of budgets spanning [d_min, d_max]")
    group.add_argument("--d-list", help="comma-separated explicit budgets")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("cpud", help="capacity per unit distortion, both routes")
    add_spec(p)
    p.set_defaults(func=_cmd_cpud)

    p = sub.add_parser("compound", help="worst-case capacity over the file's prior family")
    add_spec(p)
    p.add_argument("--distortion", type=float, required=True, help="budget enforced per prior")
    p.set_defaults(func=_cmd_compound)

    p = sub.add_parser("simulate", help="Monte Carlo check of distortion and information")
    add_spec(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--px", help="comma-separated input law")
    group.add_argument("--optimal-for", type=float, help="use the optimizer for this budget")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analytic", help="closed-form reference tables")
    p.add_argument("--model", choices=("scalar", "block"), required=True)
    p.add_argument("--r", type=float, required=True, help="probability the state bit is 1")
    p.add_argument("--block-len", "--K", type=int, dest="block_len", help="block length")
    p.add_argument("--points", type=int, default=10, help="number of budgets in [0, r]")
    p.add_argument("--compare", action="store_true", help="also run the solver and report deltas")
    p.set_defaults(func=_cmd_analytic)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value that starts with a minus, such as
    # "-0.1,0.05", as an option unless it is one number; joined, it is a value.
    if "--d-list" in argv[:-1]:
        i = argv.index("--d-list")
        argv[i : i + 2] = [f"--d-list={argv[i + 1]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InfeasibleConstraints as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotCertified, SolverNonmonotone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CapdistError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
