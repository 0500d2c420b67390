"""Capacity per unit estimation cost, and robustness to an uncertain prior.

Two extensions of the budgeted solver live here.  The first is the limiting
rate-per-cost figure: when exactly one input letter has zero estimation
cost, it reduces to a ratio of divergences against that letter; with two or
more free letters it is infinite; and it can always be approached through
sup over budgets of capacity(budget) / budget.  The second is a max-min
problem over a finite family of state priors sharing one transition law and
one distortion: choose the input law that maximizes the worst-case mutual
information while meeting the cost budget under every prior simultaneously.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import (
    ChannelModel,
    FloatArray,
    InputDistribution,
    _as_probs,
    batch_mutual_information,
    optimal_estimator,
    validate_channel,
)
from .errors import NoZeroCostLetter, NotCertified
from .solver import (
    _check_budgets,
    _game,
    _game_laws,
    _Objective,
    _Polytope,
    _snap,
    _solve_budget,
    capacity_distortion_point,
)

# ``_ascend`` is not called here; it stays bound because perfbench's tracer
# hooks it in every module that once bound it and drops the ascent counters
# when a hook is missing.
from .solver import _ascend  # noqa: F401

# compound_cd stops once its certified gap is at most GAP_TOL, and raises
# NotCertified when MAX_OUTER rounds end above it.
GAP_TOL = 1e-4
MAX_OUTER = 400

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# capacity per unit cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CpudResult:
    """Capacity per unit estimation cost.

    value     : nats per unit distortion, possibly math.inf
    witness   : input letter index (ratio route) or the optimizing input law
                (sup route); for infinite values, the letters triggering it
    method    : "ratio-formula" or "sup-definition"
    condition : names the trigger when the value is infinite, else None
    """

    value: float
    witness: object
    method: str
    condition: str | None = None


def _ratio_route(model: ChannelModel, cost_vector: FloatArray, method: str) -> CpudResult | FloatArray | None:
    """What the free letters (cost on the budget 0, by the budget rule's
    ``_snap``) decide.

    None without a free letter.  The infinite result with two or more
    (communicate over them at vanishing cost), or with exactly one, x0, when
    some P(.|x) is not absolutely continuous with respect to P(.|x0); the
    witness names the trigger.  Otherwise the row D(P(.|x) || P(.|x0)): the
    solver's scores at the point mass on x0.  Both read P(y|x) in the
    model's own format (``ChannelModel._pyx``).
    """
    free = np.flatnonzero(_snap(cost_vector, 0.0) == 0.0)
    if free.size == 0:
        return None
    if free.size >= 2:
        return CpudResult(math.inf, tuple(int(i) for i in free), method, "multiple zero-cost letters")
    point = np.eye(1, model.input_size, free[0])[0]
    divergent = model._pyx @ (point @ model._pyx == 0) > 0
    if np.any(divergent):
        return CpudResult(math.inf, int(np.argmax(divergent)), method, "divergent likelihood ratio")
    return _Objective([(1.0, model)]).scores(point)


def cpud_ratio_formula(model: ChannelModel) -> CpudResult:
    """Rate per unit cost via divergences against the unique free letter.

    Requires some letter with zero estimation cost.  With two or more such
    letters the value is infinite (communicate over the free letters at
    vanishing cost).  With exactly one free letter x0,

        value = max over x != x0 of D(P(.|x) || P(.|x0)) / d*(x),

    infinite if some numerator diverges, and 0 with no other letter.
    """
    cost_vector = optimal_estimator(model).cost_vector
    route = _ratio_route(model, cost_vector, "ratio-formula")
    if route is None:
        raise NoZeroCostLetter(
            "no input letter has zero estimation cost; use the sup-definition route"
        )
    if isinstance(route, CpudResult):
        return route
    others = _snap(cost_vector, 0.0) > 0.0
    ratios = np.zeros(model.input_size)
    ratios[others] = route[others] / cost_vector[others]
    best = int(np.argmax(ratios))
    return CpudResult(float(ratios[best]), best, "ratio-formula")


def cpud_sup_definition(model: ChannelModel) -> CpudResult:
    """Rate per unit cost as sup over budgets of capacity(budget) / budget.

    The infinite cases are detected from the same structural conditions as
    the ratio route.  Otherwise the profile capacity(b) / b is sampled on a
    100-point grid (geometric near the lower end, where the sup of a concave
    curve through the origin lives, plus a uniform sweep as a unimodality
    safeguard) and the best point is refined by golden-section search.
    """
    cost_vector = optimal_estimator(model).cost_vector
    route = _ratio_route(model, cost_vector, "sup-definition")
    if isinstance(route, CpudResult):
        return route
    d_min = float(np.min(cost_vector))
    hi = float(np.max(cost_vector))
    if model.input_size == 1:
        return CpudResult(0.0, InputDistribution(np.ones(1)), "sup-definition")

    point = functools.cache(functools.partial(capacity_distortion_point, model))

    def ratio(budget: float) -> float:
        return point(budget).capacity / budget

    if _snap(hi, d_min) == d_min:
        # Uniform cost: every input law spends d_min, so the sup sits there.
        pt = point(d_min)
        return CpudResult(pt.capacity / d_min, pt.optimizer, "sup-definition")

    # With a free letter the grid starts at a share of the dearest letter's
    # cost, so it samples the same profile at any scale of the distortion;
    # the share balances curvature bias against solver noise near zero.
    lo = 1e-4 * hi if route is not None else d_min
    grid = np.unique(
        np.concatenate(
            [
                np.geomspace(lo, hi, 50),
                np.linspace(lo, hi, 50),
            ]
        )
    )
    values = np.array([ratio(float(b)) for b in grid])
    k = int(np.argmax(values))
    a = grid[max(0, k - 1)]
    b = grid[min(grid.size - 1, k + 1)]
    # Golden-section refinement on the bracket around the best grid point.
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = ratio(float(x1)), ratio(float(x2))
    while (b - a) > 1e-5 * max(abs(a), abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = ratio(float(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = ratio(float(x1))
    candidates = [float(g) for g in (grid[k], x1, x2)]
    best_b = max(candidates, key=ratio)
    pt = point(best_b)
    return CpudResult(pt.capacity / best_b, pt.optimizer, "sup-definition")


# ---------------------------------------------------------------------------
# uncertain state prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompoundFamily:
    """One transition law and distortion shared by several candidate priors."""

    transition: FloatArray
    priors: tuple[FloatArray, ...]
    distortion: FloatArray
    models: tuple[ChannelModel, ...] = field(init=False, repr=False)

    def __post_init__(self):
        models = tuple(
            validate_channel(self.transition, prior, self.distortion) for prior in self.priors
        )
        if not models:
            raise ValueError("need at least one prior")
        object.__setattr__(self, "transition", models[0].transition)
        object.__setattr__(self, "distortion", models[0].distortion)
        object.__setattr__(self, "priors", tuple(m.state_prior for m in models))
        object.__setattr__(self, "models", models)


@dataclass(frozen=True, eq=False)
class CompoundResult:
    """Worst-case capacity over a prior family.

    value       : min over priors of I(X; Y) at ``optimizer``, in nats
    optimizer   : an input law meeting the budget under every prior
    worst_theta : index of the prior attaining ``value``
    gap         : a certified upper bound on the max-min optimum minus
                  ``value``; at most ``GAP_TOL``
    certified   : always true; an uncertified solve raises ``NotCertified``
    """

    value: float
    optimizer: InputDistribution
    worst_theta: int
    gap: float
    certified: bool


def _solve_weighted(
    models: Sequence[ChannelModel], weights: FloatArray, polytope: _Polytope, law: FloatArray | None = None
) -> tuple[FloatArray, float]:
    """Maximize sum_i w_i I_i(p) over the budget polytope: one Kelley round.

    The weighted objective solved by ``solver._solve_budget`` from a start
    law, ``law`` (such as the last round's) or else ``_Polytope.start``'s,
    so by pairwise Frank-Wolfe alone, with no unconstrained ascent.
    Returns (p, dual_bound): p meets every budget, and dual_bound is an
    upper bound on the constrained optimum (by concavity and weak duality,
    the Lagrangian bound at the returned law's gradient and the budgets'
    multipliers).  It stays a function of its own because perfbench's
    tracer counts the rounds by wrapping it.
    """
    objective = _Objective(list(zip(weights, models)))
    if law is None:
        law = polytope.start(objective)
    p, _, bound, _, _ = _solve_budget(objective, polytope, law)
    return p, bound


def compound_cd(family: CompoundFamily, budget: float) -> CompoundResult:
    """Worst-case capacity over a finite prior family, budget enforced per prior.

    The max-min value max_p min_theta I_theta(p), over laws p meeting every
    prior's budget, equals min over prior weights w of the convex dual
    g(w) = max_p sum_theta w_theta I_theta(p) (Sion's minimax theorem).
    Kelley's cutting planes minimize g.  Each round solves the weighted
    problem at one w through the point solve, ``solver._solve_budget``,
    given a start law (``_solve_weighted``), so by pairwise Frank-Wolfe
    with no unconstrained ascent, whether or not the budget binds: the
    first round starts from ``_Polytope.start`` (the uniform law on the
    letters that meet every budget, or, with none, a vertex), and every
    later one from the last round's law.  The law p_k a round returns
    gives the cut g >= w . v_k, with v_k = (I_theta(p_k))_theta, and its
    dual bound is an upper bound on the max-min value.  The next w
    minimizes max_k w . v_k,
    a matrix game whose other player mixes the laws: p = sum_k a_k p_k meets
    every budget and, each I_theta being concave, is worth at least the
    game value under every prior.  The first round solves at the pure
    prior that the uniform law finds worst, and every later one at the
    game's w.  The game is held transposed, as the ``_game`` of -V^T with
    the cuts v_k the rows of V: one row per prior and one column per law,
    whose column law is the mix a and whose row duals are w.  Each round's
    cut is then one more column of the same program (column generation;
    Gilmore & Gomory, 1961), which leaves the last optimal basis feasible:
    the game starts from its first cut, whose column -v_1 <= 0 meets every
    row, with no phase 1, every later round re-optimizes from the last
    basis, and the basis has n_theta + 1 rows however many rounds run.
    A call whose first round certifies builds no game: one law's mix is 1.

    The result is the mixed law, its value min_theta I_theta(p), and a gap
    equal to the smallest dual bound seen minus that value.  Rounds stop
    once the gap is at most ``GAP_TOL``; if ``MAX_OUTER`` rounds end above
    it, ``NotCertified`` is raised; one prior takes the same rounds.  The
    budget is checked once by ``_check_budgets`` (one row per prior), so an
    infeasible one raises ``InfeasibleDistortion`` whose ``d_min`` is
    min_p max_theta d*_theta . p.  Every round solves on the one budget
    polytope it returns, so the polytope's linear program, for several
    priors, is built once per call, and each round's Frank-Wolfe
    re-optimizes it from the last round's basis.
    """
    models = family.models
    n_theta, n_inputs = len(models), models[0].input_size
    cost_rows = np.stack([optimal_estimator(m).cost_vector for m in models])
    polytope = _check_budgets(cost_rows, np.full(n_theta, float(budget)))

    def info_values(p: FloatArray) -> FloatArray:
        # The law is checked and renormalized once, as ``mutual_information``
        # would for each prior, and every prior reads that one row.
        row = _as_probs(p, n_inputs)[None, :]
        return np.array([batch_mutual_information(m, row)[0] for m in models])

    weights = np.eye(n_theta)[int(np.argmin(info_values(np.full(n_inputs, 1.0 / n_inputs))))]
    laws, game = [], None
    best_ub, best_lb, best_p, best_values = np.inf, -np.inf, None, None
    for _ in range(MAX_OUTER):
        p, ub = _solve_weighted(models, weights, polytope, laws[-1] if laws else None)
        best_ub = min(best_ub, ub)
        laws.append(p)
        values = info_values(p)
        if game is not None:
            game.add_column(-values)
            _, mix, weights = _game_laws(game)
            p = mix @ np.array(laws)
            values = info_values(p)
        lb = float(values.min())
        if lb > best_lb:
            best_lb, best_p, best_values = lb, p, values
        if best_ub - best_lb <= GAP_TOL:
            break
        if game is None:
            game = _game(-values[:, None])
            weights = _game_laws(game)[2]
    else:
        raise NotCertified(
            f"gap {best_ub - best_lb:.3e} above {GAP_TOL:.0e} after {MAX_OUTER} rounds"
        )

    return CompoundResult(
        best_lb,
        InputDistribution(best_p),
        int(np.argmin(best_values)),
        max(0.0, best_ub - best_lb),
        True,
    )


__all__ = [
    "CompoundFamily",
    "CompoundResult",
    "CpudResult",
    "compound_cd",
    "cpud_ratio_formula",
    "cpud_sup_definition",
]
