"""Numerical solver for capacity under an estimation-cost budget.

The core is a multiplicatively-updated ascent on the input distribution
(classical alternating maximization of mutual information) extended with a
linear cost tilt: each step reweights

    p'(x) proportional to p(x) * exp( D(P_y|x || P_y) - lambda * cost(x) )

which is monotone in the Lagrangian objective I(p) - lambda * E_p[cost].
Budgets, one or several, are solved by one routine: an unconstrained ascent
answers when every budget is slack, a budget at its cheapest cost confines
the law to the cheapest letters, and otherwise pairwise Frank-Wolfe runs on
the budget polytope {p in simplex : A p <= b}, whose gap certifies the
result.  Its linear step reads a concave hull for one budget and solves a
small linear program for several.  Pairwise steps move weight between two
atoms at a time, so where the optimum lies inside the hull of three or more
atoms (tied letters) a Newton step on the atom weights follows each of
them.  A vectorized grid search over the input simplex doubles as an
independent oracle for small alphabets.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    ChannelModel,
    FloatArray,
    InputDistribution,
    _as_probs,
    batch_mutual_information,
    optimal_estimator,
)
from .errors import (
    AlphabetTooLarge,
    DimensionMismatch,
    InfeasibleConstraints,
    InfeasibleDistortion,
    SolverNonmonotone,
)

# Tolerance for deciding that a per-letter cost sits on the minimum-cost face.
FACE_TOL = 1e-12

# Tolerance applied to curve monotonicity / concavity checks.
CURVE_TOL = 1e-7


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs for the iterative solver.

    ba_tol        : stop the inner ascent once the objective increment drops
                    to this value (default 1e-10)
    ba_max_iter   : iteration cap of the inner ascent and of the Frank-Wolfe
                    solve on the budget polytope (default 10_000)
    cert_tol      : early exit once the optimality-gap certificate
                    max_x score(x) - objective (the Frank-Wolfe gap for a
                    binding budget) falls below this (default 1e-11)
    stall_cert    : largest certificate the increment-based inner stop may
                    accept, and the largest gap a returned point may carry
                    without a convergence_warning (default 1e-6)
    debug         : assert objective monotonicity on every inner step
    """

    ba_tol: float = 1e-10
    ba_max_iter: int = 10_000
    cert_tol: float = 1e-11
    stall_cert: float = 1e-6
    debug: bool = False


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class CDPoint:
    """One point of the tradeoff curve.

    convergence_warning is None on a clean solve; otherwise it names the
    iteration cap or fallback that fired (never silently dropped).
    """

    distortion_budget: float
    capacity: float
    optimizer: InputDistribution
    constraint_active: bool
    convergence_warning: str | None = None


@dataclass(frozen=True, eq=False)
class CDCurve:
    points: tuple[CDPoint, ...]
    d_min: float
    d_max: float


@dataclass(frozen=True, eq=False)
class CostConstraint:
    """A linear budget: sum_x p(x) cost_vector[x] <= budget."""

    cost_vector: FloatArray
    budget: float

    def __post_init__(self):
        vec = np.asarray(self.cost_vector, dtype=np.float64)
        vec.setflags(write=False)
        object.__setattr__(self, "cost_vector", vec)


# ---------------------------------------------------------------------------
# inner ascent
# ---------------------------------------------------------------------------


class _Objective:
    """Weighted mutual-information objective sum_i w_i I_i(p) over channel
    models; ``terms`` holds (w_i, P_i(y|x), row terms cached on the model)
    for every positive weight."""

    def __init__(self, weighted_models: Sequence[tuple[float, ChannelModel]]):
        self.terms = [(float(weight), model.output_given_input, model._row_terms)
                      for weight, model in weighted_models if weight > 0.0]
        self.n_inputs = weighted_models[0][1].input_size

    def scores(self, p: FloatArray) -> FloatArray:
        """sum_i w_i * D(P_i(.|x) || P_i(.)) per input letter, at input law p."""
        total = np.zeros(self.n_inputs)
        for weight, pyx, row_self in self.terms:
            py = p @ pyx
            log_py = np.log(np.maximum(py, 1e-300))
            total += weight * (row_self - pyx @ log_py)
        return total

    def curvature(self, atoms: FloatArray, weights: FloatArray) -> FloatArray:
        """The negated Hessian of the objective in the coordinates of p =
        weights @ atoms: sum_i w_i Q_i diag(1 / P_i(y)) Q_i^T with Q_i =
        atoms @ P_i(y|x).  Only H(Y) curves; the conditional-entropy part of
        I is linear in p."""
        total = np.zeros((weights.size, weights.size))
        for weight, pyx, _ in self.terms:
            q = atoms @ pyx
            total += weight * (q / np.maximum(weights @ q, 1e-300)) @ q.T
        return total

    def restrict(self, keep: FloatArray) -> _Objective:
        """The objective on the letters where ``keep`` is true."""
        restricted = copy.copy(self)
        restricted.terms = [(weight, pyx[keep], row_self[keep]) for weight, pyx, row_self in self.terms]
        restricted.n_inputs = int(np.count_nonzero(keep))
        return restricted


def _line_search(
    objective: _Objective,
    tilt: FloatArray | float,
    p: FloatArray,
    direction: FloatArray,
    t_max: float,
    g0: float,
    value: float,
) -> tuple[float, FloatArray, FloatArray | None, float]:
    """Best point of objective(q) - tilt.q on q_t = p + t * direction, 0 <= t <= t_max.

    The objective is concave along the segment with slope
    g(t) = direction . (scores(q_t) - tilt) (the gradient of I is score - 1
    and direction sums to zero), so g is nonincreasing with g(0) = g0 > 0.
    The best t is t_max if g(t_max) >= 0, else the root of g, found by
    Illinois regula falsi with a bisection fallback in a few evaluations.
    ``value`` is the objective at p.  Returns (t, q, tilted scores at q,
    value at q): the point at t_max when g(t_max) >= 0, which concavity
    makes no worse than p even where rounding hides its gain; otherwise the
    best point seen, or (0, p, None, value) when none strictly improves on p.
    """
    best = (0.0, p, None, value)
    end = best

    def slope(t: float) -> float:
        nonlocal best, end
        q = p + t * direction
        s = objective.scores(q) - tilt
        end = (t, q, s, float(q @ s))
        if end[3] > best[3]:
            best = end
        return float(direction @ s)

    t_lo, g_lo, t_hi, g_hi = 0.0, g0, t_max, slope(t_max)
    if g_hi >= 0.0:
        return end
    kept = 0  # +1 / -1: the last step replaced t_lo / t_hi
    for _ in range(100):
        if t_hi - t_lo <= 1e-12 * t_max:
            break
        t = (t_lo * g_hi - t_hi * g_lo) / (g_hi - g_lo)
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
        g = slope(t)
        if abs(g) <= 1e-15:
            break
        if g > 0.0:
            t_lo, g_lo = t, g
            if kept == 1:
                g_hi *= 0.5  # Illinois: t_hi kept twice, halve its weight
            kept = 1
        else:
            t_hi, g_hi = t, g
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    return best


def _ascend(
    objective: _Objective,
    tilt: FloatArray,
    opts: SolverOptions,
    p0: FloatArray | None = None,
) -> tuple[FloatArray, float, bool, float, FloatArray]:
    """Maximize objective(p) - tilt . p over the simplex.

    Returns (maximizer, certified optimality gap, hit_iteration_cap, value,
    score), the last two being p . score and score = scores(p) - tilt at the
    maximizer.  The gap bounds the true suboptimality from above: for any
    feasible q, objective(q) - tilt.q <= max_x score(x), while the iterate
    achieves p . score.
    """
    n = objective.n_inputs
    if p0 is None:
        log_p = np.full(n, -math.log(n))
    else:
        # Floor warm-start masses.  The update is multiplicative, so a
        # coordinate whose warm mass is near zero regrows only by tiny value
        # increments and the increment stop below would otherwise fire long
        # before optimality.  A floor (unlike a uniform blend) leaves healthy
        # interior warm starts untouched.
        start = np.maximum(np.asarray(p0, dtype=np.float64), 1e-5 / n)
        start /= start.sum()
        log_p = np.log(start)
    prev_value = -np.inf
    cert = np.inf
    hist: list[FloatArray] = []  # recent consecutive log-iterates
    for it in range(opts.ba_max_iter):
        p = np.exp(log_p)
        p /= p.sum()
        score = objective.scores(p) - tilt
        value = float(p @ score)
        cert = float(np.max(score) - value)
        if opts.debug and value < prev_value - 1e-12:
            raise AssertionError(
                f"objective decreased: {prev_value!r} -> {value!r}"
            )
        if cert <= opts.cert_tol:
            return p, cert, False, value, score
        # The increment stop needs a certificate bound too: increments decay
        # geometrically while mass drains toward a face, so a stalled ascent
        # can still be visibly suboptimal.  The certificate bounds the
        # suboptimality, so accepting only small ones caps the damage.
        if value - prev_value <= opts.ba_tol and np.isfinite(prev_value):
            if cert <= opts.stall_cert:
                return p, cert, False, value, score
            # Frozen far from optimal: a multiplicative update cannot grow a
            # tiny coordinate whose score advantage is itself tiny (the
            # per-step log gain equals the certificate).  Move toward the
            # best-scoring vertex instead, to the point the line search
            # returns; it never lowers the objective.
            direction = -p.copy()
            direction[int(np.argmax(score))] += 1.0
            step, best_q, _, _ = _line_search(objective, tilt, p, direction, 1.0, cert, value)
            if step > 0.0:
                log_p = np.log(np.maximum(best_q, 1e-300))
                hist.clear()
                prev_value = value
                continue
            return p, cert, False, value, score  # the segment is numerically flat: accept
        prev_value = value
        log_p = log_p + score
        log_p -= np.max(log_p)
        log_p -= math.log(np.sum(np.exp(log_p)))
        hist.append(log_p)
        if len(hist) > 3:
            del hist[0]
        # With an optimum near a face the update contracts at rate
        # 1 - O(smallest mass) and plain iteration crawls.  That slow mode is
        # geometric in log space, so Aitken extrapolation through three
        # consecutive iterates jumps to its limit; the jump is kept only when
        # it strictly improves the objective, preserving monotonicity.
        if len(hist) == 3 and it % 16 == 15:
            d1 = hist[2] - hist[1]
            d0 = hist[1] - hist[0]
            denom = d1 - d0
            contracting = (np.abs(denom) > 1e-12) & (np.abs(d1) < np.abs(d0))
            jump = np.where(contracting, -d1 * d1 / np.where(contracting, denom, 1.0), 0.0)
            if np.any(jump != 0.0):
                cand = hist[2] + jump
                cand -= np.max(cand)
                q = np.exp(cand)
                q /= q.sum()
                if float(q @ (objective.scores(q) - tilt)) > value:
                    log_p = np.log(np.maximum(q, 1e-300))
                    hist.clear()
    p = np.exp(log_p)
    p /= p.sum()
    score = objective.scores(p) - tilt
    value = float(p @ score)
    return p, float(np.max(score) - value), True, value, score


def lagrangian_ba_step(model: ChannelModel, px, lam: float, cost_vector=None) -> InputDistribution:
    """One multiplicative update of the tilted ascent, exposed for inspection.

    With lam = 0 this is the classical capacity iteration; its fixed points
    are exactly the unconstrained optimizers.
    """
    probs = _as_probs(px, model.input_size)
    if cost_vector is None:
        cost_vector = optimal_estimator(model).cost_vector
    cost_vector = np.asarray(cost_vector, dtype=np.float64)
    objective = _Objective([(1.0, model)])
    score = objective.scores(probs) - lam * cost_vector
    with np.errstate(divide="ignore"):
        log_p = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), -np.inf) + score
    log_p -= np.max(log_p)
    updated = np.exp(log_p)
    return InputDistribution(updated / updated.sum())


# ---------------------------------------------------------------------------
# budgeted solver
# ---------------------------------------------------------------------------


def feasible_range(model: ChannelModel, opts: SolverOptions = DEFAULT_OPTIONS) -> tuple[float, float]:
    """(d_min, d_max): the smallest achievable cost and the cost at the
    unconstrained capacity achiever.  Budgets >= d_max leave the constraint
    slack; budgets below d_min are infeasible."""
    policy = optimal_estimator(model)
    objective = _Objective([(1.0, model)])
    p = _ascend(objective, np.zeros(model.input_size), opts)[0]
    d_min = float(np.min(policy.cost_vector))
    d_max = float(p @ policy.cost_vector)
    return d_min, max(d_min, d_max)


def _uncertified(cert: float, capped: bool, opts: SolverOptions) -> str | None:
    """The warning for an ascent whose law is returned as the solution."""
    if capped:
        return "inner ascent hit its iteration cap"
    if cert > opts.stall_cert:
        return f"inner ascent stopped with certificate {cert:.3g} above stall_cert"
    return None


def _budget_vertex(
    cost: FloatArray, order: FloatArray, score: FloatArray, budget: float
) -> tuple[int, int, float, float]:
    """Best vertex of {p in simplex : cost.p <= budget} for the linear
    objective score.p, read off the upper concave hull of the points
    (cost(x), score(x)).

    ``order`` sorts ``cost``.  Returns (x, y, alpha, top): the vertex puts
    alpha on letter x and 1 - alpha on letter y (x == y for a single
    letter), and top = score at the vertex is the hull at the budget, capped
    at the hull's peak when the peak is affordable.  Since the hull's slope
    at the budget is a multiplier lam >= 0, top = max_x [score(x) -
    lam (cost(x) - budget)], a dual upper bound on the constrained optimum
    when score is the gradient of a concave objective.
    """
    hull: list[int] = []  # monotone chain, left to right
    for x in order:
        c, s = cost[x], score[x]
        if hull and cost[hull[-1]] == c:
            if score[hull[-1]] >= s:
                continue
            hull.pop()
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (cost[b] - cost[a]) * (s - score[a]) < (score[b] - score[a]) * (c - cost[a]):
                break
            hull.pop()  # b lies on or below the chord from a to x
        hull.append(x)
    i = 0
    while i + 1 < len(hull) and score[hull[i + 1]] > score[hull[i]] and cost[hull[i + 1]] <= budget:
        i += 1
    x = hull[i]
    if i + 1 == len(hull) or score[hull[i + 1]] <= score[x] or cost[x] == budget:
        return x, x, 1.0, float(score[x])
    y = hull[i + 1]
    alpha = float((cost[y] - budget) / (cost[y] - cost[x]))
    return x, y, alpha, float(alpha * score[x] + (1.0 - alpha) * score[y])


def _lp_vertex(
    cost_rows: FloatArray, budgets: FloatArray, score: FloatArray
) -> tuple[FloatArray, float]:
    """Best vertex of {p in simplex : cost_rows @ p <= budgets} for the
    linear objective score.p, by the HiGHS dual simplex.

    Returns (vertex, score at it); as in ``_budget_vertex``, that score is a
    dual upper bound when score is the gradient of a concave objective, but
    only to within HiGHS's optimality tolerance (about 1e-7): the vertex
    returned may score that much below the best one.
    """
    from scipy.optimize import linprog

    n = score.size
    # On the simplex the budgets read (cost_rows - budgets) @ p <= 0.  HiGHS
    # drops matrix entries below 1e-9, so a small cost would be priced at
    # zero, while an excess is either zero or a cost difference.
    res = linprog(
        -score,
        A_ub=cost_rows - budgets[:, None],
        b_ub=np.zeros(budgets.size),
        A_eq=np.ones((1, n)),
        b_eq=[1.0],
        bounds=(0, None),
        method="highs-ds",
    )
    if not res.success:
        raise InfeasibleConstraints("linear step over the budget polytope failed to solve")
    v = np.maximum(res.x, 0.0)
    return v, float(score @ v)


def _newton_step(
    objective: _Objective,
    atoms: FloatArray,
    weights: FloatArray,
    p: FloatArray,
    score: FloatArray,
    value: float,
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray, float]:
    """One Newton step on the atom weights of p = weights @ atoms, within
    the atoms' hull.

    The quadratic model of the objective in weight space has gradient
    g = atoms @ score and negated Hessian M (``_Objective.curvature``); its
    best move d with sum(d) = 0 solves [M 1; 1^T 0][d; mu] = [g; 0], by
    least squares since M is singular when the atoms' output laws are
    affinely dependent.  The line search then runs along d @ atoms up to the
    largest step that keeps every weight nonnegative, and an atom whose
    weight reaches zero is dropped.  Returns (atoms, weights, p, score,
    value), unchanged when d is not an ascent direction or no step improves.
    """
    k = weights.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = objective.curvature(atoms, weights)
    kkt[k, k] = 0.0
    g = atoms @ score
    d = np.linalg.lstsq(kkt, np.append(g, 0.0), rcond=None)[0][:k]
    g0 = float(d @ g)
    shrink = np.flatnonzero(d < 0.0)
    if g0 <= 0.0 or shrink.size == 0:
        return atoms, weights, p, score, value
    ratios = weights[shrink] / -d[shrink]
    t_max = float(ratios.min())
    step, q, q_score, q_value = _line_search(objective, 0.0, p, d @ atoms, t_max, g0, value)
    if step <= 0.0:
        return atoms, weights, p, score, value
    weights = weights + step * d
    if step >= t_max:
        weights[shrink[np.argmin(ratios)]] = 0.0
    keep = weights > 0.0
    return atoms[keep], weights[keep], q, q_score, q_value


def _frank_wolfe(
    objective: _Objective,
    cost_rows: FloatArray,
    budgets: FloatArray,
    score: FloatArray,
    opts: SolverOptions,
) -> tuple[FloatArray, float, float]:
    """Maximize objective(p) over {p in simplex : cost_rows @ p <= budgets}
    by pairwise Frank-Wolfe, from the best vertex for the linear objective
    ``score``.

    The law is kept as a convex combination of polytope vertices (atoms).
    Each step moves weight from the atom of least score to the best vertex,
    as far as the line search puts it.  The linear step reads the best
    vertex off the upper concave hull of (cost(x), score(x)) for one row
    (``_budget_vertex``) and solves a linear program for several
    (``_lp_vertex``); that is the only difference between the two.  The
    objective is I(p) = p . score(p) with gradient score - 1, so by
    concavity its maximum is at most the best vertex's score, a dual bound.
    With several rows that bound is only as exact as HiGHS's optimality
    tolerance (about 1e-7).

    With three or more atoms each pairwise step is followed by a Newton step
    on the atom weights (``_newton_step``).  Pairwise steps alone balance an
    optimum inside the hull of several atoms, as tied letters give, two
    atoms at a time and zig-zag; with two atoms the Newton step's line is the
    pairwise one, so it adds nothing there.  Stops once bound - value is at
    most ``opts.cert_tol``, after ``opts.ba_max_iter`` steps, or when no
    pairwise step improves the objective.  Returns (law, value, dual bound).
    """
    # A letter within FACE_TOL of a budget counts as on it: pairing it would
    # divide by a cost difference at the rounding level.
    cost_rows = np.where(
        np.abs(cost_rows - budgets[:, None]) <= FACE_TOL, budgets[:, None], cost_rows
    )
    n = objective.n_inputs
    if cost_rows.shape[0] == 1:
        cost, budget = cost_rows[0], float(budgets[0])
        order = np.argsort(cost, kind="stable")

        def best_vertex(score: FloatArray) -> tuple[FloatArray, float]:
            x, y, alpha, top = _budget_vertex(cost, order, score, budget)
            v = np.zeros(n)
            v[x] += alpha
            v[y] += 1.0 - alpha
            return v, top

    else:

        def best_vertex(score: FloatArray) -> tuple[FloatArray, float]:
            return _lp_vertex(cost_rows, budgets, score)

    atoms = best_vertex(score)[0][None, :]
    weights = np.ones(1)
    p = atoms[0]
    score = objective.scores(p)
    value = float(p @ score)
    for _ in range(opts.ba_max_iter):
        v, top = best_vertex(score)
        if top - value <= opts.cert_tol:
            break
        atom_scores = atoms @ score
        away = int(np.argmin(atom_scores))
        # The linear program returns copies of a vertex that differ in ulps.
        same = np.flatnonzero(np.max(np.abs(atoms - v), axis=1) <= 1e-12)
        if same.size and same[0] == away:
            break
        t_max = weights[away]
        step, q, q_score, q_value = _line_search(
            objective, 0.0, p, v - atoms[away], t_max, top - atom_scores[away], value
        )
        if step <= 0.0:
            break  # the segment is numerically flat
        if same.size:
            weights[same[0]] += step
        else:
            atoms = np.vstack([atoms, v])
            weights = np.append(weights, step)
        if step >= t_max:  # a drop step
            atoms = np.delete(atoms, away, axis=0)
            weights = np.delete(weights, away)
        else:
            weights[away] -= step
        p, score, value = q, q_score, q_value
        if weights.size >= 3:
            atoms, weights, p, score, value = _newton_step(objective, atoms, weights, p, score, value)
    # The steps leave rounding in p; rebuilt from the atom weights it is
    # nonnegative and its cost is on a budget wherever theirs is.
    p = weights @ atoms / weights.sum()
    score = objective.scores(p)
    value = float(p @ score)
    return p, value, best_vertex(score)[1]


def _check_budgets(cost_rows: FloatArray, budgets: FloatArray) -> tuple[FloatArray, FloatArray]:
    """The budget rule of every budgeted entry point: cost_rows @ p <= budgets.

    A NaN budget raises ``ValueError``; a +inf budget constrains nothing,
    so its row is dropped.  ``InfeasibleDistortion`` is raised when a budget
    lies more than ``FACE_TOL`` below its row's cheapest letter or, with
    several rows, when the game min_p max_j (cost_j . p - budget_j) is above
    ``FACE_TOL``: no input law meets them all.  Its ``d_min`` is the least
    common budget when the budgets are equal (the cheapest letter for one
    row, else the game value of the costs), and None otherwise.  Returns the
    rows and budgets left.
    """
    if np.any(np.isnan(budgets)):
        raise ValueError(f"budget is NaN: {budgets.tolist()}")
    cheapest = cost_rows.min(axis=1)
    short = np.flatnonzero(budgets < cheapest - FACE_TOL)
    finite = budgets < np.inf
    rows, kept = cost_rows[finite], budgets[finite]
    if short.size:
        j = int(short[0])
        reason = f"budget {budgets[j]} is below the cheapest letter's cost"
        if budgets.size > 1:
            reason = f"row {j}: {reason} {cheapest[j]}"
    elif kept.size > 1 and _matrix_game(rows - kept[:, None])[0] > FACE_TOL:
        reason = "no input law meets every budget"
    else:
        return rows, kept
    d_min = None
    if np.all(kept == kept[0]):
        d_min = float(rows[0].min()) if kept.size == 1 else _matrix_game(rows)[0]
        reason += f"; d_min = {d_min}"
    raise InfeasibleDistortion(reason, d_min=d_min)


def _solve_budget(
    objective: _Objective, cost_rows: FloatArray, budgets: FloatArray, opts: SolverOptions
) -> tuple[FloatArray, float, float, bool, str | None]:
    """Maximize the objective subject to cost_rows @ p <= budgets, for
    rows and budgets returned by ``_check_budgets``.

    Returns (law, value, dual bound, constraint_active, warning).  A budget
    at its row's cheapest cost confines the law to that row's cheapest
    letters, on which the other rows are solved.  Otherwise the
    unconstrained law is returned if it meets every budget.  If not,
    pairwise Frank-Wolfe solves on the budget polytope, started from the
    best vertex for the unconstrained law's scores, and ends with a
    certified gap.  A gap above ``opts.stall_cert`` is flagged in the
    warning.  With several rows the dual bound is only as exact as the
    linear step's optimality tolerance (about 1e-7, see ``_lp_vertex``).
    """
    floor = budgets <= cost_rows.min(axis=1)
    if np.any(floor):
        rows = cost_rows[floor]
        face = np.all(rows <= rows.min(axis=1, keepdims=True) + FACE_TOL, axis=0)
        if not np.any(face):
            raise InfeasibleConstraints("the budgets at their cheapest costs share no letter")
        q, value, bound, _, warning = _solve_budget(
            objective.restrict(face), cost_rows[~floor][:, face], budgets[~floor], opts
        )
        p = np.zeros(face.size)
        p[face] = q
        return p, value, bound, True, warning

    p, cert, capped, value, score = _ascend(objective, np.zeros(objective.n_inputs), opts)
    if np.all(cost_rows @ p <= budgets):
        return p, value, value + cert, False, _uncertified(cert, capped, opts)
    p, value, bound = _frank_wolfe(objective, cost_rows, budgets, score, opts)
    warning = None
    if bound - value > opts.stall_cert:
        warning = f"Frank-Wolfe finisher stopped with gap {bound - value:.3g} above stall_cert"
    return p, value, bound, True, warning


def capacity_distortion_point(
    model: ChannelModel, budget: float, opts: SolverOptions = DEFAULT_OPTIONS
) -> CDPoint:
    """Best achievable rate (nats per use) with expected estimation cost <= budget.

    ``_check_budgets`` checks the budget: NaN raises ``ValueError``, +inf
    gives the unconstrained capacity, and a budget more than ``FACE_TOL``
    below d_min raises ``InfeasibleDistortion``.  ``_solve_budget`` solves
    it: on the minimum-cost letters at d_min, else unconstrained if that is
    feasible, else by pairwise Frank-Wolfe on {p in simplex : d*.p <= D},
    whose linear step reads the upper concave hull of (d*(x), score(x)) and
    gives a dual bound.  A binding point ends on the budget, and one whose
    gap stays above ``opts.stall_cert`` carries a ``convergence_warning``.
    """
    cost_vector = optimal_estimator(model).cost_vector
    rows, budgets = _check_budgets(cost_vector[None, :], np.array([budget], dtype=np.float64))
    p, value, _, active, warning = _solve_budget(_Objective([(1.0, model)]), rows, budgets, opts)
    return CDPoint(budget, max(0.0, value), InputDistribution(p), active, warning)


def cd_curve(model: ChannelModel, grid, opts: SolverOptions = DEFAULT_OPTIONS) -> CDCurve:
    """Tradeoff curve on a budget grid.

    ``grid`` is either a point count n (n budgets spanning [d_min, d_max];
    n = 1 evaluates the single point d_max) or an explicit sequence of
    budgets, which is sorted.  The computed curve is checked to be
    nondecreasing and concave within 1e-7; violations raise
    ``SolverNonmonotone`` rather than returning a silently bad curve.
    """
    d_min, d_max = feasible_range(model, opts)
    if isinstance(grid, (int, np.integer)):
        n = int(grid)
        if n < 1:
            raise ValueError("grid size must be >= 1")
        budgets = np.array([d_max]) if n == 1 else np.linspace(d_min, d_max, n)
    else:
        budgets = np.sort(np.asarray(list(grid), dtype=np.float64))
        if budgets.size == 0:
            raise ValueError("empty budget grid")
    points = tuple(capacity_distortion_point(model, float(b), opts) for b in budgets)

    caps = np.array([pt.capacity for pt in points])
    if np.any(np.diff(caps) < -CURVE_TOL):
        raise SolverNonmonotone("capacity decreased along increasing budgets beyond 1e-7")
    for i in range(len(points) - 2):
        d0, d1, d2 = budgets[i], budgets[i + 1], budgets[i + 2]
        if d2 - d0 <= 0:
            continue
        chord = caps[i] + (caps[i + 2] - caps[i]) * (d1 - d0) / (d2 - d0)
        if caps[i + 1] < chord - CURVE_TOL:
            raise SolverNonmonotone("curve concavity violated beyond 1e-7")
    return CDCurve(points, d_min, d_max)


# ---------------------------------------------------------------------------
# several simultaneous budgets
# ---------------------------------------------------------------------------


def _matrix_game(payoff: FloatArray) -> tuple[float, FloatArray, FloatArray]:
    """Value and optimal laws of the zero-sum game with this payoff matrix.

    The column player picks a law q to minimize max_j (payoff @ q)_j and the
    row player a law a to maximize min_i (a @ payoff)_i; both reach the
    value.  Solved as min t s.t. payoff @ q <= t over the simplex by the
    HiGHS dual simplex, whose constraint duals are the row law.  Returns
    (value, column law, row law).
    """
    from scipy.optimize import linprog

    n_rows, n_cols = payoff.shape
    c = np.zeros(n_cols + 1)
    c[-1] = 1.0
    a_eq = np.ones((1, n_cols + 1))
    a_eq[0, -1] = 0.0
    res = linprog(
        c,
        A_ub=np.hstack([payoff, -np.ones((n_rows, 1))]),
        b_ub=np.zeros(n_rows),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n_cols + [(None, None)],
        method="highs-ds",
    )
    if not res.success:
        raise InfeasibleConstraints("matrix game failed to solve")
    column = np.maximum(res.x[:-1], 0.0)
    row = np.maximum(-res.ineqlin.marginals, 0.0)
    return float(res.x[-1]), column / column.sum(), row / row.sum()


def multi_constraint_point(
    model: ChannelModel,
    constraints: Sequence[CostConstraint],
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> CDPoint:
    """Capacity under several simultaneous linear cost budgets.

    Any number of budgets takes the routine of ``capacity_distortion_point``
    on the polytope {p in simplex : A p <= b}; with several, its linear
    step is a small linear program.  The reported ``distortion_budget`` is
    the first constraint's budget.  The budgets are checked by
    ``_check_budgets``, as in ``capacity_distortion_point``.
    """
    if not constraints:
        raise ValueError("need at least one constraint")
    cost_rows = np.stack([c.cost_vector for c in constraints])
    budgets = np.array([c.budget for c in constraints], dtype=np.float64)
    if cost_rows.shape[1] != model.input_size:
        raise DimensionMismatch(
            f"cost vectors have length {cost_rows.shape[1]}, expected {model.input_size}"
        )
    rows, kept = _check_budgets(cost_rows, budgets)
    p, value, _, active, warning = _solve_budget(_Objective([(1.0, model)]), rows, kept, opts)
    return CDPoint(float(budgets[0]), max(0.0, value), InputDistribution(p), active, warning)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------


def _simplex_grid(n_inputs: int, step: float) -> FloatArray:
    n = int(round(1.0 / step))
    if n_inputs == 2:
        t = np.linspace(0.0, 1.0, n + 1)
        return np.stack([1.0 - t, t], axis=1)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = (i + j) <= n
    i, j = i[keep], j[keep]
    return np.stack([i, j, n - i - j], axis=1) / n


def grid_search_capacity(model: ChannelModel, budget: float, step: float | None = None) -> float:
    """Exhaustive simplex search, usable as an independent check of the solver.

    Only tiny input alphabets are supported (2 or 3 letters); the default
    step is 1e-4 for two letters and 1e-2 for three, giving an O(step)
    approximation from below.
    """
    if model.input_size > 3:
        raise AlphabetTooLarge("grid search supports input alphabets of size 2 or 3")
    if step is None:
        step = 1e-4 if model.input_size == 2 else 1e-2
    cost_vector = optimal_estimator(model).cost_vector
    if model.input_size == 1:
        if cost_vector[0] > budget + FACE_TOL:
            raise InfeasibleDistortion("budget below the single letter's cost", d_min=float(cost_vector[0]))
        return 0.0
    grid = _simplex_grid(model.input_size, step)
    feasible = grid @ cost_vector <= budget + 1e-12
    if not np.any(feasible):
        raise InfeasibleDistortion(
            f"budget {budget} below minimum achievable estimation cost", d_min=float(cost_vector.min())
        )
    return float(np.max(batch_mutual_information(model, grid[feasible])))


__all__ = [
    "CDCurve",
    "CDPoint",
    "CostConstraint",
    "DEFAULT_OPTIONS",
    "SolverOptions",
    "capacity_distortion_point",
    "cd_curve",
    "feasible_range",
    "grid_search_capacity",
    "lagrangian_ba_step",
    "multi_constraint_point",
]
