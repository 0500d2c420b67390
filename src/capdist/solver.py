"""Numerical solver for capacity under an estimation-cost budget.

The core is a multiplicatively-updated ascent on the input distribution
(classical alternating maximization of mutual information), and one
pairwise Frank-Wolfe routine finishes every solve the ascent leaves
uncertified: on the simplex when the ascent stalls short of its
certificate or has made ``BA_PREFIX`` updates, and on the budget polytope
{p in simplex : A p <= b} when the unconstrained law breaks a budget.  A
budget at its cheapest cost confines the law to the cheapest letters.
The linear step is the best letter with no budget, reads a concave hull
for one and solves a small linear program for several; each also gives the
budgets' multipliers, from which one Lagrangian dual bound certifies the
result.  Pairwise steps move weight between two atoms at a time, so where
the optimum lies inside the hull of three or more atoms (tied letters) a
Newton step on the atom weights follows each of them.  A vectorized grid
search over the input simplex doubles as an independent oracle for small
alphabets.
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

# A cost within FACE_TOL of its budget counts as on it (``_check_budgets``).
FACE_TOL = 1e-12

# Least mass that makes a letter a starting atom when an uncertified ascent
# hands its law to Frank-Wolfe.  Lighter letters would only enlarge the
# Newton system; the linear step brings back any that should gain mass.
MASS_FLOOR = 1e-6

# Tolerance applied to curve monotonicity / concavity checks.
CURVE_TOL = 1e-7

# The inner ascent stalls once its objective increment is at most BA_TOL.
BA_TOL = 1e-10

# Iteration cap of the Frank-Wolfe finisher, and of the inner ascent where
# it is below BA_PREFIX.
BA_MAX_ITER = 10_000

# Multiplicative updates an ascent makes before it hands an uncertified law
# to the Frank-Wolfe finisher.  On random channels the update contracts by
# a ratio near 0.9 from about the tenth step on, so it would crawl for a
# thousand updates that the finisher replaces with a few dozen evaluations.
# A much shorter prefix would also cut short block channels' ascents, which
# end within 25 updates, and hand them to Newton steps over hundreds of
# letters.
BA_PREFIX = 50

# A solve stops once its certificate max_x score(x) - objective (the
# Frank-Wolfe gap on the budget polytope) is at most CERT_TOL.
CERT_TOL = 1e-11

# The largest certificate a stalled ascent may accept without handing its law
# to the finisher, and the largest gap a returned point may carry without a
# convergence_warning.
STALL_CERT = 1e-6


@dataclass(frozen=True, eq=False)
class CDPoint:
    """One point of the tradeoff curve.

    constraint_active says the budget binds: the unconstrained law breaks
    it, or it is at most ``FACE_TOL`` above d_min (the cheapest letters).
    convergence_warning is None on a clean solve; otherwise it gives the
    certified gap, which is above ``STALL_CERT`` (never silently dropped).
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
    """A linear budget sum_x p(x) cost_vector[x] <= budget, with finite costs
    (else ``ValueError``); a cost within ``FACE_TOL`` of it counts as on it."""

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
    models; ``parts`` holds (w_i, P_i(y|x), row terms, support), each cached
    on the model, for every positive weight, and ``terms`` the same without
    the supports.

    A support is (rows, cols, values) of the nonzeros of a sparse P_i(y|x)
    (``ChannelModel._support``), or None for a dense one.  On a support the
    scores and the curvature add up its nonzeros with ``np.bincount``, at
    O(nonzeros) instead of O(|X| |Y|) per call, and the part never reads the
    dense P_i(y|x): its place holds a zero-stride array of that shape.  A
    dense P_i(y|x) goes through matrix products.
    """

    def __init__(self, weighted_models: Sequence[tuple[float, ChannelModel]]):
        self.parts = [
            (float(weight), model.output_given_input if model._support is None
             else np.broadcast_to(0.0, (model.input_size, model.output_size)), model._row_terms, model._support)
            for weight, model in weighted_models if weight > 0.0
        ]
        self.n_inputs = weighted_models[0][1].input_size

    @property
    def terms(self) -> list[tuple[float, FloatArray, FloatArray]]:
        """(w_i, P_i(y|x) or its zero-stride stand-in, row terms) per part:
        the layout perfbench's tracer unpacks to count the bytes a
        ``scores`` call reads."""
        return [part[:3] for part in self.parts]

    def scores(self, p: FloatArray) -> FloatArray:
        """sum_i w_i * D(P_i(.|x) || P_i(.)) per input letter, at input law p."""
        total = np.zeros(self.n_inputs)
        for weight, pyx, row_self, support in self.parts:
            if support is None:
                log_py = np.log(np.maximum(p @ pyx, 1e-300))
                cross = pyx @ log_py
            else:
                rows, cols, values = support
                py = np.bincount(cols, weights=p[rows] * values, minlength=pyx.shape[1])
                log_py = np.log(np.maximum(py, 1e-300))
                cross = np.bincount(rows, weights=values * log_py[cols], minlength=self.n_inputs)
            total += weight * (row_self - cross)
        return total

    def curvature(self, atoms: FloatArray, weights: FloatArray) -> FloatArray:
        """The negated Hessian of the objective in the coordinates of p =
        weights @ atoms: sum_i w_i Q_i diag(1 / P_i(y)) Q_i^T with Q_i =
        atoms @ P_i(y|x).  Only H(Y) curves; the conditional-entropy part of
        I is linear in p."""
        total = np.zeros((weights.size, weights.size))
        for weight, pyx, _, support in self.parts:
            if support is None:
                q = atoms @ pyx
            else:
                # Q_i[a, y] summed over the support, one bincount for all
                # atoms: atom a's entries are binned at a |Y| + y.
                rows, cols, values = support
                n_y = pyx.shape[1]
                bins = (np.arange(weights.size)[:, None] * n_y + cols).ravel()
                q = np.bincount(bins, weights=(atoms[:, rows] * values).ravel(), minlength=weights.size * n_y)
                q = q.reshape(weights.size, n_y)
            total += weight * (q / np.maximum(weights @ q, 1e-300)) @ q.T
        return total

    def restrict(self, keep: FloatArray) -> _Objective:
        """The objective on the letters where ``keep`` is true."""
        n_kept = int(np.count_nonzero(keep))
        restricted = copy.copy(self)
        # A slice of a zero-stride stand-in is one too: nothing is copied.
        restricted.parts = [
            (weight, pyx[keep], row_self[keep], None) if support is None
            else (weight, pyx[:n_kept], row_self[keep], _restrict_support(support, keep))
            for weight, pyx, row_self, support in self.parts
        ]
        restricted.n_inputs = n_kept
        return restricted


def _restrict_support(support: tuple[np.ndarray, np.ndarray, FloatArray], keep: np.ndarray) -> tuple:
    """The support's entries on the rows where ``keep`` is true, with those
    rows renumbered in order."""
    rows, cols, values = support
    on = keep[rows]
    return np.cumsum(keep)[rows[on]] - 1, cols[on], values[on]


def _line_search(
    objective: _Objective,
    p: FloatArray,
    direction: FloatArray,
    t_max: float,
    g0: float,
    value: float,
) -> tuple[float, FloatArray, FloatArray | None, float]:
    """Best point of the objective on q_t = p + t * direction, 0 <= t <= t_max.

    The objective is concave along the segment with slope
    g(t) = direction . scores(q_t) (the gradient of I is score - 1 and
    direction sums to zero), so g is nonincreasing with g(0) = g0 > 0.
    The best t is t_max if g(t_max) >= 0, else the root of g, found by
    Illinois regula falsi with a bisection fallback in a few evaluations.
    ``value`` is the objective at p.  Returns (t, q, scores at q, value at
    q): the point at t_max when g(t_max) >= 0, which concavity makes no
    worse than p even where rounding hides its gain; otherwise the best
    point seen, or (0, p, None, value) when none strictly improves on p.
    """
    best = (0.0, p, None, value)
    end = best

    def slope(t: float) -> float:
        nonlocal best, end
        q = p + t * direction
        s = objective.scores(q)
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


def _ascend(objective: _Objective) -> tuple[FloatArray, float, bool, float, FloatArray]:
    """Maximize the objective over the simplex.

    Runs the multiplicative update from the uniform law.  It returns once
    the certificate max_x score(x) - value is at most ``CERT_TOL``, or once
    the value increment drops to ``BA_TOL`` with a certificate of at most
    ``STALL_CERT``.  Any other stall, and the end of min(``BA_PREFIX``,
    ``BA_MAX_ITER``) updates, hand the law to ``_finish``: the update
    converges geometrically, by a ratio near 1 where the optimum sits near a
    face, while the finisher converges linearly on the simplex.  An update
    that lowers the value by more than 1e-12 raises ``SolverNonmonotone``.

    Returns (maximizer, certified optimality gap, hit_iteration_cap, value,
    score), the last two being p . score and score = scores(p) at the
    maximizer; hit_iteration_cap says the update ran to ``BA_MAX_ITER``
    before the hand-off, which only a cap of at most ``BA_PREFIX`` can
    make true.  The gap bounds the true suboptimality from above: for any
    law q, objective(q) <= max_x score(x), while the iterate achieves
    p . score.
    """
    n = objective.n_inputs
    log_p = np.full(n, -math.log(n))
    prev_value = -np.inf
    hist: list[FloatArray] = []  # recent consecutive log-iterates
    last = min(BA_PREFIX, BA_MAX_ITER)
    for it in range(last + 1):
        p = np.exp(log_p)
        p /= p.sum()
        score = objective.scores(p)
        value = float(p @ score)
        cert = float(np.max(score) - value)
        if value < prev_value - 1e-12:
            raise SolverNonmonotone(f"ascent step lowered the objective: {prev_value!r} -> {value!r}")
        # Increments decay geometrically while mass drains toward a face, so
        # a stalled update can still be visibly suboptimal; only a small
        # certificate, which bounds the suboptimality, is accepted then.
        stalled = value - prev_value <= BA_TOL
        if cert <= CERT_TOL or (stalled and cert <= STALL_CERT):
            return p, cert, False, value, score
        if stalled or it == last:
            break
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
                if float(q @ objective.scores(q)) > value:
                    log_p = np.log(np.maximum(q, 1e-300))
                    hist.clear()
    q, gap, q_value, q_score = _finish(objective, p, score)
    return q, gap, it == BA_MAX_ITER, q_value, q_score


def _finish(objective: _Objective, p: FloatArray, score: FloatArray) -> tuple[FloatArray, float, float, FloatArray]:
    """Hand the uncertified law p, with scores ``score``, to ``_frank_wolfe``
    on the simplex, started from its letters with mass above ``MASS_FLOOR``.
    A finisher that ends below p . score raises ``SolverNonmonotone``.
    Returns (law, certified gap, value, scores at the law).
    """
    # A multiplicative update cannot grow a tiny coordinate whose score
    # advantage is itself tiny (the per-step log gain equals the
    # certificate); Frank-Wolfe moves weight to the best letter directly.
    value = float(p @ score)
    held = np.flatnonzero(p > MASS_FLOOR)
    atoms = (held[:, None] == np.arange(p.size)).astype(np.float64)
    q, q_value, bound, q_score = _frank_wolfe(
        objective, np.zeros((0, p.size)), np.zeros(0), score, atoms, p[held] / p[held].sum()
    )
    if q_value < value - 1e-12:
        raise SolverNonmonotone(f"finisher returned below its start: {value!r} -> {q_value!r}")
    return q, bound - q_value, q_value, q_score


# ---------------------------------------------------------------------------
# budgeted solver
# ---------------------------------------------------------------------------


def feasible_range(model: ChannelModel) -> tuple[float, float]:
    """(d_min, d_max): the smallest achievable cost and the cost at the
    unconstrained capacity achiever.  Budgets >= d_max leave the constraint
    slack; budgets below d_min are infeasible.  The achiever is certified to
    ``CERT_TOL``: a stalled ascent's law, accepted up to ``STALL_CERT``, can
    keep mass of order its certificate on letters the optimum leaves empty."""
    policy = optimal_estimator(model)
    objective = _Objective([(1.0, model)])
    p, cert, _, _, score = _ascend(objective)
    if cert > CERT_TOL:
        p = _finish(objective, p, score)[0]
    d_min = float(np.min(policy.cost_vector))
    d_max = float(p @ policy.cost_vector)
    return d_min, max(d_min, d_max)


def _budget_vertex(
    cost: FloatArray, order: FloatArray, score: FloatArray, budget: float
) -> tuple[int, int, float, float]:
    """Best vertex of {p in simplex : cost.p <= budget} for the linear
    objective score.p, read off the upper concave hull of the points
    (cost(x), score(x)).

    ``order`` sorts ``cost``.  Returns (x, y, alpha, lam): the vertex puts
    alpha on letter x and 1 - alpha on letter y (x == y for a single
    letter), and lam >= 0 is the budget's multiplier, the hull's slope at
    the budget (0 when the hull's peak is affordable).
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
    if i + 1 == len(hull) or score[hull[i + 1]] <= score[x]:
        return x, x, 1.0, 0.0
    y = hull[i + 1]
    alpha = float((cost[y] - budget) / (cost[y] - cost[x]))
    return x, y, alpha, float((score[y] - score[x]) / (cost[y] - cost[x]))


def _simplex_lp(objective: FloatArray, rows: FloatArray, n_free: int = 0) -> tuple[FloatArray, FloatArray]:
    """Minimize objective @ z subject to rows @ z <= 0, by the HiGHS dual
    simplex, where z is a law on the simplex followed by ``n_free`` free
    entries.  Returns (z, multipliers): z with its law clipped at 0, and the
    rows' duals, clipped at 0.  A failed solve raises
    ``InfeasibleConstraints`` with HiGHS's message.
    """
    from scipy.optimize import linprog

    n = objective.size - n_free
    a_eq = np.zeros((1, objective.size))
    a_eq[0, :n] = 1.0
    res = linprog(
        objective,
        A_ub=rows,
        b_ub=np.zeros(rows.shape[0]),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)] * n_free,
        method="highs-ds",
    )
    if not res.success:
        raise InfeasibleConstraints(f"linear program failed to solve: {res.message}")
    np.maximum(res.x[:n], 0.0, out=res.x[:n])
    return res.x, np.maximum(-res.ineqlin.marginals, 0.0)


def _lp_vertex(excess: FloatArray, score: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Best vertex of {p in simplex : excess @ p <= 0} for the linear
    objective score.p.

    ``excess`` is cost_rows - budgets[:, None]: on the simplex the budgets
    read excess @ p <= 0.  HiGHS drops matrix entries below 1e-9, so a small
    cost would be priced at zero, while an excess is either zero or a cost
    difference.  Returns (vertex, multipliers): the rows' duals, clipped at 0.
    """
    return _simplex_lp(-score, excess)


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
    best move d with sum(d) = 0 solves K [d; mu] = [g; 0], K = [M 1; 1^T 0].
    K is singular when the atoms' output laws are affinely dependent.  Along
    its null directions P(Y) stays fixed, so the objective is linear there:
    when [g; 0] has a component in that null space, d is that component,
    whose slope d . g is its squared norm.  Otherwise d is the least-norm
    solution.  Both come from one SVD of K.  The line search then runs along
    d @ atoms up to the largest step that keeps every weight nonnegative,
    and an atom whose weight reaches zero is dropped.  Returns (atoms,
    weights, p, score, value), unchanged when d is not an ascent direction
    or no step improves.
    """
    k = weights.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = objective.curvature(atoms, weights)
    kkt[k, k] = 0.0
    g = atoms @ score
    u, s, vt = np.linalg.svd(kkt)
    null = s <= s[0] * (k + 1) * np.finfo(np.float64).eps
    d = vt[null, :k].T @ (vt[null, :k] @ g)
    if not d @ g > 0.0:
        d = vt[~null, :k].T @ ((u[:k, ~null].T @ g) / s[~null])
    g0 = float(d @ g)
    shrink = np.flatnonzero(d < 0.0)
    if g0 <= 0.0 or shrink.size == 0:
        return atoms, weights, p, score, value
    ratios = weights[shrink] / -d[shrink]
    t_max = float(ratios.min())
    step, q, q_score, q_value = _line_search(objective, p, d @ atoms, t_max, g0, value)
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
    atoms: FloatArray | None = None,
    weights: FloatArray | None = None,
) -> tuple[FloatArray, float, float, FloatArray]:
    """Maximize objective(p) over {p in simplex : cost_rows @ p <= budgets}
    by pairwise Frank-Wolfe, from the given atoms and weights, or else from
    the best vertex for the linear objective ``score``.  Rows, if any, come
    from ``_check_budgets``: no cost is off its budget by ``FACE_TOL`` or less.

    The law is kept as a convex combination of polytope vertices (atoms).
    Each step moves weight from the atom of least score to the best vertex,
    as far as the line search puts it.  The linear step is the only part
    that depends on the number of rows: with none it is the best letter,
    with one it reads the best vertex off the upper concave hull of
    (cost(x), score(x)) (``_budget_vertex``), and with several it solves a
    linear program (``_lp_vertex``).  Each also returns the rows'
    multipliers lam >= 0.  The objective is I(p) = p . score(p) with
    gradient score - 1, so by concavity and weak duality its maximum is at
    most max_x [score(x) - lam . (cost_rows[:, x] - budgets)] for any such
    lam: the dual bound.

    With three or more atoms each pairwise step is followed by a Newton step
    on the atom weights (``_newton_step``).  Pairwise steps alone balance an
    optimum inside the hull of several atoms, as tied letters give, two
    atoms at a time and zig-zag; with two atoms the Newton step's line is the
    pairwise one, so it adds nothing there.  Stops once bound - value is at
    most ``CERT_TOL``, after ``BA_MAX_ITER`` steps, or when no pairwise step
    improves the objective.  Returns (law, value, dual bound, scores at the
    law).
    """
    n = objective.n_inputs
    excess = cost_rows - budgets[:, None]
    if cost_rows.shape[0] == 0:

        def best_vertex(score: FloatArray) -> tuple[FloatArray, FloatArray]:
            return np.eye(1, n, int(np.argmax(score)))[0], np.zeros(0)

    elif cost_rows.shape[0] == 1:
        cost, budget = cost_rows[0], float(budgets[0])
        order = np.argsort(cost, kind="stable")

        def best_vertex(score: FloatArray) -> tuple[FloatArray, FloatArray]:
            x, y, alpha, lam = _budget_vertex(cost, order, score, budget)
            v = np.zeros(n)
            v[x] += alpha
            v[y] += 1.0 - alpha
            return v, np.array([lam])

    else:

        def best_vertex(score: FloatArray) -> tuple[FloatArray, FloatArray]:
            return _lp_vertex(excess, score)

    if atoms is None:
        atoms, weights = best_vertex(score)[0][None, :], np.ones(1)
    p = weights @ atoms
    score = objective.scores(p)
    value = float(p @ score)
    for _ in range(BA_MAX_ITER):
        v, lam = best_vertex(score)
        if (score - lam @ excess).max() - value <= CERT_TOL:
            break
        atom_scores = atoms @ score
        away = int(np.argmin(atom_scores))
        # The linear program returns copies of a vertex that differ in ulps.
        same = np.flatnonzero(np.max(np.abs(atoms - v), axis=1) <= 1e-12)
        if same.size and same[0] == away:
            break
        t_max = weights[away]
        step, q, q_score, q_value = _line_search(
            objective, p, v - atoms[away], t_max, score @ v - atom_scores[away], value
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
    return p, value, float((score - best_vertex(score)[1] @ excess).max()), score


def _check_budgets(cost_rows: FloatArray, budgets: FloatArray) -> tuple[FloatArray, FloatArray]:
    """The budget rule of every budgeted entry point: cost_rows @ p <= budgets.

    A non-finite cost or a NaN budget raises ``ValueError``; a +inf budget
    constrains nothing, so its row is dropped.  ``InfeasibleDistortion`` is
    raised when a budget lies more than ``FACE_TOL`` below its row's
    cheapest letter or, with several rows, when the game min_p max_j
    (cost_j . p - budget_j) is above ``FACE_TOL``: no input law meets them
    all.  Its ``d_min`` is the least common budget when the budgets are
    equal (the cheapest letter for one row, else the game value of the
    costs), and None otherwise.  Returns the rows and budgets left, every
    cost within ``FACE_TOL`` of its budget snapped onto it: pairing such a
    letter across the budget would divide by a rounding-level difference.
    """
    if np.any(np.isnan(budgets)):
        raise ValueError(f"budget is NaN: {budgets.tolist()}")
    if not np.all(np.isfinite(cost_rows)):
        raise ValueError("every cost entry must be finite")
    cheapest = cost_rows.min(axis=1)
    # The difference the snap tests, so a kept budget at or below its row's
    # cheapest letter always has that letter snapped onto it.
    short = np.flatnonzero(cheapest - budgets > FACE_TOL)
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
        return np.where(np.abs(rows - kept[:, None]) <= FACE_TOL, kept[:, None], rows), kept
    d_min = None
    if np.all(kept == kept[0]):
        d_min = float(rows[0].min()) if kept.size == 1 else _matrix_game(rows)[0]
        reason += f"; d_min = {d_min}"
    raise InfeasibleDistortion(reason, d_min=d_min)


def _solve_budget(
    objective: _Objective, cost_rows: FloatArray, budgets: FloatArray
) -> tuple[FloatArray, float, float, bool, str | None]:
    """Maximize the objective subject to cost_rows @ p <= budgets, for
    rows and budgets returned by ``_check_budgets``.

    Returns (law, value, dual bound, constraint_active, warning).  A budget
    on its row's cheapest cost (where the snap puts costs within FACE_TOL)
    confines the law to the letters on it, on which the other rows are
    solved.  Otherwise the unconstrained law (``_ascend``) is returned if
    it meets every budget.  If not, pairwise Frank-Wolfe solves on the
    budget polytope, started from the best vertex for the unconstrained
    law's scores.  Either way the law comes with a certified gap, and one
    rule flags it: a gap above ``STALL_CERT`` is named in the warning.
    """
    floor = budgets <= cost_rows.min(axis=1)
    if np.any(floor):
        rows = cost_rows[floor]
        face = np.all(rows == budgets[floor][:, None], axis=0)
        if not np.any(face):
            raise InfeasibleConstraints("the budgets at their cheapest costs share no letter")
        q, value, bound, _, warning = _solve_budget(
            objective.restrict(face), cost_rows[~floor][:, face], budgets[~floor]
        )
        p = np.zeros(face.size)
        p[face] = q
        return p, value, bound, True, warning

    p, cert, _, value, score = _ascend(objective)
    bound = value + cert
    active = bool(np.any(cost_rows @ p > budgets))
    if active:
        p, value, bound, _ = _frank_wolfe(objective, cost_rows, budgets, score)
    warning = None
    if bound - value > STALL_CERT:
        warning = f"solver stopped with gap {bound - value:.3g} above stall_cert"
    return p, value, bound, active, warning


def capacity_distortion_point(model: ChannelModel, budget: float) -> CDPoint:
    """Best achievable rate (nats per use) with expected estimation cost <= budget.

    The one-row case of ``multi_constraint_point``, with the row d*: NaN
    raises ``ValueError``, +inf gives the unconstrained capacity, and a
    budget more than ``FACE_TOL`` below d_min raises
    ``InfeasibleDistortion``.  Frank-Wolfe's linear step reads the upper
    concave hull of (d*(x), score(x)), whose slope at the budget is the
    multiplier dC/dD.
    """
    return multi_constraint_point(model, [CostConstraint(optimal_estimator(model).cost_vector, budget)])


def cd_curve(model: ChannelModel, grid) -> CDCurve:
    """Tradeoff curve on a budget grid.

    ``grid`` is either a point count n (n budgets spanning [d_min, d_max];
    n = 1 evaluates the single point d_max) or an explicit sequence of
    budgets, which is sorted.  The computed curve is checked to be
    nondecreasing and concave within 1e-7; violations raise
    ``SolverNonmonotone`` rather than returning a silently bad curve.
    """
    d_min, d_max = feasible_range(model)
    if isinstance(grid, (int, np.integer)):
        n = int(grid)
        if n < 1:
            raise ValueError("grid size must be >= 1")
        budgets = np.array([d_max]) if n == 1 else np.linspace(d_min, d_max, n)
    else:
        budgets = np.sort(np.asarray(list(grid), dtype=np.float64))
        if budgets.size == 0:
            raise ValueError("empty budget grid")
    points = tuple(capacity_distortion_point(model, float(b)) for b in budgets)

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
    value.  Solved as min t s.t. payoff @ q <= t over the simplex, whose
    constraint duals are the row law.  Returns (value, column law, row law).
    """
    n_rows, n_cols = payoff.shape
    c = np.zeros(n_cols + 1)
    c[-1] = 1.0
    z, row = _simplex_lp(c, np.hstack([payoff, -np.ones((n_rows, 1))]), n_free=1)
    column = z[:-1]
    return float(z[-1]), column / column.sum(), row / row.sum()


def multi_constraint_point(model: ChannelModel, constraints: Sequence[CostConstraint]) -> CDPoint:
    """Capacity under one or several simultaneous linear cost budgets.

    ``_check_budgets`` checks the budgets and ``_solve_budget`` solves them:
    on the cheapest letters of a budget at its row's cheapest cost, else
    unconstrained if that is feasible, else by pairwise Frank-Wolfe on the
    polytope {p in simplex : A p <= b}.  A binding point ends on its
    budgets, and one whose certified gap stays above ``STALL_CERT`` carries
    a ``convergence_warning``.  The reported ``distortion_budget`` is the
    first constraint's budget.
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
    p, value, _, active, warning = _solve_budget(_Objective([(1.0, model)]), rows, kept)
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
    approximation from below.  ``_check_budgets`` checks the budget, and a
    grid law at most ``FACE_TOL`` above it counts as feasible.
    """
    if model.input_size > 3:
        raise AlphabetTooLarge("grid search supports input alphabets of size 2 or 3")
    if step is None:
        step = 1e-4 if model.input_size == 2 else 1e-2
    cost_vector = optimal_estimator(model).cost_vector
    _check_budgets(cost_vector[None, :], np.array([budget], dtype=np.float64))
    if model.input_size == 1:
        return 0.0
    grid = _simplex_grid(model.input_size, step)
    feasible = grid @ cost_vector - budget <= FACE_TOL
    return float(np.max(batch_mutual_information(model, grid[feasible])))


__all__ = [
    "CDCurve",
    "CDPoint",
    "CostConstraint",
    "capacity_distortion_point",
    "cd_curve",
    "feasible_range",
    "grid_search_capacity",
    "multi_constraint_point",
]
