"""Numerical solver for capacity under an estimation-cost budget.

The core is a multiplicatively-updated ascent on the input distribution
(classical alternating maximization of mutual information), and one
pairwise Frank-Wolfe routine finishes every solve the ascent leaves
uncertified: on the simplex when the ascent stalls short of its
certificate or has made ``BA_PREFIX`` updates, and on the budget polytope
{p in simplex : A p <= b} when the unconstrained law breaks a budget.
One budgeted solve (``_solve_budget``) serves every budgeted entry point;
given a start law, as ``compound_cd``'s Kelley rounds give it, it runs that
routine alone, with no ascent.  The budget rule (``_check_budgets``)
decides every budget set once: a budget at its cheapest cost confines the
law to the cheapest letters, and the rule returns the polytope on them.
The polytope owns the linear step (``_Polytope.vertex``): the best letter
on the simplex, the polytope with no rows (``_simplex``), a concave hull
for one budget and a small linear program for several; each also gives
the budgets' multipliers, from which one Lagrangian dual bound certifies
the result.
Pairwise steps move weight between two atoms at a time, so where the
optimum lies inside the hull of three or more atoms (tied letters) a
Newton step on the atom weights follows each of them.  A vectorized grid
search over the input simplex doubles as an independent oracle for small
alphabets.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    PROB_TOL,
    ChannelModel,
    FloatArray,
    InputDistribution,
    batch_mutual_information,
    optimal_estimator,
)
from .errors import (
    AlphabetTooLarge,
    DimensionMismatch,
    InfeasibleDistortion,
    NotCertified,
    SolverNonmonotone,
)

# A cost within FACE_TOL of its budget counts as on it (``_snap``).
FACE_TOL = 1e-12

# Least mass that makes a letter a starting atom when an uncertified ascent
# hands its law to Frank-Wolfe.  Lighter letters would only enlarge the
# Newton system; the linear step brings back any that should gain mass.
MASS_FLOOR = 1e-6

# Tolerance applied to curve monotonicity / concavity checks.
CURVE_TOL = 1e-7

# The inner ascent stalls once its objective increment is at most BA_TOL.
BA_TOL = 1e-10

# Iteration cap of every Frank-Wolfe solve, on the simplex and on the budget
# polytope alike.
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
    (else ``ValueError``); a cost within ``FACE_TOL`` of it counts as on it.
    A cost_vector that is not a vector raises ``DimensionMismatch``."""

    cost_vector: FloatArray
    budget: float

    def __post_init__(self):
        vec = np.array(self.cost_vector, dtype=np.float64)  # not the caller's array
        if vec.ndim != 1:
            raise DimensionMismatch(f"cost_vector must be a vector, got shape {vec.shape}")
        vec.setflags(write=False)
        object.__setattr__(self, "cost_vector", vec)


# ---------------------------------------------------------------------------
# inner ascent
# ---------------------------------------------------------------------------


class _Objective:
    """Weighted mutual-information objective sum_i w_i I_i(p) over channel
    models; ``terms`` holds (w_i, P_i(y|x), row terms), each cached on the
    model, for every positive weight.  P_i(y|x) is the model's dense matrix
    or its support (``ChannelModel._pyx``); both take the same products.
    perfbench's tracer unpacks this layout and reads the ``size`` of P_i.
    Budgets solved on one objective (a ``cd_curve``) share its one ascent,
    and those on one face share the face's.
    """

    def __init__(self, weighted_models: Sequence[tuple[float, ChannelModel]]):
        self.terms = [(float(weight), model._pyx, model._row_terms)
                      for weight, model in weighted_models if weight > 0.0]
        self.n_inputs = weighted_models[0][1].input_size
        self._ascent = None
        self._faces = {}

    def unconstrained(self) -> tuple[FloatArray, float, bool, float, FloatArray]:
        """``_ascend``'s return on this objective, computed on first call."""
        if self._ascent is None:
            self._ascent = _ascend(self)
        return self._ascent

    def scores(self, p: FloatArray) -> FloatArray:
        """sum_i w_i * D(P_i(.|x) || P_i(.)) per input letter, at input law p,
        as a fresh array.  The first term starts the sum and a unit weight
        skips its multiply: the same doubles as a sum from zeros, with fewer
        array operations, which dominate the ascent's steps on small
        alphabets."""
        total = None
        for weight, pyx, row_self in self.terms:
            log_py = p @ pyx  # a fresh array, dense or on a support
            np.log(np.maximum(log_py, 1e-300, out=log_py), out=log_py)
            term = pyx @ log_py
            np.subtract(row_self, term, out=term)
            if weight != 1.0:
                term *= weight
            if total is None:
                total = term
            else:
                total += term
        return np.zeros(self.n_inputs) if total is None else total

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

    def restrict(self, keep: FloatArray | None) -> _Objective:
        """The objective on the letters where ``keep`` is true, built once
        per face, so that budgets solved on one face share its ascent; the
        objective itself where ``keep`` is None (no face)."""
        if keep is None:
            return self
        key = keep.tobytes()
        if key not in self._faces:
            restricted = copy.copy(self)
            restricted.terms = [(weight, pyx[keep], row_self[keep]) for weight, pyx, row_self in self.terms]
            restricted.n_inputs = int(np.count_nonzero(keep))
            restricted._ascent = None  # the parent's law is not a law on the face
            restricted._faces = {}
            self._faces[key] = restricted
        return self._faces[key]


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
        q = direction * t  # p + t * direction, in one temporary
        q += p
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
    ``STALL_CERT``.  Any other stall, and the end of ``BA_PREFIX``
    updates, hand the law to ``_finish``: the update converges
    geometrically, by a ratio near 1 where the optimum sits near a face,
    while the finisher converges linearly on the simplex.  An update that
    lowers the value by more than 1e-12 raises ``SolverNonmonotone``.

    Returns (maximizer, certified optimality gap, False, value, score), the
    last two being p . score and score = scores(p) at the maximizer.  The
    third entry, an iteration-cap flag, is always False: the update runs at
    most ``BA_PREFIX`` times and ``BA_MAX_ITER`` caps only Frank-Wolfe.
    The gap bounds the true suboptimality from above: for any law q,
    objective(q) <= max_x score(x), while the iterate achieves p . score.
    """
    n = objective.n_inputs
    # The ufuncs' reductions, bound once: np.sum and np.max reach the same
    # ones through a wrapper that costs as much as a small step's arithmetic.
    add, maximum = np.add.reduce, np.maximum.reduce
    log_p = np.full(n, -math.log(n))
    prev_value = -np.inf
    hist: list[FloatArray] = []  # recent consecutive log-iterates
    for it in range(BA_PREFIX + 1):
        p = np.exp(log_p)
        p /= add(p)
        score = objective.scores(p)
        value = float(p @ score)
        cert = float(maximum(score) - value)
        if value < prev_value - 1e-12:
            raise SolverNonmonotone(f"ascent step lowered the objective: {prev_value!r} -> {value!r}")
        # Increments decay geometrically while mass drains toward a face, so
        # a stalled update can still be visibly suboptimal; only a small
        # certificate, which bounds the suboptimality, is accepted then.
        stalled = value - prev_value <= BA_TOL
        if cert <= CERT_TOL or (stalled and cert <= STALL_CERT):
            return p, cert, False, value, score
        if stalled or it == BA_PREFIX:
            break
        prev_value = value
        log_p = log_p + score
        log_p -= maximum(log_p)
        log_p -= math.log(add(np.exp(log_p)))
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
            if (jump != 0.0).any():
                cand = hist[2] + jump
                cand -= np.max(cand)
                q = np.exp(cand)
                q /= q.sum()
                if float(q @ objective.scores(q)) > value:
                    log_p = np.log(np.maximum(q, 1e-300))
                    hist.clear()
    q, gap, q_value, q_score = _finish(objective, p, score)
    return q, gap, False, q_value, q_score


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
    held = (p > MASS_FLOOR).nonzero()[0]
    atoms = (held[:, None] == np.arange(p.size)).astype(np.float64)
    q, q_value, bound, q_score = _frank_wolfe(objective, _simplex(p.size), atoms, p[held] / p[held].sum())
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
    keep mass of order its certificate on letters the optimum leaves empty.
    Called alone it runs its own ascent; ``cd_curve`` reads the one its
    budgets share."""
    return _feasible_range(_Objective([(1.0, model)]), optimal_estimator(model).cost_vector)


def _feasible_range(objective: _Objective, cost: FloatArray) -> tuple[float, float]:
    """``feasible_range`` on the objective's ascent, finishing a copy of its law."""
    p, cert, _, _, score = objective.unconstrained()
    if cert > CERT_TOL:
        p = _finish(objective, p, score)[0]
    d_min = float(np.min(cost))
    d_max = float(p @ cost)
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
    the budget (0 when the hull's peak is affordable).  The chain keeps only
    letters that outscore every cheaper-or-equal one, so its scores rise.
    """
    # Every letter is visited, as Python floats (3x faster to index than
    # numpy scalars, same doubles); only one that beats the best so far joins.
    cost, score = cost.tolist(), score.tolist()
    hull: list[int] = []  # monotone chain, left to right
    for x in order.tolist():
        c, s = cost[x], score[x]
        if hull and score[hull[-1]] >= s:
            continue
        if hull and cost[hull[-1]] == c:
            hull.pop()
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (cost[b] - cost[a]) * (s - score[a]) < (score[b] - score[a]) * (c - cost[a]):
                break
            hull.pop()  # b lies on or below the chord from a to x
        hull.append(x)
    i = 0
    while i + 1 < len(hull) and cost[hull[i + 1]] <= budget:
        i += 1
    x = hull[i]
    if i + 1 == len(hull):
        return x, x, 1.0, 0.0
    y = hull[i + 1]
    alpha = float((cost[y] - budget) / (cost[y] - cost[x]))
    return x, y, alpha, float((score[y] - score[x]) / (cost[y] - cost[x]))


class _LinearProgram:
    """The linear programs min objective @ z subject to rows @ z <= 0 and
    z >= 0, for fixed rows and any objective, where z is ``n_extra``
    entries followed by a law on the simplex; a dense two-phase simplex
    (``_pivot_to_optimum``).

    Each row gets a slack.  The extra entries come first, so that Bland's
    rule enters the matrix game's value right after the first letter; last,
    it left tiny pivots, and four times as many games with entries of 1e-12
    to 1e-5 raised.  An entry of a row below the rounding unit of the row's
    largest is taken as zero: a degenerate pivot on it would leave a basis
    too ill-conditioned to read.  The constructor runs phase 1, which adds
    one artificial variable for sum(p) = 1 and minimizes it.  While that
    variable is basic, the basis solves B x = e with e its own column, so
    it sits at 1 and every other basic variable at 0; an entering column
    that reaches another row then pivots there at ratio 0, and one that
    reaches only its row takes it out.  So phase 1 ends with it out of the
    basis or basic at 1, never basic at 0, and basic it raises
    ``InfeasibleDistortion`` with no ``d_min`` (no law meets the rows).
    That is the budget rule's feasibility test for several rows: the
    program of the excess rows left on a budget polytope's face
    (``_Polytope.program``) runs its phase 1 once, in ``_check_budgets``,
    which catches the raise; a matrix game's rows always admit a law.
    Only the objective changes between ``solve`` calls, so
    each one's optimal basis stays feasible and the next phase 2 starts from
    it (simplex reoptimization): every Frank-Wolfe step on a polytope, in
    every solve on it, re-optimizes its one program.  A letter appended by
    ``add_column`` is nonbasic at 0, so the basis stays primal feasible too,
    and phase 1 runs once however many columns are added.  Every basis is
    solved by ``_solve_basis``.
    """

    def __init__(self, rows: FloatArray, n_extra: int = 0):
        m, size = rows.shape
        # Columns: z, the slacks and the artificial variable; the last row
        # is sum(p) = 1.
        art = size + m
        a = np.zeros((m + 1, art + 1))
        a[:m, :size] = _zero_tiny(rows)
        a[:m, size:art] = np.eye(m)
        a[m, n_extra:size] = 1.0
        a[m, art] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        basis = np.arange(size, art + 1)
        _pivot_to_optimum(a, rhs, np.eye(1, art + 1, art)[0], basis)
        if art in basis:
            raise InfeasibleDistortion("no law meets the rows: phase 1 ends at 1")
        self.a, self.rhs, self.basis = a[:, :art], rhs, basis
        self.n_extra, self.size = n_extra, size

    def add_column(self, column: FloatArray) -> None:
        """Append a letter with this column of the rows, after the last.
        Its entries are zeroed at the unit of each row's largest, the new
        entry included, as a fresh build of all the rows would zero them.
        The earlier entries stay as they are, so where the new entry raises
        a row's largest, an earlier entry between the old unit and the new
        one stays nonzero; a fresh build would zero it.  Zeroing it under
        the kept basis would move that basis's vertex: on a row tied at
        3e-16 it broke primal feasibility by 3e-4."""
        m, size = self.rhs.size - 1, self.size
        column = _zero_tiny(np.column_stack([self.a[:m, :size], column]))[:, -1]
        self.a = np.insert(self.a, size, np.append(column, 1.0), axis=1)
        self.basis[self.basis >= size] += 1
        self.size = size + 1

    def solve(self, objective: FloatArray) -> tuple[FloatArray, FloatArray]:
        """Phase 2: minimize objective @ z from the last basis.  The final
        basis is solved once more for z, and the duals y of its equations
        are the ones ``_pivot_to_optimum`` solved it for, so both are exact
        to rounding.  Returns (z, multipliers): z with its law clipped at 0
        (the extra entries keep their rounding, which a difference of two of
        them needs), and the rows' multipliers -y, clipped at 0.  Raises
        ``NotCertified`` when the objective decreases without bound, which no
        caller's program can."""
        a, basis, n_extra, size = self.a, self.basis, self.n_extra, self.size
        cost = np.zeros(a.shape[1])
        cost[:size] = objective
        duals = _pivot_to_optimum(a, self.rhs, cost, basis)
        z = np.zeros(a.shape[1])
        z[basis] = _solve_basis(a[:, basis], self.rhs)
        np.maximum(z[n_extra:size], 0.0, out=z[n_extra:size])
        return z[:size], np.maximum(-duals[:-1], 0.0)


def _zero_tiny(rows: FloatArray) -> FloatArray:
    """``rows`` with each entry at or below eps times its row's largest
    magnitude set to zero."""
    unit = np.finfo(np.float64).eps * np.abs(rows).max(axis=1, keepdims=True)
    return np.where(np.abs(rows) <= unit, 0.0, rows)


def _solve_basis(b: FloatArray, rhs: FloatArray) -> FloatArray:
    """``np.linalg.solve(b, rhs)`` for a simplex basis b.  A singular basis
    is the simplex's own fault, not the input's: ``NotCertified``."""
    try:
        return np.linalg.solve(b, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotCertified(f"the simplex reached a singular basis ({exc})") from None


def _pivot_to_optimum(a: FloatArray, rhs: FloatArray, cost: FloatArray, basis: FloatArray) -> FloatArray:
    """Move ``basis`` (row i's basic column of the equations a z = rhs, in
    place) to one that minimizes cost @ z over z >= 0, and return the duals
    y of the final basis, B^T y = cost[basis].

    Every step solves the basis B afresh from ``a`` for the duals y and the
    entering column, so rounding does not build up along the pivots.  The
    entering column is the first (Bland, 1977) whose reduced cost is below
    minus its rounding, (m + 1) eps cond(B) times the magnitudes it is
    computed from, or below -FACE_TOL where that rounding is larger.  So a
    first negative reduced cost below -FACE_TOL enters whatever its
    rounding, and the bound, with the one inverse of B that gives cond(B)
    in the inf-norm, is formed only when that cost lies within
    [-FACE_TOL, 0), in Bland mode, or when the column reaches no row.  The
    leaving row has the least ratio over the entries of that column above
    ``FACE_TOL`` times the column's largest (and 1); among tied rows the
    largest entry leaves, which keeps a degenerate vertex's basis well
    conditioned.  Should a basis recur, the steps that led back to it were
    rounding, so from then on a reduced cost must be below minus its
    rounding, and ties go to the least basic index, Bland's leaving rule,
    with which the pivots cannot cycle; a basis that recurs even so ends the
    loop.  A column that entered on -FACE_TOL alone, within its rounding,
    and reaches no row switches to that rule too: a warm start's degenerate
    basis can price a free pair's second column at minus the first's
    rounding.  Only a reduced cost beyond its rounding with no row to reach
    is an unbounded program, raised as ``NotCertified``.
    """

    def rounding_of(b: FloatArray, y: FloatArray) -> FloatArray:
        inverse = _solve_basis(b, np.eye(b.shape[0]))  # np.linalg.inv's own solve
        cond = np.abs(b).sum(axis=1).max() * np.abs(inverse).sum(axis=1).max()
        return b.shape[0] * np.finfo(np.float64).eps * cond * (
            np.abs(cost) + np.abs(y).max() * np.abs(a).sum(axis=0))

    seen, bland = set(), False
    while True:
        b = a[:, basis]
        y = _solve_basis(b.T, cost[basis])
        if basis.tobytes() in seen:
            if bland:
                return y
            seen, bland = set(), True
        seen.add(basis.tobytes())
        reduced = cost - y @ a
        reduced[basis] = 0.0
        negative = reduced < 0.0
        j = int(negative.argmax())
        if not negative[j]:
            return y
        rounding = None
        if bland or reduced[j] >= -FACE_TOL:
            rounding = rounding_of(b, y)
            entering = np.flatnonzero(reduced < -(rounding if bland else np.minimum(rounding, FACE_TOL)))
            if entering.size == 0:
                return y
            j = int(entering[0])
        column, x = _solve_basis(b, np.column_stack([a[:, j], rhs])).T
        reach = np.flatnonzero(column > FACE_TOL * max(1.0, np.abs(column).max()))
        if reach.size == 0:
            if rounding is None:
                rounding = rounding_of(b, y)
            if bland or reduced[j] < -rounding[j]:
                raise NotCertified("the linear program is unbounded")
            seen, bland = set(), True  # it entered on FACE_TOL alone: rounding
            continue
        ratios = np.maximum(x[reach], 0.0) / column[reach]
        tied = reach[ratios == ratios.min()]
        basis[tied[np.argmin(basis[tied])] if bland else tied[np.argmax(column[tied])]] = j


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
    shrink = (d < 0.0).nonzero()[0]
    if g0 <= 0.0 or shrink.size == 0:
        return atoms, weights, p, score, value
    ratios = weights[shrink] / -d[shrink]
    t_max = float(ratios.min())
    step, q, q_score, q_value = _line_search(objective, p, d @ atoms, t_max, g0, value)
    if step <= 0.0:
        return atoms, weights, p, score, value
    weights = weights + step * d
    if step >= t_max:
        weights[shrink[ratios.argmin()]] = 0.0
    keep = weights > 0.0
    return atoms[keep], weights[keep], q, q_score, q_value


def _frank_wolfe(
    objective: _Objective, polytope: _Polytope, atoms: FloatArray, weights: FloatArray
) -> tuple[FloatArray, float, float, FloatArray]:
    """Maximize objective(p) over the budget polytope {p in simplex :
    rows @ p <= budgets} by pairwise Frank-Wolfe, from the given atoms and
    weights.  The polytope comes from ``_check_budgets`` (no cost is off
    its budget by ``FACE_TOL`` or less, and the objective and the atoms are
    on its ``letters``), or is the simplex (``_simplex``).

    The law is kept as a convex combination of polytope vertices (atoms).
    Each step moves weight from the atom of least score to the best vertex
    (``_Polytope.vertex``), as far as the line search puts it.  The vertex
    comes with the rows' multipliers lam >= 0.  The objective is
    I(p) = p . score(p) with gradient score - 1, so by concavity and weak
    duality its maximum is at most
    max_x [score(x) - lam . (rows[:, x] - budgets)] for any such lam: the
    dual bound.

    With three or more atoms each pairwise step is followed by a Newton step
    on the atom weights (``_newton_step``).  Pairwise steps alone balance an
    optimum inside the hull of several atoms, as tied letters give, two
    atoms at a time and zig-zag; with two atoms the Newton step's line is the
    pairwise one, so it adds nothing there.  Stops once bound - value is at
    most ``CERT_TOL``, after ``BA_MAX_ITER`` steps, or when no pairwise step
    improves the objective.  Returns (law, value, dual bound, scores at the
    law).  A law whose sum is off 1 by ``PROB_TOL`` or more, which only
    linear-program vertices off the simplex can give, raises
    ``NotCertified``.
    """
    excess = polytope.excess
    p = weights @ atoms
    score = objective.scores(p)
    value = float(p @ score)
    maximum = np.maximum.reduce  # np.max's ufunc, without its wrapper
    for _ in range(BA_MAX_ITER):
        v, lam = polytope.vertex(score)
        if maximum(score - lam @ excess) - value <= CERT_TOL:
            break
        atom_scores = atoms @ score
        away = int(atom_scores.argmin())
        # The linear program returns copies of a vertex that differ in ulps.
        same = (maximum(np.abs(atoms - v), axis=1) <= 1e-12).nonzero()[0]
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
            atoms = np.concatenate((atoms, v[None, :]))
            weights = np.concatenate((weights, [step]))
        if step >= t_max:  # a drop step
            kept = np.arange(weights.size) != away
            atoms, weights = atoms[kept], weights[kept]
        else:
            weights[away] -= step
        p, score, value = q, q_score, q_value
        if weights.size >= 3:
            atoms, weights, p, score, value = _newton_step(objective, atoms, weights, p, score, value)
    # The steps leave rounding in p; rebuilt from the atom weights it is
    # nonnegative and its cost is on a budget wherever theirs is.
    p = weights @ atoms / weights.sum()
    if abs(p.sum() - 1.0) >= PROB_TOL:
        raise NotCertified(f"Frank-Wolfe's law sums to {p.sum():.17g}: a vertex is off the simplex")
    score = objective.scores(p)
    value = float(p @ score)
    return p, value, float(maximum(score - polytope.vertex(score)[1] @ excess)), score


@dataclass(frozen=True, eq=False)
class _Polytope:
    """The budget polytope {p in simplex : rows @ p <= budgets} of one
    budget set, as the budget rule (``_check_budgets``) returns it, shared
    by every solve on it: ``compound_cd`` runs all its Kelley rounds on one.

    ``rows`` are the costs with every cost within ``FACE_TOL`` of its budget
    snapped onto it, and ``excess`` is rows - budgets[:, None], so a law p
    meets the budgets when excess @ p <= 0, the homogeneous form the linear
    program takes; a snapped cost's excess is exactly zero.  Where a budget
    is on its row's cheapest cost, every law lies on the letters on it, and
    the polytope is held on that face: ``letters`` masks the letters kept in
    the full alphabet (None off a face), and the rows, budgets and excess
    are the other rows on them.  ``order`` and ``program`` are built on
    first use and kept.
    """

    rows: FloatArray
    budgets: FloatArray
    excess: FloatArray
    letters: FloatArray | None = None

    @functools.cached_property
    def order(self) -> FloatArray:
        """The letters sorted by the one row's cost, which the hull reads."""
        return np.argsort(self.rows[0], kind="stable")

    @functools.cached_property
    def program(self) -> _LinearProgram:
        """The ``_LinearProgram`` of the excess rows, past its phase 1.  The
        budget rule runs it for every polytope of two or more rows, so it
        finds a law here; only a phase 1 that faults (``NotCertified``), on
        a set the rule's game let through, runs again, and faults again."""
        return _LinearProgram(self.excess)

    def vertex(self, score: FloatArray) -> tuple[FloatArray, FloatArray]:
        """(v, lam): the polytope's best vertex v for the linear objective
        score . v, and the rows' multipliers lam >= 0.  With no row it is the
        first best letter, with no multiplier; with one it is read off the
        upper concave hull of (cost(x), score(x)) (``_budget_vertex``); with
        several it solves the polytope's ``program``, whose phase 1 ran once,
        when the budget rule built the polytope.  Each solve re-optimizes it
        from its last optimal basis, also across Frank-Wolfe calls."""
        n = self.rows.shape[1]
        if self.rows.shape[0] == 0:
            return np.eye(1, n, int(np.argmax(score)))[0], np.zeros(0)
        if self.rows.shape[0] == 1:
            x, y, alpha, lam = _budget_vertex(self.rows[0], self.order, score, float(self.budgets[0]))
            v = np.zeros(n)
            v[x] += alpha
            v[y] += 1.0 - alpha
            return v, np.array([lam])
        return self.program.solve(-score)

    def start(self, objective: _Objective) -> FloatArray:
        """A law of this polytope, in the full alphabet, to start Frank-Wolfe
        from: the uniform law on the letters that meet every budget on their
        own, and where no letter does, the best vertex for the uniform law's
        scores under the objective on ``letters``.  A start inside the
        polytope matters where the optimum spreads over many letters: on the
        K = 7 block channel, whose optimum is uniform on its 127 free
        letters, Frank-Wolfe from a vertex adds one letter a step (1,445
        score evaluations, against 2).
        """
        free = (self.excess <= 0.0).all(axis=0)
        if free.any():
            return _lift(free / np.count_nonzero(free), self.letters)
        objective = objective.restrict(self.letters)
        n = objective.n_inputs
        return _lift(self.vertex(objective.scores(np.full(n, 1.0 / n)))[0], self.letters)


def _simplex(n: int) -> _Polytope:
    """The simplex on n letters: the budget polytope with no rows."""
    empty = np.zeros((0, n))
    return _Polytope(empty, np.zeros(0), empty)


def _lift(q: FloatArray, letters: FloatArray | None) -> FloatArray:
    """The law q on the letters of a ``_Polytope.letters`` mask, with zeros
    on the others; q itself when the mask is None (no face)."""
    if letters is None:
        return q
    p = np.zeros(letters.size)
    p[letters] = q
    return p


def _snap(costs: FloatArray | float, budgets: FloatArray | float) -> FloatArray:
    """The costs with each one on its budget, within ``FACE_TOL`` of it,
    replaced by that budget: the one tolerance test of a cost against a
    budget.  A cost is on its budget exactly when its snap equals it, and
    every test after the snap compares costs and budgets exactly."""
    return np.where(np.abs(costs - budgets) <= FACE_TOL, budgets, costs)


def _check_budgets(cost_rows: FloatArray, budgets: FloatArray) -> _Polytope:
    """The budget rule of every budgeted entry point: cost_rows @ p <= budgets.
    It decides every set, and returns one that some law meets as its
    ``_Polytope``, put on its face (``_face``).

    A non-finite cost or a NaN budget raises ``ValueError``; a +inf budget
    constrains nothing, so its row is dropped.  Every cost on its budget
    (within ``FACE_TOL``) is snapped onto it (``_snap``): pairing such a
    letter across the budget would divide by a rounding-level difference.
    A budget below its row's cheapest letter, snapped, raises
    ``InfeasibleDistortion``.  Otherwise the set is put on its face, and
    where two or more rows are left there, the phase 1 of their program
    runs, the one program that every solve on the polytope re-optimizes.
    Where the face is empty, or phase 1 ends infeasible or faults
    (``NotCertified``), the game min_p max_j (cost_j . p - budget_j) on the
    costs as given decides.  Snapped onto 0 and above it, it raises
    ``InfeasibleDistortion``: no input law meets them all.  On 0 it raises
    the face's or phase 1's own ``InfeasibleDistortion``, with no
    ``d_min``, and after a fault returns the polytope, whose program a
    solve that needs it builds again.  The ``d_min`` of a budget below its
    cheapest letter or of a game above 0 is the least common budget when
    the budgets are equal (the cheapest letter for one row, else the game
    value of the costs), and None otherwise.  So a polytope the rule
    returns always has a law, and no solve on it raises
    ``InfeasibleDistortion``.
    """
    if np.isnan(budgets).any():
        raise ValueError(f"budget is NaN: {budgets.tolist()}")
    if not np.isfinite(cost_rows).all():
        raise ValueError("every cost entry must be finite")
    snapped = _snap(cost_rows, budgets[:, None])
    # Compared after the snap, so a kept budget at or below its row's
    # cheapest letter always has that letter snapped onto it.
    short = (snapped.min(axis=1) > budgets).nonzero()[0]
    finite = budgets < np.inf
    rows, kept, snapped = cost_rows[finite], budgets[finite], snapped[finite]
    if short.size:
        j = int(short[0])
        reason = f"budget {budgets[j]} is below the cheapest letter's cost"
        if budgets.size > 1:
            reason = f"row {j}: {reason} {cost_rows[j].min()}"
    else:
        try:
            polytope = _face(snapped, kept)
            if polytope.budgets.size > 1:
                polytope.program  # phase 1, kept for every solve on the polytope
            return polytope
        except (InfeasibleDistortion, NotCertified) as exc:
            if _snap(_matrix_game(rows - kept[:, None])[0], 0.0) <= 0.0:
                if isinstance(exc, NotCertified):
                    return polytope
                raise
        reason = "no input law meets every budget"
    d_min = None
    if np.all(kept == kept[0]):
        d_min = float(rows[0].min()) if kept.size == 1 else _matrix_game(rows)[0]
        reason += f"; d_min = {d_min}"
    raise InfeasibleDistortion(reason, d_min=d_min)


def _face(rows: FloatArray, budgets: FloatArray, letters: FloatArray | None = None) -> _Polytope:
    """The ``_Polytope`` of snapped rows and their budgets, on its face.

    Where a budget is on its row's cheapest cost, every law lies on the
    letters on each such budget, so the face is that of the other rows
    restricted to those letters; ``letters`` masks the letters left in the
    full alphabet.  ``InfeasibleDistortion``, with no ``d_min``, when a
    budget is below its row's cheapest cost on the letters left, which only
    a face's rows can be, or when no letter is on every budget at its
    cheapest cost.
    """
    cheapest = rows.min(axis=1)
    if (budgets < cheapest).any():
        raise InfeasibleDistortion("no input law meets every budget")
    floor = budgets == cheapest
    if not floor.any():
        return _Polytope(rows, budgets, rows - budgets[:, None], letters)
    on = (rows[floor] == budgets[floor][:, None]).all(axis=0)
    if not on.any():
        raise InfeasibleDistortion("the budgets at their cheapest costs share no letter")
    return _face(rows[~floor][:, on], budgets[~floor], on if letters is None else _lift(on, letters) > 0.0)


def _solve_budget(
    objective: _Objective, polytope: _Polytope, law: FloatArray | None = None
) -> tuple[FloatArray, float, float, bool, str | None]:
    """Maximize the objective on a budget polytope of ``_check_budgets``.

    Returns (law, value, dual bound, constraint_active, warning).  The
    solve runs on the polytope's ``letters``, with the objective restricted
    to them: a budget on its row's cheapest cost confines the law to that
    face, which binds, and the other rows are solved on it.  Without a
    start law, the objective's unconstrained law (its one ``_ascend``) is
    returned if it meets every budget; if not, the start is the best vertex
    for that law's scores, and the constraint is active.  With a start law
    in the full alphabet, such as ``_Polytope.start``'s or a Kelley round's
    last law, there is no ascent, and the constraint counts as active.
    Pairwise Frank-Wolfe runs from the start, on the face, as its one atom;
    its dual bound certifies the optimum whether or not a budget binds.
    Either way the law comes with a certified gap, and one rule flags it: a
    gap above ``STALL_CERT`` is named in the warning.  The law returned is
    in the full alphabet.
    """
    letters = polytope.letters
    objective = objective.restrict(letters)
    if law is None:
        p, cert, _, value, score = objective.unconstrained()
        bound = value + cert
        if (polytope.rows @ p > polytope.budgets).any():
            law = polytope.vertex(score)[0]
    elif letters is not None:
        law = law[letters]
    if law is not None:
        p, value, bound, _ = _frank_wolfe(objective, polytope, law[None, :], np.ones(1))
    warning = None
    if bound - value > STALL_CERT:
        warning = f"solver stopped with gap {bound - value:.3g} above stall_cert"
    return _lift(p, letters), value, bound, law is not None or letters is not None, warning


def capacity_distortion_point(model: ChannelModel, budget: float) -> CDPoint:
    """Best achievable rate (nats per use) with expected estimation cost <= budget.

    The one-row case of ``multi_constraint_point``, with the row d*: NaN
    raises ``ValueError``, +inf gives the unconstrained capacity, and a
    budget more than ``FACE_TOL`` below d_min raises
    ``InfeasibleDistortion``.  Frank-Wolfe's linear step reads the upper
    concave hull of (d*(x), score(x)), whose slope at the budget is the
    multiplier dC/dD.
    """
    cost = optimal_estimator(model).cost_vector
    return _point(_Objective([(1.0, model)]), cost[None, :], np.array([budget], dtype=np.float64))


def cd_curve(model: ChannelModel, grid) -> CDCurve:
    """Tradeoff curve on a budget grid.

    ``grid`` is either a point count n (n budgets spanning [d_min, d_max];
    n = 1 evaluates the single point d_max) or an explicit sequence of
    budgets, which is sorted.  Each point equals ``capacity_distortion_point``
    at its budget, but one objective serves the range and every budget, so
    the curve runs one unconstrained ascent, plus one on the cheapest letters
    that every budget at d_min shares.  The computed curve is checked to be
    nondecreasing and concave within 1e-7; violations raise
    ``SolverNonmonotone`` rather than returning a silently bad curve.
    """
    objective = _Objective([(1.0, model)])
    cost = optimal_estimator(model).cost_vector
    d_min, d_max = _feasible_range(objective, cost)
    if isinstance(grid, (int, np.integer)):
        n = int(grid)
        if n < 1:
            raise ValueError("grid size must be >= 1")
        budgets = np.array([d_max]) if n == 1 else np.linspace(d_min, d_max, n)
    else:
        budgets = np.sort(np.asarray(list(grid), dtype=np.float64))
        if budgets.size == 0:
            raise ValueError("empty budget grid")
    points = tuple(_point(objective, cost[None, :], budgets[i:i + 1]) for i in range(budgets.size))

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


def _game(payoff: FloatArray) -> _LinearProgram:
    """The program of the zero-sum game with this payoff matrix, in which
    the column player picks a law q to minimize max_j (payoff @ q)_j and
    the row player a law a to maximize min_i (a @ payoff)_i: min t s.t.
    payoff @ q <= t over the simplex, whose constraint duals are the row
    law; t = t+ - t-, two nonnegative entries before the law.  A column
    appended with ``add_column`` gives the column player one more choice."""
    ones = np.ones((payoff.shape[0], 1))
    return _LinearProgram(np.hstack([-ones, ones, payoff]), 2)


def _game_laws(game: _LinearProgram) -> tuple[float, FloatArray, FloatArray]:
    """Solve a ``_game`` program from its last basis.  Both players reach
    the value.  Returns (value, column law, row law)."""
    z, row = game.solve(np.r_[1.0, -1.0, np.zeros(game.size - 2)])
    column = z[2:]
    return float(z[0] - z[1]), column / column.sum(), row / row.sum()


def _matrix_game(payoff: FloatArray) -> tuple[float, FloatArray, FloatArray]:
    """Value and optimal laws (column, row) of the zero-sum game with this
    payoff matrix (``_game``), solved from scratch."""
    return _game_laws(_game(payoff))


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
    return _point(_Objective([(1.0, model)]), cost_rows, budgets)


def _point(objective: _Objective, cost_rows: FloatArray, budgets: FloatArray) -> CDPoint:
    """The point under cost_rows @ p <= budgets, solved on this objective."""
    p, value, _, active, warning = _solve_budget(objective, _check_budgets(cost_rows, budgets))
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
    approximation from below; a step outside (0, 1] raises ``ValueError``.
    ``_check_budgets`` checks the budget, and a grid law whose cost is at
    most the budget once snapped (``_snap``) counts as feasible.
    """
    if model.input_size > 3:
        raise AlphabetTooLarge("grid search supports input alphabets of size 2 or 3")
    if step is None:
        step = 1e-4 if model.input_size == 2 else 1e-2
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    cost_vector = optimal_estimator(model).cost_vector
    _check_budgets(cost_vector[None, :], np.array([budget], dtype=np.float64))
    if model.input_size == 1:
        return 0.0
    grid = _simplex_grid(model.input_size, step)
    feasible = _snap(grid @ cost_vector, budget) <= budget
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
