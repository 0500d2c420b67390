"""Output checks that do not use the solver.

Every op result is compared against a reference computed here from closed
forms (``capdist.analytic``), plain numpy/scipy, and the channel-level
quantities ``output_marginal``, ``optimal_estimator`` and
``mutual_information``.  No check calls ``capdist.solver`` or
``capdist.extensions`` code except ``cpud_ratio_formula``, the closed-ratio
route that the cpud check pairs with the sup route.

Each check returns None when the result passes, else a short reason.  A
reason starting with ``INVALID`` marks a result no correct solver could
return: a law over its budget, a value that is not the information of the
returned law, or a value above an exact reference or upper bound.  Any
other reason is a missed tolerance, such as a suboptimal point.
"""

from __future__ import annotations

import math

import numpy as np

import capdist as cd

INVALID = "INVALID"
# Tolerance on capacities against closed forms and on the dual gap of a
# point: the acceptance-criteria tolerance and the solver's stall_cert.
POINT_TOL = 1e-6
# Slack allowed on a budget: d*.p <= D + COST_TOL.
COST_TOL = 1e-8
# Reported capacity against the mutual information of the reported law.
MI_TOL = 1e-9
# A letter cost at most this far above the budget counts as on it (d*
# entries that are equal in exact arithmetic can differ by ~1e-19).
TIE_TOL = 1e-12
# compound_cd promises a gap below its gap_tol (default 1e-4).
COMPOUND_TOL = 1e-4
# cpud: sup route against the ratio route (relative), ratio route against
# the analytic slope (relative).
CPUD_SUP_TOL = 1e-3
CPUD_RATIO_TOL = 1e-6
# Simulation: standard deviations allowed.
SIM_SIGMAS = 5.0


def _kl_rows(pyx: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(P(.|x) || q) per row; +inf where P(.|x) puts mass on q = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pyx > 0, pyx * (np.log(pyx) - np.log(q)[None, :]), 0.0)
    return terms.sum(axis=1)


def _excess(cost: np.ndarray, budget: float) -> np.ndarray:
    """d*(x) - D, with letters a rounding error above the budget put on it.

    Raising a line's slope term from -lam * tiny to 0 only loosens the
    bound, so it stays valid; without it a near-tie would be priced out by a
    huge lam and the bound could drop below I(p) (a spurious negative gap).
    """
    b = cost - budget
    b[(b > 0.0) & (b <= TIE_TOL)] = 0.0
    return b


def _min_max_lines(a: np.ndarray, b: np.ndarray) -> float:
    """min over lam >= 0 of max_x (a_x - lam * b_x), exactly.

    The objective is convex and piecewise linear, so its minimum over
    lam >= 0 sits at lam = 0 or where a decreasing line (b > 0) meets a
    non-decreasing one (b <= 0).  Every lam >= 0 gives a valid bound, so the
    candidates only need to contain the minimizer.
    """
    up = b <= 0.0
    down = ~up
    if not np.any(down):
        return float(np.max(a))
    lams = [0.0]
    if np.any(up):
        ai, bi = a[down][:, None], b[down][:, None]
        aj, bj = a[up][None, :], b[up][None, :]
        cross = (ai - aj) / (bi - bj)
        lams.extend(cross[cross > 0.0].ravel().tolist())
    lams = np.asarray(lams)
    return float(np.min(np.max(a[None, :] - lams[:, None] * b[None, :], axis=1)))


def dual_gap(model: cd.ChannelModel, probs: np.ndarray, budget: float, cost: np.ndarray) -> float:
    """Upper bound on C(budget) minus I(probs).

    With q the output law of ``probs``, for every lam >= 0
    C(D) <= max_x [D(P(.|x) || q) - lam (d*(x) - D)].
    """
    a = _kl_rows(model.output_given_input, cd.output_marginal(model, probs))
    if np.any(np.isinf(a)):
        return math.inf
    return _min_max_lines(a, _excess(cost, budget)) - cd.mutual_information(model, probs)


def point_validity(point, budget: float, cost: np.ndarray, mi: float) -> str | None:
    """Budget met and reported capacity equal to I(reported law)."""
    spent = float(point.optimizer.probs @ cost)
    if spent > budget + COST_TOL:
        return f"{INVALID}: cost {spent:.12g} over budget {budget:.12g}"
    if abs(point.capacity - mi) > MI_TOL:
        return f"{INVALID}: capacity {point.capacity:.12g} != I(p) {mi:.12g}"
    return None


def check_point_dual(model, budget: float, point) -> str | None:
    """Random channel: independent dual gap <= POINT_TOL."""
    probs = point.optimizer.probs
    cost = cd.optimal_estimator(model).cost_vector
    bad = point_validity(point, budget, cost, cd.mutual_information(model, probs))
    if bad:
        return bad
    gap = dual_gap(model, probs, budget, cost)
    if not gap <= POINT_TOL:
        return f"dual gap {gap:.3e} > {POINT_TOL:.0e}"
    return None


def _entropy(q: np.ndarray) -> float:
    q = q[q > 0]
    return float(-(q * np.log(q)).sum())


def block_mi(probs: np.ndarray, r: float) -> float:
    """I(X; Y) of the (block) multiplicative channel y = s * x, shared s.

    Letter 0 (all zeros) always yields output 0; letter x != 0 yields 0 or x
    with probabilities 1 - r and r.  K = 1 is the scalar channel.
    """
    q = r * probs
    q[0] = 1.0 - r + r * probs[0]
    return _entropy(q) - (1.0 - probs[0]) * cd.binary_entropy(r)


def mod2_mi(probs: np.ndarray, r: float) -> float:
    """I(X; Y) of y = x XOR s."""
    q1 = probs[0] * r + probs[1] * (1.0 - r)
    return cd.binary_entropy(q1) - cd.binary_entropy(r)


def check_point_closed(budget: float, point, expected: float, cost: np.ndarray, mi: float,
                       scale: float = 1.0) -> str | None:
    """Built-in family: capacity / scale within POINT_TOL of the closed form.

    ``cost`` and ``mi`` are the family's analytic cost vector and the
    analytic I(p) of the reported law.
    """
    bad = point_validity(point, budget, cost, mi)
    if bad:
        return bad
    err = point.capacity / scale - expected
    if err > POINT_TOL:
        return f"{INVALID}: capacity above the closed form by {err:.3e}"
    if err < -POINT_TOL:
        return f"capacity below the closed form by {-err:.3e} > {POINT_TOL:.0e}"
    return None


def check_curve(curve, check_one) -> str | None:
    """Every point of a curve passes the point check for its budget.

    An invalid point is reported ahead of a merely suboptimal one."""
    reasons = [r for r in (check_one(pt.distortion_budget, pt) for pt in curve.points) if r]
    return sorted(reasons, key=lambda r: not r.startswith(INVALID))[0] if reasons else None


def check_cpud(model, result, slope: float) -> str | None:
    """Sup route against the exact ratio route, ratio route against the
    analytic slope."""
    ratio = cd.cpud_ratio_formula(model).value
    if abs(ratio - slope) > CPUD_RATIO_TOL * slope:
        return f"ratio route {ratio:.10g} != analytic slope {slope:.10g}"
    err = (result.value - ratio) / ratio
    if err > CPUD_SUP_TOL:
        return f"{INVALID}: sup route {result.value:.10g} above the ratio route {ratio:.10g}"
    if err < -CPUD_SUP_TOL:
        return f"sup route {result.value:.10g} vs ratio route {ratio:.10g}: rel err {-err:.3e}"
    return None


def _compound_validity(family, budget: float, result) -> tuple[str | None, list]:
    probs = result.optimizer.probs
    costs = [cd.optimal_estimator(m).cost_vector for m in family.models]
    spent = max(float(probs @ c) for c in costs)
    if spent > budget + COST_TOL:
        return f"{INVALID}: worst-prior cost {spent:.12g} over budget {budget:.12g}", costs
    worst = min(cd.mutual_information(m, probs) for m in family.models)
    if abs(result.value - worst) > MI_TOL:
        return f"{INVALID}: value {result.value:.12g} != min_theta I(p) {worst:.12g}", costs
    return None, costs


def scalar_max_min_oracle(rates: tuple[float, ...], budget: float) -> float:
    """1-D exhaustive max-min over t = P(x=1) for scalar channels y = s * x
    with P(s=1) = r_theta.

    I_theta(t) = H(t r_theta) - t H(r_theta), cost_theta(t) = (1 - t) r_theta.
    The grid has 2e5 steps from the budget boundary t = max 1 - D/r_theta,
    where the optimum sits when a constraint binds, up to t = 1.
    """
    lo = max(0.0, max(1.0 - budget / r for r in rates))
    t = np.linspace(lo, 1.0, 200_001)
    worst = np.full(t.shape, np.inf)
    for r in rates:
        x = t * r
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where((x > 0) & (x < 1), -x * np.log(x) - (1 - x) * np.log1p(-x), 0.0)
        worst = np.minimum(worst, h - t * cd.binary_entropy(r))
    return float(np.max(worst))


def check_compound_scalar(family, budget: float, result, rates: tuple[float, ...]) -> str | None:
    """Scalar family: value within the promised gap below the 1-D oracle."""
    bad, _ = _compound_validity(family, budget, result)
    if bad:
        return bad
    oracle = scalar_max_min_oracle(rates, budget)
    if result.value > oracle + 1e-7:
        return f"{INVALID}: value {result.value:.10g} above the 1-D oracle {oracle:.10g}"
    if result.value < oracle - COMPOUND_TOL:
        return f"value {result.value:.10g} below the 1-D oracle {oracle:.10g} by more than {COMPOUND_TOL:.0e}"
    return None


def compound_upper_bound(family, budget: float, probs: np.ndarray, costs: list) -> float:
    """min over prior weights w and multipliers mu >= 0 of
    max_x sum_theta [w_theta D(P_theta(.|x) || q_theta) - mu_theta (d*_theta(x) - D)],
    with q_theta the output law of probs under prior theta.  A linear program
    (scipy HiGHS); a valid upper bound on the max-min value for any probs.
    """
    from scipy.optimize import linprog

    a = np.stack([_kl_rows(m.output_given_input, cd.output_marginal(m, probs)) for m in family.models])
    if np.any(np.isinf(a)):
        return math.inf
    b = np.stack([_excess(c, budget) for c in costs])
    n_theta, n_x = a.shape
    # variables: w (n_theta), mu (n_theta), t
    c = np.zeros(2 * n_theta + 1)
    c[-1] = 1.0
    a_ub = np.hstack([a.T, -b.T, -np.ones((n_x, 1))])
    a_eq = np.zeros((1, 2 * n_theta + 1))
    a_eq[0, :n_theta] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n_x), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (2 * n_theta) + [(None, None)], method="highs")
    return float(res.fun) if res.success else math.inf


def check_compound_random(family, budget: float, result) -> str | None:
    """Random family: independent LP dual bound within the promised gap."""
    bad, costs = _compound_validity(family, budget, result)
    if bad:
        return bad
    gap = compound_upper_bound(family, budget, result.optimizer.probs, costs) - result.value
    if gap < -1e-7:
        return f"{INVALID}: value above the LP upper bound by {-gap:.3e}"
    if gap > COMPOUND_TOL:
        return f"independent max-min gap {gap:.3e} > {COMPOUND_TOL:.0e}"
    return None


def check_block_model(model, r: float, block_len: int) -> str | None:
    """y = s * x per position with one shared state: exact structure."""
    n = 2**block_len
    t = model.transition
    if t.shape != (n, 2, n):
        return f"{INVALID}: shape {t.shape} != {(n, 2, n)}"
    if not (np.all(t[:, 0, 0] == 1.0) and np.all(t[np.arange(n), 1, np.arange(n)] == 1.0)):
        return f"{INVALID}: block transition is not y = s * x"
    if abs(float(t.sum()) - 2 * n) > 1e-9 or abs(float(model.state_prior[1]) - r) > 1e-15:
        return f"{INVALID}: block transition rows or prior wrong"
    return None


def check_simulation(model, probs: np.ndarray, cost: np.ndarray, n: int, report) -> str | None:
    """Empirical distortion and plug-in MI within SIM_SIGMAS sigma of the
    exact values.

    The distortion is Hamming, so each sample costs 0 or 1 and the empirical
    mean has variance D (1 - D) / n.  The plug-in MI is compared with the
    exact I(p) with the spread of the information density plus its
    first-order bias (|X| - 1)(|Y| - 1) / (2 n).
    """
    if report.samples != n or int(report.joint_counts.sum()) != n:
        return f"{INVALID}: sample count mismatch"
    expected = float(probs @ cost)
    if abs(report.analytic_distortion - expected) > 1e-12:
        return f"{INVALID}: analytic distortion {report.analytic_distortion:.12g} != {expected:.12g}"
    sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n)
    if abs(report.empirical_distortion - expected) > SIM_SIGMAS * sigma + 1e-12:
        return f"empirical distortion {report.empirical_distortion:.6g} vs {expected:.6g} (> {SIM_SIGMAS:g} sigma)"
    pyx = model.output_given_input
    q = cd.output_marginal(model, probs)
    joint = probs[:, None] * pyx
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.where(joint > 0, np.log(pyx) - np.log(q)[None, :], 0.0)
    mi = cd.mutual_information(model, probs)
    var = float(np.sum(joint * (dens - mi) ** 2))
    bias = (model.input_size - 1) * (model.output_size - 1) / (2.0 * n)
    tol = SIM_SIGMAS * math.sqrt(var / n) + bias + 1e-9
    if abs(report.empirical_mi - mi) > tol:
        return f"plug-in MI {report.empirical_mi:.6g} vs exact {mi:.6g} (tol {tol:.2e})"
    return None
