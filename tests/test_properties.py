"""Property tests of the solver and the sampler on random channels (Hypothesis).

Examples are derandomized, so every run checks the same channels and a
failure reproduces; the database is off, so a run writes no files.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import capdist as cd
from capdist import solver

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

_weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def channels(draw):
    """A channel with |X| 2-6, |S| 2-3, |Y| 2-5 and Hamming state distortion."""
    nx = draw(st.integers(2, 6))
    ns = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 5))
    transition = np.array(draw(st.lists(_weights, min_size=nx * ns * ny, max_size=nx * ns * ny)))
    transition = transition.reshape(nx, ns, ny)
    transition /= transition.sum(axis=2, keepdims=True)
    prior = np.array(draw(st.lists(_weights, min_size=ns, max_size=ns)))
    return cd.validate_channel(transition, prior / prior.sum(), 1.0 - np.eye(ns))


def _kl_rows(pyx, q):
    """D(P(.|x) || q) for every row x, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pyx > 0.0, pyx * (np.log(pyx) - np.log(q)), 0.0)
    return terms.sum(axis=1)


@PROPERTY_SETTINGS
@given(model=channels(), lam=st.floats(0.0, 5.0), warm=st.booleans())
def test_ascent_never_decreases_the_objective(model, lam, warm):
    # debug=True raises AssertionError on any decreasing step, vertex
    # escapes and Aitken jumps included.
    objective = solver._Objective([(1.0, model)])
    cost = cd.optimal_estimator(model).cost_vector
    p0 = np.eye(model.input_size)[0] * 0.9 + 0.1 / model.input_size if warm else None
    p, cert = solver._ascend(objective, lam * cost, cd.SolverOptions(debug=True), p0=p0)[:2]
    assert abs(p.sum() - 1.0) < 1e-12 and np.all(p >= 0.0)
    assert cert >= -1e-12


@PROPERTY_SETTINGS
@given(model=channels(), frac=st.floats(0.0, 1.0))
def test_point_is_feasible_and_below_every_dual_bound(model, frac):
    cost = cd.optimal_estimator(model).cost_vector
    budget = float(cost.min() + frac * (cost.max() - cost.min()))
    point = cd.capacity_distortion_point(model, budget)
    p = point.optimizer.probs
    assert p @ cost <= budget + 1e-8
    assert abs(point.capacity - cd.mutual_information(model, p)) < 1e-9

    # Weak duality: for any output law q and any lam >= 0,
    # C(D) <= max_x [D(P(.|x) || q) - lam (d*(x) - D)].  q is the output law
    # of the returned input law, so the bound is tight near lam = dC/dD.
    pyx = model.output_given_input
    divergence = _kl_rows(pyx, p @ pyx)
    for lam in (0.0, 0.1, 1.0, 10.0, 100.0):
        bound = float(np.max(divergence - lam * (cost - budget)))
        assert bound >= point.capacity - 1e-9, lam


def _vertex_bound(cost, score, budget):
    """max of score.v over the vertices v of {p in simplex : cost.p <= budget},
    by enumerating single letters and letter pairs on the budget line."""
    best = float(np.max(score[cost <= budget]))
    for x in np.flatnonzero(cost < budget):
        for y in np.flatnonzero(cost > budget):
            alpha = (cost[y] - budget) / (cost[y] - cost[x])
            best = max(best, float(alpha * score[x] + (1.0 - alpha) * score[y]))
    return best


@PROPERTY_SETTINGS
@given(model=channels(), frac=st.floats(0.05, 0.95))
def test_binding_point_lands_on_the_budget_below_its_dual_bound(model, frac):
    cost = cd.optimal_estimator(model).cost_vector
    d_min, d_max = cd.feasible_range(model)
    # The oracles below compare costs exactly (the grid up to 1e-12), while
    # the solver puts letters within FACE_TOL of d_min on one face, so the
    # range must be wide against both.
    assume(d_max - d_min >= 1e-3)
    budget = d_min + frac * (d_max - d_min)
    point = cd.capacity_distortion_point(model, budget)
    p = point.optimizer.probs
    if not point.constraint_active:
        # Only a budget within the unconstrained law's certificate of d_max.
        assert p @ cost <= budget
        return
    assert abs(p @ cost - budget) <= 1e-12

    # By concavity C(D) <= max_v score.v over the polytope's vertices, at the
    # scores of any feasible law; the finisher certifies within that bound.
    pyx = model.output_given_input
    bound = _vertex_bound(cost, _kl_rows(pyx, p @ pyx), budget)
    assert bound >= point.capacity - 1e-12
    assert bound - point.capacity <= 1e-6 or point.convergence_warning is not None
    if model.input_size <= 3:
        assert point.capacity >= cd.grid_search_capacity(model, budget) - 1e-12


@st.composite
def budgeted_channels(draw):
    """A channel from ``channels``, its d* and 1-2 random cost rows, and one
    budget per row strictly between the row's cheapest and dearest letters."""
    model = draw(channels())
    n = model.input_size
    n_extra = draw(st.integers(1, 2))
    extra = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n_extra, max_size=n * n_extra)))
    rows = np.vstack([cd.optimal_estimator(model).cost_vector, extra.reshape(n_extra, n)])
    fracs = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=rows.shape[0], max_size=rows.shape[0])))
    budgets = rows.min(axis=1) + fracs * (rows.max(axis=1) - rows.min(axis=1))
    return model, rows, budgets


def _lp_dual_bound(divergence, rows, budgets):
    """min over mu >= 0 of max_x [divergence(x) - mu . (rows[:, x] - budgets)],
    a linear program in (mu, t) solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    m = rows.shape[0]
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([-(rows - budgets[:, None]).T, -np.ones((rows.shape[1], 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-divergence, bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res.success
    return float(res.fun)


@PROPERTY_SETTINGS
@given(case=budgeted_channels())
def test_several_budgets_are_met_below_an_independent_dual_bound(case):
    model, rows, budgets = case
    assume(solver._matrix_game(rows - budgets[:, None])[0] <= 1e-12)
    point = cd.multi_constraint_point(
        model, [cd.CostConstraint(row, float(b)) for row, b in zip(rows, budgets)]
    )
    p = point.optimizer.probs
    assert np.all(rows @ p <= budgets + 1e-12)
    assert abs(point.capacity - cd.mutual_information(model, p)) < 1e-9

    # Weak duality at the returned law's output marginal, minimized over the
    # multipliers; 1e-7 absorbs the LP solver's own tolerance.
    pyx = model.output_given_input
    bound = _lp_dual_bound(_kl_rows(pyx, p @ pyx), rows, budgets)
    assert point.capacity <= bound + 1e-7
    assert bound - point.capacity <= 1e-6 or point.convergence_warning is not None
    if model.input_size <= 3:
        grid = solver._simplex_grid(model.input_size, 1e-4 if model.input_size == 2 else 1e-2)
        grid = grid[np.all(grid @ rows.T <= budgets + 1e-12, axis=1)]
        if grid.size:
            assert point.capacity >= float(np.max(cd.batch_mutual_information(model, grid))) - 1e-9


_maybe_zero = st.one_of(st.just(0.0), _weights)


@st.composite
def sparse_channels(draw):
    """A channel with |X| 2-6, |S| 2-3, |Y| 2-5, some transition entries
    zeroed and a random distortion, with an input law that has zeros."""
    nx = draw(st.integers(2, 6))
    ns = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 5))
    transition = np.array(draw(st.lists(_maybe_zero, min_size=nx * ns * ny, max_size=nx * ns * ny)))
    transition = transition.reshape(nx, ns, ny)
    transition[..., 0] += transition.sum(axis=2) == 0  # every row keeps some mass
    transition /= transition.sum(axis=2, keepdims=True)
    prior = np.array(draw(st.lists(_weights, min_size=ns, max_size=ns)))
    distortion = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=ns * ns, max_size=ns * ns)))
    px = np.array(draw(st.lists(_maybe_zero, min_size=nx, max_size=nx)))
    px[0] += px.sum() == 0
    model = cd.validate_channel(transition, prior / prior.sum(), distortion.reshape(ns, ns))
    return model, px / px.sum()


@PROPERTY_SETTINGS
@given(case=sparse_channels(), n=st.integers(1, 10**9), seed=st.integers(0, 2**32 - 1))
def test_simulate_is_reproducible_and_stays_on_the_support(case, n, seed):
    model, px = case
    report = cd.simulate(model, px, n, seed)
    again = cd.simulate(model, px, n, seed)
    assert np.array_equal(report.joint_counts, again.joint_counts)
    assert report.empirical_distortion == again.empirical_distortion
    assert report.empirical_mi == again.empirical_mi
    assert report.joint_counts.sum() == n
    impossible = px[:, None] * model.output_given_input == 0
    assert np.all(report.joint_counts[impossible] == 0)
    # The empirical distortion is a mean of distortion entries; 1e-12
    # absorbs the rounding of that mean.
    d = model.distortion
    assert d.min() - 1e-12 <= report.empirical_distortion <= d.max() * (1 + 1e-12)
