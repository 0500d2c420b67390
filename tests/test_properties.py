"""Property tests of the solver, its linear programs, the rate per unit cost and the
sampler on random channels (Hypothesis).

Examples are derandomized, so every run checks the same channels and a
failure reproduces; the database is off, so a run writes no files.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import capdist as cd
from capdist import solver

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

_weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def channels(draw, max_inputs=6):
    """A channel with |X| 2-max_inputs, |S| 2-3, |Y| 2-5 and Hamming state
    distortion."""
    nx = draw(st.integers(2, max_inputs))
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
@given(model=channels())
def test_ascent_never_decreases_the_objective(model):
    # The ascent raises SolverNonmonotone on any decreasing step, Aitken jumps
    # included, and when the finisher returns below the value it started at.
    objective = solver._Objective([(1.0, model)])
    p, cert = solver._ascend(objective)[:2]
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


@PROPERTY_SETTINGS
@given(model=channels(), frac=st.floats(0.0, 1.0), data=st.data())
def test_one_budget_multiplier_bound_is_the_best_vertex_score(model, frac, data):
    # For one row the hull's slope lam gives max_x [score(x) - lam (d*(x) -
    # D)], the bound the solver certifies with; it is the polytope's best
    # vertex score, here at the scores of a random law.
    cost = cd.optimal_estimator(model).cost_vector
    polytope = solver._check_budgets(
        cost[None, :], np.array([cost.min() + frac * (cost.max() - cost.min())])
    )
    cost, budget = polytope.rows[0], float(polytope.budgets[0])
    p = np.array(data.draw(st.lists(_weights, min_size=cost.size, max_size=cost.size)))
    pyx = model.output_given_input
    score = _kl_rows(pyx, (p / p.sum()) @ pyx)
    lam = solver._budget_vertex(cost, np.argsort(cost, kind="stable"), score, budget)[3]
    assert lam >= 0.0
    bound = float(np.max(score - lam * (cost - budget)))
    assert abs(bound - _vertex_bound(cost, score, budget)) <= 1e-12


@PROPERTY_SETTINGS
@given(score=arrays(np.float64, st.integers(1, 8),
                    elements=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-5.0, 5.0))))
def test_zero_cost_row_vertex_is_the_first_best_letter(score):
    # The finisher solves on the simplex as one zero cost row at budget 0:
    # every letter is on its budget, so the hull's vertex is the letter
    # np.argmax picks, the first of tied ones, with multiplier 0.
    cost = np.zeros(score.size)
    x = int(np.argmax(score))
    assert solver._budget_vertex(cost, np.argsort(cost, kind="stable"), score, 0.0) == (x, x, 1.0, 0.0)


def _reference_budget_vertex(cost, order, score, budget):
    # The hull as it was before the chain kept only record-breaking letters:
    # it settles ties with three score tests, where the solver's uses one.
    cost, score = cost.tolist(), score.tolist()
    hull: list[int] = []  # monotone chain, left to right
    for x in order.tolist():
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), data=st.data())
def test_budget_vertex_matches_the_three_test_hull_bit_for_bit(n, data):
    # Costs and scores tie often (a three-point grid, -0.0 and steps of 1e-7
    # and 1e-300); budgets sit at costs, between two of them, below the
    # cheapest and above the dearest.
    grid = st.sampled_from([0.0, 0.5, 1.0])
    cost = data.draw(arrays(np.float64, n, elements=st.one_of(grid, st.floats(0.0, 2.0))))
    score = data.draw(arrays(np.float64, n, elements=st.one_of(
        grid, st.sampled_from([-0.0, 1e-300, 1e-7, 0.5 + 1e-7]), st.floats(-5.0, 5.0))))
    order = np.argsort(cost, kind="stable")
    lo, hi = data.draw(st.sampled_from(cost)), data.draw(st.sampled_from(cost))
    budget = data.draw(st.one_of(st.just(float(lo)), st.floats(min(lo, hi), max(lo, hi)),
                                 st.floats(-1.0, 3.0)))
    got = solver._budget_vertex(cost, order, score, budget)
    want = _reference_budget_vertex(cost, order, score, budget)
    assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0
    assert [type(v) for v in got] == [type(v) for v in want]


def _budget(model, frac):
    cost = cd.optimal_estimator(model).cost_vector
    return float(cost.min() + frac * (cost.max() - cost.min()))


def _certified_capacity(model, budget):
    point = cd.capacity_distortion_point(model, budget)
    assert point.convergence_warning is None
    return point.capacity


STALL_CERT = solver.STALL_CERT


@PROPERTY_SETTINGS
@given(model=channels(), data=st.data(), frac=st.floats(0.0, 1.0))
def test_relabelling_letters_leaves_the_capacity_unchanged(model, data, frac):
    nx, ns, ny = model.transition.shape
    # A random distortion, so that relabelling the states must permute it.
    distortion = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=ns * ns, max_size=ns * ns)))
    model = cd.validate_channel(model.transition, model.state_prior, distortion.reshape(ns, ns))
    x = np.array(data.draw(st.permutations(range(nx))))
    s = np.array(data.draw(st.permutations(range(ns))))
    y = np.array(data.draw(st.permutations(range(ny))))
    relabelled = cd.validate_channel(
        model.transition[x][:, s][:, :, y], model.state_prior[s], model.distortion[s][:, s]
    )
    budget = _budget(model, frac)
    assert abs(_budget(relabelled, frac) - budget) <= 1e-12
    assert abs(_certified_capacity(relabelled, budget) - _certified_capacity(model, budget)) <= STALL_CERT


@PROPERTY_SETTINGS
@given(model=channels(), data=st.data(), frac=st.floats(0.0, 1.0))
def test_duplicating_a_letter_leaves_the_capacity_unchanged(model, data, frac):
    # The copies' output laws are affinely dependent, so the finisher's
    # Newton system is singular wherever both hold weight.
    x = data.draw(st.integers(0, model.input_size - 1))
    doubled = cd.validate_channel(
        np.concatenate([model.transition, model.transition[x:x + 1]]), model.state_prior, model.distortion
    )
    budget = _budget(model, frac)
    assert abs(_certified_capacity(doubled, budget) - _certified_capacity(model, budget)) <= STALL_CERT


@PROPERTY_SETTINGS
@given(model=channels(), frac=st.floats(0.0, 1.0))
def test_capacity_is_at_most_the_log_of_the_smaller_alphabet(model, frac):
    capacity = cd.capacity_distortion_point(model, _budget(model, frac)).capacity
    assert 0.0 <= capacity <= np.log(min(model.input_size, model.output_size)) + 1e-12


@PROPERTY_SETTINGS
@given(model=channels(), excess=st.floats(0.0, 1.0))
def test_budget_at_or_above_d_max_gives_the_unconstrained_capacity(model, excess):
    _, d_max = cd.feasible_range(model)
    free = _certified_capacity(model, np.inf)
    assert abs(_certified_capacity(model, d_max * (1.0 + excess)) - free) <= STALL_CERT


@PROPERTY_SETTINGS
@given(model=channels(), frac=st.floats(0.0, 1.0))
def test_budget_within_face_tol_above_d_min_solves_on_the_cheapest_face(model, frac):
    # A cost within FACE_TOL of its budget counts as on it, so such a budget
    # confines the law to the cheapest letters, as d_min itself does.
    cost = cd.optimal_estimator(model).cost_vector
    d_min = float(cost.min())
    budget = d_min + frac * solver.FACE_TOL
    assume(budget - d_min <= solver.FACE_TOL)
    floor = cd.capacity_distortion_point(model, d_min)
    point = cd.capacity_distortion_point(model, budget)
    assert point.constraint_active
    assert point.optimizer.probs @ cost <= budget + solver.FACE_TOL
    assert abs(point.capacity - floor.capacity) <= 1e-12


@PROPERTY_SETTINGS
@given(model=channels())
def test_curve_is_nondecreasing_and_concave(model):
    curve = cd.cd_curve(model, 5)
    budgets = np.array([pt.distortion_budget for pt in curve.points])
    caps = np.array([pt.capacity for pt in curve.points])
    assert np.all(np.diff(caps) >= -solver.CURVE_TOL)
    for i in range(len(caps) - 2):
        d0, d1, d2 = budgets[i:i + 3]
        if d2 > d0:
            chord = caps[i] + (caps[i + 2] - caps[i]) * (d1 - d0) / (d2 - d0)
            assert caps[i + 1] >= chord - solver.CURVE_TOL


@PROPERTY_SETTINGS
@given(model=channels(max_inputs=3))
def test_grid_search_never_beats_an_unflagged_point(model):
    # The grid searches only laws that meet the budget, so it bounds C(D)
    # from below; a point without a warning is within STALL_CERT of C(D).
    for point in cd.cd_curve(model, 5).points:
        if point.convergence_warning is None:
            grid = cd.grid_search_capacity(model, point.distortion_budget)
            assert grid <= point.capacity + STALL_CERT


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


def _lp_dual_multipliers(divergence, rows, budgets):
    """The mu >= 0 that minimizes max_x [divergence(x) - mu . (rows[:, x] -
    budgets)], a linear program in (mu, t) solved by scipy's HiGHS.  Each
    excess row is scaled to a largest entry of 1 first: HiGHS's 1e-7
    tolerances would price a row of 1e-9 entries at zero.  An excess within
    ``FACE_TOL`` of 0 is on its budget, as the solver's budget rule has it;
    scaled, its rounding could make the rows meet no law."""
    from scipy.optimize import linprog

    m = rows.shape[0]
    excess = rows - budgets[:, None]
    excess[np.abs(excess) <= solver.FACE_TOL] = 0.0
    scale = np.abs(excess).max(axis=1)
    scale[scale == 0.0] = 1.0
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([-(excess / scale[:, None]).T, -np.ones((rows.shape[1], 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-divergence, bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res.success
    return np.maximum(res.x[:m], 0.0) / scale


def _two_budget_case():
    """The only feasible law is (0.5, 0.5), and the second row's entries are
    1e-9: unscaled, HiGHS prices that row at mu = 0 and its bound sits
    1.6e-5 above the capacity; scaled, mu = 32740.85 brings it within
    4e-17."""
    model = cd.validate_channel([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [2 / 3, 1 / 3]]], [0.5, 0.5],
                                1.0 - np.eye(2))
    rows = np.array([[0.5, 0.41666666666666663], [0.0, 1e-9]])
    assert np.array_equal(rows[0], cd.optimal_estimator(model).cost_vector)
    return model, rows, np.array([0.4583333333333333, 5e-10])


@PROPERTY_SETTINGS
@given(case=budgeted_channels())
@example(case=_two_budget_case())
def test_several_budgets_are_met_below_an_independent_dual_bound(case):
    model, rows, budgets = case
    assume(solver._matrix_game(rows - budgets[:, None])[0] <= 1e-12)
    point = cd.multi_constraint_point(
        model, [cd.CostConstraint(row, float(b)) for row, b in zip(rows, budgets)]
    )
    p = point.optimizer.probs
    assert np.all(rows @ p <= budgets + 1e-12)
    assert abs(point.capacity - cd.mutual_information(model, p)) < 1e-9

    # Weak duality at the returned law's output marginal, evaluated exactly
    # at the LP's multipliers mu: I(p) = p . divergence is at most
    # max_x [divergence(x) - mu . (A_x - b)] + mu . (A p - b), and A p - b
    # is at most rounding.
    pyx = model.output_given_input
    divergence = _kl_rows(pyx, p @ pyx)
    excess = rows - budgets[:, None]
    mu = _lp_dual_multipliers(divergence, rows, budgets)
    bound = float(np.max(divergence - mu @ excess))
    assert point.capacity <= bound + mu @ np.maximum(excess @ p, 0.0) + 1e-12
    assert bound - point.capacity <= 1e-6 or point.convergence_warning is not None
    if model.input_size <= 3:
        grid = solver._simplex_grid(model.input_size, 1e-4 if model.input_size == 2 else 1e-2)
        # Feasible to rounding at each row's own scale: an absolute 1e-12 on
        # a row of 1e-9 entries would admit laws 0.2 % past its budget.
        grid = grid[np.all(grid @ rows.T <= budgets + 1e-12 * np.abs(excess).max(axis=1), axis=1)]
        if grid.size:
            assert point.capacity >= float(np.max(cd.batch_mutual_information(model, grid))) - 1e-9


@PROPERTY_SETTINGS
@given(case=budgeted_channels())
def test_several_budgets_solve_below_their_own_dual_bound(case):
    # The bound the solver returns is max_x [score(x) - lam . (A_x - b)] at
    # the linear program's multipliers lam, an upper bound for any lam >= 0,
    # so it holds to rounding however loosely the program is solved.
    model, rows, budgets = case
    assume(solver._matrix_game(rows - budgets[:, None])[0] <= 1e-12)
    polytope = solver._check_budgets(rows, budgets)
    _, value, bound, _, _ = solver._solve_budget(solver._Objective([(1.0, model)]), polytope)
    assert bound >= value - 1e-14


@PROPERTY_SETTINGS
@given(payoff=st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))))
def test_matrix_game_value_is_reached_by_both_players(payoff):
    value, column, row = solver._matrix_game(payoff)
    assert np.all(column >= 0.0) and abs(column.sum() - 1.0) <= 1e-12
    assert np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-12
    assert abs(float(np.max(payoff @ column)) - value) <= 1e-12
    assert abs(float(np.min(row @ payoff)) - value) <= 1e-12


def _game_payoffs(shape):
    """Payoffs as a stress of random games draws them: uniform entries,
    entries rounded to 0.1, or entries from {0, +-1e-9, +-1e-5, +-1}."""
    return st.one_of(
        arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, shape, elements=st.integers(-10, 10).map(lambda k: k / 10)),
        arrays(np.float64, shape, elements=st.sampled_from([0.0, 1e-9, -1e-9, 1e-5, -1e-5, 1.0, -1.0])),
    )


@PROPERTY_SETTINGS
@given(payoff=st.tuples(st.integers(1, 4), st.integers(1, 8)).flatmap(_game_payoffs))
# The second column raises the row's largest entry to 10, so the first
# column's 3e-16, kept at a largest of 1, falls below the rounding unit;
# appended after the 10, the 3e-16 is zeroed.
@example(payoff=np.array([[3e-16, 10.0], [1.0, -1.0]]))
@example(payoff=np.array([[10.0, 3e-16], [1.0, -1.0]]))
def test_grown_game_matches_a_fresh_one(payoff):
    # A game grown one column at a time, each solve starting from the last
    # optimal basis, and a fresh build of the same payoff: each appended
    # entry is zeroed as the fresh build zeroes it, and an earlier entry
    # differs only where a later, larger entry put it below its row's
    # rounding unit, which the fresh build zeroes and the grown game keeps.
    # The grown game's laws reach the fresh game's value.
    game = solver._game(payoff[:, :1])
    for j in range(1, payoff.shape[1] + 1):
        if j > 1:
            game.add_column(payoff[:, j - 1])
        fresh = solver._game(payoff[:, :j]).a
        unit = np.finfo(np.float64).eps * np.abs(fresh).max(axis=1, keepdims=True)
        kept = game.a != fresh
        assert not kept[:, j + 1:].any() and np.all(fresh[kept] == 0.0)
        assert np.all(np.abs(game.a - fresh) <= unit)
        value, column, row = solver._game_laws(game)
        fresh = solver._matrix_game(payoff[:, :j])[0]
        assert np.all(column >= 0.0) and abs(column.sum() - 1.0) <= 1e-12
        assert np.all(row >= 0.0) and abs(row.sum() - 1.0) <= 1e-12
        assert abs(value - fresh) <= 1e-12
        assert abs(float(np.max(payoff[:, :j] @ column)) - fresh) <= 1e-12
        assert abs(float(np.min(row @ payoff[:, :j])) - fresh) <= 1e-12


@PROPERTY_SETTINGS
@given(case=st.tuples(st.integers(1, 3), st.integers(1, 6)).flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=st.floats(0.0, 1.0)),
    arrays(np.float64, shape[:1], elements=st.floats(0.0, 0.5)),
    arrays(np.float64, shape[1:], elements=st.floats(0.0, 5.0)),
    st.integers(0, shape[1] - 1))))
def test_lp_vertex_multipliers_close_the_duality_gap(case):
    # Each budget is letter x's cost plus a slack, so x meets them all.  At
    # the program's multipliers lam the Lagrangian bound
    # max_x [score(x) - lam . excess_x] equals the vertex's score.
    costs, slack, score, x = case
    excess = costs - (costs[:, x] + slack)[:, None]
    v, lam = solver._LinearProgram(excess).solve(-score)
    assert np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-12
    assert np.all(excess @ v <= 1e-12)
    assert np.all(lam >= 0.0)
    assert abs(float(np.max(score - lam @ excess)) - float(score @ v)) <= 1e-12


@st.composite
def linear_programs(draw):
    """(objective, rows, n_free) for ``_LinearProgram`` over |X| 1-64 letters
    and 1-3 rows, each row a letter's cost minus letter x's cost and a slack,
    so that x meets them all.  With a free column, which every row prices
    down and the objective up, the optimum stays finite.  Entries are random
    or rounded to 0.1, which gives degenerate vertices and tied letters."""
    n, m, n_free = draw(st.integers(1, 64)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    tidy = (lambda a: np.round(a, 1)) if draw(st.booleans()) else (lambda a: a)
    costs = tidy(draw(arrays(np.float64, (m, n), elements=st.floats(-1.0, 1.0))))
    slack = tidy(draw(arrays(np.float64, m, elements=st.floats(0.0, 0.5))))
    x = draw(st.integers(0, n - 1))
    rows = costs - (costs[:, x] + slack)[:, None]
    objective = tidy(draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))
    if n_free:
        rows = np.hstack([rows, tidy(draw(arrays(np.float64, (m, 1), elements=st.floats(-1.0, -0.1))))])
        objective = np.append(objective, tidy(np.array([draw(st.floats(0.1, 1.0))])))
    return objective, rows, n_free


def _highs(objective, rows, n_free):
    """The program's optimum and solution by scipy's HiGHS, to its default
    tolerances."""
    from scipy.optimize import linprog

    n = objective.size - n_free
    res = linprog(objective, A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                  A_eq=np.r_[np.ones(n), np.zeros(n_free)][None, :], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)] * n_free, method="highs")
    assert res.success
    return float(res.fun), res.x


@PROPERTY_SETTINGS
@given(lp=linear_programs())
def test_linear_program_is_exact_and_agrees_with_highs(lp):
    # On its own, the solution is exact to rounding: a law meeting every
    # row, and multipliers whose Lagrangian bound min over the simplex (the
    # free entries priced at zero) reaches its value.
    objective, rows, n_free = lp
    n = objective.size - n_free
    # ``_LinearProgram`` takes nonnegative entries only, placed before the law:
    # the free entry is the difference of a pair of them, with columns
    # (c, -c) and objective entries (o, -o).
    pair = np.r_[np.arange(n, objective.size), np.arange(n, objective.size), np.arange(n)]
    signs = np.r_[np.ones(n_free), -np.ones(n_free), np.ones(n)]
    z, lam = solver._LinearProgram(rows[:, pair] * signs, 2 * n_free).solve(objective[pair] * signs)
    z = np.r_[z[2 * n_free:], z[:n_free] - z[n_free:2 * n_free]]
    value = float(objective @ z)
    assert np.all(z[:n] >= 0.0) and abs(z[:n].sum() - 1.0) <= 1e-12
    assert np.all(rows @ z <= 1e-12)
    assert np.all(lam >= 0.0)
    reduced = objective + lam @ rows
    assert np.all(np.abs(reduced[n:]) <= 1e-12)
    assert abs(float(reduced[:n].min()) - value) <= 1e-12
    # HiGHS, kept here only as an oracle, works to tolerances of 1e-7, which
    # on rows of tiny entries can move its answer far either way (min p1
    # subject to 1e-11 p0 <= 0 reads 0, not 1).  Where its solution meets
    # the rows to rounding, z is at least as good.
    highs_value, highs_z = _highs(objective, rows, n_free)
    if np.all(highs_z[:n] >= 0.0) and abs(highs_z[:n].sum() - 1.0) <= 1e-12 and np.all(rows @ highs_z <= 1e-12):
        assert value <= highs_value + 1e-9


@st.composite
def objective_sequences(draw):
    """A program of ``linear_programs`` and 4-6 objectives on its rows: the
    first is the program's own, and each later one draws its letters' entries
    afresh (random or rounded to 0.1), so its optimum moves to another vertex,
    while the free column keeps its entry, which keeps the optimum finite."""
    objective, rows, n_free = draw(linear_programs())
    n = objective.size - n_free
    objectives = [objective]
    for _ in range(draw(st.integers(3, 5))):
        letters = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        objectives.append(np.r_[np.round(letters, 1) if draw(st.booleans()) else letters, objective[n:]])
    return objectives, rows, n_free


@PROPERTY_SETTINGS
@given(case=objective_sequences())
def test_warm_linear_program_matches_a_cold_solve_at_every_objective(case):
    # Frank-Wolfe solves one program per call for a sequence of scores,
    # each from the last one's optimal basis.  Every step's value is a cold
    # solve's, and its multipliers close the duality gap on their own.
    objectives, rows, n_free = case
    n = objectives[0].size - n_free
    pair = np.r_[np.arange(n, n + n_free), np.arange(n, n + n_free), np.arange(n)]
    signs = np.r_[np.ones(n_free), -np.ones(n_free), np.ones(n)]
    program = solver._LinearProgram(rows[:, pair] * signs, 2 * n_free)
    for objective in objectives:
        z, lam = program.solve(objective[pair] * signs)
        cold, _ = solver._LinearProgram(rows[:, pair] * signs, 2 * n_free).solve(objective[pair] * signs)
        z = np.r_[z[2 * n_free:], z[:n_free] - z[n_free:2 * n_free]]
        cold = np.r_[cold[2 * n_free:], cold[:n_free] - cold[n_free:2 * n_free]]
        value = float(objective @ z)
        assert abs(value - float(objective @ cold)) <= 1e-12
        assert np.all(z[:n] >= 0.0) and abs(z[:n].sum() - 1.0) <= 1e-12
        assert np.all(rows @ z <= 1e-12)
        assert np.all(lam >= 0.0)
        reduced = objective + lam @ rows
        assert np.all(np.abs(reduced[n:]) <= 1e-12)
        assert abs(float(reduced[:n].min()) - value) <= 1e-12


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


@st.composite
def free_letter_channels(draw):
    """A channel with |X| 2-6, |S| 2-3, |Y| |S|-5, some transition entries
    zeroed and Hamming distortion, whose letter 0 reveals the state and so
    costs nothing: output y < |S| is owned by state y and each later output
    by one state or none, and letter 0 emits only outputs of its state."""
    nx = draw(st.integers(2, 6))
    ns = draw(st.integers(2, 3))
    ny = draw(st.integers(ns, 5))
    transition = np.array(draw(st.lists(_maybe_zero, min_size=nx * ns * ny, max_size=nx * ns * ny)))
    transition = transition.reshape(nx, ns, ny)
    owner = np.r_[np.arange(ns), draw(st.lists(st.integers(0, ns), min_size=ny - ns, max_size=ny - ns))]
    transition[0] = np.where(owner == np.arange(ns)[:, None], transition[0] + 0.01, 0.0)
    transition[..., 0] += transition.sum(axis=2) == 0  # every row keeps some mass
    transition /= transition.sum(axis=2, keepdims=True)
    prior = np.array(draw(st.lists(_weights, min_size=ns, max_size=ns)))
    return cd.validate_channel(transition, prior / prior.sum(), 1.0 - np.eye(ns))


@PROPERTY_SETTINGS
@given(model=free_letter_channels())
def test_ratio_formula_matches_the_divergences_against_the_free_letter(model):
    cost = cd.optimal_estimator(model).cost_vector
    free = np.flatnonzero(cost <= solver.FACE_TOL)
    assume(free.size == 1)
    pyx = model.output_given_input
    divergence = _kl_rows(pyx, pyx[free[0]])
    result = cd.cpud_ratio_formula(model)
    if np.any(np.isinf(divergence)):
        witness = int(np.argmax(np.isinf(divergence)))
        for route in (result, cd.cpud_sup_definition(model)):
            assert np.isinf(route.value)
            assert route.condition == "divergent likelihood ratio"
            assert route.witness == witness
    else:
        others = np.arange(model.input_size) != free[0]
        expected = float(np.max(divergence[others] / cost[others]))
        assert result.condition is None
        assert abs(result.value - expected) <= 1e-12 * max(1.0, expected)


@PROPERTY_SETTINGS
@given(model=free_letter_channels())
def test_ratio_formula_on_a_support_matches_the_dense_channel(model):
    # Zero outputs appended up to |Y| = 320 leave at most 1/64 of P(y|x)
    # nonzero, so the padded channel is read on its support.
    cost = cd.optimal_estimator(model).cost_vector
    assume(np.count_nonzero(cost <= solver.FACE_TOL) == 1)
    nx, ns, ny = model.transition.shape
    padded = cd.validate_channel(np.concatenate([model.transition, np.zeros((nx, ns, 320 - ny))], axis=2),
                                 model.state_prior, model.distortion)
    dense, sparse = cd.cpud_ratio_formula(model), cd.cpud_ratio_formula(padded)
    assert padded._support is not None and "output_given_input" not in vars(padded)
    assert sparse.condition == dense.condition
    if dense.condition is not None:
        assert sparse.witness == dense.witness
    assert abs(sparse.value - dense.value) <= 1e-12 * max(1.0, dense.value) or sparse.value == dense.value
