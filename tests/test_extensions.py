"""Rate per unit estimation cost, worst-case-prior solves, and the budget
rule they share with point and multi-constraint solves."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capdist as cd
from capdist import extensions, solver

HAMMING2 = [[0.0, 1.0], [1.0, 0.0]]

# Frozen values: the max-min value at budget 0.05 for the two-prior family
# below was computed by exhaustive feasibility-filtered grid search over
# input laws (100001-point simplex grid) and pinned; the per-unit-cost slope
# is the exact closed form -log(1-r)/r.
COMPOUND_VALUE_AT_005 = 0.0411493655929831
R04_CAP_AT_01 = 0.10610555179795111


# The ``outer`` benchmark workload draws its random compound families from
# a library seeded with this; the sixth (|X| = 4, 3 priors, |S| = 3, |Y| = 2)
# is run at lo + 0.6 (hi - lo), lo the least worst-prior cost of any input
# law and hi the largest letter cost.
OUTER_LIBRARY_SEED = 8011137
OUTER_FAMILY_BUDGET = 0.48838610460600024


def _outer_family(draws=6):
    """The ``draws``-th random compound family of the ``outer`` library."""
    lib = np.random.default_rng(OUTER_LIBRARY_SEED)
    for _ in range(draws):
        nx, n_theta = int(lib.integers(3, 5)), int(lib.integers(2, 4))
        ns, ny = int(lib.integers(2, 4)), int(lib.integers(2, 5))
        transition = lib.dirichlet(np.ones(ny), size=(nx, ns))
        priors = tuple(lib.dirichlet(np.ones(ns)) for _ in range(n_theta))
    return cd.CompoundFamily(transition, priors, 1.0 - np.eye(ns))


def _two_prior_family():
    return cd.CompoundFamily(
        transition=cd.scalar_multiplicative_model(0.3).transition,
        priors=([0.7, 0.3], [0.6, 0.4]),
        distortion=HAMMING2,
    )


def _revealing_vs_mute_model():
    """x = 0 copies the state to the output; x = 1 drowns it in a third symbol."""
    transition = [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # x = 0: y = s
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],  # x = 1: y = 2 always
    ]
    return cd.validate_channel(transition, [0.6, 0.4], HAMMING2)


def _noisy_everywhere_model():
    """Every letter leaves residual state uncertainty, so no letter is free."""
    transition = [
        [[0.9, 0.1], [0.1, 0.9]],  # x = 0: y = s with 10% flips
        [[0.2, 0.8], [0.8, 0.2]],  # x = 1: y = 1 - s with 20% flips
    ]
    return cd.validate_channel(transition, [0.6, 0.4], HAMMING2)


# ---------------------------------------------------------------------------
# rate per unit cost: ratio route
# ---------------------------------------------------------------------------


def test_ratio_formula_matches_closed_form_slope():
    for r in (0.1, 0.3, 0.5):
        result = cd.cpud_ratio_formula(cd.scalar_multiplicative_model(r))
        assert result.method == "ratio-formula"
        assert result.condition is None
        assert result.witness == 0  # the silent letter carries the binding ratio
        assert abs(result.value - cd.scalar_small_d_slope(r)) < 1e-12


def test_ratio_formula_infinite_with_two_free_letters():
    result = cd.cpud_ratio_formula(cd.additive_mod2_model(0.3))
    assert math.isinf(result.value)
    assert result.condition == "multiple zero-cost letters"
    assert result.witness == (0, 1)

    block = cd.cpud_ratio_formula(cd.block_multiplicative_model(0.5, 2))
    assert math.isinf(block.value)
    assert block.condition == "multiple zero-cost letters"
    assert block.witness == (1, 2, 3)  # every nonzero block reveals the state


def test_ratio_formula_infinite_on_divergent_likelihood():
    result = cd.cpud_ratio_formula(_revealing_vs_mute_model())
    assert math.isinf(result.value)
    assert result.condition == "divergent likelihood ratio"
    assert result.witness == 1


def test_ratio_formula_requires_a_free_letter():
    with pytest.raises(cd.NoZeroCostLetter):
        cd.cpud_ratio_formula(_noisy_everywhere_model())


def test_one_letter_channel_has_zero_rate_per_cost_on_both_routes():
    # The lone letter copies the state, so it is free and carries nothing.
    model = cd.validate_channel([[[1.0, 0.0], [0.0, 1.0]]], [0.6, 0.4], HAMMING2)
    assert cd.cpud_ratio_formula(model).value == 0.0
    assert cd.cpud_sup_definition(model).value == 0.0


# ---------------------------------------------------------------------------
# rate per unit cost: sup route
# ---------------------------------------------------------------------------


def test_sup_definition_agrees_with_ratio_route():
    for r in (0.3, 0.5):
        ratio = cd.cpud_ratio_formula(cd.scalar_multiplicative_model(r))
        sup = cd.cpud_sup_definition(cd.scalar_multiplicative_model(r))
        assert sup.method == "sup-definition"
        assert abs(sup.value - ratio.value) / ratio.value < 1e-3


def test_sup_definition_detects_infinite_cases():
    mod2 = cd.cpud_sup_definition(cd.additive_mod2_model(0.3))
    assert math.isinf(mod2.value)
    assert mod2.condition == "multiple zero-cost letters"
    mute = cd.cpud_sup_definition(_revealing_vs_mute_model())
    assert math.isinf(mute.value)
    assert mute.condition == "divergent likelihood ratio"


def test_sup_definition_without_free_letter_is_finite():
    model = _noisy_everywhere_model()
    result = cd.cpud_sup_definition(model)
    assert result.condition is None
    assert math.isfinite(result.value)
    assert result.value > 0.0
    # The sup can never beat unconstrained capacity over the cheapest cost.
    d_min, _ = cd.feasible_range(model)
    cap = cd.capacity_distortion_point(model, 1.0).capacity
    assert result.value <= cap / d_min + 1e-9


def test_sup_definition_on_uniform_cost_is_the_capacity_over_that_cost():
    # The output ignores the state, so every letter's estimate is the prior's
    # mode and costs 0.3 (to an ulp): every input law spends 0.3, where the
    # sup sits.
    rows = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]]
    model = cd.validate_channel([[row, row] for row in rows], [0.7, 0.3], HAMMING2)
    assert np.max(np.abs(cd.optimal_estimator(model).cost_vector - 0.3)) <= 1e-15
    result = cd.cpud_sup_definition(model)
    assert result.value == cd.capacity_distortion_point(model, 0.3).capacity / 0.3
    assert result.condition is None
    with pytest.raises(cd.NoZeroCostLetter):
        cd.cpud_ratio_formula(model)


# ---------------------------------------------------------------------------
# worst-case prior
# ---------------------------------------------------------------------------


def test_compound_matches_frozen_grid_value():
    result = cd.compound_cd(_two_prior_family(), 0.05)
    assert result.certified
    assert result.gap <= 1e-4
    # The reported value is a feasibility-verified lower bound, so it can sit
    # below the exhaustive-grid optimum by solver slack but never above it.
    assert result.value <= COMPOUND_VALUE_AT_005 + 1e-9
    assert abs(result.value - COMPOUND_VALUE_AT_005) < 1e-6
    assert result.worst_theta == 0
    # The optimizer must satisfy the budget under every prior.
    for model in _two_prior_family().models:
        cost = cd.optimal_estimator(model).cost_vector
        assert float(result.optimizer.probs @ cost) <= 0.05 + 1e-9
    # Worst-case value is a lower bound on each prior's own information.
    for model in _two_prior_family().models:
        assert cd.mutual_information(model, result.optimizer.probs) >= result.value - 1e-12


def test_compound_single_prior_matches_the_plain_solver():
    family = cd.CompoundFamily(
        transition=cd.scalar_multiplicative_model(0.4).transition,
        priors=([0.6, 0.4],),
        distortion=HAMMING2,
    )
    result = cd.compound_cd(family, 0.1)
    assert result.certified
    assert result.gap <= 1e-10
    assert abs(result.value - R04_CAP_AT_01) < 1e-9


def test_compound_single_prior_reports_the_gap_of_its_solve(monkeypatch):
    # The first |X| = 8 library channel of the ``points`` workload, at 50 %
    # of [d_min, d_max].  One round of two Frank-Wolfe steps leaves a gap of
    # about 5e-3; one prior goes through the same rounds as several, so the
    # gap is reported, not replaced by 0.  (Two such rounds certify: the
    # second starts from the first one's law.)
    lib = np.random.default_rng(8011136)
    nx, ns, ny = int(lib.integers(2, 9)), int(lib.integers(2, 4)), int(lib.integers(2, 7))
    transition = lib.dirichlet(np.ones(ny), size=(nx, ns))
    model = cd.validate_channel(transition, lib.dirichlet(np.ones(ns)), 1.0 - np.eye(ns))
    d_min, d_max = cd.feasible_range(model)
    family = cd.CompoundFamily(model.transition, (model.state_prior,), model.distortion)
    monkeypatch.setattr(solver, "BA_MAX_ITER", 2)
    monkeypatch.setattr(extensions, "MAX_OUTER", 1)
    with pytest.raises(cd.NotCertified):
        cd.compound_cd(family, 0.5 * (d_min + d_max))


def _count_ascents(monkeypatch):
    ascents = []
    ascend = solver._ascend
    monkeypatch.setattr(solver, "_ascend", lambda objective: ascents.append(1) or ascend(objective))
    return ascents


def test_compound_runs_no_ascent_on_a_binding_budget(monkeypatch):
    # The budget binds, so an unconstrained ascent's law would only pick
    # Frank-Wolfe's first vertex; each round runs Frank-Wolfe alone.
    ascents = _count_ascents(monkeypatch)
    result = cd.compound_cd(_two_prior_family(), 0.05)
    assert ascents == []
    assert result.gap <= extensions.GAP_TOL
    assert abs(result.value - COMPOUND_VALUE_AT_005) < 1e-6


def test_compound_starts_each_later_round_from_the_last_rounds_law(monkeypatch):
    # The 17th library family at 30 % of its budget range takes several
    # rounds.  Every one starts Frank-Wolfe from one atom of weight 1, and
    # every one after the first from the law the round before returned.
    family = _outer_family(17)
    rows = _cost_rows(family)
    lo = solver._matrix_game(rows)[0]
    starts, laws = [], []
    frank_wolfe, solve_weighted = solver._frank_wolfe, extensions._solve_weighted

    def recording_frank_wolfe(objective, polytope, atoms, weights):
        starts.append((atoms.copy(), weights.copy()))
        return frank_wolfe(objective, polytope, atoms, weights)

    def recording_solve(*args):
        laws.append(solve_weighted(*args))
        return laws[-1]

    monkeypatch.setattr(solver, "_frank_wolfe", recording_frank_wolfe)
    monkeypatch.setattr(extensions, "_solve_weighted", recording_solve)
    result = cd.compound_cd(family, lo + 0.3 * (float(rows.max()) - lo))
    assert result.gap <= extensions.GAP_TOL
    assert len(laws) >= 2
    assert len(starts) == len(laws)
    assert all(atoms.shape == (1, rows.shape[1]) and weights.tolist() == [1.0] for atoms, weights in starts)
    for (atoms, _), (law, _) in zip(starts[1:], laws):
        assert np.array_equal(atoms[0], law)


def test_compound_starts_from_the_uniform_law_on_the_free_letters(monkeypatch):
    # The K = 7 block channel's 127 letters other than 0 reveal the state,
    # so they cost nothing, and the optimum is the uniform law on them.
    # Frank-Wolfe started there certifies it at once; from a vertex it
    # added one letter a step, 1,445 score evaluations, against 47 for the
    # ascent-first solve.
    block = cd.block_multiplicative_model(0.3, 7)
    family = cd.CompoundFamily(block.transition, ([0.7, 0.3], [0.8, 0.2], [0.9, 0.1]), block.distortion)
    ascents = _count_ascents(monkeypatch)
    evaluations = []
    scores = solver._Objective.scores
    monkeypatch.setattr(solver._Objective, "scores", lambda objective, p: evaluations.append(1) or scores(objective, p))
    result = cd.compound_cd(family, 0.1)
    assert ascents == []
    assert len(evaluations) <= 5
    assert result.gap <= 1e-12
    assert result.optimizer.probs[0] == 0.0
    assert np.allclose(result.optimizer.probs[1:], 1.0 / 127, rtol=0.0, atol=1e-15)


# A face that keeps no row: letters 0 and 1 reveal the state (y = s and
# y = s + 1), so they cost 0 under both priors, and letter 2's output is
# uniform over Y.  At budget 0, and within FACE_TOL above it, the face keeps
# letters 0 and 1.
FREE_FACE = [
    [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
    [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
    [[0.25] * 4, [0.25] * 4],
]
# A face that keeps a row: under the first prior letters 0 and 1 both cost
# 0.21 (letter 2 costs 0.3), so at 0.21, and within FACE_TOL above it, the
# face keeps them.  The second prior's row stays, costing 0.4 and 0.12 on
# them, and binds: p0 = 9 / 28.
BINDING_FACE = [
    [[1.0, 0.0, 0.0, 0.0], [0.7, 0.3, 0.0, 0.0]],
    [[0.0, 0.0, 0.7, 0.3], [0.0, 0.0, 0.0, 1.0]],
    [[0.25] * 4, [0.25] * 4],
]


@pytest.mark.parametrize("transition, budget, rows, value", [
    (FREE_FACE, 0.0, 0, 0.3575038278840843),
    (FREE_FACE, 5e-13, 0, 0.3575038278840843),
    (BINDING_FACE, 0.21, 1, 0.6279415887399058),
    (BINDING_FACE, 0.21 + 5e-13, 1, 0.6279415887412402),
])
def test_compound_solves_on_the_face_with_no_ascent(monkeypatch, transition, budget, rows, value):
    family = cd.CompoundFamily(transition, ([0.7, 0.3], [0.4, 0.6]), HAMMING2)
    polytope = solver._check_budgets(_cost_rows(family), np.full(2, budget))
    on, rest = polytope.face
    assert on.tolist() == [True, True, False] and rest.rows.shape == (rows, 2)
    sizes = []
    frank_wolfe = solver._frank_wolfe
    monkeypatch.setattr(solver, "_frank_wolfe", lambda objective, *args: sizes.append(objective.n_inputs)
                        or frank_wolfe(objective, *args))
    ascents = _count_ascents(monkeypatch)
    result = cd.compound_cd(family, budget)
    assert ascents == []
    assert sizes and set(sizes) == {2}
    assert abs(result.value - value) <= 1e-12  # the value before rounds ran Frank-Wolfe alone
    assert result.gap <= extensions.GAP_TOL
    assert result.optimizer.probs[2] == 0.0


def test_compound_infeasible_budget_raises():
    with pytest.raises(cd.InfeasibleDistortion):
        cd.compound_cd(_two_prior_family(), -0.01)


def test_compound_family_requires_a_prior():
    with pytest.raises(ValueError):
        cd.CompoundFamily(
            transition=cd.scalar_multiplicative_model(0.3).transition,
            priors=(),
            distortion=HAMMING2,
        )


def test_compound_raises_not_certified_when_rounds_run_out(monkeypatch):
    monkeypatch.setattr(extensions, "MAX_OUTER", 1)
    with pytest.raises(cd.NotCertified):
        cd.compound_cd(_outer_family(), OUTER_FAMILY_BUDGET)


# ---------------------------------------------------------------------------
# worst-case prior: independent bounds
# ---------------------------------------------------------------------------


def _kl_rows(pyx, q):
    """D(P(.|x) || q) for every row x, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(pyx > 0.0, pyx * (np.log(pyx) - np.log(q)), 0.0)
    return terms.sum(axis=1)


def _cost_rows(family):
    return np.stack([cd.optimal_estimator(m).cost_vector for m in family.models])


def _compound_lp_bound(family, budget, p):
    """min over prior weights w and multipliers mu >= 0 of
    max_x sum_theta [w_theta D(P_theta(.|x) || q_theta) - mu_theta (d*_theta(x) - D)],
    q_theta the output law of p under prior theta.  Weak duality makes it an
    upper bound on the max-min value for any p; a linear program in
    (w, mu, t) solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    a = np.stack([_kl_rows(m.output_given_input, p @ m.output_given_input) for m in family.models])
    b = _cost_rows(family) - budget
    n_theta, n_x = a.shape
    c = np.zeros(2 * n_theta + 1)
    c[-1] = 1.0
    a_eq = np.zeros((1, 2 * n_theta + 1))
    a_eq[0, :n_theta] = 1.0
    res = linprog(c, A_ub=np.hstack([a.T, -b.T, -np.ones((n_x, 1))]), b_ub=np.zeros(n_x),
                  A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * (2 * n_theta) + [(None, None)],
                  method="highs")
    assert res.success
    return float(res.fun)


def _grid_max_min(family, budget):
    """Exhaustive max-min over a simplex grid of input laws meeting every
    prior's budget (step 1e-4 for two letters, 1e-2 for three); -inf when
    no grid law meets them."""
    n = family.models[0].input_size
    grid = solver._simplex_grid(n, 1e-4 if n == 2 else 1e-2)
    grid = grid[np.all(grid @ _cost_rows(family).T <= budget + 1e-12, axis=1)]
    worst = np.min([cd.batch_mutual_information(m, grid) for m in family.models], axis=0)
    return float(np.max(worst, initial=-np.inf))


def test_compound_gap_holds_against_an_independent_bound_on_the_outer_family():
    # The bound does not use the solver; on this family it must read within
    # gap_tol of the value, as the ``outer`` workload checks it.
    family = _outer_family()
    assert family.models[0].input_size == 4 and len(family.models) == 3
    result = cd.compound_cd(family, OUTER_FAMILY_BUDGET)
    bound = _compound_lp_bound(family, OUTER_FAMILY_BUDGET, result.optimizer.probs)
    assert result.value <= bound + 1e-7
    assert bound <= result.value + 1e-4


def test_compound_mixes_its_laws_to_certify_in_few_rounds(monkeypatch):
    # The 17th library family (|X| = 4, 2 priors) at 30 % of its budget
    # range.  Mixing the inner laws by the master game's optimal law (its
    # column law, held transposed) certifies it in 4 inner solves; the last
    # inner law alone needs 8.
    family = _outer_family(17)
    rows = _cost_rows(family)
    lo = solver._matrix_game(rows)[0]
    real = extensions._solve_weighted
    calls = []
    monkeypatch.setattr(extensions, "_solve_weighted", lambda *args: calls.append(1) or real(*args))
    result = cd.compound_cd(family, lo + 0.3 * (float(rows.max()) - lo))
    assert result.gap <= 1e-4
    assert len(calls) <= 6


def _count_rounds_and_games(monkeypatch):
    rounds, games = [], []
    solve_weighted, game = extensions._solve_weighted, extensions._game
    monkeypatch.setattr(extensions, "_solve_weighted", lambda *args: rounds.append(1) or solve_weighted(*args))
    monkeypatch.setattr(extensions, "_game", lambda payoff: games.append(1) or game(payoff))
    return rounds, games


def test_compound_certified_in_its_first_round_builds_no_game(monkeypatch):
    # The uniform law finds the first prior worst, and the law solved at it
    # leaves that prior the worst within the gap: one round, and no Kelley
    # game, whose one column would only mix that law with weight 1.
    rounds, games = _count_rounds_and_games(monkeypatch)
    result = cd.compound_cd(_two_prior_family(), 0.05)
    assert len(rounds) == 1
    assert games == []
    assert result.gap <= extensions.GAP_TOL
    assert result.worst_theta == 0


def test_compound_starts_at_the_prior_the_uniform_law_finds_worst(monkeypatch):
    # The K = 7 block channel under three priors, the one with the least
    # state-1 mass last.  Taking the pure priors in index order, rounds 1
    # and 2 solve at priors that are not the worst, and the third
    # certifies; starting at the uniform law's worst prior, the first does.
    block = cd.block_multiplicative_model(0.3, 7)
    family = cd.CompoundFamily(block.transition, ([0.7, 0.3], [0.8, 0.2], [0.9, 0.1]), block.distortion)
    rounds, games = _count_rounds_and_games(monkeypatch)
    result = cd.compound_cd(family, 0.1)
    assert len(rounds) == 1
    assert games == []
    assert result.worst_theta == 2
    assert result.gap <= extensions.GAP_TOL
    for model in family.models:
        assert cd.mutual_information(model, result.optimizer.probs) >= result.value


def test_kelley_game_runs_phase_one_once(monkeypatch):
    # At GAP_TOL = 1e-10 the outer family takes 16 rounds.  The Kelley game
    # grows by one column a round and re-optimizes from its last basis,
    # so of the game programs (two extra entries, t+ and t-) only the first
    # round's runs phase 1.  The budget polytope's program (no extra entry)
    # decides feasibility in its phase 1, so the budget rule plays no game,
    # and every round's Frank-Wolfe re-optimizes that one program.
    monkeypatch.setattr(extensions, "GAP_TOL", 1e-10)
    monkeypatch.setattr(extensions, "MAX_OUTER", 40)
    built, solved = [], []
    init, solve = solver._LinearProgram.__init__, solver._LinearProgram.solve

    def counting_init(program, rows, n_extra=0):
        built.append(n_extra)
        init(program, rows, n_extra)

    def counting_solve(program, objective):
        solved.append(program.n_extra)
        return solve(program, objective)

    monkeypatch.setattr(solver._LinearProgram, "__init__", counting_init)
    monkeypatch.setattr(solver._LinearProgram, "solve", counting_solve)
    budget_games = []
    matrix_game = solver._matrix_game
    monkeypatch.setattr(solver, "_matrix_game", lambda payoff: budget_games.append(1) or matrix_game(payoff))
    rounds = []
    real = extensions._solve_weighted
    monkeypatch.setattr(extensions, "_solve_weighted", lambda *args: rounds.append(1) or real(*args))
    result = cd.compound_cd(_outer_family(), OUTER_FAMILY_BUDGET)
    assert result.gap <= 1e-10
    assert len(rounds) >= 10
    assert len(budget_games) == 0
    assert built.count(2) == 1
    assert built.count(0) == 1
    assert solved.count(2) == len(rounds)


_weights = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def compound_cases(draw):
    """A family with |X| 2-4, 2-3 priors, |S| 2-3, |Y| 2-4 and Hamming
    distortion, and a budget between the least worst-prior cost of any
    input law and the largest letter cost."""
    nx, n_theta = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    ns, ny = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    transition = np.array(draw(st.lists(_weights, min_size=nx * ns * ny, max_size=nx * ns * ny)))
    transition = transition.reshape(nx, ns, ny)
    transition /= transition.sum(axis=2, keepdims=True)
    priors = tuple(
        np.array(draw(st.lists(_weights, min_size=ns, max_size=ns))) for _ in range(n_theta)
    )
    family = cd.CompoundFamily(transition, tuple(p / p.sum() for p in priors), 1.0 - np.eye(ns))
    rows = _cost_rows(family)
    lo, hi = solver._matrix_game(rows)[0], float(rows.max())
    return family, lo + draw(st.floats(0.0, 1.0)) * (hi - lo)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(case=compound_cases())
def test_compound_is_feasible_and_within_its_gap_of_independent_bounds(case):
    family, budget = case
    result = cd.compound_cd(family, budget)
    p = result.optimizer.probs
    assert np.all(_cost_rows(family) @ p <= budget + 1e-12)
    worst = min(cd.mutual_information(m, p) for m in family.models)
    assert abs(result.value - worst) <= 1e-9
    assert result.gap <= 1e-4
    assert result.value <= _compound_lp_bound(family, budget, p) + 1e-7
    if family.models[0].input_size <= 3:
        # 1e-12 absorbs the oracle's rounding: on a useless channel some grid
        # laws read 1e-16 nats.
        assert result.value >= _grid_max_min(family, budget) - result.gap - 1e-12


# ---------------------------------------------------------------------------
# one budget rule for point, multi-constraint and compound solves
# ---------------------------------------------------------------------------

NARROW_TRANSITION = [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.798, 0.202]]]


def _common_floor(rows):
    """min over input laws p of max_j rows[j] . p: the least budget every
    row can share, a linear program in (p, t) solved by scipy's HiGHS."""
    from scipy.optimize import linprog

    m, n = rows.shape
    res = linprog(np.r_[np.zeros(n), 1.0], A_ub=np.hstack([rows, -np.ones((m, 1))]),
                  b_ub=np.zeros(m), A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    assert res.success
    return float(res.fun)


def _entry_point(name):
    """(cost rows, budget -> value) of one budgeted entry point on the
    narrow-cost channel, whose letters cost 0.15 and 0.151."""
    model = cd.validate_channel(NARROW_TRANSITION, [0.5, 0.5], HAMMING2)
    cost = cd.optimal_estimator(model).cost_vector
    if name == "point":
        return cost[None, :], lambda b: cd.capacity_distortion_point(model, b).capacity
    if name == "compound":
        family = cd.CompoundFamily(NARROW_TRANSITION, ([0.5, 0.5], [0.3, 0.7]), HAMMING2)
        return _cost_rows(family), lambda b: cd.compound_cd(family, b).value
    # Two rows whose cheapest letters differ: their common floor, 0.1505,
    # is above both rows' cheapest costs.
    rows = cost[None, :] if name == "multi, one row" else np.stack([cost, cost[::-1]])
    return rows, lambda b: cd.multi_constraint_point(
        model, [cd.CostConstraint(row, b) for row in rows]
    ).capacity


@pytest.mark.parametrize("name", ["point", "multi, one row", "multi, two rows", "compound"])
def test_every_entry_point_applies_one_budget_rule(name):
    rows, solve = _entry_point(name)
    with pytest.raises(ValueError, match="NaN"):
        solve(math.nan)
    # +inf constrains nothing: the answer of a budget no letter exceeds.
    assert solve(math.inf) == solve(float(rows.max()))
    with pytest.raises(cd.InfeasibleDistortion) as excinfo:
        solve(float(rows.min()) - 0.01)
    assert isinstance(excinfo.value, cd.InfeasibleConstraints)
    assert abs(excinfo.value.d_min - _common_floor(rows)) <= 1e-9


def test_infinite_budget_leaves_the_constraint_inactive():
    # Both letters cost 0.4: clipping +inf to the dearest cost would put the
    # budget on the minimum-cost face and report it active.
    model = cd.validate_channel([[[1.0, 0.0], [1.0, 0.0]]] * 2, [0.6, 0.4], HAMMING2)
    point = cd.capacity_distortion_point(model, math.inf)
    assert not point.constraint_active
    assert point.capacity == 0.0


def test_unequal_budgets_have_no_common_floor():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.InfeasibleDistortion) as excinfo:
        cd.multi_constraint_point(
            model,
            [cd.CostConstraint(np.array([0.4, 0.0]), 0.1), cd.CostConstraint(np.array([0.0, 1.0]), 0.5)],
        )
    assert excinfo.value.d_min is None


def test_compound_infeasible_budget_reports_the_common_floor():
    # The 12th library family (|X| = 3, 2 priors).  Each prior alone can
    # afford a letter below the budget, but no input law meets both
    # budgets, and the least budget both can share is the LP floor.
    family = _outer_family(12)
    rows = _cost_rows(family)
    floor, least = _common_floor(rows), float(rows.min(axis=1).max())
    assert floor - least > 0.01
    with pytest.raises(cd.InfeasibleDistortion) as excinfo:
        cd.compound_cd(family, 0.5 * (least + floor))
    assert abs(excinfo.value.d_min - floor) <= 1e-9
