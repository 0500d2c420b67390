"""Constrained capacity solver: single budget, curves, multiple budgets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import capdist as cd
from capdist import solver

# Frozen solver outputs for the r = 0.4 scalar channel, cross-checked against
# the closed form and an exhaustive simplex grid before being pinned here.
R04_CAP_AT_01 = 0.10610555179795111
R04_UNCONSTRAINED_CAP = 0.1705046788786006
R04_UNCONSTRAINED_P1 = 0.39190213948550917
R04_DMAX = 0.24323914420579634
HAMMING = [[0.0, 1.0], [1.0, 0.0]]


def _silent_pair_model():
    """Both letters blank the output: no information, every letter costs 0.4."""
    transition = [
        [[1.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [1.0, 0.0]],
    ]
    return cd.validate_channel(transition, [0.6, 0.4], [[0.0, 1.0], [1.0, 0.0]])


def _random_constrained_model(rng):
    nx, ns, ny = 2, int(rng.integers(2, 4)), int(rng.integers(2, 4))
    transition = rng.random((nx, ns, ny)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    prior = rng.random(ns) + 1e-3
    prior /= prior.sum()
    distortion = rng.random((ns, ns))
    return cd.validate_channel(transition, prior, distortion)


# ---------------------------------------------------------------------------
# single-budget solves
# ---------------------------------------------------------------------------


def test_point_matches_frozen_active_value():
    model = cd.scalar_multiplicative_model(0.4)
    point = cd.capacity_distortion_point(model, 0.1)
    assert abs(point.capacity - R04_CAP_AT_01) < 1e-9
    assert np.allclose(point.optimizer.probs, [0.25, 0.75], atol=1e-6)
    assert point.constraint_active
    assert point.convergence_warning is None
    assert point.distortion_budget == 0.1


def test_point_slack_budget_returns_unconstrained_capacity():
    model = cd.scalar_multiplicative_model(0.4)
    point = cd.capacity_distortion_point(model, 0.3)
    assert abs(point.capacity - R04_UNCONSTRAINED_CAP) < 1e-9
    # Argmax location is only square-root-of-value-tolerance accurate.
    assert abs(point.optimizer.probs[1] - R04_UNCONSTRAINED_P1) < 5e-6
    assert not point.constraint_active


def test_point_zero_budget_restricts_to_free_letters():
    point = cd.capacity_distortion_point(cd.scalar_multiplicative_model(0.4), 0.0)
    assert point.capacity == 0.0
    assert np.allclose(point.optimizer.probs, [0.0, 1.0], atol=1e-12)
    assert point.constraint_active

    # The block channel keeps three free letters at zero budget, so the rate
    # stays positive: r log(2^K - 1) nats per block.
    block = cd.block_multiplicative_model(0.5, 2)
    bpoint = cd.capacity_distortion_point(block, 0.0)
    assert abs(bpoint.capacity - 0.5 * math.log(3.0)) < 1e-9
    assert abs(bpoint.optimizer.probs[0]) < 1e-12


def test_point_matches_closed_form_across_budgets():
    for r in (0.1, 0.3, 0.5):
        model = cd.scalar_multiplicative_model(r)
        for budget in np.linspace(0.0, r, 7):
            expected, p1 = cd.scalar_cd_closed_form(r, float(budget))
            point = cd.capacity_distortion_point(model, float(budget))
            assert abs(point.capacity - expected) < 1e-8, (r, budget)
            assert abs(point.optimizer.probs[1] - p1) < 1e-5, (r, budget)


def test_block_point_at_k11_matches_closed_form():
    # The benchmark's largest block channel: 2,048 letters, solved on the
    # support of P(y|x); b = 0 confines the law to the nonzero blocks.
    for r in (0.2, 0.45):
        model = cd.block_multiplicative_model(r, 11)
        for budget in (0.0, r / 3, 2 * r / 3):
            expected, _ = cd.block_cd_closed_form(r, 11, budget)
            point = cd.capacity_distortion_point(model, budget)
            assert abs(point.capacity / 11 - expected) < 1e-6, (r, budget)
            assert point.convergence_warning is None


def test_point_is_deterministic():
    model = cd.scalar_multiplicative_model(0.3)
    a = cd.capacity_distortion_point(model, 0.07)
    b = cd.capacity_distortion_point(model, 0.07)
    assert a.capacity == b.capacity
    assert np.array_equal(a.optimizer.probs, b.optimizer.probs)


def test_point_infeasible_budget_raises_with_floor():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.InfeasibleDistortion) as excinfo:
        cd.capacity_distortion_point(model, -1e-3)
    assert excinfo.value.d_min == 0.0

    silent = _silent_pair_model()
    with pytest.raises(cd.InfeasibleDistortion) as excinfo:
        cd.capacity_distortion_point(silent, 0.2)
    assert abs(excinfo.value.d_min - 0.4) < 1e-12
    # At its floor the silent channel is feasible but carries nothing.
    assert cd.capacity_distortion_point(silent, 0.4).capacity == 0.0


def test_point_rejects_nan_budget():
    # NaN compares false with every cost, so without a check it would slip
    # past the feasibility test into the solver.
    with pytest.raises(ValueError, match="NaN"):
        cd.capacity_distortion_point(cd.scalar_multiplicative_model(0.3), math.nan)


def test_binding_point_lands_on_the_budget_with_narrow_cost_spread():
    # The letter costs are 0.15 and 0.151, so a cost shortfall of 1e-8 is
    # 1e-5 of the range and worth 8e-8 nats here.  With two letters the
    # optimum is the unique law with d*.p = D.
    transition = [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.798, 0.202]]]
    model = cd.validate_channel(transition, [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    cost = cd.optimal_estimator(model).cost_vector
    assert np.allclose(cost, [0.15, 0.151], atol=1e-15)
    for budget in (0.1501, 0.1502, 0.1503, 0.1504):
        point = cd.capacity_distortion_point(model, budget)
        p1 = (budget - cost[0]) / (cost[1] - cost[0])
        exact = cd.mutual_information(model, np.array([1.0 - p1, p1]))
        assert point.constraint_active
        assert abs(point.capacity - exact) < 1e-9, budget
        assert point.optimizer.probs @ cost <= budget + 1e-12


def _library_channel_0():
    """First |X| = 8, |S| = 2, |Y| = 4 channel of a Dirichlet(1) draw whose
    ascents stall near a face short of their certificate."""
    lib = np.random.default_rng(8011136)
    nx, ns, ny = int(lib.integers(2, 9)), int(lib.integers(2, 4)), int(lib.integers(2, 7))
    transition = lib.dirichlet(np.ones(ny), size=(nx, ns))
    prior = lib.dirichlet(np.ones(ns))
    return cd.validate_channel(transition, prior, 1.0 - np.eye(ns))


def _three_letter_model():
    """Two informative letters and a third whose output is a fair coin."""
    return cd.validate_channel([[[0.9, 0.1]], [[0.2, 0.8]], [[0.5, 0.5]]], [1.0], [[0.0]])


def _count_calls(monkeypatch, owner, name):
    calls = [0]
    target = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return target(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _count_scores(monkeypatch):
    return _count_calls(monkeypatch, solver._Objective, "scores")


def test_frank_wolfe_certifies_a_binding_point_in_few_score_evaluations(monkeypatch):
    # 90 % of [d_min, d_max], with d_max the cost after 100 plain capacity
    # iterations p(x) <- p(x) exp D(P(.|x) || P(.)) from the uniform law
    # (the perfbench points workload's budget rule).  The optimum has 5
    # support letters and 4 outputs, so I(p) is flat along a null direction
    # and multiplicative ascents at fixed multipliers crawl to their
    # iteration cap: a multiplier bisection needed 416,012 evaluations and
    # left a warning.  Pairwise Frank-Wolfe on the budget polytope certifies
    # it in about 160.
    model = _library_channel_0()
    cost = cd.optimal_estimator(model).cost_vector
    pyx = model.output_given_input
    p = np.full(model.input_size, 1.0 / model.input_size)
    for _ in range(100):
        p = p * np.exp((pyx * np.log(pyx / (p @ pyx))).sum(axis=1))
        p /= p.sum()
    budget = cost.min() + 0.9 * (p @ cost - cost.min())
    calls = _count_scores(monkeypatch)
    point = cd.capacity_distortion_point(model, budget)
    assert calls[0] < 20_000
    assert point.convergence_warning is None
    assert point.constraint_active
    assert abs(point.optimizer.probs @ cost - budget) <= 1e-12


def test_frank_wolfe_stops_when_its_best_vertex_is_its_away_atom(monkeypatch):
    # Any multiplier lam >= 0 gives a valid dual bound, so one raised by 1
    # leaves the binding scalar point uncertified.  Frank-Wolfe starts on
    # the optimal vertex, which stays its best vertex and is its only atom,
    # the away atom too: a pairwise step there moves nothing, so it stops
    # before any line search, with the optimal law and a loose bound.  The
    # unconstrained ascent, whose finisher steps, runs first, unpatched.
    model = cd.scalar_multiplicative_model(0.3)
    objective = solver._Objective([(1.0, model)])
    objective.unconstrained()
    budget_vertex = solver._budget_vertex

    def loose(cost, order, score, budget):
        x, y, alpha, lam = budget_vertex(cost, order, score, budget)
        return x, y, alpha, lam + 1.0

    monkeypatch.setattr(solver, "_budget_vertex", loose)
    line_searches = _count_calls(monkeypatch, solver, "_line_search")
    point = solver._point(objective, cd.optimal_estimator(model).cost_vector[None, :], np.array([0.05]))
    assert line_searches[0] == 0
    assert point.constraint_active
    assert "above stall_cert" in point.convergence_warning
    assert abs(point.capacity - cd.scalar_cd_closed_form(0.3, 0.05)[0]) <= 1e-12


def test_the_simplex_is_the_polytope_with_no_rows():
    # Scores with ties: the vertex is the first best letter, as np.argmax
    # picks it, with no multiplier, and the simplex has no face.
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 64):
        score = rng.choice([0.0, 0.5, 1.0], size=n)
        simplex = solver._simplex(n)
        v, lam = simplex.vertex(score)
        assert v.tobytes() == np.eye(n)[np.argmax(score)].tobytes()
        assert lam.size == 0
        assert simplex.letters is None


def test_a_one_row_polytopes_vertex_is_the_hulls():
    # Budgets off the cheapest cost, so the polytope has no face; each
    # polytope answers several scores on its one cached cost order.
    rng = np.random.default_rng(41)
    for n in (2, 3, 8, 40):
        cost = rng.choice([0.0, 0.1, 0.5, 1.0], size=n)
        cost[:2] = 0.0, 1.0
        polytope = solver._check_budgets(cost[None, :], np.array([rng.uniform(0.1, 0.9)]))
        assert polytope.letters is None
        row, budget = polytope.rows[0], float(polytope.budgets[0])
        for _ in range(5):
            score = rng.choice([0.0, 0.3, 1.0, rng.normal()], size=n)
            x, y, alpha, lam = solver._budget_vertex(row, np.argsort(row, kind="stable"), score, budget)
            want = np.zeros(n)
            want[x] += alpha
            want[y] += 1.0 - alpha
            v, got_lam = polytope.vertex(score)
            assert v.tobytes() == want.tobytes()
            assert got_lam.tolist() == [lam]


def test_iteration_cap_binds_frank_wolfe_alone(monkeypatch):
    # A cap below BA_PREFIX leaves the ascent's updates as they are, so its
    # iteration-cap flag stays False.
    monkeypatch.setattr(solver, "BA_MAX_ITER", 2)
    objective = solver._Objective([(1.0, cd.scalar_multiplicative_model(0.3))])
    assert solver._ascend(objective)[2] is False


def test_point_flags_an_uncertified_gap(monkeypatch):
    # Two Frank-Wolfe steps leave the budget solve far from optimal (a gap
    # of about 1.4e-2); ten certify this point.
    model = _library_channel_0()
    d_min, d_max = cd.feasible_range(model)
    budget = d_min + 0.9 * (d_max - d_min)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "BA_MAX_ITER", 2)
        point = cd.capacity_distortion_point(model, budget)
    assert point.constraint_active
    assert point.convergence_warning is not None
    assert "above stall_cert" in point.convergence_warning
    assert cd.capacity_distortion_point(model, budget).convergence_warning is None


# Channel 49 of 50 drawn by rng = np.random.default_rng(20261018), each as
# nx, ns, ny = rng.integers(2, 11), rng.integers(2, 4), rng.integers(2, 7);
# T = rng.dirichlet(np.ones(ny) * rng.choice([0.3, 1.0, 3.0]), size=(nx, ns));
# T[1] = T[0] when i % 5 == 0; prior = rng.dirichlet(np.ones(ns)).
CAPPED_TRANSITION = [
    [[0.25987127470618515, 6.867714968620732e-05, 0.7400600481441286],
     [0.9901614617036598, 0.004257812718122358, 0.005580725578217837]],
    [[0.9057884579181823, 0.0919616055847459, 0.0022499364970717363],
     [0.7540721524309452, 0.005353024243331687, 0.24057482332572325]],
    [[0.5209914998284004, 0.3643383752248016, 0.11467012494679815],
     [0.09118286874300355, 0.007825373291679014, 0.9009917579653174]],
    [[0.7361779960758472, 0.14705920215272367, 0.11676280177142924],
     [0.024196203809652234, 0.0022761853441112187, 0.9735276108462365]],
    [[0.8858070155265715, 0.0005113010712199386, 0.11368168340220844],
     [0.00027874990846625536, 0.9814152729916087, 0.018305977099924986]],
    [[0.3654905746662557, 0.6017075990130042, 0.03280182632074023],
     [0.8644771795876599, 0.13551896448635015, 3.855925990016358e-06]],
    [[0.8104587731210645, 0.010573093675894905, 0.17896813320304053],
     [0.00042906138660623726, 0.09425024660431407, 0.9053206920090798]],
    [[0.32517590464140317, 0.6748164085725262, 7.686786070575275e-06],
     [0.29612695991365606, 0.02084678941089652, 0.6830262506754473]],
    [[0.906161579817135, 0.0926014676762003, 0.0012369525066644896],
     [1.4320245879334485e-08, 0.07883772914501512, 0.9211622565347389]],
]
CAPPED_PRIOR = [0.4917603668930458, 0.5082396331069543]


def _capped_channel():
    return cd.validate_channel(CAPPED_TRANSITION, CAPPED_PRIOR, 1.0 - np.eye(2))


@pytest.mark.parametrize(
    "make_model, capacity, max_calls",
    [(_capped_channel, 0.238656425659048, 500), (_library_channel_0, 0.155561744555751, 200)],
    ids=["capped", "stalled"],
)
def test_capped_ascent_is_finished_and_certified(monkeypatch, make_model, capacity, max_calls):
    # Plain multiplicative updates crawl at a slack budget on both channels:
    # on the 9x2x3 one they reached the 10,000-update cap 2.1e-5 nats short
    # (10,659 evaluations), and on the |X| = 8 one they stalled after 727.
    # After BA_PREFIX updates the finisher certifies the same capacities in
    # 92 and 80.  On the 9x2x3 channel the atoms' output laws are affinely
    # dependent, so least-squares Newton steps would crawl along the null
    # direction of their system (about 1,970 steps from the capped law); a
    # step along that direction certifies the point in a few.
    model = make_model()
    budget = float(cd.optimal_estimator(model).cost_vector.max())
    calls = _count_scores(monkeypatch)
    point = cd.capacity_distortion_point(model, budget)
    assert point.convergence_warning is None
    assert not point.constraint_active
    assert abs(point.capacity - capacity) <= 1e-12
    assert calls[0] < max_calls


def test_point_with_letter_costs_equal_up_to_rounding():
    # The estimate is the likelier state whatever the output, so every
    # letter costs P(state 0), up to a few ulps, and any budget leaves the
    # unconstrained capacity.  Pairing letters across the budget would
    # divide by those ulps (a 0.03 nat gap here).
    transition = [
        [[0.3000997008973081, 0.3000997008973081, 0.3998005982053839], [1 / 3, 1 / 3, 1 / 3]],
        [[0.10069790628115655, 0.4995014955134596, 0.3998005982053839],
         [0.3000997008973081, 0.3000997008973081, 0.3998005982053839]],
        [[0.30009970089730803, 0.49950149551345957, 0.2003988035892323],
         [0.3000997008973081, 0.3000997008973081, 0.3998005982053839]],
        [[0.10069790628115655, 0.3000997008973081, 0.5992023928215354],
         [0.20039880358923232, 0.3000997008973081, 0.4995014955134596]],
    ]
    model = cd.validate_channel(transition, [0.05935007104718665, 0.9406499289528134], HAMMING)
    cost = cd.optimal_estimator(model).cost_vector
    assert 0.0 < np.ptp(cost) < 1e-15
    free = cd.capacity_distortion_point(model, float(cost.max()))
    d_min, d_max = cd.feasible_range(model)
    for frac in (0.3, 0.7):
        point = cd.capacity_distortion_point(model, d_min + frac * (d_max - d_min))
        assert point.convergence_warning is None
        assert abs(point.capacity - free.capacity) < 1e-9


def test_point_just_above_d_min_lands_on_the_budget():
    # x = 0 shows nothing and costs 1/2; x = 1 reveals state 1 with
    # probability 1e-5, so it costs 1/2 - 5e-6 and [d_min, d_max] spans
    # 2.5e-6.  A multiplier doubled until its tilted ascent met a budget 1 %
    # into that range passed its 1e6 cap first and returned the face law,
    # capacity 0 and 2.5e-8 below the budget, with a warning.
    transition = [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 1.0 - 1e-5, 1e-5]]]
    model = cd.validate_channel(transition, [0.5, 0.5], HAMMING)
    cost = cd.optimal_estimator(model).cost_vector
    d_min, d_max = cd.feasible_range(model)
    budget = d_min + 0.01 * (d_max - d_min)
    point = cd.capacity_distortion_point(model, budget)
    # With two letters the optimum is the unique law with d*.p = D.
    p1 = (budget - cost[0]) / (cost[1] - cost[0])
    exact = cd.mutual_information(model, np.array([1.0 - p1, p1]))
    assert abs(exact - 0.0314790660) < 1e-10
    assert point.convergence_warning is None
    assert abs(point.optimizer.probs @ cost - budget) <= 1e-12
    assert abs(point.capacity - exact) <= 1e-9


def test_an_ascent_step_that_lowers_the_objective_raises():
    # A test objective whose second scores call lowers p . score by 1.5:
    # the first update must not be taken as an ascent.
    class Falling:
        n_inputs = 2
        calls = 0

        def scores(self, p):
            self.calls += 1
            return np.array([1.0, 0.0]) if self.calls == 1 else np.array([-1.0, -1.0])

    with pytest.raises(cd.SolverNonmonotone, match="ascent step lowered the objective"):
        solver._ascend(Falling())


def test_stalled_ascent_point_needs_few_score_evaluations(monkeypatch):
    model = _library_channel_0()
    assert model.input_size == 8
    d_min, d_max = cd.feasible_range(model)
    budget = d_min + 0.5 * (d_max - d_min)

    calls = _count_scores(monkeypatch)
    point = cd.capacity_distortion_point(model, budget)
    # The unconstrained ascent here crawls near a face with a certificate
    # above stall_cert, and the Frank-Wolfe finisher certifies its law after
    # BA_PREFIX updates; the point takes about 130 evaluations in all.
    assert calls[0] < 30_000
    assert point.convergence_warning is None


BLOCK_TIE_R = 0.41935


def test_tied_letters_do_not_zig_zag_along_a_block_curve(monkeypatch):
    # The K = 2 block channel's 3 nonzero inputs cost nothing and tie, so
    # each binding optimum lies inside the hull of several Frank-Wolfe
    # atoms (d_max = 0.0472, far above FACE_TOL).  Pairwise steps alone
    # balance them two at a time (about 68,400 evaluations for the curve); a
    # Newton step on the atom weights after each needs about 2,700.
    import warnings

    model = cd.block_multiplicative_model(BLOCK_TIE_R, 2)
    calls = _count_scores(monkeypatch)
    newton_steps = _count_calls(monkeypatch, solver, "_newton_step")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = cd.cd_curve(model, 20)
    assert calls[0] < 5_000
    assert newton_steps[0] >= 1
    for point in curve.points:
        assert point.convergence_warning is None
        expected, _ = cd.block_cd_closed_form(BLOCK_TIE_R, 2, point.distortion_budget)
        assert abs(point.capacity - 2 * expected) <= 1e-9


@pytest.mark.parametrize("r, k", [(0.3, 3), (0.25, 5)])
def test_flat_block_curve_solves_every_budget_on_the_cheapest_face(monkeypatch, r, k):
    # These block curves are flat: at r = 0.3 the K = 3 curve's d_max is
    # about 1e-110, so every budget lies within FACE_TOL of d_min = 0 and
    # counts as on the cheapest face.  Running Frank-Wolfe inside that band
    # took 2,125 evaluations for the same capacities; the face solves take
    # 38.  At r = 0.25 the K = 5 ascent stalls with about 1e-10 of mass on
    # the all-zeros letter, and an achiever left uncertified read d_max =
    # 5.2e-11 and solved 18 binding points in 8,245 evaluations.
    model = cd.block_multiplicative_model(r, k)
    calls = _count_scores(monkeypatch)
    curve = cd.cd_curve(model, 20)
    assert curve.d_max - curve.d_min <= solver.FACE_TOL
    assert calls[0] <= 100
    for point in curve.points:
        assert point.constraint_active
        assert point.convergence_warning is None
        expected, _ = cd.block_cd_closed_form(r, k, point.distortion_budget)
        assert abs(point.capacity - k * expected) <= 1e-12


def test_tied_letters_need_few_linear_programs_under_several_budgets(monkeypatch):
    # The same tied block channel, with the d* row given twice, so every
    # Frank-Wolfe step is a linear program.  Pairwise steps alone need 345
    # of them; with the Newton step, 9.  The budget rule runs the phase 1 of
    # the polytope's one program, which finds a law, so it plays no game;
    # Frank-Wolfe re-optimizes that program at every step.
    model = cd.block_multiplicative_model(BLOCK_TIE_R, 2)
    cost = cd.optimal_estimator(model).cost_vector
    d_min, d_max = cd.feasible_range(model)
    budget = d_min + 0.5 * (d_max - d_min)
    calls = _count_calls(monkeypatch, solver._LinearProgram, "solve")
    phase_one = _count_calls(monkeypatch, solver._LinearProgram, "__init__")
    games = _count_calls(monkeypatch, solver, "_matrix_game")
    newton_steps = _count_calls(monkeypatch, solver, "_newton_step")
    point = cd.multi_constraint_point(model, [cd.CostConstraint(cost, budget)] * 2)
    assert calls[0] < 20
    assert games[0] == 0
    assert phase_one[0] == 1
    assert newton_steps[0] >= 1
    assert point.convergence_warning is None
    assert point.constraint_active
    expected, _ = cd.block_cd_closed_form(BLOCK_TIE_R, 2, budget)
    assert abs(point.capacity - 2 * expected) <= 1e-9
    assert point.optimizer.probs @ cost <= budget + 1e-12


def test_feasible_range_scalar():
    d_min, d_max = cd.feasible_range(cd.scalar_multiplicative_model(0.4))
    assert d_min == 0.0
    # d_max reads the cost at an argmax, so its precision is the square root
    # of the value tolerance, not the value tolerance itself.
    assert abs(d_max - R04_DMAX) < 5e-6


# ---------------------------------------------------------------------------
# tradeoff curves
# ---------------------------------------------------------------------------


def test_curve_integer_grid_spans_feasible_range():
    model = cd.scalar_multiplicative_model(0.3)
    curve = cd.cd_curve(model, 8)
    assert len(curve.points) == 8
    budgets = [pt.distortion_budget for pt in curve.points]
    assert budgets[0] == pytest.approx(curve.d_min)
    assert budgets[-1] == pytest.approx(curve.d_max)
    caps = np.array([pt.capacity for pt in curve.points])
    assert np.all(np.diff(caps) >= -1e-10)
    # Concavity: interior points sit on or above the chord.
    for i in range(len(caps) - 2):
        chord = 0.5 * (caps[i] + caps[i + 2])
        assert caps[i + 1] >= chord - 1e-9
    assert not curve.points[-1].constraint_active


def test_curve_single_point_grid_is_dmax():
    model = cd.scalar_multiplicative_model(0.3)
    curve = cd.cd_curve(model, 1)
    assert len(curve.points) == 1
    assert curve.points[0].distortion_budget == pytest.approx(curve.d_max)


def test_curve_explicit_budgets_are_sorted():
    model = cd.scalar_multiplicative_model(0.3)
    curve = cd.cd_curve(model, [0.05, 0.01, 0.1])
    budgets = [pt.distortion_budget for pt in curve.points]
    assert budgets == sorted(budgets) == [0.01, 0.05, 0.1]


def test_curve_rejects_bad_grids():
    model = cd.scalar_multiplicative_model(0.3)
    with pytest.raises(ValueError):
        cd.cd_curve(model, 0)
    with pytest.raises(ValueError):
        cd.cd_curve(model, [])


@pytest.mark.parametrize("capacity, problem", [
    # The capacity falls 2 CURVE_TOL a budget step, then 0.5 CURVE_TOL,
    # which is rounding, not a fault.
    (lambda b: 1.0 - 40 * solver.CURVE_TOL * b, "decreased"),
    (lambda b: 1.0 - 10 * solver.CURVE_TOL * b, None),
    # The middle point lies 2 CURVE_TOL under the chord of its neighbours,
    # then 0.5 CURVE_TOL.
    (lambda b: b - 2 * solver.CURVE_TOL * (b == 0.05), "concavity"),
    (lambda b: b - 0.5 * solver.CURVE_TOL * (b == 0.05), None),
], ids=["falls", "falls-within-tol", "convex", "convex-within-tol"])
def test_curve_checks_its_capacities_along_the_budgets(monkeypatch, capacity, problem):
    # Every point's capacity replaced by capacity(budget).
    point = solver._point

    def replaced(objective, cost_rows, budgets):
        return dataclasses.replace(point(objective, cost_rows, budgets), capacity=capacity(float(budgets[0])))

    monkeypatch.setattr(solver, "_point", replaced)
    model = cd.scalar_multiplicative_model(0.3)
    if problem is None:
        cd.cd_curve(model, [0.0, 0.05, 0.1])
    else:
        with pytest.raises(cd.SolverNonmonotone, match=problem):
            cd.cd_curve(model, [0.0, 0.05, 0.1])


def _dirichlet_channel(seed):
    rng = np.random.default_rng(seed)
    nx, ns, ny = int(rng.integers(3, 7)), int(rng.integers(2, 4)), int(rng.integers(2, 5))
    transition = rng.dirichlet(np.ones(ny), size=(nx, ns))
    return cd.validate_channel(transition, rng.dirichlet(np.ones(ns)), 1.0 - np.eye(ns))


@pytest.mark.parametrize("make_model", [
    lambda: cd.scalar_multiplicative_model(0.3),
    lambda: cd.additive_mod2_model(0.2),
    lambda: cd.block_multiplicative_model(0.3, 3),
    lambda: cd.block_multiplicative_model(0.3, 7),  # scored on its support
    lambda: _dirichlet_channel(0),
    lambda: _dirichlet_channel(1),
    lambda: _dirichlet_channel(4),
], ids=["scalar", "mod2", "block3", "block7", "dirichlet0", "dirichlet1", "dirichlet4"])
def test_curve_points_are_bit_identical_to_single_points(make_model):
    # A curve solves every budget on one shared objective; each point must be
    # the one an independent capacity_distortion_point returns.  The explicit
    # grid holds d_min (the face solve on a restricted objective), an
    # interior budget and a slack budget above d_max.
    model = make_model()
    d_min, d_max = cd.feasible_range(model)
    for grid in (8, [d_min, 0.5 * (d_min + d_max), d_max + 0.1]):
        curve = cd.cd_curve(model, grid)
        assert (curve.d_min, curve.d_max) == (d_min, d_max)
        for point in curve.points:
            alone = cd.capacity_distortion_point(model, point.distortion_budget)
            assert point.capacity == alone.capacity
            assert np.array_equal(point.optimizer.probs, alone.optimizer.probs)
            assert point.constraint_active == alone.constraint_active
            assert point.convergence_warning == alone.convergence_warning


def test_curve_runs_one_unconstrained_ascent(monkeypatch):
    # feasible_range and all 20 budgets read one ascent on the full
    # objective.  The budget at d_min solves on the cheapest letters, a
    # restricted objective that runs its own ascent: it must not inherit the
    # full objective's law.  On a flat curve (mod-2, and the r = 0.25, K = 5
    # block) d_max = d_min, so every budget lies on that face and all of
    # them share its one ascent.
    ascend = solver._ascend
    law_sizes = []

    def recording(objective):
        result = ascend(objective)
        law_sizes.append(result[0].size)
        return result

    monkeypatch.setattr(solver, "_ascend", recording)
    for model in (cd.scalar_multiplicative_model(0.3), cd.additive_mod2_model(0.2),
                  cd.block_multiplicative_model(0.25, 5)):
        cost = cd.optimal_estimator(model).cost_vector
        law_sizes.clear()
        curve = cd.cd_curve(model, 20)
        assert curve.points[0].distortion_budget == curve.d_min
        assert law_sizes == [model.input_size, int(np.count_nonzero(cost == curve.d_min))]


# ---------------------------------------------------------------------------
# several simultaneous budgets
# ---------------------------------------------------------------------------


def test_multi_constraint_second_budget_binds():
    # Estimation allows P(x=1) >= 0.25 but the energy budget caps it at 0.3,
    # inside the increasing part of the rate, so the optimum sits at 0.3.
    model = cd.scalar_multiplicative_model(0.4)
    point = cd.multi_constraint_point(
        model,
        [
            cd.CostConstraint(np.array([0.4, 0.0]), 0.3),
            cd.CostConstraint(np.array([0.0, 1.0]), 0.3),
        ],
    )
    assert np.allclose(point.optimizer.probs, [0.7, 0.3], atol=1e-5)
    expected = cd.mutual_information(model, np.array([0.7, 0.3]))
    assert abs(point.capacity - expected) < 1e-7
    assert point.constraint_active
    assert point.convergence_warning is None


def test_multi_constraint_single_budget_matches_plain_solver():
    model = cd.scalar_multiplicative_model(0.4)
    single = cd.multi_constraint_point(
        model, [cd.CostConstraint(cd.optimal_estimator(model).cost_vector, 0.1)]
    )
    assert abs(single.capacity - R04_CAP_AT_01) < 1e-8


def test_multi_constraint_single_budget_lands_on_the_budget_with_narrow_cost_spread():
    # One constraint takes the point path's routine, so it ends on the budget
    # too; stopping 1e-8 short of it is 8e-8 low here.
    transition = [[[0.9, 0.1], [0.2, 0.8]], [[0.1, 0.9], [0.798, 0.202]]]
    model = cd.validate_channel(transition, [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    cost = cd.optimal_estimator(model).cost_vector
    for budget in (0.1501, 0.1502, 0.1503, 0.1504):
        point = cd.multi_constraint_point(model, [cd.CostConstraint(cost, budget)])
        p1 = (budget - cost[0]) / (cost[1] - cost[0])
        exact = cd.mutual_information(model, np.array([1.0 - p1, p1]))
        assert point.constraint_active
        assert point.convergence_warning is None
        assert abs(point.capacity - exact) < 1e-9, budget
        assert point.optimizer.probs @ cost <= budget + 1e-12


def test_multi_constraint_jointly_empty_budgets_raise():
    # Individually satisfiable, jointly empty: the estimation budget needs
    # P(x=1) >= 0.75 while the mean-input budget needs P(x=1) <= 0.5.
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.InfeasibleConstraints):
        cd.multi_constraint_point(
            model,
            [
                cd.CostConstraint(np.array([0.4, 0.0]), 0.1),
                cd.CostConstraint(np.array([0.0, 1.0]), 0.5),
            ],
        )


def test_multi_constraint_unsatisfiable_single_budget_raises():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.InfeasibleConstraints):
        cd.multi_constraint_point(model, [cd.CostConstraint(np.array([0.5, 0.2]), 0.1)])


def test_multi_constraint_wrong_length_cost_vector():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.DimensionMismatch):
        cd.multi_constraint_point(model, [cd.CostConstraint(np.array([0.1, 0.2, 0.3]), 0.5)])


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_multi_constraint_rejects_a_non_finite_cost(entry):
    # A NaN cost once returned the unconstrained law as slack, and an
    # infinite one failed inside the solver with NotAProbability.
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(ValueError, match="finite"):
        cd.multi_constraint_point(model, [cd.CostConstraint(np.array([entry, 0.0]), 0.3)])


def test_budgets_at_their_cheapest_costs_sharing_no_letter_raise_infeasible_distortion():
    # Each budget sits on its row's cheapest letter, and the two letters
    # differ.  The budget rule's game reads 1e-12 <= FACE_TOL, so the empty
    # face of the cheapest letters gives the rule's verdict, with no d_min.
    model = cd.validate_channel([[[0.9, 0.1]], [[0.2, 0.8]]], [1.0], [[0.0]])
    constraints = [cd.CostConstraint([0.0, 2e-12], 0.0), cd.CostConstraint([2e-12, 0.0], 0.0)]
    with pytest.raises(cd.InfeasibleDistortion, match="share no letter") as exc:
        cd.multi_constraint_point(model, constraints)
    assert exc.value.d_min is None
    with pytest.raises(cd.InfeasibleDistortion, match="share no letter") as exc:
        solver._check_budgets(np.array([[0.0, 2e-12], [2e-12, 0.0]]), np.zeros(2))
    assert exc.value.d_min is None


def test_a_face_row_below_its_cheapest_cost_raises_that_no_law_meets_the_budgets():
    # Draw 16676 of tools/stress.py --seed 3.  The first two budgets sit on
    # their rows' cheapest costs, whose letters (after the snap) share only
    # letter 3.  There the third row costs 1.000000000001, above its budget
    # of 0.3: no law meets it, though no budget is at its cheapest cost.
    # The game reads within FACE_TOL, so the rule raises with no d_min.
    model = cd.validate_channel(np.full((6, 1, 2), 0.5), [1.0], [[0.0]])
    rows = [[1e-09, 0.0, 9.99999999999e-10, 9.99999999999e-13, 1e-12, 1e-05],
            [1.000000000001, 1.000000000001, 1e-12, 1e-12, 1.000000000001e-12, 0.0],
            [1e-09, 1e-09, 0.001000000000001, 1.000000000001, 0.000999999999999, 1.000000000001]]
    budgets = [0.0, 0.0, 0.30000000070030003]
    with pytest.raises(cd.InfeasibleDistortion, match="no input law meets every budget") as exc:
        cd.multi_constraint_point(model, [cd.CostConstraint(row, b) for row, b in zip(rows, budgets)])
    assert exc.value.d_min is None
    with pytest.raises(cd.InfeasibleDistortion, match="no input law meets every budget") as exc:
        solver._check_budgets(np.array(rows), np.array(budgets))
    assert exc.value.d_min is None


def test_budgets_that_no_law_on_the_face_meets_raise_infeasible_distortion():
    # Letter 2 sits 1e-9 off the first row's floor, so the budget rule's
    # game reads about 1e-17 <= FACE_TOL.  On the face {0, 1} the other
    # rows need p0 <= 0.3 and p0 >= 0.3 + 1e-8, and the program the rule
    # builds there fails its phase 1.
    constraints = [cd.CostConstraint([0.0, 0.0, 1e-9], 0.0), cd.CostConstraint([1.0, 0.0, 0.0], 0.3),
                   cd.CostConstraint([0.0, 1.0, 0.0], 0.7 - 1e-8)]
    with pytest.raises(cd.InfeasibleDistortion, match="no law meets the rows") as exc:
        cd.multi_constraint_point(_three_letter_model(), constraints)
    assert exc.value.d_min is None
    with pytest.raises(cd.InfeasibleDistortion, match="no law meets the rows") as exc:
        solver._check_budgets(np.stack([c.cost_vector for c in constraints]),
                              np.array([c.budget for c in constraints]))
    assert exc.value.d_min is None


def test_a_face_within_a_face_solves_on_the_letters_both_keep():
    # The first budget keeps letters 0-2; on them the second row's cheapest
    # cost, 0.3, is its budget, which keeps letters 1 and 2.  The point is
    # the unconstrained one of the channel on those two letters.
    model = cd.validate_channel(np.random.default_rng(3).dirichlet(np.ones(3), size=(4, 2)),
                                [0.6, 0.4], HAMMING)
    constraints = [cd.CostConstraint([0.0, 0.0, 0.0, 1.0], 0.0),
                   cd.CostConstraint([0.5, 0.3, 0.3, 0.2], 0.3)]
    point = cd.multi_constraint_point(model, constraints)
    sub = cd.validate_channel(model.transition[1:3], model.state_prior, model.distortion)
    assert point.constraint_active
    assert point.optimizer.probs[[0, 3]].tolist() == [0.0, 0.0]
    assert point.capacity == cd.capacity_distortion_point(sub, math.inf).capacity


def test_multi_constraint_requires_a_constraint():
    with pytest.raises(ValueError):
        cd.multi_constraint_point(cd.scalar_multiplicative_model(0.4), [])


# ---------------------------------------------------------------------------
# the linear programs
# ---------------------------------------------------------------------------


def test_linear_program_takes_a_score_of_1e_7():
    # A solver stopping at feasibility tolerances of 1e-7 may keep letter 0.
    score = np.array([0.0, 1e-7, 1e-7])
    z, lam = solver._LinearProgram(np.zeros((1, 3))).solve(-score)
    assert score @ z == 1e-7 and z.sum() == 1.0
    assert lam.tolist() == [0.0]


def test_matrix_game_is_exact_at_a_near_tie():
    payoff = np.array([[-6e-8, 0.0], [0.0, 1.0]])
    value, column, row = solver._matrix_game(payoff)
    assert abs(value) <= 1e-15
    assert abs(float(np.max(payoff @ column)) - value) <= 1e-15
    assert abs(float(np.min(row @ payoff)) - value) <= 1e-15


def test_matrix_game_is_exact_where_a_basis_recurs():
    # Of 30,000 random games (uniform entries, entries rounded to 0.1, drawn
    # from {0, +-1e-9, +-1e-5, +-1}, or tiny), this is the only one whose
    # pivots lead back to a basis: ``_pivot_to_optimum`` then switches to
    # Bland's leaving rule and prices beyond rounding only.
    payoff = np.array([[1e-05, 1e-05, 1.0, 1e-09, 1.0],
                       [1.0, -1e-05, 1e-05, -1e-05, -1.0],
                       [1.0, 1e-09, -1e-09, 1e-05, -1.0],
                       [-1e-05, 1e-09, 1.0, 1e-05, 1e-09]])
    value, column, row = solver._matrix_game(payoff)
    assert abs(value - 5.0005e-06) <= 1e-15
    assert abs(float(np.max(payoff @ column)) - value) <= 1e-15
    assert abs(float(np.min(row @ payoff)) - value) <= 1e-15


def test_pivots_end_where_a_basis_recurs_under_blands_rule(monkeypatch):
    # Bland's rule cannot cycle in exact arithmetic, and no float program
    # met so far revisits a basis under it (about 10^6 random and perturbed
    # games).  A basis solve rounded to two significant digits does: this
    # game's phase 2 revisits a basis under the first rule, then another
    # under Bland's, and the pivots must end there instead of cycling.
    game = solver._game(np.array([[-0.5, 0.1, -0.1], [0.9, -0.3, 0.1]]))
    solve_basis = solver._solve_basis
    calls = [0]

    def two_digits(b, rhs):
        calls[0] += 1
        if calls[0] > 1000:
            raise RuntimeError("the pivots cycle")
        x = solve_basis(b, rhs)
        magnitude = np.floor(np.log10(np.where(x == 0.0, 1.0, np.abs(x))))
        return np.round(x / 10.0 ** (magnitude - 1)) * 10.0 ** (magnitude - 1)

    monkeypatch.setattr(solver, "_solve_basis", two_digits)
    solver._game_laws(game)
    assert calls[0] < 50


def test_linear_program_with_no_feasible_law_raises():
    with pytest.raises(cd.InfeasibleConstraints, match="no law meets the rows"):
        solver._LinearProgram(np.array([[1.0, 0.5]]))


def test_unbounded_linear_program_raises():
    # The extra entry meets no row and lowers the objective.
    with pytest.raises(cd.NotCertified, match="unbounded"):
        solver._LinearProgram(np.array([[0.0, 1.0, -1.0]]), 1).solve(np.array([-1.0, 0.0, 0.0]))


def test_singular_basis_is_a_solver_fault_or_a_solve():
    # Letter 2 meets both budgets, but the budget rule's game on rows that
    # differ by 1e-9 and 1e-5 in one entry reaches a singular basis.  A
    # simplex that solves it must return a point within both budgets.
    rows = np.array([[1.0, 1e-9, 0.0], [1.0, 1e-5, 0.0]])
    constraints = [cd.CostConstraint(row, 0.3) for row in rows]
    try:
        point = cd.multi_constraint_point(_three_letter_model(), constraints)
    except cd.NotCertified:
        return
    assert (rows @ point.optimizer.probs <= 0.3 + 1e-12).all()


def test_phase_one_decides_feasibility_at_the_snap():
    # Draw 4308 of ``tools/stress.py --seed 3``.  Letter 2 costs exactly
    # 1e-12 under both budgets of 0, so the snap puts it on both and it
    # meets them; the game on the rows as given reads 1.0000000000000002e-12,
    # above FACE_TOL by rounding.  Phase 1 on the snapped rows decides.
    rows = np.array([[1e-07, 1e-05, 1e-12, 1e-07, 1e-09, 0.0], [0.1, 1e-09, 1e-12, 0.0, 1e-05, 1e-07]])
    assert solver._matrix_game(rows)[0] > solver.FACE_TOL
    model = cd.validate_channel(np.random.default_rng(4308).dirichlet(np.ones(3), size=(6, 2)), [0.5, 0.5],
                                1.0 - np.eye(2))
    point = cd.multi_constraint_point(model, [cd.CostConstraint(row, 0.0) for row in rows])
    assert point.constraint_active
    assert point.optimizer.probs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_phase_one_fault_leaves_the_verdict_to_the_game():
    # Draw 63468 of ``tools/stress.py --seed 2``.  The phase 1 of the budget
    # polytope's program reaches a singular basis on these rows; the game
    # then finds the set feasible, and the unconstrained law meets both
    # budgets, so the point needs no program at all.
    model = cd.validate_channel(
        [[[0.12431182995923547, 0.8756881700407645], [0.13637220294354221, 0.8636277970564578]],
         [[0.41167399909280844, 0.5883260009071917], [0.9274592245857551, 0.07254077541424492]],
         [[0.025602975493413133, 0.9743970245065869], [0.278920202039497, 0.721079797960503]],
         [[0.9885334448622379, 0.01146655513776208], [0.8733719377079544, 0.12662806229204562]]],
        [0.7649218532348223, 0.23507814676517771], 1.0 - np.eye(2))
    rows = np.array([[0.001, 0.0, 0.001, 1e-07], [1e-07, 1.0, 1e-09, 1e-05]])
    budgets = np.array([0.0007, 0.30000000070000005])
    with pytest.raises(cd.NotCertified, match="singular"):
        solver._LinearProgram(rows - budgets[:, None])
    point = cd.multi_constraint_point(model, [cd.CostConstraint(row, b) for row, b in zip(rows, budgets)])
    assert not point.constraint_active
    assert (rows @ point.optimizer.probs <= budgets).all()
    assert point.capacity == cd.capacity_distortion_point(model, math.inf).capacity


def test_frank_wolfe_law_off_the_simplex_is_a_solver_fault(monkeypatch):
    # Frank-Wolfe's program (no extra entries) returns its vertices 1e-6
    # off the simplex; the law rebuilt from them sums to 1 + 1e-6.
    solve = solver._LinearProgram.solve

    def off_simplex(program, objective):
        z, lam = solve(program, objective)
        return (z * (1.0 + 1e-6) if program.n_extra == 0 else z), lam

    monkeypatch.setattr(solver._LinearProgram, "solve", off_simplex)
    constraints = [cd.CostConstraint([1.0, 0.0, 0.0], 0.3), cd.CostConstraint([0.0, 1.0, 0.0], 0.3)]
    with pytest.raises(cd.NotCertified, match="off the simplex"):
        cd.multi_constraint_point(_three_letter_model(), constraints)


def test_warm_linear_program_reads_a_rounded_free_pair_as_rounding():
    # A free entry t+ - t- whose columns are exact negatives, on rows with
    # entries of 1e-7.  Re-optimized from the first objective's degenerate
    # basis, the last objective priced t- at -3.7e-10, below -FACE_TOL but
    # far inside its rounding bound (0.27), and that column reached no row:
    # it was read as an unbounded program.
    rows = np.array([[-1.0, 1.0, 0.0, -0.75, 1e-7, 1e-7],
                     [-1.0, 1.0, 0.0, 0.0, -1e-7, 0.0],
                     [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0]])
    program = solver._LinearProgram(rows, 2)
    for letters in ([0.0, 0.0, 0.0, 0.0],) * 3 + ([0.0, 1.0, 1.0, 1.0],):
        objective = np.r_[0.1, -0.1, letters]
        z, lam = program.solve(objective)
        cold, _ = solver._LinearProgram(rows, 2).solve(objective)
        assert objective @ z == objective @ cold == 0.0
        assert np.all(lam >= 0.0)
        assert abs(float((objective + lam @ rows)[2:].min()) - objective @ z) <= 1e-12


# ---------------------------------------------------------------------------
# exhaustive-search cross-check
# ---------------------------------------------------------------------------


def test_solver_matches_grid_search_on_random_channels():
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        model = _random_constrained_model(rng)
        cost = cd.optimal_estimator(model).cost_vector
        d_lo, d_hi = float(cost.min()), float(cost.max())
        budget = d_lo + float(rng.random()) * (d_hi - d_lo)
        point = cd.capacity_distortion_point(model, budget)
        reference = cd.grid_search_capacity(model, budget, step=1e-3)
        # The grid undershoots by O(step) near the constraint boundary and
        # the solver certifies near-exactness, so the solver may only sit
        # above the grid, never meaningfully below it.
        assert point.capacity >= reference - 1e-6
        assert point.capacity - reference < 5e-3


def test_grid_search_guards():
    # The oracle follows the solver's budget rule, one-letter channels too.
    one_letter = cd.validate_channel([[[1.0, 0.0], [0.0, 1.0]]], [0.6, 0.4], HAMMING)
    with pytest.raises(cd.AlphabetTooLarge):
        cd.grid_search_capacity(cd.block_multiplicative_model(0.5, 2), 0.1)
    for model in (cd.scalar_multiplicative_model(0.4), one_letter):
        with pytest.raises(cd.InfeasibleDistortion) as exc:
            cd.grid_search_capacity(model, -0.5)
        assert exc.value.d_min == 0.0
        with pytest.raises(ValueError, match="NaN"):
            cd.grid_search_capacity(model, math.nan)
    assert cd.grid_search_capacity(one_letter, 0.0) == 0.0
    for step in (0.0, -0.1, 2.0, math.nan):
        with pytest.raises(ValueError, match="step"):
            cd.grid_search_capacity(cd.scalar_multiplicative_model(0.4), 0.1, step=step)


def test_batch_mutual_information_agrees_with_scalar_version():
    rng = np.random.default_rng(7)
    model = _random_constrained_model(rng)
    batch = rng.dirichlet(np.ones(model.input_size), size=40)
    values = cd.batch_mutual_information(model, batch)
    for row, value in zip(batch, values):
        assert abs(value - cd.mutual_information(model, row)) < 1e-12


# ---------------------------------------------------------------------------
# sparse P(y|x): the support path against the dense path
# ---------------------------------------------------------------------------


def _sparse_channel(rng, nx, ns, ny):
    """Letter x reaches only its own max(1, ny // 4) outputs under every
    state, so at least 3/4 of P(y|x) is zero and every row keeps a nonzero."""
    transition = np.zeros((nx, ns, ny))
    for x in range(nx):
        cols = rng.choice(ny, size=max(1, ny // 4), replace=False)
        transition[x][:, cols] = rng.random((ns, cols.size)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    prior = rng.random(ns) + 1e-3
    return cd.validate_channel(transition, prior / prior.sum(), rng.random((ns, ns)))


def _zero_prior_channel(rng, nx, ns, ny):
    """A sparse channel whose last state has prior 0 and sends every letter
    to an output that no state of positive prior reaches from it: those
    entries of the transition are nonzero, and P(y|x) is 0 there."""
    transition = np.zeros((nx, ns, ny))
    for x in range(nx):
        cols = rng.choice(ny, size=max(2, ny // 4), replace=False)
        transition[x, :-1, cols[1:]] = rng.random((cols.size - 1, ns - 1)) + 1e-3
        transition[x, -1, cols[0]] = 1.0
    transition /= transition.sum(axis=2, keepdims=True)
    prior = np.append(rng.random(ns - 1) + 1e-3, 0.0)
    return cd.validate_channel(transition, prior / prior.sum(), rng.random((ns, ns)))


def _tied_sparse_channel(rng, nx, ns, ny):
    """Transitions on a 0.25 grid, mostly zero, a prior of small integers and
    integer distortions make equal posterior risks common."""
    transition = rng.integers(0, 4, size=(nx, ns, ny)) * (rng.random((nx, ns, ny)) < 0.3)
    transition[..., 0] += 1
    prior = rng.integers(1, 4, size=ns).astype(float)
    return cd.validate_channel(transition / transition.sum(axis=2, keepdims=True), prior / prior.sum(),
                               rng.integers(0, 3, size=(ns, ns)).astype(float))


def _sparse_and_dense(monkeypatch, model):
    """The model twice, as fresh instances: one forced onto its support, one
    forced onto the dense path, whatever ``SUPPORT_DENSITY`` picks for it.
    The estimator and row terms derived on the support match the dense
    ones: the table and reachable set exactly, the costs and terms to
    rounding."""
    copies = []
    for density in (1.0, 0.0):
        with monkeypatch.context() as patch:
            patch.setattr(cd.channel, "SUPPORT_DENSITY", density)
            copy = cd.channel.ChannelModel(model.transition, model.state_prior, model.distortion)
            copies.append(copy)
            assert (copy._support is None) == (density == 0.0)
    sparse, dense = copies
    fast, slow = cd.optimal_estimator(sparse), cd.optimal_estimator(dense)
    assert fast.table.dtype == np.int64
    assert np.array_equal(fast.table, slow.table)
    assert np.array_equal(fast.reachable, slow.reachable)
    assert _close(fast.cost_vector, slow.cost_vector)
    assert _close(sparse._row_terms, dense._row_terms)
    return copies


def _close(a, b):
    """Within 1e-13 relative to b's largest magnitude, or to 1 nat where
    that is smaller: a one-letter restriction scores 0 to rounding."""
    return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))


def _support_cases():
    rng = np.random.default_rng(1919)
    models = [_sparse_channel(rng, int(rng.integers(2, 13)), int(rng.integers(1, 4)), int(rng.integers(4, 17)))
              for _ in range(20)]
    models += [cd.block_multiplicative_model(r, k) for r, k in ((0.3, 3), (0.45, 4), (0.2, 5), (0.3, 6), (0.1, 7), (0.4, 8))]
    return rng, models


def test_support_path_matches_dense_path(monkeypatch):
    rng, models = _support_cases()
    for model in models:
        sparse, dense = _sparse_and_dense(monkeypatch, model)
        fast, slow = solver._Objective([(1.0, sparse)]), solver._Objective([(1.0, dense)])
        n = model.input_size
        for _ in range(3):
            p = rng.dirichlet(np.full(n, 0.5))
            assert _close(fast.scores(p), slow.scores(p))
            k = int(rng.integers(1, min(n, 6) + 1))
            atoms = rng.dirichlet(np.full(n, 0.3), size=k)
            atoms[0] = np.eye(1, n, int(rng.integers(n)))[0]  # a one-letter atom
            weights = rng.dirichlet(np.ones(k))
            assert _close(fast.curvature(atoms, weights), slow.curvature(atoms, weights))
            keep = rng.random(n) < 0.6
            keep[int(rng.integers(n))] = True
            q = rng.dirichlet(np.ones(int(keep.sum())))
            assert _close(fast.restrict(keep).scores(q), slow.restrict(keep).scores(q))
            kept_atoms = rng.dirichlet(np.full(int(keep.sum()), 0.3), size=k)
            assert _close(fast.restrict(keep).curvature(kept_atoms, weights),
                          slow.restrict(keep).curvature(kept_atoms, weights))
            laws = rng.dirichlet(np.full(n, 0.5), size=4)
            assert _close(cd.batch_mutual_information(sparse, laws), cd.batch_mutual_information(dense, laws))


def test_support_path_estimator_skips_zero_prior_states_and_breaks_ties_low(monkeypatch):
    rng = np.random.default_rng(2020)
    for _ in range(10):
        nx, ns, ny = int(rng.integers(2, 9)), int(rng.integers(2, 4)), int(rng.integers(4, 13))
        model = _zero_prior_channel(rng, nx, ns, ny)
        sparse, _ = _sparse_and_dense(monkeypatch, model)
        reached = np.any(model.transition > 0, axis=1)
        # The dead state's outputs are in the transition, not in P(y|x).
        assert np.count_nonzero(reached) - np.count_nonzero(sparse._estimator.reachable) == nx
    ties = 0
    for _ in range(40):
        model = _tied_sparse_channel(rng, *(int(n) for n in rng.integers(2, 7, size=3)))
        sparse, _ = _sparse_and_dense(monkeypatch, model)
        risk = np.einsum("xsy,st->xyt", model.transition * model.state_prior[:, None], model.distortion)
        tied = np.sum(risk == risk.min(axis=2, keepdims=True), axis=2) > 1
        ties += int(np.count_nonzero(tied & sparse._estimator.reachable))
        # Ties go to the smallest state index.
        assert np.array_equal(sparse._estimator.table, np.argmin(risk, axis=2))
    assert ties > 0


def test_support_path_matches_dense_path_under_several_budgets(monkeypatch):
    rng, models = _support_cases()
    for model in models[::3]:
        sparse, dense = _sparse_and_dense(monkeypatch, model)
        cost = cd.optimal_estimator(model).cost_vector
        energy = rng.random(model.input_size)
        constraints = [
            cd.CostConstraint(cost, float(cost.min() + 0.5 * (cost.max() - cost.min()))),
            cd.CostConstraint(energy, float(np.median(energy))),
        ]
        fast = cd.multi_constraint_point(sparse, constraints)
        slow = cd.multi_constraint_point(dense, constraints)
        assert abs(fast.capacity - slow.capacity) <= 1e-13 * slow.capacity
        assert fast.constraint_active == slow.constraint_active
        assert fast.convergence_warning is None and slow.convergence_warning is None


def test_dirichlet_random_channel_has_no_support():
    # Dirichlet rows have no zeros, so the random channels of the benchmark's
    # points and outer workloads, like the scalar and mod-2 ones and the
    # small blocks, stay on the dense path; from K = 7 on a block channel
    # has at most 1/64 of P(y|x) nonzero and is scored on its support.
    rng = np.random.default_rng(5)
    transition = rng.dirichlet(np.ones(5), size=(6, 3))
    model = cd.validate_channel(transition, rng.dirichlet(np.ones(3)), 1.0 - np.eye(3))
    assert model._support is None
    for dense in (model, cd.scalar_multiplicative_model(0.3), cd.additive_mod2_model(0.3),
                  cd.block_multiplicative_model(0.3, 6)):
        assert type(solver._Objective([(1.0, dense)]).terms[0][1]) is np.ndarray
    block = cd.block_multiplicative_model(0.3, 7)
    support = solver._Objective([(1.0, block)]).terms[0][1]
    assert isinstance(support, cd.channel._Support)
    rows, cols, values = support.rows, support.cols, support.values
    pyx = block.output_given_input
    assert rows.size == support.size == 2**8 - 1 and np.array_equal(values, pyx[pyx > 0])
    assert np.array_equal(pyx[rows, cols], values)


def _reference_scores(weighted_models, p):
    """The objective's scores summed from zeros, term by term, in the
    textbook form sum_i w_i (row terms - P_i(y|x) @ log max(P_i(y), 1e-300))."""
    total = np.zeros(p.size)
    for weight, model in weighted_models:
        if weight > 0.0:
            pyx = model._pyx
            total += weight * (model._row_terms - pyx @ np.log(np.maximum(p @ pyx, 1e-300)))
    return total


def test_scores_match_a_sum_from_zeros_bit_for_bit(monkeypatch):
    # Scores start their sum at the first term and skip a unit weight's
    # multiply; the doubles must be those of the sum from zeros, on dense
    # models and on a support, for one to three models.
    rng = np.random.default_rng(3232)
    transition = rng.dirichlet(np.ones(4), size=(5, 3))
    dense = [cd.validate_channel(transition, rng.dirichlet(np.ones(3)), 1.0 - np.eye(3)) for _ in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(cd.channel, "SUPPORT_DENSITY", 1.0)
        blocks = [cd.channel.ChannelModel(m.transition, m.state_prior, m.distortion)
                  for m in (cd.block_multiplicative_model(r, 5) for r in (0.3, 0.45, 0.2))]
        for block in blocks:
            assert isinstance(block._pyx, cd.channel._Support)
    for models in (dense, blocks):
        n = models[0].input_size
        laws = [rng.dirichlet(np.full(n, 0.5)), np.eye(1, n, n - 1)[0]]
        sparse = rng.dirichlet(np.ones(n))
        sparse[::2] = 0.0  # letters with zero mass
        laws.append(sparse / sparse.sum())
        for weights in ([1.0], [0.37], [1.0, 1.0], [0.25, 0.75], [1.0, 0.0, 0.4], [0.2, 0.5, 0.3]):
            weighted = list(zip(weights, models))
            objective = solver._Objective(weighted)
            row_terms = [m._row_terms.copy() for m in models]
            for p in laws:
                got = objective.scores(p)
                assert np.array_equal(got, _reference_scores(weighted, p))
                assert got.flags.writeable and got.flags.owndata
                again = objective.scores(p)
                assert again is not got and not np.shares_memory(again, got)
                got[:] = np.nan
                assert np.array_equal(objective.scores(p), again)
            for model, before in zip(models, row_terms):
                assert np.array_equal(model._row_terms, before) and not model._row_terms.flags.writeable


def test_support_solve_never_builds_dense_output_given_input():
    # On a fresh K = 10 block the first point finds the support from the
    # transition and derives the estimator's cost vector and the row terms
    # on it, and so does the mutual information of its law; the estimator's
    # table and reachable mask are left unbuilt.  The point's peak is the
    # boolean mask that finds the support, 0.26 times P(y|x), against 1.15
    # times with the table and mask and 3.25 times when P(y|x) was built to
    # find the support.
    import tracemalloc

    model = cd.block_multiplicative_model(0.3, 10)
    pyx_bytes = model.input_size * model.output_size * 8
    tracemalloc.start()
    try:
        point = cd.capacity_distortion_point(model, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model._support is not None
    assert "output_given_input" not in model.__dict__
    assert abs(cd.mutual_information(model, point.optimizer) - point.capacity) <= 1e-9
    assert "output_given_input" not in model.__dict__
    policy = cd.optimal_estimator(model)
    assert "table" not in vars(policy) and "reachable" not in vars(policy)
    assert peak <= 0.5 * pyx_bytes


def test_d_min_point_on_a_support_copies_no_dense_rows():
    # At d_min the objective is restricted to the cheapest letters; on a
    # support that keeps the support's entries on the kept rows, 0.02 times
    # P(y|x), where copying P(y|x)'s kept rows took 1.02 times.
    import tracemalloc

    model = cd.block_multiplicative_model(0.3, 10)
    cd.capacity_distortion_point(model, 0.1)  # warm: support, estimator, row terms
    pyx_bytes = model.input_size * model.output_size * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        point = cd.capacity_distortion_point(model, 0.0)
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert point.constraint_active and point.optimizer.probs[0] == 0.0
    assert extra <= 0.1 * pyx_bytes
