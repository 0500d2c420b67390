"""Core model container, validation, estimator, and information measures."""

from __future__ import annotations

import copy
import math
import mmap
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capdist as cd

HAMMING2 = [[0.0, 1.0], [1.0, 0.0]]
SRC = Path(__file__).resolve().parents[1] / "src"


def _random_channel(rng, nx, ns, ny):
    transition = rng.random((nx, ns, ny)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    prior = rng.random(ns) + 1e-3
    prior /= prior.sum()
    distortion = rng.random((ns, ns))
    return cd.validate_channel(transition, prior, distortion)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_channel_accepts_and_freezes():
    model = cd.scalar_multiplicative_model(0.4)
    assert model.input_size == 2
    assert model.state_size == 2
    assert model.output_size == 2
    assert not model.transition.flags.writeable
    assert not model.state_prior.flags.writeable
    rows = model.transition.sum(axis=2)
    assert np.allclose(rows, 1.0, atol=1e-12)


def test_validate_channel_renormalizes_slightly_off_rows():
    t = np.array([[[0.5, 0.5 + 4e-10], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    model = cd.validate_channel(t, [0.6, 0.4], HAMMING2)
    assert np.allclose(model.transition.sum(axis=2), 1.0, atol=1e-15)


def test_validate_channel_stores_every_zero_as_plus_zero():
    # -0.0 passes the nonnegativity check, and the renormalizing division
    # would keep its sign bit.
    transition = np.array([[[1.0, -0.0], [-0.0, 1.0]], [[-0.0, 1.0], [1.0, -0.0]]])
    model = cd.validate_channel(transition, [0.6, 0.4], HAMMING2)
    assert model.transition.tobytes() == np.abs(transition).tobytes()
    # A raw ChannelModel keeps its -0.0; its K = 6 block scatters the
    # products of the factors' nonzeros and leaves +0.0 at every other cell.
    raw = cd.channel.ChannelModel(transition, [0.6, 0.4], np.array(HAMMING2))
    assert np.any(np.signbit(raw.transition))
    block = cd.block_to_super_symbol(raw, 6)
    assert not np.any(np.signbit(block.transition))
    assert block.transition.tobytes() == cd.block_to_super_symbol(model, 6).transition.tobytes()


def test_validate_channel_rejects_bad_rows():
    t = np.array([[[0.7, 0.7], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(cd.NotAProbability):
        cd.validate_channel(t, [0.6, 0.4], HAMMING2)
    with pytest.raises(cd.NotAProbability):
        cd.validate_channel(np.abs(t) * 0 + 0.5, [0.6, 0.5], HAMMING2)
    neg = np.array([[[1.2, -0.2], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(cd.NotAProbability):
        cd.validate_channel(neg, [0.6, 0.4], HAMMING2)


def test_validate_channel_rejects_declared_size_mismatch():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.DimensionMismatch):
        cd.validate_channel(model.transition, model.state_prior, model.distortion, input_size=3)
    with pytest.raises(cd.DimensionMismatch):
        cd.validate_channel(model.transition, [0.5, 0.3, 0.2], model.distortion)
    with pytest.raises(cd.DimensionMismatch):
        cd.validate_channel(model.transition, model.state_prior, [[0.0]])


def test_validate_channel_rejects_bad_distortion():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.NegativeDistortion):
        cd.validate_channel(model.transition, model.state_prior, [[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(cd.NegativeDistortion):
        cd.validate_channel(model.transition, model.state_prior, [[0.0, math.inf], [1.0, 0.0]])


def test_constructors_copy_the_callers_distortion_and_costs():
    # The models and the constraint freeze their arrays; the caller's stay
    # writable, and writing to them leaves the frozen copies as they were.
    model = cd.scalar_multiplicative_model(0.4)
    distortion = np.array([[0.0, 1.0], [1.0, 0.0]])
    cost = np.array([0.4, 0.0])
    validated = cd.validate_channel(model.transition, model.state_prior, distortion)
    family = cd.CompoundFamily(model.transition, (model.state_prior,), distortion)
    constraint = cd.CostConstraint(cost, 0.1)
    assert distortion.flags.writeable and cost.flags.writeable
    distortion[0, 1] = 7.0
    cost[0] = 7.0
    for frozen in (validated.distortion, family.distortion, family.models[0].distortion):
        assert not frozen.flags.writeable
        assert frozen[0, 1] == 1.0
    assert not constraint.cost_vector.flags.writeable
    assert constraint.cost_vector[0] == 0.4


def test_input_distribution_validates():
    px = cd.InputDistribution([0.25, 0.75])
    assert np.allclose(px.probs, [0.25, 0.75])
    with pytest.raises(cd.NotAProbability):
        cd.InputDistribution([0.5, 0.6])
    with pytest.raises(cd.NotAProbability):
        cd.InputDistribution([-0.1, 1.1])


def test_malformed_inputs_raise_their_documented_errors():
    model = cd.scalar_multiplicative_model(0.4)
    with pytest.raises(cd.DimensionMismatch, match="must be a vector"):
        cd.InputDistribution([[0.5, 0.5]])
    nan = np.array(model.transition)
    nan[0, 0, 0] = math.nan
    with pytest.raises(cd.NotAProbability, match="non-finite entry"):
        cd.validate_channel(nan, model.state_prior, HAMMING2)
    with pytest.raises(cd.DimensionMismatch, match="rank-3"):
        cd.validate_channel(model.transition[0], model.state_prior, HAMMING2)
    with pytest.raises(cd.DimensionMismatch, match="length 3, expected 2"):
        cd.mutual_information(model, [0.2, 0.3, 0.5])
    with pytest.raises(cd.DimensionMismatch, match="outside alphabet"):
        cd.output_marginal(model, 2)
    with pytest.raises(cd.DimensionMismatch, match="outside alphabet"):
        cd.output_marginal(model, -1)
    with pytest.raises(cd.DimensionMismatch, match="outside alphabet"):
        cd.state_posterior(model, 2, 0)
    with pytest.raises(cd.DimensionMismatch, match="outside alphabet"):
        cd.state_posterior(model, 0, 2)
    with pytest.raises(cd.DimensionMismatch, match="block_len"):
        cd.block_to_super_symbol(model, 0)
    # A size is an integer: an integral float or a bool is not one.
    for block_len in (2.0, 1.5, True):
        with pytest.raises(cd.DimensionMismatch, match="block_len must be an integer"):
            cd.block_to_super_symbol(model, block_len)
    # A cost is a vector: a scalar or a one-row matrix names its shape.
    with pytest.raises(cd.DimensionMismatch, match=r"must be a vector, got shape \(\)"):
        cd.multi_constraint_point(model, [cd.CostConstraint(0.5, 1.0)])
    with pytest.raises(cd.DimensionMismatch, match=r"must be a vector, got shape \(1, 2\)"):
        cd.multi_constraint_point(model, [cd.CostConstraint([[0.4, 0.0]], 1.0)])


def test_input_distribution_has_the_length_of_its_alphabet():
    assert len(cd.InputDistribution([0.25, 0.75])) == 2
    point = cd.capacity_distortion_point(cd.block_multiplicative_model(0.3, 3), 0.1)
    assert len(point.optimizer) == 8


# ---------------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------------


def test_optimal_estimator_scalar_family():
    # Silent input: the best guess is the prior mode, costing the minority mass.
    model = cd.scalar_multiplicative_model(0.4)
    policy = cd.optimal_estimator(model)
    assert policy.table[0, 0] == 0          # y=0 after x=0: guess the majority state
    assert policy.table[1, 0] == 0          # y=0 after x=1 reveals s=0
    assert policy.table[1, 1] == 1          # y=1 after x=1 reveals s=1
    assert policy.cost_vector[0] == pytest.approx(0.4, abs=1e-15)
    assert policy.cost_vector[1] == pytest.approx(0.0, abs=1e-15)
    assert not policy.reachable[0, 1]       # y=1 impossible after x=0
    assert policy.reachable[0, 0]


def test_optimal_estimator_tie_breaks_to_smallest_state():
    # r = 0.5 makes both states equally likely after the silent input.
    model = cd.scalar_multiplicative_model(0.5)
    policy = cd.optimal_estimator(model)
    assert policy.table[0, 0] == 0


def test_optimal_estimator_beats_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nx, ns, ny = rng.integers(2, 4, size=3)
        model = _random_channel(rng, nx, ns, ny)
        policy = cd.optimal_estimator(model)
        weight = model.transition * model.state_prior[None, :, None]
        for _ in range(8):
            table = rng.integers(0, ns, size=(nx, ny))
            cost = np.zeros(nx)
            for x in range(nx):
                for y in range(ny):
                    cost[x] += weight[x, :, y] @ model.distortion[:, table[x, y]]
            assert np.all(policy.cost_vector <= cost + 1e-12)


def _einsum_risk(model):
    """Dense reference: the full (|X|, |Y|, |S|) posterior-risk tensor."""
    weight = model.transition * model.state_prior[None, :, None]
    return np.einsum("xsy,st->xyt", weight, model.distortion)


def _tied_channel(rng):
    # Transitions on a 0.25 grid, a prior of small integers and integer
    # distortions make equal posterior risks common, so ties are exercised.
    nx, ns, ny = rng.integers(1, 6, size=3)
    transition = rng.integers(0, 4, size=(nx, ns, ny)).astype(float)
    transition[..., 0] += 1.0
    transition /= transition.sum(axis=2, keepdims=True)
    prior = rng.integers(1, 4, size=ns).astype(float)
    distortion = rng.integers(0, 3, size=(ns, ns)).astype(float)
    return cd.validate_channel(transition, prior / prior.sum(), distortion)


def test_optimal_estimator_matches_einsum_reference():
    rng = np.random.default_rng(19)
    models = [cd.scalar_multiplicative_model(r) for r in (0.3, 0.5)]
    models += [cd.additive_mod2_model(0.3), cd.block_multiplicative_model(0.5, 3)]
    models += [_random_channel(rng, *rng.integers(1, 6, size=3)) for _ in range(40)]
    models += [_tied_channel(rng) for _ in range(40)]
    # Rows spanning several row blocks, and rows longer than a block (one
    # row per block).
    models += [_random_channel(rng, 300, 2, 1_000), _random_channel(rng, 3, 2, 2**17 + 3)]
    ties = 0
    for model in models:
        policy = cd.optimal_estimator(model)
        risk = _einsum_risk(model)
        assert policy.table.dtype == np.int64
        assert np.array_equal(policy.table, np.argmin(risk, axis=2))
        assert np.array_equal(policy.cost_vector, risk.min(axis=2).sum(axis=1))
        assert np.array_equal(policy.reachable, model.output_given_input > 0.0)
        ties += int(np.sum(np.sum(risk == risk.min(axis=2, keepdims=True), axis=2) > 1))
    assert ties > 0


def test_optimal_estimator_is_computed_once_per_model():
    model = cd.block_multiplicative_model(0.3, 2)
    policy = cd.optimal_estimator(model)
    assert cd.optimal_estimator(model) is policy
    assert not policy.table.flags.writeable
    assert not policy.cost_vector.flags.writeable
    fresh = cd.block_multiplicative_model(0.3, 2)
    assert cd.optimal_estimator(fresh) is not policy


def test_channel_row_terms_are_computed_once_per_model():
    from scipy.special import xlogy

    from capdist import solver

    model = cd.block_multiplicative_model(0.3, 2)
    terms = solver._Objective([(1.0, model)]).terms[0][2]
    assert solver._Objective([(1.0, model)]).terms[0][2] is terms
    assert not terms.flags.writeable
    pyx = model.output_given_input
    assert np.array_equal(terms, xlogy(pyx, pyx).sum(axis=1))
    fresh = cd.block_multiplicative_model(0.3, 2)
    assert solver._Objective([(1.0, fresh)]).terms[0][2] is not terms


def test_estimator_cost_zero_when_output_reveals_state():
    model = cd.additive_mod2_model(0.3)
    policy = cd.optimal_estimator(model)
    assert np.allclose(policy.cost_vector, 0.0, atol=1e-15)


def test_average_cost_matches_direct_sum():
    model = cd.scalar_multiplicative_model(0.3)
    policy = cd.optimal_estimator(model)
    px = cd.InputDistribution([0.2, 0.8])
    assert cd.average_cost(px, policy) == pytest.approx(0.2 * 0.3, abs=1e-15)


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------


def test_mutual_information_known_value():
    # Frozen scratch value: I at the D=0.1 optimizer of the r=0.4 channel.
    model = cd.scalar_multiplicative_model(0.4)
    mi = cd.mutual_information(model, cd.InputDistribution([0.25, 0.75]))
    assert mi == pytest.approx(0.10610555179795111, abs=1e-12)


def test_mutual_information_bounds_and_degenerate_cases():
    rng = np.random.default_rng(11)
    for _ in range(40):
        nx, ns, ny = rng.integers(2, 4, size=3)
        model = _random_channel(rng, nx, ns, ny)
        p = rng.random(nx) + 1e-6
        p /= p.sum()
        mi = cd.mutual_information(model, cd.InputDistribution(p))
        assert 0.0 <= mi <= math.log(min(nx, ny)) + 1e-12
    # Point mass carries no information.
    model = cd.scalar_multiplicative_model(0.4)
    assert cd.mutual_information(model, cd.InputDistribution([1.0, 0.0])) == 0.0


def test_output_marginal_and_state_posterior():
    model = cd.scalar_multiplicative_model(0.4)
    py = cd.output_marginal(model, cd.InputDistribution([0.5, 0.5]))
    assert py == pytest.approx([0.8, 0.2], abs=1e-15)
    post = cd.state_posterior(model, 1, 1)  # x=1, y=1 forces s=1
    assert post == pytest.approx([0.0, 1.0], abs=1e-15)
    post0 = cd.state_posterior(model, 0, 0)  # silent input: posterior = prior
    assert post0 == pytest.approx([0.6, 0.4], abs=1e-15)
    with pytest.raises(cd.ZeroProbabilityConditioning):
        cd.state_posterior(model, 0, 1)


def test_support_channel_marginals_and_reachable_build_no_dense_pyx():
    # A K = 11 block is read on its support: a letter's row, a law's output
    # marginal, the reachable mask and the rate per unit cost equal those of
    # a copy held dense, and none of them builds P(y|x) (32 MiB).
    model = cd.block_multiplicative_model(0.3, 11)
    dense = cd.channel.ChannelModel(model.transition, model.state_prior, model.distortion)
    vars(dense)["_support"] = None
    law = np.random.default_rng(11).dirichlet(np.ones(model.input_size))
    for x in (0, 1, 1234, model.input_size - 1):
        row = cd.output_marginal(model, x)
        assert row.tobytes() == cd.output_marginal(dense, x).tobytes() == dense.output_given_input[x].tobytes()
    assert np.max(np.abs(cd.output_marginal(model, law) - cd.output_marginal(dense, law))) <= 1e-15
    reachable = cd.optimal_estimator(model).reachable
    assert reachable.tobytes() == cd.optimal_estimator(dense).reachable.tobytes()
    assert vars(cd.cpud_ratio_formula(model)) == vars(cd.cpud_ratio_formula(dense))
    assert model._support is not None and "output_given_input" not in vars(model)


# ---------------------------------------------------------------------------
# block builder
# ---------------------------------------------------------------------------


def test_block_builder_shapes_and_normalization():
    for K in (1, 2, 3):
        model = cd.block_multiplicative_model(0.3, K)
        assert model.input_size == 2**K
        assert model.output_size == 2**K
        assert model.state_size == 2
        assert np.allclose(model.transition.sum(axis=2), 1.0, atol=1e-12)


def test_block_builder_shares_one_state_across_positions():
    model = cd.block_multiplicative_model(0.3, 2)
    # Input block (1,1) is index 3 (big-endian); y must equal (s,s).
    assert model.transition[3, 0, 0] == pytest.approx(1.0)   # s=0 -> y=(0,0)
    assert model.transition[3, 1, 3] == pytest.approx(1.0)   # s=1 -> y=(1,1)
    # Mixed block (0,1) is index 1; s=1 gives y=(0,1), index 1.
    assert model.transition[1, 1, 1] == pytest.approx(1.0)
    # Every nonzero block reveals the state, so only the silent block costs.
    policy = cd.optimal_estimator(model)
    assert policy.cost_vector[0] == pytest.approx(0.3, abs=1e-15)
    assert np.allclose(policy.cost_vector[1:], 0.0, atol=1e-15)


def test_block_builder_matches_kron_of_rows():
    rng = np.random.default_rng(3)
    base = cd.scalar_multiplicative_model(0.25)
    model = cd.block_to_super_symbol(base, 2)
    for x in range(4):
        x1, x2 = divmod(x, 2)
        for s in range(2):
            expect = np.kron(base.transition[x1, s], base.transition[x2, s])
            assert np.allclose(model.transition[x, s], expect, atol=1e-15)
    del rng


def _stacked_block(model, block_len):
    """The block channel as a plain stack of each state's ``np.kron`` power,
    neither validated nor renormalized."""
    stacked = []
    for s in range(model.state_size):
        mat = model.transition[:, s, :]
        power = mat
        for _ in range(block_len - 1):
            power = np.kron(power, mat)
        stacked.append(power)
    return cd.ChannelModel(np.stack(stacked, axis=1), model.state_prior, model.distortion)


def test_block_builder_is_bit_identical_to_the_stacked_construction():
    rng = np.random.default_rng(11)
    bases = [
        cd.scalar_multiplicative_model(0.3),
        _random_channel(rng, 2, 3, 2),
        _random_channel(rng, 3, 2, 2),
        _sparse_channel(rng, 3, 2, 4, [0.4, 0.6]),
    ]
    for base in bases:
        for K in range(1, 9):
            if base.input_size**K * base.state_size * base.output_size**K > 2**21:
                continue
            built, stacked = cd.block_to_super_symbol(base, K), _stacked_block(base, K)
            assert np.array_equal(built.transition, stacked.transition), K
            assert np.array_equal(built.state_prior, stacked.state_prior)
            assert np.array_equal(built.distortion, stacked.distortion)
            assert not built.transition.flags.writeable


def test_block_rows_of_validated_random_bases_sum_to_one():
    # The rows are products of validated rows, not renormalized: each sums
    # to 1 within 4 K eps (K eps at most, as measured).
    rng = np.random.default_rng(27)
    eps = np.finfo(np.float64).eps
    for _ in range(6):
        nx, ns, ny = rng.integers(2, 4), rng.integers(2, 4), rng.integers(2, 4)
        prior = rng.dirichlet(np.ones(ns))
        dirichlet = cd.validate_channel(rng.dirichlet(np.ones(ny), size=(nx, ns)), prior, rng.random((ns, ns)))
        for base in (dirichlet, _sparse_channel(rng, nx, ns, ny, prior)):
            for K in range(1, 9):
                if ns * (nx * ny) ** K > 2**21:
                    break
                sums = cd.block_to_super_symbol(base, K).transition.sum(axis=2)
                assert np.max(np.abs(sums - 1.0)) <= 4 * K * eps, K
    # numpy's multinomial rejects rows whose pvals[:-1] sum above 1 + 1e-12.
    base = cd.validate_channel(rng.dirichlet(np.ones(2), size=(2, 2)), [0.3, 0.7], HAMMING2)
    block = cd.block_to_super_symbol(base, 6)
    report = cd.simulate(block, np.full(64, 1 / 64), 10_000, 5)
    assert report.samples == 10_000


def _sparse_channel(rng, nx, ns, ny, prior):
    """Rows with about 85 % zeros, each keeping at least one nonzero."""
    transition = rng.random((nx, ns, ny)) * (rng.random((nx, ns, ny)) < 0.15)
    transition[np.arange(nx), :, rng.integers(ny, size=nx)] += 0.5
    return cd.validate_channel(transition / transition.sum(axis=2, keepdims=True), prior, rng.random((ns, ns)))


def _assert_support_is_the_scans(built):
    """The support ``block_to_super_symbol`` leaves on the block, or the one
    found on first use, is the one a scan of a fresh copy's tensor finds,
    bit for bit."""
    given = built._support
    scanned = cd.channel.ChannelModel(built.transition, built.state_prior, built.distortion)._support
    if scanned is None:
        assert given is None
        return
    assert given.shape == scanned.shape
    for field in ("rows", "cols", "values"):
        assert getattr(given, field).tobytes() == getattr(scanned, field).tobytes(), field


def test_block_support_from_the_factors_is_the_scans():
    rng = np.random.default_rng(24)
    from_factors = 0
    for _ in range(30):
        nx, ns, ny = rng.integers(2, 5), rng.integers(2, 4), rng.integers(2, 5)
        base = _sparse_channel(rng, nx, ns, ny, rng.dirichlet(np.ones(ns)))
        for K in range(1, 9):
            if ns * (nx * ny) ** K > 2**21:
                break
            built = cd.block_to_super_symbol(base, K)
            from_factors += "_support" in vars(built)
            _assert_support_is_the_scans(built)
    assert from_factors >= 10

    # A state of zero prior whose factor is dense adds no candidate: the
    # block still arrives with the support of the other two states.
    transition = np.zeros((3, 3, 4))
    transition[0, 0, :2] = [0.3, 0.7]
    transition[[1, 2], 0, [1, 3]] = transition[[0, 1, 2], 1, [2, 2, 0]] = 1.0
    transition[:, 2, :] = rng.dirichlet(np.ones(4), size=3)
    base = cd.validate_channel(transition, [0.5, 0.5, 0.0], rng.random((3, 3)))
    built = cd.block_to_super_symbol(base, 5)
    assert "_support" in vars(built)
    _assert_support_is_the_scans(built)

    # 1e-200 squared underflows: one of the K = 2 block's 13 candidates is
    # zero, so it is not on the support, nor in the scan's.
    transition = np.zeros((2, 2, 16))
    transition[0, 0, :2] = [1.0, 1e-200]
    transition[1, 0, 5] = transition[0, 1, 2] = transition[1, 1, 3] = 1.0
    base = cd.validate_channel(transition, [0.6, 0.4], HAMMING2)
    built = cd.block_to_super_symbol(base, 2)
    assert "_support" in vars(built)
    assert built.transition[1, 0, 17] == 0.0 and built._support.size == 12
    _assert_support_is_the_scans(built)

    # Four deterministic states put 126 nonzeros in the K = 5 block's 7,776
    # cells, just over SUPPORT_DENSITY's 121.5: the block arrives without a
    # support, and the scan finds none either.
    outputs = [(0, 0), (1, 1), (2, 2), (0, 1)]
    transition = np.zeros((2, 4, 3))
    for s, ys in enumerate(outputs):
        transition[[0, 1], s, ys] = 1.0
    base = cd.validate_channel(transition, [0.25] * 4, np.ones((4, 4)) - np.eye(4))
    built = cd.block_to_super_symbol(base, 5)
    assert "_support" not in vars(built)
    assert np.count_nonzero(built.output_given_input) == 126 > cd.channel.SUPPORT_DENSITY * 7776
    _assert_support_is_the_scans(built)


def _kron_block(model, block_len):
    """The block channel by definition, apart from the builder: each state's
    slice is the Kronecker power of P(. | ., s), chained left to right by
    ``np.kron`` from a 1 x 1 one, the products the builder's strided fill
    and scatter take."""
    nx, ns, ny = model.transition.shape
    transition = np.empty((nx**block_len, ns, ny**block_len))
    for s in range(ns):
        power = np.ones((1, 1))
        for _ in range(block_len):
            power = np.kron(power, model.transition[:, s, :])
        transition[:, s, :] = power
    return cd.channel.ChannelModel(transition, model.state_prior, model.distortion)


def test_block_tensor_from_factor_products_is_the_strided_fill():
    rng = np.random.default_rng(28)
    bases = []
    for _ in range(12):
        nx, ns, ny = rng.integers(2, 5), rng.integers(2, 4), rng.integers(2, 5)
        prior = rng.dirichlet(np.ones(ns))
        bases.append(_sparse_channel(rng, nx, ns, ny, prior))
        bases.append(_random_channel(rng, nx, ns, ny))
        # One sparse state next to one dense state, then with the sparse one
        # at zero prior: the dense state's slice is strided, the sparse one's
        # scattered, and the zero-prior state adds no support candidate.
        sparse = _sparse_channel(rng, nx, 2, ny, [0.5, 0.5]).transition
        mixed = np.stack([sparse[:, 0], rng.dirichlet(np.ones(ny), size=nx)], axis=1)
        bases.append(cd.validate_channel(mixed, rng.dirichlet(np.ones(2)), rng.random((2, 2))))
        bases.append(cd.validate_channel(mixed[:, ::-1], [0.0, 1.0], rng.random((2, 2))))
    # 1e-200 squared underflows to 0 in the K = 2 block.
    transition = np.zeros((2, 2, 16))
    transition[0, 0, :2] = [1.0, 1e-200]
    transition[1, 0, 5] = transition[0, 1, 2] = transition[1, 1, 3] = 1.0
    bases.append(cd.validate_channel(transition, [0.6, 0.4], HAMMING2))
    # Zeros written as -0.0 pass validation, which stores them as +0.0.
    signed = np.where(bases[0].transition == 0, -0.0, bases[0].transition)
    bases.append(cd.validate_channel(signed, bases[0].state_prior, bases[0].distortion))
    cases = [(base, K) for base in bases for K in range(1, 9)
             if base.state_size * (base.input_size * base.output_size) ** K <= 2**21]
    cases += [(family(0.3), K) for family in (cd.scalar_multiplicative_model, cd.additive_mod2_model)
              for K in (9, 10, 11)]
    scattered = 0
    for base, K in cases:
        built, reference = cd.block_to_super_symbol(base, K), _kron_block(base, K)
        assert built.transition.tobytes() == reference.transition.tobytes(), K
        _assert_support_is_the_scans(built)
        cost, reference_cost = cd.optimal_estimator(built).cost_vector, cd.optimal_estimator(reference).cost_vector
        assert cost.tobytes() == reference_cost.tobytes(), K
        scattered += any(np.count_nonzero(base.transition[:, s]) ** K
                         <= cd.channel.SUPPORT_DENSITY * (base.input_size * base.output_size) ** K
                         for s in range(base.state_size))
    assert scattered >= 30


def test_block_builder_peak_memory_is_within_twice_the_tensor():
    import tracemalloc

    base = cd.scalar_multiplicative_model(0.3)
    tracemalloc.start()
    try:
        model = cd.block_to_super_symbol(base, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * model.transition.nbytes


def test_sparse_block_build_peak_memory_is_under_1mib():
    # Each state of the K = 11 multiplicative block scatters the 2**11
    # products of its factor's 2 nonzeros: the index and value arrays, and
    # the support gathered from them, are O(2**K), not a level of the power.
    # The 64 MiB tensor lies on an anonymous mapping (``_MAPPED_PAGE_SHARE``),
    # which tracemalloc does not see, so the peak is those arrays alone
    # (about 0.4 MiB); ``test_sparse_block_build_commits_only_its_written_pages``
    # bounds the tensor's resident pages.  A K = 7 build first takes the
    # one-time imports (np.unique's of numpy.ma, about 1 MiB) out of the count.
    import tracemalloc

    cd.block_multiplicative_model(0.3, 7)
    tracemalloc.start()
    try:
        model = cd.block_multiplicative_model(0.3, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "_support" in vars(model)
    assert peak <= 2**20


# One build in a fresh interpreter: its growth of the peak resident set, in
# bytes, after a K = 7 build has taken the imports.
_BUILD_RSS_GROWTH = """
import resource, sys
import capdist as cd
cd.block_multiplicative_model(0.3, 7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
model = cd.block_multiplicative_model(0.3, int(sys.argv[1]))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("block_len", [11, 12])
def test_sparse_block_build_commits_only_its_written_pages(block_len):
    # The scalar family's two states write 2**K cells each, so at most
    # 2**(K+1) pages: a quarter of the K = 11 tensor's 64 MiB and an eighth
    # of the K = 12 tensor's 256 MiB.  ``np.zeros`` on huge pages makes the
    # whole tensor resident (63 and 255 MB).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _BUILD_RSS_GROWTH, str(block_len)],
                         env=env, capture_output=True, text=True, check=True)
    assert int(run.stdout) <= 2 * 2 ** (block_len + 1) * mmap.PAGESIZE


def _mapped(array) -> bool:
    """Whether the array's memory is an ``mmap`` (np.frombuffer keeps a memoryview of it)."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


def test_mapped_block_tensor_is_the_strided_fill_read_only_and_copies_bit_for_bit():
    for family in (cd.scalar_multiplicative_model, cd.additive_mod2_model):
        base = family(0.3)
        # K = 10 writes half its pages, and keeps np.zeros with its heap reuse.
        assert not _mapped(cd.block_to_super_symbol(base, 10).transition)
        built = cd.block_to_super_symbol(base, 11)
        assert _mapped(built.transition) == hasattr(mmap, "MAP_PRIVATE")
        data = built.transition.tobytes()
        assert data == _kron_block(base, 11).transition.tobytes()
        assert not built.transition.flags.writeable
        with pytest.raises(ValueError):
            built.transition[0, 0, 0] = 1.0
        assert copy.deepcopy(built).transition.tobytes() == data
        assert pickle.loads(pickle.dumps(built)).transition.tobytes() == data


def test_estimator_and_row_terms_peak_memory_at_k10():
    # A K = 10 block has 2**11 - 1 nonzeros in P(y|x), so it takes the
    # support path.  The block arrives with its support, taken from the
    # Kronecker factors; a plain ChannelModel of the same tensor finds it by
    # a scan, whose boolean mask is then the estimator's peak, 0.26 times
    # P(y|x) (1.14 when the estimator also built its table and reachable
    # mask).  The row terms' peak is 0.005 times.  The dense path is bounded
    # by the test below.
    import tracemalloc

    block = cd.block_to_super_symbol(cd.scalar_multiplicative_model(0.3), 10)
    assert "_support" in vars(block)
    model = cd.channel.ChannelModel(block.transition, block.state_prior, block.distortion)
    tracemalloc.start()
    try:
        cd.optimal_estimator(model)
        estimator_peak = tracemalloc.get_traced_memory()[1]
        pyx_bytes = model.output_given_input.nbytes
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model._row_terms
        row_terms_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert model._support is not None
    assert estimator_peak <= 0.5 * pyx_bytes
    assert row_terms_peak <= 0.1 * pyx_bytes


def test_dense_estimator_peak_memory_at_scale():
    # Dirichlet rows have no zeros, so a 1024 x 2 x 1024 channel takes the
    # dense path: its risks come a block of about 2**15 at a time and only
    # the cost vector is kept.  The peak is the support search's boolean
    # mask, 0.26 times P(y|x), against 2.22 times when the estimator filled
    # an int64 table and built P(y|x) for the reachable mask.
    import tracemalloc

    rng = np.random.default_rng(1024)
    model = cd.validate_channel(rng.dirichlet(np.ones(1024), size=(1024, 2)), [0.4, 0.6], HAMMING2)
    pyx_bytes = model.input_size * model.output_size * 8
    tracemalloc.start()
    try:
        policy = cd.optimal_estimator(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model._support is None
    assert "output_given_input" not in vars(model)
    assert "table" not in vars(policy) and "reachable" not in vars(policy)
    assert peak <= 0.5 * pyx_bytes


def test_block_builder_overflow_guard(monkeypatch):
    base = cd.scalar_multiplicative_model(0.3)
    # A long block is refused without building its exact count, whose
    # decimal form would pass Python's 4,300-digit conversion limit.
    with pytest.raises(cd.AlphabetOverflow, match="at least"):
        cd.block_to_super_symbol(base, 10_000)
    # The dense tensor |X|^K |S| |Y|^K is capped: 8 * 2 * 8 = 128 at K = 3.
    monkeypatch.setattr(cd.channel, "DENSE_ENTRY_CAP", 127)
    with pytest.raises(cd.AlphabetOverflow, match="128 entries"):
        cd.block_to_super_symbol(base, 3)
    monkeypatch.setattr(cd.channel, "DENSE_ENTRY_CAP", 128)
    assert cd.block_to_super_symbol(base, 3).transition.size == 128
