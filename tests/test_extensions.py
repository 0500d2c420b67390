"""Rate per unit estimation cost and worst-case-prior solves."""

from __future__ import annotations

import math

import pytest

import capdist as cd

HAMMING2 = [[0.0, 1.0], [1.0, 0.0]]

# Frozen values: the max-min value at budget 0.05 for the two-prior family
# below was computed by exhaustive feasibility-filtered grid search over
# input laws (100001-point simplex grid) and pinned; the per-unit-cost slope
# is the exact closed form -log(1-r)/r.
COMPOUND_VALUE_AT_005 = 0.0411493655929831
R04_CAP_AT_01 = 0.10610555179795111


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


def test_compound_single_prior_delegates_to_plain_solver():
    family = cd.CompoundFamily(
        transition=cd.scalar_multiplicative_model(0.4).transition,
        priors=([0.6, 0.4],),
        distortion=HAMMING2,
    )
    result = cd.compound_cd(family, 0.1)
    assert result.certified
    assert result.gap == 0.0
    assert abs(result.value - R04_CAP_AT_01) < 1e-9


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
