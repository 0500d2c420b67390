"""Closed-form reference expressions and their agreement with the solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

import capdist as cd

# Frozen reference values, computed once from the closed forms below and
# cross-checked against the iterative solver before being pinned.
R04_CAP_AT_01 = 0.10610555179795111
R04_UNCONSTRAINED_CAP = 0.1705046788786006
R04_UNCONSTRAINED_P1 = 0.39190213948550917
R04_THRESHOLD = 0.24323914420579634
BLOCK_K2_R05_ZERO_RATE = 0.27465307216702745  # 0.5 log(3) / 2
BLOCK_K2_R05_UNCONSTRAINED = 0.2798078939677114
BLOCK_K2_R05_THRESHOLD = 1.0 / 14.0
TRAINING_K2_R05 = 0.17328679513998632  # 0.5 log(2) / 2
RATIO_K10_R05 = 1.1109544921939254
MOD2_CAP_R03 = 0.08228287850505178

CASE1_TABLE = {
    (0.1, 1): False,
    (0.1, 2): True,
    (0.3, 2): False,
    (0.3, 3): True,
    (0.5, 2): False,
    (0.5, 3): True,
}


# ---------------------------------------------------------------------------
# binary entropy
# ---------------------------------------------------------------------------


def test_binary_entropy_shape():
    assert cd.binary_entropy(0.0) == 0.0
    assert cd.binary_entropy(1.0) == 0.0
    assert abs(cd.binary_entropy(0.5) - math.log(2.0)) < 1e-15
    assert abs(cd.binary_entropy(0.3) - 0.6108643020548935) < 1e-15
    for t in np.linspace(0.01, 0.99, 23):
        assert abs(cd.binary_entropy(float(t)) - cd.binary_entropy(float(1 - t))) < 1e-12


# ---------------------------------------------------------------------------
# scalar closed form
# ---------------------------------------------------------------------------


def test_scalar_closed_form_constrained_region():
    capacity, p1 = cd.scalar_cd_closed_form(0.4, 0.1)
    assert abs(capacity - R04_CAP_AT_01) < 1e-15
    assert abs(p1 - 0.75) < 1e-15


def test_scalar_closed_form_unconstrained_region():
    capacity, p1 = cd.scalar_cd_closed_form(0.4, R04_THRESHOLD + 1e-12)
    assert abs(capacity - R04_UNCONSTRAINED_CAP) < 1e-12
    assert abs(p1 - R04_UNCONSTRAINED_P1) < 1e-12
    # Just below the threshold the budget binds.
    _, p_below = cd.scalar_cd_closed_form(0.4, R04_THRESHOLD - 1e-9)
    assert abs(p_below - (1.0 - (R04_THRESHOLD - 1e-9) / 0.4)) < 1e-12


def test_scalar_closed_form_is_continuous_at_threshold():
    above, _ = cd.scalar_cd_closed_form(0.4, R04_THRESHOLD + 1e-10)
    below, _ = cd.scalar_cd_closed_form(0.4, R04_THRESHOLD - 1e-10)
    assert abs(above - below) < 1e-12


def test_scalar_closed_form_domain():
    with pytest.raises(ValueError):
        cd.scalar_cd_closed_form(0.0, 0.1)
    with pytest.raises(ValueError):
        cd.scalar_cd_closed_form(0.6, 0.1)
    with pytest.raises(ValueError):
        cd.scalar_cd_closed_form(0.4, -0.01)


def test_small_budget_slope_values_and_secant():
    frozen = {0.1: 1.0536051565782628, 0.3: 1.1889164797957748,
              0.4: 1.2770640594149768, 0.5: 1.3862943611198906}
    for r, slope in frozen.items():
        assert abs(cd.scalar_small_d_slope(r) - slope) < 1e-14
        h = 1e-7
        secant = (cd.scalar_cd_closed_form(r, h)[0] - cd.scalar_cd_closed_form(r, 0.0)[0]) / h
        assert abs(secant - slope) / slope < 1e-4


# ---------------------------------------------------------------------------
# block closed form
# ---------------------------------------------------------------------------


def test_case1_predicate_frozen_table():
    for (r, block_len), expected in CASE1_TABLE.items():
        assert cd.case1_predicate(r, block_len) is expected, (r, block_len)
    with pytest.raises(ValueError):
        cd.case1_predicate(0.3, 0)
    with pytest.raises(ValueError):
        cd.case1_predicate(0.7, 2)


def test_block_closed_form_reduces_to_scalar_at_unit_block():
    for budget in (0.0, 0.05, 0.12, 0.3):
        b_cap, b_p = cd.block_cd_closed_form(0.3, 1, budget)
        s_cap, s_p = cd.scalar_cd_closed_form(0.3, budget)
        assert abs(b_cap - s_cap) < 1e-14
        assert abs(b_p - s_p) < 1e-14


def test_block_closed_form_case2_values():
    rate0, p0 = cd.block_cd_closed_form(0.5, 2, 0.0)
    assert abs(rate0 - BLOCK_K2_R05_ZERO_RATE) < 1e-15
    assert p0 == 1.0
    rate_free, p_free = cd.block_cd_closed_form(0.5, 2, BLOCK_K2_R05_THRESHOLD + 1e-12)
    assert abs(rate_free - BLOCK_K2_R05_UNCONSTRAINED) < 1e-12
    assert abs(p_free - 6.0 / 7.0) < 1e-12
    # Below the threshold the budget pins the silent-block mass.
    _, p_mid = cd.block_cd_closed_form(0.5, 2, 0.03)
    assert abs(p_mid - (1.0 - 0.03 / 0.5)) < 1e-12


def test_block_closed_form_case1_is_flat():
    assert cd.case1_predicate(0.1, 2)
    rates = [cd.block_cd_closed_form(0.1, 2, b) for b in (0.0, 0.02, 0.05, 0.1)]
    for rate, p in rates:
        assert p == 1.0
        assert abs(rate - 0.1 * math.log(3.0) / 2.0) < 1e-15


def test_block_closed_form_monotone_in_budget():
    for r, block_len in ((0.3, 2), (0.5, 3)):
        budgets = np.linspace(0.0, r, 9)
        rates = [cd.block_cd_closed_form(r, block_len, float(b))[0] for b in budgets]
        assert all(b >= a - 1e-14 for a, b in zip(rates, rates[1:]))


def test_block_closed_form_matches_solver():
    for r, block_len in ((0.3, 2), (0.5, 3)):
        model = cd.block_multiplicative_model(r, block_len)
        for budget in np.linspace(0.0, r, 4):
            expected, _ = cd.block_cd_closed_form(r, block_len, float(budget))
            solved = cd.capacity_distortion_point(model, float(budget)).capacity / block_len
            assert abs(solved - expected) < 1e-8, (r, block_len, budget)


def test_block_closed_form_domain():
    with pytest.raises(ValueError):
        cd.block_cd_closed_form(0.3, 0, 0.1)
    with pytest.raises(ValueError):
        cd.block_cd_closed_form(0.3, 2, -0.1)
    with pytest.raises(ValueError):
        cd.block_cd_closed_form(0.6, 2, 0.1)


# ---------------------------------------------------------------------------
# training comparison
# ---------------------------------------------------------------------------


def test_training_rate_values():
    assert abs(cd.training_rate(0.5, 2) - TRAINING_K2_R05) < 1e-15
    assert cd.training_rate(0.3, 1) == 0.0
    with pytest.raises(ValueError):
        cd.training_rate(0.3, 0)


def test_zero_budget_rate_values():
    assert cd.block_zero_budget_rate(0.3, 1) == 0.0
    assert abs(cd.block_zero_budget_rate(0.5, 2) - BLOCK_K2_R05_ZERO_RATE) < 1e-15
    for (r, block_len) in CASE1_TABLE:
        if block_len < 1:
            continue
        closed, _ = cd.block_cd_closed_form(r, block_len, 0.0)
        assert abs(cd.block_zero_budget_rate(r, block_len) - closed) < 1e-15
    with pytest.raises(ValueError, match="block_len must be >= 1"):
        cd.block_zero_budget_rate(0.3, 0)
    with pytest.raises(ValueError, match=r"r must lie in \(0, 0.5\]"):
        cd.block_zero_budget_rate(0.6, 2)


def test_joint_scheme_beats_training_and_ratio_shrinks():
    ratios = []
    for block_len in range(2, 11):
        joint = cd.block_zero_budget_rate(0.5, block_len)
        trained = cd.training_rate(0.5, block_len)
        assert joint > trained
        ratios.append(joint / trained)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[0] - math.log(3.0) / math.log(2.0)) < 1e-12
    assert abs(ratios[-1] - RATIO_K10_R05) < 1e-12


# ---------------------------------------------------------------------------
# additive mod-2 channel
# ---------------------------------------------------------------------------


def test_mod2_capacity_value_and_solver_agreement():
    assert abs(cd.additive_mod2_capacity(0.3) - MOD2_CAP_R03) < 1e-15
    assert cd.additive_mod2_capacity(0.5) == 0.0
    model = cd.additive_mod2_model(0.3)
    point = cd.capacity_distortion_point(model, 0.0)
    assert abs(point.capacity - MOD2_CAP_R03) < 1e-9
    with pytest.raises(ValueError):
        cd.additive_mod2_capacity(1.2)
