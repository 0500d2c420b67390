"""End-to-end validation matrix: ten numbered checks with stated tolerances.

Each check prints one CRITERION NN: PASS/FAIL line (visible on failure or
with -s) and asserts both its numeric tolerance and its runtime budget.

Check 03 is split in two. The substance part checks, from the closed forms,
that the joint scheme beats the train-then-transmit baseline and that the
advantage ratio C(0)/R(0) decays toward one. The window part solves the
K = 10 block channel at zero budget and pins the ratio inside
log2(1023)/9 +- 1e-6, the value log2(2^K - 1)/(K - 1) the closed forms give.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import capdist as cd

LN2 = math.log(2.0)


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 01: scalar closed-form reproduction
# ---------------------------------------------------------------------------


def test_criterion_01_scalar_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.2, 0.3, 0.4, 0.5):
        model = cd.scalar_multiplicative_model(r)
        for budget in np.linspace(0.0, r, 20):
            expected, _ = cd.scalar_cd_closed_form(r, float(budget))
            got = cd.capacity_distortion_point(model, float(budget)).capacity
            worst = max(worst, abs(got - expected))
        # The curve constructor re-checks monotonicity and concavity and
        # raises on violation; assert the shape explicitly as well.
        curve = cd.cd_curve(model, 20)
        caps = np.array([pt.capacity for pt in curve.points])
        assert np.all(np.diff(caps) >= -1e-10), f"r={r}: curve not nondecreasing"
        assert np.all(caps[1:-1] >= 0.5 * (caps[:-2] + caps[2:]) - 1e-9), f"r={r}: not concave"
    elapsed = time.perf_counter() - t0
    _report("01", worst <= 1e-6 and elapsed < 10.0,
            f"max |solver - closed form| = {worst:.3e} nats, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 02: block closed-form reproduction and regime classification
# ---------------------------------------------------------------------------


def test_criterion_02_block_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for block_len in (1, 2, 3):
        for r in (0.1, 0.3, 0.5):
            model = cd.block_multiplicative_model(r, block_len)
            for budget in np.linspace(0.0, r, 10):
                expected, _ = cd.block_cd_closed_form(r, block_len, float(budget))
                solved = cd.capacity_distortion_point(model, float(budget)).capacity / block_len
                worst = max(worst, abs(solved - expected))

    # Regime classification: the flat-tradeoff predicate on all 9 pairs,
    # checked against independently frozen truth values.
    frozen = {
        (0.1, 1): False, (0.1, 2): True, (0.1, 3): True,
        (0.3, 1): False, (0.3, 2): False, (0.3, 3): True,
        (0.5, 1): False, (0.5, 2): False, (0.5, 3): True,
    }
    for (r, block_len), expected_flag in frozen.items():
        assert cd.case1_predicate(r, block_len) is expected_flag, (r, block_len)
    # Crossover: below r ~ 0.175 already two-use blocks never idle; above it
    # three uses are needed.
    assert cd.case1_predicate(0.1, 2) and cd.case1_predicate(0.1, 3)
    assert not cd.case1_predicate(0.3, 2)
    assert cd.case1_predicate(0.3, 3)

    elapsed = time.perf_counter() - t0
    _report("02", worst <= 1e-5 and elapsed < 60.0,
            f"max per-use |solver - closed form| = {worst:.3e} nats, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 03: zero-budget rate vs the training baseline
# ---------------------------------------------------------------------------


def _advantage_ratio(block_len: int) -> float:
    # r cancels in the ratio, so any valid r gives the same number.
    return cd.block_zero_budget_rate(0.5, block_len) / cd.training_rate(0.5, block_len)


def test_criterion_03_training_gap_substance():
    t0 = time.perf_counter()
    ratios = [_advantage_ratio(block_len) for block_len in range(2, 11)]
    for block_len, ratio in zip(range(2, 11), ratios):
        assert cd.block_zero_budget_rate(0.5, block_len) > cd.training_rate(0.5, block_len), block_len
        assert ratio > 1.0
    assert all(a > b for a, b in zip(ratios, ratios[1:])), "ratio must decay toward 1"
    # Frozen value of the K = 10 ratio: log(2^10 - 1) / (9 log 2).
    assert abs(ratios[-1] - 1.1109544921939254) < 1e-12
    # The README's large-K ratios, near K / (K - 1).
    for block_len, frozen in ((300, 1.0033444816), (1001, 1.0010000000)):
        assert abs(_advantage_ratio(block_len) - frozen) < 1e-9, block_len
    elapsed = time.perf_counter() - t0
    _report("03 (substance)", elapsed < 5.0,
            f"joint beats training for K=2..10, ratio decays {ratios[0]:.4f} -> {ratios[-1]:.4f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_window_as_stated():
    # At D = 0 the zero letter is excluded and every nonzero super-symbol
    # reveals the state, so C(0) = r log(2^K - 1) per block against
    # R(0) = r (K - 1) log 2 for training: the ratio log2(2^K - 1)/(K - 1)
    # does not depend on r.  The window is computed without capdist, at the
    # matrix's closed-form tolerance of 1e-6; the K = 9 and K = 11 values and
    # log(512)/log(511) fall outside it.  The ratio comes from the solver at
    # three values of r, which also checks the r-independence.
    center = math.log2(2.0**10 - 1.0) / 9.0
    low, high = center - 1e-6, center + 1e-6
    t0 = time.perf_counter()
    ratios = []
    for r in (0.1, 0.3, 0.5):
        solved = cd.capacity_distortion_point(cd.block_multiplicative_model(r, 10), 0.0)
        ratios.append(solved.capacity / 10 / cd.training_rate(r, 10))
    elapsed = time.perf_counter() - t0
    _report("03 (window as stated)",
            all(low <= ratio <= high for ratio in ratios) and elapsed < 5.0,
            f"K=10 ratio at r=0.1/0.3/0.5 = {', '.join(f'{x:.10f}' for x in ratios)}, "
            f"window [{low:.10f}, {high:.10f}], {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 04: rate per unit estimation cost
# ---------------------------------------------------------------------------


def test_criterion_04_rate_per_unit_cost():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    worst_sup = 0.0
    for r in (0.1, 0.3, 0.5):
        model = cd.scalar_multiplicative_model(r)
        slope = -math.log(1.0 - r) / r
        ratio = cd.cpud_ratio_formula(model)
        worst_ratio = max(worst_ratio, abs(ratio.value - slope) / slope)
        sup = cd.cpud_sup_definition(model)
        worst_sup = max(worst_sup, abs(sup.value - slope) / slope)
    block = cd.cpud_ratio_formula(cd.block_multiplicative_model(0.5, 2))
    assert math.isinf(block.value)
    assert block.condition == "multiple zero-cost letters"
    elapsed = time.perf_counter() - t0
    _report("04", worst_ratio <= 1e-6 and worst_sup <= 1e-3 and elapsed < 30.0,
            f"ratio-route rel err = {worst_ratio:.3e}, sup-route rel err = {worst_sup:.3e}, "
            f"block infinite via two free letters, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 05: small-budget slope
# ---------------------------------------------------------------------------


def test_criterion_05_small_budget_slope():
    t0 = time.perf_counter()
    worst = 0.0
    h = 1e-4
    for r in (0.3, 0.5):
        model = cd.scalar_multiplicative_model(r)
        secant = (cd.capacity_distortion_point(model, h).capacity
                  - cd.capacity_distortion_point(model, 0.0).capacity) / h
        slope = -math.log(1.0 - r) / r
        worst = max(worst, abs(secant - slope) / slope)
    elapsed = time.perf_counter() - t0
    _report("05", worst <= 0.01 and elapsed < 5.0,
            f"max secant rel err = {worst:.2%}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 06: random channels against exhaustive search
# ---------------------------------------------------------------------------


def test_criterion_06_random_channels_vs_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        ny = int(rng.integers(2, 4))
        ns = int(rng.integers(2, 4))
        transition = rng.random((2, ns, ny)) + 1e-6
        transition /= transition.sum(axis=2, keepdims=True)
        prior = rng.random(ns) + 1e-6
        prior /= prior.sum()
        distortion = rng.random((ns, ns))
        model = cd.validate_channel(transition, prior, distortion)
        cost = cd.optimal_estimator(model).cost_vector
        budget = float(cost.min() + rng.random() * (cost.max() - cost.min()))
        solved = cd.capacity_distortion_point(model, budget).capacity
        reference = cd.grid_search_capacity(model, budget, step=1e-4)
        worst = max(worst, abs(solved - reference))
    elapsed = time.perf_counter() - t0
    _report("06", worst <= 5e-4 and elapsed < 120.0,
            f"100 random channels, max |solver - grid| = {worst:.3e} nats, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 07: free-estimation channel has a flat tradeoff
# ---------------------------------------------------------------------------


def test_criterion_07_flat_tradeoff_when_estimation_is_free():
    t0 = time.perf_counter()
    model = cd.additive_mod2_model(0.3)
    d_min, d_max = cd.feasible_range(model)
    assert d_min == 0.0 and d_max == 0.0
    clean = cd.additive_mod2_capacity(0.3)
    worst = 0.0
    for budget in (0.0, 1e-6, 0.2, 0.5, 1.0):
        point = cd.capacity_distortion_point(model, budget)
        worst = max(worst, abs(point.capacity - clean))
    with pytest.raises(cd.InfeasibleDistortion):
        cd.capacity_distortion_point(model, -1e-9)
    elapsed = time.perf_counter() - t0
    _report("07", worst <= 1e-9 and elapsed < 1.0,
            f"flat at {clean:.6f} nats, max dev {worst:.1e}, negative budget rejected, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 08: Monte Carlo concentration
# ---------------------------------------------------------------------------


def test_criterion_08_monte_carlo_concentration():
    t0 = time.perf_counter()
    model = cd.scalar_multiplicative_model(0.4)
    px = cd.capacity_distortion_point(model, 0.1).optimizer

    n = 100_000
    sigma = math.sqrt(0.1 * 0.9 / n)
    hits = 0
    for seed in range(100):
        report = cd.simulate(model, px, n=n, seed=seed)
        if abs(report.empirical_distortion - 0.1) <= 3 * sigma:
            hits += 1

    worst_mi = 0.0
    true_mi = 0.10610555179795111
    for seed in range(5):
        report = cd.simulate(model, px, n=1_000_000, seed=1000 + seed)
        worst_mi = max(worst_mi, abs(report.empirical_mi - true_mi))

    elapsed = time.perf_counter() - t0
    _report("08", hits >= 97 and worst_mi <= 0.01 and elapsed < 60.0,
            f"{hits}/100 runs within 3 sigma, max MI dev = {worst_mi:.4f} nats, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 09: block posterior factorization
# ---------------------------------------------------------------------------


def test_criterion_09_posterior_factorization():
    t0 = time.perf_counter()
    scalar = cd.scalar_multiplicative_model(0.4)
    rep_scalar = cd.check_factorization(scalar, [0.5, 0.5], block_len=3, trials=100, seed=2)
    block = cd.block_multiplicative_model(0.5, 2)
    rep_block = cd.check_factorization(block, np.full(4, 0.25), block_len=2, trials=100, seed=2)

    def corrupted(x: int, y: int):
        post = cd.state_posterior(scalar, x, y)
        return 0.98 * post + 0.02 * np.full_like(post, 1.0 / post.size)

    rep_bad = cd.check_factorization(scalar, [0.5, 0.5], block_len=3, trials=100, seed=2,
                                     posterior_fn=corrupted)
    elapsed = time.perf_counter() - t0
    ok = (rep_scalar.passed and rep_scalar.max_deviation <= 1e-10
          and rep_block.passed and rep_block.max_deviation <= 1e-10
          and not rep_bad.passed)
    _report("09", ok and elapsed < 10.0,
            f"deviations {rep_scalar.max_deviation:.1e} / {rep_block.max_deviation:.1e}, "
            f"corrupted control deviates {rep_bad.max_deviation:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10: worst-case prior against an exhaustive oracle
# ---------------------------------------------------------------------------


def _entropy2(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 1e-300, 1.0)
    u = np.clip(1.0 - t, 1e-300, 1.0)
    return -t * np.log(t) - u * np.log(u)


def _oracle_max_min(r_values, budget: float) -> float:
    """Independent exhaustive max-min over input laws for the scalar family.

    Uses the hand-derived facts that P(x=1) = t gives information
    H(t r) - t H(r) and estimation cost (1 - t) r under the prior with
    state-on probability r.
    """
    ts = np.linspace(0.0, 1.0, 100_001)
    feasible = np.ones_like(ts, dtype=bool)
    for r in r_values:
        feasible &= (1.0 - ts) * r <= budget + 1e-12
    worst = np.full_like(ts, np.inf)
    for r in r_values:
        mi = _entropy2(ts * r) - ts * _entropy2(np.array(r))
        worst = np.minimum(worst, mi)
    return float(np.max(worst[feasible]))


def test_criterion_10_compound_max_min():
    t0 = time.perf_counter()
    family = cd.CompoundFamily(
        transition=cd.scalar_multiplicative_model(0.3).transition,
        priors=([0.7, 0.3], [0.6, 0.4]),
        distortion=[[0.0, 1.0], [1.0, 0.0]],
    )
    worst = 0.0
    for budget in (0.02, 0.05, 0.1):
        oracle = _oracle_max_min((0.3, 0.4), budget)
        result = cd.compound_cd(family, budget)
        assert result.certified
        worst = max(worst, abs(result.value - oracle))

    worst_single = 0.0
    for r in (0.3, 0.4):
        single = cd.CompoundFamily(
            transition=cd.scalar_multiplicative_model(r).transition,
            priors=([1.0 - r, r],),
            distortion=[[0.0, 1.0], [1.0, 0.0]],
        )
        for budget in (0.02, 0.05, 0.1):
            expected, _ = cd.scalar_cd_closed_form(r, budget)
            got = cd.compound_cd(single, budget).value
            worst_single = max(worst_single, abs(got - expected))

    elapsed = time.perf_counter() - t0
    _report("10", worst <= 5e-4 and worst_single <= 1e-7 and elapsed < 30.0,
            f"max |solver - oracle| = {worst:.3e} nats, singleton dev = {worst_single:.3e}, "
            f"{elapsed:.1f}s")
