"""Monte Carlo sampling, plug-in information, and posterior factorization."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import capdist as cd

HAMMING2 = [[0.0, 1.0], [1.0, 0.0]]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_simulate_is_deterministic_in_the_seed():
    model = cd.scalar_multiplicative_model(0.4)
    a = cd.simulate(model, [0.25, 0.75], n=20_000, seed=42)
    b = cd.simulate(model, [0.25, 0.75], n=20_000, seed=42)
    assert a.empirical_distortion == b.empirical_distortion
    assert a.empirical_mi == b.empirical_mi
    assert np.array_equal(a.joint_counts, b.joint_counts)
    c = cd.simulate(model, [0.25, 0.75], n=20_000, seed=43)
    assert not np.array_equal(a.joint_counts, c.joint_counts)


def test_simulate_counts_and_analytic_fields():
    model = cd.scalar_multiplicative_model(0.4)
    report = cd.simulate(model, [0.25, 0.75], n=5_000, seed=7)
    assert report.samples == 5_000
    assert report.joint_counts.shape == (2, 2)
    assert report.joint_counts.sum() == 5_000
    cost = cd.optimal_estimator(model).cost_vector
    assert abs(report.analytic_distortion - float(np.array([0.25, 0.75]) @ cost)) < 1e-15
    assert report.seed == 7


def test_simulate_empirical_distortion_tracks_analytic():
    model = cd.scalar_multiplicative_model(0.4)
    px = cd.capacity_distortion_point(model, 0.1).optimizer.probs
    n = 100_000
    # Per-sample distortion is Bernoulli(0.1) here, so a 4-sigma corridor is
    # comfortably wide for a fixed-seed check.
    sigma = math.sqrt(0.1 * 0.9 / n)
    for seed in (1, 2, 3):
        report = cd.simulate(model, px, n=n, seed=seed)
        assert abs(report.empirical_distortion - report.analytic_distortion) < 4 * sigma


def test_simulate_plugin_mi_approaches_true_information():
    model = cd.scalar_multiplicative_model(0.4)
    px = np.array([0.25, 0.75])
    true_mi = cd.mutual_information(model, px)
    report = cd.simulate(model, px, n=200_000, seed=11)
    assert abs(report.empirical_mi - true_mi) < 5e-3


def _noisy_block_channel():
    # Noisy K = 2 block channel with 4 x 3 = 12 (x, s) rows, each with mass
    # on all 9 outputs, and a real-valued distortion.
    rng = np.random.default_rng(4)
    transition = rng.random((2, 3, 3)) + 0.05
    transition /= transition.sum(axis=2, keepdims=True)
    base = cd.validate_channel(transition, [0.5, 0.3, 0.2], rng.random((3, 3)))
    model = cd.block_to_super_symbol(base, 2)
    px = rng.random(model.input_size)
    return model, px / px.sum()


def _loss_moments(model, px):
    """Mean and variance of the per-sample distortion d(s, table[x, y])."""
    table = cd.optimal_estimator(model).table
    states = np.arange(model.state_size)[None, :, None]
    loss = model.distortion[states, table[:, None, :]]
    weight = px[:, None, None] * model.state_prior[None, :, None] * model.transition
    mean = float(np.sum(weight * loss))
    return mean, float(np.sum(weight * loss**2)) - mean**2


def test_simulate_counts_follow_the_channel_law():
    model, px = _noisy_block_channel()
    n = 10**7
    expected = n * px[:, None] * model.output_given_input
    threshold = stats.chi2.isf(1e-6, expected.size - 1)
    mean, var = _loss_moments(model, px)
    for seed in (0, 1, 2):
        report = cd.simulate(model, px, n=n, seed=seed)
        assert report.joint_counts.sum() == n
        chi2 = float(np.sum((report.joint_counts - expected) ** 2 / expected))
        assert chi2 < threshold, (seed, chi2, threshold)
        assert abs(report.analytic_distortion - mean) < 1e-12
        assert abs(report.empirical_distortion - mean) < 5 * math.sqrt(var / n)
        assert report.empirical_mi == cd.plugin_mi(report.joint_counts)


def test_simulate_puts_no_count_on_a_zero_probability_cell():
    # y = s * x leaves most (x, y) cells impossible, and px has zeros too.
    model = cd.block_multiplicative_model(0.3, 3)
    px = np.array([0.2, 0.0, 0.3, 0.1, 0.0, 0.25, 0.15, 0.0])
    impossible = px[:, None] * model.output_given_input == 0
    for seed in (0, 1, 2):
        report = cd.simulate(model, px, n=10**7, seed=seed)
        assert np.all(report.joint_counts[impossible] == 0)
    # numpy's multinomial gives the rounding remainder of a row's conditional
    # binomials to its last entry, here about 50 counts at n = 10**18 on the
    # zero-probability output 3; they belong to output 2.
    model = cd.validate_channel([[[1 / 3, 1 / 3, 1 / 3, 0.0]]], [1.0], [[0.0]])
    for seed in (0, 1, 2):
        report = cd.simulate(model, [1.0], n=10**18, seed=seed)
        assert report.joint_counts[0, 3] == 0
        assert report.joint_counts.sum() == 10**18


def test_simulate_cost_does_not_grow_with_samples():
    # 10**12 triples: the counts are exact and memory stays small.
    model = cd.block_multiplicative_model(0.3, 6)
    uniform = np.full(model.input_size, 1.0 / model.input_size)
    tracemalloc.start()
    try:
        report = cd.simulate(model, uniform, n=10**12, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.joint_counts.sum() == 10**12
    assert peak < 4 * 2**20


def test_simulate_reads_only_the_drawn_rows():
    # 100 samples touch at most 100 of the 2048 (x, s) rows of the K = 10
    # transition (16 MiB).  The returned (|X|, |Y|) count table (8 MiB) is
    # the only allocation of full size.  A fresh model derives its estimator
    # inside the trace, but only the cost vector: the drawn cells' estimates
    # come from their own risks, not from an (|X|, |Y|) table.
    for warm in (True, False):
        model = cd.block_multiplicative_model(0.3, 10)
        uniform = np.full(model.input_size, 1.0 / model.input_size)
        if warm:
            cd.optimal_estimator(model)  # cached on the model, built outside the trace
        tracemalloc.start()
        try:
            report = cd.simulate(model, uniform, n=100, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.joint_counts.sum() == 100
        assert peak - report.joint_counts.nbytes < model.transition.nbytes / 4, warm


def test_simulate_memory_is_linear_in_samples():
    # A sampler that gathers an n x |Y| CDF array would need 512 MB here.
    model = cd.block_multiplicative_model(0.3, 6)
    uniform = np.full(model.input_size, 1.0 / model.input_size)
    tracemalloc.start()
    try:
        cd.simulate(model, uniform, n=1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_simulate_rejects_empty_run():
    with pytest.raises(ValueError):
        cd.simulate(cd.scalar_multiplicative_model(0.4), [0.5, 0.5], n=0, seed=0)


# ---------------------------------------------------------------------------
# plug-in information and its jackknife error bar
# ---------------------------------------------------------------------------


def test_plugin_mi_known_tables():
    assert cd.plugin_mi(np.array([[10, 10], [10, 10]])) == 0.0
    assert abs(cd.plugin_mi(np.array([[50, 0], [0, 50]])) - math.log(2.0)) < 1e-15
    assert cd.plugin_mi(np.zeros((2, 2), dtype=int)) == 0.0


def test_jackknife_std_scales_down_with_sample_size():
    model = cd.scalar_multiplicative_model(0.4)
    small = cd.simulate(model, [0.25, 0.75], n=5_000, seed=5)
    large = cd.simulate(model, [0.25, 0.75], n=80_000, seed=5)
    std_small = cd.mi_jackknife_std(small.joint_counts)
    std_large = cd.mi_jackknife_std(large.joint_counts)
    assert std_small > std_large > 0.0
    # 16x the samples should shrink the error bar by roughly 4x.
    assert std_small / std_large > 2.0


def test_jackknife_std_degenerate_counts():
    assert cd.mi_jackknife_std(np.array([[1, 0], [0, 0]])) == 0.0
    assert cd.mi_jackknife_std(np.zeros((2, 2), dtype=int)) == 0.0


def _jackknife_by_refits(counts):
    """One plug-in refit per nonzero cell, O(cells^2): the reference for the
    closed-form leave-one-out in ``mi_jackknife_std``."""
    n = int(counts.sum())
    if n < 2:
        return 0.0
    loo_vals, weights = [], []
    for x, y in zip(*np.nonzero(counts)):
        reduced = counts.copy()
        reduced[x, y] -= 1
        loo_vals.append(cd.plugin_mi(reduced))
        weights.append(counts[x, y])
    loo = np.array(loo_vals)
    w = np.array(weights, dtype=np.float64)
    mean = float(w @ loo / n)
    var = float(w @ (loo - mean) ** 2) * (n - 1) / n
    return float(np.sqrt(var))


def test_jackknife_closed_form_matches_refits():
    rng = np.random.default_rng(8)
    tables = [
        np.zeros((2, 2), dtype=np.int64),
        np.array([[1]]),
        np.array([[7]]),
        np.array([[3, 0], [0, 0]]),
        np.array([[1, 1], [1, 1]]),
        np.array([[1, 0], [0, 1]]),
        np.array([[5, 9, 2]]),
        np.array([[5], [9], [2]]),
        np.array([[10, 10], [10, 10]]),
        np.array([[1, 0, 0], [0, 400, 3], [0, 0, 999_596]]),
        np.outer([1, 2, 3], [4, 5]) * 1000,
    ]
    for _ in range(300):
        shape = tuple(rng.integers(1, 7, size=2))
        law = rng.random(shape) * (rng.random(shape) < 0.7)
        if law.sum() == 0:
            law.flat[0] = 1.0
        n = int(rng.choice([2, 3, 10, 1000, 10**5, 10**6]))
        tables.append(rng.multinomial(n, (law / law.sum()).ravel()).reshape(shape))
    for counts in tables:
        got = cd.mi_jackknife_std(counts)
        assert abs(got - _jackknife_by_refits(counts)) <= 1e-12, counts


def test_jackknife_covers_true_information_here():
    model = cd.scalar_multiplicative_model(0.4)
    true_mi = cd.mutual_information(model, [0.25, 0.75])
    report = cd.simulate(model, [0.25, 0.75], n=50_000, seed=17)
    std = cd.mi_jackknife_std(report.joint_counts)
    assert abs(report.empirical_mi - true_mi) < 6 * std + 1e-4  # plug-in bias allowance


# ---------------------------------------------------------------------------
# posterior factorization across a block
# ---------------------------------------------------------------------------


def test_factorization_holds_for_scalar_blocks():
    model = cd.scalar_multiplicative_model(0.3)
    report = cd.check_factorization(model, [0.5, 0.5], block_len=3, trials=100, seed=3)
    assert report.passed
    assert report.max_deviation <= 1e-10
    assert report.trials == 100
    assert report.block_len == 3


def test_factorization_holds_for_super_symbol_blocks():
    model = cd.block_multiplicative_model(0.5, 2)
    report = cd.check_factorization(model, np.full(4, 0.25), block_len=2, trials=50, seed=9)
    assert report.passed


def test_factorization_flags_corrupted_posteriors():
    model = cd.scalar_multiplicative_model(0.3)

    def skewed(x: int, y: int):
        post = cd.state_posterior(model, x, y)
        return 0.99 * post + 0.01 * np.full_like(post, 1.0 / post.size)

    report = cd.check_factorization(
        model, [0.5, 0.5], block_len=3, trials=40, seed=3, posterior_fn=skewed
    )
    assert not report.passed
    assert report.max_deviation > 1e-10


def test_factorization_guards_block_size():
    model = cd.scalar_multiplicative_model(0.3)
    with pytest.raises(cd.AlphabetTooLarge):
        cd.check_factorization(model, [0.5, 0.5], block_len=5, trials=1, seed=0)
    with pytest.raises(cd.AlphabetTooLarge):
        cd.check_factorization(model, [0.5, 0.5], block_len=0, trials=1, seed=0)
    rng = np.random.default_rng(0)
    transition = rng.random((2, 4, 2)) + 0.1
    transition /= transition.sum(axis=2, keepdims=True)
    wide_state = cd.validate_channel(transition, np.full(4, 0.25), rng.random((4, 4)))
    with pytest.raises(cd.AlphabetTooLarge):
        cd.check_factorization(wide_state, [0.5, 0.5], block_len=4, trials=1, seed=0)
