"""Monte Carlo sampling, plug-in information, and posterior factorization."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

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


def _dense_reference(model, px, n, seed):
    """Reference sampler: gathers one n x |Y| CDF row per sample and counts
    the entries below each sample's uniform."""
    gen_x, gen_s, gen_y = (np.random.Generator(np.random.PCG64(c))
                           for c in np.random.SeedSequence(seed).spawn(3))

    def cdf(rows):
        out = np.cumsum(rows, axis=-1)
        out[..., -1] = 1.0
        return out

    def draw(cdf_rows, index, uniforms):
        return (cdf_rows[index] < uniforms[:, None]).sum(axis=1)

    zeros = np.zeros(n, dtype=np.intp)
    xs = draw(cdf(px)[None, :], zeros, gen_x.random(n))
    ss = draw(cdf(model.state_prior)[None, :], zeros, gen_s.random(n))
    ys = draw(cdf(model.transition).reshape(-1, model.output_size),
              xs * model.state_size + ss, gen_y.random(n))
    counts = np.zeros((model.input_size, model.output_size), dtype=np.int64)
    np.add.at(counts, (xs, ys), 1)
    est = cd.optimal_estimator(model).table[xs, ys]
    return counts, float(model.distortion[ss, est].mean())


def test_simulate_draws_match_dense_reference():
    # Noisy K = 2 block channel with 4 x 3 = 12 (x, s) rows, each with
    # mass on all 9 outputs, so the per-row grouping is exercised.
    rng = np.random.default_rng(4)
    transition = rng.random((2, 3, 3)) + 0.05
    transition /= transition.sum(axis=2, keepdims=True)
    base = cd.validate_channel(transition, [0.5, 0.3, 0.2], rng.random((3, 3)))
    model = cd.block_to_super_symbol(base, 2)
    px = rng.random(model.input_size)
    px /= px.sum()
    for seed in (0, 1, 2):
        report = cd.simulate(model, px, n=3_000, seed=seed)
        counts, distortion = _dense_reference(model, px, 3_000, seed)
        assert np.array_equal(report.joint_counts, counts)
        assert report.joint_counts.dtype == counts.dtype
        assert report.empirical_distortion == distortion
        assert report.empirical_mi == cd.plugin_mi(counts)


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
