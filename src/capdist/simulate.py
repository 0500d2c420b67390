"""Monte Carlo validation of the analytic per-letter quantities.

``simulate`` draws i.i.d. (input, state, output) triples, runs the optimal
one-shot estimator on each pair, and reports the empirical distortion next
to its analytic expectation plus a plug-in mutual-information estimate.
``check_factorization`` verifies numerically that the exhaustive posterior
over a state block equals the product of single-letter posteriors for
memoryless transmission, which is the identity the one-shot estimator rests
on.

Randomness is reproducible: one integer seed is split into three named
child streams (input, state, output) via ``numpy.random.SeedSequence.spawn``,
in that fixed order, so reports depend only on (model, input law, n, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .channel import (
    ChannelModel,
    FloatArray,
    _as_probs,
    optimal_estimator,
    state_posterior,
)
from .errors import AlphabetTooLarge

# Exhaustive block enumeration is capped by the state-block count |S|^n.
MAX_STATE_BLOCKS = 81
MAX_BLOCK_LEN = 4


@dataclass(frozen=True, eq=False)
class SimulationReport:
    samples: int
    empirical_distortion: float
    analytic_distortion: float
    empirical_mi: float
    seed: int
    joint_counts: np.ndarray  # (|X|, |Y|) occurrence counts


@dataclass(frozen=True, eq=False)
class FactorizationReport:
    passed: bool
    max_deviation: float
    trials: int
    block_len: int


def _streams(seed: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


def _cdf(rows: FloatArray) -> FloatArray:
    out = np.cumsum(rows, axis=-1)
    out[..., -1] = 1.0  # guard against cumsum rounding below 1
    return out


def _draw(cdf_rows: FloatArray, index, uniforms: FloatArray) -> np.ndarray:
    """Inverse-CDF sampling, sample i from row ``cdf_rows[index[i]]``: its
    letter is the count of that row's entries below ``uniforms[i]``.

    Samples are grouped by row (stable argsort of ``index``) and each group
    is searched in its own row, so memory is O(n) rather than n x |Y|.
    """
    out = np.empty(uniforms.size, dtype=np.intp)
    # The narrowest unsigned key that holds every row index: numpy's stable
    # argsort is a radix sort for 8- and 16-bit keys, several times faster
    # than on int64.
    keys = index.astype(np.min_scalar_type(len(cdf_rows) - 1))
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(index, minlength=len(cdf_rows))
    stops = np.cumsum(counts)
    for row in np.flatnonzero(counts):
        group = order[stops[row] - counts[row]:stops[row]]
        out[group] = np.searchsorted(cdf_rows[row], uniforms[group], side="left")
    return out


def simulate(model: ChannelModel, px, n: int, seed: int) -> SimulationReport:
    """Sample the channel n times and score the optimal one-shot estimator.

    Per sample: x from the input law, s from the prior, y from
    P(. | x, s), then s_hat = table[x, y] and the distortion d(s, s_hat) is
    recorded.  The empirical mutual information is the plug-in estimate from
    the joint (x, y) counts, in nats.

    Memory is O(n) plus the model: the output draw searches each sample's
    P(. | x, s) row separately and never gathers an n x |Y| array.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    probs = _as_probs(px, model.input_size)
    policy = optimal_estimator(model)
    gen_x, gen_s, gen_y = _streams(seed)

    xs = np.searchsorted(_cdf(probs), gen_x.random(n), side="left")
    ss = np.searchsorted(_cdf(model.state_prior), gen_s.random(n), side="left")
    ys = _draw(_cdf(model.transition).reshape(-1, model.output_size),
               xs * model.state_size + ss, gen_y.random(n))

    est = policy.table[xs, ys]
    distortions = model.distortion[ss, est]

    counts = np.bincount(xs * model.output_size + ys, minlength=model.input_size * model.output_size)
    counts = counts.reshape(model.input_size, model.output_size)

    return SimulationReport(
        samples=n,
        empirical_distortion=float(distortions.mean()),
        analytic_distortion=float(probs @ policy.cost_vector),
        empirical_mi=plugin_mi(counts),
        seed=seed,
        joint_counts=counts,
    )


def plugin_mi(counts: np.ndarray) -> float:
    """Plug-in mutual information (nats) of a joint count table."""
    n = counts.sum()
    if n == 0:
        return 0.0
    joint = counts / n
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, joint * (np.log(joint) - np.log(px) - np.log(py)), 0.0)
    return max(0.0, float(terms.sum()))


def mi_jackknife_std(counts: np.ndarray) -> float:
    """Delete-one jackknife standard error of the plug-in estimate.

    Works on the sufficient statistics: removing one observation from cell
    (x, y) gives the same leave-one-out value for every sample in that cell.
    """
    n = int(counts.sum())
    if n < 2:
        return 0.0
    loo_vals = []
    weights = []
    for x, y in zip(*np.nonzero(counts)):
        reduced = counts.copy()
        reduced[x, y] -= 1
        loo_vals.append(plugin_mi(reduced))
        weights.append(counts[x, y])
    loo = np.array(loo_vals)
    w = np.array(weights, dtype=np.float64)
    mean = float(w @ loo / n)
    var = float(w @ (loo - mean) ** 2) * (n - 1) / n
    return float(np.sqrt(var))


def check_factorization(
    model: ChannelModel,
    px,
    block_len: int,
    trials: int,
    seed: int,
    posterior_fn: Callable[[int, int], FloatArray] | None = None,
) -> FactorizationReport:
    """Compare the exhaustive block state posterior against the letter product.

    For each sampled block (x_1..n, y_1..n) the posterior over whole state
    blocks is computed by brute-force enumeration of the joint law, and
    checked entrywise against prod_i P(s_i | x_i, y_i) to within 1e-10.
    ``posterior_fn`` substitutes the single-letter posterior (test hook for
    deliberately corrupted inputs); default is the model's own.
    """
    if block_len < 1 or block_len > MAX_BLOCK_LEN:
        raise AlphabetTooLarge(f"block_len must be in [1, {MAX_BLOCK_LEN}]")
    if model.state_size**block_len > MAX_STATE_BLOCKS:
        raise AlphabetTooLarge(
            f"|S|^block_len = {model.state_size}**{block_len} exceeds {MAX_STATE_BLOCKS}"
        )
    probs = _as_probs(px, model.input_size)
    if posterior_fn is None:
        posterior_fn = lambda x, y: state_posterior(model, x, y)
    gen_x, gen_s, gen_y = _streams(seed)

    x_cdf = _cdf(probs)
    s_cdf = _cdf(model.state_prior)
    y_cdf = _cdf(model.transition).reshape(-1, model.output_size)

    state_blocks = np.array(list(product(range(model.state_size), repeat=block_len)))
    max_dev = 0.0
    for _ in range(trials):
        xs = np.searchsorted(x_cdf, gen_x.random(block_len), side="left")
        s_true = np.searchsorted(s_cdf, gen_s.random(block_len), side="left")
        ys = _draw(y_cdf, xs * model.state_size + s_true, gen_y.random(block_len))

        # Exhaustive route: joint weight of every state block, then normalize.
        weights = np.ones(state_blocks.shape[0])
        for i in range(block_len):
            s_col = state_blocks[:, i]
            weights *= model.state_prior[s_col] * model.transition[xs[i], s_col, ys[i]]
        exhaustive = weights / weights.sum()

        # Product route: single-letter posteriors multiplied up.
        prod_post = np.ones(1)
        for i in range(block_len):
            prod_post = np.multiply.outer(prod_post, posterior_fn(int(xs[i]), int(ys[i]))).ravel()

        max_dev = max(max_dev, float(np.max(np.abs(exhaustive - prod_post))))

    return FactorizationReport(
        passed=max_dev <= 1e-10,
        max_deviation=max_dev,
        trials=trials,
        block_len=block_len,
    )


__all__ = [
    "FactorizationReport",
    "SimulationReport",
    "check_factorization",
    "mi_jackknife_std",
    "plugin_mi",
    "simulate",
]
