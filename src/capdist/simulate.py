"""Monte Carlo validation of the analytic per-letter quantities.

``simulate`` draws the cell counts N(x, s, y) of n i.i.d. (input, state,
output) triples, scores the optimal one-shot estimator on each cell, and
reports the empirical distortion next to its analytic expectation plus a
plug-in mutual-information estimate.
``check_factorization`` verifies numerically that the exhaustive posterior
over a state block equals the product of single-letter posteriors for
memoryless transmission, which is the identity the one-shot estimator rests
on.

Randomness is reproducible: one integer seed is split into three named
child streams (input, state, output) via ``numpy.random.SeedSequence.spawn``,
in that fixed order, so reports depend only on (model, input law, n, seed).
In ``simulate`` they draw N(x) ~ Mult(n, p), N(x, .) ~ Mult(N(x), P(s)) and
N(x, s, .) ~ Mult(N(x, s), P(. | x, s)) by conditional binomials (Davis
1993); a seed's numbers differ from those of the earlier per-sample sampler.
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
    _risk,
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


def _letters(rows: FloatArray, uniforms: FloatArray) -> np.ndarray:
    """Inverse-CDF draws: letter i is the count of CDF entries of its law
    (``rows``, or ``rows[i]``) below ``uniforms[i]``."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0  # guard against cumsum rounding below 1
    return (cdf < uniforms[:, None]).sum(axis=-1)


def _multinomial(gen: np.random.Generator, n, pvals: FloatArray) -> np.ndarray:
    """Counts ~ Mult(n, pvals) along the last axis, broadcast over n.  numpy
    gives each law's last entry what its conditional binomials leave, rounding
    included; where that entry has probability 0 the remainder goes, as in
    exact arithmetic, to the law's last positive entry."""
    counts = gen.multinomial(n, pvals)
    spill = (counts[..., -1] > 0) & (pvals[..., -1] == 0)
    if not spill.any():
        return counts
    flat = np.atleast_2d(counts)
    laws = np.broadcast_to(pvals, flat.shape)
    for row in np.flatnonzero(spill):
        flat[row, np.flatnonzero(laws[row])[-1]] += flat[row, -1]
        flat[row, -1] = 0
    return counts


def simulate(model: ChannelModel, px, n: int, seed: int) -> SimulationReport:
    """Sample the channel n times and score the optimal one-shot estimator.

    Draws the counts N(x, s, y) of n triples; cell (x, s, y) costs
    d(s, table[x, y]), the estimate taken from the cell's own risks.
    ``joint_counts`` sums them over s, and the empirical mutual information
    is their plug-in estimate, in nats.  Only the drawn (x, s) rows are read:
    time and memory are O(min(n, |X||S|) |Y|) plus the (|X|, |Y|) count table.
    """
    if not 1 <= n <= np.iinfo(np.int64).max:
        raise ValueError(f"need between 1 and 2**63 - 1 samples, got {n}")
    probs = _as_probs(px, model.input_size)
    policy = optimal_estimator(model)
    gen_x, gen_s, gen_y = _streams(seed)

    per_row = _multinomial(gen_s, _multinomial(gen_x, n, probs), model.state_prior).ravel()
    rows = np.flatnonzero(per_row)
    cells = _multinomial(gen_y, per_row[rows], model.transition.reshape(-1, model.output_size)[rows])

    row, ys = np.nonzero(cells)
    hits = cells[row, ys]
    xs, ss = np.divmod(rows[row], model.state_size)
    counts = np.zeros((model.input_size, model.output_size), dtype=np.int64)
    np.add.at(counts, (xs, ys), hits)
    estimates = _risk(model.state_prior, model.distortion, model.transition[xs, :, ys]).argmin(axis=1)

    return SimulationReport(
        samples=n,
        empirical_distortion=float(hits @ model.distortion[ss, estimates]) / n,
        analytic_distortion=float(probs @ policy.cost_vector),
        empirical_mi=plugin_mi(counts),
        seed=seed,
        joint_counts=counts,
    )


def plugin_mi(counts: np.ndarray) -> float:
    """Plug-in mutual information (nats) of a joint count table, summed over
    its nonzero cells."""
    n = counts.sum()
    if n == 0:
        return 0.0
    x, y = np.nonzero(counts)
    joint = counts[x, y] / n
    px = counts.sum(axis=1) / n
    py = counts.sum(axis=0) / n
    terms = joint * (np.log(joint) - np.log(px[x]) - np.log(py[y]))
    return max(0.0, float(terms.sum()))


def _xlogx_step(m: np.ndarray) -> np.ndarray:
    """m log m - (m - 1) log(m - 1), without cancellation for large m."""
    below = np.maximum(m - 1.0, 1.0)
    return np.where(m > 1, np.log(below + 1.0) + below * np.log1p(1.0 / below), 0.0)


def mi_jackknife_std(counts: np.ndarray) -> float:
    """Delete-one jackknife standard error of the plug-in estimate.

    Removing one observation from cell (x, y) gives the same leave-one-out
    value for every sample in that cell.  With f(m) = m log m, n times the
    plug-in value is sum f(cell) - sum f(row) - sum f(column) + f(n), so that
    removal changes it by -g(cell) + g(row x) + g(column y) - g(n), where
    g(m) = f(m) - f(m - 1): O(1) per cell.
    """
    n = int(counts.sum())
    if n < 2:
        return 0.0
    x, y = np.nonzero(counts)
    w = counts[x, y].astype(np.float64)
    shift = _xlogx_step(counts.sum(axis=1))[x] + _xlogx_step(counts.sum(axis=0))[y]
    shift -= _xlogx_step(w) + _xlogx_step(n)
    loo = np.maximum(0.0, (n * plugin_mi(counts) + shift) / (n - 1))
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

    state_blocks = np.array(list(product(range(model.state_size), repeat=block_len)))
    max_dev = 0.0
    for _ in range(trials):
        xs = _letters(probs, gen_x.random(block_len))
        s_true = _letters(model.state_prior, gen_s.random(block_len))
        ys = _letters(model.transition[xs, s_true], gen_y.random(block_len))

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
