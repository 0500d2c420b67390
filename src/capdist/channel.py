"""State-dependent memoryless channels over finite alphabets.

A channel here is a conditional law P(y | x, s) together with an i.i.d.
state prior P(s) and a per-letter distortion d(s, s_hat) charged to the
receiver-side estimate of the state.  Everything downstream (solvers,
closed forms, simulation) is built on the derived quantities computed in
this module: output marginals, state posteriors, the optimal one-shot
estimator and its per-letter cost vector, and mutual information (one
routine, for one input law or a batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AlphabetOverflow,
    DimensionMismatch,
    NegativeDistortion,
    NotAProbability,
    ZeroProbabilityConditioning,
)

# Row sums may be off by less than this on ingestion; they are then
# renormalized to machine precision.  Anything worse is rejected.
PROB_TOL = 1e-9

# Cap on the entries of a dense super-symbol transition |X|^K |S| |Y|^K:
# 2**25 float64 entries are 256 MiB.  Binary channels with one binary state
# stay within it up to K = 12.
DENSE_ENTRY_CAP = 2**25

# A channel whose P(y | x) has at most this share of nonzero entries keeps
# them as a support (``ChannelModel._support``), on which the solver's
# scores cost O(nonzeros) instead of O(|X| |Y|).  A score on the support
# costs about 11 ns per nonzero plus 9 us; a dense one about 0.5 ns per entry
# plus 5 us (one core of a 2-vCPU x86-64 VM), so at a share of 1/4 the
# support was 4-6 times slower, and the share pays from about 1/20 on large
# matrices and lower on small ones.  Block channels of the scalar family
# have 2**(K+1) - 1 nonzeros of 4**K and take the support from K = 7 on;
# Dirichlet rows have no zeros.
SUPPORT_DENSITY = 1 / 64

FloatArray = NDArray[np.float64]


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Finite-alphabet channel with i.i.d. state and a state distortion.

    transition   : array (|X|, |S|, |Y|), transition[x, s] is P(. | x, s)
    state_prior  : array (|S|,)
    distortion   : array (|S|, |S|), distortion[s, s_hat] = d(s, s_hat)

    Instances are immutable; build them through ``validate_channel`` so the
    probability and shape invariants are guaranteed to hold.
    """

    transition: FloatArray
    state_prior: FloatArray
    distortion: FloatArray

    def __post_init__(self):
        for name in ("transition", "state_prior", "distortion"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.transition.ndim != 3:
            raise DimensionMismatch("transition must have shape (|X|, |S|, |Y|)")
        if self.state_prior.shape != (self.transition.shape[1],):
            raise DimensionMismatch("state_prior length must match the state axis of transition")
        if self.distortion.shape != (self.state_prior.size, self.state_prior.size):
            raise DimensionMismatch("distortion must be square over the state alphabet")

    @property
    def input_size(self) -> int:
        return self.transition.shape[0]

    @property
    def state_size(self) -> int:
        return self.transition.shape[1]

    @property
    def output_size(self) -> int:
        return self.transition.shape[2]

    @cached_property
    def output_given_input(self) -> FloatArray:
        """P(y | x) with the state averaged out, shape (|X|, |Y|)."""
        pyx = np.einsum("xsy,s->xy", self.transition, self.state_prior)
        pyx.setflags(write=False)
        return pyx

    @cached_property
    def _row_terms(self) -> FloatArray:
        """Per-row sum_y P(y|x) log P(y|x), with 0 log 0 = 0, computed on
        first use.  The log is taken at the positive entries only, so a
        sparse P(y|x) costs one log per nonzero; the sums run over whole
        rows, zeros included, as ``scipy.special.xlogy`` rows would."""
        pyx = self.output_given_input
        # One float temporary, logged in place; the rest stay 0 and weigh in
        # as 0 * 0.
        terms = np.zeros_like(pyx)
        np.log(pyx, out=terms, where=pyx > 0)
        terms *= pyx
        terms = terms.sum(axis=1)
        terms.setflags(write=False)
        return terms

    @cached_property
    def _support(self) -> tuple[NDArray[np.intp], NDArray[np.intp], FloatArray] | None:
        """(rows, cols, values) of the nonzero entries of P(y|x) in row-major
        order, or None when more than ``SUPPORT_DENSITY`` of them are
        nonzero; computed on first use."""
        pyx = self.output_given_input
        # Every row sums to 1, so it has a nonzero: |X| is a lower bound on
        # the count, and it rules out small channels without a pass.
        if pyx.shape[0] > SUPPORT_DENSITY * pyx.size:
            return None
        # A flat index search on a boolean mask: np.nonzero on the float
        # matrix itself takes about 9 times as long.
        mask = pyx > 0
        if np.count_nonzero(mask) > SUPPORT_DENSITY * pyx.size:
            return None
        rows, cols = np.divmod(np.flatnonzero(mask), pyx.shape[1])
        support = (rows, cols, pyx[rows, cols])
        for arr in support:
            arr.setflags(write=False)
        return support

    @cached_property
    def _estimator(self) -> EstimatorPolicy:
        """The policy ``optimal_estimator`` returns, computed on first use."""
        # risk[x, y] for estimate t is sum_s P(y | x, s) P(s) d(s, t): the
        # unnormalized posterior risk.  Using it directly folds the P(y | x)
        # factor of the cost into the minimization, so zero-probability
        # outputs never divide by zero.  The sum runs in s order.  Estimate
        # 0's risk is written straight into the running best, and a later
        # estimate takes a table entry only on a strict decrease, so ties go
        # to the smallest state index.  The rows are taken a block at a time,
        # so the temporaries hold about 2**15 entries (one row, if rows are
        # longer) however large the channel is: four such buffers stay in a
        # 2 MiB L2 cache, where blocks of 2**17 entries took 35 % longer.
        n_x, n_y = self.input_size, self.output_size
        table = np.zeros((n_x, n_y), dtype=np.int64)
        cost = np.empty(n_x)
        step = max(1, (1 << 15) // n_y)
        for lo in range(0, n_x, step):
            rows = slice(lo, lo + step)
            shape = table[rows].shape
            term, risk, best = np.empty(shape), np.empty(shape), np.empty(shape)
            better = np.empty(shape, dtype=bool)
            for t in range(self.state_size):
                out = best if t == 0 else risk
                # 0 + a is a for a >= 0, so the first state's term starts
                # the sum in place of a zero fill.
                np.multiply(self.transition[rows, 0, :], self.state_prior[0], out=out)
                out *= self.distortion[0, t]
                for s in range(1, self.state_size):
                    np.multiply(self.transition[rows, s, :], self.state_prior[s], out=term)
                    term *= self.distortion[s, t]
                    out += term
                if t > 0:
                    np.less(risk, best, out=better)
                    np.copyto(table[rows], t, where=better)
                    np.minimum(best, risk, out=best)
            cost[rows] = best.sum(axis=1)
        reachable = self.output_given_input > 0.0
        return EstimatorPolicy(table, cost, reachable)


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector over the input alphabet."""

    probs: FloatArray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=np.float64))
        if probs.ndim != 1:
            raise DimensionMismatch("input distribution must be a vector")
        _check_prob_rows(probs[None, :], "input distribution")
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class EstimatorPolicy:
    """Optimal one-shot state estimator for a channel.

    table       : array (|X|, |Y|) of state indices, the estimate for (x, y)
    cost_vector : array (|X|,), per-letter expected distortion d*(x)
    reachable   : bool array (|X|, |Y|), False where P(y | x) = 0; those table
                  entries are fixed to 0 and contribute nothing to the cost
    """

    table: NDArray[np.int64]
    cost_vector: FloatArray
    reachable: NDArray[np.bool_]

    def __post_init__(self):
        for name in ("table", "cost_vector", "reachable"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_prob_rows(rows: FloatArray, field: str) -> None:
    if np.any(rows < 0):
        raise NotAProbability(f"{field}: negative entry")
    if not np.all(np.isfinite(rows)):
        raise NotAProbability(f"{field}: non-finite entry")
    sums = rows.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) >= PROB_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise NotAProbability(f"{field}: row sum off by {worst:.3e} (tolerance {PROB_TOL:.0e})")


def validate_channel(
    transition,
    state_prior,
    distortion,
    *,
    input_size: int | None = None,
    output_size: int | None = None,
    state_size: int | None = None,
) -> ChannelModel:
    """Validate raw arrays and assemble an immutable ``ChannelModel``.

    Probability rows must sum to 1 within ``PROB_TOL``; valid rows are
    renormalized to machine precision.  Declared alphabet sizes, when given,
    are checked against the tensor shapes.
    """
    transition = np.asarray(transition, dtype=np.float64)
    state_prior = np.asarray(state_prior, dtype=np.float64)
    distortion = np.asarray(distortion, dtype=np.float64)

    if transition.ndim != 3:
        raise DimensionMismatch(
            f"transition must be a rank-3 array [x][s][y], got rank {transition.ndim}"
        )
    nx, ns, ny = transition.shape
    if state_prior.shape != (ns,):
        raise DimensionMismatch(
            f"state_prior has length {state_prior.size}, transition expects {ns} states"
        )
    if distortion.shape != (ns, ns):
        raise DimensionMismatch(
            f"distortion has shape {distortion.shape}, expected ({ns}, {ns})"
        )
    declared = {"x": (input_size, nx), "y": (output_size, ny), "s": (state_size, ns)}
    for axis, (given, actual) in declared.items():
        if given is not None and given != actual:
            raise DimensionMismatch(f"declared size {axis}={given} but tensors imply {actual}")

    _check_prob_rows(transition, "transition")
    _check_prob_rows(state_prior[None, :], "state_prior")
    if not np.all(np.isfinite(distortion)):
        raise NegativeDistortion("distortion: non-finite entry")
    if np.any(distortion < 0):
        raise NegativeDistortion("distortion: negative entry")

    transition = transition / transition.sum(axis=-1, keepdims=True)
    state_prior = state_prior / state_prior.sum()
    return ChannelModel(transition, state_prior, distortion)


def _as_probs(px, size: int, what: str = "input distribution") -> FloatArray:
    if isinstance(px, InputDistribution):
        probs = px.probs
    else:
        probs = InputDistribution(np.asarray(px, dtype=np.float64)).probs
    if probs.size != size:
        raise DimensionMismatch(f"{what} has length {probs.size}, expected {size}")
    return probs


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def output_marginal(model: ChannelModel, px_or_letter) -> FloatArray:
    """Output distribution P(y | x) for a letter, or P(y) for an input law."""
    if isinstance(px_or_letter, (int, np.integer)):
        x = int(px_or_letter)
        if not 0 <= x < model.input_size:
            raise DimensionMismatch(f"input letter {x} outside alphabet of size {model.input_size}")
        return model.output_given_input[x]
    probs = _as_probs(px_or_letter, model.input_size)
    return probs @ model.output_given_input


def state_posterior(model: ChannelModel, x: int, y: int) -> FloatArray:
    """P(s | x, y) by Bayes rule on the single-letter channel law."""
    if not (0 <= x < model.input_size and 0 <= y < model.output_size):
        raise DimensionMismatch("letter index outside alphabet")
    joint = model.transition[x, :, y] * model.state_prior
    total = joint.sum()
    if total <= 0.0:
        raise ZeroProbabilityConditioning(
            f"P(y={y} | x={x}) = 0; posterior undefined for this pair"
        )
    return joint / total


def optimal_estimator(model: ChannelModel) -> EstimatorPolicy:
    """Best state estimate per (input, output) pair and its cost vector.

    For each (x, y) the estimate minimizes the posterior expected distortion
    sum_s P(s | x, y) d(s, s_hat); ties go to the smallest state index.  The
    cost vector is d*(x) = sum_y P(y | x) min_s_hat E[d | x, y], the expected
    distortion of this estimator when letter x is sent.  Pairs with
    P(y | x) = 0 are flagged unreachable and contribute nothing.

    The policy is computed once per model and cached on it, so every caller
    shares the same (read-only) arrays.  Working memory is O(|X| |Y|).
    """
    return model._estimator


def batch_mutual_information(model: ChannelModel, batch: FloatArray) -> FloatArray:
    """I(X; Y) in nats for every row of a (T, |X|) batch of input laws.

    I = H(Y) + sum_x p(x) sum_y P(y|x) log P(y|x), with 0 log 0 = 0; the
    per-letter terms are cached on the model.  Values are clipped at 0
    against -1e-17 style rounding noise.
    """
    py = batch @ model.output_given_input
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(py > 0, -py * np.log(py), 0.0).sum(axis=1)
    return np.maximum(0.0, ent + batch @ model._row_terms)


def mutual_information(model: ChannelModel, px) -> float:
    """I(X; Y) in nats under the given input law: the one-row case of
    ``batch_mutual_information``."""
    probs = _as_probs(px, model.input_size)
    return float(batch_mutual_information(model, probs[None, :])[0])


def average_cost(px, policy: EstimatorPolicy) -> float:
    """Expected estimation cost sum_x p(x) d*(x)."""
    probs = _as_probs(px, policy.cost_vector.size)
    return float(probs @ policy.cost_vector)


# ---------------------------------------------------------------------------
# super-symbol construction
# ---------------------------------------------------------------------------


def block_to_super_symbol(model: ChannelModel, block_len: int) -> ChannelModel:
    """Channel for a block of uses that share one state realization.

    The block channel has inputs X^K, outputs Y^K and, conditional on the
    state, factorizes across positions: P(y_block | x_block, s) =
    prod_k P(y_k | x_k, s).  Tuples map to indices big-endian (first use most
    significant), so the all-zeros tuple is index 0.  Rates computed on the
    result are per super-symbol; divide by ``block_len`` for per-use values.

    Raises ``AlphabetOverflow`` before allocating anything when the dense
    tensor |X|^K |S| |Y|^K exceeds ``DENSE_ENTRY_CAP`` entries.  The tensor
    is the only full-size allocation.  Each state's Kronecker power is built
    one level at a time, each level written as |X| |Y| strided multiplies of
    the level below by one entry of P(. | ., s), and the last level straight
    into the tensor; the largest temporary is level K - 1, 1 / (|X| |Y|) of
    a state's slice.  The tensor's rows, products of validated rows, are
    then renormalized in place.
    """
    if block_len < 1:
        raise DimensionMismatch("block_len must be >= 1")
    nx, ns, ny = model.transition.shape
    # With |X| |Y| >= 2 the count passes the cap by K = the cap's bit length,
    # so a longer block is counted at that length: a lower bound that stays
    # a small integer (the exact count of K = 10**4 has over 6,000 digits).
    counted = min(block_len, DENSE_ENTRY_CAP.bit_length())
    entries = ns * (nx * ny) ** counted
    if entries > DENSE_ENTRY_CAP:
        raise AlphabetOverflow(
            f"dense super-symbol transition |X|^K |S| |Y|^K = "
            f"{'' if counted == block_len else 'at least '}{entries} entries exceeds cap {DENSE_ENTRY_CAP}"
        )
    transition = np.empty((nx**block_len, ns, ny**block_len))
    for s in range(ns):
        mat = model.transition[:, s, :]
        power = np.ones((1, 1))  # the Kronecker power of mat built so far
        for level in range(1, block_len + 1):
            # kron(power, mat)[i nx + k, j ny + l] = power[i, j] mat[k, l]:
            # one strided run per entry of mat, as long as power itself.
            out = transition[:, s, :] if level == block_len else np.empty((nx**level, ny**level))
            for k in range(nx):
                for l in range(ny):
                    np.multiply(power, mat[k, l], out=out[k::nx, l::ny])
            power = out
    transition /= transition.sum(axis=-1, keepdims=True)
    return ChannelModel(transition, model.state_prior, model.distortion)
