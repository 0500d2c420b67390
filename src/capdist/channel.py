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

import mmap
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
# stay within it up to K = 12.  On a block that ``block_to_super_symbol``
# maps (``_MAPPED_PAGE_SHARE``) the 256 MiB are address space, not resident
# memory: only the pages its scatter writes are committed.
DENSE_ENTRY_CAP = 2**25

# A channel whose P(y | x) has at most this share of nonzero entries keeps
# them as a ``_Support`` (``ChannelModel._support``), found from the nonzeros
# of the transition; nothing else picks the format.  A block whose Kronecker
# factors give at most this share of candidate cells gets the same support,
# bit for bit, from the factors' nonzeros when it is built, and its tensor
# is never scanned.  Its estimator, row terms, mutual information and the
# solver's scores are then derived at O(nonzeros).  A score on the support
# costs about 11 ns per nonzero plus 9 us; a dense one about 0.5 ns per
# entry plus 5 us (one core of a 2-vCPU x86-64 VM), so at a share of 1/4 the
# support was 4-6 times slower, and the share pays from about 1/20 on large
# matrices and lower on small ones.  Block channels of the scalar family
# have 2**(K+1) - 1 nonzeros of 4**K, from 2**K candidates per state, and
# take the support from K = 7 on, from their factors; a K = 11 scan of the
# 64 MiB tensor took 13-14 ms.  Dirichlet rows have no zeros.  The same
# share decides how ``block_to_super_symbol`` writes a state: it scatters
# the products of the factor's nonzeros into a zeroed tensor when they fill
# at most this share of the state's slice (the scalar family from K = 6 on),
# and writes every entry by strided runs otherwise.  A K = 11 block of the
# scalar family then builds and is read once in about 19 ms of CPU, against
# 42 ms strided; K = 9 and 10 take 1.1 and 3.1 ms, against 2.3 and 7.3.
SUPPORT_DENSITY = 1 / 64

# Entries of a state's slice that ``block_to_super_symbol`` writes as one
# run when it strides the state (a state it scatters takes no runs), 256 KiB,
# so that its |X| |Y| strided writes stay in cache: dense Dirichlet bases,
# 2 x 2 x 2 at K = 11 and 2 x 1 x 2 at K = 12, built and read once in 39.3
# and 99.1 ms in runs, 41.8 and 110.4 ms written whole (process CPU, median
# of 11 alternated builds, 2-vCPU x86-64 VM).
_RUN_ENTRIES = 2**15

# ``block_to_super_symbol`` puts a block's tensor on a private anonymous
# mapping, advised off huge pages, when every state is scattered and the
# cells they write number at most this share of the tensor's pages; any
# other tensor comes from ``np.zeros`` or ``np.empty``.  numpy advises huge
# pages for arrays of 4 MiB or more, so under a THP mode of ``madvise`` each
# 2 MiB region that a scatter touches is committed whole; on the mapping a
# written 4 KiB page is committed alone, and a read of an untouched one maps
# the kernel's zero page.  The scalar family writes every page at K = 9,
# half at K = 10, a quarter at K = 11 and an eighth at K = 12.  One build in
# a fresh process took 10-33 ms of thread CPU and 62 MB of peak RSS growth
# on huge pages at K = 11, 9.5-10.6 ms and 16 MB mapped; 34-183 ms and
# 254 MB at K = 12, 19-26 ms and 32 MB mapped (6 alternated runs, 2-vCPU
# x86-64 VM, THP mode ``madvise``).  A full read and the release cost more,
# since they take the pages one by one: at K = 11 a read took 9.7-10.2 ms
# against 6.7-8.0, and a release 0.9 ms, 1.4 ms after a full read, against
# 0.15 ms on huge pages.  At K <= 10 the mapping saves little and
# loses glibc's heap reuse across builds: repeated K = 9 and 10 builds in
# one process took 0.6 and 1.2-1.7 ms from ``np.zeros``, 1.8-2.1 and
# 3.9-5.3 ms mapped.
_MAPPED_PAGE_SHARE = 1 / 4

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

    Instances are immutable and keep float64 arrays uncopied, made read-only,
    as ``block_to_super_symbol`` needs; build them through ``validate_channel``,
    which checks the probability and shape invariants and copies the arrays.
    """

    transition: FloatArray
    state_prior: FloatArray
    distortion: FloatArray

    def __post_init__(self):
        for name in ("transition", "state_prior", "distortion"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _check_shapes(self.transition, self.state_prior, self.distortion)

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
        """P(y | x) with the state averaged out, shape (|X|, |Y|), computed on
        first read.  On a channel with a support (``_support``) capdist reads
        the support instead, and never builds this matrix."""
        pyx = np.einsum("xsy,s->xy", self.transition, self.state_prior)
        pyx.setflags(write=False)
        return pyx

    @cached_property
    def _row_terms(self) -> FloatArray:
        """Per-row sum_y P(y|x) log P(y|x), with 0 log 0 = 0, computed on
        first use.  On a support it is a bincount of v log v over the
        nonzeros v.  Otherwise the log is taken at the positive entries of
        the dense P(y|x) only, and the sums run over whole rows, zeros
        included, as ``scipy.special.xlogy`` rows would."""
        support = self._support
        if support is not None:
            values = support.values
            terms = np.bincount(support.rows, weights=values * np.log(values), minlength=self.input_size)
        else:
            pyx = self.output_given_input
            # One float temporary, logged in place; the rest stay 0 and weigh
            # in as 0 * 0.
            terms = np.zeros_like(pyx)
            np.log(pyx, out=terms, where=pyx > 0)
            terms *= pyx
            terms = terms.sum(axis=1)
        terms.setflags(write=False)
        return terms

    @property
    def _pyx(self) -> FloatArray | _Support:
        """P(y|x) as the solver and mutual information read it: the support, if any, else dense."""
        return self.output_given_input if self._support is None else self._support

    @cached_property
    def _support(self) -> _Support | None:
        """The nonzero entries of P(y|x) in row-major order, or None when
        more than ``SUPPORT_DENSITY`` of them are nonzero; computed on first
        use from the transition, without building P(y|x), unless
        ``block_to_super_symbol`` found it from its factors."""
        n_x, n_y = self.input_size, self.output_size
        # Every row sums to 1, so it has a nonzero: |X| is a lower bound on
        # the count, and it rules out small channels without a pass.
        if n_x > SUPPORT_DENSITY * n_x * n_y:
            return None
        # P(y|x) can be nonzero only where a state of positive prior has a
        # nonzero transition.  A flat index search on a boolean mask: np.nonzero
        # on a float matrix takes about 9 times as long.
        mask = np.zeros((n_x, n_y), dtype=bool)
        for s in np.flatnonzero(self.state_prior > 0):
            mask |= self.transition[:, s, :] != 0
        if np.count_nonzero(mask) > SUPPORT_DENSITY * mask.size:
            return None
        return _support_among(self.transition, self.state_prior, *np.divmod(np.flatnonzero(mask), n_y))

    @cached_property
    def _estimator(self) -> EstimatorPolicy:
        """The policy ``optimal_estimator`` returns, computed on first use:
        only its cost vector, the least posterior risks (``_risk``) summed
        over y, per row block or by a bincount per row on a support."""
        channel = (self.transition, self.state_prior, self.distortion, self._support)
        if channel[3] is None:
            cost = np.concatenate([risk.min(axis=1).sum(axis=1) for _, risk in _risk_blocks(*channel)])
        else:
            [((rows, _), risk)] = _risk_blocks(*channel)
            cost = np.bincount(rows, weights=risk.min(axis=1), minlength=self.input_size)
        cost.setflags(write=False)
        return EstimatorPolicy(cost, channel)


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

    cost_vector : array (|X|,), per-letter expected distortion d*(x)
    table       : array (|X|, |Y|) of state indices, the estimate for (x, y)
    reachable   : bool array (|X|, |Y|), False where P(y | x) = 0; those table
                  entries are fixed to 0 and contribute nothing to the cost

    A solve reads only ``cost_vector``.  ``table`` and ``reachable`` are
    derived on first read from ``_channel``, the model's arrays and support:
    not the model, which caches its policy, so a reference back to it would
    keep a dropped model alive until the cycle collector ran.
    """

    cost_vector: FloatArray
    _channel: tuple

    @cached_property
    def table(self) -> NDArray[np.int64]:
        table = np.zeros(self._channel[0].shape[::2], dtype=np.int64)  # (|X|, |Y|)
        for cells, risk in _risk_blocks(*self._channel):
            table[cells] = risk.argmin(axis=1)  # the first minimum: ties go to the smallest state
        table.setflags(write=False)
        return table

    @cached_property
    def reachable(self) -> NDArray[np.bool_]:
        # P(y | x) > 0: the support's cells, else by the einsum of
        # ``ChannelModel.output_given_input``.
        transition, state_prior, _, support = self._channel
        if support is None:
            reachable = np.einsum("xsy,s->xy", transition, state_prior) > 0.0
        else:
            reachable = np.zeros(transition.shape[::2], dtype=bool)
            reachable[support.rows, support.cols] = True
        reachable.setflags(write=False)
        return reachable


@dataclass(frozen=True, eq=False)
class _Support:
    """The nonzeros of a sparse P(y|x): read-only ``rows``, ``cols`` and
    ``values``, the matrix's ``shape``, and ``size``, the nonzero count.
    Its products are bincounts over the nonzeros, summed in entry order:
    ``law @ S`` for a law or a (k, |X|) stack of them, ``S @ v``, and
    ``S[keep]``, the rows where ``keep`` is true, renumbered in order."""

    rows: NDArray[np.intp]
    cols: NDArray[np.intp]
    values: FloatArray
    shape: tuple[int, int]

    __array_ufunc__ = None  # ndarray @ support defers to __rmatmul__ (NEP 13)

    def __post_init__(self):
        for arr in (self.rows, self.cols, self.values):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return self.values.size

    def __matmul__(self, v: FloatArray) -> FloatArray:
        return np.bincount(self.rows, weights=self.values * v[self.cols], minlength=self.shape[0])

    def __rmatmul__(self, laws: FloatArray) -> FloatArray:
        n_y = self.shape[1]
        if laws.ndim == 1:
            return np.bincount(self.cols, weights=laws[self.rows] * self.values, minlength=n_y)
        # One bincount for the stack: law a's entries are binned at a |Y| + y.
        k = len(laws)
        bins = (np.arange(k)[:, None] * n_y + self.cols).ravel()
        out = np.bincount(bins, weights=(laws[:, self.rows] * self.values).ravel(), minlength=k * n_y)
        return out.reshape(k, n_y)

    def __getitem__(self, keep: NDArray[np.bool_]) -> _Support:
        on = keep[self.rows]
        rows = np.cumsum(keep)[self.rows[on]] - 1
        return _Support(rows, self.cols[on], self.values[on], (int(np.count_nonzero(keep)), self.shape[1]))


def _support_among(transition: FloatArray, state_prior: FloatArray, rows, cols) -> _Support:
    """The support of P(y|x) among candidate cells (rows, cols) in row-major
    order that hold every nonzero of P(y|x): the cells nonzero in some state
    of positive prior, valued by the same state-major einsum as
    ``ChannelModel.output_given_input``, so the values are its entries bit
    for bit.  A product that underflows leaves a zero, which is not on the
    support."""
    per_state = np.ascontiguousarray(transition[rows, :, cols].T)
    # Drop the other cells before the einsum, so that it reads the arrays a
    # scan of the transition gives it.
    nonzero = np.any(per_state[state_prior > 0] != 0, axis=0)
    rows, cols, per_state = rows[nonzero], cols[nonzero], np.ascontiguousarray(per_state[:, nonzero])
    values = np.einsum("sn,s->n", per_state, state_prior)
    on = values > 0
    return _Support(rows[on], cols[on], values[on], (transition.shape[0], transition.shape[2]))


def _risk(state_prior: FloatArray, distortion: FloatArray, per_state: FloatArray) -> FloatArray:
    """Posterior risks sum_s P(y | x, s) P(s) d(s, t), unnormalized so that a
    zero-probability output never divides by zero, and summed in s order so a
    cell's risks are the same bits wherever it is taken.  P(y | x, s) has the
    state on axis 1, (n, |S|) cells or (rows, |S|, |Y|); t takes that axis."""
    tail = (1,) * (per_state.ndim - 2)
    weighted = per_state * state_prior.reshape(-1, *tail)
    risk = weighted[:, :1] * distortion[0].reshape(-1, *tail)
    for s in range(1, state_prior.size):
        risk += weighted[:, s : s + 1] * distortion[s].reshape(-1, *tail)
    return risk


def _risk_blocks(transition, state_prior, distortion, support):
    """(cells, risks) pairs covering a channel: a support's (rows, cols) at
    once, or slices of rows in blocks of about 2**15 risks (at least a row)."""
    if support is not None:
        rows, cols = support.rows, support.cols
        yield (rows, cols), _risk(state_prior, distortion, transition[rows, :, cols])
        return
    step = max(1, (1 << 15) // transition[0].size)  # a row has |S| |Y| risks
    for lo in range(0, len(transition), step):
        yield slice(lo, lo + step), _risk(state_prior, distortion, transition[lo : lo + step])


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_prob_rows(rows: FloatArray, field: str) -> None:
    if (rows < 0).any():
        raise NotAProbability(f"{field}: negative entry")
    if not np.isfinite(rows).all():
        raise NotAProbability(f"{field}: non-finite entry")
    off = np.abs(rows.sum(axis=-1) - 1.0)
    if (off >= PROB_TOL).any():
        raise NotAProbability(f"{field}: row sum off by {off.max():.3e} (tolerance {PROB_TOL:.0e})")


def _check_shapes(transition: FloatArray, state_prior: FloatArray, distortion: FloatArray) -> None:
    """The shape rule of a channel: transition is [x][s][y], and the prior
    and the distortion run over its states; else ``DimensionMismatch``."""
    if transition.ndim != 3:
        raise DimensionMismatch(f"transition must be a rank-3 array [x][s][y], got rank {transition.ndim}")
    ns = transition.shape[1]
    if state_prior.shape != (ns,):
        raise DimensionMismatch(f"state_prior has length {state_prior.size}, transition expects {ns} states")
    if distortion.shape != (ns, ns):
        raise DimensionMismatch(f"distortion has shape {distortion.shape}, expected ({ns}, {ns})")


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
    renormalized to machine precision, zeros stored as +0.0.  Declared
    alphabet sizes, when given, are checked against the tensor shapes.
    """
    transition = np.asarray(transition, dtype=np.float64)
    state_prior = np.asarray(state_prior, dtype=np.float64)
    # A copy: the model freezes its arrays, and this one may be the caller's.
    distortion = np.array(distortion, dtype=np.float64)

    _check_shapes(transition, state_prior, distortion)
    nx, ns, ny = transition.shape
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
    transition += 0.0  # -0.0 + 0.0 is +0.0
    state_prior = state_prior / state_prior.sum()
    return ChannelModel(transition, state_prior, distortion)


def _is_integer(size) -> bool:
    """Whether a size (a block length, a sample count) is an int or a numpy
    integer: a float, even an integral one, or a bool is not."""
    return isinstance(size, (int, np.integer)) and not isinstance(size, bool)


def _as_probs(px, size: int) -> FloatArray:
    if isinstance(px, InputDistribution):
        probs = px.probs
    else:
        probs = InputDistribution(np.asarray(px, dtype=np.float64)).probs
    if probs.size != size:
        raise DimensionMismatch(f"input distribution has length {probs.size}, expected {size}")
    return probs


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------


def output_marginal(model: ChannelModel, px_or_letter) -> FloatArray:
    """Output distribution P(y | x) for a letter (its point mass), or P(y)
    for an input law: a fresh array, the law times ``ChannelModel._pyx``."""
    if isinstance(px_or_letter, (int, np.integer)):
        x = int(px_or_letter)
        if not 0 <= x < model.input_size:
            raise DimensionMismatch(f"input letter {x} outside alphabet of size {model.input_size}")
        px_or_letter = np.eye(1, model.input_size, x)[0]
    return _as_probs(px_or_letter, model.input_size) @ model._pyx


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
    shares the same (read-only) arrays.  Computing it takes O(|X|) memory
    beyond blocks of 2**15 risks; ``table`` and ``reachable`` wait for a read.
    """
    return model._estimator


def batch_mutual_information(model: ChannelModel, batch: FloatArray) -> FloatArray:
    """I(X; Y) in nats for every row of a (T, |X|) batch of input laws.

    I = H(Y) + sum_x p(x) sum_y P(y|x) log P(y|x), with 0 log 0 = 0, read on
    the support of P(y|x) where the model has one; the per-letter terms are
    cached on the model.  Values are clipped at 0 against -1e-17 rounding.
    """
    py = batch @ model._pyx
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
    is built in full and is the only full-size allocation.  A state is
    written one of two ways:

    - scattered, when its factor's nnz_s nonzeros give nnz_s^K <=
      ``SUPPORT_DENSITY`` (|X| |Y|)^K product cells: their indices and values
      are formed by K outer products over the nonzeros and assigned into a
      zeroed tensor, O(nnz_s^K) work and memory;
    - strided, otherwise (Dirichlet-type dense factors): the Kronecker power
      is built one level at a time, each level written as |X| |Y| strided
      multiplies of the level below by one entry of P(. | ., s); the largest
      temporary is level K - 1, 1 / (|X| |Y|) of a state's slice, and the
      last level goes straight into the tensor in runs of about
      ``_RUN_ENTRIES`` entries.

    Both write the products 1.0 P(y_1 | x_1, s) ... P(y_K | x_K, s) taken
    left to right, as in a stack of ``np.kron`` powers, so the tensor is the
    same bits either way for factors as ``validate_channel`` stores them; a
    raw factor with negative, -0.0 or non-finite entries gets +0.0 off its
    nonzeros' products when scattered.  The tensor is zeroed only when some
    state is scattered.  When every state is, and the cells they write are
    at most ``_MAPPED_PAGE_SHARE`` of the tensor's pages, the zeroed tensor
    is a private anonymous mapping kept off huge pages, so that only the
    pages the scatter writes are resident: the scalar family at K = 11
    commits 16 MB of its 64 MiB, and at K = 12 32 MB of 256 MiB, and a
    read of the untouched pages maps the kernel's zero page.  Rows
    are not renormalized: a raw ``ChannelModel`` whose rows miss 1 gives a
    block whose rows miss it too.

    When the state powers have at most ``SUPPORT_DENSITY`` of P(y | x)'s
    cells as candidates, the product cells of each factor's nonzeros, the
    result arrives with its support (``ChannelModel._support``) taken from
    those cells, the same support a scan of the tensor finds;
    otherwise the scan runs on first use.
    """
    if not _is_integer(block_len) or block_len < 1:
        raise DimensionMismatch(f"block_len must be an integer >= 1, got {block_len}")
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
    n_cols, sparse_cells = ny**block_len, SUPPORT_DENSITY * (nx * ny) ** block_len
    # A state's power is nonzero only at the products of its factor's nonzero
    # cells, nnz_s^K of them.  Their union over the states of positive prior
    # holds every nonzero of P(y|x); when their count fits under the density,
    # so does the scan's count, and both give the same support.
    candidates = np.count_nonzero(model.transition, axis=(0, 2)) ** block_len
    sparse = candidates <= sparse_cells
    shape = (nx**block_len, ns, n_cols)
    nbytes = 8 * entries
    if (sparse.all() and hasattr(mmap, "MAP_PRIVATE")
            and candidates.sum() <= _MAPPED_PAGE_SHARE * nbytes / mmap.PAGESIZE):
        pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            pages.madvise(mmap.MADV_NOHUGEPAGE)
        transition = np.frombuffer(pages).reshape(shape)
    else:
        # Only a scattered state needs the cells it leaves to be zero.
        transition = (np.zeros if sparse.any() else np.empty)(shape)
    step = max(1, _RUN_ENTRIES // (nx * n_cols))  # rows of level K - 1 per run
    flat = []
    for s in range(ns):
        mat = model.transition[:, s, :]
        if sparse[s]:
            rows, cols = np.nonzero(mat)
            block_rows, block_cols, values = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1)
            for _ in range(block_len):
                block_rows = (block_rows[:, None] * nx + rows).ravel()
                block_cols = (block_cols[:, None] * ny + cols).ravel()
                values = (values[:, None] * mat[rows, cols]).ravel()
            if model.state_prior[s] > 0:
                flat.append(block_rows * n_cols + block_cols)
            transition[block_rows, s, block_cols] = values
            continue
        power = np.ones((1, 1))  # the Kronecker power of mat built so far
        for level in range(1, block_len):
            power = _kron_into(np.empty((nx**level, ny**level)), power, mat)
        for lo in range(0, len(power), step):
            _kron_into(transition[lo * nx : (lo + step) * nx, s, :], power[lo : lo + step], mat)
    built = ChannelModel(transition, model.state_prior, model.distortion)
    if candidates[model.state_prior > 0].sum() <= sparse_cells:
        # A sort and a neighbour mask: np.unique on int64 takes a hash-table
        # path that is about ten times slower on a few thousand cells.
        cells = np.sort(np.concatenate(flat))
        rows, cols = np.divmod(cells[np.diff(cells, prepend=-1) != 0], n_cols)
        vars(built)["_support"] = _support_among(transition, model.state_prior, rows, cols)
    return built


def _kron_into(out: FloatArray, power: FloatArray, mat: FloatArray) -> FloatArray:
    """kron(power, mat) written into ``out`` and returned:
    kron[i nx + k, j ny + l] = power[i, j] mat[k, l], one strided run per
    entry of mat, as long as power itself."""
    nx, ny = mat.shape
    for k in range(nx):
        for l in range(ny):
            np.multiply(power, mat[k, l], out=out[k::nx, l::ny])
    return out
