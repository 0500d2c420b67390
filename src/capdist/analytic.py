"""Reference channels with closed-form capacity-distortion tradeoffs.

Three binary-state constructions are provided: the scalar multiplicative
channel y = s * x, its block extension where one state realization governs a
whole block of uses, and the additive mod-2 channel y = x XOR s whose state
estimation is free.  Each comes with the model builder plus the closed-form
optimum, so solver output can be cross-checked against exact expressions.

All rates are in nats.  ``r`` is the probability that the binary state is 1.
"""

from __future__ import annotations

import math

from .channel import ChannelModel, _is_integer, block_to_super_symbol, validate_channel

HAMMING = [[0.0, 1.0], [1.0, 0.0]]


def binary_entropy(t: float) -> float:
    """H(t) = -t log t - (1-t) log(1-t) in nats, 0 at the endpoints."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


def _check_r(r: float, *, allow_zero: bool = False, upper: float = 1.0) -> None:
    lo_ok = r >= 0.0 if allow_zero else r > 0.0
    if not (lo_ok and r <= upper):
        bound = "[0" if allow_zero else "(0"
        raise ValueError(f"r must lie in {bound}, {upper}], got {r}")


def _check_block(r: float, block_len: int) -> None:
    _check_r(r, upper=0.5)
    if not _is_integer(block_len) or block_len < 1:
        raise ValueError(f"block_len must be >= 1 and an integer, got {block_len}")


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def scalar_multiplicative_model(r: float) -> ChannelModel:
    """Binary channel y = s * x with P(s=1) = r and Hamming state distortion.

    Sending x = 0 blanks the output and reveals nothing about s; sending
    x = 1 copies s to the output, so its estimation cost is zero.
    """
    _check_r(r, allow_zero=True)
    transition = [
        [[1.0, 0.0], [1.0, 0.0]],  # x = 0: y = 0 whatever s is
        [[1.0, 0.0], [0.0, 1.0]],  # x = 1: y = s
    ]
    return validate_channel(transition, [1.0 - r, r], HAMMING)


def additive_mod2_model(r: float) -> ChannelModel:
    """Binary channel y = x XOR s with P(s=1) = r and Hamming distortion.

    The receiver recovers s = x XOR y exactly for every input, so the
    estimation cost vector is identically zero and the tradeoff curve is flat
    at the unconstrained capacity log 2 - H(r).
    """
    _check_r(r, allow_zero=True)
    transition = [
        [[1.0, 0.0], [0.0, 1.0]],  # x = 0: y = s
        [[0.0, 1.0], [1.0, 0.0]],  # x = 1: y = 1 - s
    ]
    return validate_channel(transition, [1.0 - r, r], HAMMING)


def block_multiplicative_model(r: float, block_len: int) -> ChannelModel:
    """Super-symbol channel for a block of multiplicative uses sharing one state."""
    return block_to_super_symbol(scalar_multiplicative_model(r), block_len)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def scalar_cd_closed_form(r: float, budget: float) -> tuple[float, float]:
    """Exact tradeoff for the scalar multiplicative channel.

    Returns (capacity in nats, optimal P(x=1)).  With p = P(x=1) the mutual
    information is H(p r) - p H(r) and the estimation cost is (1 - p) r, so
    the budget caps the mass on the silent letter.  Above the threshold

        budget >= r - 1 / (1 + e^{H(r)/r})

    the unconstrained maximizer p = (1/r) / (1 + e^{H(r)/r}) is feasible;
    below it the cost constraint binds and p = 1 - budget / r.
    """
    _check_r(r, upper=0.5)
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    boost = math.exp(binary_entropy(r) / r)
    if budget >= r - 1.0 / (1.0 + boost):
        p = (1.0 / r) / (1.0 + boost)
    else:
        p = 1.0 - budget / r
    return binary_entropy(p * r) - p * binary_entropy(r), p


def scalar_small_d_slope(r: float) -> float:
    """Slope of the scalar tradeoff at zero budget: -log(1 - r) / r."""
    _check_r(r, upper=0.5)
    return -math.log(1.0 - r) / r


def case1_predicate(r: float, block_len: int) -> bool:
    """True when the block optimum never idles: 2^K > 1 + (1-r)^(-1/r).

    In that regime every input letter of the block channel carries positive
    information even at zero estimation cost, the all-zeros letter is unused,
    and the tradeoff is flat in the budget.
    """
    _check_block(r, block_len)
    return 2.0**block_len > 1.0 + math.exp(-math.log(1.0 - r) / r)


def block_cd_closed_form(r: float, block_len: int, budget: float) -> tuple[float, float]:
    """Exact per-use tradeoff for the block multiplicative channel.

    Returns (capacity per channel use in nats, optimal total mass p on the
    nonzero block inputs, spread uniformly over all 2^K - 1 of them).  The
    budget is on the one-estimate-per-block scale -- each block yields a
    single state estimate whose expected distortion is r on the all-zero
    block and 0 otherwise, so the constraint reads (1 - p) r <= budget
    exactly as in the scalar channel, and ``block_multiplicative_model``
    budgets compare directly.  The per-use rate at mass p is

        [ H(p r) + p (r log(2^K - 1) - H(r)) ] / K.

    Case 1 (``case1_predicate`` true): p = 1 regardless of the budget and the
    rate is r log(2^K - 1) / K.  Case 2: above the threshold
    r - 1 / (1 + e^{H(r)/r} / (2^K - 1)) (clamped at zero, where it only
    touches on the case boundary) the interior maximizer applies, below it
    p = 1 - budget / r.
    """
    _check_block(r, block_len)
    if budget < 0.0:
        raise ValueError("budget must be >= 0")
    nonzero = 2.0**block_len - 1.0
    if case1_predicate(r, block_len):
        p = 1.0
    else:
        interior = 1.0 / (1.0 + math.exp(binary_entropy(r) / r) / nonzero)
        threshold = max(r - interior, 0.0)
        p = interior / r if budget >= threshold else 1.0 - budget / r
    rate = binary_entropy(p * r) + p * (r * math.log(nonzero) - binary_entropy(r))
    return rate / block_len, p


def training_rate(r: float, block_len: int) -> float:
    """Per-use rate of the train-then-transmit scheme at zero distortion.

    One use per block is spent sounding the state; the remaining K - 1 uses
    carry log 2 nats each whenever the state is on, giving
    r log(2^(K-1)) / K.  The joint scheme's zero-budget rate
    r log(2^K - 1) / K is strictly larger for every finite K > 1.
    """
    _check_block(r, block_len)
    return r * (block_len - 1) * math.log(2.0) / block_len


def block_zero_budget_rate(r: float, block_len: int) -> float:
    """Per-use capacity of the block channel at zero budget: r log(2^K - 1) / K."""
    _check_block(r, block_len)
    if block_len == 1:
        return 0.0
    return r * math.log(2.0**block_len - 1.0) / block_len


def additive_mod2_capacity(r: float) -> float:
    """Unconstrained capacity log 2 - H(r) of the additive mod-2 channel."""
    _check_r(r, allow_zero=True)
    return math.log(2.0) - binary_entropy(r)
