"""Seeded inputs and op lists for the three workloads.

An op is one public ``capdist`` call plus the check of its result.  A
workload is an op list that the worker runs in order, from the start, until
the run's time is up, so every run of a workload covers the same kinds of
op in the same proportions.

Random channels come from a fixed library drawn once from the distribution
the workload names (``LIBRARY_SEED``).  The run's ``--seed`` relabels the
input, state and output letters of every library channel (which changes
the arrays but not the problem), and in ``large`` draws the block and
simulation parameters.  The solver's time on a random channel is
chaotic: drawing the channels afresh per seed, or even mixing 2 % of a
seeded channel into each, moves ops between 0.1 s and the deadline, and
the first 110 ops of ``points`` then took 13.6 s under one seed and 32.6 s
under another (2-vCPU x86-64 VM).  A regression bound needs runs that repeat the same work,
so the built-in family points of ``points``, which sit at the median op
time, also take their parameters from a fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import capdist as cd

import checks

LIBRARY_SEED = 8011136
HAMMING2 = 1.0 - np.eye(2)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Per-op deadline, in seconds per budget point solved (a curve of n budgets
# gets n times this), in scaled seconds (see worker.py).  Each lies in a
# wide gap of its workload's op times, so whether an op meets it does not
# depend on the run's timing noise.  points: the ops that finish take at
# most 3.4 s and one |X| = 8 point runs past 18 s (seeds 1-4 and 11-13);
# outer: at most about 5 s, then one random compound op at 20 s; large:
# over 10x a K = 11 point.
DEADLINE_S = {"points": 6.0, "outer": 10.0, "large": 10.0}


@dataclass
class Op:
    label: str  # "<public function>/<input family>", the reporting stratum
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # result -> None, or why it fails
    budgets: int = 1  # budget points solved; scales the deadline


def _library_channel(lib, nx: int, ns: int, ny: int, n_priors: int = 1):
    """Dirichlet(1) transition rows and priors, Hamming state distortion."""
    transition = lib.dirichlet(np.ones(ny), size=(nx, ns))
    priors = [lib.dirichlet(np.ones(ns)) for _ in range(n_priors)]
    return transition, priors, 1.0 - np.eye(ns)


def _relabel(rng, transition, priors, distortion):
    """The same channel with its state and output letters permuted."""
    _, ns, ny = transition.shape
    ps, py = rng.permutation(ns), rng.permutation(ny)
    return transition[:, ps][:, :, py], [p[ps] for p in priors], distortion[ps][:, ps]


def _random_channel(lib, rng, nx, ns, ny):
    transition, (prior,), distortion = _relabel(rng, *_library_channel(lib, nx, ns, ny))
    return cd.validate_channel(transition, prior, distortion)


def _capacity_cost(model, iters: int = 100) -> float:
    """d*.p at the (approximate) unconstrained capacity achiever.

    Plain capacity iteration in numpy; it only places the budgets, so it
    needs no certificate.
    """
    pyx = model.output_given_input
    p = np.full(model.input_size, 1.0 / model.input_size)
    for _ in range(iters):
        p = p * np.exp(checks._kl_rows(pyx, p @ pyx))
        p /= p.sum()
    return float(p @ cd.optimal_estimator(model).cost_vector)


def _scalar_cost(r: float) -> np.ndarray:
    return np.array([r, 0.0])


def _block_cost(r: float, block_len: int) -> np.ndarray:
    cost = np.zeros(2**block_len)
    cost[0] = r  # only the all-zeros block leaves the state unobserved
    return cost


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def _point_op(label, model, budget, check_one):
    """``model`` is a channel, or a dict whose "model" entry is read at call
    time (the channel an earlier op of the ``large`` round built)."""
    get = (lambda: model["model"]) if isinstance(model, dict) else (lambda: model)
    return Op(label, lambda: cd.capacity_distortion_point(get(), budget),
              lambda pt: check_one(budget, pt))


def _curve_op(label, model, n, check_one):
    return Op(label, lambda: cd.cd_curve(model, n),
              lambda curve: checks.check_curve(curve, check_one), budgets=n)


def _scalar_checker(r):
    return lambda b, pt: checks.check_point_closed(
        b, pt, cd.scalar_cd_closed_form(r, b)[0], _scalar_cost(r), checks.block_mi(pt.optimizer.probs, r))


def _mod2_checker(r):
    return lambda b, pt: checks.check_point_closed(
        b, pt, cd.additive_mod2_capacity(r), np.zeros(2), checks.mod2_mi(pt.optimizer.probs, r))


def _block_checker(r, k):
    return lambda b, pt: checks.check_point_closed(
        b, pt, cd.block_cd_closed_form(r, k, b)[0], _block_cost(r, k),
        checks.block_mi(pt.optimizer.probs, r), scale=k)


def points_ops(seed: int, n_channels: int = 40) -> list[Op]:
    """Per library channel: five random-channel points (face, 10/50/90 % of
    [d_min, d_max], slack) interleaved with two scalar points where the
    budget binds, a mod-2 and a block point; every fourth channel adds a
    5-budget random curve and a 20-budget family curve.

    About 45 % of these ops take under 5 ms and the rest over 12 ms; with
    half on each side the median would sit in that gap and jump between
    them from run to run."""
    lib = np.random.default_rng(LIBRARY_SEED)
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for i in range(n_channels):
        nx, ns, ny = int(lib.integers(2, 9)), int(lib.integers(2, 4)), int(lib.integers(2, 7))
        model = _random_channel(lib, rng, nx, ns, ny)
        cost = cd.optimal_estimator(model).cost_vector
        d_min, d_max = float(cost.min()), _capacity_cost(model)
        budgets = [d_min, *(d_min + f * (d_max - d_min) for f in (0.1, 0.5, 0.9)), float(cost.max())]
        rnd_check = lambda b, pt, m=model: checks.check_point_dual(m, b, pt)
        label = f"capacity_distortion_point/random|X|={nx}"

        # Family parameters on a fixed low-discrepancy grid over r in [0.1, 0.5].
        r = 0.1 + 0.4 * ((i * GOLDEN) % 1.0)
        scalar = cd.scalar_multiplicative_model(r)
        mod2 = cd.additive_mod2_model(r)
        k = 2 + i % 5
        block = cd.block_multiplicative_model(r, k)
        binding = r - 1.0 / (1.0 + math.exp(cd.binary_entropy(r) / r))  # scalar budgets below bind
        fam = [
            _point_op("capacity_distortion_point/scalar", scalar, 0.3 * binding, _scalar_checker(r)),
            _point_op("capacity_distortion_point/mod2", mod2, 0.5 * r, _mod2_checker(r)),
            _point_op(f"capacity_distortion_point/block K={k}", block, 0.5 * r, _block_checker(r, k)),
            _point_op("capacity_distortion_point/scalar", scalar, 0.7 * binding, _scalar_checker(r)),
        ]
        for j, b in enumerate(budgets):
            ops.append(_point_op(label, model, b, rnd_check))
            if j < len(fam):
                ops.append(fam[j])
        if i % 4 == 3:
            ops.append(_curve_op(f"cd_curve/random|X|={nx}", model, 5, rnd_check))
            which = (i // 4) % 3
            if which == 0:
                ops.append(_curve_op("cd_curve/scalar", scalar, 20, _scalar_checker(r)))
            elif which == 1:
                ops.append(_curve_op("cd_curve/mod2", mod2, 20, _mod2_checker(r)))
            else:
                ops.append(_curve_op(f"cd_curve/block K={k}", block, 20, _block_checker(r, k)))
    return ops


# ---------------------------------------------------------------------------
# outer
# ---------------------------------------------------------------------------

SCALAR_PRIORS = ((0.7, 0.3), (0.6, 0.4))


def _common_min_cost(cost_rows: np.ndarray) -> float:
    """min over input laws of the worst prior's cost (scipy LP)."""
    from scipy.optimize import linprog

    n_theta, n = cost_rows.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=np.hstack([cost_rows, -np.ones((n_theta, 1))]), b_ub=np.zeros(n_theta),
                  A_eq=np.concatenate([np.ones(n), [0.0]])[None, :], b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    return float(res.x[-1])


def outer_ops(seed: int, n_random: int = 24) -> list[Op]:
    """The scalar-family cpud and compound cases, each followed by one
    random compound family (|X| 3-4, 2-3 priors) from the library."""
    lib = np.random.default_rng(LIBRARY_SEED + 1)
    rng = np.random.default_rng(seed)
    scalar = cd.scalar_multiplicative_model(0.3)
    scalar_ops = []
    for r in (0.1, 0.3, 0.5):
        transition, (prior,), distortion = _relabel(rng, scalar.transition, [np.array([1 - r, r])], HAMMING2)
        model = cd.validate_channel(transition, prior, distortion)
        slope = -math.log(1.0 - r) / r
        scalar_ops.append(Op("cpud_sup_definition/scalar", lambda m=model: cd.cpud_sup_definition(m),
                             lambda res, m=model, s=slope: checks.check_cpud(m, res, s)))
    rates = tuple(p[1] for p in SCALAR_PRIORS)
    for budget in (0.02, 0.05, 0.1):
        transition, priors, distortion = _relabel(rng, scalar.transition, [np.array(p) for p in SCALAR_PRIORS],
                                                  HAMMING2)
        family = cd.CompoundFamily(transition, tuple(priors), distortion)
        scalar_ops.append(Op("compound_cd/scalar 2 priors", lambda f=family, b=budget: cd.compound_cd(f, b),
                             lambda res, f=family, b=budget: checks.check_compound_scalar(f, b, res, rates)))
    scalar_ops = [scalar_ops[i] for i in (0, 3, 1, 4, 2, 5)]

    random_ops = []
    for i in range(n_random):
        nx, n_theta = int(lib.integers(3, 5)), int(lib.integers(2, 4))
        ns, ny = int(lib.integers(2, 4)), int(lib.integers(2, 5))
        transition, priors, distortion = _relabel(rng, *_library_channel(lib, nx, ns, ny, n_theta))
        fam = cd.CompoundFamily(transition, tuple(priors), distortion)
        cost_rows = np.stack([cd.optimal_estimator(m).cost_vector for m in fam.models])
        lo, hi = _common_min_cost(cost_rows), float(cost_rows.max())
        budget = lo + (0.1, 0.3, 0.6)[i % 3] * (hi - lo)
        random_ops.append(Op(f"compound_cd/random|X|={nx} {n_theta} priors",
                             lambda f=fam, b=budget: cd.compound_cd(f, b),
                             lambda res, f=fam, b=budget: checks.check_compound_random(f, b, res)))
    ops = []
    for i, rnd in enumerate(random_ops):
        ops += [scalar_ops[i % len(scalar_ops)], rnd]
    return ops


# ---------------------------------------------------------------------------
# large
# ---------------------------------------------------------------------------

SIM_SAMPLES = 1_000_000


def large_ops(seed: int, rounds: int = 12) -> list[Op]:
    """Per round: build K = 9, 10, 11 block channels, solve 3 budgets on
    each, then simulate 1e6 samples on the scalar channel and on block
    K = 4, 5, 6 at their closed-form optimal laws."""
    rng = np.random.default_rng(seed)
    built: dict[str, cd.ChannelModel] = {}  # the current block channel

    def build(r, k):
        built.clear()  # release the previous channel before the next build
        built["model"] = cd.block_multiplicative_model(r, k)
        return built["model"]

    ops = []
    for _ in range(rounds):
        for k in (9, 10, 11):
            r = float(rng.uniform(0.1, 0.5))
            ops.append(Op(f"block_multiplicative_model/K={k}", lambda r=r, k=k: build(r, k),
                          lambda m, r=r, k=k: checks.check_block_model(m, r, k)))
            for b in rng.uniform(0.0, r, 3):
                ops.append(_point_op(f"capacity_distortion_point/block K={k}", built, float(b), _block_checker(r, k)))
        for k in (1, 4, 5, 6):
            r = float(rng.uniform(0.1, 0.5))
            budget = float(rng.uniform(0.0, r))
            if k == 1:
                model = cd.scalar_multiplicative_model(r)
                p1 = cd.scalar_cd_closed_form(r, budget)[1]
                probs, cost = np.array([1.0 - p1, p1]), _scalar_cost(r)
            else:
                model = cd.block_multiplicative_model(r, k)
                mass = cd.block_cd_closed_form(r, k, budget)[1]
                probs = np.full(2**k, mass / (2**k - 1))
                probs[0] = 1.0 - mass
                cost = _block_cost(r, k)
            sim_seed = int(rng.integers(2**31))
            ops.append(Op(f"simulate/{'scalar' if k == 1 else f'block K={k}'}",
                          lambda m=model, p=probs, s=sim_seed: cd.simulate(m, p, SIM_SAMPLES, s),
                          lambda rep, m=model, p=probs, c=cost: checks.check_simulation(
                              m, p, c, SIM_SAMPLES, rep)))
    return ops


BUILDERS = {"points": points_ops, "outer": outer_ops, "large": large_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)
