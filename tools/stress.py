"""Stress the budget rule and the budgeted solver with random budget sets.

    python tools/stress.py --seed 2 --draws 100000 > seed2.txt
    diff parent-seed2.txt seed2.txt

Each draw ``i`` of ``rng = np.random.default_rng(seed)`` takes, in order:
``nx, m, ns, ny`` from ``rng.integers`` over [2, 7), [1, 4), [2, 4) and
[2, 5); a channel ``validate_channel(rng.dirichlet(np.full(ny, 0.5),
size=(nx, ns)), rng.dirichlet(np.ones(ns)), 1 - np.eye(ns))``; m cost rows
by ``i % 3``: 0 draws each entry from {0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3,
0.1, 1}, 1 rounds uniform [0, 1) entries to 0.1, and 2 multiplies a case-0
draw entrywise by a choice of {1, 1 + 1e-12, 1 - 1e-12}; and budgets
``lo + rng.choice([0, 1e-12, 1e-9, 0.3, 0.7], size=m) * (rows.max(1) -
lo)`` with ``lo = rows.min(1)``.  Entries of 1e-12 to 1e-5 and budgets
within 1e-12 of a row's cheapest cost put the simplex and the ``FACE_TOL``
snap on their edges.  One ``multi_constraint_point`` call solves each draw,
with numpy's ``RuntimeWarning`` raised as an error.

Prints one line per draw, for diffing two checkouts' runs: ``i point``
with the capacity's hex form, a hash of the law, ``constraint_active`` and
the warning; or ``i`` and the exception's type, its ``d_min`` for
``InfeasibleDistortion``, and its message.  Then one ``# count`` line per
outcome class.  An exception that is no ``CapdistError`` (every one of
which has a documented exit code) is undocumented, and the run exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import capdist as cd  # noqa: E402


def draw(rng: np.random.Generator, i: int):
    """(model, cost rows, budgets) of draw ``i``, consuming ``rng`` in the
    order the module docstring gives."""
    nx, m, ns, ny = (int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(2, 4)),
                     int(rng.integers(2, 5)))
    model = cd.validate_channel(rng.dirichlet(np.full(ny, 0.5), size=(nx, ns)), rng.dirichlet(np.ones(ns)),
                                1.0 - np.eye(ns))
    if i % 3 == 1:
        rows = np.round(rng.uniform(0.0, 1.0, (m, nx)), 1)
    else:
        rows = rng.choice([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0], size=(m, nx))
        if i % 3 == 2:
            rows = rows * rng.choice([1.0, 1.0 + 1e-12, 1.0 - 1e-12], size=(m, nx))
    lo = rows.min(axis=1)
    budgets = lo + rng.choice([0.0, 1e-12, 1e-9, 0.3, 0.7], size=m) * (rows.max(axis=1) - lo)
    return model, rows, budgets


def outcome(model, rows: np.ndarray, budgets: np.ndarray) -> tuple[str, str, bool]:
    """(class, line, documented) of one ``multi_constraint_point`` call."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            point = cd.multi_constraint_point(
                model, [cd.CostConstraint(row, float(b)) for row, b in zip(rows, budgets)])
    except Exception as exc:  # noqa: BLE001 - every raise is a recorded outcome
        kind = type(exc).__name__
        d_min = f" d_min={exc.d_min!r}" if isinstance(exc, cd.InfeasibleDistortion) else ""
        return kind, f"{kind}{d_min}: {exc}", isinstance(exc, cd.CapdistError)
    law = hashlib.sha256(point.optimizer.probs.tobytes()).hexdigest()[:16]
    line = f"point {point.capacity.hex()} {law} {point.constraint_active} {point.convergence_warning!r}"
    return "point", line, True


def run(seed: int, n_draws: int) -> int:
    rng = np.random.default_rng(seed)
    counts: Counter[str] = Counter()
    undocumented = 0
    start = time.process_time()
    for i in range(n_draws):
        kind, line, documented = outcome(*draw(rng, i))
        counts[kind] += 1
        undocumented += not documented
        print(f"{i} {line}")
    for kind, n in sorted(counts.items()):
        print(f"# {kind} {n}")
    print(f"seed {seed}: {n_draws} draws, {undocumented} undocumented exception(s),"
          f" {time.process_time() - start:.1f} s CPU", file=sys.stderr)
    return 1 if undocumented else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--draws", type=int, default=3000)
    args = parser.parse_args(argv)
    return run(args.seed, args.draws)


if __name__ == "__main__":
    sys.exit(main())
