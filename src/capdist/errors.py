"""Exception types shared across the package, all derived from ``CapdistError``."""

from __future__ import annotations


class CapdistError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CapdistError):
    """Tensor shapes disagree with each other or with declared alphabet sizes."""


class NotAProbability(CapdistError):
    """A probability vector has a negative entry or a row sum off by >= 1e-9."""


class NegativeDistortion(CapdistError):
    """A distortion entry is negative or non-finite."""


class ZeroProbabilityConditioning(CapdistError):
    """Posterior requested for an output with zero conditional probability."""


class AlphabetOverflow(CapdistError):
    """Dense super-symbol transition would exceed ``DENSE_ENTRY_CAP`` entries."""


class AlphabetTooLarge(CapdistError):
    """Operation restricted to small alphabets received a larger one."""


class InfeasibleConstraints(CapdistError):
    """No input distribution satisfies every cost budget simultaneously."""


class InfeasibleDistortion(InfeasibleConstraints):
    """A budget set that no input law meets, raised by every budgeted entry
    point (a NaN budget raises ``ValueError``).  ``d_min`` is the least
    budget all rows could share: the cheapest letter's cost for one row,
    min over input laws of the dearest row's cost for several, and None
    when the budgets differ.  A set that the budget rule's game puts within
    ``FACE_TOL`` of feasible carries no ``d_min`` either, where a solve finds
    it empty: budgets at their rows' cheapest costs that share no letter, or
    other rows that no law on those letters meets (a budget below its row's
    cheapest cost on them, or the budget polytope's linear program fails
    its phase 1)."""

    def __init__(self, message: str, d_min: float | None = None):
        super().__init__(message)
        self.d_min = d_min


class SolverNonmonotone(CapdistError):
    """A computed tradeoff curve violated monotonicity or concavity beyond
    tolerance, or a solver step lowered the objective it maximizes."""


class NoZeroCostLetter(CapdistError):
    """Ratio formula needs a zero-cost input letter and none exists."""


class NotCertified(CapdistError):
    """A solver fault: the max-min solver could not certify its duality gap,
    or the simplex failed on its own (a singular basis, an unbounded
    program, or a vertex off the simplex that leaves Frank-Wolfe's law
    summing off 1 by ``PROB_TOL`` or more)."""
