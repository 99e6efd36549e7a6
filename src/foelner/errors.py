"""Exception hierarchy shared by all modules, and the seed check of every stochastic run.

PreconditionError maps to CLI exit code 2, ConvergenceError to exit code 3,
InvariantViolation to exit code 4.
"""


class FoelnerError(Exception):
    """Base class for all package errors."""


class PreconditionError(FoelnerError):
    """A documented precondition was violated; the operation was refused."""


class ConvergenceError(FoelnerError):
    """An iterative numerical procedure failed to converge within its cap."""


class InvariantViolation(FoelnerError):
    """A theorem or internal consistency check failed at run time."""


class DescriptorMismatch(PreconditionError):
    """Operands belong to different marked groups."""


class InvalidDescriptor(PreconditionError):
    """Malformed group descriptor (unknown kind or non-positive rank)."""


class InvalidLetter(PreconditionError):
    """Generator index out of range, or a free-group letter used on an abelian group."""


class HeadroomViolation(PreconditionError):
    """Applying an operator would push support beyond the ambient radius.

    Results are never clipped; the operation is refused instead.
    """


class RankDeficiency(PreconditionError):
    """Columns handed to orthonormalization are numerically dependent."""

    def __init__(self, column_index: int, message: str | None = None):
        self.column_index = column_index
        super().__init__(message or f"column {column_index} is numerically dependent on its predecessors")


class SearchSpaceTooLarge(PreconditionError):
    """A run refused for its size: predicted past a bound of foelner.budget, or too long to spell."""


class SeedRequired(PreconditionError):
    """A stochastic command was invoked without an explicit seed."""


def check_seed(what: str, seed: int | None, name: str, count: int) -> None:
    """Refuse a run of `what` with no seed (SeedRequired), or with a negative seed or count of `name`."""
    if seed is None:
        raise SeedRequired(f"{what} requires an explicit seed")
    if seed < 0 or count < 0:
        raise PreconditionError(f"seed and {name} must be >= 0, got {seed} and {count}")
