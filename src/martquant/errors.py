"""Exception types shared across the package."""


class MartquantError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MartquantError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptyCellError(MartquantError):
    """A quantization cell received zero mass (bad initial grid)."""


class SupportError(DomainError):
    """The law carries mass outside the convex hull of the grid."""


class DimensionMismatch(DomainError):
    """Operands live in different dimensions."""


class NotInConvexOrder(MartquantError):
    """Marginals are not in convex order; carries the separating witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(MartquantError):
    """A MOT coupling has more variables than ``mot._MAX_VARIABLES``."""


class HullViolation(MartquantError):
    """A point lies outside a grid's hull by more than the hull slack: a
    query of a point location, or a one-step image of a grid point."""


class OutOfScopeError(MartquantError):
    """Requested configuration is outside the supported feature set."""
