"""Exception types shared across the package."""


class MartquantError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MartquantError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptyCellError(MartquantError):
    """A quantization cell received zero mass (bad initial grid)."""


class OutOfHullError(MartquantError):
    """A query point lies outside the convex hull of the grid."""


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
    """Problem size exceeds the configured budget."""


class HullViolation(MartquantError):
    """A one-step image of a grid point escapes the next grid's hull.

    Carries which source point violated and by how much.
    """

    def __init__(self, message, source_index=None, overshoot=0.0):
        super().__init__(message)
        self.source_index = source_index
        self.overshoot = overshoot


class OutOfScopeError(MartquantError):
    """Requested configuration is outside the supported feature set."""
