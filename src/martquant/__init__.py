"""Convex-order-preserving finite approximations of martingale dynamics.

The package combines primal (nearest-neighbour) and dual (barycentric
splitting) quantization of 1D laws given by closed-form F, K and partial
second moment M, so that quadratic distortions are exact finite sums with
no numerical integration, closed-form martingale transition
kernels for ARCH dynamics with centered truncated noise, sparse LPs solved
by HiGHS for martingale-optimal-transport price bounds and convex-order
testing (closed form in 1D), and Monte Carlo machinery validating the
truncation/quantization error bounds.
"""

from . import archmc, chain, dual, laws, lp, mot, order, primal, rng
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    EmptyCellError,
    HullViolation,
    MartquantError,
    NotInConvexOrder,
    OutOfScopeError,
    SupportError,
)

__version__ = "0.1.0"

__all__ = [
    "archmc",
    "chain",
    "dual",
    "laws",
    "lp",
    "mot",
    "order",
    "primal",
    "rng",
    "BudgetExceeded",
    "DimensionMismatch",
    "DomainError",
    "EmptyCellError",
    "HullViolation",
    "MartquantError",
    "NotInConvexOrder",
    "OutOfScopeError",
    "SupportError",
]
