"""Martingale-optimal-transport bounds on finitely supported marginals.

Given marginals in convex order and a payoff on the product grid, the
infimum and supremum of the expected payoff over all martingale couplings
are linear programs or, equivalently, price bounds consistent with the
marginals.  This module assembles those LPs (any number of marginals,
budget-guarded), solves both senses, and drives the quantization stability
experiment: primal-quantize the first marginal, dual-quantize the second,
and track the bounds as the grids refine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .dual import dual_lloyd_1d
from .errors import BudgetExceeded, DomainError, NotInConvexOrder
from .laws import FiniteAtoms, Law1D
from .order import DiscreteDistribution, convex_order_check, coupling_lp
from .primal import lloyd_1d

__all__ = [
    "MotProblem",
    "MotResult",
    "mot_bounds",
    "stability_experiment",
    "spread_payoff",
    "forward_start_payoff",
    "quadratic_payoff",
]


def spread_payoff(x, y):
    return np.abs(y - x)


def quadratic_payoff(x, y):
    return (y - x) ** 2


def forward_start_payoff(strike: float = 0.0):
    def payoff(x, y):
        return np.maximum(y - x - strike, 0.0)

    return payoff


@dataclass(frozen=True)
class MotProblem:
    """Marginals (in convex order), a payoff, and a variable budget.

    ``payoff`` is either an ndarray of shape ``(N_0, ..., N_n)`` or a
    callable receiving one ``(..., d)`` point block per marginal,
    broadcastable over leading axes.
    """

    marginals: tuple
    payoff: object
    budget: int = 1_000_000

    def __init__(self, marginals, payoff, budget: int = 1_000_000):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise DomainError("need at least two marginals")
        dim = marginals[0].dim
        if any(m.dim != dim for m in marginals):
            raise DomainError("marginals must share one dimension")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "payoff", payoff)
        object.__setattr__(self, "budget", int(budget))

    @property
    def sizes(self) -> tuple:
        return tuple(m.n_atoms for m in self.marginals)

    def cost_tensor(self) -> np.ndarray:
        sizes = self.sizes
        if isinstance(self.payoff, np.ndarray):
            if self.payoff.shape != sizes:
                raise DomainError(
                    f"payoff table shape {self.payoff.shape} != grid sizes {sizes}"
                )
            return np.asarray(self.payoff, dtype=float)
        blocks = []
        n_total = len(sizes)
        for k, marg in enumerate(self.marginals):
            shape = [1] * n_total + [marg.dim]
            shape[k] = sizes[k]
            pts = marg.points.reshape(shape)
            if marg.dim == 1:
                pts = pts[..., 0]
            blocks.append(pts)
        return np.broadcast_to(
            np.asarray(self.payoff(*blocks), dtype=float), sizes
        ).astype(float)


@dataclass(frozen=True)
class MotResult:
    lower: float
    upper: float
    coupling_lower: list
    coupling_upper: list
    marginal_residual: float
    martingale_residual: float
    # iterations of the (min, max) LPs: IPM iterations unless the payoff
    # is zero, see :func:`lp.solve`
    iterations: tuple = field(default=(0, 0))


def _sparse_coupling(x: np.ndarray, sizes, threshold: float = 1e-12) -> list:
    flat = np.flatnonzero(x > threshold)
    return [(tuple(np.unravel_index(f, sizes)), float(x[f])) for f in flat]


def _check_convex_order(marginals):
    for k in range(len(marginals) - 1):
        check = convex_order_check(marginals[k], marginals[k + 1])
        if not check.dominated:
            raise NotInConvexOrder(
                f"marginals {k} and {k + 1} are not in convex order "
                f"(status {check.status})",
                witness=check.witness,
            )


def _multi_marginal_lp(problem: MotProblem):
    """Sparse COO rows: per-marginal masses, then per-prefix martingale
    constraints (one per dimension, sup-normalized like ``coupling_lp``)."""
    import scipy.sparse as sp  # imported on use, like scipy.optimize in lp.solve

    marginals = problem.marginals
    sizes = problem.sizes
    nvar = int(np.prod(sizes))
    d = marginals[0].dim
    index = np.unravel_index(np.arange(nvar), sizes)
    rows, cols, vals = [], [], []
    n_rows = 0
    for k, size in enumerate(sizes):
        rows.append(n_rows + index[k])
        n_rows += size
    cols += [np.arange(nvar)] * len(marginals)
    vals += [np.ones(nvar)] * len(marginals)
    rhs = [m.weights for m in marginals]
    for k in range(len(marginals) - 1):
        # one row per prefix (i_0, ..., i_k) and axis; x_k is set by i_k
        prefix = np.ravel_multi_index(index[: k + 1], sizes[: k + 1])
        diff = marginals[k + 1].points[index[k + 1]] - marginals[k].points[index[k]]
        n_prefix = int(np.prod(sizes[: k + 1]))
        scale = np.ones((n_prefix, d))
        np.maximum.at(scale, prefix, np.abs(diff))
        for axis in range(d):
            rows.append(n_rows + d * prefix + axis)
            cols.append(np.arange(nvar))
            vals.append(diff[:, axis] / scale[prefix, axis])
        n_rows += n_prefix * d
        rhs.append(np.zeros(n_prefix * d))
    a = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, nvar),
    )
    return a, np.concatenate(rhs), nvar


def mot_bounds(problem: MotProblem) -> MotResult:
    """Lower and upper price bounds with the optimal couplings.

    Marginals are verified to be in convex order first (otherwise the LP is
    infeasible and :class:`NotInConvexOrder` carries the witness).  The LPs
    are the discretization of Guo & Obloj 2019 (*Computational methods for
    martingale optimal transport problems*), solved by :func:`lp.solve`
    through their duals by interior point with crossover (a zero payoff by
    simplex), so the couplings are vertices and ``iterations`` counts IPM
    iterations of the min and the max LP.
    """
    sizes = problem.sizes
    nvar = int(np.prod(sizes))
    if nvar > problem.budget:
        raise BudgetExceeded(f"{nvar} coupling variables exceed budget {problem.budget}")
    _check_convex_order(problem.marginals)
    cost = problem.cost_tensor().ravel()
    if len(problem.marginals) == 2:
        a, b, _ = coupling_lp(problem.marginals[0], problem.marginals[1])
    else:
        a, b, nvar = _multi_marginal_lp(problem)
    solutions = []
    for sense in ("min", "max"):
        sol = lpmod.solve(lpmod.LinearProgram(cost, a, b, sense=sense))
        if sol.status != "optimal":
            raise DomainError(f"MOT LP ({sense}) ended with status {sol.status}")
        solutions.append(sol)
    lo, hi = solutions
    marg_resid = max(lo.primal_residual, hi.primal_residual)
    if len(problem.marginals) == 2:
        mart_resid = max(
            _martingale_residual(problem, lo.x), _martingale_residual(problem, hi.x)
        )
    else:
        mart_resid = marg_resid  # martingale rows are part of the LP system
    return MotResult(
        lower=lo.objective_value,
        upper=hi.objective_value,
        coupling_lower=_sparse_coupling(lo.x, sizes),
        coupling_upper=_sparse_coupling(hi.x, sizes),
        marginal_residual=marg_resid,
        martingale_residual=mart_resid,
        iterations=(lo.iterations, hi.iterations),
    )


def _martingale_residual(problem: MotProblem, x: np.ndarray) -> float:
    mu, nu = problem.marginals
    plan = x.reshape(mu.n_atoms, nu.n_atoms)
    bary = plan @ nu.points
    return float(np.abs(bary - mu.weights[:, None] * mu.points).max(initial=0.0))


def _quantize_primal(law_or_dd, n: int) -> DiscreteDistribution:
    if isinstance(law_or_dd, DiscreteDistribution):
        law = FiniteAtoms(law_or_dd.points_1d, law_or_dd.weights)
    elif isinstance(law_or_dd, Law1D):
        law = law_or_dd
    else:
        raise DomainError("expected a 1D law or a DiscreteDistribution")
    res = lloyd_1d(law, n)
    return DiscreteDistribution(res.grid, res.weights)


def _quantize_dual(law_or_dd, m: int) -> DiscreteDistribution:
    if isinstance(law_or_dd, DiscreteDistribution):
        law = FiniteAtoms(law_or_dd.points_1d, law_or_dd.weights)
    elif isinstance(law_or_dd, Law1D):
        law = law_or_dd
    else:
        raise DomainError("expected a 1D law or a DiscreteDistribution")
    res = dual_lloyd_1d(law, m)
    keep = res.weights > 0.0
    w = res.weights[keep]
    return DiscreteDistribution(res.grid[keep], w / w.sum())


def stability_experiment(mu0, mu1, payoff, levels) -> list[dict]:
    """Bounds table along a refinement schedule.

    ``mu0`` is primally quantized and ``mu1`` dually quantized at each level
    ``(N, M)``, matching the roles that preserve convex order from below and
    above; rows carry the level and the bounds.
    """
    rows = []
    for n, m in levels:
        qa = _quantize_primal(mu0, int(n))
        qb = _quantize_dual(mu1, int(m))
        result = mot_bounds(MotProblem([qa, qb], payoff))
        rows.append(
            {
                "N": int(n),
                "M": int(m),
                "lower": result.lower,
                "upper": result.upper,
            }
        )
    return rows

