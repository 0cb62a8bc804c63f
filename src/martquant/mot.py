"""Martingale-optimal-transport bounds on finitely supported marginals.

Given marginals in convex order and a payoff on the product grid, the
infimum and supremum of the expected payoff over all martingale couplings
are linear programs or, equivalently, price bounds consistent with the
marginals.  :meth:`MotProblem.linear_programs` turns a problem into those
two LPs (any number of marginals, budget-guarded) over the constraints of
:func:`order.coupling_lp`; this module solves both senses and drives the
quantization stability experiment: primal-quantize the first marginal,
dual-quantize the second, and track the bounds as the grids refine.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .dual import dual_lloyd_1d
from .errors import BudgetExceeded, DomainError, NotInConvexOrder
from .laws import DiscreteDistribution
from .order import convex_order_check, coupling_lp
from .primal import lloyd_1d

__all__ = [
    "MotProblem",
    "MotResult",
    "mot_bounds",
    "level_problems",
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


_MAX_VARIABLES = 1_000_000  # the coupling variables a MotProblem may have


@dataclass(frozen=True)
class MotProblem:
    """Marginals (in convex order) and a payoff, within the variable budget.

    ``payoff`` is a callable receiving one ``(..., d)`` point block per
    marginal, broadcastable over leading axes (a table is ``lambda *_:
    table``).  Raises :class:`BudgetExceeded` when the coupling has more
    than ``_MAX_VARIABLES`` variables.
    """

    marginals: tuple
    payoff: object

    def __init__(self, marginals, payoff):
        marginals = tuple(marginals)
        if len(marginals) < 2:
            raise DomainError("need at least two marginals")
        dim = marginals[0].dim
        if any(m.dim != dim for m in marginals):
            raise DomainError("marginals must share one dimension")
        nvar = int(np.prod([m.n_atoms for m in marginals]))
        if nvar > _MAX_VARIABLES:
            raise BudgetExceeded(f"{nvar} coupling variables exceed budget {_MAX_VARIABLES}")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "payoff", payoff)

    @property
    def sizes(self) -> tuple:
        return tuple(m.n_atoms for m in self.marginals)

    def cost_tensor(self) -> np.ndarray:
        sizes = self.sizes
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

    def linear_programs(self):
        """The min and max LPs of the payoff over martingale couplings, and
        the scales of their martingale rows (see :func:`order.coupling_lp`)."""
        a, b, scales = coupling_lp(self.marginals)
        cost = self.cost_tensor().ravel()
        lps = [lpmod.LinearProgram(cost, a, b, sense=sense) for sense in ("min", "max")]
        return lps, scales


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


def _sparse_coupling(x: np.ndarray, sizes) -> list:
    flat = np.flatnonzero(x > 1e-12)
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


def mot_bounds(problem: MotProblem) -> MotResult:
    """Lower and upper price bounds with the optimal couplings.

    The LPs come from :meth:`MotProblem.linear_programs`.  Before they are
    solved the marginals are verified to be in convex order (otherwise the
    LP is infeasible and :class:`NotInConvexOrder` carries the witness).
    The LPs are the discretization of Guo & Obloj 2019
    (*Computational methods for martingale optimal transport problems*),
    solved by :func:`lp.solve` through their duals by interior point with
    crossover (a zero payoff by simplex), so the couplings are vertices and
    ``iterations`` counts IPM iterations of the min and the max LP.
    ``marginal_residual`` is the larger primal residual of the two LPs over
    all rows; ``martingale_residual`` is the largest unscaled drift
    ``|sum x (y_{k+1} - y_k)|`` over every step, prefix and axis.
    """
    lps, scales = problem.linear_programs()
    _check_convex_order(problem.marginals)
    solutions = []
    for lp in lps:
        sol = lpmod.solve(lp)
        if sol.status != "optimal":
            raise DomainError(f"MOT LP ({lp.sense}) ended with status {sol.status}")
        solutions.append(sol)
    lo, hi = solutions
    sizes = problem.sizes
    # the martingale rows follow the mass rows; undo their scaling
    scale = np.concatenate([s.ravel() for s in scales])
    mart_resid = max(
        float(np.abs((lp.constraint_matrix @ sol.x - lp.rhs)[sum(sizes) :] * scale).max())
        for lp, sol in zip(lps, solutions)
    )
    return MotResult(
        lower=lo.objective_value,
        upper=hi.objective_value,
        coupling_lower=_sparse_coupling(lo.x, sizes),
        coupling_upper=_sparse_coupling(hi.x, sizes),
        marginal_residual=max(lo.primal_residual, hi.primal_residual),
        martingale_residual=mart_resid,
        iterations=(lo.iterations, hi.iterations),
    )


def _quantize_primal(law, n: int):
    res = lloyd_1d(law, n)
    return DiscreteDistribution(res.grid, res.weights), res.converged


def _quantize_dual(law, m: int):
    res = dual_lloyd_1d(law, m)
    keep = res.weights > 0.0
    w = res.weights[keep]
    return DiscreteDistribution(res.grid[keep], w / w.sum()), res.converged


def level_problems(mu0, mu1, payoff, levels) -> list[MotProblem]:
    """One :class:`MotProblem` per level ``(N, M)`` of a refinement schedule.

    ``mu0`` is primally quantized to ``N`` atoms and ``mu1`` dually to at
    most ``M``, matching the roles that preserve convex order from below and
    above; a quantizer that stops short of its tolerance issues a
    ``RuntimeWarning`` naming the level and the side.  Every level is
    quantized and budget-checked before this returns, so an over-budget
    level raises :class:`BudgetExceeded` before any LP is solved or written.
    """
    problems = []
    for n, m in levels:
        n, m = int(n), int(m)
        mu, primal_done = _quantize_primal(mu0, n)
        nu, dual_done = _quantize_dual(mu1, m)
        for side, done in (("primal", primal_done), ("dual", dual_done)):
            if not done:
                warnings.warn(
                    f"level ({n}, {m}): {side} grid did not reach tolerance", RuntimeWarning
                )
        problems.append(MotProblem([mu, nu], payoff))
    return problems


def stability_experiment(mu0, mu1, payoff, levels) -> list[dict]:
    """Bounds table along a refinement schedule (see :func:`level_problems`);
    rows carry the level and the bounds."""
    rows = []
    for (n, m), problem in zip(levels, level_problems(mu0, mu1, payoff, levels)):
        result = mot_bounds(problem)
        rows.append(
            {
                "N": int(n),
                "M": int(m),
                "lower": result.lower,
                "upper": result.upper,
            }
        )
    return rows

