"""Linear programs in standard form, solved by HiGHS.

Standard form: optimize ``c.x`` subject to ``A x = b``, ``x >= 0``, with
``A`` held as a ``scipy.sparse`` CSR matrix (the coupling and MOT LPs have
3 or 4 nonzeros per column).  :func:`solve` passes an LP with a nonzero
objective to the interior point method of HiGHS, IPX with crossover
(Schork & Gondzio 2020), on its dual ``max b.y`` over ``{A^T y <= c}``,
and reads the primal vertex off the multipliers of the dual rows.  A
feasibility LP (zero objective) goes to the dual revised simplex of HiGHS
(Huangfu & Hall 2018) on the primal, and to IPX on the primal when the
simplex ends in numerical trouble.  Either way ``solve`` returns a
vertex, the equality duals and, on infeasibility, a Farkas certificate
``y`` with ``y.A <= 0`` and ``y.b > 0``.

Every HiGHS call runs with presolve off.  Presolve calls some feasible 2D
coupling LPs infeasible: three pairs built from seeded product-grid chains,
in convex order by construction (63 vs 67, 109 vs 138 and 147 vs 157
atoms), came back infeasible with no Farkas certificate, and without
presolve they are solved with coupling residuals below 4e-7.  On the LPs
the package meets most, a marginal against its image under a martingale
kernel, presolve is also most of the cost: the 2D order check on such a
pair took 17.1 ms with it and 10.6 ms without at 1 024 variables, 79 and
67 ms at 4 096 (scipy 1.17, 2-vCPU Xeon).  It is slower without presolve
on the self-coupling of a 125-atom 2D law: 0.96 s against 0.30 s with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = ["LinearProgram", "LpSolution", "solve", "export_lp_text"]

_FEAS_TOL = 1e-8
# the one HiGHS option set of every linprog call; see the module docstring
_HIGHS_OPTIONS = {"presolve": False}


def _csr(matrix):
    # scipy.sparse is imported on first use, like scipy.optimize in solve
    import scipy.sparse as sp

    if not sp.issparse(matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    a = sp.csr_array(matrix, dtype=float, copy=True)
    # canonical rows (sorted, no explicit zeros) keep export_lp_text stable
    a.sum_duplicates()
    a.eliminate_zeros()
    return a


@dataclass(frozen=True)
class LinearProgram:
    """min or max of ``objective . x`` over ``{A x = b, x >= 0}``.

    ``constraint_matrix`` may be dense or any ``scipy.sparse`` matrix; it
    is stored as CSR.
    """

    objective: np.ndarray
    constraint_matrix: object
    rhs: np.ndarray
    sense: str = "min"

    def __init__(self, objective, constraint_matrix, rhs, sense="min"):
        objective = np.asarray(objective, dtype=float).reshape(-1)
        constraint_matrix = _csr(constraint_matrix)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if constraint_matrix.shape != (rhs.size, objective.size):
            raise DomainError(
                f"inconsistent LP dimensions: A is {constraint_matrix.shape}, "
                f"c has {objective.size}, b has {rhs.size}"
            )
        if not (
            np.all(np.isfinite(objective))
            and np.all(np.isfinite(constraint_matrix.data))
            and np.all(np.isfinite(rhs))
        ):
            raise DomainError("LP data must be finite")
        if sense not in ("min", "max"):
            raise DomainError("sense must be 'min' or 'max'")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraint_matrix", constraint_matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "sense", sense)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None
    primal_residual: float
    slackness_residual: float
    iterations: int
    farkas: np.ndarray | None = field(default=None)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS.  Returns duals at optimality and a Farkas
    certificate on infeasibility; any other solver outcome raises.

    A nonzero objective is solved through the dual LP by interior point
    with crossover, so ``iterations`` counts IPM iterations; a zero
    objective is solved on the primal by dual simplex, and ``iterations``
    counts simplex iterations, or IPM iterations where the simplex ended in
    numerical trouble (HiGHS status 4) and interior point took over.
    HiGHS runs with presolve off, which decides the 2D coupling LPs that
    presolve wrongly calls infeasible (see the module docstring).
    """
    # Imported here and not at module level: importing scipy.optimize after
    # martquant.cli costs about 0.25 s and 23 MiB of resident memory (scipy
    # 1.17, Python 3.11, 2-vCPU Xeon), which every CLI command would pay at
    # start-up, while 1D convex-order checks and chains never solve an LP.
    from scipy.optimize import linprog

    minimize = lp.sense == "min"
    c = lp.objective if minimize else -lp.objective
    a, b = lp.constraint_matrix, lp.rhs
    b_scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    # On the degenerate MOT transport polytopes IPX takes 9-23 iterations
    # where the dual simplex takes up to thousands; a feasibility LP has no
    # objective to gain from, and the simplex on the primal is faster there.
    via_dual = bool(c.any())
    if via_dual:
        res = linprog(
            -b, A_ub=a.T, b_ub=c, bounds=(None, None), method="highs-ipm", options=_HIGHS_OPTIONS
        )
    else:
        res = linprog(
            c, A_eq=a, b_eq=b, bounds=(0, None), method="highs", options=_HIGHS_OPTIONS
        )
        if res.status == 4:
            # the dual simplex can stall on a degenerate infeasible coupling
            # LP (the 3-step bump tree of tests/test_lp.py), where IPX decides
            res = linprog(
                c, A_eq=a, b_eq=b, bounds=(0, None), method="highs-ipm", options=_HIGHS_OPTIONS
            )
    if res.status in (2, 3):
        # the bounded auxiliary LP max b.y over {A^T y <= 0, -1 <= y <= 1}
        # has a positive optimum exactly when A x = b, x >= 0 is infeasible
        aux = linprog(
            -b,
            A_ub=a.T,
            b_ub=np.zeros(lp.n_vars),
            bounds=(-1.0, 1.0),
            method="highs",
            options=_HIGHS_OPTIONS,
        )
        if aux.status != 0:
            raise DomainError(f"HiGHS found no Farkas certificate: {aux.message}")
        if -aux.fun > _FEAS_TOL * b_scale:
            return LpSolution(
                "infeasible", None, None, None, np.inf, np.inf, int(res.nit), farkas=aux.x
            )
        if not via_dual:
            raise DomainError(
                "HiGHS reported infeasibility but found no Farkas certificate"
            )
        # the primal is feasible and its dual is not
        return LpSolution("unbounded", None, None, None, np.inf, np.inf, int(res.nit))
    if res.status != 0:
        raise DomainError(f"HiGHS ended with status {res.status}: {res.message}")
    if via_dual:
        # the multipliers of A^T y <= c are -x; the slacks are the reduced
        # costs c - A^T y of the bounds x >= 0
        x = np.maximum(-res.ineqlin.marginals, 0.0)
        y, reduced_costs = res.x, res.ineqlin.residual
    else:
        x = np.maximum(res.x, 0.0)
        y, reduced_costs = res.eqlin.marginals, res.lower.marginals
    duals = y if minimize else -y
    primal_residual = float(np.abs(a @ x - b).max(initial=0.0))
    if primal_residual > 100.0 * _FEAS_TOL * b_scale:
        raise DomainError(
            f"HiGHS returned a point with primal residual {primal_residual:.3e}; "
            "the instance is too ill-conditioned"
        )
    slackness = float(np.abs(x * reduced_costs).max(initial=0.0))
    return LpSolution(
        "optimal", x, float(lp.objective @ x), duals, primal_residual, slackness, int(res.nit)
    )


def _fmt(v: float) -> str:
    return format(v, ".17g")


def export_lp_text(lp: LinearProgram, name: str = "problem") -> str:
    """Fixed-column LP text format (objective, ST, BOUNDS, END sections);
    floats carry 17 significant digits so the export is byte-stable."""
    lines = [f"\\ {name}", "Minimize" if lp.sense == "min" else "Maximize"]
    terms = [
        f"{'+' if cj >= 0 else '-'} {_fmt(abs(cj))} x{j}"
        for j, cj in enumerate(lp.objective)
    ]
    lines.append(" obj: " + (" ".join(terms) if terms else "0"))
    lines.append("Subject To")
    a = lp.constraint_matrix
    for i in range(lp.n_rows):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        body = " ".join(
            f"{'+' if v >= 0 else '-'} {_fmt(abs(v))} x{j}"
            for j, v in zip(a.indices[lo:hi], a.data[lo:hi])
        )
        lines.append(f" c{i}: {body if body else '0 x0'} = {_fmt(lp.rhs[i])}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lines.append(f" 0 <= x{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"
