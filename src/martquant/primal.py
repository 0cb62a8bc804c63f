"""Voronoi (primal) quantization.

Quantization of a 1D law on a Voronoi grid: the Voronoi split, its cell
weights and quadratic distortion ``e_2``, a closed form in F, K and M; the
fixed-point iteration driven by the closed forms F and K; and the
nearest-neighbour projection of draws, the Monte Carlo side of the same
cells.  The cells follow the half-open convention ``(x_{i-1/2},
x_{i+1/2}]``; midpoint ties project to the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyCellError
from .laws import Law1D, _check_points, _finite_law

__all__ = [
    "VoronoiQuantization",
    "lloyd_1d",
    "voronoi_split",
]

_LLOYD_MAX_ITER = 100000  # sweep cap of the cell-mean iteration


@dataclass(frozen=True)
class VoronoiQuantization:
    grid: np.ndarray
    weights: np.ndarray
    distortion: float
    stationarity_residual: float
    converged: bool
    iterations: int


def _points_1d(grid) -> np.ndarray:
    return _check_points(np.reshape(grid, -1))


def _assign_1d(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    mids = 0.5 * (points[:-1] + points[1:])
    return np.searchsorted(mids, xs, side="left")


def _cuts(points: np.ndarray) -> np.ndarray:
    """The Voronoi cell ends ``[-inf, midpoints, inf]`` of a sorted grid."""
    return np.concatenate(([-np.inf], 0.5 * (points[:-1] + points[1:]), [np.inf]))


def voronoi_split(grid, law: Law1D):
    """Cell weights and quadratic quantization error ``e_2`` of a law on a
    Voronoi grid, from one F, K and M evaluation at the cell ends.

    The cells ``(x_{i-1/2}, x_{i+1/2}]``, the outer two unbounded, have
    masses ``dF`` and give ``e_2^2 = sum dM - 2 x dK + x^2 dF``.  A finite
    law, or a truncation of one, is split atom by atom: each atom goes to
    its cell (``_assign_1d``, the cells of the Monte Carlo projection) and
    ``e_2^2 = sum w (z - x)^2``, exactly 0 when every atom is a grid point.
    """
    points = _points_1d(grid)
    finite = _finite_law(law)
    if finite is not None:
        z, w = finite.atoms()
        cell = _assign_1d(points, z)
        e2 = float(np.sum(w * (z - points[cell]) ** 2))
        return np.bincount(cell, w, minlength=points.size), e2 ** 0.5
    cuts = _cuts(points)
    df = np.diff(np.asarray(law.cdf(cuts)))
    dk = np.diff(np.asarray(law.partial_moment(cuts)))
    dm = np.diff(np.asarray(law.partial_second_moment(cuts)))
    total = float(np.sum(dm - 2.0 * points * dk + points * points * df))
    return df, max(total, 0.0) ** 0.5


def _lloyd_step(law: Law1D, points: np.ndarray) -> np.ndarray:
    """One fixed-point update: each point moves to its cell's conditional
    mean.  For a finite law that is the mean of the cell's atoms, taken
    about the cell's first atom, so a cell of one atom returns it bit for
    bit: ``(w z) / w`` need not be ``z``."""
    finite = _finite_law(law)
    if finite is not None:
        z, w = finite.atoms()
        cell = _assign_1d(points, z)
        mass = np.bincount(cell, w, minlength=points.size)
        if np.any(mass <= 0.0):
            raise EmptyCellError("a Voronoi cell carries zero mass; adjust the initial grid")
        first = z[np.searchsorted(cell, np.arange(points.size))]
        return first + np.bincount(cell, w * (z - first[cell]), minlength=points.size) / mass
    cuts = _cuts(points)
    f = np.asarray(law.cdf(cuts))
    k = np.asarray(law.partial_moment(cuts))
    df = np.diff(f)
    if np.any(df <= 0.0):
        raise EmptyCellError("a Voronoi cell carries zero mass; adjust the initial grid")
    return np.diff(k) / df


def _initial_grid(law: Law1D, n_points: int) -> np.ndarray:
    """The distinct quantiles of the levels (2i-1)/(2N), completed to N points.

    Levels inside one atom's jump give one point.  Each missing point goes
    to the conditional median of the heaviest open gap between the points,
    the two tails included.  Every point then lies in the support of the
    law, so no Voronoi cell is empty.  Raises :class:`DomainError` when the
    points are short and no gap carries mass.
    """
    levels = (2.0 * np.arange(1, n_points + 1) - 1.0) / (2.0 * n_points)
    points = np.unique(np.asarray(law.quantile(levels), dtype=float))
    while points.size < n_points:
        f = np.asarray(law.cdf(points), dtype=float)
        # F below each gap, and the mass of (-inf, x_0), (x_i, x_{i+1}), (x_last, inf)
        below = np.concatenate(([0.0], f))
        mass = np.concatenate((np.asarray(law.cdf_left(points), dtype=float), [1.0])) - below
        gap = int(np.argmax(mass))
        grown = points
        if mass[gap] > 0.0:
            grown = np.unique(np.append(points, law.quantile(below[gap] + 0.5 * mass[gap])))
        if grown.size == points.size:
            raise DomainError("law support is too small for the requested grid size")
        points = grown
    return points


def lloyd_1d(law: Law1D, n_points: int, init=None, tol: float = 1e-12) -> VoronoiQuantization:
    """Fixed point of the 1D cell-mean iteration for an analytic law.

    Default initialization places points at the quantiles of levels
    (2i-1)/(2N), completed inside the gaps that carry mass where an atom
    takes several levels (see ``_initial_grid``), so no cell is empty.
    Stops when the sup-norm grid displacement drops below ``tol``.  A
    truncation of a finite law is quantized as its atoms.
    """
    law = _finite_law(law) or law
    if n_points < 1:
        raise DomainError("need at least one point")
    if init is None:
        points = _initial_grid(law, n_points)
    else:
        points = _points_1d(init).copy()
        if points.size != n_points:
            raise DomainError("init size must match n_points")
    converged = False
    iterations = 0
    for iterations in range(1, _LLOYD_MAX_ITER + 1):
        new_points = _lloyd_step(law, points)
        move = float(np.max(np.abs(new_points - points)))
        points = new_points
        if move < tol:
            converged = True
            break
    residual = float(np.max(np.abs(_lloyd_step(law, points) - points)))
    weights, distortion = voronoi_split(points, law)
    return VoronoiQuantization(points, weights, distortion, residual, converged, iterations)
