"""Dual (Delaunay) quantization.

The splitting operator sends a point of the grid hull to grid vertices with
its barycentric coordinates as probabilities, so the conditional mean of the
projected point equals the point itself.  This file provides the 1D and 2D
point location behind it, the dual split of a law on a fixed 1D grid (its
weights and distortion), the 1D fixed-point optimization of the interior
points, and for the 2D case a Delaunay triangulation and point location by
Qhull (``scipy.spatial``).
Point location and the kernels of ``chain`` share one relative hull slack,
``_HULL_TOL`` = 1e-9; a point farther out raises :class:`HullViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, HullViolation, OutOfScopeError, SupportError
from .laws import Law1D, _check_points, _finite_law

__all__ = [
    "Triangulation2D",
    "DualQuantization",
    "locate_1d",
    "dual_split",
    "dual_lloyd_1d",
]

_HULL_TOL = 1e-9


@dataclass(frozen=True)
class DualQuantization:
    grid: np.ndarray
    weights: np.ndarray
    distortion: float
    converged: bool
    iterations: int


def _grid_points(grid) -> np.ndarray:
    """The points of a 1D dual grid: two or more, finite, strictly increasing."""
    return _check_points(np.reshape(grid, -1), min_count=2)


# ---------------------------------------------------------------------------
# splitting operators


def hull_slack_1d(lo: float, hi: float) -> float:
    """How far outside the 1D hull ``[lo, hi]`` a point may lie and still
    count as inside: ``_HULL_TOL * max(1, |lo|, |hi|)``."""
    return _HULL_TOL * max(1.0, abs(lo), abs(hi))


def locate_1d(points: np.ndarray, queries):
    """Interval and right barycentric weight of each query on a 1D grid.

    Returns ``(j, lam_right)`` with ``x_j <= q <= x_{j+1}`` and
    ``q = (1 - lam_right) x_j + lam_right x_{j+1}``.  A query outside the
    hull ``[x_0, x_N]`` by at most ``_HULL_TOL * max(1, |x_0|, |x_N|)``
    (1e-9 relative) is clipped onto it; one farther out raises
    :class:`HullViolation`, which names the first such query.
    """
    q = np.asarray(queries, dtype=float)
    lo, hi = points[0], points[-1]
    slack = hull_slack_1d(lo, hi)
    bad = (q < lo - slack) | (q > hi + slack)
    if np.any(bad):
        raise HullViolation(f"query {q[bad][0]} outside hull [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    j = np.clip(np.searchsorted(points, q, side="right") - 1, 0, points.size - 2)
    return j, (q - points[j]) / (points[j + 1] - points[j])


def _scatter(shape, rows, masses, corners, lams) -> np.ndarray:
    """The (rows, grid points) masses of split queries: query i sends
    ``masses[i] * lams[c][i]`` to ``(rows[i], corners[c][i])``, one
    ``np.add.at`` per corner c, in corner order."""
    pi = np.zeros(shape)
    for corner, lam in zip(corners, lams):
        np.add.at(pi, (rows, corner), masses * lam)
    return pi


# ---------------------------------------------------------------------------
# the dual split of a law on a fixed 1D grid


def hat_split(points: np.ndarray, f, k, f_left_first):
    """Unclipped masses the hat functions of a 1D grid take from a law, from
    its F and K at the points (last axis) and its F(-) at the first point."""
    dx = np.diff(points)
    df = np.diff(f, axis=-1)
    dk = np.diff(k, axis=-1)
    p = np.zeros(np.shape(f))
    p[..., 1:] += (dk - points[:-1] * df) / dx
    p[..., :-1] += (points[1:] * df - dk) / dx
    # an atom sitting exactly on the left endpoint belongs wholly to it
    p[..., 0] += f[..., 0] - f_left_first
    return p


def dual_split(grid, law: Law1D):
    """Dual weights and quadratic dual distortion of a fixed 1D grid, from
    one batch of the law's F, K and F(-) at the grid points.

    Point i takes the integral of its hat function against the law, an F/K
    difference form.  Per interval the squared distortion is int (x_{i+1} -
    xi)(xi - x_i) dmu, summed through the same differences and the second
    moment of the law.  A law with more than 1e-12 mass outside the grid
    hull raises :class:`SupportError`.  A finite law, or a truncation of
    one, is split atom by atom (``_split_atoms``).
    """
    points = _grid_points(grid)
    finite = _finite_law(law)
    if finite is not None:
        return _split_atoms(points, *finite.atoms())
    f, k, f_left = law.cdf_moment_left_batch(points)
    f_left_first = float(f_left[0])
    outside = f_left_first + (1.0 - float(f[-1]))
    if outside > 1e-12:
        raise SupportError(
            f"law carries {outside:.3e} mass outside the grid hull "
            f"[{points[0]}, {points[-1]}]"
        )
    weights = np.clip(hat_split(points, f, k, f_left_first), 0.0, None)
    s = float(
        np.sum((points[:-1] + points[1:]) * np.diff(k) - points[:-1] * points[1:] * np.diff(f))
    )
    # mass exactly at the left endpoint contributes zero distortion but is
    # excluded from the interval integrals; re-add its square
    atom_left = (f[0] - f_left_first) * points[0] ** 2
    d2 = s - law.second_moment + atom_left
    return weights, float(np.sqrt(max(d2, 0.0)))


def _split_atoms(points: np.ndarray, z: np.ndarray, w: np.ndarray):
    """:func:`dual_split` of the atoms ``z`` with masses ``w``: each atom is
    split where it falls, onto the ends ``t_j <= z <= t_{j+1}`` of its
    interval, and the squared distortion is ``sum w (t_{j+1} - z)(z -
    t_j)``, exactly 0 when every atom sits on a grid point."""
    inside = (z >= points[0]) & (z <= points[-1])
    outside = float(w[~inside].sum())
    if outside > 1e-12:
        raise SupportError(
            f"law carries {outside:.3e} mass outside the grid hull "
            f"[{points[0]}, {points[-1]}]"
        )
    z, w = z[inside], w[inside]
    j, lam_right = locate_1d(points, z)
    weights = _scatter((1, points.size), 0, w, (j, j + 1), (1.0 - lam_right, lam_right))[0]
    d2 = float(np.sum(w * (points[j + 1] - z) * (z - points[j])))
    return weights, float(np.sqrt(d2))


# ---------------------------------------------------------------------------
# 1D dual grid optimization


def _map_residual(points, f, k, f_left) -> float:
    """Sup-norm stationarity residual in the scale of T(x) - x.

    For continuous F this is exactly ``||T(x) - x||_inf``.  At an atom the
    squared distortion has a kink and the two one-sided gradients bracket
    zero at an optimal point, so the residual is the distance of zero from
    the one-sided gradient interval, rescaled by the interval masses.
    """
    den = f[2:] - f[:-2]
    base = k[2:] - k[:-2] - points[2:] * f[2:] + points[:-2] * f[:-2]
    span = points[2:] - points[:-2]
    g_right = base + f[1:-1] * span
    g_left = base + f_left[1:-1] * span
    gap = np.where(g_left > 0.0, g_left, np.where(g_right < 0.0, -g_right, 0.0))
    live = den > 0.0
    if not np.any(live):
        return 0.0
    return float(np.max(gap[live] / den[live]))


def _solve_levels(law, levels, lo, hi, flo, fhi, xtol):
    """Solve F(x) = level on each bracket [lo, hi] (F nondecreasing), given
    F at the bracket ends, ``flo`` and ``fhi``.

    Secant step with a bisection safeguard; each point retires as soon as
    its bracket shrinks below ``xtol`` or its residual vanishes, and keeps
    its last evaluated point.  The bracket state of each point (its ends,
    their F residuals, its last point) is kept as Python floats in lists,
    and the secant, bisection and retire logic runs on them: that is the
    same IEEE arithmetic as the elementwise numpy loop it replaced, so the
    solutions are the same bit for bit, while a round costs a few list
    reads per point instead of some 25 numpy calls on arrays of about 15
    points.  The cost of a round grows with the points, though: against the
    numpy loop, 400 sweeps of ``dual_lloyd_1d`` are faster up to N = 64
    grid points, about even at N = 128 and slower at N = 256 (+75% on a
    truncated normal, +21% on a chain step's mixture).  Numpy remains only
    in the one ``law.cdf`` call per round, on the active points.
    """
    flo = (np.asarray(flo) - levels).tolist()
    fhi = (np.asarray(fhi) - levels).tolist()
    levels = levels.tolist()
    lo = lo.tolist()
    hi = hi.tolist()
    sol = [0.5 * (a + b) for a, b in zip(lo, hi)]  # each point's last x
    live = range(len(sol))  # the points whose residual has not vanished
    for sweep in range(110):
        active = [i for i in live if hi[i] - lo[i] > xtol]
        if not active:
            break
        if sweep % 2:
            # unconditional bisection every other round: the bracket halves
            # even where F jumps and the secant stagnates one-sided
            xs = [0.5 * (lo[i] + hi[i]) for i in active]
        else:
            xs = []
            for i in active:
                a, b, fa, fb = lo[i], hi[i], flo[i], fhi[i]
                x = 0.5 * (a + b)
                den = fb - fa
                # a flat F (den = 0) keeps the midpoint, as does a secant
                # outside the margins (a nan secant fails both comparisons)
                if den != 0.0:
                    margin = 0.01 * (b - a)
                    sec = (a * fb - b * fa) / den
                    if a + margin < sec < b - margin:
                        x = sec
                xs.append(x)
        fxs = np.asarray(law.cdf(np.array(xs))).tolist()
        live = []
        for i, x, fx in zip(active, xs, fxs):
            fx -= levels[i]
            sol[i] = x
            if fx >= 0.0:
                hi[i], fhi[i] = x, fx
            else:
                lo[i], flo[i] = x, fx
            if not -1e-15 < fx < 1e-15:  # a nan residual stays live
                live.append(i)
    else:
        # round cap: a point still live takes its bracket midpoint
        for i in live:
            sol[i] = 0.5 * (lo[i] + hi[i])
    return np.array(sol)


def dual_lloyd_1d(
    law: Law1D,
    n_points: int,
    init=None,
    tol: float = 1e-12,
    max_iter: int = 100000,
) -> DualQuantization:
    """Optimize the interior points of a dual grid on the support hull.

    The endpoints stay pinned to the hull.  The fixed points of the update
    map T are exactly the stationary points of the squared distortion
    (``T - id`` is the distortion gradient rescaled by the positive interval
    masses), and convergence means ``||T(x) - x||_inf < tol``.  The bare
    iteration ``x <- T(x)`` therefore *ascends* the distortion (it diverges
    even for the uniform law), so each sweep instead re-solves every
    stationarity equation in its F-level form ``F(x_i) = [x_{i+1}
    F(x_{i+1}) - x_{i-1} F(x_{i-1}) - K(x_{i+1}) + K(x_{i-1})] / (x_{i+1} -
    x_{i-1})``, whose level always lies between the neighbour F values.
    This is robust where cell masses differ by orders of magnitude (law
    tails).  A point moves only to a solution strictly inside its current
    neighbours, so the grid stays strictly increasing from its start.  A
    truncation of a finite law is quantized as its atoms.
    """
    law = _finite_law(law) or law
    lo, hi = law.support
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise SupportError("dual quantization needs a compact support hull")
    if n_points < 2:
        raise DomainError("a dual grid needs at least two points")
    if init is None:
        init = np.linspace(lo, hi, n_points)
    points = _grid_points(init).copy()
    if points.size != n_points:
        raise DomainError("init size must match n_points")
    if abs(points[0] - lo) > 1e-9 or abs(points[-1] - hi) > 1e-9:
        raise DomainError("init endpoints must sit on the support hull")
    points[0], points[-1] = lo, hi
    points = _grid_points(points)
    law_atoms = np.sort(np.asarray(law.atoms()[0], dtype=float))
    snap_tol = 1e-13 * (abs(lo) + abs(hi) + 1.0)
    converged = n_points == 2
    iterations = 0
    max_iter = 0 if n_points == 2 else max_iter
    float_floor = 2e-16 * (abs(lo) + abs(hi) + 1.0)
    last_move = 0.0  # first sweep solves at full precision
    # interior points of each parity, with their left and right neighbours
    parities = []
    for parity in (1, 2):
        idx = np.arange(parity, n_points - 1, 2)
        if idx.size:
            parities.append((parity, idx, idx - 1, idx + 1))
    for iterations in range(1, max_iter + 1):
        f, k, f_left = law.cdf_moment_left_batch(points)
        resid = _map_residual(points, f, k, f_left)
        if resid < tol:
            converged = True
            break
        # red-black Gauss-Seidel: each stationarity equation couples a point
        # to its two neighbours only, so same-parity points update
        # independently; alternating parities kills the antiphase
        # oscillation a simultaneous sweep sustains near kinks
        xtol = max(float_floor, 0.02 * last_move)
        cand = points.copy()
        for parity, idx, idx_l, idx_r in parities:
            if parity == 2:
                f, k, _ = law.cdf_moment_left_batch(cand)
            lo_n, hi_n = cand[idx_l], cand[idx_r]
            f_lo, f_hi = f[idx_l], f[idx_r]
            levels = (hi_n * f_hi - lo_n * f_lo - (k[idx_r] - k[idx_l])) / (hi_n - lo_n)
            levels = np.clip(levels, f_lo, f_hi)
            solved = _solve_levels(law, levels, lo_n, hi_n, f_lo, f_hi, xtol)
            if law_atoms.size:
                # a point placed within the solve tolerance of an atom
                # belongs on the atom (kink optima live there); the
                # tolerance shrinks with the sweeps, so transient snaps
                # release as the iteration refines
                snap = max(snap_tol, 2.0 * xtol)
                near = np.clip(np.searchsorted(law_atoms, solved), 1, law_atoms.size) - 1
                right = np.minimum(near + 1, law_atoms.size - 1)
                for cand_idx in (near, right):
                    close = np.abs(solved - law_atoms[cand_idx]) <= snap
                    solved = np.where(close, law_atoms[cand_idx], solved)
            keep_order = (solved > lo_n) & (solved < hi_n)
            cand[idx] = np.where(keep_order, solved, cand[idx])
        last_move = float(np.max(np.abs(cand - points)))
        points = cand
        if last_move < 0.5 * float_floor:
            f, k, f_left = law.cdf_moment_left_batch(points)
            converged = _map_residual(points, f, k, f_left) < tol
            break
    weights, distortion = dual_split(points, law)
    return DualQuantization(points, weights, distortion, converged, iterations)


# ---------------------------------------------------------------------------
# 2D Delaunay triangulation (Qhull)


def _barycentric_transforms(points: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """``Delaunay.transform`` of a 2D triangulation: per triangle the inverse
    of the edge matrix ``[v0 - v2, v1 - v2]`` stacked on ``v2``, so that
    ``T[:2] @ (x - T[2])`` are the first two barycentric coordinates.  As in
    Qhull, a triangle whose 1-norm reciprocal condition number is below
    ``1000 eps`` is degenerate and gets ``nan``."""
    v = points[simplices]
    r = v[:, 2, :]
    (ax, ay), (bx, by) = (v[:, 0, :] - r).T, (v[:, 1, :] - r).T
    det = ax * by - bx * ay
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.stack([by, -bx, -ay, ax], axis=-1).reshape(-1, 2, 2) / det[:, None, None]
    out = np.concatenate([inv, r[:, None, :]], axis=1)
    ax, ay, bx, by = map(np.abs, (ax, ay, bx, by))
    norms = np.maximum(ax + ay, bx + by) * np.maximum(by + ay, bx + ax)
    out[~(np.abs(det) >= 1000.0 * np.finfo(float).eps * norms)] = np.nan
    return out


@dataclass(frozen=True)
class Triangulation2D:
    """Delaunay triangulation of distinct points in the plane.

    ``vertices`` is the (N, 2) point array and ``triangles`` holds the
    (T, 3) vertex index triples of Qhull's triangulation; every vertex lies
    in at least one triangle.  Build it with :meth:`delaunay`.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    _qhull: object = field(repr=False, compare=False)

    @classmethod
    def delaunay(cls, points) -> "Triangulation2D":
        """Triangulate with ``scipy.spatial.Delaunay`` (Qhull).

        Qhull splits cocircular points into triangles the same way for the
        same input.  Collinear points, and a point so close to another that
        Qhull leaves it out of every triangle, raise :class:`DomainError`.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2:
            raise OutOfScopeError("triangulation is implemented for d = 2 only")
        _check_points(pts, min_count=3)
        # imported here: at module level it adds 0.14 s and 12 MiB to every start-up
        from scipy.spatial import Delaunay, QhullError

        try:
            qhull = Delaunay(pts)
        except QhullError as exc:
            raise DomainError("degenerate point set: no valid triangulation") from exc
        if qhull.coplanar.size:
            left_out = sorted(set(qhull.coplanar[:, 0].tolist()))
            raise DomainError(f"points {left_out} are too close to another point to be vertices")
        # Qhull fills its transform cache on the first ``find_simplex`` by
        # LAPACK in scipy's threaded OpenBLAS, which can take a second on a
        # busy two-core host; the 2x2 inverses are cheaper in closed form
        qhull._transform = _barycentric_transforms(pts, qhull.simplices)
        return cls(pts, qhull.simplices.astype(np.intp), qhull)

    def _weights(self, queries: np.ndarray, tri: np.ndarray) -> np.ndarray:
        """Barycentric weights of ``queries`` in triangles ``tri``, broadcast."""
        m = self._qhull.transform[tri]
        c = np.einsum("...ij,...j->...i", m[..., :2, :], queries - m[..., 2, :])
        return np.concatenate([c, 1.0 - c.sum(axis=-1, keepdims=True)], axis=-1)

    def locate(self, queries: np.ndarray):
        """Containing triangle per query and clipped barycentric weights.

        Qhull's ``find_simplex`` locates the queries inside the hull.  A query
        it leaves out goes to the hull triangle in which its least weight is
        largest.  That weight must be at least ``-_HULL_TOL * span`` (1e-9
        relative), where ``span`` is the larger of 1 and the largest
        absolute vertex coordinate; otherwise :class:`HullViolation` names
        the first such query.  Weights are clipped at 0 and renormalized.
        """
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        tri = self._qhull.find_simplex(q).astype(np.intp)
        out = np.flatnonzero(tri < 0)
        if out.size:
            hull = np.flatnonzero((self._qhull.neighbors < 0).any(axis=1))
            lam = self._weights(q[out, None, :], hull)
            tri[out] = hull[np.argmax(lam.min(axis=2), axis=1)]
        lam = self._weights(q, tri)
        span = max(1.0, float(np.max(np.abs(self.vertices))))
        bad = lam.min(axis=1) < -_HULL_TOL * span
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise HullViolation(f"query {q[i]} outside the triangulated hull")
        lam = np.clip(lam, 0.0, None)
        lam /= lam.sum(axis=1, keepdims=True)
        return tri, lam
