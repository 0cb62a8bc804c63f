"""Voronoi (primal) quantization.

Nearest-neighbour projection, the L^p distortion ``e_p`` (for a law the
quadratic one, a closed form in F, K and M), the 1D fixed-point iteration
driven by the closed forms F and K, the randomized k-means variant for
sampled data in any dimension, and cell weights.  In 1D the Voronoi cells
follow the half-open convention ``(x_{i-1/2}, x_{i+1/2}]``; midpoint ties
project to the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyCellError
from .laws import Law1D, _check_points, _finite

__all__ = [
    "VoronoiQuantization",
    "distortion",
    "lloyd_1d",
    "kmeans",
    "voronoi_weights",
]


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


def _points_nd(grid) -> np.ndarray:
    arr = np.asarray(grid, dtype=float)
    if arr.ndim <= 1:
        return _points_1d(arr)[:, None]
    return _check_points(arr)


def _assign_1d(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    mids = 0.5 * (points[:-1] + points[1:])
    return np.searchsorted(mids, xs, side="left")


def _assign_nd(points: np.ndarray, xs: np.ndarray, chunk: int = 32768) -> np.ndarray:
    out = np.empty(xs.shape[0], dtype=np.intp)
    sq = np.einsum("ij,ij->i", points, points)
    for lo in range(0, xs.shape[0], chunk):
        block = xs[lo : lo + chunk]
        d2 = sq[None, :] - 2.0 * block @ points.T
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
    return out


def distortion(grid, law_or_sample, p: float = 2.0) -> float:
    """L^p quantization error ``e_p``: the p-th root of the mean p-th power
    distance to the grid.

    For an analytic law (``p = 2`` only) the cells ``(x_{i-1/2}, x_{i+1/2}]``
    give ``e_2^2 = sum dM - 2 x dK + x^2 dF`` over the Voronoi cuts, exact
    for atoms too since F, K and M are right-continuous.  Samples take any
    ``p >= 1`` and give the empirical average.
    """
    if p < 1.0:
        raise DomainError("exponent p must be >= 1")
    if isinstance(law_or_sample, Law1D):
        if p != 2.0:
            raise DomainError("the distortion of a law is quadratic: p must be 2")
        points = _points_1d(grid)
        law = law_or_sample
        cuts = np.concatenate(([-np.inf], 0.5 * (points[:-1] + points[1:]), [np.inf]))
        df = np.diff(np.asarray(law.cdf(cuts)))
        dk = np.diff(np.asarray(law.partial_moment(cuts)))
        dm = np.diff(np.asarray(law.partial_second_moment(cuts)))
        total = float(np.sum(dm - 2.0 * points * dk + points * points * df))
        return max(total, 0.0) ** 0.5
    sample = _finite(law_or_sample, "sample")
    if sample.ndim == 1:
        points = _points_1d(grid)
        idx = _assign_1d(points, sample)
        return float(np.mean(np.abs(sample - points[idx]) ** p) ** (1.0 / p))
    points = _points_nd(grid)
    idx = _assign_nd(points, sample)
    dist = np.linalg.norm(sample - points[idx], axis=1)
    return float(np.mean(dist ** p) ** (1.0 / p))


def _lloyd_step(law: Law1D, points: np.ndarray) -> np.ndarray:
    """One fixed-point update: each point moves to its cell's conditional mean."""
    mids = np.concatenate(([-np.inf], 0.5 * (points[:-1] + points[1:]), [np.inf]))
    f = np.asarray(law.cdf(mids))
    k = np.asarray(law.partial_moment(mids))
    df = np.diff(f)
    if np.any(df <= 0.0):
        raise EmptyCellError("a Voronoi cell carries zero mass; adjust the initial grid")
    return np.diff(k) / df


def lloyd_1d(
    law: Law1D,
    n_points: int,
    init=None,
    tol: float = 1e-12,
    max_iter: int = 100000,
) -> VoronoiQuantization:
    """Fixed point of the 1D cell-mean iteration for an analytic law.

    Default initialization places points at the quantiles of levels
    (2i-1)/(2N), which cannot produce empty cells for continuous laws.
    Stops when the sup-norm grid displacement drops below ``tol``.
    """
    if n_points < 1:
        raise DomainError("need at least one point")
    if init is None:
        levels = (2.0 * np.arange(1, n_points + 1) - 1.0) / (2.0 * n_points)
        points = np.asarray(law.quantile(levels), dtype=float).reshape(-1)
        if n_points > 1 and np.any(np.diff(points) <= 0.0):
            raise DomainError("law support is too small for the requested grid size")
    else:
        points = _points_1d(init).copy()
        if points.size != n_points:
            raise DomainError("init size must match n_points")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_points = _lloyd_step(law, points)
        move = float(np.max(np.abs(new_points - points)))
        points = new_points
        if move < tol:
            converged = True
            break
    residual = float(np.max(np.abs(_lloyd_step(law, points) - points)))
    return VoronoiQuantization(
        grid=points,
        weights=voronoi_weights(points, law),
        distortion=distortion(points, law, p=2.0),
        stationarity_residual=residual,
        converged=converged,
        iterations=iterations,
    )


def voronoi_weights(grid, law: Law1D) -> np.ndarray:
    """Cell masses F(x_{i+1/2}) - F(x_{i-1/2}) with unbounded outer cells."""
    points = _points_1d(grid)
    mids = np.concatenate(([-np.inf], 0.5 * (points[:-1] + points[1:]), [np.inf]))
    return np.diff(np.asarray(law.cdf(mids)))


def kmeans(
    sample,
    n_points: int,
    init=None,
    tol: float = 1e-9,
    max_iter: int = 300,
    seed: int = 0,
) -> VoronoiQuantization:
    """Empirical cell-mean iteration on a sample (any dimension).

    Cells that lose all members are re-seeded at the sample point farthest
    from its assigned centroid, which keeps the empirical distortion
    nonincreasing; this is the one deviation from the bare recursion.
    """
    from .rng import make_generator

    xs = _finite(sample, "sample")
    squeeze = xs.ndim == 1
    if squeeze:
        xs = xs[:, None]
    m = xs.shape[0]
    if m < n_points:
        raise DomainError("sample smaller than the requested grid size")
    if init is None:
        gen = make_generator(seed)
        uniq = np.unique(xs, axis=0)
        if uniq.shape[0] < n_points:
            raise DomainError("not enough distinct sample points")
        centroids = uniq[gen.choice(uniq.shape[0], size=n_points, replace=False)].copy()
    else:
        centroids = _points_nd(init).copy()

    idx = _assign_nd(centroids, xs)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # revive empty cells from the farthest sample point
        for _ in range(n_points):
            counts = np.bincount(idx, minlength=n_points)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            dists = np.einsum("ij,ij->i", xs - centroids[idx], xs - centroids[idx])
            far = int(np.argmax(dists))
            centroids[empty[0]] = xs[far]
            idx = _assign_nd(centroids, xs)
        new_centroids = np.empty_like(centroids)
        for j in range(xs.shape[1]):
            sums = np.bincount(idx, weights=xs[:, j], minlength=n_points)
            new_centroids[:, j] = sums / np.bincount(idx, minlength=n_points)
        move = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        idx = _assign_nd(centroids, xs)
        if move < tol:
            converged = True
            break
    counts = np.bincount(idx, minlength=n_points)
    weights = counts / m
    diff = xs - centroids[idx]
    emp = float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))
    means = np.empty_like(centroids)
    for j in range(xs.shape[1]):
        sums = np.bincount(idx, weights=xs[:, j], minlength=n_points)
        with np.errstate(invalid="ignore"):
            means[:, j] = np.where(counts > 0, sums / np.maximum(counts, 1), centroids[:, j])
    residual = float(np.max(np.linalg.norm(means - centroids, axis=1)))
    if squeeze:
        order = np.argsort(centroids[:, 0], kind="stable")
        grid = centroids[order, 0]
        weights = weights[order]
    else:
        grid = centroids
    return VoronoiQuantization(
        grid=grid,
        weights=weights,
        distortion=emp,
        stationarity_residual=residual,
        converged=converged,
        iterations=iterations,
    )
