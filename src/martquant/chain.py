"""Convex-order-preserving discretization of martingale ARCH dynamics.

One step of the scheme maps the current finitely supported approximation
through the martingale transition ``x -> x + theta(x) * noise`` and then
splits the result back onto a finite grid with the dual (barycentric)
projection.  Both operations preserve the martingale property exactly, so
consecutive marginals stay in convex order while the support size stays
under control.  :func:`build_chain` runs every step, truncated or quantized
noise, 1D or 2D, through one loop: the step's law, its grid, its kernel.

A 1D noise is a truncation of a continuous base or finitely many atoms (a
truncation of a finite base is a finite noise), and one kernel steps both,
without sampling.  It reads the continuous part at the noise levels ``r = (u
- x) / theta``: ``F(u|x) = F(r)``, ``K(u|x) = x F(r) + theta K(r)``, with the
:class:`TruncatedLaw`'s F and K, whose clipped atom at 0 counts from ``r = 0``
on, exactly where its image ``x`` reaches u.  A source where theta = 0
stays put, a point mass at ``x`` in the same F and K.  The atoms of a finite
noise are split where their images ``x + theta z`` fall, in 1D and in 2D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dual import (
    Triangulation2D, _scatter, dual_lloyd_1d, dual_split, hat_split, hull_slack_1d, locate_1d,
)
from .errors import DomainError, HullViolation, OutOfScopeError
from .laws import (
    DiscreteDistribution, Law1D, TruncatedLaw, _check_points, _check_weights, _finite,
    _finite_law,
)
from .order import merged_atoms
from .primal import lloyd_1d

__all__ = [
    "ThetaFn",
    "theta_constant",
    "theta_affine_abs",
    "theta_abs_shifted",
    "euler_thetas",
    "ArchSpec",
    "NoiseSpec",
    "MartingaleKernel",
    "ChainApproximation",
    "MixtureTransitionLaw",
    "dual_transition_weights",
    "build_chain",
]


@dataclass(frozen=True)
class ThetaFn:
    """Scalar volatility coefficient with declared analytic constants.

    ``lipschitz`` bounds |theta(x) - theta(y)| / |x - y|; ``c_envelope``
    bounds theta(x)^2 / (1 + x^2), which for a scalar coefficient is also
    the Frobenius-norm constant of the error bounds.  Built-ins compute
    these symbolically; user coefficients must declare them.
    """

    fn: object
    lipschitz: float
    c_envelope: float

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def theta_constant(c: float) -> ThetaFn:
    c = _finite(c, "theta_constant c")
    return ThetaFn(lambda x: np.full_like(x, c), 0.0, c * c)


def theta_affine_abs(a: float, b: float) -> ThetaFn:
    """theta(x) = a + b |x| with a, b >= 0 (convex, positive when a > 0);
    sup theta^2/(1+x^2) = a^2 + b^2."""
    if _finite(a, "theta_affine_abs a") < 0.0 or _finite(b, "theta_affine_abs b") < 0.0:
        raise DomainError("theta_affine_abs needs a, b >= 0")
    return ThetaFn(lambda x: a + b * np.abs(x), b, a * a + b * b)


def theta_abs_shifted(scale: float, center: float, floor: float = 0.0) -> ThetaFn:
    """theta(x) = max(scale |x - center|, floor): convex, positive when
    floor > 0; sup theta^2/(1+x^2) = max(floor^2, scale^2 (1 + center^2))."""
    for name, value in (("scale", scale), ("center", center), ("floor", floor)):
        _finite(value, f"theta_abs_shifted {name}")
    if scale < 0.0 or floor < 0.0:
        raise DomainError("theta_abs_shifted needs scale, floor >= 0")
    env = max(floor * floor, scale * scale * (1.0 + center * center))
    return ThetaFn(lambda x: np.maximum(scale * np.abs(x - center), floor), scale, env)


def euler_thetas(base: ThetaFn, horizon: float, n_steps: int) -> list[ThetaFn]:
    """Euler scaling: each step uses sqrt(horizon / n) * theta, so the
    squared constants scale by horizon / n."""
    if not _finite(horizon, "euler horizon") > 0.0:
        raise DomainError("euler horizon must be > 0")
    h = horizon / n_steps
    s = math.sqrt(h)
    scaled = ThetaFn(lambda x, s=s: s * base(x), s * base.lipschitz, h * base.c_envelope)
    return [scaled] * n_steps


@dataclass(frozen=True)
class ArchSpec:
    """Dynamics x_{k+1} = x_k + theta_k(x_k) z_{k+1} over n steps (d = q = 1
    for the closed-form path)."""

    thetas: tuple
    dim: int = 1
    noise_dim: int = 1

    def __init__(self, thetas, dim: int = 1, noise_dim: int = 1):
        thetas = tuple(thetas)
        if not thetas:
            raise DomainError("need at least one step")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "noise_dim", noise_dim)

    @property
    def n_steps(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-step innovation: ``law`` is what the chain steps, a centered
    :class:`TruncatedLaw` or :class:`DiscreteDistribution` (within 1e-10).

    Truncation and quantization both keep the innovation centered and keep
    the dropped part orthogonal to the kept part, which is what the error
    analysis needs.  Coupled simulations project draws of ``base`` onto
    ``law``; without a base both paths draw ``law``.
    """

    law: TruncatedLaw | DiscreteDistribution
    base: Law1D | None = None

    def __post_init__(self):
        if isinstance(self.law, DiscreteDistribution):
            _check_centered(self.law)
        elif not isinstance(self.law, TruncatedLaw):
            raise DomainError(f"noise {self.law!r} is not a TruncatedLaw or DiscreteDistribution")

    @classmethod
    def truncated(cls, trunc: TruncatedLaw) -> "NoiseSpec":
        return cls(trunc, base=trunc.base)

    @classmethod
    def quantized(cls, atoms: DiscreteDistribution) -> "NoiseSpec":
        return cls(atoms)

    @classmethod
    def quantized_from(cls, law: Law1D, n_atoms: int) -> "NoiseSpec":
        """Stationary Voronoi quantization of a 1D law (a ``RuntimeWarning``
        if it stops short of its tolerance, 1e-13); atoms are the exact cell
        means, so they keep the law's mean, which every noise spec checks.
        The base law is kept so coupled simulations can project its draws."""
        res = lloyd_1d(law, n_atoms, tol=1e-13)
        if not res.converged:
            warnings.warn(
                f"noise ({n_atoms} atoms): primal grid did not reach tolerance", RuntimeWarning
            )
        return replace(cls.quantized(DiscreteDistribution(res.grid, res.weights)), base=law)

    @property
    def finite(self) -> DiscreteDistribution | None:
        """The noise's atoms, its exact law; None for a truncation of a continuous base."""
        return _finite_law(self.law)


@dataclass(frozen=True)
class MartingaleKernel:
    """Row-stochastic transition whose rows have their source point as
    barycenter."""

    source_grid: np.ndarray
    target_grid: np.ndarray
    matrix: np.ndarray

    def row_sum_residual(self) -> float:
        return float(np.abs(self.matrix.sum(axis=1) - 1.0).max())

    def martingale_residual(self) -> float:
        # one coordinate at a time, so that each row of a (sources, targets)
        # array sums contiguously
        targets = np.reshape(self.target_grid, (len(self.target_grid), -1)).T
        sources = np.reshape(self.source_grid, (len(self.source_grid), -1)).T
        bary = [np.add.reduce(self.matrix * coord, axis=1) for coord in targets]
        return float(np.abs(np.array(bary) - sources).max())


def _weighted_sum(weights, values):
    """The sum over the first axis of ``values`` weighted by ``weights``,
    as an elementwise product that ``np.add.reduce`` sums in its fixed
    order: the same bits under any BLAS kernel."""
    terms = np.reshape(weights, (-1,) + (1,) * (np.ndim(values) - 1)) * values
    return np.add.reduce(terms, axis=0)


def _clamp_rows(matrix: np.ndarray) -> np.ndarray:
    if float(matrix.min(initial=0.0)) < -1e-10:
        raise DomainError(f"kernel has a negative weight {matrix.min():.3e}")
    return np.where(matrix < 0.0, 0.0, matrix)


def _theta_values(theta, xs, what: str = "theta values", noise_dim: int = 1) -> np.ndarray:
    """``theta`` at the source points ``xs``, checked finite: one value >= 0
    per point in 1D, one ``(2, noise_dim)`` matrix per point in 2D.  A
    constant (or an array of per-point values) is broadcast."""
    if not callable(theta):
        shape = xs.shape if xs.ndim == 1 else (xs.shape[0], xs.shape[1], noise_dim)
        vals = np.broadcast_to(np.asarray(theta, dtype=float), shape).astype(float)
    elif xs.ndim == 1:
        vals = theta(xs)
    else:
        vals = np.asarray([theta(x) for x in xs], dtype=float)
    vals = _finite(vals, what)
    if xs.ndim == 1 and not np.all(vals >= 0.0):
        raise DomainError(f"{what} must be >= 0")
    return vals


def _continuous_truncation(trunc: TruncatedLaw) -> TruncatedLaw:
    if not trunc._continuous_base:
        raise DomainError("a truncation of a finite base is a finite noise: step its atoms")
    return trunc


def _images(points, theta_vals, z) -> np.ndarray:
    """``x_i + theta_i z_j``: the image law's atoms, which the kernel splits."""
    return points[:, None] + theta_vals[:, None] * z[None, :]


# ---------------------------------------------------------------------------
# 1D closed-form transitions


def _noise_level(x, u, theta_val):
    """The noise value ``r = (u - x) / theta`` that the step ``x + theta r``
    sends onto ``u``."""
    r = np.subtract(u, x)
    return np.divide(r, theta_val, out=r)


def _transition_values(points, theta_vals, trunc: TruncatedLaw, u):
    """F(u|x), K(u|x) and F(u-|x) of the step ``x + theta z``, z drawn from
    ``trunc``, as (queries, sources) arrays: ``F(u|x) = F(r)`` and ``K(u|x) =
    x F(r) + theta K(r)`` at the noise level ``r = (u - x) / theta``, from
    one batch of the truncation.  A source where theta = 0 is a point mass
    at x: ``F = 1{x <= u}`` and ``F(-) = 1{x < u}``."""
    still = theta_vals == 0.0
    u_col = np.reshape(u, (-1, 1))
    # the sources that stay put divide by 1, so their levels are finite
    levels = _noise_level(points, u_col, np.where(still, 1.0, theta_vals))
    f, k, f_left = trunc.cdf_moment_left_batch(levels)
    if still.any():
        f[:, still], f_left[:, still] = points[still] <= u_col, points[still] < u_col
    return f, points * f + theta_vals * k, f_left


class MixtureTransitionLaw(Law1D):
    """Law of the one-step image of a finitely supported state: the mixture
    over source atoms of the closed-form transition law of a truncation of a
    continuous base (a truncation of a finite base is a finite noise).

    F, K and F(-) at a batch of queries are computed on a (queries, sources)
    array, whose row of weighted transition values each query sums with
    ``np.add.reduce``: the sum of a row depends on that row alone, so a
    query's value is the same bits in any batch and under any BLAS kernel.
    A source where theta = 0 stays put: its column is its point's step.
    """

    def __init__(self, points, weights, theta_values, trunc: TruncatedLaw):
        self.points = np.asarray(points, dtype=float).reshape(-1)
        self.weights = _check_weights(weights, self.points.size)
        self.theta_values = _theta_values(theta_values, self.points)
        self.trunc = _continuous_truncation(trunc)
        self._still = np.flatnonzero(self.theta_values == 0.0)
        # the sources that stay put divide by 1, so their levels are finite
        self._level_theta = np.where(self.theta_values == 0.0, 1.0, self.theta_values)
        # the same float expressions as the image intervals that
        # ``dual_transition_weights`` checks against the target hull
        lo = float(np.min(self.points + self.theta_values * trunc.alpha))
        hi = float(np.max(self.points + self.theta_values * trunc.beta))
        self._hull = (lo, hi)
        self._noise_m2 = trunc.second_moment

    def _mix(self, rows):
        """Each query's row of transition values, weighted and summed."""
        rows *= self.weights
        return np.add.reduce(rows, axis=1)

    def cdf(self, u):
        """The weighted sum of F(u|points), with the noise levels computed
        and clipped in place."""
        u = np.asarray(u, dtype=float)
        levels = _noise_level(self.points, u.reshape(-1, 1), self._level_theta)
        f = self.trunc.cdf_in_place(levels)
        if self._still.size:
            f[:, self._still] = self.points[self._still] <= u.reshape(-1, 1)
        out = self._mix(f)
        return float(out[0]) if u.ndim == 0 else out

    def cdf_left(self, u):
        out = self.cdf_moment_left_batch(u)[2]
        return float(out[0]) if np.ndim(u) == 0 else out

    def partial_moment(self, u):
        """The weighted sum of K(u|points), which tends to the mean as u
        grows (each transition is a martingale step)."""
        out = self.cdf_moment_left_batch(u)[1]
        return float(out[0]) if np.ndim(u) == 0 else out

    def cdf_moment_left_batch(self, u):
        """F, K and F(.-) at once, from one batch evaluation of the noise law."""
        u = np.asarray(u, dtype=float)
        f, k, f_left = _transition_values(self.points, self.theta_values, self.trunc, u)
        return self._mix(f), self._mix(k), self._mix(f_left)

    @property
    def mean(self):
        return float(_weighted_sum(self.weights, self.points))

    @property
    def second_moment(self):
        m2 = self.points ** 2 + self.theta_values ** 2 * self._noise_m2
        return float(_weighted_sum(self.weights, m2))

    @property
    def support(self):
        return self._hull

    def atoms(self):
        # the clipped noise mass stays on each source point, all of it where theta = 0
        stays = np.where(self.theta_values == 0.0, 1.0, self.trunc.clipped_mass)
        return self.points.copy(), self.weights * stays


def dual_transition_weights(source_grid, target_grid, theta, noise) -> MartingaleKernel:
    """Transition matrix of one step ``x + theta(x) z`` followed by the dual
    split, the kernel of every chain step.

    For a :class:`TruncatedLaw` of a continuous base, row i is the hat split
    of the step's F and K at the 1D targets u (``_transition_values``), a
    point mass at ``x_i`` where theta_i = 0.  For a finite noise, a centered
    :class:`DiscreteDistribution`, row i splits each image ``x_i + theta_i
    z_j`` where it falls: on a 1D grid, or on a :class:`Triangulation2D`
    from 2D sources, theta one ``(2, q)`` matrix per source.  1D targets
    must be two or more, strictly increasing, with every image inside their
    hull up to ``hull_slack_1d`` and, for a truncated noise that moves a
    source, at least that slack apart: F and K differences cancel on a
    shorter interval, and a row on targets Delta apart carries a rounding
    error of about 1e-16/Delta.
    """
    xs = np.asarray(source_grid, dtype=float)
    finite = isinstance(noise, DiscreteDistribution)
    if finite:
        _check_centered(noise)
    plane = isinstance(target_grid, Triangulation2D)
    if plane != (xs.ndim == 2 and xs.shape[1] == 2) or (plane and not finite):
        raise DomainError("2D sources and finite noise take a Triangulation2D, 1D ones a 1D grid")
    if plane:
        theta_vals = _theta_values(theta, xs, noise_dim=noise.dim)
        images = xs[:, None, :] + np.einsum("idq,jq->ijd", theta_vals, noise.points)
        tri_idx, lam = target_grid.locate(images.reshape(-1, 2))
        ts, corners, lams = target_grid.vertices, target_grid.triangles[tri_idx].T, lam.T
    else:
        xs, ts = xs.reshape(-1), _check_points(np.reshape(target_grid, -1), min_count=2)
        theta_vals = _theta_values(theta, xs)
        if not finite:
            return _truncated_transition(xs, ts, theta_vals, noise)
        j, lam_right = locate_1d(ts, _images(xs, theta_vals, noise.points_1d).ravel())
        corners, lams = (j, j + 1), (1.0 - lam_right, lam_right)
    # image i * n_atoms + j of source i carries noise weight j onto its corners
    rows, masses = np.repeat(np.arange(len(xs)), noise.n_atoms), np.tile(noise.weights, len(xs))
    pi = _scatter((len(xs), len(ts)), rows, masses, corners, lams)
    return MartingaleKernel(xs, ts, _clamp_rows(pi))


def _truncated_transition(xs, ts, theta_vals, trunc: TruncatedLaw) -> MartingaleKernel:
    """The kernel of a truncated noise, its image intervals checked up front."""
    lo_img, hi_img = (xs + theta_vals * end for end in trunc.support)
    slack = hull_slack_1d(ts[0], ts[-1])
    bad = (lo_img < ts[0] - slack) | (hi_img > ts[-1] + slack)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        over = max(float(ts[0] - lo_img[i]), float(hi_img[i] - ts[-1]))
        raise HullViolation(f"image of source point {xs[i]} leaves the target hull by {over:.3e}")
    _continuous_truncation(trunc)
    close = np.flatnonzero(np.diff(ts) < slack)
    if close.size and np.any(theta_vals > 0.0):
        i = int(close[0])
        raise DomainError(f"target points {ts[i]} and {ts[i + 1]} are closer than {slack:.3e}")
    f, k, f_left = _transition_values(xs, theta_vals, trunc, ts)
    return MartingaleKernel(xs, ts, _clamp_rows(hat_split(ts, f.T, k.T, f_left[0])))


def _check_centered(noise: DiscreteDistribution):
    mean = float(np.abs(noise.mean).max())
    if mean > 1e-10:
        raise DomainError(f"finite noise not centered: |mean| = {mean:.3e} > 1e-10")


# ---------------------------------------------------------------------------
# full chain construction


@dataclass(frozen=True)
class ChainApproximation:
    grids: tuple
    marginal_weights: tuple
    kernels: tuple
    diagnostics: tuple = field(default=())

    @property
    def n_steps(self) -> int:
        return len(self.kernels)

    def marginal(self, k: int) -> DiscreteDistribution:
        return DiscreteDistribution(self.grids[k], self.marginal_weights[k])

    def to_json(self) -> dict:
        return {
            "grids": [np.asarray(g).tolist() for g in self.grids],
            "weights": [w.tolist() for w in self.marginal_weights],
            "kernels": [k.matrix.tolist() for k in self.kernels],
        }


# sweep cap of the dual quantizer of each step's image law
_DUAL_MAX_ITER = 20000


def _initial_state(x0, n0: int, dim: int):
    """Points and weights of the time-0 marginal of a ``dim``-dimensional chain."""
    if dim == 2:
        if not isinstance(x0, DiscreteDistribution) or x0.dim != 2:
            raise DomainError("2D chains start from a 2D DiscreteDistribution")
        return x0.points, x0.weights
    finite = _finite_law(x0)
    if finite is not None:
        return finite.atoms()
    if isinstance(x0, Law1D):
        res = lloyd_1d(x0, n0)
        if not res.converged:
            warnings.warn(f"x0 ({n0} points): primal grid did not reach tolerance", RuntimeWarning)
        return res.grid, res.weights
    raise DomainError("x0 must be a 1D law")


def _image_law(points, weights, theta_vals, noise: DiscreteDistribution) -> DiscreteDistribution:
    """Law of the 1D images ``x_i + theta_i z_j``, coincident images merged.

    An image is rounded by about eps times the law's largest magnitude, as
    ``x_i`` and ``theta_i z_j`` can nearly cancel: so sorted neighbours at
    most ``4 eps max|y|`` apart are one number, and each run of them is one
    atom with the run's mass at its heaviest value (the leftmost of equal
    masses), on which the dual grid spends no more than one point."""
    images = _images(points, theta_vals, noise.points_1d)
    x, w = merged_atoms(images, np.outer(weights, noise.weights)).atoms()
    apart = np.diff(x) > 4.0 * np.finfo(float).eps * np.abs(x).max()
    run = np.concatenate(([0], np.cumsum(apart)))
    starts = np.flatnonzero(np.concatenate(([True], apart)))
    heaviest = np.lexsort((-w, run))[starts]
    return DiscreteDistribution(x[heaviest], np.add.reduceat(w, starts))


def _warm_init(prev_grid, n_next, hull):
    """Previous grid mapped affinely onto the new hull; None if unusable."""
    prev = np.asarray(prev_grid, dtype=float).reshape(-1)
    if prev.size != n_next or prev[-1] <= prev[0]:
        return None
    lo, hi = hull
    mapped = lo + (prev - prev[0]) * (hi - lo) / (prev[-1] - prev[0])
    mapped[0], mapped[-1] = lo, hi
    if np.any(np.diff(mapped) <= 0.0):
        return None
    return mapped


def build_chain(
    arch: ArchSpec, noises, x0, sizes, grid_mode: str = "embedded", grids=None
) -> ChainApproximation:
    """Build grids, marginal weights, and martingale kernels for all steps.

    ``sizes[k]`` is the support budget of time index k (``sizes[0]``
    quantizes a continuous initial law primally, warning if it stops short
    of its tolerance; a finite ``x0``, a :class:`DiscreteDistribution` or a
    truncation of one, is used as its exact atoms).  Each step takes the law
    of the one-step image of the current marginal (the image law of a
    :attr:`NoiseSpec.finite` noise, images one rounding apart merged, else
    a :class:`MixtureTransitionLaw`; none in 2D), its grid (``grids[k]`` in
    ``fixed`` mode, else the dual fixed point of that law) and the kernel
    onto that grid, which checks hull containment; ``hull`` in the
    diagnostics is the hull of the image law.  A 1D coefficient must be
    >= 0; a source where it vanishes stays put.  2D chains take fixed grids
    only, one :class:`Triangulation2D` per step, and quantized noise.
    """
    dim = arch.dim
    if dim not in (1, 2):
        raise OutOfScopeError("chain building is implemented for d = 1 and d = 2")
    noises = list(noises)
    if len(noises) != arch.n_steps:
        raise DomainError("need one noise spec per step")
    sizes = [int(s) for s in sizes]
    if len(sizes) != arch.n_steps + 1:
        raise DomainError("need one size per time index 0..n")
    if grid_mode not in ("embedded", "fixed"):
        raise DomainError("grid_mode must be 'embedded' or 'fixed'")
    if dim == 2 and grid_mode != "fixed":
        raise OutOfScopeError(
            "2D chains support fixed grids only: pass one Triangulation2D per step"
        )
    if grid_mode == "fixed" and (grids is None or len(grids) != arch.n_steps):
        raise DomainError("fixed mode needs one target grid per step")
    if dim == 1 and grid_mode == "fixed":
        grids = [_check_points(np.reshape(g, -1), min_count=2) for g in grids]
    if dim == 2 and any(isinstance(spec.law, TruncatedLaw) for spec in noises):
        raise DomainError("2D chains need finitely supported (quantized) noise")

    grid, weights = _initial_state(x0, sizes[0], dim)
    mean0 = _weighted_sum(weights, grid)
    all_grids, all_weights, kernels, diagnostics = [grid], [weights], [], []
    for k, (theta, noise) in enumerate(zip(arch.thetas, noises)):
        finite = noise.finite
        theta_vals = _theta_values(
            theta, grid, f"theta values of step {k}", finite.dim if dim == 2 else 1
        )
        # 1. the law that gets quantized
        if dim == 2:
            law = None
        elif finite is None:
            law = MixtureTransitionLaw(grid, weights, theta_vals, noise.law)
        else:
            law = _image_law(grid, weights, theta_vals, finite)
        # 2. its grid
        dual_res = None
        if grid_mode == "fixed":
            target = grids[k]
        else:
            init = None
            if finite is None and k >= 1:
                init = _warm_init(grid, sizes[k + 1], law.support)
            dual_res = dual_lloyd_1d(
                law, sizes[k + 1], init=init, tol=1e-9, max_iter=_DUAL_MAX_ITER
            )
            target = dual_res.grid
        # 3. the kernel: embedded grids end exactly on the law's support,
        # the hull it checks, so only a fixed grid can raise HullViolation
        kernel = dual_transition_weights(grid, target, theta_vals, finite or noise.law)
        # 4. bookkeeping
        weights = _weighted_sum(weights, kernel.matrix)
        weights = np.where(weights < 0.0, 0.0, weights)
        grid = kernel.target_grid
        if dual_res is not None:
            distortion, converged = dual_res.distortion, dual_res.converged
        else:
            distortion, converged = None if law is None else dual_split(target, law)[1], None
        diag = {
            "martingale_residual": kernel.martingale_residual(),
            "row_sum_residual": kernel.row_sum_residual(),
            "mean_drift": float(np.abs(_weighted_sum(weights, grid) - mean0).max()),
            "dual_distortion": distortion,
            "dual_converged": converged,
            "hull": None if law is None else law.support,
        }
        if isinstance(law, DiscreteDistribution):
            # the image law before the dual projection (images one rounding
            # apart merged): between the marginals in convex order, up to rounding
            diag["intermediate"] = law
        kernels.append(kernel)
        all_grids.append(grid)
        all_weights.append(weights)
        diagnostics.append(diag)

    return ChainApproximation(
        grids=tuple(all_grids),
        marginal_weights=tuple(all_weights),
        kernels=tuple(kernels),
        diagnostics=tuple(diagnostics),
    )
