"""Convex-order-preserving discretization of martingale ARCH dynamics.

One step of the scheme maps the current finitely supported approximation
through the martingale transition ``x -> x + theta(x) * noise`` and then
splits the result back onto a finite grid with the dual (barycentric)
projection.  Both operations preserve the martingale property exactly, so
consecutive marginals stay in convex order while the support size stays
under control.

In 1D with a centered truncated noise the one-step conditional CDF and
partial first moment have closed forms, so transition kernels and the grids
themselves (via the dual fixed point on the mixture transition law) are
computed without sampling.  With a finitely supported noise the transition
is propagated exactly in any supported dimension by splitting every image
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import Triangulation2D, dual_distortion, dual_lloyd_1d
from .errors import DomainError, HullViolation, OutOfHullError, OutOfScopeError
from .laws import FiniteAtoms, Law1D, TruncatedLaw
from .order import DiscreteDistribution
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
    "transition_cdf",
    "transition_partial_moment",
    "dual_transition_weights",
    "finite_noise_transition",
    "build_chain",
]


@dataclass(frozen=True)
class ThetaFn:
    """Scalar volatility coefficient with declared analytic constants.

    ``lipschitz`` bounds |theta(x) - theta(y)| / |x - y|; ``c_envelope``
    bounds theta(x)^2 / (1 + x^2); ``c_frobenius`` is its Frobenius-norm
    counterpart (equal in 1D).  Built-ins compute these symbolically; user
    coefficients must declare them.
    """

    fn: object
    lipschitz: float
    c_envelope: float
    c_frobenius: float
    convex_abs: bool = True
    nonnegative: bool = True

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)


def theta_constant(c: float) -> ThetaFn:
    c = float(c)
    return ThetaFn(lambda x: np.full_like(x, c), 0.0, c * c, c * c,
                   convex_abs=True, nonnegative=c >= 0.0)


def theta_affine_abs(a: float, b: float) -> ThetaFn:
    """theta(x) = a + b |x| with a, b >= 0 (convex, positive when a > 0);
    sup theta^2/(1+x^2) = a^2 + b^2."""
    if a < 0.0 or b < 0.0:
        raise DomainError("theta_affine_abs needs a, b >= 0")
    return ThetaFn(lambda x: a + b * np.abs(x), b, a * a + b * b, a * a + b * b,
                   convex_abs=True, nonnegative=True)


def theta_abs_shifted(scale: float, center: float, floor: float = 0.0) -> ThetaFn:
    """theta(x) = max(scale |x - center|, floor): convex, positive when
    floor > 0; sup theta^2/(1+x^2) = max(floor^2, scale^2 (1 + center^2))."""
    if scale < 0.0 or floor < 0.0:
        raise DomainError("theta_abs_shifted needs scale, floor >= 0")
    env = max(floor * floor, scale * scale * (1.0 + center * center))
    return ThetaFn(
        lambda x: np.maximum(scale * np.abs(x - center), floor),
        scale, env, env, convex_abs=True, nonnegative=True,
    )


def euler_thetas(base: ThetaFn, horizon: float, n_steps: int) -> list[ThetaFn]:
    """Euler scaling: each step uses sqrt(horizon / n) * theta, so the
    squared constants scale by horizon / n."""
    h = horizon / n_steps
    s = math.sqrt(h)
    scaled = ThetaFn(
        lambda x, s=s: s * base(x),
        s * base.lipschitz,
        h * base.c_envelope,
        h * base.c_frobenius,
        convex_abs=base.convex_abs,
        nonnegative=base.nonnegative,
    )
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
    """Per-step innovation: exact, centered-truncated, or finitely supported.

    Truncation and quantization both keep the innovation centered and keep
    the dropped part orthogonal to the kept part, which is what the error
    analysis needs; quantized atoms must be centered within 1e-10.
    """

    mode: str                      # exact | truncated | quantized
    base: object = None            # Law1D for exact mode
    truncation: TruncatedLaw | None = None
    atoms: DiscreteDistribution | None = None

    @classmethod
    def exact(cls, law) -> "NoiseSpec":
        return cls("exact", base=law)

    @classmethod
    def truncated(cls, trunc: TruncatedLaw) -> "NoiseSpec":
        return cls("truncated", base=trunc.base, truncation=trunc)

    @classmethod
    def quantized(cls, atoms: DiscreteDistribution) -> "NoiseSpec":
        mean = atoms.mean
        if float(np.abs(mean).max()) > 1e-10:
            raise DomainError(f"quantized noise not centered: |mean| = {np.abs(mean).max():.3e}")
        return cls("quantized", atoms=atoms)

    @classmethod
    def quantized_from(cls, law: Law1D, n_atoms: int, tol: float = 1e-13) -> "NoiseSpec":
        """Stationary Voronoi quantization of a 1D law; atoms are the exact
        cell means, so the quantized noise is centered exactly.  The base
        law is kept so coupled simulations can project its draws."""
        res = lloyd_1d(law, n_atoms, tol=tol)
        atoms = DiscreteDistribution(res.grid, res.weights)
        shift = float(atoms.mean[0]) - law.mean
        if abs(shift) > 1e-10:
            raise DomainError(f"quantization drifted off the mean by {shift:.3e}")
        return cls("quantized", base=law, atoms=atoms)


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
        bary = self.matrix @ self.target_grid
        return float(np.abs(bary - self.source_grid).max())


def _clamp_rows(matrix: np.ndarray) -> np.ndarray:
    if float(matrix.min(initial=0.0)) < -1e-10:
        raise DomainError(f"kernel has a negative weight {matrix.min():.3e}")
    return np.where(matrix < 0.0, 0.0, matrix)


# ---------------------------------------------------------------------------
# 1D closed-form transitions for centered truncated noise


def transition_cdf(x, u, theta_val, trunc: TruncatedLaw):
    """P(next <= u | current = x) for next = x + theta * clipped noise.

    The clipped mass stays put (term 1{x <= u}); the kept noise contributes
    F(alpha v (u - x)/theta ^ beta) - F(alpha-).  This is the hot path of
    the 1D dual sweep, so it works in place on one buffer.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    ratio = np.asarray(np.divide(u - x, theta_val))
    np.maximum(ratio, trunc.alpha, out=ratio)
    np.minimum(ratio, trunc.beta, out=ratio)
    vals = np.asarray(trunc.base.cdf(ratio), dtype=float)
    vals += (x <= u) * trunc.clipped_mass
    vals -= trunc.base_f_alpha_left
    return vals[()]  # a scalar for scalar inputs


def transition_cdf_left(x, u, theta_val, trunc: TruncatedLaw):
    """Left limit in u of the transition CDF (the only atom sits at u = x)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta_val = np.asarray(theta_val, dtype=float)
    ratio = np.clip((u - x) / theta_val, trunc.alpha, trunc.beta)
    return (
        np.where(x < u, trunc.clipped_mass, 0.0)
        + np.asarray(trunc.base.cdf_left(ratio))
        - trunc.base_f_alpha_left
    )


def transition_partial_moment(x, u, theta_val, trunc: TruncatedLaw):
    """E(next 1{next <= u} | current = x); tends to x as u grows (martingale)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta_val = np.asarray(theta_val, dtype=float)
    ratio = np.clip((u - x) / theta_val, trunc.alpha, trunc.beta)
    return x * transition_cdf(x, u, theta_val, trunc) + theta_val * (
        np.asarray(trunc.base.partial_moment(ratio)) - trunc.base_k_alpha
    )


class MixtureTransitionLaw(Law1D):
    """Law of the one-step image of a finitely supported state: the mixture
    over source atoms of the closed-form transition law."""

    def __init__(self, points, weights, theta_values, trunc: TruncatedLaw, hull=None):
        self.points = np.asarray(points, dtype=float).reshape(-1)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        self.theta_values = np.asarray(theta_values, dtype=float).reshape(-1)
        if np.any(self.theta_values <= 0.0):
            raise DomainError("closed-form transitions require strictly positive theta")
        self.trunc = trunc
        lo = float(np.min(self.points + self.theta_values * trunc.alpha))
        hi = float(np.max(self.points + self.theta_values * trunc.beta))
        self._hull = (lo, hi) if hull is None else (float(hull[0]), float(hull[1]))
        self._noise_m2 = trunc.second_moment

    def _mix(self, fn, u):
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        vals = fn(self.points[:, None], u.reshape(1, -1), self.theta_values[:, None], self.trunc)
        out = self.weights @ vals
        return float(out[0]) if scalar else out

    def cdf(self, u):
        """``weights @ transition_cdf(points, u, theta_values, trunc)``.

        The product is a BLAS matrix-vector product, which rounds a column
        differently depending on the batch it sits in: the 1D dual sweep
        makes one call per solver round, and keeps its batches, so that its
        grids stay reproducible.
        """
        return self._mix(transition_cdf, u)

    def cdf_left(self, u):
        return self._mix(transition_cdf_left, u)

    def partial_moment(self, u):
        return self._mix(transition_partial_moment, u)

    def cdf_moment_left_batch(self, u):
        """F, K, and F(.-) at once, sharing the clipped-ratio evaluations."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        x = self.points[:, None]
        th = self.theta_values[:, None]
        trunc = self.trunc
        base = trunc.base
        tail, f_alpha_left = trunc.clipped_mass, trunc.base_f_alpha_left
        ratio = np.clip((u[None, :] - x) / th, trunc.alpha, trunc.beta)
        base_f = np.asarray(base.cdf(ratio))
        # a continuous base inherits F(z-) = F(z): skip the second evaluation
        if type(base).cdf_left is Law1D.cdf_left:
            base_fl = base_f
        else:
            base_fl = np.asarray(base.cdf_left(ratio))
        base_k = np.asarray(base.partial_moment(ratio))
        at_or_above = np.where(x <= u[None, :], tail, 0.0)
        f_rows = at_or_above + base_f - f_alpha_left
        fl_rows = np.where(x < u[None, :], tail, 0.0) + base_fl - f_alpha_left
        k_rows = x * f_rows + th * (base_k - trunc.base_k_alpha)
        w = self.weights
        return w @ f_rows, w @ k_rows, w @ fl_rows

    @property
    def mean(self):
        return float(self.weights @ self.points)

    @property
    def second_moment(self):
        return float(
            self.weights @ (self.points ** 2 + self.theta_values ** 2 * self._noise_m2)
        )

    @property
    def support(self):
        return self._hull

    def decompose(self):
        clipped = self.trunc.clipped_mass

        def density(u):
            arr = np.atleast_1d(np.asarray(u, dtype=float))
            z = (arr[None, :] - self.points[:, None]) / self.theta_values[:, None]
            inside = (z >= self.trunc.alpha) & (z <= self.trunc.beta)
            f = np.where(inside, np.asarray(self.trunc.base.density(z)), 0.0)
            out = self.weights @ (f / self.theta_values[:, None])
            return float(out[0]) if np.asarray(u).ndim == 0 else out

        return density, self._hull, self.points.copy(), self.weights * clipped


def dual_transition_weights(
    source_grid, target_grid, theta, trunc: TruncatedLaw, hull_tol: float = 1e-9
) -> MartingaleKernel:
    """Transition matrix of one closed-form step followed by the dual split.

    Row i applies the dual-weight formula to the conditional law of the next
    state given source point i, using the transition F and K closed forms at
    the target points.  Requires every one-step image interval
    ``[x_i + theta_i alpha, x_i + theta_i beta]`` inside the target hull.
    """
    xs = np.asarray(source_grid, dtype=float).reshape(-1)
    ts = np.asarray(target_grid, dtype=float).reshape(-1)
    theta_vals = theta(xs) if callable(theta) else np.broadcast_to(
        np.asarray(theta, dtype=float), xs.shape
    ).astype(float)
    if np.any(theta_vals <= 0.0):
        raise DomainError("closed-form transitions require strictly positive theta")
    lo_img = xs + theta_vals * trunc.alpha
    hi_img = xs + theta_vals * trunc.beta
    span = max(1.0, float(ts[-1] - ts[0]))
    low_bad = lo_img < ts[0] - hull_tol * span
    high_bad = hi_img > ts[-1] + hull_tol * span
    if np.any(low_bad) or np.any(high_bad):
        i = int(np.flatnonzero(low_bad | high_bad)[0])
        overshoot = max(float(ts[0] - lo_img[i]), float(hi_img[i] - ts[-1]))
        raise HullViolation(
            f"image of source point {xs[i]} leaves the target hull by {overshoot:.3e}",
            source_index=i,
            overshoot=overshoot,
        )
    f = transition_cdf(xs[:, None], ts[None, :], theta_vals[:, None], trunc)
    k = transition_partial_moment(xs[:, None], ts[None, :], theta_vals[:, None], trunc)
    df = np.diff(f, axis=1)
    dk = np.diff(k, axis=1)
    dx = np.diff(ts)
    pi = np.zeros((xs.size, ts.size))
    pi[:, 1:] += (dk - ts[:-1] * df) / dx
    pi[:, :-1] += (ts[1:] * df - dk) / dx
    # an atom exactly on the left hull endpoint belongs to it
    f_left_end = transition_cdf_left(xs, np.full_like(xs, ts[0]), theta_vals, trunc)
    pi[:, 0] += f[:, 0] - f_left_end
    return MartingaleKernel(xs, ts, _clamp_rows(pi))


def _split_weights_1d(points: np.ndarray, queries: np.ndarray, tol: float) -> np.ndarray:
    """Dense (Q, N) barycentric split weights on a 1D grid."""
    lo, hi = points[0], points[-1]
    scale = max(1.0, abs(lo), abs(hi))
    if np.any(queries < lo - tol * scale) or np.any(queries > hi + tol * scale):
        bad = queries[(queries < lo - tol * scale) | (queries > hi + tol * scale)][0]
        raise OutOfHullError(f"image point {bad} outside the target hull")
    q = np.clip(queries, lo, hi)
    j = np.clip(np.searchsorted(points, q, side="right") - 1, 0, points.size - 2)
    h = points[j + 1] - points[j]
    lam_right = (q - points[j]) / h
    out = np.zeros((queries.size, points.size))
    rows = np.arange(queries.size)
    np.add.at(out, (rows, j), 1.0 - lam_right)
    np.add.at(out, (rows, j + 1), lam_right)
    return out


def finite_noise_transition(
    source: DiscreteDistribution,
    noise: DiscreteDistribution,
    theta,
    target,
    hull_tol: float = 1e-9,
) -> MartingaleKernel:
    """Exact one-step kernel for a finitely supported noise.

    Every image ``x_i + theta(x_i) z_j`` is split on the target grid and the
    splits are mixed with the noise weights; the result is an exact
    martingale kernel because splits reproduce their argument in mean and
    the noise is centered.
    """
    if float(np.abs(noise.mean).max()) > 1e-10:
        raise DomainError("finite noise must be centered within 1e-10")
    if source.dim == 1:
        xs = source.points_1d
        zs = noise.points_1d
        theta_vals = theta(xs) if callable(theta) else np.broadcast_to(
            np.asarray(theta, dtype=float), xs.shape
        ).astype(float)
        images = xs[:, None] + theta_vals[:, None] * zs[None, :]
        ts = np.asarray(target, dtype=float).reshape(-1)
        try:
            splits = _split_weights_1d(ts, images.ravel(), hull_tol)
        except OutOfHullError as exc:
            raise HullViolation(str(exc)) from exc
        splits = splits.reshape(xs.size, zs.size, ts.size)
        pi = np.einsum("j,ijt->it", noise.weights, splits)
        return MartingaleKernel(xs, ts, _clamp_rows(pi))
    if source.dim == 2:
        if not isinstance(target, Triangulation2D):
            raise DomainError("2D targets must be a Triangulation2D")
        xs = source.points
        if callable(theta):
            mats = np.asarray([theta(x) for x in xs], dtype=float)
        else:
            mats = np.broadcast_to(
                np.asarray(theta, dtype=float), (xs.shape[0], 2, noise.dim)
            )
        images = xs[:, None, :] + np.einsum("idq,jq->ijd", mats, noise.points)
        flat = images.reshape(-1, 2)
        try:
            tri_idx, lam = target.locate(flat, tol=hull_tol)
        except OutOfHullError as exc:
            raise HullViolation(str(exc)) from exc
        n_tgt = target.vertices.shape[0]
        pi = np.zeros((xs.shape[0], n_tgt))
        w_rep = np.repeat(np.arange(xs.shape[0]), noise.n_atoms)
        q_rep = np.tile(noise.weights, xs.shape[0])
        verts = target.triangles[tri_idx]  # (Q, 3)
        for corner in range(3):
            np.add.at(pi, (w_rep, verts[:, corner]), q_rep * lam[:, corner])
        return MartingaleKernel(xs, target.vertices, _clamp_rows(pi))
    raise OutOfScopeError("finite-noise transitions support d = 1 and d = 2")


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

    def mean(self, k: int):
        m = self.marginal_weights[k] @ np.asarray(self.grids[k])
        return float(m) if np.ndim(m) == 0 else m

    def second_moment(self, k: int) -> float:
        pts = np.asarray(self.grids[k])
        sq = pts ** 2 if pts.ndim == 1 else np.einsum("id,id->i", pts, pts)
        return float(self.marginal_weights[k] @ sq)

    def to_json(self) -> dict:
        return {
            "grids": [np.asarray(g).tolist() for g in self.grids],
            "weights": [w.tolist() for w in self.marginal_weights],
            "kernels": [k.matrix.tolist() for k in self.kernels],
        }


def _initial_state(x0, n0: int):
    if isinstance(x0, DiscreteDistribution):
        dd = x0.sorted_1d()
        return dd.points_1d, dd.weights
    if isinstance(x0, Law1D):
        lo, hi = x0.support
        if lo == hi:  # point mass
            return np.array([lo]), np.array([1.0])
        res = lloyd_1d(x0, n0)
        return res.grid, res.weights
    raise DomainError("x0 must be a 1D law or a DiscreteDistribution")


def build_chain(
    arch: ArchSpec,
    noises,
    x0,
    sizes,
    grid_mode: str = "embedded",
    grids=None,
    dual_tol: float = 1e-9,
    dual_max_iter: int = 20000,
    fallback_noise_atoms: int = 15,
) -> ChainApproximation:
    """Build grids, marginal weights, and martingale kernels for all steps.

    ``sizes[k]`` is the support budget of step k (``sizes[0]`` quantizes the
    initial law primally).  In ``embedded`` mode each next grid is the dual
    fixed point of the mixture transition law; ``fixed`` mode takes grids
    from ``grids`` and verifies hull containment.  A coefficient that is not
    strictly positive on the current grid switches that step to the exact
    finite-noise path with a quantized innovation.

    In two dimensions only the fixed-grid finite-noise path is available:
    ``grids`` must hold one :class:`Triangulation2D` per step and the noise
    atoms are split exactly on each triangulation.
    """
    if arch.dim == 2:
        return _build_chain_2d(arch, noises, x0, grid_mode, grids)
    if arch.dim != 1:
        raise OutOfScopeError("chain building is implemented for d = 1 and d = 2")
    noises = list(noises)
    if len(noises) != arch.n_steps:
        raise DomainError("need one noise spec per step")
    sizes = [int(s) for s in sizes]
    if len(sizes) != arch.n_steps + 1:
        raise DomainError("need one size per time index 0..n")
    if grid_mode not in ("embedded", "fixed"):
        raise DomainError("grid_mode must be 'embedded' or 'fixed'")
    if grid_mode == "fixed" and (grids is None or len(grids) != arch.n_steps):
        raise DomainError("fixed mode needs one target grid per step")

    grid, weights = _initial_state(x0, sizes[0])
    all_grids = [np.asarray(grid, dtype=float)]
    all_weights = [np.asarray(weights, dtype=float)]
    kernels = []
    diagnostics = []

    for k in range(arch.n_steps):
        theta = arch.thetas[k]
        noise = noises[k]
        theta_vals = theta(all_grids[k])
        step_noise = noise
        if noise.mode == "truncated" and np.any(theta_vals <= 0.0):
            step_noise = NoiseSpec.quantized_from(noise.truncation, fallback_noise_atoms)
        if noise.mode == "exact":
            raise DomainError(
                "exact (unbounded) noise cannot be dually projected; truncate or quantize it"
            )

        if step_noise.mode == "truncated":
            trunc = step_noise.truncation
            mixture = MixtureTransitionLaw(all_grids[k], all_weights[k], theta_vals, trunc)
            kernel, target, diag = _truncated_step(
                mixture, all_grids[k], theta_vals, trunc, sizes[k + 1],
                grid_mode, grids[k] if grid_mode == "fixed" else None,
                dual_tol, dual_max_iter,
                warm_from=all_grids[k] if k >= 1 else None,
            )
        else:
            source = DiscreteDistribution(all_grids[k], all_weights[k])
            kernel, target, diag = _quantized_step(
                source, step_noise.atoms, theta_vals, sizes[k + 1],
                grid_mode, grids[k] if grid_mode == "fixed" else None,
                dual_tol, dual_max_iter,
            )
        new_weights = all_weights[k] @ kernel.matrix
        new_weights = np.where(new_weights < 0.0, 0.0, new_weights)
        diag["martingale_residual"] = kernel.martingale_residual()
        diag["row_sum_residual"] = kernel.row_sum_residual()
        diag["mean_drift"] = abs(
            float(new_weights @ target) - float(all_weights[0] @ all_grids[0])
        )
        kernels.append(kernel)
        all_grids.append(target)
        all_weights.append(new_weights)
        diagnostics.append(diag)

    return ChainApproximation(
        grids=tuple(all_grids),
        marginal_weights=tuple(all_weights),
        kernels=tuple(kernels),
        diagnostics=tuple(diagnostics),
    )


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


def _build_chain_2d(arch: ArchSpec, noises, x0, grid_mode, grids) -> ChainApproximation:
    """Fixed-grid chain in 2D: exact finite-noise propagation on
    per-step Delaunay triangulations (grid optimization is 1D-only)."""
    noises = list(noises)
    if len(noises) != arch.n_steps:
        raise DomainError("need one noise spec per step")
    if grid_mode != "fixed" or grids is None or len(grids) != arch.n_steps:
        raise OutOfScopeError(
            "2D chains support fixed grids only: pass one Triangulation2D per step"
        )
    if not isinstance(x0, DiscreteDistribution) or x0.dim != 2:
        raise DomainError("2D chains start from a 2D DiscreteDistribution")
    for tri in grids:
        if not isinstance(tri, Triangulation2D):
            raise DomainError("2D targets must be Triangulation2D instances")
    for spec in noises:
        if spec.mode != "quantized":
            raise DomainError("2D chains need finitely supported (quantized) noise")
    all_grids = [x0.points]
    all_weights = [x0.weights]
    kernels = []
    diagnostics = []
    mean0 = x0.mean
    for k in range(arch.n_steps):
        source = DiscreteDistribution(all_grids[k], all_weights[k])
        kernel = finite_noise_transition(source, noises[k].atoms, arch.thetas[k], grids[k])
        weights = all_weights[k] @ kernel.matrix
        weights = np.where(weights < 0.0, 0.0, weights)
        kernels.append(kernel)
        all_grids.append(grids[k].vertices)
        all_weights.append(weights)
        diagnostics.append(
            {
                "mode": "quantized",
                "martingale_residual": kernel.martingale_residual(),
                "row_sum_residual": kernel.row_sum_residual(),
                "mean_drift": float(np.abs(weights @ grids[k].vertices - mean0).max()),
                "dual_distortion": None,
                "hull": None,
            }
        )
    return ChainApproximation(
        grids=tuple(all_grids),
        marginal_weights=tuple(all_weights),
        kernels=tuple(kernels),
        diagnostics=tuple(diagnostics),
    )


def _truncated_step(
    mixture, source_grid, theta_vals, trunc, n_next, grid_mode, fixed_grid,
    dual_tol, dual_max_iter, warm_from=None,
):
    if grid_mode == "fixed":
        target = np.asarray(fixed_grid, dtype=float).reshape(-1)
        dual_res = None
    else:
        init = None
        if warm_from is not None:
            init = _warm_init(warm_from, n_next, mixture.support)
        dual_res = dual_lloyd_1d(
            mixture, n_next, init=init, tol=dual_tol, max_iter=dual_max_iter
        )
        target = dual_res.grid
    try:
        kernel = dual_transition_weights(source_grid, target, theta_vals, trunc)
    except HullViolation:
        if grid_mode == "fixed":
            raise
        lo, hi = mixture.support
        width = hi - lo
        widened = MixtureTransitionLaw(
            mixture.points, mixture.weights, mixture.theta_values, trunc,
            hull=(lo - 1e-9 * width, hi + 1e-9 * width),
        )
        dual_res = dual_lloyd_1d(widened, n_next, tol=dual_tol, max_iter=dual_max_iter)
        target = dual_res.grid
        kernel = dual_transition_weights(source_grid, target, theta_vals, trunc)
    diag = {
        "mode": "truncated",
        "dual_distortion": dual_res.distortion if dual_res is not None
        else dual_distortion(target, mixture),
        "dual_converged": dual_res.converged if dual_res is not None else None,
        "hull": mixture.support,
    }
    return kernel, target, diag


def _quantized_step(
    source, noise_atoms, theta_vals, n_next, grid_mode, fixed_grid, dual_tol, dual_max_iter
):
    xs = source.points_1d
    images = xs[:, None] + theta_vals[:, None] * noise_atoms.points_1d[None, :]
    masses = np.outer(source.weights, noise_atoms.weights)
    uniq, inverse = np.unique(images.ravel(), return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, masses.ravel())
    image_law = FiniteAtoms(uniq, w / w.sum())
    if grid_mode == "fixed":
        target = np.asarray(fixed_grid, dtype=float).reshape(-1)
        dual_res = None
    else:
        dual_res = dual_lloyd_1d(image_law, n_next, tol=dual_tol, max_iter=dual_max_iter)
        target = dual_res.grid
    kernel = finite_noise_transition(source, noise_atoms, theta_vals, target)
    diag = {
        "mode": "quantized",
        "dual_distortion": dual_res.distortion if dual_res is not None
        else dual_distortion(target, image_law),
        "dual_converged": dual_res.converged if dual_res is not None else None,
        "hull": (float(target[0]), float(target[-1])),
        # the exact law of the one-step image before the dual projection:
        # it interleaves the marginals in the convex order
        "intermediate": DiscreteDistribution(image_law.points, image_law.weights),
    }
    return kernel, target, diag
