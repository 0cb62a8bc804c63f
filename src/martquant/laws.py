"""Analytic one-dimensional laws with closed-form F, K and M.

Every law exposes the cumulative distribution function ``F(z) = P(Z <= z)``,
the partial first moment ``K(z) = E[Z 1{Z <= z}]`` and the partial second
moment ``M(z) = E[Z^2 1{Z <= z}]``, all right-continuous and finite at
``z = +-inf``.  ``cdf_left`` gives the left limit ``F(z-)``, which differs
from ``F`` only for laws with atoms.  The 1D quantizers and transition
kernels need F and K; quadratic distortions and truncated second moments
are exact sums of F, K and M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DimensionMismatch, DomainError

__all__ = [
    "Law1D",
    "Uniform",
    "Normal",
    "Exponential",
    "PowerDensity2x",
    "DiscreteDistribution",
    "TruncatedLaw",
    "law_from_json",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _as_array(z):
    arr = np.asarray(z, dtype=float)
    return arr, arr.ndim == 0


def _ret(values, scalar):
    return float(values) if scalar else values


# ---------------------------------------------------------------------------
# the one check of finite point sets, their weights and law parameters


def _finite(value, what: str):
    """``value`` as a float, or a float array, if every entry is finite;
    else :class:`DomainError` naming ``what``."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be numbers, got {value!r}") from None
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite" + ("" if arr.ndim else f", got {value!r}"))
    return arr if arr.ndim else float(arr)


def _json_float(obj: dict, key: str, block: str, default=None) -> float:
    """``obj[key]``, or ``default`` if given and the key is absent, as a
    float: a JSON number or a string of one.  A list, an object, a bool or
    any other string is a :class:`DomainError` naming ``block`` and ``key``."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{block} key '{key}' must be a number, got {value!r}")


def _check_points(points, min_count: int = 1) -> np.ndarray:
    """``points`` as a float array of at least ``min_count`` finite, pairwise
    distinct points: a 1D array must be strictly increasing, and the rows of
    an (N, d) array must differ, which one row ``lexsort`` tells."""
    points = _finite(points, "points")
    if np.ndim(points) not in (1, 2):
        raise DomainError("points must form a 1D or an (N, d) array")
    if points.shape[0] < min_count:
        raise DomainError(f"need {min_count} or more points, got {points.shape[0]}")
    if points.ndim == 1:
        if np.any(np.diff(points) <= 0.0):
            raise DomainError("points must be pairwise distinct and increasing")
    else:
        rows = points[np.lexsort(points.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise DomainError("points must be pairwise distinct")
    return points


def _check_weights(weights, n_points: int) -> np.ndarray:
    """``weights`` as a float array of ``n_points`` finite masses ``>= 0``
    that sum to 1 within 1e-12."""
    weights = _finite(np.reshape(weights, -1), "weights")
    if weights.size != n_points:
        raise DomainError("points and weights must be aligned")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
        raise DomainError("weights must be >= 0 and sum to 1 within 1e-12")
    return weights


class Law1D:
    """Base class: a 1D probability law with closed-form F, K and M."""

    def cdf(self, z):
        raise NotImplementedError

    def cdf_left(self, z):
        # Continuous laws: F(z-) = F(z).  Atomic laws override.
        return self.cdf(z)

    def partial_moment(self, z):
        raise NotImplementedError

    def partial_second_moment(self, z):
        raise NotImplementedError

    def cdf_moment_left_batch(self, z):
        """``(F(z), K(z), F(z-))`` as arrays; laws that can share work
        between the three override it."""
        return (
            np.asarray(self.cdf(z)),
            np.asarray(self.partial_moment(z)),
            np.asarray(self.cdf_left(z)),
        )

    def quantile(self, u):
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def second_moment(self) -> float:
        raise NotImplementedError

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def atoms(self):
        """``(points, masses)`` of the atoms of the law; empty for
        continuous laws."""
        return np.empty(0), np.empty(0)

    def draw(self, gen, n: int, out=None) -> np.ndarray:
        """``n`` draws from the generator ``gen`` by the inverse transform,
        written into the float array ``out`` if one is given; laws with an
        exact sampler of their own override it."""
        u = gen.random(n, out=out)
        x = np.asarray(self.quantile(np.maximum(u, 1e-300, out=u)), dtype=float)
        if out is None:
            return x
        out[...] = x
        return out

    def _check_u(self, u):
        arr, scalar = _as_array(u)
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("quantile level must lie in (0, 1)")
        return arr, scalar


@dataclass(frozen=True)
class Uniform(Law1D):
    a: float
    b: float

    def __post_init__(self):
        if not _finite(self.a, "Uniform a") < _finite(self.b, "Uniform b"):
            raise DomainError("Uniform requires a < b")

    def cdf(self, z):
        z, scalar = _as_array(z)
        return _ret(np.clip((z - self.a) / (self.b - self.a), 0.0, 1.0), scalar)

    def partial_moment(self, z):
        z, scalar = _as_array(z)
        zc = np.clip(z, self.a, self.b)
        return _ret((zc * zc - self.a * self.a) / (2.0 * (self.b - self.a)), scalar)

    def partial_second_moment(self, z):
        z, scalar = _as_array(z)
        zc = np.clip(z, self.a, self.b)
        return _ret((zc ** 3 - self.a ** 3) / (3.0 * (self.b - self.a)), scalar)

    def quantile(self, u):
        u, scalar = self._check_u(u)
        return _ret(self.a + (self.b - self.a) * u, scalar)

    @property
    def mean(self):
        return 0.5 * (self.a + self.b)

    @property
    def second_moment(self):
        return (self.a * self.a + self.a * self.b + self.b * self.b) / 3.0

    @property
    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Normal(Law1D):
    """Gaussian law; F via the erf-based ``scipy.special.ndtr`` (|err| < 1e-15).

    With ``u = (z - m)/s`` and phi the standard normal density, the partial
    moments are ``K(z) = m F(z) - s phi(u)`` and ``M(z) = (m^2 + s^2) F(z) -
    s (m + z) phi(u)`` (Pages & Printems 2003).
    """

    m: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        _finite(self.m, "Normal mean")
        if _finite(self.s, "Normal sd") <= 0.0:
            raise DomainError("Normal requires s > 0")

    def _std(self, z):
        if self.m == 0.0 and self.s == 1.0:
            return z  # (z - 0.0) / 1.0 is z bit for bit, signed zeros included
        return (z - self.m) / self.s

    def cdf(self, z):
        z, scalar = _as_array(z)
        return _ret(ndtr(self._std(z)), scalar)

    def partial_moment(self, z):
        z, scalar = _as_array(z)
        u = self._std(z)
        phi = np.exp(-0.5 * u * u) / _SQRT2PI
        return _ret(self.m * ndtr(u) - self.s * phi, scalar)

    def partial_second_moment(self, z):
        z, scalar = _as_array(z)
        u = self._std(z)
        phi = np.exp(-0.5 * u * u) / _SQRT2PI
        # phi vanishes at z = +-inf, where (m + z) phi would be inf * 0
        tail = self.s * (self.m + np.where(phi > 0.0, z, 0.0)) * phi
        return _ret(self.second_moment * ndtr(u) - tail, scalar)

    def quantile(self, u):
        u, scalar = self._check_u(u)
        if self.m == 0.0 and self.s == 1.0:
            return _ret(ndtri(u), scalar)  # 0.0 + 1.0 * z is z, as in _std
        return _ret(self.m + self.s * ndtri(u), scalar)

    def draw(self, gen, n: int, out=None) -> np.ndarray:
        """``gen.standard_normal(n)``, numpy's ziggurat (Marsaglia & Tsang
        2000), mapped to ``m + s z`` unless the law is N(0, 1); written into
        the float array ``out`` if one is given."""
        z = gen.standard_normal(n, out=out)
        if self.m == 0.0 and self.s == 1.0:
            return z
        z *= self.s
        z += self.m
        return z

    @property
    def mean(self):
        return self.m

    @property
    def second_moment(self):
        return self.m * self.m + self.s * self.s

    @property
    def support(self):
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class Exponential(Law1D):
    rate: float

    def __post_init__(self):
        if _finite(self.rate, "Exponential rate") <= 0.0:
            raise DomainError("Exponential requires rate > 0")

    def cdf(self, z):
        z, scalar = _as_array(z)
        return _ret(np.where(z > 0.0, -np.expm1(-self.rate * np.maximum(z, 0.0)), 0.0), scalar)

    def partial_moment(self, z):
        z, scalar = _as_array(z)
        zp = np.minimum(np.maximum(z, 0.0), 1e306)
        ez = np.exp(-self.rate * zp)
        val = -np.expm1(-self.rate * zp) / self.rate - zp * ez
        return _ret(np.where(z > 0.0, val, 0.0), scalar)

    def partial_second_moment(self, z):
        z, scalar = _as_array(z)
        zp = np.minimum(np.maximum(z, 0.0), 1e306)
        ez = np.exp(-self.rate * zp)
        # (zp ez) first: it is 0, not inf * 0, once ez underflows
        val = self.second_moment * -np.expm1(-self.rate * zp) - zp * ez * (zp + 2.0 / self.rate)
        return _ret(np.where(z > 0.0, val, 0.0), scalar)

    def quantile(self, u):
        u, scalar = self._check_u(u)
        return _ret(-np.log1p(-u) / self.rate, scalar)

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def second_moment(self):
        return 2.0 / (self.rate * self.rate)

    @property
    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class PowerDensity2x(Law1D):
    """Law with density 2x on [0, 1]; F(z) = z^2, K(z) = 2 z^3 / 3,
    M(z) = z^4 / 2."""

    def cdf(self, z):
        z, scalar = _as_array(z)
        zc = np.clip(z, 0.0, 1.0)
        return _ret(zc * zc, scalar)

    def partial_moment(self, z):
        z, scalar = _as_array(z)
        zc = np.clip(z, 0.0, 1.0)
        return _ret(2.0 * zc ** 3 / 3.0, scalar)

    def partial_second_moment(self, z):
        z, scalar = _as_array(z)
        zc = np.clip(z, 0.0, 1.0)
        return _ret(zc ** 4 / 2.0, scalar)

    def quantile(self, u):
        u, scalar = self._check_u(u)
        return _ret(np.sqrt(u), scalar)

    @property
    def mean(self):
        return 2.0 / 3.0

    @property
    def second_moment(self):
        return 0.5

    @property
    def support(self):
        return (0.0, 1.0)


@dataclass(frozen=True)
class DiscreteDistribution(Law1D):
    """Finitely supported probability measure with points stored as (N, d),
    in the order given.

    In 1D it is a :class:`Law1D`: F is the right-continuous step function
    and the quantile is the left-continuous generalized inverse
    ``inf{x : F(x) >= u}``, both over the atoms sorted once.  In dimension
    2 and up the methods of a 1D law raise :class:`DimensionMismatch`.
    """

    points: np.ndarray
    weights: np.ndarray

    def __init__(self, points, weights):
        points = _finite(points, "points")
        points = _check_points(points[:, None] if np.ndim(points) == 1 else points)
        weights = _check_weights(weights, points.shape[0])
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def points_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise DimensionMismatch("operation requires one-dimensional support")
        return self.points[:, 0]

    @cached_property
    def _sorted(self):
        """The 1D atoms sorted, their weights, and the cumulative sums of
        the weights, of ``x w`` and of ``x^2 w`` over them; read-only, since
        every caller of :meth:`atoms` gets the same arrays."""
        order = np.argsort(self.points_1d, kind="stable")
        points, weights = self.points_1d[order], self.weights[order]
        arrays = (
            points,
            weights,
            np.cumsum(weights),
            np.cumsum(points * weights),
            np.cumsum(points * points * weights),
        )
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def _partial(self, cum, z, side):
        z, scalar = _as_array(z)
        idx = np.searchsorted(self._sorted[0], z, side=side)
        padded = np.concatenate(([0.0], cum))
        return _ret(padded[idx], scalar)

    def cdf(self, z):
        return self._partial(self._sorted[2], z, "right")

    def cdf_left(self, z):
        return self._partial(self._sorted[2], z, "left")

    def partial_moment(self, z):
        return self._partial(self._sorted[3], z, "right")

    def partial_second_moment(self, z):
        return self._partial(self._sorted[4], z, "right")

    def quantile(self, u):
        u, scalar = self._check_u(u)
        points, _, cum = self._sorted[:3]
        idx = np.minimum(np.searchsorted(cum, u, side="left"), points.size - 1)
        return _ret(points[idx], scalar)

    @property
    def mean(self):
        """A float in 1D, a (d,) array in dimension 2 and up."""
        mean = self.weights @ self.points
        return float(mean[0]) if self.dim == 1 else mean

    @property
    def second_moment(self) -> float:
        return float(self.weights @ np.einsum("ij,ij->i", self.points, self.points))

    @property
    def support(self):
        points = self._sorted[0]
        return (float(points[0]), float(points[-1]))

    def atoms(self):
        return self._sorted[:2]

    def expectation(self, fn) -> float:
        return float(self.weights @ np.asarray(fn(self.points), dtype=float))


def _is_symmetric_about_zero(law: Law1D) -> bool:
    if isinstance(law, Normal):
        return law.m == 0.0
    if isinstance(law, Uniform):
        return law.a == -law.b
    if isinstance(law, DiscreteDistribution):
        pts, w = law.atoms()
        rev = np.argsort(-pts)
        return np.allclose(pts, -pts[rev]) and np.allclose(w, w[rev])
    return False


@dataclass(frozen=True)
class TruncatedLaw(Law1D):
    """Law of ``Z 1{Z in [alpha, beta]}`` for ``Z ~ base``: the centered
    truncation keeps an atom at 0 carrying the clipped mass.

    The pair must satisfy ``E Z 1{Z in [alpha, beta]} = 0``, i.e.
    ``K(beta) - K(alpha-) = 0`` within 1e-10.  Use :meth:`centered` to solve
    for ``beta`` given ``alpha``.

    F, F(-), K and M are the base's at ``z`` clipped to ``[alpha, beta]``,
    less the base's at ``alpha-``; F adds the clipped mass from ``z = 0``
    on and F(-) from ``z > 0`` on.  At the ends ``F = K = M = 0`` below
    ``alpha`` and ``F(-) = 1`` above ``beta``, so an atom of the base at
    ``alpha`` or ``beta`` is kept whole.
    """

    base: Law1D
    alpha: float
    beta: float

    def __post_init__(self):
        alpha, beta = _finite(self.alpha, "truncation alpha"), _finite(self.beta, "truncation beta")
        if not (alpha < 0.0 < beta):
            raise DomainError("truncation requires alpha < 0 < beta")
        if abs(self.centering_residual) > 1e-10:
            raise DomainError(
                f"truncation not centered: |K(beta)-K(alpha-)| = "
                f"{abs(self.centering_residual):.3e} > 1e-10"
            )

    @property
    def centering_residual(self) -> float:
        return self.base.partial_moment(self.beta) - self.base_k_alpha_left

    @classmethod
    def centered(cls, base: Law1D, alpha: float, beta="auto") -> "TruncatedLaw":
        """Build a centered truncation, solving for ``beta`` when ``"auto"``.

        For a symmetric base and ``beta = -alpha`` the pair is accepted
        directly; otherwise ``beta`` solves ``K(beta) = K(alpha-)`` by
        bracketed bisection to 1e-12.
        """
        if alpha >= 0.0:
            raise DomainError("alpha must be negative")
        k_alpha_left = _partial_moment_left(base, alpha)
        if beta != "auto":
            return cls(base, alpha, float(beta))
        if _is_symmetric_about_zero(base):
            return cls(base, alpha, -alpha)
        if k_alpha_left >= 0.0:
            raise DomainError(
                "cannot center truncation: no negative mass kept below alpha to balance"
            )

        def g(b):
            return base.partial_moment(b) - k_alpha_left

        lo, hi = 0.0, 1.0
        while g(hi) < 0.0:
            hi *= 2.0
            if hi > 1e18:
                raise DomainError("cannot center truncation: K(beta) never reaches K(alpha-)")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, hi):
                break
        return cls(base, alpha, 0.5 * (lo + hi))

    def _clip_in_place(self, z):
        """Clip the noise levels ``z`` to ``[alpha, beta]`` in place.  Returns
        where ``z`` lay below ``alpha`` and above ``beta``, which only an
        atomic base needs (``None`` for a continuous one)."""
        ends = None if self._continuous_base else (z < self.alpha, z > self.beta)
        np.maximum(z, self.alpha, out=z)
        np.minimum(z, self.beta, out=z)
        return ends

    # The ``_from`` helpers take a fresh array of base values at the clipped
    # levels ``zc`` and turn it into the truncated law's values in place.

    def _kept(self, vals, at_alpha_left, ends):
        vals -= at_alpha_left
        if ends is not None:
            np.copyto(vals, 0.0, where=ends[0])
        return vals

    def _cdf_from(self, base_f, zc, ends):
        # only F counts the clipped atom at 0: it adds nothing to K or M.
        # (copyto of a full sum is about twice as fast as a masked add.)
        np.copyto(base_f, base_f + self.clipped_mass, where=zc >= 0.0)
        return self._kept(base_f, self.base_f_alpha_left, ends)

    def _cdf_left_from(self, base_f_left, zc, ends):
        np.copyto(base_f_left, base_f_left + self.clipped_mass, where=zc > 0.0)
        vals = self._kept(base_f_left, self.base_f_alpha_left, ends)
        if ends is not None:
            # z = beta keeps an atom of the base at beta, which truncation keeps
            np.copyto(vals, 1.0, where=ends[1])
        return vals

    def cdf_in_place(self, z):
        """F at the float array ``z``, which is left clipped to ``[alpha,
        beta]``: the mixture transition law's F (the hot path of the 1D dual
        sweep) hands over its fresh noise levels instead of a copy."""
        ends = self._clip_in_place(z)
        return self._cdf_from(np.asarray(self.base.cdf(z)), z, ends)

    def cdf(self, z):
        z = np.array(z, dtype=float)
        return _ret(self.cdf_in_place(z), z.ndim == 0)

    def cdf_left(self, z):
        z = np.array(z, dtype=float)
        ends = self._clip_in_place(z)
        return _ret(self._cdf_left_from(np.asarray(self.base.cdf_left(z)), z, ends), z.ndim == 0)

    def partial_moment(self, z):
        z = np.array(z, dtype=float)
        ends = self._clip_in_place(z)
        base_k = np.asarray(self.base.partial_moment(z))
        return _ret(self._kept(base_k, self.base_k_alpha_left, ends), z.ndim == 0)

    def partial_second_moment(self, z):
        z = np.array(z, dtype=float)
        ends = self._clip_in_place(z)
        base_m = np.asarray(self.base.partial_second_moment(z))
        return _ret(self._kept(base_m, self.base_m_alpha_left, ends), z.ndim == 0)

    def cdf_moment_left_batch(self, z):
        """F, K and F(-) on one clip of ``z``, with one base F if it is continuous."""
        z = np.array(z, dtype=float)
        ends = self._clip_in_place(z)
        base_f = np.asarray(self.base.cdf(z))
        base_f_left = base_f.copy() if self._continuous_base else np.asarray(self.base.cdf_left(z))
        base_k = np.asarray(self.base.partial_moment(z))
        return (
            self._cdf_from(base_f, z, ends),
            self._kept(base_k, self.base_k_alpha_left, ends),
            self._cdf_left_from(base_f_left, z, ends),
        )

    def quantile(self, u):
        u, scalar = self._check_u(u)
        fa = self.base_f_alpha_left
        atom = self.clipped_mass
        f0 = self.base.cdf_left(0.0) - fa     # mass strictly below the atom at 0
        below = u <= f0
        above = u > f0 + atom
        out = np.zeros_like(u)
        if np.any(below):
            out[below] = self.base.quantile(np.clip(u[below] + fa, 1e-16, 1.0 - 1e-16))
        if np.any(above):
            out[above] = self.base.quantile(np.clip(u[above] - atom + fa, 1e-16, 1.0 - 1e-16))
        return _ret(np.clip(out, self.alpha, self.beta), scalar)

    def zero_outside(self, z: np.ndarray, out=None) -> np.ndarray:
        """``z`` set to 0 outside ``[alpha, beta]``, into ``out`` if it is
        given (``z`` itself included): the truncation of draws ``z`` of the
        base."""
        return np.multiply(z, (z >= self.alpha) & (z <= self.beta), out=out)

    def draw(self, gen, n: int, out=None) -> np.ndarray:
        """Draws of the base from ``gen``, set to 0 outside ``[alpha, beta]``;
        written into the float array ``out`` if one is given."""
        z = self.base.draw(gen, n, out=out)
        return self.zero_outside(z, out=z)

    @property
    def mean(self):
        return 0.0

    @property
    def second_moment(self):
        return self.partial_second_moment(self.beta)  # M(beta) - M(alpha-) of the base

    @property
    def support(self):
        return (self.alpha, self.beta)

    # constants of the closed forms, computed once per (immutable) law

    @cached_property
    def _continuous_base(self) -> bool:
        """A base with ``F(z-) = F(z)`` has ``F(alpha) - F(alpha-)`` exactly 0,
        and K's and M's too, so the ends need no mask."""
        return type(self.base).cdf_left is Law1D.cdf_left

    @cached_property
    def base_f_alpha_left(self) -> float:
        """F(alpha-) of the base law."""
        return float(self.base.cdf_left(self.alpha))

    @cached_property
    def base_k_alpha_left(self) -> float:
        """K(alpha-) of the base law."""
        return float(_partial_moment_left(self.base, self.alpha))

    @cached_property
    def base_m_alpha_left(self) -> float:
        """M(alpha-) = M(alpha) - alpha^2 (F(alpha) - F(alpha-)) of the base law."""
        atom = self.base.cdf(self.alpha) - self.base_f_alpha_left
        return float(self.base.partial_second_moment(self.alpha) - self.alpha * self.alpha * atom)

    @cached_property
    def clipped_mass(self) -> float:
        """Mass of the atom at 0: P(Z outside [alpha, beta])."""
        return 1.0 - self.base.cdf(self.beta) + self.base_f_alpha_left

    def atoms(self):
        base_atoms, base_masses = self.base.atoms()
        keep = (base_atoms >= self.alpha) & (base_atoms <= self.beta) & (base_atoms != 0.0)
        # a base atom at 0 merges with the clipped mass
        at_zero = base_masses[base_atoms == 0.0].sum() + self.clipped_mass
        return np.append(base_atoms[keep], 0.0), np.append(base_masses[keep], at_zero)


def _finite_law(law) -> DiscreteDistribution | None:
    """The exact atoms of a finite ``law``: a :class:`DiscreteDistribution`
    or a truncation of one, which keeps an atom at its ends whole; else None."""
    if isinstance(law, DiscreteDistribution):
        return law
    if isinstance(law, TruncatedLaw) and isinstance(law.base, DiscreteDistribution):
        return DiscreteDistribution(*law.atoms())
    return None


def _partial_moment_left(law: Law1D, z: float) -> float:
    """K(z-) = K(z) - z * (F(z) - F(z-))."""
    return law.partial_moment(z) - z * (law.cdf(z) - law.cdf_left(z))


_TRIVIAL_KINDS = {
    "uniform01": lambda: Uniform(0.0, 1.0),
    "normal01": lambda: Normal(0.0, 1.0),
    "power2x": lambda: PowerDensity2x(),
}


def law_from_json(obj) -> Law1D:
    """Build a law from its JSON description.

    Examples: ``{"kind": "normal", "mean": 0, "sd": 1}``,
    ``{"kind": "uniform", "a": -1, "b": 1}``, ``{"kind": "exponential",
    "rate": 2}``, ``{"kind": "power2x"}``, ``{"kind": "pointmass", "x": 2}``,
    ``{"kind": "atoms", "points": [...], "weights": [...]}``.  An optional
    ``"truncation": {"alpha": -3, "beta": "auto"}`` block wraps the law in a
    centered truncation.
    """
    if isinstance(obj, str):
        if obj in _TRIVIAL_KINDS:
            return _TRIVIAL_KINDS[obj]()
        raise DomainError(f"unknown law shortcut {obj!r}")
    if not isinstance(obj, dict):
        raise DomainError(f"a law must be a name or an object, got {obj!r}")
    kind = obj.get("kind")
    block = f"{kind} law"
    if kind == "uniform":
        law = Uniform(_json_float(obj, "a", block), _json_float(obj, "b", block))
    elif kind == "normal":
        law = Normal(_json_float(obj, "mean", block, 0.0), _json_float(obj, "sd", block, 1.0))
    elif kind == "exponential":
        law = Exponential(_json_float(obj, "rate", block))
    elif kind == "power2x":
        law = PowerDensity2x()
    elif kind == "pointmass":
        law = DiscreteDistribution([_json_float(obj, "x", block)], [1.0])
    elif kind == "atoms":
        law = DiscreteDistribution(obj["points"], obj["weights"])
    else:
        raise DomainError(f"unknown law kind {kind!r}")
    trunc = obj.get("truncation")
    if trunc is not None:
        if not isinstance(trunc, dict):
            raise DomainError(f"a truncation block must be an object, got {trunc!r}")
        beta = trunc.get("beta", "auto")
        if beta != "auto":
            beta = _json_float(trunc, "beta", "truncation")
        law = TruncatedLaw.centered(law, _json_float(trunc, "alpha", "truncation"), beta)
    return law
