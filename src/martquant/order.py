"""Convex order on finitely supported distributions.

``mu <= nu`` in the convex order iff every convex test function has a larger
integral under ``nu``.  Equal means are necessary.  In one dimension the
order is then decided in closed form: it holds iff the call prices satisfy
``E(X - k)+ <= E(Y - k)+`` at every atom ``k`` of either law, and a failing
strike gives a straddle witness.  In higher dimension it is equivalent
(Strassen) to the feasibility of a martingale coupling, a sparse LP solved
by :mod:`martquant.lp`; on infeasibility the Farkas certificate is turned
into an explicit max-of-affine convex witness separating the two laws.
:func:`coupling_lp` builds that LP for any number of marginals; the MOT
price bounds of :mod:`martquant.mot` are LPs over the same constraints.
The max-of-affine payoffs below also make up the batteries with which the
tests check path-level convex-order domination on Monte Carlo paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp as lpmod
from .errors import DimensionMismatch, DomainError
from .laws import DiscreteDistribution, Law1D, _finite
from .rng import make_generator

__all__ = [
    "MaxAffineFunction",
    "OrderCheck",
    "convex_order_check",
    "moment_vs_wasserstein_scan",
    "ScanReport",
]


def merged_atoms(points, weights) -> DiscreteDistribution:
    """Discrete distribution with exactly-coincident 1D atoms merged, the
    weights renormalized; an atom of mass 0 is kept."""
    points = _finite(np.reshape(points, -1), "points")
    weights = _finite(np.reshape(weights, -1), "weights")
    order = np.argsort(points, kind="stable")
    points, weights = points[order], weights[order]
    uniq, inverse = np.unique(points, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, weights)
    if not w.sum() > 0.0:
        raise DomainError("empty distribution")
    return DiscreteDistribution(uniq, w / w.sum())


@dataclass(frozen=True)
class MaxAffineFunction:
    """x -> max_k (offset_k + slope_k . x): convex with linear growth.

    ``slopes`` holds one row per offset, a ``(pieces, d)`` array, and a call
    takes an ``(n, d)`` array of points."""

    offsets: np.ndarray
    slopes: np.ndarray

    def __init__(self, offsets, slopes):
        offsets = np.asarray(offsets, dtype=float).reshape(-1)
        slopes = np.asarray(slopes, dtype=float)
        if slopes.ndim != 2 or slopes.shape[0] != offsets.size:
            raise DomainError("slopes must be a (pieces, d) array, one row per offset")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "slopes", slopes)

    def __call__(self, points) -> np.ndarray:
        return (self.offsets + np.asarray(points, dtype=float) @ self.slopes.T).max(axis=1)


def call_payoff(dim: int, axis: int, strike: float) -> MaxAffineFunction:
    """(x_axis - strike)_+ as a two-piece max-of-affine function."""
    slope = np.zeros((2, dim))
    slope[1, axis] = 1.0
    return MaxAffineFunction([0.0, -strike], slope)


def path_max_call(dim: int, strike: float) -> MaxAffineFunction:
    """(max_k x_k - strike)_+ on path space."""
    slopes = np.vstack([np.zeros(dim), np.eye(dim)])
    offsets = np.concatenate(([0.0], np.full(dim, -strike)))
    return MaxAffineFunction(offsets, slopes)


def abs_deviation(dim: int, center, directions: int = 16, seed: int = 0) -> MaxAffineFunction:
    """|x - a| in 1D; in higher dimension a max over random unit directions."""
    center = np.asarray(center, dtype=float).reshape(-1)
    if dim == 1:
        slopes = np.array([[1.0], [-1.0]])
        offsets = np.array([-center[0], center[0]])
        return MaxAffineFunction(offsets, slopes)
    gen = make_generator(seed, stream=977)
    dirs = gen.normal(size=(directions, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return MaxAffineFunction(-(dirs @ center), dirs)


# ---------------------------------------------------------------------------
# the martingale-coupling LP


def coupling_lp(marginals):
    """LP over martingale couplings of two or more marginals of one dimension.

    Returns ``(A, b, scales)`` with ``A`` a sparse COO matrix over the
    coupling masses ``x[i_0, ..., i_n]`` in C order.  Row blocks are the
    masses of each marginal, then per step ``k`` the martingale rows, one
    per prefix ``(i_0, ..., i_k)`` and axis, each divided by
    ``scales[k][prefix, axis]``: the sup of ``|y_{k+1} - y_k|`` on that
    axis over the prefix's masses, but at least 1, for conditioning.
    """
    import scipy.sparse as sp  # imported on use, like scipy.optimize in lp.solve

    d = marginals[0].dim
    if any(m.dim != d for m in marginals):
        raise DimensionMismatch(f"dimensions differ: {[m.dim for m in marginals]}")
    sizes = tuple(m.n_atoms for m in marginals)
    nvar = math.prod(sizes)
    var = np.arange(nvar)
    rows = [n + i for n, i in zip(np.cumsum((0,) + sizes[:-1]), np.unravel_index(var, sizes))]
    vals = [np.ones(nvar)] * len(marginals)
    n_rows = sum(sizes)
    scales = []
    for k in range(len(marginals) - 1):
        # the scale depends on i_k alone; in C order the masses of one
        # prefix (i_0, ..., i_k) are contiguous
        before, after = math.prod(sizes[:k]), math.prod(sizes[k + 2 :])
        step = marginals[k + 1].points[None, :, :] - marginals[k].points[:, None, :]
        scale = np.maximum(1.0, np.abs(step).max(axis=1))
        scales.append(np.tile(scale, (before, 1)))
        martingale = (step / scale[:, None, :])[None, :, :, None, :]
        vals.append(np.broadcast_to(martingale, (before,) + sizes[k : k + 2] + (after, d)).ravel())
        prefix = var // (sizes[k + 1] * after)
        rows.append((n_rows + d * prefix[:, None] + np.arange(d)).ravel())
        n_rows += scales[-1].size
    cols = [var] * len(marginals) + [np.repeat(var, d)] * len(scales)
    a = sp.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, nvar),
    )
    b = np.concatenate([m.weights for m in marginals] + [np.zeros(n_rows - sum(sizes))])
    return a, b, scales


@dataclass(frozen=True)
class OrderCheck:
    """Outcome of :func:`convex_order_check`; ``coupling`` is the
    martingale coupling found by the LP (dimension 2 and up only), of shape
    ``(mu.n_atoms, nu.n_atoms)`` with zero rows and columns at the
    massless atoms, which the LP leaves out."""

    status: str  # dominated | not_dominated | not_dominated_no_witness
    witness: MaxAffineFunction | None = field(default=None)
    witness_gap: float = 0.0
    coupling: np.ndarray | None = field(default=None)

    @property
    def dominated(self) -> bool:
        return self.status == "dominated"


# relative tolerance of the 1D check, times the largest |atom| (at least 1)
_ROUND_OFF = 1e-12


def _call_prices(dist: DiscreteDistribution, strikes: np.ndarray) -> np.ndarray:
    """``E(X - k)+`` at each strike, from tail sums over the sorted atoms."""
    x, w = dist.atoms()
    tail_mass = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    tail_moment = np.append(np.cumsum((w * x)[::-1])[::-1], 0.0)
    above = np.searchsorted(x, strikes, side="right")
    return tail_moment[above] - strikes * tail_mass[above]


def _not_dominated(mu, nu, witness: MaxAffineFunction) -> OrderCheck:
    witness_gap = float(mu.expectation(witness) - nu.expectation(witness))
    return OrderCheck("not_dominated", witness, witness_gap)


def _with_mass(dist: DiscreteDistribution):
    """The indices of the atoms of ``dist`` with mass, and those atoms."""
    keep = np.flatnonzero(dist.weights > 0.0)
    return keep, DiscreteDistribution(dist.points[keep], dist.weights[keep])


def convex_order_check(mu: DiscreteDistribution, nu: DiscreteDistribution) -> OrderCheck:
    """Decide ``mu <=_cvx nu``.

    A mean gap is answered with an affine witness.  In 1D, with equal means,
    both call-price curves are piecewise linear with kinks at the atoms, so
    the order holds iff ``E(X - k)+ <= E(Y - k)+`` at every atom ``k`` of
    either law, up to ``_ROUND_OFF`` times the largest ``|atom|`` (at least
    1).  The witness at the strike ``k*`` of the largest call gap is the
    straddle ``|x - k*|``, whose gap is twice the call gap when the means
    agree.  Cost ``O((n + m) log(n + m))``, no LP.

    In dimension 2 and up the martingale-coupling LP decides.  It runs on
    the atoms of ``mu`` and ``nu`` with mass: a massless atom's mass row
    forces its columns to 0 (``x >= 0``), so dropping them changes no
    verdict, and the coupling gets zero rows and columns there.  On
    infeasibility the Farkas multipliers (alpha_i, beta_j, gamma_i) over the
    kept atoms satisfy ``alpha_i + beta_j + gamma_i . (y_j - x_i) <= 0``
    with ``alpha . mu + beta . nu > 0``, so ``phi(z) = max_i (alpha_i +
    gamma_i . (z - x_i))`` is a convex witness with a larger integral under
    ``mu``.  The witness is re-checked numerically on the full laws; if the
    recheck fails the status degrades to ``not_dominated_no_witness``.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        scale = max(1.0, float(np.abs(mu.points).max()), float(np.abs(nu.points).max()))
        tol = _ROUND_OFF * scale
    else:
        tol = 1e-9
    mean_gap = np.atleast_1d(mu.mean - nu.mean)
    if np.abs(mean_gap).max() > tol:
        # equality of means is necessary (affine maps are convex both ways)
        direction = mean_gap / np.linalg.norm(mean_gap)
        return _not_dominated(mu, nu, MaxAffineFunction([0.0], direction[None, :]))
    if mu.dim == 1:
        strikes = np.union1d(mu.points_1d, nu.points_1d)
        gaps = _call_prices(mu, strikes) - _call_prices(nu, strikes)
        worst = int(np.argmax(gaps))
        if gaps[worst] <= tol:
            return OrderCheck("dominated")
        return _not_dominated(mu, nu, abs_deviation(1, [strikes[worst]]))
    keep_mu, mu_mass = _with_mass(mu)
    keep_nu, nu_mass = _with_mass(nu)
    a, b, scales = coupling_lp([mu_mass, nu_mass])
    sol = lpmod.solve(lpmod.LinearProgram(np.zeros(a.shape[1]), a, b))
    if sol.status == "optimal":
        coupling = np.zeros((mu.n_atoms, nu.n_atoms))
        coupling[np.ix_(keep_mu, keep_nu)] = sol.x.reshape(keep_mu.size, keep_nu.size)
        return OrderCheck("dominated", coupling=coupling)
    if sol.status != "infeasible":
        raise DomainError(f"coupling LP ended with status {sol.status}")
    y = sol.farkas
    n_mu, n_nu, d = keep_mu.size, keep_nu.size, mu.dim
    alpha = y[:n_mu]
    gamma = y[n_mu + n_nu :].reshape(n_mu, d) / scales[0]
    check = _not_dominated(
        mu, nu, MaxAffineFunction(alpha - np.einsum("id,id->i", gamma, mu_mass.points), gamma)
    )
    if check.witness_gap > 1e-12:
        return check
    return OrderCheck("not_dominated_no_witness")


# ---------------------------------------------------------------------------
# Baker's quantile construction


def _quantile_running_integral(law: Law1D, u: float) -> float:
    """integral of the quantile over (0, u], exact through F and K."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return law.mean
    q = float(law.quantile(u))
    return float(law.partial_moment(q)) + q * (u - float(law.cdf(q)))


def baker_grid(law: Law1D, n_atoms: int) -> DiscreteDistribution:
    """Equal-weight atoms at the per-bin quantile averages.

    Atom i sits at ``N * integral_{(i-1)/N}^{i/N} quantile(u) du``; the
    construction preserves the mean exactly and, applied across a family of
    laws in convex order with divisible sizes, preserves the order.

    A test oracle, kept out of ``__all__``: a fine Baker grid of the ramp law
    stands in for the law where ``wasserstein2_1d`` pins the closed forms
    behind ``moment_vs_wasserstein_scan``.
    """
    if n_atoms < 1:
        raise DomainError("need at least one atom")
    edges = [_quantile_running_integral(law, i / n_atoms) for i in range(n_atoms + 1)]
    atoms = n_atoms * np.diff(np.asarray(edges))
    return merged_atoms(atoms, np.full(n_atoms, 1.0 / n_atoms))


# ---------------------------------------------------------------------------
# quadratic Wasserstein distance in 1D


def wasserstein2_1d(mu: DiscreteDistribution, nu: DiscreteDistribution) -> float:
    """W_2 between finitely supported 1D laws via quantile functions.

    Merges the two cumulative-weight partitions and integrates the squared
    quantile difference piecewise (exact).  A test oracle, kept out of
    ``__all__``: it pins the closed-form squared distance ``_family_w2sq``
    that ``moment_vs_wasserstein_scan`` minimizes.
    """
    (qa, wa), (qb, wb) = mu.atoms(), nu.atoms()
    cum_a, cum_b = np.cumsum(wa), np.cumsum(wb)
    cuts = np.unique(np.concatenate(([0.0], cum_a, cum_b, [1.0])))
    cuts = cuts[(cuts > 0.0) & (cuts <= 1.0)]
    widths = np.diff(np.concatenate(([0.0], cuts)))
    mids = cuts - 0.5 * widths
    qa = qa[np.minimum(np.searchsorted(cum_a, mids, side="left"), qa.size - 1)]
    qb = qb[np.minimum(np.searchsorted(cum_b, mids, side="left"), qb.size - 1)]
    return float(math.sqrt(max(np.sum(widths * (qa - qb) ** 2), 0.0)))


# ---------------------------------------------------------------------------
# the ramp-density law and its one-parameter dominating family


def ramp_law_dominating_family(u: float) -> DiscreteDistribution:
    """Three-point family nu_u dominating the ramp law (density 2x on [0,1]):
    atoms {0, sqrt(u), 1} with weights {u/3, (1+sqrt(u))/3, (2-sqrt(u)-u)/3}.

    A test oracle, kept out of ``__all__``: its atoms pin the closed forms
    ``_family_second_moment`` and ``_family_w2sq`` of
    ``moment_vs_wasserstein_scan``, and that each member dominates the ramp law.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError("u must lie in [0, 1]")
    su = math.sqrt(u)
    return merged_atoms(
        [0.0, su, 1.0], [u / 3.0, (1.0 + su) / 3.0, (2.0 - su - u) / 3.0]
    )


@dataclass(frozen=True)
class ScanReport:
    u_star_moment: float
    u_star_w2: float
    derivative_sign_at_third: int
    moment_at_star: float
    w2sq_at_star: float


def _family_second_moment(u):
    return (2.0 + u ** 1.5 - np.sqrt(u)) / 3.0


def _family_w2sq(u):
    su = np.sqrt(u)
    return (
        -1.0 / 6.0
        + (u * su - su) / 3.0
        + 4.0 * ((1.0 - su) * (1.0 + su + u) ** 1.5 + u * u) / 3.0 ** 2.5
    )


def moment_vs_wasserstein_scan(resolution: float = 1e-4) -> ScanReport:
    """Scan the dominating family of the ramp law over a u-lattice.

    The second moment of nu_u and the squared quadratic Wasserstein distance
    to the ramp law have *different* minimizers (1/3 versus about 0.326), and
    the W2 derivative at u = 1/3 is strictly positive: minimizing the second
    moment over dominating laws is not the same as projecting in W2.
    """
    if resolution <= 0.0 or resolution > 0.5:
        raise DomainError("resolution must lie in (0, 0.5]")
    us = np.arange(0.0, 1.0 + resolution / 2.0, resolution)
    m2 = _family_second_moment(us)
    w2 = _family_w2sq(us)
    u_m = float(us[np.argmin(m2)])
    u_w = float(us[np.argmin(w2)])
    h = resolution
    deriv = (_family_w2sq(1.0 / 3.0 + h) - _family_w2sq(1.0 / 3.0 - h)) / (2.0 * h)
    sign = 0 if deriv == 0.0 else (1 if deriv > 0.0 else -1)
    return ScanReport(
        u_star_moment=u_m,
        u_star_w2=u_w,
        derivative_sign_at_third=sign,
        moment_at_star=float(m2.min()),
        w2sq_at_star=float(w2.min()),
    )
