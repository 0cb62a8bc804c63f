import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from martquant.chain import (
    ArchSpec,
    MixtureTransitionLaw,
    ThetaFn,
    NoiseSpec,
    build_chain,
    dual_transition_weights,
    euler_thetas,
    theta_abs_shifted,
    theta_affine_abs,
    theta_constant,
)
from martquant import chain as chainmod, dual
from martquant.dual import Triangulation2D, locate_1d
from martquant.errors import DomainError, HullViolation
from martquant.laws import DiscreteDistribution, Normal, PowerDensity2x, TruncatedLaw, Uniform
from martquant.order import convex_order_check
from martquant.rng import make_generator

from exact import in_convex_order, is_martingale_row, replay


@pytest.fixture(scope="module")
def trunc_n1():
    return TruncatedLaw.centered(Normal(0, 1), -1.0)


def _step_law(x, theta, trunc):
    """The conditional law of ``x + theta * noise``: a one-atom mixture."""
    return MixtureTransitionLaw([x], [1.0], [theta], trunc)


def test_transition_cdf_closed_values(trunc_n1):
    phi1 = Normal().cdf(1.0)
    step = _step_law(0.0, 1.0, trunc_n1)
    assert step.cdf(0.0) == pytest.approx(1 - phi1 + 0.5, abs=1e-14)
    assert step.cdf(1.0) == pytest.approx(1.0, abs=1e-14)
    assert step.cdf(-1.5) == 0.0
    # the same F, read off the noise at r = (u - x) / theta
    step = _step_law(0.7, 1.3, trunc_n1)
    for u in (-0.1, 0.7, 0.9, 1.6):
        assert step.cdf(u) == trunc_n1.cdf((u - 0.7) / 1.3)


def test_transition_cdf_against_simulation_oracle(trunc_n1):
    z = Normal().draw(make_generator(8), 400_000)
    zb = z * ((z >= -1) & (z <= 1))
    x, theta = 0.7, 1.3
    nxt = x + theta * zb
    for u in (-0.1, 0.7, 0.9, 1.6):
        mc = float(np.mean(nxt <= u))
        se = math.sqrt(mc * (1 - mc) / z.size) + 1e-9
        assert _step_law(x, theta, trunc_n1).cdf(u) == pytest.approx(mc, abs=4 * se)


def test_transition_partial_moment_values(trunc_n1):
    phi = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    expected = -phi(0.0) + phi(1.0)
    assert _step_law(0.0, 1.0, trunc_n1).partial_moment(0.0) == pytest.approx(expected, abs=1e-12)
    # martingale limit and empty lower tail
    assert _step_law(0.3, 1.0, trunc_n1).partial_moment(50.0) == pytest.approx(0.3, abs=1e-10)
    assert _step_law(0.0, 1.0, trunc_n1).partial_moment(-1.5) == 0.0


def test_transition_partial_moment_quadrature_oracle(trunc_n1):
    x, theta, u = 0.4, 0.8, 0.6
    cut = (u - x) / theta
    # direct integral: E[(x + theta z) 1{x + theta z <= u, z in [-1,1]}]
    #                + x P(z outside) 1{x <= u}
    integral = quad(
        lambda z: (x + theta * z) * math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
        -1.0,
        min(max(cut, -1.0), 1.0),
    )[0]
    clipped = 1.0 - (Normal().cdf(1.0) - Normal().cdf(-1.0))
    expected = integral + x * clipped * (x <= u)
    got = _step_law(x, theta, trunc_n1).partial_moment(u)
    assert got == pytest.approx(expected, abs=1e-10)


def test_dual_transition_weights_uniform_noise():
    tu = TruncatedLaw.centered(Uniform(-1, 1), -1.0, 1.0)
    kernel = dual_transition_weights(
        np.array([0.0]), np.array([-1.0, 0.0, 1.0]), np.array([1.0]), tu
    )
    assert np.allclose(kernel.matrix, [[0.25, 0.5, 0.25]], atol=1e-12)
    assert kernel.martingale_residual() < 1e-12


def test_dual_transition_weights_rows_are_martingale(trunc_n1):
    source = np.array([-0.5, 0.0, 0.8])
    target = np.linspace(-3.0, 3.5, 13)
    kernel = dual_transition_weights(source, target, np.array([1.0, 1.2, 0.7]), trunc_n1)
    assert kernel.row_sum_residual() < 1e-10
    assert kernel.martingale_residual() < 1e-9
    assert kernel.matrix.min() >= 0.0


def test_dual_transition_weights_quadrature_oracle(trunc_n1):
    """Row weights are the hat-function integrals of the conditional law:
    verified against direct quadrature plus the clipped atom."""
    x, theta = 0.4, 0.7
    target = np.array([-1.2, -0.1, 0.45, 0.9, 1.8])
    kernel = dual_transition_weights(np.array([x]), target, np.array([theta]), trunc_n1)

    def hat(j, u):
        left = target[j - 1] if j > 0 else None
        right = target[j + 1] if j < target.size - 1 else None
        if left is not None and left <= u <= target[j]:
            return (u - left) / (target[j] - left)
        if right is not None and target[j] < u <= right:
            return (right - u) / (right - target[j])
        return 1.0 if u == target[j] else 0.0

    def density(u):
        z = (u - x) / theta
        return math.exp(-z * z / 2) / math.sqrt(2 * math.pi) / theta

    lo, hi = x + theta * trunc_n1.alpha, x + theta * trunc_n1.beta
    for j in range(target.size):
        pieces = sorted({lo, hi, *target.tolist(), x})
        val = 0.0
        for a, b in zip(pieces[:-1], pieces[1:]):
            if b <= lo or a >= hi:
                continue
            val += quad(lambda u: hat(j, u) * density(u), max(a, lo), min(b, hi))[0]
        val += trunc_n1.clipped_mass * hat(j, x)
        assert kernel.matrix[0, j] == pytest.approx(val, abs=1e-9)


def test_dual_transition_hull_violation(trunc_n1):
    # the image [-1, 1] of 0 leaves [-0.5, 0.5] by 0.5 on each side
    message = r"source point 0\.0 leaves the target hull by 5\.000e-01"
    with pytest.raises(HullViolation, match=message):
        dual_transition_weights(np.array([0.0]), np.array([-0.5, 0.5]), np.array([1.0]), trunc_n1)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_truncated_noise_rejects_targets_closer_than_the_hull_slack(trunc_n1, k):
    """F and K differences between targets a few ulps apart cancel: the grid
    below gave the row [0.25, 0.25, 0.5] at k = 1 and a negative weight at
    k = 4, where the first target should get about 0."""
    grid = np.array([-1.0, -1.0 + k * 2.2e-16, 1.0])
    message = r"target points -1\.0 and -0\.9999\d* are closer than 1\.000e-09"
    with pytest.raises(DomainError, match=message):
        dual_transition_weights(np.array([0.0]), grid, np.array([1.0]), trunc_n1)
    # a spacing of 1e-6 is far above the floor: nonnegative martingale rows
    kernel = dual_transition_weights(
        np.array([0.0]), np.array([-1.0, -1.0 + 1e-6, 1.0]), np.array([1.0]), trunc_n1
    )
    assert kernel.matrix.min() >= 0.0
    assert kernel.row_sum_residual() < 1e-12
    assert kernel.martingale_residual() < 1e-12


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize(
    "grid", [[100.0, 100.5, 101.0], [-5.0, 0.0, 5.0]], ids=["narrow_far", "wide_centred"]
)
def test_one_hull_tolerance_rule_in_1d(trunc_n1, grid, side):
    """The kernel of a truncated noise, ``locate_1d`` and the kernel of a
    finite noise take one hull slack, ``_HULL_TOL * max(1, |x_0|, |x_N|)``:
    1.01e-7 on [100, 101], 5e-9 on [-5, 5]."""
    ts = np.array(grid)
    theta = 0.25
    slack = dual._HULL_TOL * max(1.0, abs(ts[0]), abs(ts[-1]))
    for factor, inside in ((0.5, True), (1.5, False)):
        if side == "high":
            edge = ts[-1] + factor * slack
            x = edge - theta * trunc_n1.beta
        else:
            edge = ts[0] - factor * slack
            x = edge - theta * trunc_n1.alpha
        image = x + theta * (trunc_n1.beta if side == "high" else trunc_n1.alpha)
        assert abs(image - edge) < 1e-3 * slack
        kernel = lambda: dual_transition_weights(np.array([x]), ts, np.array([theta]), trunc_n1)
        locate = lambda: locate_1d(ts, [image])
        # a one-atom noise at 0 leaves its source point where it is
        finite = lambda: dual_transition_weights(
            np.array([image]), ts, theta, DiscreteDistribution([0.0], [1.0])
        )
        for run in (kernel, locate, finite):
            if inside:
                run()
            else:
                with pytest.raises(HullViolation):
                    run()


def test_finite_noise_transition_rademacher():
    rad = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    k1 = dual_transition_weights(np.array([0.0]), np.array([-1.0, 0.0, 1.0]), np.array([1.0]), rad)
    assert np.allclose(k1.matrix, [[0.5, 0.0, 0.5]], atol=1e-14)
    k2 = dual_transition_weights(np.array([0.0]), np.array([-2.0, 2.0]), np.array([1.0]), rad)
    assert np.allclose(k2.matrix, [[0.5, 0.5]], atol=1e-14)
    assert k2.martingale_residual() < 1e-12


def test_finite_noise_requires_centered():
    biased = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError, match="centered"):
        dual_transition_weights(np.array([0.0]), np.array([-2.0, 2.0]), np.array([1.0]), biased)
    plane = DiscreteDistribution([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    square = Triangulation2D.delaunay([[-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0], [2.0, 2.0]])
    with pytest.raises(DomainError, match="centered"):
        dual_transition_weights(np.zeros((1, 2)), square, np.eye(2), plane)


def test_one_kernel_takes_sources_of_its_target_dimension():
    """2D sources and a finite noise step onto a triangulation, 1D sources
    onto a 1D grid; any other pairing is a DomainError."""
    square = Triangulation2D.delaunay([[-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0], [2.0, 2.0]])
    plane = DiscreteDistribution([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    line = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    trunc = TruncatedLaw.centered(Normal(0, 1), -1.0)
    for sources, target, theta, noise in [
        (np.zeros((1, 2)), np.array([-2.0, 2.0]), np.eye(2), plane),
        (np.zeros(1), square, 1.0, line),
        (np.zeros((1, 2)), square, np.eye(2), trunc),
    ]:
        with pytest.raises(DomainError, match="Triangulation2D"):
            dual_transition_weights(sources, target, theta, noise)


def _image_split_oracle(xs, thetas, noise, target):
    """The 1D finite-noise kernel as it stood beside the closed form: every
    image ``x_i + theta_i z_j`` located on the target grid and split onto
    the ends of its interval with the noise weights."""
    xs = np.asarray(xs, dtype=float)
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), xs.shape)
    images = xs[:, None] + thetas[:, None] * noise.points_1d[None, :]
    j, lam_right = locate_1d(target, images.ravel())
    pi = np.zeros((xs.size, target.size))
    rows = np.repeat(np.arange(xs.size), noise.n_atoms)
    q = np.tile(noise.weights, xs.size)
    np.add.at(pi, (rows, j), q * (1.0 - lam_right))
    np.add.at(pi, (rows, j + 1), q * lam_right)
    return pi


@st.composite
def _finite_steps(draw):
    """A centered finite noise, sources of which some have theta = 0, and a
    target grid over the image hull that holds some of the images exactly."""
    unit = st.floats(0.0, 1.0)
    n_atoms = draw(st.integers(1, 8))
    z = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_atoms, max_size=n_atoms,
                               unique=True)))
    q = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_atoms, max_size=n_atoms)))
    q /= q.sum()
    z = z - q @ z
    assume(np.unique(z).size == n_atoms)
    noise = DiscreteDistribution(z, q)
    n_src = draw(st.integers(1, 6))
    xs = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n_src, max_size=n_src)))
    thetas = np.array(draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=n_src,
                                    max_size=n_src)))
    images = (xs[:, None] + thetas[:, None] * noise.points_1d[None, :]).ravel()
    lo, hi = images.min(), images.max()
    on_grid = draw(st.lists(st.sampled_from(images.tolist()), max_size=6))
    inner = [lo + (hi - lo) * u for u in draw(st.lists(unit, max_size=6))]
    pad = [draw(st.just(0.0) | st.floats(0.0, 1.0)) for _ in range(2)]
    grid = np.unique([lo - pad[0], hi + pad[1], *on_grid, *inner])
    if grid.size < 2:
        grid = np.append(grid, grid[-1] + 1.0)
    return noise, xs, thetas, grid


@given(_finite_steps(), st.floats(-3.0, -0.5))
@settings(max_examples=200, deadline=None)
def test_one_kernel_splits_every_image_as_the_oracle_does(step, alpha):
    """A finite noise's kernel is the split of its images, also where an
    image sits on a grid point; a source where theta = 0 is a point mass
    under a truncated noise too, so its row is the hat split of the point."""
    noise, xs, thetas, grid = step
    kernel = dual_transition_weights(xs, grid, thetas, noise)
    assert kernel.matrix.tobytes() == _image_split_oracle(xs, thetas, noise, grid).tobytes()
    assert kernel.martingale_residual() <= 1e-14
    assert kernel.row_sum_residual() <= 1e-14
    still = xs[thetas == 0.0]
    trunc = TruncatedLaw.centered(Normal(0, 1), alpha)
    for x, row in zip(still, dual_transition_weights(still, grid, 0.0, trunc).matrix):
        f = (x <= grid).astype(float)
        hat = dual.hat_split(grid, f, x * f, float(x < grid[0]))
        assert np.abs(row - hat).max() <= 1e-14


def _triangle_split_oracle(xs, mats, noise, target):
    """The 2D finite-noise kernel as it stood apart from the 1D one: every
    image ``x_i + theta_i z_j`` located on the target triangulation, and
    each corner of its triangle given the noise weight times the corner's
    barycentric weight."""
    images = xs[:, None, :] + np.einsum("idq,jq->ijd", mats, noise.points)
    tri_idx, lam = target.locate(images.reshape(-1, 2))
    verts = target.triangles[tri_idx]
    pi = np.zeros((xs.shape[0], target.vertices.shape[0]))
    w_rep = np.repeat(np.arange(xs.shape[0]), noise.n_atoms)
    q_rep = np.tile(noise.weights, xs.shape[0])
    for corner in range(verts.shape[1]):
        np.add.at(pi, (w_rep, verts[:, corner]), q_rep * lam[:, corner])
    return np.where(pi < 0.0, 0.0, pi)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("coefficient", ["constant", "per-source"])
def test_one_kernel_splits_every_2d_image_as_the_oracle_does(seed, coefficient):
    """Seeded grids of the 2D benchmark chain at its small size: squares of
    24 vertices, corners included, each holding the images of the previous
    grid with a margin; the 2D kernel is the oracle's, bit for bit."""
    rng = np.random.default_rng([seed, 2])
    sources = rng.uniform(-0.5, 0.5, (6, 2))
    noise = DiscreteDistribution([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4)
    half = 0.5
    for _ in range(2):
        half += 1.0
        corners = half * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
        tri = Triangulation2D.delaunay(np.vstack([corners, rng.uniform(-half, half, (20, 2))]))
        mats = np.broadcast_to(0.5 * np.eye(2), (len(sources), 2, 2))
        if coefficient == "per-source":
            mats = mats + rng.uniform(-0.1, 0.1, mats.shape)
        kernel = dual_transition_weights(sources, tri, mats, noise)
        oracle = _triangle_split_oracle(sources, mats, noise, tri)
        assert kernel.matrix.tobytes() == oracle.tobytes()
        sources = tri.vertices


def test_finite_noise_2d_barycenter():
    src = DiscreteDistribution([[0.0, 0.0]], [1.0])
    noise = DiscreteDistribution(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
    )
    corners = np.array([[-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0], [2.0, 2.0], [0.0, 0.1]])
    tri = Triangulation2D.delaunay(corners)
    kernel = dual_transition_weights(src.points, tri, np.eye(2), noise)
    assert kernel.row_sum_residual() < 1e-12
    bary = kernel.matrix @ tri.vertices
    assert np.abs(bary - src.points).max() < 1e-9


def test_mixture_transition_law_consistency(trunc_n1):
    points = np.array([-0.2, 0.5, 1.1])
    weights = np.array([0.3, 0.45, 0.25])
    thetas = np.array([0.8, 1.0, 1.3])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc_n1)
    us = np.linspace(*mix.support, 23)
    f = np.asarray(mix.cdf(us))
    assert f[0] == pytest.approx(0.0, abs=1e-12)
    assert f[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(f) >= -1e-14)
    assert mix.partial_moment(mix.support[1]) == pytest.approx(mix.mean, abs=1e-12)
    assert mix.mean == pytest.approx(float(weights @ points), abs=1e-14)
    # batch evaluation agrees with the scalar paths
    bf, bk, bfl = mix.cdf_moment_left_batch(us)
    assert np.allclose(bf, mix.cdf(us), atol=1e-14)
    assert np.allclose(bk, mix.partial_moment(us), atol=1e-14)
    assert np.allclose(bfl, mix.cdf_left(us), atol=1e-14)
    # second moment against quadrature of the mixture density plus the
    # clipped atoms, which stay on the source points
    def density(t):
        z = (t - points) / thetas
        phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        kept = (z >= trunc_n1.alpha) & (z <= trunc_n1.beta)
        return float(weights @ np.where(kept, phi / thetas, 0.0))

    lo, hi = mix.support
    m2 = quad(lambda t: t * t * density(t), lo, hi, points=points, limit=200)[0]
    atoms, masses = mix.atoms()
    assert np.array_equal(atoms, points)
    assert np.allclose(masses, weights * trunc_n1.clipped_mass, rtol=0, atol=1e-16)
    m2 += float(masses @ atoms ** 2)
    assert mix.second_moment == pytest.approx(m2, abs=1e-8)


def test_a_source_where_theta_vanishes_is_a_point_mass_of_the_mixture(trunc_n1):
    """F, K, F(-), the moments and the atoms of a mixture with theta = 0 at
    some sources: those sources' whole weight is an atom at their point."""
    points = np.array([-0.2, 0.5, 1.1, 1.4])
    weights = np.array([0.3, 0.25, 0.25, 0.2])
    thetas = np.array([0.8, 0.0, 1.3, 0.0])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc_n1)
    moving = MixtureTransitionLaw(points[[0, 2]], [6 / 11, 5 / 11], thetas[[0, 2]], trunc_n1)
    still = DiscreteDistribution(points[[1, 3]], [5 / 9, 4 / 9])
    lo, hi = mix.support
    u = np.concatenate((points, [lo - 1.0, lo, hi, hi + 1.0], np.linspace(lo, hi, 29)))
    for method in ("cdf", "partial_moment", "cdf_left"):
        want = 0.55 * getattr(moving, method)(u) + 0.45 * getattr(still, method)(u)
        assert np.abs(getattr(mix, method)(u) - want).max() <= 1e-15, method
    for got, want in zip(mix.cdf_moment_left_batch(u), (mix.cdf(u), mix.partial_moment(u),
                                                         mix.cdf_left(u))):
        assert got.tobytes() == np.asarray(want).tobytes()
    # the whole weight of a source that stays put jumps at its point
    assert mix.cdf(points[1]) - mix.cdf_left(points[1]) == pytest.approx(weights[1], abs=1e-15)
    assert mix.second_moment == pytest.approx(
        0.55 * moving.second_moment + 0.45 * still.second_moment, abs=1e-15
    )
    atoms, masses = mix.atoms()
    assert np.array_equal(atoms, points)
    clipped = trunc_n1.clipped_mass
    assert np.allclose(masses, weights * [clipped, 1.0, clipped, 1.0], rtol=0, atol=1e-16)


def _transition_cdf_reference(x, u, theta_val, trunc):
    """The closed form before it was rewritten in place, verbatim."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta_val = np.asarray(theta_val, dtype=float)
    base = trunc.base
    f_alpha_left = float(base.cdf_left(trunc.alpha))
    tail = 1.0 - float(base.cdf(trunc.beta)) + f_alpha_left
    ratio = np.clip((u - x) / theta_val, trunc.alpha, trunc.beta)
    return np.where(x <= u, tail, 0.0) + np.asarray(base.cdf(ratio)) - f_alpha_left


_BASES = pytest.mark.parametrize(
    "base, alpha",
    [(Normal(0, 1), -2.0), (Normal(0, 2), -3.0), (Uniform(-1, 1), -0.5)],
    ids=["normal01", "normal02", "uniform"],
)


@pytest.mark.parametrize(
    "base, alpha",
    [
        (Normal(0, 1), -2.0),
        (Normal(0, 2), -3.0),
        (Uniform(-1, 1), -0.5),
    ],
    ids=["normal01", "normal02", "uniform"],
)
def test_mixture_cdf_is_the_weighted_transition_cdf_bit_for_bit(base, alpha):
    trunc = TruncatedLaw.centered(base, alpha)
    points = np.array([-0.7, -0.1, 0.0, 0.35, 1.2])
    weights = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    thetas = np.array([0.5, 0.9, 1.0, 1.7, 0.3])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc)
    lo, hi = mix.support
    # the source points (where the clipped mass sits), the image ends,
    # points outside the hull on both sides, and a spread of interior points
    u = np.concatenate((
        points,
        points + thetas * trunc.alpha,
        points + thetas * trunc.beta,
        [lo - 1.0, lo, hi, hi + 2.5],
        np.linspace(lo, hi, 41),
    ))

    def oracle(q):
        # one row of sources per query, weighted and summed as the mixture does
        q = np.atleast_1d(q)[:, None]
        # the closed form leaves F(alpha) - F(alpha-) of the base below the
        # image; that is exactly 0 for a continuous base
        below = (q - points) / thetas < trunc.alpha
        rows = np.where(below, 0.0, _transition_cdf_reference(points, q, thetas, trunc))
        return np.add.reduce(rows * weights, axis=1)

    assert mix.cdf(u).tobytes() == oracle(u).tobytes()
    for q in (points[2], lo - 1.0, 0.5 * (lo + hi)):
        value = mix.cdf(q)
        assert isinstance(value, float)
        assert value == oracle(q)[0]


def _cdf_moment_left_batch_reference(mix, u):
    """``MixtureTransitionLaw.cdf_moment_left_batch`` before it reused the
    base F for continuous bases, verbatim but for the layout: one row of
    sources per query, whose weighted values each query sums with
    ``np.add.reduce`` as the mixture does."""
    u = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
    x = mix.points
    th = mix.theta_values
    trunc = mix.trunc
    base = trunc.base
    tail, f_alpha_left = trunc.clipped_mass, trunc.base_f_alpha_left
    ratio = np.clip((u - x) / th, trunc.alpha, trunc.beta)
    base_f = np.asarray(base.cdf(ratio))
    base_fl = np.asarray(base.cdf_left(ratio))
    base_k = np.asarray(base.partial_moment(ratio))
    at_or_above = np.where(x <= u, tail, 0.0)
    f_rows = at_or_above + base_f - f_alpha_left
    fl_rows = np.where(x < u, tail, 0.0) + base_fl - f_alpha_left
    k_rows = x * f_rows + th * (base_k - trunc.base_k_alpha_left)
    w = mix.weights
    return tuple(np.add.reduce(rows * w, axis=1) for rows in (f_rows, k_rows, fl_rows))


# an atomic base is checked against the exact law of the images instead
@pytest.mark.parametrize("base, alpha", [(Normal(0, 1), -2.0)], ids=["normal"])
def test_cdf_moment_left_batch_is_unchanged_bit_for_bit(base, alpha):
    trunc = TruncatedLaw.centered(base, alpha)
    points = np.array([-0.7, -0.1, 0.0, 0.35, 1.2])
    weights = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    thetas = np.array([0.5, 0.9, 1.0, 1.7, 0.3])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc)
    lo, hi = mix.support
    u = np.concatenate((points, points + thetas * alpha, [lo - 1.0, lo, hi, hi + 2.5], np.linspace(lo, hi, 41)))
    ref = _cdf_moment_left_batch_reference(mix, u)
    for g, r in zip(mix.cdf_moment_left_batch(u), ref):
        assert g.tobytes() == r.tobytes()


_NOISE_ATOMS = DiscreteDistribution([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1])


@st.composite
def _dual_laws(draw):
    """A law of each kind that reaches ``dual_lloyd_1d``, and a batch of
    queries on and around its support."""
    kind = draw(st.sampled_from([
        "uniform", "power2x", "atoms", "truncated-normal", "truncated-atoms",
        "mixture-normal", "mixture-still",
    ]))
    if kind == "uniform":
        a = draw(st.floats(-5.0, 5.0))
        law = Uniform(a, a + draw(st.floats(1e-3, 10.0)))
    elif kind == "power2x":
        law = PowerDensity2x()
    elif kind == "truncated-atoms":
        law = TruncatedLaw.centered(_NOISE_ATOMS, -1.0)
    else:
        # the noise of the mixtures is a truncated normal too
        base = Normal(0.0, draw(st.floats(0.1, 3.0)))
        law = TruncatedLaw.centered(base, draw(st.floats(-4.0, -0.1)))
    if kind == "atoms" or kind.startswith("mixture"):
        n_atoms = draw(st.integers(1, 40))
        points = np.unique(draw(st.lists(st.floats(-3.0, 3.0), min_size=n_atoms, max_size=n_atoms)))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=points.size,
                                         max_size=points.size)))
        weights /= weights.sum()
        if kind == "atoms":
            law = DiscreteDistribution(points, weights)
        else:
            a, b = draw(st.floats(0.01, 0.5)), draw(st.floats(0.0, 0.5))
            thetas = a + b * np.abs(points)
            if kind == "mixture-still":
                # some sources stay put
                moves = draw(st.lists(st.booleans(), min_size=points.size, max_size=points.size))
                thetas = np.where(moves, thetas, 0.0)
            law = MixtureTransitionLaw(points, weights, thetas, law)
    lo, hi = law.support
    pad = 0.1 * (hi - lo)
    atoms = law.atoms()[0].tolist()
    u = draw(st.lists(st.floats(lo - pad, hi + pad) | st.sampled_from(atoms + [lo, hi]),
                      min_size=1, max_size=60))
    return law, np.array(u)


@given(_dual_laws(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_querys_f_k_and_f_left_do_not_depend_on_its_batch(law_and_queries, data):
    """The 1D dual sweep hands the F of its batch of F, K and F(-) to the
    level solve as F at the brackets, and the solve's own ``cdf`` batches
    hold other points: a query's values must not depend on its batch."""
    law, u = law_and_queries
    batch = law.cdf_moment_left_batch(u)
    assert batch[0].tobytes() == np.asarray(law.cdf(u)).tobytes()
    if not isinstance(law, MixtureTransitionLaw):
        return
    start = data.draw(st.integers(0, u.size - 1))
    stop = data.draw(st.integers(start + 1, u.size))
    step = data.draw(st.integers(1, 5))
    part = slice(start, stop, step)
    for got, want in zip(law.cdf_moment_left_batch(u[part]), batch):
        assert got.tobytes() == want[part].tobytes()
    assert law.cdf(u[part]).tobytes() == batch[0][part].tobytes()
    for i, q in enumerate(u.tolist()):
        alone = law.cdf_moment_left_batch(u[i : i + 1])
        scalar = (law.cdf(q), law.partial_moment(q), law.cdf_left(q))
        for one, value, want in zip(alone, scalar, batch):
            assert isinstance(value, float)
            assert one.tobytes() == want[i : i + 1].tobytes()
            assert np.float64(value).tobytes() == want[i].tobytes()


# a noise with atoms at both truncation ends (alpha = -1, beta = 1), and
# sources and coefficients in small dyadic fractions, so that every image
# x_i + theta_i z_j and every noise level (u - x_i) / theta_i at an image is
# exact in floating point
@pytest.fixture(scope="module")
def atoms_trunc():
    return TruncatedLaw.centered(_NOISE_ATOMS, -1.0)


_ATOMS_POINTS = np.array([-0.75, -0.25, 0.0, 0.5, 1.25])
_ATOMS_WEIGHTS = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
_ATOMS_THETAS = np.array([0.5, 0.25, 1.0, 0.75, 0.375])


def _exact_image_law(trunc):
    """The law of x_i + theta_i zbar_j with masses w_i q_j, as finite atoms."""
    z, q = trunc.atoms()
    images = _ATOMS_POINTS[:, None] + _ATOMS_THETAS[:, None] * z[None, :]
    uniq, inverse = np.unique(images.ravel(), return_inverse=True)
    masses = np.zeros(uniq.size)
    np.add.at(masses, inverse, np.outer(_ATOMS_WEIGHTS, q).ravel())
    return DiscreteDistribution(uniq, masses)


def test_a_truncation_of_a_finite_base_is_a_finite_noise(atoms_trunc):
    """Its atoms are its law, the chain steps it by the exact image law,
    and the noise levels of the mixture transition law refuse it."""
    assert (atoms_trunc.alpha, atoms_trunc.beta) == (-1.0, 1.0)
    finite = NoiseSpec.truncated(atoms_trunc).finite
    z, q = atoms_trunc.atoms()
    assert finite.points_1d.tobytes() == z.tobytes()
    assert finite.weights.tobytes() == q.tobytes()
    assert NoiseSpec.truncated(TruncatedLaw.centered(Normal(0, 1), -1.0)).finite is None
    with pytest.raises(DomainError, match="a truncation of a finite base is a finite noise"):
        MixtureTransitionLaw(_ATOMS_POINTS, _ATOMS_WEIGHTS, _ATOMS_THETAS, atoms_trunc)
    with pytest.raises(DomainError, match="a truncation of a finite base is a finite noise"):
        dual_transition_weights(_ATOMS_POINTS, np.linspace(-2.0, 2.0, 5), _ATOMS_THETAS, atoms_trunc)
    # one step from the five sources, grid fixed on the exact image law's hull
    exact = _exact_image_law(atoms_trunc)
    chain = build_chain(
        ArchSpec([_ATOMS_THETAS]),
        [NoiseSpec.truncated(atoms_trunc)],
        DiscreteDistribution(_ATOMS_POINTS, _ATOMS_WEIGHTS),
        [5, 7],
        grid_mode="fixed",
        grids=[np.linspace(*exact.support, 7)],
    )
    law = chain.diagnostics[0]["intermediate"]
    assert law.points_1d.tobytes() == exact.points_1d.tobytes()
    assert np.abs(law.weights - exact.weights).max() <= 1e-15
    assert chain.diagnostics[0]["hull"] == exact.support


def test_kernel_with_atoms_at_the_truncation_ends_is_a_martingale(atoms_trunc):
    exact = _exact_image_law(atoms_trunc)
    # every other image is a target point, where its mass must stay whole
    target = np.union1d(exact.points_1d[::2], np.linspace(*exact.support, 7))
    noise = NoiseSpec.truncated(atoms_trunc).finite
    kernel = dual_transition_weights(_ATOMS_POINTS, target, _ATOMS_THETAS, noise)
    assert kernel.martingale_residual() < 1e-12
    assert kernel.row_sum_residual() < 1e-12
    # the same split as the exact propagation of the kept atoms
    oracle = _image_split_oracle(_ATOMS_POINTS, _ATOMS_THETAS, noise, target)
    assert np.abs(kernel.matrix - oracle).max() < 1e-14


@_BASES
def test_transition_cdf_keeps_its_closed_form_bit_for_bit(base, alpha):
    """F(u|x) is the noise's F at r = (u - x) / theta."""
    trunc = TruncatedLaw.centered(base, alpha)

    def transition_cdf(x, u, th):
        return trunc.cdf(np.divide(np.subtract(u, x, dtype=float), th))

    xs = np.array([-0.7, 0.0, 0.35])
    us = np.array([-3.0, -0.7, -0.1, 0.0, 0.2, 0.35, 4.0])
    thetas = np.array([0.5, 1.0, 1.7])
    cases = [
        (xs[:, None], us[None, :], thetas[:, None]),  # sources x queries
        (xs, np.full_like(xs, 0.1), thetas),  # one query per source
        (0.0, us, 1.3),  # scalar source and theta
        (0.0, 0.2, thetas),  # only theta is a vector
        ([0.35, -0.7], [0.35, 0.0], [1.0, 0.5]),  # plain lists
    ]
    for x, u, th in cases:
        got, ref = transition_cdf(x, u, th), _transition_cdf_reference(x, u, th, trunc)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    for x, u in ((0.0, 0.0), (0.35, -2.0), (-0.7, 5.0)):
        got = transition_cdf(x, u, 1.1)
        assert isinstance(got, float)
        assert got == _transition_cdf_reference(x, u, 1.1, trunc)


def test_build_chain_single_step_point_start():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    chain = build_chain(
        ArchSpec([theta_constant(1.0)]),
        [NoiseSpec.truncated(trunc)],
        DiscreteDistribution([0.0], [1.0]),
        [1, 21],
    )
    assert chain.kernels[0].martingale_residual() < 1e-9
    assert chain.diagnostics[0]["mean_drift"] < 1e-9
    assert convex_order_check(chain.marginal(0), chain.marginal(1)).dominated


def test_build_chain_second_moments_nondecreasing():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    thetas = euler_thetas(theta_abs_shifted(0.2, -1.0, floor=0.02), 1.0, 3)
    chain = build_chain(
        ArchSpec(thetas), [NoiseSpec.truncated(trunc)] * 3, Uniform(0.9, 1.1), [15, 15, 15, 15]
    )
    m2 = [chain.marginal(k).second_moment for k in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(m2, m2[1:]))
    for k in range(3):
        assert chain.diagnostics[k]["martingale_residual"] < 1e-9
        assert abs(chain.marginal(k + 1).mean - chain.marginal(0).mean) < 1e-9


def test_chain_second_moment_identity():
    """A dual split is a martingale step, so each chain step adds the noise
    variance and the squared dual distortion to the second moment:
    E X_{k+1}^2 = E X_k^2 + E theta(X_k)^2 E Zbar^2 + D_{k+1}^2.  This ties
    the closed-form E Zbar^2, the kernel and ``dual_distortion`` together."""
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3)
    chain = build_chain(
        ArchSpec(thetas), [NoiseSpec.truncated(trunc)] * 3, Uniform(0.9, 1.1), [9, 9, 9, 9]
    )
    for k in range(3):
        theta_sq = float(chain.marginal_weights[k] @ thetas[k](chain.grids[k]) ** 2)
        d2 = chain.diagnostics[k]["dual_distortion"] ** 2
        expected = chain.marginal(k).second_moment + theta_sq * trunc.second_moment + d2
        assert chain.marginal(k + 1).second_moment == pytest.approx(expected, abs=1e-13)


def _euler_config_chain():
    from martquant.cli import _arch_from_config, _load_law

    cfg = json.loads((Path(__file__).parent.parent / "configs" / "euler.json").read_text())
    arch, noises = _arch_from_config(cfg)
    sizes = [cfg["sizes"]["n0"]] + [cfg["sizes"]["n"]] * arch.n_steps
    return arch, noises, _load_law(cfg["x0"]), sizes


def _seeded_chain():
    gen = np.random.default_rng(2024)
    n0 = 9
    x0 = DiscreteDistribution(np.sort(gen.uniform(-1.0, 1.0, n0)), gen.dirichlet(np.ones(n0)))
    theta = theta_abs_shifted(float(gen.uniform(0.2, 0.5)), float(gen.uniform(-0.5, 0.5)), 0.05)
    trunc = TruncatedLaw.centered(Normal(0, 1), -float(gen.uniform(1.0, 2.5)))
    return ArchSpec([theta] * 3), [NoiseSpec.truncated(trunc)] * 3, x0, [n0, 13, 13, 13]


@pytest.mark.parametrize("make", [_euler_config_chain, _seeded_chain], ids=["euler", "seeded"])
def test_embedded_grid_ends_are_the_image_hull_bit_for_bit(make, monkeypatch):
    """Each embedded grid ends exactly on the hull of the one-step images,
    the hull ``dual_transition_weights`` checks, so that check passes even
    with no tolerance.  The ends are pinned before the first sweep, so
    capping the sweeps keeps what is checked and keeps the build short."""
    arch, noises, x0, sizes = make()
    monkeypatch.setattr(chainmod, "_DUAL_MAX_ITER", 50)
    chain = build_chain(arch, noises, x0, sizes)
    monkeypatch.setattr(dual, "_HULL_TOL", 0.0)
    for k in range(arch.n_steps):
        source, target = chain.grids[k], chain.grids[k + 1]
        theta_vals = arch.thetas[k](source)
        trunc = noises[k].law
        assert target[0] == np.min(source + theta_vals * trunc.alpha)
        assert target[-1] == np.max(source + theta_vals * trunc.beta)
        exact = dual_transition_weights(source, target, theta_vals, trunc)
        assert exact.matrix.tobytes() == chain.kernels[k].matrix.tobytes()


def test_build_chain_degenerate_noise_keeps_marginal():
    still = DiscreteDistribution([0.0], [1.0])
    start = DiscreteDistribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    chain = build_chain(
        ArchSpec([theta_constant(1.0)]),
        [NoiseSpec.quantized(still)],
        start,
        [3, 5],
        grid_mode="fixed",
        grids=[np.array([-1.0, -0.5, 0.0, 0.5, 1.0])],
    )
    marg = chain.marginal(1)
    keep = marg.weights > 0
    assert np.allclose(marg.points_1d[keep], [-1.0, 0.0, 1.0])
    assert np.allclose(marg.weights[keep], [0.25, 0.5, 0.25], atol=1e-14)


def test_build_chain_finite_noise_embedded():
    noise = NoiseSpec.quantized_from(TruncatedLaw.centered(Normal(0, 1), -2.0), 5)
    chain = build_chain(
        ArchSpec([theta_affine_abs(0.3, 0.2)] * 2),
        [noise] * 2,
        Uniform(-0.1, 0.1),
        [7, 11, 11],
    )
    for k in range(2):
        assert chain.kernels[k].martingale_residual() < 1e-9
        assert chain.kernels[k].row_sum_residual() < 1e-10
    assert convex_order_check(chain.marginal(0), chain.marginal(1)).dominated
    assert convex_order_check(chain.marginal(1), chain.marginal(2)).dominated
    # the materialized one-step image interleaves the marginals in the order
    for k in range(2):
        tilde = chain.diagnostics[k]["intermediate"]
        assert convex_order_check(chain.marginal(k), tilde).dominated
        assert convex_order_check(tilde, chain.marginal(k + 1)).dominated


def test_a_finite_image_law_on_its_grid_has_dual_distortion_zero():
    """The first Euler step of 7-atom noise from three x0 atoms: its 21
    images all lie on the 31-point dual grid, so its distortion is 0."""
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3)[:1]
    noise = NoiseSpec.quantized_from(TruncatedLaw.centered(Normal(0, 1), -2.0), 7)
    x0 = DiscreteDistribution([0.9, 1.0, 1.1], [0.25, 0.5, 0.25])
    chain = build_chain(ArchSpec(thetas), [noise], x0, [3, 31])
    images = chain.diagnostics[0]["intermediate"].points_1d
    assert images.size == 21 and np.isin(images, chain.grids[1]).all()
    assert chain.diagnostics[0]["dual_distortion"] == 0.0


def test_build_chain_marginal_flow():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    chain = build_chain(
        ArchSpec([theta_constant(0.5)] * 2),
        [NoiseSpec.truncated(trunc)] * 2,
        Uniform(-0.2, 0.2),
        [9, 13, 13],
    )
    for k in range(2):
        pushed = chain.marginal_weights[k] @ chain.kernels[k].matrix
        assert np.abs(pushed - chain.marginal_weights[k + 1]).max() < 1e-12


def test_noise_spec_holds_a_truncation_or_centered_atoms():
    """A noise steps a truncation or centered atoms, and nothing else."""
    for law in ("exact", Normal()):
        with pytest.raises(DomainError, match="not a TruncatedLaw or DiscreteDistribution"):
            NoiseSpec(law, base=Normal())
    biased = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    for make in (NoiseSpec, NoiseSpec.quantized):
        with pytest.raises(DomainError, match="not centered"):
            make(biased)
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    assert NoiseSpec.truncated(trunc) == NoiseSpec(trunc, base=trunc.base)


def test_vanishing_theta_keeps_the_truncated_noise_and_dominates_it():
    """theta(x) = sqrt(1/3) 0.4 |x - 1| vanishes at the start atom 1.0 and
    at the grid point 1.0 of every later step: each such source stays put,
    every step keeps the truncated noise, and the chain dominates the
    truncated model path by path on criterion 10's battery, by Monte
    Carlo."""
    from martquant.archmc import simulate_coupled
    from martquant.order import abs_deviation, call_payoff, path_max_call
    from oracles import domination_rows, random_max_affine

    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    arch = ArchSpec(euler_thetas(theta_abs_shifted(0.4, 1.0), 1.0, 3))
    noises = [NoiseSpec.truncated(trunc)] * 3
    x0 = DiscreteDistribution([0.8, 1.0, 1.2], [0.25, 0.5, 0.25])
    chain = build_chain(arch, noises, x0, [3, 31, 31, 31])
    for k, diag in enumerate(chain.diagnostics):
        source = chain.grids[k]
        theta_vals = arch.thetas[k](source)
        assert np.any(theta_vals == 0.0)
        # the hull of the truncated noise's images: no other noise stepped
        assert "intermediate" not in diag
        assert diag["hull"] == (
            float(np.min(source + theta_vals * trunc.alpha)),
            float(np.max(source + theta_vals * trunc.beta)),
        )
        assert diag["dual_converged"]
        assert diag["martingale_residual"] <= 1e-14
        assert diag["row_sum_residual"] <= 1e-14
        assert convex_order_check(chain.marginal(k), chain.marginal(k + 1)).dominated
    dim = 4
    battery = (
        [path_max_call(dim, k) for k in (0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5)]
        + [call_payoff(dim, axis, 1.0) for axis in range(dim)]
        + [abs_deviation(dim, np.full(dim, c), directions=12, seed=s)
           for c, s in ((0.0, 1), (1.0, 2), (-0.5, 3))]
        + random_max_affine(dim, count=5, seed=10)
    )
    sample = simulate_coupled(arch, noises, x0, 200_000, seed=2323, chain=chain)
    assert all(passed for _, _, passed in domination_rows(sample.dual, sample.approx, battery))


def test_theta_constants():
    t = theta_affine_abs(0.3, 0.3)
    xs = np.linspace(-40, 40, 30001)
    assert t.c_envelope == pytest.approx(np.max(t(xs) ** 2 / (1 + xs ** 2)), abs=1e-6)
    assert t.lipschitz == 0.3
    s = theta_abs_shifted(0.2, -1.0, floor=0.05)
    assert s.c_envelope == pytest.approx(np.max(s(xs) ** 2 / (1 + xs ** 2)), abs=1e-6)
    e = euler_thetas(t, horizon=2.0, n_steps=8)
    assert len(e) == 8
    assert e[0].lipschitz == pytest.approx(math.sqrt(0.25) * 0.3)
    assert e[0].c_envelope == pytest.approx(0.25 * t.c_envelope)


def test_build_chain_2d_fixed_grids():
    square = np.array(
        [[-4.0, -4.0], [4.0, -4.0], [-4.0, 4.0], [4.0, 4.0], [0.0, 0.3], [1.2, -0.7]]
    )
    tri1 = Triangulation2D.delaunay(square)
    tri2 = Triangulation2D.delaunay(square * 2.0)
    noise = DiscreteDistribution(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
    )
    x0 = DiscreteDistribution([[0.0, 0.0], [0.5, -0.5]], [0.6, 0.4])
    arch = ArchSpec([np.eye(2), 0.5 * np.eye(2)], dim=2, noise_dim=2)
    chain = build_chain(
        arch, [NoiseSpec.quantized(noise)] * 2, x0, [2, 6, 6],
        grid_mode="fixed", grids=[tri1, tri2],
    )
    for k in range(2):
        assert chain.diagnostics[k]["martingale_residual"] < 1e-9
        assert chain.diagnostics[k]["mean_drift"] < 1e-9
    assert convex_order_check(chain.marginal(0), chain.marginal(1)).dominated
    assert convex_order_check(chain.marginal(1), chain.marginal(2)).dominated


def test_build_chain_2d_state_dependent_theta():
    """A 2D ``ThetaFn`` is evaluated point by point; its kernels are those of
    the same matrices passed per step as an (N, 2, 2) array."""
    gen = make_generator(17)
    square = np.array([[-4.0, -4.0], [4.0, -4.0], [-4.0, 4.0], [4.0, 4.0]])
    tris = [Triangulation2D.delaunay(np.vstack([scale * square, gen.uniform(-3.0, 3.0, (5, 2))]))
            for scale in (1.0, 2.0)]
    noise = DiscreteDistribution(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
    )
    x0 = DiscreteDistribution(gen.uniform(-0.5, 0.5, (3, 2)), [0.2, 0.3, 0.5])
    # |theta(x) - theta(y)|_F <= 0.2 |x - y|, and |theta(x)|_F^2 <= 0.22 (1 + |x|^2)
    theta = ThetaFn(lambda x: (0.3 + 0.1 * np.abs(x).sum()) * np.eye(2), 0.2, 0.22)
    args = ([NoiseSpec.quantized(noise)] * 2, x0, [3, 9, 9])
    chain = build_chain(ArchSpec([theta] * 2, dim=2, noise_dim=2), *args,
                        grid_mode="fixed", grids=tris)
    for diag, kernel in zip(chain.diagnostics, chain.kernels):
        assert diag["martingale_residual"] <= 1e-12
        assert diag["row_sum_residual"] <= 1e-12
        assert kernel.matrix.min() >= 0.0
    assert convex_order_check(chain.marginal(0), chain.marginal(1)).dominated
    matrices = [np.array([theta(x) for x in grid]) for grid in chain.grids[:-1]]
    assert matrices[0].shape == (3, 2, 2)
    by_array = build_chain(ArchSpec(matrices, dim=2, noise_dim=2), *args,
                           grid_mode="fixed", grids=tris)
    for kernel, same in zip(chain.kernels, by_array.kernels):
        assert kernel.matrix.tobytes() == same.matrix.tobytes()


def test_build_chain_2d_requires_fixed_triangulations():
    x0 = DiscreteDistribution([[0.0, 0.0]], [1.0])
    noise = DiscreteDistribution([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    arch = ArchSpec([np.eye(2)], dim=2, noise_dim=2)
    from martquant.errors import OutOfScopeError

    with pytest.raises(OutOfScopeError):
        build_chain(arch, [NoiseSpec.quantized(noise)], x0, [1, 4])


def test_truncated_chain_marginals_match_monte_carlo():
    """End-to-end check of the closed-form kernels: simulate the dually
    projected path and compare marginal weights for the truncated noise."""
    from martquant.archmc import simulate_coupled
    from oracles import chain_marginals

    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3)
    arch = ArchSpec(thetas)
    x0 = Uniform(0.9, 1.1)
    chain = build_chain(arch, [NoiseSpec.truncated(trunc)] * 3, x0, [15] * 4)
    n_paths = 400_000
    sample = simulate_coupled(arch, [NoiseSpec.truncated(trunc)] * 3, x0, n_paths, seed=55, chain=chain)
    mc = chain_marginals(sample, chain)
    for k in range(4):
        p = chain.marginal_weights[k]
        se = np.sqrt(np.maximum(np.maximum(p, mc[k]), 1.0 / n_paths) / n_paths)
        assert np.all(np.abs(mc[k] - p) <= 4.0 * se)


def test_chain_to_json_round_trip_shapes():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    chain = build_chain(
        ArchSpec([theta_constant(0.7)]),
        [NoiseSpec.truncated(trunc)],
        DiscreteDistribution([0.0], [1.0]),
        [1, 7],
    )
    blob = chain.to_json()
    assert len(blob["grids"]) == 2
    assert len(blob["kernels"]) == 1
    assert len(blob["kernels"][0]) == 1  # one source row


@pytest.mark.parametrize(
    "make",
    [
        lambda: theta_constant(math.nan),
        lambda: theta_constant(math.inf),
        lambda: theta_affine_abs(math.nan, 0.4),
        lambda: theta_affine_abs(0.4, math.inf),
        lambda: theta_abs_shifted(math.nan, 0.0),
        lambda: theta_abs_shifted(1.0, math.nan),
        lambda: euler_thetas(theta_constant(1.0), math.nan, 5),
        lambda: euler_thetas(theta_constant(1.0), math.inf, 5),
    ],
    ids=["constant-nan", "constant-inf", "affine-a-nan", "affine-b-inf",
         "shifted-scale-nan", "shifted-center-nan", "horizon-nan", "horizon-inf"],
)
def test_theta_parameters_must_be_finite(make):
    with pytest.raises(DomainError, match="finite"):
        make()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["truncated", "quantized"])
def test_fixed_target_grids_must_be_finite(mode, bad):
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    noise = NoiseSpec.truncated(trunc) if mode == "truncated" else NoiseSpec.quantized_from(trunc, 5)
    with pytest.raises(DomainError, match="finite"):
        build_chain(
            ArchSpec([theta_constant(0.5)]),
            [noise],
            DiscreteDistribution([0.0], [1.0]),
            [1, 4],
            grid_mode="fixed",
            grids=[np.array([-1.0, bad, 0.5, 1.0])],
        )


def test_mixture_weights_and_theta_values_are_checked():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    with pytest.raises(DomainError, match="weights must be finite"):
        MixtureTransitionLaw([0.0, 1.0], [math.nan, 1.0], [1.0, 1.0], trunc)
    with pytest.raises(DomainError, match="sum to 1"):
        MixtureTransitionLaw([0.0, 1.0], [0.5, 0.6], [1.0, 1.0], trunc)
    with pytest.raises(DomainError, match="finite"):
        MixtureTransitionLaw([0.0, 1.0], [0.5, 0.5], [math.nan, 1.0], trunc)
    with pytest.raises(DomainError, match=">= 0"):
        MixtureTransitionLaw([0.0, 1.0], [0.5, 0.5], [-0.5, 1.0], trunc)


@pytest.mark.parametrize("grid", [[-1.0, 0.5, 0.0, 1.0], [1.0, 0.0, -1.0]], ids=["unsorted", "decreasing"])
@pytest.mark.parametrize("finite", [True, False], ids=["finite", "truncated"])
def test_dual_transition_weights_checks_its_target_grid(grid, finite, trunc_n1):
    noise = DiscreteDistribution([-0.5, 0.5], [0.5, 0.5]) if finite else trunc_n1
    with pytest.raises(DomainError, match="pairwise distinct and increasing"):
        dual_transition_weights(np.array([0.0]), np.array(grid), np.array([0.5]), noise)


def test_kernels_reject_a_nan_theta():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    grid = np.linspace(-4.0, 5.0, 7)
    with pytest.raises(DomainError, match="finite"):
        dual_transition_weights([0.0, 1.0], grid, np.array([math.nan, 1.0]), trunc)
    noise = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError, match="finite"):
        dual_transition_weights([0.0, 1.0], grid, np.array([math.nan, 1.0]), noise)
    for law in (trunc, noise):
        with pytest.raises(DomainError, match=">= 0"):
            dual_transition_weights([0.0, 1.0], grid, np.array([-0.5, 1.0]), law)


@pytest.mark.parametrize("mode", ["truncated", "quantized"])
def test_a_nan_theta_names_its_step(mode):
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    noise = NoiseSpec.truncated(trunc) if mode == "truncated" else NoiseSpec.quantized_from(trunc, 5)
    # finite at the start point 0, nan on the spread-out grid of step 1
    nan_off_zero = ThetaFn(lambda x: np.where(np.abs(x) > 0.1, math.nan, 0.5), 0.0, 0.25)
    with pytest.raises(DomainError, match="theta values of step 1 must be finite"):
        build_chain(
            ArchSpec([nan_off_zero, nan_off_zero]),
            [noise] * 2,
            DiscreteDistribution([0.0], [1.0]),
            [1, 5, 5],
        )


@pytest.mark.parametrize("mode", ["truncated", "quantized"])
def test_fixed_mode_on_embedded_grids_rebuilds_the_chain_bit_for_bit(mode):
    """The embedded and fixed grid paths share one step loop: given the
    embedded grids, fixed mode reproduces every kernel, weight and
    diagnostic."""
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    noise = NoiseSpec.truncated(trunc) if mode == "truncated" else NoiseSpec.quantized_from(trunc, 7)
    arch = ArchSpec(euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3))
    args = (arch, [noise] * 3, Uniform(0.9, 1.1), [9] * 4)
    chain = build_chain(*args)
    fixed = build_chain(*args, grid_mode="fixed", grids=chain.grids[1:])
    for k in range(3):
        assert fixed.kernels[k].matrix.tobytes() == chain.kernels[k].matrix.tobytes()
        assert fixed.grids[k + 1].tobytes() == chain.grids[k + 1].tobytes()
        assert fixed.marginal_weights[k + 1].tobytes() == chain.marginal_weights[k + 1].tobytes()
        for key in ("dual_distortion", "hull", "mean_drift"):
            assert fixed.diagnostics[k][key] == chain.diagnostics[k][key], key
        assert fixed.diagnostics[k]["dual_converged"] is None


@pytest.mark.parametrize(
    "case, message",
    [
        ("truncated-noise", "quantized"),
        ("1d-x0", "2D DiscreteDistribution"),
        ("1d-grid", "Triangulation2D"),
        ("grid-count", "one target grid per step"),
    ],
)
def test_build_chain_2d_rejections(case, message):
    x0 = DiscreteDistribution([[0.0, 0.0], [0.5, -0.5]], [0.6, 0.4])
    noise = NoiseSpec.quantized(DiscreteDistribution([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5]))
    square = np.array([[-4.0, -4.0], [4.0, -4.0], [-4.0, 4.0], [4.0, 4.0], [0.0, 0.3]])
    grids = [Triangulation2D.delaunay(square), Triangulation2D.delaunay(2.0 * square)]
    if case == "truncated-noise":
        noise = NoiseSpec.truncated(TruncatedLaw.centered(Normal(0, 1), -2.0))
    elif case == "1d-x0":
        x0 = DiscreteDistribution([0.0, 0.5], [0.6, 0.4])
    elif case == "1d-grid":
        grids = [np.linspace(-4.0, 4.0, 5)] * 2
    else:
        grids = grids[:1]
    arch = ArchSpec([np.eye(2), 0.5 * np.eye(2)], dim=2, noise_dim=2)
    with pytest.raises(DomainError, match=message):
        build_chain(arch, [noise] * 2, x0, [2, 5, 5], grid_mode="fixed", grids=grids)


@st.composite
def _rational_chains(draw):
    """A chain of small rational inputs: Euler steps of h = 1/4, so sqrt(h) =
    1/2, of ``theta_affine_abs`` or ``theta_abs_shifted``, a centered noise
    of 2 to 7 atoms, 1 to 3 ``x0`` atoms, and N <= 9 points per grid."""

    def rational(lo, hi, den=8):
        return st.fractions(lo, hi, max_denominator=den)

    n_steps = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = theta_affine_abs(float(draw(rational(Fraction(1, 4), 1))), float(draw(rational(0, 1))))
    else:
        floor = draw(st.just(Fraction(0)) | rational(Fraction(1, 8), Fraction(1, 2)))
        base = theta_abs_shifted(float(draw(rational(Fraction(1, 4), 1))),
                                 float(draw(rational(0, 2))), float(floor))
    n_atoms = draw(st.integers(2, 7))
    z = draw(st.lists(rational(-2, 2), min_size=n_atoms, max_size=n_atoms, unique=True))
    q = draw(st.lists(st.integers(1, 9), min_size=n_atoms, max_size=n_atoms))
    mean = sum(qj * zj for qj, zj in zip(q, z)) / sum(q)
    noise = DiscreteDistribution([float(zj - mean) for zj in z], [qj / sum(q) for qj in q])
    n_x0 = draw(st.integers(1, 3))
    x0 = draw(st.lists(rational(Fraction(1, 2), Fraction(3, 2)), min_size=n_x0, max_size=n_x0,
                       unique=True))
    p = draw(st.lists(st.integers(1, 4), min_size=n_x0, max_size=n_x0))
    x0 = DiscreteDistribution([float(x) for x in x0], [pi / sum(p) for pi in p])
    # a still point mass has no dual grid of two points
    assume(np.any(base(x0.points_1d) > 0.0))
    arch = ArchSpec(euler_thetas(base, n_steps / 4, n_steps))
    return arch, noise, x0, [1] + [draw(st.integers(3, 9))] * n_steps


@given(_rational_chains())
@settings(max_examples=100, deadline=None)
def test_finite_noise_chains_match_their_exact_replay(instance):
    """``build_chain`` against its exact rational replay (``tests/exact.py``):
    the replay's rows are martingale and its steps in convex order exactly.

    A float image is off by about ``eps |y|``, which moves its split by that
    over its cell's width: so kernels and weights agree to 1e-14 plus ``2 eps
    max|t| / min dt`` on the targets t.  The squared distortion also carries
    ``dual_split``'s cancellation against the image law's second moment."""
    arch, noise, x0, sizes = instance
    chain = build_chain(arch, [NoiseSpec.quantized(noise)] * arch.n_steps, x0, sizes)
    steps = replay(chain, arch.thetas, [noise] * arch.n_steps, x0)
    for step, kernel, weights, diag in zip(
        steps, chain.kernels, chain.marginal_weights[1:], chain.diagnostics
    ):
        for source, row in zip(step.sources, step.kernel):
            assert is_martingale_row(source, step.targets, row)
        assert in_convex_order((step.sources, step.source_weights), (step.targets, step.weights))
        t = kernel.target_grid
        assert np.diff(t).min() > 1e-12
        tol = 1e-14 + 2.0 * np.finfo(float).eps * np.abs(t).max() / np.diff(t).min()
        assert np.abs(kernel.matrix - np.array(step.kernel, dtype=float)).max() <= tol
        assert np.abs(weights - np.array(step.weights, dtype=float)).max() <= tol
        d2_exact = float(step.distortion_sq)
        slack = 1e-12 * d2_exact + 1e-14 * float(step.image_second_moment)
        assert abs(diag["dual_distortion"] ** 2 - d2_exact) <= slack


_ONE_NUMBER_TWO_IMAGES = [
    # 0.4875 + theta 0.1 and 0.503125 - theta' 0.4 at step 1 round an ulp apart
    (ArchSpec(euler_thetas(theta_abs_shifted(1 / 8, 0.0, 0.0), 0.5, 2)),
     DiscreteDistribution([-0.4, 0.1], [0.2, 0.8]), [0.5], [1, 5, 5]),
    # x1 = fl(3 theta) and x2 = 3 theta - x1 = -2^-55 exactly: x1 - 3 theta
    # and x2 + 0 theta are x2, rounded to 0 and to x2, many ulps of x2 apart
    (ArchSpec([theta_affine_abs(0.1, 0.0)]),
     DiscreteDistribution([-3.0, 0.0, 3.0], [0.25, 0.5, 0.25]),
     [-(2.0 ** -55), 0.30000000000000004], [2, 5]),
]


@pytest.mark.parametrize("arch, noise, x0, sizes", _ONE_NUMBER_TWO_IMAGES,
                         ids=["ulp-apart", "near-zero"])
def test_images_of_one_number_are_one_atom(arch, noise, x0, sizes):
    """Two images of one exact number, rounded two ways, are one atom of the
    image law, also where ``x_i`` and ``theta_i z_j`` nearly cancel: the dual
    grid can spend no point on a duplicate, and the kernels agree with the
    exact replay."""
    x0 = DiscreteDistribution(x0, [1.0 / len(x0)] * len(x0))
    chain = build_chain(arch, [NoiseSpec.quantized(noise)] * arch.n_steps, x0, sizes)
    steps = replay(chain, arch.thetas, [noise] * arch.n_steps, x0)
    for step, kernel, diag in zip(steps, chain.kernels, chain.diagnostics):
        assert np.diff(diag["intermediate"].atoms()[0]).min() > 1e-12
        assert np.diff(kernel.target_grid).min() > 1e-12
        assert np.abs(kernel.matrix - np.array(step.kernel, dtype=float)).max() <= 1e-14
