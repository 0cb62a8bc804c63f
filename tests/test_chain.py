import math

import numpy as np
import pytest
from scipy.integrate import quad

from martquant.chain import (
    ArchSpec,
    MixtureTransitionLaw,
    NoiseSpec,
    build_chain,
    dual_transition_weights,
    euler_thetas,
    finite_noise_transition,
    theta_abs_shifted,
    theta_affine_abs,
    theta_constant,
    transition_cdf,
    transition_partial_moment,
)
from martquant.dual import Triangulation2D
from martquant.errors import DomainError, HullViolation
from martquant.laws import FiniteAtoms, Normal, PointMass, TruncatedLaw, Uniform
from martquant.order import DiscreteDistribution, convex_order_check


@pytest.fixture(scope="module")
def trunc_n1():
    return TruncatedLaw.centered(Normal(0, 1), -1.0)


def test_transition_cdf_closed_values(trunc_n1):
    phi1 = Normal().cdf(1.0)
    assert transition_cdf(0.0, 0.0, 1.0, trunc_n1) == pytest.approx(
        1 - phi1 + 0.5, abs=1e-14
    )
    assert transition_cdf(0.0, 1.0, 1.0, trunc_n1) == pytest.approx(1.0, abs=1e-14)
    assert transition_cdf(0.0, -1.5, 1.0, trunc_n1) == 0.0


def test_transition_cdf_against_simulation_oracle(trunc_n1):
    z = Normal().sample(400_000, seed=8)
    zb = z * ((z >= -1) & (z <= 1))
    x, theta = 0.7, 1.3
    nxt = x + theta * zb
    for u in (-0.1, 0.7, 0.9, 1.6):
        mc = float(np.mean(nxt <= u))
        se = math.sqrt(mc * (1 - mc) / z.size) + 1e-9
        assert transition_cdf(x, u, theta, trunc_n1) == pytest.approx(mc, abs=4 * se)


def test_transition_partial_moment_values(trunc_n1):
    phi = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    expected = -phi(0.0) + phi(1.0)
    assert transition_partial_moment(0.0, 0.0, 1.0, trunc_n1) == pytest.approx(
        expected, abs=1e-12
    )
    # martingale limit and empty lower tail
    assert transition_partial_moment(0.3, 50.0, 1.0, trunc_n1) == pytest.approx(
        0.3, abs=1e-10
    )
    assert transition_partial_moment(0.0, -1.5, 1.0, trunc_n1) == 0.0


def test_transition_partial_moment_quadrature_oracle(trunc_n1):
    x, theta, u = 0.4, 0.8, 0.6
    cut = (u - x) / theta
    oracle = x * (1 - Normal().cdf(1.0) + Normal().cdf(0.0) * 0) if False else None
    # direct integral: E[(x + theta z) 1{x + theta z <= u, z in [-1,1]}]
    #                + x P(z outside) 1{x <= u}
    integral = quad(
        lambda z: (x + theta * z) * math.exp(-z * z / 2) / math.sqrt(2 * math.pi),
        -1.0,
        min(max(cut, -1.0), 1.0),
    )[0]
    clipped = 1.0 - (Normal().cdf(1.0) - Normal().cdf(-1.0))
    expected = integral + x * clipped * (x <= u)
    got = transition_partial_moment(x, u, theta, trunc_n1)
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
    with pytest.raises(HullViolation) as err:
        dual_transition_weights(np.array([0.0]), np.array([-0.5, 0.5]), np.array([1.0]), trunc_n1)
    assert err.value.overshoot > 0


def test_finite_noise_transition_rademacher():
    rad = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    k1 = finite_noise_transition(
        DiscreteDistribution([0.0], [1.0]), rad, np.array([1.0]), np.array([-1.0, 0.0, 1.0])
    )
    assert np.allclose(k1.matrix, [[0.5, 0.0, 0.5]], atol=1e-14)
    k2 = finite_noise_transition(
        DiscreteDistribution([0.0], [1.0]), rad, np.array([1.0]), np.array([-2.0, 2.0])
    )
    assert np.allclose(k2.matrix, [[0.5, 0.5]], atol=1e-14)
    assert k2.martingale_residual() < 1e-12


def test_finite_noise_requires_centered():
    biased = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        finite_noise_transition(
            DiscreteDistribution([0.0], [1.0]), biased, np.array([1.0]), np.array([-2.0, 2.0])
        )


def test_finite_noise_2d_barycenter():
    src = DiscreteDistribution([[0.0, 0.0]], [1.0])
    noise = DiscreteDistribution(
        [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
    )
    corners = np.array([[-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0], [2.0, 2.0], [0.0, 0.1]])
    tri = Triangulation2D.delaunay(corners)
    kernel = finite_noise_transition(src, noise, np.eye(2), tri)
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
    # second moment against quadrature + atoms
    density, (lo, hi), atoms, masses = mix.decompose()
    m2 = quad(lambda t: t * t * density(np.array([t]))[0], lo, hi, limit=200)[0]
    m2 += float(masses @ atoms ** 2)
    assert mix.second_moment == pytest.approx(m2, abs=1e-8)


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


@_BASES
def test_mixture_cdf_is_the_weighted_transition_cdf_bit_for_bit(base, alpha):
    trunc = TruncatedLaw.centered(base, alpha)
    points = np.array([-0.7, -0.1, 0.0, 0.35, 1.2])
    weights = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    thetas = np.array([0.5, 0.9, 1.0, 1.7, 0.3])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc)
    lo, hi = mix.support
    # the source points (where the clipped mass sits), points outside the
    # hull on both sides, and a spread of interior points
    u = np.concatenate((points, [lo - 1.0, lo, hi, hi + 2.5], np.linspace(lo, hi, 41)))

    def oracle(q):
        q = np.atleast_1d(q)
        return weights @ _transition_cdf_reference(
            points[:, None], q[None, :], thetas[:, None], trunc
        )

    assert np.array_equal(mix.cdf(u), oracle(u))
    for q in (points[2], lo - 1.0, 0.5 * (lo + hi)):
        value = mix.cdf(q)
        assert isinstance(value, float)
        assert value == oracle(q)[0]


def _cdf_moment_left_batch_reference(mix, u):
    """``MixtureTransitionLaw.cdf_moment_left_batch`` before it reused the
    base F for continuous bases, verbatim."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = mix.points[:, None]
    th = mix.theta_values[:, None]
    trunc = mix.trunc
    base = trunc.base
    tail, f_alpha_left = trunc.clipped_mass, trunc.base_f_alpha_left
    ratio = np.clip((u[None, :] - x) / th, trunc.alpha, trunc.beta)
    base_f = np.asarray(base.cdf(ratio))
    base_fl = np.asarray(base.cdf_left(ratio))
    base_k = np.asarray(base.partial_moment(ratio))
    at_or_above = np.where(x <= u[None, :], tail, 0.0)
    f_rows = at_or_above + base_f - f_alpha_left
    fl_rows = np.where(x < u[None, :], tail, 0.0) + base_fl - f_alpha_left
    k_rows = x * f_rows + th * (base_k - trunc.base_k_alpha)
    w = mix.weights
    return w @ f_rows, w @ k_rows, w @ fl_rows


@pytest.mark.parametrize(
    "base, alpha",
    [
        (Normal(0, 1), -2.0),
        # an atom at alpha: F(alpha-) < F(alpha), so F(.-) must be its own call
        (FiniteAtoms([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1]), -1.0),
    ],
    ids=["normal", "atoms"],
)
def test_cdf_moment_left_batch_is_unchanged_bit_for_bit(base, alpha):
    trunc = TruncatedLaw.centered(base, alpha)
    points = np.array([-0.7, -0.1, 0.0, 0.35, 1.2])
    weights = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    thetas = np.array([0.5, 0.9, 1.0, 1.7, 0.3])
    mix = MixtureTransitionLaw(points, weights, thetas, trunc)
    lo, hi = mix.support
    u = np.concatenate((points, points + thetas * alpha, [lo - 1.0, lo, hi, hi + 2.5], np.linspace(lo, hi, 41)))
    got = mix.cdf_moment_left_batch(u)
    ref = _cdf_moment_left_batch_reference(mix, u)
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()
    if isinstance(base, FiniteAtoms):
        assert not np.array_equal(got[0], got[2])  # the left limits differ


@_BASES
def test_transition_cdf_keeps_its_closed_form_bit_for_bit(base, alpha):
    trunc = TruncatedLaw.centered(base, alpha)
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
        got, ref = transition_cdf(x, u, th, trunc), _transition_cdf_reference(x, u, th, trunc)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    for x, u in ((0.0, 0.0), (0.35, -2.0), (-0.7, 5.0)):
        got = transition_cdf(x, u, 1.1, trunc)
        assert isinstance(got, np.float64)
        assert got == _transition_cdf_reference(x, u, 1.1, trunc)


def test_build_chain_single_step_point_start():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    chain = build_chain(
        ArchSpec([theta_constant(1.0)]),
        [NoiseSpec.truncated(trunc)],
        PointMass(0.0),
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
    m2 = [chain.second_moment(k) for k in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(m2, m2[1:]))
    for k in range(3):
        assert chain.diagnostics[k]["martingale_residual"] < 1e-9
        assert abs(chain.mean(k + 1) - chain.mean(0)) < 1e-9


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


def test_exact_noise_rejected():
    with pytest.raises(DomainError):
        build_chain(
            ArchSpec([theta_constant(1.0)]),
            [NoiseSpec.exact(Normal(0, 1))],
            PointMass(0.0),
            [1, 5],
        )


def test_nonpositive_theta_falls_back_to_quantized():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    # theta vanishes at the center of mass: closed form invalid there
    chain = build_chain(
        ArchSpec([theta_abs_shifted(0.3, 0.0, floor=0.0)]),
        [NoiseSpec.truncated(trunc)],
        DiscreteDistribution([-0.5, 0.0, 0.5], [0.25, 0.5, 0.25]),
        [3, 9],
    )
    assert chain.diagnostics[0]["mode"] == "quantized"
    assert chain.kernels[0].martingale_residual() < 1e-9


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
    from martquant.archmc import simulate_chain_marginals

    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3)
    arch = ArchSpec(thetas)
    x0 = Uniform(0.9, 1.1)
    chain = build_chain(arch, [NoiseSpec.truncated(trunc)] * 3, x0, [15] * 4)
    n_paths = 400_000
    mc = simulate_chain_marginals(chain, arch, [NoiseSpec.truncated(trunc)] * 3, x0, n_paths, seed=55)
    for k in range(4):
        p = chain.marginal_weights[k]
        se = np.sqrt(np.maximum(np.maximum(p, mc[k]), 1.0 / n_paths) / n_paths)
        assert np.all(np.abs(mc[k] - p) <= 4.0 * se)


def test_chain_to_json_round_trip_shapes():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    chain = build_chain(
        ArchSpec([theta_constant(0.7)]),
        [NoiseSpec.truncated(trunc)],
        PointMass(0.0),
        [1, 7],
    )
    blob = chain.to_json()
    assert len(blob["grids"]) == 2
    assert len(blob["kernels"]) == 1
    assert len(blob["kernels"][0]) == 1  # one source row
