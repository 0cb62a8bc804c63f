import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from martquant.archmc import (
    _PairwiseSums,
    batch_standard_error,
    coupled_gap_statistics,
    domination_test,
    gaussian_tail_bound,
    quantized_innovation_bound,
    select_truncation,
    simulate_chain_marginals,
    simulate_coupled,
    theta_norm_envelope,
    truncation_error_bound,
)
from martquant.chain import (
    ArchSpec,
    NoiseSpec,
    build_chain,
    euler_thetas,
    theta_affine_abs,
    theta_constant,
)
from martquant.errors import DomainError
from martquant.laws import Normal, PointMass, TruncatedLaw, Uniform
from martquant.order import (
    ConvexTestBattery,
    DiscreteDistribution,
    convex_order_check,
    path_max_call,
)

TRUNC15 = TruncatedLaw.centered(Normal(0, 1), -1.5)


def test_zero_theta_freezes_paths():
    arch = ArchSpec([theta_constant(0.0)] * 3)
    s = simulate_coupled(arch, [NoiseSpec.truncated(TRUNC15)] * 3, 2.0, 500, seed=1)
    assert np.all(s.exact == 2.0)
    assert np.all(s.approx == 2.0)


def test_huge_radius_means_no_clipping():
    huge = TruncatedLaw.centered(Normal(0, 1), -1e9)
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 2)
    s = simulate_coupled(arch, [NoiseSpec.truncated(huge)] * 2, 1.0, 3000, seed=2)
    assert np.array_equal(s.exact, s.approx)


def test_one_step_gap_matches_tail_integral():
    t1 = TruncatedLaw.centered(Normal(0, 1), -1.0)
    arch = ArchSpec([theta_constant(1.0)])
    s = simulate_coupled(arch, [NoiseSpec.truncated(t1)], 0.0, 400_000, seed=3)
    gap_sq = (s.exact[1] - s.approx[1]) ** 2
    tail = 2 * quad(
        lambda z: z * z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), 1.0, 40.0
    )[0]
    se = batch_standard_error(gap_sq)
    assert abs(float(gap_sq.mean()) - tail) < 3 * se


def test_simulation_deterministic_across_threads():
    arch = ArchSpec([theta_affine_abs(0.2, 0.2)] * 2)
    specs = [NoiseSpec.truncated(TRUNC15)] * 2
    a = simulate_coupled(arch, specs, Uniform(0.9, 1.1), 600_000, seed=5, threads=1)
    b = simulate_coupled(arch, specs, Uniform(0.9, 1.1), 600_000, seed=5, threads=4)
    assert np.array_equal(a.exact, b.exact)
    assert np.array_equal(a.approx, b.approx)


def test_common_random_numbers_monotone_in_radius():
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    norms = []
    for a in (1.0, 1.5, 2.0):
        trunc = TruncatedLaw.centered(Normal(0, 1), -a)
        s = simulate_coupled(arch, [NoiseSpec.truncated(trunc)] * 3, 1.0, 200_000, seed=9)
        norms.append(float(np.sqrt(np.mean((s.exact[-1] - s.approx[-1]) ** 2))))
    assert norms[0] >= norms[1] >= norms[2]


def test_truncation_bound_zero_inputs():
    refined, product = truncation_error_bound(
        [0.1] * 4, [0.2] * 4, [0.2] * 4, 1, 1.0, 0.0, [0.0] * 4
    )
    assert np.allclose(refined, 0.0)
    assert np.allclose(product, 0.0)


def test_truncation_bound_one_step_equality_configuration():
    """Constant theta, deterministic start at 0: the bound is an identity."""
    c0 = 0.7
    t1 = TruncatedLaw.centered(Normal(0, 1), -1.0)
    gap = Normal(0, 1).second_moment - t1.second_moment
    refined, product = truncation_error_bound([0.0], [c0 * c0], [c0 * c0], 1, 0.0, 0.0, [gap])
    arch = ArchSpec([theta_constant(c0)])
    s = simulate_coupled(arch, [NoiseSpec.truncated(t1)], 0.0, 400_000, seed=11)
    emp_sq = (s.exact[1] - s.approx[1]) ** 2
    se = batch_standard_error(emp_sq)
    assert refined[1] ** 2 == pytest.approx(float(emp_sq.mean()), abs=3 * se)
    assert refined[1] <= product[1]  # product form carries the extra (1+C) factor


def test_truncation_bound_dominates_empirical_multi_step():
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 4)
    trunc = TruncatedLaw.centered(Normal(0, 1), -1.5)
    arch = ArchSpec(thetas)
    s = simulate_coupled(arch, [NoiseSpec.truncated(trunc)] * 4, 1.0, 300_000, seed=13)
    gap = Normal(0, 1).second_moment - trunc.second_moment
    refined, product = truncation_error_bound(
        [t.lipschitz for t in thetas],
        [t.c_envelope for t in thetas],
        [t.c_frobenius for t in thetas],
        1,
        1.0,
        0.0,
        [gap] * 4,
    )
    for k in range(5):
        emp_sq = (s.exact[k] - s.approx[k]) ** 2
        emp = math.sqrt(float(emp_sq.mean()))
        se = batch_standard_error(emp_sq)
        assert emp <= refined[k] + 3 * se + 1e-12
        assert refined[k] <= product[k] + 1e-12


def test_euler_product_form_matches_display():
    """With identical per-step constants the product form factors into the
    closed geometric display."""
    n, horizon = 5, 1.0
    base = theta_affine_abs(0.4, 0.4)
    thetas = euler_thetas(base, horizon, n)
    h = horizon / n
    gap = 0.3
    refined, product = truncation_error_bound(
        [t.lipschitz for t in thetas],
        [t.c_envelope for t in thetas],
        [t.c_frobenius for t in thetas],
        1,
        1.0,
        0.0,
        [gap] * n,
    )
    big_c = max(h * base.lipschitz ** 2, h * base.c_frobenius)
    for k in range(n + 1):
        display = (1.0 + 1.0 * 1.0) * (1.0 + big_c) ** k * (h * base.c_envelope) * k * gap
        assert product[k] ** 2 == pytest.approx(display, rel=1e-12)
        # exponential majorant
        assert product[k] ** 2 <= 2.0 * math.exp(big_c * k) * (
            h * base.c_envelope
        ) * k * gap + 1e-12


def test_doob_factor_two():
    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 4)
    trunc = TRUNC15
    s = simulate_coupled(ArchSpec(thetas), [NoiseSpec.truncated(trunc)] * 4, 1.0, 200_000, seed=17)
    diff = np.abs(s.exact - s.approx)
    sup_norm = math.sqrt(float((diff.max(axis=0) ** 2).mean()))
    end_norm_sq = (s.exact[-1] - s.approx[-1]) ** 2
    end_norm = math.sqrt(float(end_norm_sq.mean()))
    rel_se = batch_standard_error(end_norm_sq) / max(float(end_norm_sq.mean()), 1e-30)
    assert sup_norm <= 2.0 * end_norm * (1.0 + 3.0 * rel_se)


def test_gaussian_tail_bounds_dominate_quadrature():
    for a in (1.0, 2.0, 3.0, 4.0):
        tail = 2 * quad(
            lambda z: z * z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), a, 60
        )[0]
        assert tail <= gaussian_tail_bound(a, 1) + 1e-12
    for a in (3.0, 4.0, 5.0):
        tail2 = quad(lambda r: r ** 3 * math.exp(-r * r / 2), a, 60)[0]
        assert tail2 <= gaussian_tail_bound(a, 2) + 1e-12
    assert gaussian_tail_bound(1e3, 1) < 1e-200  # vanishes with the radius


def test_gaussian_tail_domain_error():
    with pytest.raises(DomainError):
        gaussian_tail_bound(1.5, q=2)  # needs a > 2


def test_select_truncation():
    assert select_truncation(math.e ** 2, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert select_truncation(2, 100.0, q=2) == pytest.approx(
        math.sqrt(100 * math.log(2)), abs=1e-12
    )
    assert select_truncation(10 ** 4, 4.0) == pytest.approx(6.069708517540586, abs=1e-9)
    assert select_truncation(3, 0.001, q=2) == pytest.approx(2.0 + 1e-9, abs=1e-12)
    with pytest.raises(DomainError):
        select_truncation(1, 1.0)


def test_noise_orthogonality_identities():
    # truncation: (Z - Zb) Zb = 0 pointwise
    z = Normal(0, 1).sample(50_000, seed=21)
    zb = z * ((z >= -1.5) & (z <= 1.5))
    assert np.max(np.abs((z - zb) * zb)) == 0.0
    # stationary quantization: E[(Z - Zhat) Zhat] = 0 through the closed forms
    spec = NoiseSpec.quantized_from(Normal(0, 1), 7)
    atoms = spec.atoms.points_1d
    mids = np.concatenate(([-np.inf], 0.5 * (atoms[:-1] + atoms[1:]), [np.inf]))
    law = Normal(0, 1)
    dk = np.diff(np.asarray(law.partial_moment(mids)))
    df = np.diff(np.asarray(law.cdf(mids)))
    # E[Z Zhat] = sum_i atom_i * K-increment_i; E[Zhat^2] = sum atom_i^2 p_i
    cross = float(atoms @ dk)
    second = float((atoms ** 2) @ df)
    assert cross == pytest.approx(second, abs=1e-10)


def test_truncation_lemma_discrete():
    """Clipping a centered discrete law to a symmetric window is dominated."""
    from martquant.order import baker_grid, merged_atoms

    base = baker_grid(Normal(0, 1), 41)
    z = base.points_1d
    w = base.weights
    zb = np.where(np.abs(z) <= 1.2, z, 0.0)
    clipped = merged_atoms(zb, w)
    assert abs(clipped.mean[0]) < 1e-12
    assert convex_order_check(clipped, base).dominated


def test_domination_statistical():
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    battery = ConvexTestBattery(
        tuple(
            [path_max_call(4, k) for k in (0.8, 1.0, 1.2)]
            + list(ConvexTestBattery.random_max_affine(4, count=5, seed=2).members)
        )
    )
    rows = domination_test(
        arch, [NoiseSpec.truncated(TRUNC15)] * 3, 1.0, battery, 150_000, seed=23
    )
    assert all(r.passed for r in rows)


def test_domination_equality_when_no_clipping():
    huge = TruncatedLaw.centered(Normal(0, 1), -1e9)
    arch = ArchSpec([theta_constant(0.5)] * 2)
    battery = ConvexTestBattery.random_max_affine(3, count=4, seed=3)
    rows = domination_test(arch, [NoiseSpec.truncated(huge)] * 2, 0.0, battery, 50_000, seed=25)
    for r in rows:
        assert r.mean_gap == 0.0


def test_domination_negative_control_reports_without_asserting():
    """A concave-bump coefficient violates the hypotheses: the harness still
    reports rows (outcomes unconstrained)."""
    bump = type(
        "Bump",
        (),
        {
            "__call__": lambda self, x: 1.0 / (1.0 + np.abs(np.asarray(x))),
            "lipschitz": 1.0,
            "c_envelope": 1.0,
            "c_frobenius": 1.0,
            "convex_abs": False,
            "nonnegative": True,
        },
    )()
    arch = ArchSpec([bump] * 2)
    battery = ConvexTestBattery.random_max_affine(3, count=3, seed=4)
    rows = domination_test(arch, [NoiseSpec.truncated(TRUNC15)] * 2, 1.0, battery, 20_000, seed=27)
    assert len(rows) == 3
    assert all(isinstance(r.passed, bool) for r in rows)


def test_quantized_innovation_bound_zero_and_pythagoras():
    assert np.allclose(
        quantized_innovation_bound([0.2], [1.0], [0.0], [0.0], 1, 0.0), 0.0
    )
    # one step, constant theta, exact start: orthogonal decomposition
    c0 = 0.8
    spec = NoiseSpec.quantized_from(Normal(0, 1), 9)
    arch = ArchSpec([theta_constant(c0)])
    chain = build_chain(arch, [spec], PointMass(0.0), [1, 15])
    gap_sq = Normal(0, 1).second_moment - spec.atoms.second_moment
    dual_sq = chain.diagnostics[0]["dual_distortion"] ** 2
    bound = quantized_innovation_bound([0.0], [c0 * c0], [gap_sq], [dual_sq], 1, 0.0)
    s = simulate_coupled(arch, [spec], 0.0, 400_000, seed=29, chain=chain)
    emp_sq = (s.dual[1] - s.exact[1]) ** 2
    se = batch_standard_error(emp_sq)
    assert bound[1] ** 2 == pytest.approx(float(emp_sq.mean()), abs=4 * se)


def test_theta_norm_envelope_bounds_mc():
    thetas = [theta_affine_abs(0.3, 0.3)] * 3
    arch = ArchSpec(thetas)
    s = simulate_coupled(arch, [NoiseSpec.truncated(TRUNC15)] * 3, 1.0, 100_000, seed=31)
    env = theta_norm_envelope(thetas, 1.0)
    for k in range(3):
        mc = float(np.mean(thetas[k](s.exact[k]) ** 2))
        assert mc <= env[k] + 1e-9


def test_compare_truncation_bound_report():
    from martquant.archmc import compare_truncation_bound

    thetas = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 3)
    report = compare_truncation_bound(
        ArchSpec(thetas), [NoiseSpec.truncated(TRUNC15)] * 3, 1.0, 200_000, seed=41
    )
    assert report.empirical.shape == (4,)
    assert np.all(report.slack >= -3.0 * report.standard_error)
    assert report.doob_empirical <= report.doob_bound + 1e-12
    assert np.all(report.bound <= report.bound_product + 1e-12)


def test_simulate_chain_marginals_matches_exact_small():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    spec = NoiseSpec.quantized_from(trunc, 5)
    arch = ArchSpec([theta_affine_abs(0.3, 0.2)] * 2)
    chain = build_chain(arch, [spec] * 2, PointMass(0.0), [1, 9, 9])
    mc = simulate_chain_marginals(chain, arch, [spec] * 2, PointMass(0.0), 300_000, seed=33)
    for k in range(3):
        exact = chain.marginal_weights[k]
        got = mc[k]
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / 300_000)
        assert np.all(np.abs(got - exact) <= 4 * se + 1e-12)


# ---------------------------------------------------------------------------
# streamed statistics against the formulas on the full path arrays

# three blocks of 250_000 paths, the last holding one path; batch-means
# batches straddle both block edges
RAGGED_PATHS = 500_001

_NOISES = pytest.mark.parametrize(
    "make_spec",
    [
        lambda: NoiseSpec.truncated(TRUNC15),
        lambda: NoiseSpec.quantized_from(Normal(0, 1), 7),
        lambda: NoiseSpec.quantized(DiscreteDistribution([[-1.0], [0.0], [2.0]], [0.4, 0.4, 0.2])),
    ],
    ids=["truncated", "quantized_with_base", "atoms_only"],
)


def _gap_oracle(sample):
    empirical, ses = [], []
    for k in range(sample.n_steps + 1):
        gap_sq = (sample.exact[k] - sample.approx[k]) ** 2
        empirical.append(math.sqrt(float(gap_sq.mean())))
        ses.append(batch_standard_error(gap_sq))
    sup_sq = np.abs(sample.exact - sample.approx).max(axis=0) ** 2
    return np.array(empirical), np.array(ses), math.sqrt(float(sup_sq.mean()))


def _domination_oracle(sample, battery):
    rows = []
    for fn in battery.members:
        v_exact = fn(sample.exact.T)
        v_approx = fn(sample.approx.T)
        gap = v_approx - v_exact
        rows.append(
            (float(v_approx.mean()), float(v_exact.mean()), float(gap.mean()), batch_standard_error(gap))
        )
    return np.array(rows)


def _rows(rows):
    return np.array([(r.mean_approx, r.mean_exact, r.mean_gap, r.standard_error) for r in rows])


@_NOISES
def test_streamed_gap_statistics_match_the_full_arrays(make_spec):
    spec = make_spec()
    # the atoms-only step rides the atoms on both paths; the other steps
    # open a gap for it to carry
    specs = [NoiseSpec.truncated(TRUNC15), spec, spec]
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    x0 = Uniform(0.9, 1.1)
    sample = simulate_coupled(arch, specs, x0, RAGGED_PATHS, seed=43)
    empirical, ses, doob = _gap_oracle(sample)
    del sample
    stats = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43)
    # the streamed sums run numpy's pairwise summation tree, so the numbers
    # are the same bits, not merely close
    assert np.array_equal(stats.empirical, empirical)
    assert np.array_equal(stats.standard_error, ses)
    assert stats.doob_empirical == doob
    assert stats.empirical[-1] > 0.0
    again = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43, threads=2)
    assert np.array_equal(again.empirical, stats.empirical)
    assert np.array_equal(again.standard_error, stats.standard_error)
    assert again.doob_empirical == stats.doob_empirical


@_NOISES
def test_streamed_domination_rows_match_the_full_arrays(make_spec):
    spec = make_spec()
    specs = [NoiseSpec.truncated(TRUNC15), spec]
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 2)
    x0 = DiscreteDistribution([[0.8], [1.0], [1.3]], [0.3, 0.4, 0.3])
    battery = ConvexTestBattery(
        (path_max_call(3, 1.0),) + ConvexTestBattery.random_max_affine(3, count=3, seed=2).members
    )
    want = _domination_oracle(simulate_coupled(arch, specs, x0, RAGGED_PATHS, seed=47), battery)
    rows = domination_test(arch, specs, x0, battery, RAGGED_PATHS, seed=47)
    # the battery's matrix products run on one block of paths at a time,
    # and BLAS may round a row differently in a shorter matrix
    np.testing.assert_allclose(_rows(rows), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert [r.index for r in rows] == list(range(len(battery)))
    assert all(r.passed == (r.mean_gap <= 3.0 * r.standard_error) for r in rows)
    threaded = domination_test(arch, specs, x0, battery, RAGGED_PATHS, seed=47, threads=2)
    assert threaded == rows


def test_streamed_chain_marginals_equal_the_full_arrays():
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    spec = NoiseSpec.quantized_from(trunc, 5)
    arch = ArchSpec([theta_affine_abs(0.3, 0.2)] * 2)
    chain = build_chain(arch, [spec] * 2, PointMass(0.0), [1, 9, 9])
    x0 = Uniform(-0.05, 0.05)
    sample = simulate_coupled(arch, [spec] * 2, x0, RAGGED_PATHS, seed=53, chain=chain)
    mc = simulate_chain_marginals(chain, arch, [spec] * 2, x0, RAGGED_PATHS, seed=53)
    threaded = simulate_chain_marginals(chain, arch, [spec] * 2, x0, RAGGED_PATHS, seed=53, threads=2)
    for k, grid in enumerate(chain.grids):
        grid = np.asarray(grid, dtype=float)
        # the dual path sits on the grid points, so the nearest point is
        # the point itself
        want = np.bincount(np.searchsorted(grid, sample.dual[k]), minlength=grid.size) / RAGGED_PATHS
        assert np.array_equal(mc[k], want)
        assert np.array_equal(threaded[k], want)


def test_pairwise_sums_are_numpys_bit_for_bit():
    gen = np.random.default_rng(3)
    for n in (1, 7, 8, 129, 1000, 40_003):
        values = gen.standard_normal(n) * 10.0 ** gen.integers(-8, 8, n)
        cuts = np.unique(np.concatenate(([0, n], gen.integers(0, n, 6))))
        ranges = [(0, n), (n // 3, n - n // 3), (n - 1, 1)]
        sums = _PairwiseSums()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = _PairwiseSums()
            part.add("x", values[lo:hi], int(lo), ranges)
            sums.merge(part)
        for start, size in ranges:
            if size:
                assert sums.total("x", start, size) == np.add.reduce(values[start : start + size])


def test_gap_statistics_memory_stays_at_one_block():
    # the full arrays of 10^6 paths x 6 time indices are 2 x 48 MB
    arch = ArchSpec(euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 5))
    specs = [NoiseSpec.truncated(TruncatedLaw.centered(Normal(0, 1), -2.0))] * 5
    tracemalloc.start()
    try:
        coupled_gap_statistics(arch, specs, Uniform(0.9, 1.1), 1_000_000, seed=59)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_streamed_statistics_need_two_paths():
    arch = ArchSpec([theta_constant(0.5)])
    specs = [NoiseSpec.truncated(TRUNC15)]
    with pytest.raises(DomainError):
        coupled_gap_statistics(arch, specs, 0.0, 1, seed=61)
    with pytest.raises(DomainError):
        domination_test(arch, specs, 0.0, ConvexTestBattery.random_max_affine(2, count=2), 1, seed=61)
    with pytest.raises(DomainError):
        batch_standard_error(np.ones(1))
