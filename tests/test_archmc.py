import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from martquant import archmc
from martquant.archmc import (
    batch_standard_error,
    coupled_gap_statistics,
    gaussian_tail_bound,
    quantized_innovation_bound,
    select_truncation,
    simulate_coupled,
    theta_norm_envelope,
    truncation_error_bound,
)
from martquant.chain import (
    ArchSpec,
    NoiseSpec,
    ThetaFn,
    build_chain,
    euler_thetas,
    theta_affine_abs,
    theta_constant,
)
from martquant.errors import DomainError
from martquant.laws import DiscreteDistribution, Normal, TruncatedLaw, Uniform
from martquant.order import convex_order_check, path_max_call
from martquant.rng import make_generator

from oracles import chain_marginals, domination_rows, random_max_affine, replay_coupled

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


def test_steps_never_write_over_what_a_coefficient_returns():
    # a coefficient may return its argument, a view of a stored array or
    # a scalar, and the paths must still be x + theta(x) z
    n = 1_000
    stored = np.full(n, 0.3)
    cases = [
        (ThetaFn(lambda x: x, 1.0, 1.0), ThetaFn(lambda x: x * 1.0, 1.0, 1.0)),
        (ThetaFn(lambda x: stored[: x.size], 0.0, 0.09), theta_constant(0.3)),
        (ThetaFn(lambda x: 0.3, 0.0, 0.09), theta_constant(0.3)),
    ]
    specs = [NoiseSpec.truncated(TRUNC15)] * 3
    for theta, fresh in cases:
        got = simulate_coupled(ArchSpec([theta] * 3), specs, Uniform(0.5, 1.5), n, seed=4)
        want = simulate_coupled(ArchSpec([fresh] * 3), specs, Uniform(0.5, 1.5), n, seed=4)
        assert got.exact.tobytes() == want.exact.tobytes()
        assert got.approx.tobytes() == want.approx.tobytes()
    assert np.all(stored == 0.3)


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
        [0.1] * 4, [0.2] * 4, 1, 1.0, 0.0, [0.0] * 4
    )
    assert np.allclose(refined, 0.0)
    assert np.allclose(product, 0.0)


def test_truncation_bound_one_step_equality_configuration():
    """Constant theta, deterministic start at 0: the bound is an identity."""
    c0 = 0.7
    t1 = TruncatedLaw.centered(Normal(0, 1), -1.0)
    gap = Normal(0, 1).second_moment - t1.second_moment
    refined, product = truncation_error_bound([0.0], [c0 * c0], 1, 0.0, 0.0, [gap])
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
        1,
        1.0,
        0.0,
        [gap] * n,
    )
    big_c = max(h * base.lipschitz ** 2, h * base.c_envelope)
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


def test_a_truncated_finite_noise_keeps_its_zero_outside_projection():
    """The noise of five atoms truncated at alpha = -1 steps the atoms {-1,
    0, 1}; a base draw outside [-1, 1] projects to 0, as for any
    truncation, and not to the nearest of those atoms."""
    atoms = DiscreteDistribution([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1])
    spec = NoiseSpec.truncated(TruncatedLaw.centered(atoms, -1.0))
    assert sorted(spec.finite.points_1d.tolist()) == [-1.0, 0.0, 1.0]
    z = spec.base.draw(make_generator(5), 1000)
    approx = archmc._project_noise(z, spec)
    assert set(z.tolist()) == {-2.0, -1.0, 0.0, 1.0, 2.0}
    assert approx.tolist() == np.where(np.abs(z) > 1.0, 0.0, z).tolist()


def test_atoms_given_in_any_order_project_draws_to_the_nearest():
    spec = NoiseSpec(DiscreteDistribution([1.0, -1.0], [0.5, 0.5]), base=Normal(0, 1))
    z = np.array([-2.0, -0.9, 0.0, 0.9, 2.0])
    assert archmc._project_noise(z, spec).tolist() == [-1.0, -1.0, -1.0, 1.0, 1.0]


def test_noise_orthogonality_identities():
    # truncation: (Z - Zb) Zb = 0 pointwise
    z = Normal(0, 1).draw(make_generator(21), 50_000)
    zb = z * ((z >= -1.5) & (z <= 1.5))
    assert np.max(np.abs((z - zb) * zb)) == 0.0
    # stationary quantization: E[(Z - Zhat) Zhat] = 0 through the closed forms
    spec = NoiseSpec.quantized_from(Normal(0, 1), 7)
    atoms = spec.law.points_1d
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
    assert abs(clipped.mean) < 1e-12
    assert convex_order_check(clipped, base).dominated


def test_domination_statistical():
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    battery = [path_max_call(4, k) for k in (0.8, 1.0, 1.2)] + random_max_affine(4, count=5, seed=2)
    s = simulate_coupled(arch, [NoiseSpec.truncated(TRUNC15)] * 3, 1.0, 150_000, seed=23)
    assert all(passed for _, _, passed in domination_rows(s.exact, s.approx, battery))


def test_domination_equality_when_no_clipping():
    huge = TruncatedLaw.centered(Normal(0, 1), -1e9)
    arch = ArchSpec([theta_constant(0.5)] * 2)
    battery = random_max_affine(3, count=4, seed=3)
    s = simulate_coupled(arch, [NoiseSpec.truncated(huge)] * 2, 0.0, 50_000, seed=25)
    for mean_gap, _, _ in domination_rows(s.exact, s.approx, battery):
        assert mean_gap == 0.0


def _summed_bounds(lip, env, gap, tns, dd, q, x0_norm_sq, x0_gap_sq):
    """The bounds as the paper displays them: each step's error times the
    growth of every later step, summed explicitly over the steps."""
    growth, n = 1.0 + q * lip ** 2, lip.size
    big_c = np.maximum(q * lip ** 2, env)
    refined, product, quantized = (np.empty(n + 1) for _ in range(3))
    for k in range(n + 1):
        lead = x0_gap_sq * np.prod(growth[:k])
        refined[k] = lead + sum(
            (1.0 + x0_norm_sq)
            * np.prod(growth[el + 1 : k])
            * np.prod(1.0 + env[:el])
            * env[el]
            * gap[el]
            for el in range(k)
        )
        product[k] = lead + (1.0 + x0_norm_sq) * np.prod(1.0 + big_c[:k]) * np.sum(
            env[:k] * gap[:k]
        )
        quantized[k] = lead + sum(
            np.prod(growth[el:k]) * (tns[el - 1] * gap[el - 1] + dd[el - 1])
            for el in range(1, k + 1)
        )
    moments = [np.prod(1.0 + env[:k]) * (x0_norm_sq + 1.0) - 1.0 for k in range(n)]
    envelope = env * (1.0 + np.array(moments))
    return np.sqrt(refined), np.sqrt(product), np.sqrt(quantized), envelope


@pytest.mark.parametrize("x0_gap_sq", [0.0, 0.3])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_bound_recursions_equal_their_explicit_sums(n, q, x0_gap_sq):
    gen = make_generator(1000 * n + 10 * q + int(10 * x0_gap_sq))
    lip, env, gap, tns, dd = (gen.uniform(0.0, hi, n) for hi in (1.5, 1.0, 0.5, 2.0, 0.1))
    x0_norm_sq = 1.3
    refined, product = truncation_error_bound(lip, env, q, x0_norm_sq, x0_gap_sq, gap)
    quantized = quantized_innovation_bound(lip, tns, gap, dd, q, x0_gap_sq)
    envelope = theta_norm_envelope([ThetaFn(None, 0.0, c) for c in env], x0_norm_sq)
    got = (refined, product, quantized, envelope)
    for value, oracle in zip(got, _summed_bounds(lip, env, gap, tns, dd, q, x0_norm_sq, x0_gap_sq)):
        assert value.shape == oracle.shape
        np.testing.assert_allclose(value, oracle, rtol=1e-13, atol=0.0)


def test_quantized_innovation_bound_zero_and_pythagoras():
    assert np.allclose(
        quantized_innovation_bound([0.2], [1.0], [0.0], [0.0], 1, 0.0), 0.0
    )
    # one step, constant theta, exact start: orthogonal decomposition
    c0 = 0.8
    spec = NoiseSpec.quantized_from(Normal(0, 1), 9)
    arch = ArchSpec([theta_constant(c0)])
    chain = build_chain(arch, [spec], DiscreteDistribution([0.0], [1.0]), [1, 15])
    gap_sq = Normal(0, 1).second_moment - spec.law.second_moment
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
    x0 = DiscreteDistribution([0.0], [1.0])
    chain = build_chain(arch, [spec] * 2, x0, [1, 9, 9])
    sample = simulate_coupled(arch, [spec] * 2, x0, 300_000, seed=33, chain=chain)
    mc = chain_marginals(sample, chain)
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


def _fsum_gap_oracle(sample):
    """The gap statistics as the streamed reduction forms them: one
    ``np.add.reduce`` per chunk of ``_map_blocks``, combined by
    ``math.fsum`` over the whole run and over each of 30 batches."""
    n = sample.n_paths
    edges = sorted({e for _, block in archmc._map_blocks(lambda b: b, n, 1) for e in block})
    batches = np.cumsum([0] + [b.size for b in np.array_split(np.empty(n), 30)])

    def mean_and_se(values):
        parts = [(a, np.add.reduce(values[a:b])) for a, b in zip(edges[:-1], edges[1:])]

        def mean(lo, hi):
            return math.fsum(v for a, v in parts if lo <= a < hi) / (hi - lo)

        means = np.array([mean(lo, hi) for lo, hi in zip(batches[:-1], batches[1:]) if hi > lo])
        return mean(0, n), float(means.std(ddof=1) / math.sqrt(means.size))

    stats = [mean_and_se((sample.exact[k] - sample.approx[k]) ** 2) for k in range(sample.n_steps + 1)]
    sup_sq = np.abs(sample.exact - sample.approx).max(axis=0) ** 2
    return (
        np.array([math.sqrt(m) for m, _ in stats]),
        np.array([se for _, se in stats]),
        math.sqrt(mean_and_se(sup_sq)[0]),
    )


@_NOISES
def test_streamed_gap_statistics_match_the_full_arrays(make_spec):
    spec = make_spec()
    # the atoms-only step rides the atoms on both paths; the other steps
    # open a gap for it to carry
    specs = [NoiseSpec.truncated(TRUNC15), spec, spec]
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    x0 = Uniform(0.9, 1.1)
    sample = simulate_coupled(arch, specs, x0, RAGGED_PATHS, seed=43)
    summed = _fsum_gap_oracle(sample)
    formulas = _gap_oracle(sample)
    del sample
    stats = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43)
    # the streamed statistics are math.fsum of one np.add.reduce per chunk,
    # bit for bit
    assert np.array_equal(stats.empirical, summed[0])
    assert np.array_equal(stats.standard_error, summed[1])
    assert stats.doob_empirical == summed[2]
    # and the formulas on the full arrays to rounding
    empirical, ses, doob = formulas
    np.testing.assert_allclose(stats.empirical, empirical, rtol=1e-13, atol=0)
    np.testing.assert_allclose(stats.standard_error, ses, rtol=1e-13, atol=0)
    assert stats.doob_empirical == pytest.approx(doob, rel=1e-13)
    assert stats.empirical[-1] > 0.0
    again = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43, threads=2)
    assert np.array_equal(again.empirical, stats.empirical)
    assert np.array_equal(again.standard_error, stats.standard_error)
    assert again.doob_empirical == stats.doob_empirical


def test_block_order_changes_no_bit(monkeypatch):
    # threads hand the blocks back in order, so only a patched map returns
    # them out of order; the per-chunk rows are then stacked in reverse
    specs = [NoiseSpec.truncated(TRUNC15)] * 3
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    x0 = Uniform(0.9, 1.1)
    want = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43)
    in_order = archmc._map_blocks
    reversed_blocks = []

    def reverse(fn, n_paths, threads):
        blocks = in_order(fn, n_paths, threads)[::-1]
        reversed_blocks.append(len(blocks))
        return blocks

    monkeypatch.setattr(archmc, "_map_blocks", reverse)
    got = coupled_gap_statistics(arch, specs, x0, RAGGED_PATHS, seed=43)
    assert reversed_blocks == [3]
    assert np.array_equal(got.empirical, want.empirical)
    assert np.array_equal(got.standard_error, want.standard_error)
    assert got.doob_empirical == want.doob_empirical


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _euler_gaps(n_paths):
    arch = ArchSpec(euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 5))
    specs = [NoiseSpec.truncated(TruncatedLaw.centered(Normal(0, 1), -2.0))] * 5
    return coupled_gap_statistics(arch, specs, Uniform(0.9, 1.1), n_paths, seed=59)


def test_gap_statistics_memory_stays_at_one_block():
    # the full arrays of 10^6 paths x 6 time indices are 2 x 48 MB, one
    # block of 250 000 paths about 2 MB per array, one chunk 128 KiB
    peak = _traced_peak(lambda: _euler_gaps(1_000_000))
    assert peak < 8 * 2 ** 20
    # four times the paths: only the few chunk sums kept for the end grow
    assert _traced_peak(lambda: _euler_gaps(4_000_000)) < peak + 2 ** 20


@pytest.mark.parametrize("n_paths", [2, 3, 129, 250_001, 1_000_007])
@pytest.mark.parametrize("block", [296, 4_096, archmc._BLOCK])
def test_chunks_tile_each_block(n_paths, block, monkeypatch):
    monkeypatch.setattr(archmc, "_BLOCK", block)
    batch_edges = {int(e) for e in np.cumsum([b.size for b in np.array_split(np.empty(n_paths), 30)])}
    for chunk in (1, 7, 128, archmc._CHUNK):
        monkeypatch.setattr(archmc, "_CHUNK", chunk)
        blocks = archmc._map_blocks(lambda b: b, n_paths, 1)
        assert [b for b, _ in blocks] == list(range(len(blocks)))
        seen, ends = set(), set()
        for b, edges in blocks:
            lo, hi = b * block, min((b + 1) * block, n_paths)
            sizes = np.diff(edges)
            assert edges[0] == lo and edges[-1] == hi
            assert sizes.min() >= 1 and sizes.max() <= chunk
            seen.update(edges)
            ends.update((lo, hi))
        # every batch edge and every multiple of the chunk size is an edge,
        # and apart from the block ends nothing else is: so the edges, and
        # the partition of the streamed sums, do not depend on the block size
        fixed = batch_edges | set(range(0, n_paths, chunk))
        assert fixed <= seen
        assert seen - ends == fixed - ends


# blocks of 300, 300 and 1 path with ``_BLOCK`` patched to 300
CHUNKED_PATHS = 601


def _chunked_outputs(arch, specs, x0, chain, threads):
    run = dict(n_paths=CHUNKED_PATHS, seed=67, threads=threads)
    sample = simulate_coupled(arch, specs, x0, chain=chain, **run)
    gaps = coupled_gap_statistics(arch, specs, x0, **run)
    return sample, gaps


@_NOISES
@pytest.mark.parametrize("threads", [1, 2])
def test_chunk_size_changes_no_output(make_spec, threads, monkeypatch):
    monkeypatch.setattr(archmc, "_BLOCK", 300)
    spec = make_spec()
    specs = [NoiseSpec.truncated(TRUNC15), spec, spec]
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    chain = build_chain(arch, specs, DiscreteDistribution([1.0], [1.0]), [1, 9, 9, 9])
    x0 = Uniform(0.9, 1.1)
    want = _chunked_outputs(arch, specs, x0, chain, 1)
    assert want[1].empirical[-1] > 0.0
    for chunk in (archmc._CHUNK, 1, 7, 128):
        monkeypatch.setattr(archmc, "_CHUNK", chunk)
        one = _chunked_outputs(arch, specs, x0, chain, 1)
        sample, gaps = one if threads == 1 else _chunked_outputs(arch, specs, x0, chain, threads)
        # the chunks change no draw
        assert np.array_equal(sample.exact, want[0].exact)
        assert np.array_equal(sample.approx, want[0].approx)
        assert np.array_equal(sample.dual, want[0].dual)
        # the thread count changes no bit of the statistics
        assert np.array_equal(gaps.empirical, one[1].empirical)
        assert np.array_equal(gaps.standard_error, one[1].standard_error)
        assert gaps.doob_empirical == one[1].doob_empirical
        # the chunk size sets the partition of the sums, so the statistics
        # move by rounding only
        np.testing.assert_allclose(gaps.empirical, want[1].empirical, rtol=1e-13, atol=0)
        np.testing.assert_allclose(gaps.standard_error, want[1].standard_error, rtol=1e-13, atol=0)
        assert gaps.doob_empirical == pytest.approx(want[1].doob_empirical, rel=1e-13)


@_NOISES
@pytest.mark.parametrize("threads", [1, 2])
def test_the_paths_stepped_in_place_equal_an_allocating_replay(make_spec, threads, monkeypatch):
    # each block steps its chunks in a few reused work arrays; a replay
    # with a fresh array for every state and draw catches any aliasing,
    # also with a coefficient that returns its argument
    monkeypatch.setattr(archmc, "_BLOCK", 300)
    spec = make_spec()
    specs = [NoiseSpec.truncated(TRUNC15), spec, spec]
    affine = ArchSpec([theta_affine_abs(0.3, 0.3)] * 3)
    chain = build_chain(affine, specs, DiscreteDistribution([1.0], [1.0]), [1, 9, 9, 9])
    identity = ArchSpec([ThetaFn(lambda x: x, 1.0, 1.0)] * 3)
    for arch, x0, ch in ((affine, Uniform(0.9, 1.1), chain), (identity, 1.0, None)):
        got = simulate_coupled(arch, specs, x0, CHUNKED_PATHS, seed=71, chain=ch, threads=threads)
        want = replay_coupled(arch, specs, x0, CHUNKED_PATHS, seed=71, block=300, chain=ch)
        assert got.exact.tobytes() == want.exact.tobytes()
        assert got.approx.tobytes() == want.approx.tobytes()
        assert not np.array_equal(got.exact, got.approx)
        if ch is not None:
            assert got.dual.tobytes() == want.dual.tobytes()


def test_streamed_statistics_need_two_paths():
    arch = ArchSpec([theta_constant(0.5)])
    specs = [NoiseSpec.truncated(TRUNC15)]
    with pytest.raises(DomainError):
        coupled_gap_statistics(arch, specs, 0.0, 1, seed=61)
    with pytest.raises(DomainError):
        batch_standard_error(np.ones(1))
