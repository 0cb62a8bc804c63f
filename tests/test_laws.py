import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from martquant.errors import DimensionMismatch, DomainError
from martquant.laws import (
    DiscreteDistribution,
    Exponential,
    Normal,
    PowerDensity2x,
    TruncatedLaw,
    Uniform,
    law_from_json,
)
from martquant.rng import make_generator

ALL_LAWS = [
    Uniform(0.0, 1.0),
    Uniform(-1.5, 2.0),
    Normal(0.0, 1.0),
    Normal(0.4, 2.5),
    Exponential(1.3),
    PowerDensity2x(),
    DiscreteDistribution([-1.0, 0.25, 2.0], [0.3, 0.5, 0.2]),
    # given unsorted: F, K, M and the quantile run over the sorted atoms
    DiscreteDistribution([1.5, -0.5, 3.0, 0.0], [0.1, 0.4, 0.2, 0.3]),
    DiscreteDistribution([0.7], [1.0]),
]


def test_cdf_examples():
    assert Uniform(0, 1).cdf(0.5) == 0.5
    assert PowerDensity2x().cdf(0.5) == 0.25  # integral of 2x over [0, 0.5]
    assert Normal().cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_partial_moment_examples():
    assert Uniform(0, 1).partial_moment(1.0) == pytest.approx(0.5, abs=1e-15)
    assert Uniform(0, 1).partial_moment(0.5) == pytest.approx(0.125, abs=1e-15)
    # oracle: quadrature of z phi(z) on (-inf, 0]
    oracle = quad(lambda z: z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), -40, 0)[0]
    assert Normal().partial_moment(0.0) == pytest.approx(oracle, abs=1e-12)
    assert Normal().partial_moment(0.0) == pytest.approx(-1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_normal_partial_moment_identity_against_quadrature():
    law = Normal(0.7, 1.9)
    for z in (-2.0, 0.0, 0.7, 3.1):
        oracle = quad(
            lambda t: t * math.exp(-((t - 0.7) ** 2) / (2 * 1.9 ** 2))
            / (1.9 * math.sqrt(2 * math.pi)),
            0.7 - 40 * 1.9,
            z,
        )[0]
        assert law.partial_moment(z) == pytest.approx(oracle, abs=1e-10)


def test_quantile_examples():
    assert Uniform(0, 1).quantile(0.3) == pytest.approx(0.3, abs=1e-15)
    assert PowerDensity2x().quantile(0.25) == pytest.approx(0.5, abs=1e-15)
    # left-continuous convention on atoms
    assert DiscreteDistribution([0.0, 1.0], [0.5, 0.5]).quantile(0.5) == 0.0


def test_standard_normal_quantile_is_ndtri_bit_for_bit():
    from scipy.special import ndtri

    u = np.array([0.5, 1e-300, 2.0 ** -53, 1.0 - 2.0 ** -53])
    want = 0.0 + 1.0 * ndtri(u)
    got = Normal(0, 1).quantile(u)
    assert got.tobytes() == want.tobytes()
    assert [Normal(0, 1).quantile(float(v)) for v in u] == list(want)


def test_quantile_domain_error():
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile(0.0)
    with pytest.raises(DomainError):
        Normal().quantile(1.0)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l.support))
def test_cdf_limits_and_mean(law):
    assert law.cdf(-np.inf) == 0.0
    assert law.cdf(np.inf) == 1.0
    assert law.partial_moment(-np.inf) == 0.0
    assert law.partial_moment(np.inf) == pytest.approx(law.mean, abs=1e-12)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__ + repr(l.support))
def test_mean_value_bracketing(law):
    zs = np.linspace(law.quantile(1e-9) - 0.5, law.quantile(1 - 1e-9) + 0.5, 37)
    for z1, z2 in zip(zs[:-1], zs[1:]):
        f1, f2 = law.cdf(z1), law.cdf(z2)
        dk = law.partial_moment(z2) - law.partial_moment(z1)
        dm = law.partial_second_moment(z2) - law.partial_second_moment(z1)
        assert f1 <= f2 + 1e-15
        assert dk >= z1 * (f2 - f1) - 1e-12
        assert dk <= z2 * (f2 - f1) + 1e-12
        # t^2 on (z1, z2] lies between 0 (or the smaller square) and the larger
        low = 0.0 if z1 < 0.0 < z2 else min(z1 * z1, z2 * z2)
        assert dm >= low * (f2 - f1) - 1e-12
        assert dm <= max(z1 * z1, z2 * z2) * (f2 - f1) + 1e-12


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=60, deadline=None)
def test_quantile_cdf_identity_uniform_normal(u):
    for law in (Uniform(-1, 3), Normal(0.3, 0.8), Exponential(2.0), PowerDensity2x()):
        q = law.quantile(u)
        assert law.cdf(q) == pytest.approx(u, abs=1e-12)


def test_quantile_cdf_identity_grid():
    law = Normal(0.0, 1.0)
    us = (np.arange(100) + 0.5) / 100
    qs = np.asarray(law.quantile(us))
    assert np.allclose(law.cdf(qs), us, atol=1e-12)


def test_pointmass_sample():
    law = DiscreteDistribution([2.0], [1.0])
    assert np.all(law.draw(make_generator(99), 3) == 2.0)
    assert law.cdf(2.0) == 1.0 and law.cdf_left(2.0) == 0.0


def test_discrete_distribution_sorts_its_atoms_once_and_is_a_law_only_in_1d():
    unsorted = DiscreteDistribution([1.5, -0.5, 3.0, 0.0], [0.1, 0.4, 0.2, 0.3])
    srt = DiscreteDistribution([-0.5, 0.0, 1.5, 3.0], [0.4, 0.3, 0.1, 0.2])
    assert unsorted.points_1d.tolist() == [1.5, -0.5, 3.0, 0.0]  # the order given
    z = np.linspace(-1.0, 3.5, 19)
    for name in ("cdf", "cdf_left", "partial_moment", "partial_second_moment"):
        assert getattr(unsorted, name)(z).tobytes() == getattr(srt, name)(z).tobytes()
    u = (np.arange(40) + 0.5) / 40
    assert unsorted.quantile(u).tobytes() == srt.quantile(u).tobytes()
    assert unsorted.support == (-0.5, 3.0)
    assert [a.tolist() for a in unsorted.atoms()] == [a.tolist() for a in srt.atoms()]
    assert isinstance(unsorted.mean, float) and unsorted.mean == pytest.approx(0.55, abs=1e-15)
    plane = DiscreteDistribution([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
    assert plane.mean.tolist() == [0.5, 0.5] and plane.second_moment == 1.0
    for use in (lambda: plane.cdf(0.0), lambda: plane.quantile(0.5), lambda: plane.support,
                plane.atoms, lambda: plane.draw(make_generator(1), 3)):
        with pytest.raises(DimensionMismatch):
            use()


def test_sampler_reproducible_and_clt():
    law = Uniform(0, 1)
    s1 = law.draw(make_generator(1), 100_000)
    s2 = law.draw(make_generator(1), 100_000)
    assert np.array_equal(s1, s2)
    # CLT oracle: 3 sigma / sqrt(n) with sigma = 1/sqrt(12)
    assert abs(s1.mean() - 0.5) < 3.0 / math.sqrt(12.0) / math.sqrt(100_000)
    assert abs(s1.mean() - 0.5) < 0.01


@pytest.mark.parametrize(
    "law",
    [
        Uniform(-1.5, 2.0),
        DiscreteDistribution([-1.0, 0.25, 2.0], [0.3, 0.5, 0.2]),
    ],
    ids=["uniform", "atoms"],
)
def test_default_draw_is_the_inverse_transform_bit_for_bit(law):
    # x0 laws and noise without a normal base keep their draws
    got = law.draw(make_generator(11, 3), 1_000)
    want = law.quantile(np.maximum(make_generator(11, 3).random(1_000), 1e-300))
    assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("base", [Normal(0.0, 1.0), Uniform(-1.0, 1.0)], ids=["normal", "uniform"])
def test_truncated_draw_is_its_sample_bit_for_bit(base):
    t = TruncatedLaw.centered(base, -0.5)
    z = base.draw(make_generator(5, 3), 1_000)
    want = z * ((z >= t.alpha) & (z <= t.beta))
    assert t.draw(make_generator(5, 3), 1_000).tobytes() == want.tobytes()


def test_normal_draw_is_numpys_standard_normal():
    want = make_generator(12, 4).standard_normal(1_000)
    assert Normal(0.0, 1.0).draw(make_generator(12, 4), 1_000).tobytes() == want.tobytes()
    shifted = Normal(0.4, 2.5).draw(make_generator(12, 4), 1_000)
    assert shifted.tobytes() == (0.4 + 2.5 * want).tobytes()


@pytest.mark.parametrize(
    "law",
    [
        Normal(0.0, 1.0),
        Normal(0.4, 2.5),
        Uniform(-1.5, 2.0),
        TruncatedLaw.centered(Normal(0.0, 1.0), -1.5),
        DiscreteDistribution([-1.0, 0.25, 2.0], [0.3, 0.5, 0.2]),
    ],
    ids=["standard_normal", "shifted_normal", "uniform", "truncated", "atoms"],
)
def test_a_draw_into_out_is_the_allocating_draw(law):
    # the coupled Monte Carlo draws each step into a work array; the bits,
    # and where the draw leaves the stream, must not change
    gen, fresh = make_generator(17, 2), make_generator(17, 2)
    buf = np.full(1_000, np.nan)
    assert law.draw(gen, 1_000, out=buf) is buf
    assert buf.tobytes() == law.draw(fresh, 1_000).tobytes()
    assert law.draw(gen, 300).tobytes() == law.draw(fresh, 300).tobytes()


def test_normal_draws_do_not_depend_on_how_a_stream_is_sliced():
    pieces = (1, 127, 16_384, 7, 3)
    gen = make_generator(13, 5)
    sliced = np.concatenate([Normal().draw(gen, m) for m in pieces])
    assert sliced.tobytes() == Normal().draw(make_generator(13, 5), sum(pieces)).tobytes()


def test_uniform_draws_do_not_depend_on_how_a_stream_is_sliced():
    # x0 laws drawn by the inverse transform and the split uniforms of the
    # dual projection take their stream in chunks too
    pieces = (1, 127, 16_384, 7, 3)
    gen = make_generator(13, 5)
    sliced = np.concatenate([gen.random(m) for m in pieces])
    assert sliced.tobytes() == make_generator(13, 5).random(sum(pieces)).tobytes()


def test_same_seed_and_stream_give_the_same_bytes():
    for seed, stream in [(0, 0), (7, 3), (2**40, 12_345)]:
        a, b = make_generator(seed, stream), make_generator(seed, stream)
        assert a.random(1_000).tobytes() == b.random(1_000).tobytes()
        assert a.standard_normal(1_000).tobytes() == b.standard_normal(1_000).tobytes()


def test_different_streams_give_different_values():
    draws = [make_generator(seed, stream).random(64) for seed in (0, 1) for stream in (0, 1, 2)]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.any(draws[i] == draws[j])


def test_generator_rejects_negative_seed_or_stream():
    with pytest.raises(ValueError):
        make_generator(-1)
    with pytest.raises(ValueError):
        make_generator(0, -1)


@pytest.mark.parametrize("law", [Normal(0.0, 1.0), Normal(0.4, 2.5)], ids=["standard", "shifted"])
def test_normal_draws_pass_a_ks_test(law):
    from scipy.stats import kstest

    z = law.draw(make_generator(14, 0), 100_000)
    assert kstest(z, law.cdf).pvalue > 1e-3


def test_truncation_centering_auto_beta():
    t = TruncatedLaw.centered(Normal(0, 1), -3.0)
    assert t.beta == 3.0  # symmetric shortcut
    assert abs(t.centering_residual) < 1e-10


def test_truncation_centering_root_solver():
    base = Normal(0.3, 1.0)  # asymmetric: beta must be solved for
    t = TruncatedLaw.centered(base, -1.0)
    assert t.beta != 1.0
    assert abs(t.centering_residual) < 1e-10
    oracle = quad(
        lambda z: z * math.exp(-((z - 0.3) ** 2) / 2) / math.sqrt(2 * math.pi),
        -1.0,
        t.beta,
    )[0]
    assert abs(oracle) < 1e-9


def test_truncation_centering_impossible_on_atoms():
    # the partial moment jumps over the target: no interval can center
    base = DiscreteDistribution([-2.0, -0.5, 1.0, 3.0], [0.2, 0.3, 0.3, 0.2])
    with pytest.raises(DomainError):
        TruncatedLaw.centered(base, -1.0)


def test_truncation_impossible_raises():
    with pytest.raises(DomainError):
        TruncatedLaw.centered(Exponential(1.0), -1.0)


def test_truncated_law_shape():
    t = TruncatedLaw.centered(Normal(), -1.0, 1.0)
    # atom at zero carries the clipped mass
    clipped = 1.0 - (Normal().cdf(1.0) - Normal().cdf(-1.0))
    assert t.clipped_mass == pytest.approx(clipped, abs=1e-15)
    assert t.cdf(0.0) - t.cdf_left(0.0) == pytest.approx(clipped, abs=1e-12)
    assert t.cdf(1.0) == 1.0
    assert t.cdf(-1.0 - 1e-12) == 0.0
    assert t.mean == 0.0
    oracle = quad(
        lambda z: z * z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), -1, 1
    )[0]
    assert t.second_moment == pytest.approx(oracle, abs=1e-10)
    # sampling clips the same draws
    z = Normal().draw(make_generator(3), 5000)
    zb = t.draw(make_generator(3), 5000)
    assert np.array_equal(zb, z * ((z >= -1) & (z <= 1)))


def test_truncated_quantile():
    t = TruncatedLaw.centered(Normal(), -1.0, 1.0)
    for u in (0.05, 0.2, 0.5, 0.8, 0.95):
        q = t.quantile(u)
        assert t.cdf(q) >= u - 1e-12
        assert t.cdf_left(q) <= u + 1e-12


def test_finite_atoms_validation():
    with pytest.raises(DomainError):
        DiscreteDistribution([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        DiscreteDistribution([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(DomainError):
        DiscreteDistribution([0.0, 1.0], [-0.1, 1.1])


def test_law_from_json():
    law = law_from_json({"kind": "normal", "mean": 0, "sd": 1})
    assert isinstance(law, Normal)
    t = law_from_json(
        {"kind": "normal", "mean": 0, "sd": 1, "truncation": {"alpha": -3, "beta": "auto"}}
    )
    assert isinstance(t, TruncatedLaw) and t.beta == 3.0
    u = law_from_json("uniform01")
    assert isinstance(u, Uniform) and u.support == (0.0, 1.0)
    f = law_from_json({"kind": "atoms", "points": [0, 1], "weights": [0.5, 0.5]})
    assert isinstance(f, DiscreteDistribution)
    with pytest.raises(DomainError):
        law_from_json({"kind": "mystery"})


def test_standard_normal_skips_its_affine_map_bit_for_bit():
    from scipy.special import ndtr

    tiny = np.nextafter(0.0, 1.0)
    z = np.array(
        [-0.0, 0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 2.2250738585072014e-308 / 3, -1.5, 38.0]
    )
    law = Normal(0.0, 1.0)
    general = (z - 0.0) / 1.0
    assert law._std(z).tobytes() == general.tobytes()
    assert np.asarray(law.cdf(z)).tobytes() == ndtr(general).tobytes()
    assert law.cdf(-0.0) == ndtr(-0.0)
    # any other location or scale still goes through the map
    shifted = Normal(0.0, 2.0)
    assert np.asarray(shifted.cdf(z)).tobytes() == ndtr((z - 0.0) / 2.0).tobytes()


@pytest.mark.parametrize(
    "law",
    [
        Uniform(-1.5, 2.0),
        DiscreteDistribution([-1.0, 0.25, 2.0], [0.3, 0.5, 0.2]),
        TruncatedLaw.centered(Normal(0.0, 1.0), -1.5),
    ],
    ids=["uniform", "atoms", "truncated"],
)
def test_default_cdf_moment_left_batch_is_the_three_methods_bit_for_bit(law):
    lo, hi = law.support
    z = np.concatenate(([lo - 1.0, lo, hi, hi + 1.0, 0.0, 0.25], np.linspace(lo, hi, 17)))
    f, k, f_left = law.cdf_moment_left_batch(z)
    assert f.tobytes() == np.asarray(law.cdf(z)).tobytes()
    assert k.tobytes() == np.asarray(law.partial_moment(z)).tobytes()
    assert f_left.tobytes() == np.asarray(law.cdf_left(z)).tobytes()


def test_truncated_second_moment_is_the_closed_form():
    n = Normal()
    t = TruncatedLaw.centered(n, -2.0)
    # M(beta) - M(alpha-) of the base: no quadrature, nothing to cache
    assert t.second_moment == n.partial_second_moment(2.0) - n.partial_second_moment(-2.0)
    oracle = quad(lambda z: z * z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), -2, 2)[0]
    assert t.second_moment == pytest.approx(oracle, rel=1e-15)
    # an atomic base keeps its atoms at the truncation ends
    atoms = DiscreteDistribution([-3.0, -1.0, 0.0, 1.0, 3.0], [0.1, 0.2, 0.4, 0.2, 0.1])
    assert TruncatedLaw.centered(atoms, -1.0).second_moment == pytest.approx(0.4, abs=1e-15)


def test_truncated_constants_are_computed_once(monkeypatch):
    t = TruncatedLaw.centered(Normal(), -2.0)  # checks K(beta) - K(alpha-)
    calls = []
    for name in ("cdf", "cdf_left", "partial_moment", "partial_second_moment"):
        real = getattr(Normal, name)

        def counting(self, z, real=real, name=name):
            calls.append(name)
            return real(self, z)

        monkeypatch.setattr(Normal, name, counting)
    names = ("base_f_alpha_left", "base_k_alpha_left", "base_m_alpha_left", "clipped_mass")
    values = tuple(getattr(t, name) for name in names)
    # K(alpha-) was cached by the centering check; F(alpha-) of a continuous
    # law goes through its F, and M(alpha-) = M(alpha) - alpha^2 (F - F(-))
    assert calls == ["cdf_left", "cdf", "cdf", "partial_second_moment", "cdf"]
    assert tuple(getattr(t, name) for name in names) == values
    assert len(calls) == 5
    # each closed form then evaluates the base once
    calls.clear()
    t.cdf(0.5), t.cdf_left(0.5), t.partial_moment(0.5), t.partial_second_moment(0.5)
    assert calls == ["cdf", "cdf_left", "cdf", "partial_moment", "partial_second_moment"]
    # the cached values are the closed forms, bit for bit; a continuous base
    # has K(alpha-) = K(alpha) and M(alpha-) = M(alpha)
    n = Normal()
    assert values[0] == n.cdf_left(-2.0)
    assert values[1] == n.partial_moment(-2.0)
    assert values[2] == n.partial_second_moment(-2.0)
    assert values[3] == 1.0 - n.cdf(2.0) + n.cdf_left(-2.0)


def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


_ATOMS = DiscreteDistribution([-3.0, -1.0, 0.0, 1.0, 3.0], [0.1, 0.2, 0.4, 0.2, 0.1])

# (law, density or None, interval carrying the density, atoms, masses)
_M_CASES = [
    (law_from_json({"kind": "uniform", "a": -1, "b": 2}), lambda t: 1 / 3, (-1, 2), [], []),
    (
        law_from_json({"kind": "normal", "mean": 0.4, "sd": 2.5}),
        lambda t: _phi((t - 0.4) / 2.5) / 2.5,
        (-np.inf, np.inf),
        [],
        [],
    ),
    (law_from_json("normal01"), _phi, (-np.inf, np.inf), [], []),
    (
        law_from_json({"kind": "exponential", "rate": 1.3}),
        lambda t: 1.3 * math.exp(-1.3 * t),
        (0, np.inf),
        [],
        [],
    ),
    (law_from_json({"kind": "power2x"}), lambda t: 2 * t, (0, 1), [], []),
    (law_from_json({"kind": "pointmass", "x": 2}), None, None, [2.0], [1.0]),
    (
        law_from_json({"kind": "atoms", "points": [-1, 0.25, 2], "weights": [0.3, 0.5, 0.2]}),
        None,
        None,
        [-1.0, 0.25, 2.0],
        [0.3, 0.5, 0.2],
    ),
    (_ATOMS, None, None, list(_ATOMS.points_1d), list(_ATOMS.weights)),
    (
        law_from_json({"kind": "normal", "truncation": {"alpha": -2}}),
        _phi,
        (-2, 2),
        [0.0],
        [2 * Normal().cdf(-2.0)],
    ),
    # the base atoms at the ends -1 and 1 are kept, the clipped ones join 0
    (TruncatedLaw.centered(_ATOMS, -1.0), None, None, [-1.0, 0.0, 1.0], [0.2, 0.6, 0.2]),
]


@pytest.mark.parametrize(
    "law, density, interval, atoms, masses",
    _M_CASES,
    ids=["uniform", "normal", "normal01", "exponential", "power2x", "pointmass", "atoms",
         "atoms-symmetric", "truncated-normal", "truncated-atoms"],
)
def test_partial_second_moment_against_quadrature(law, density, interval, atoms, masses):
    """M(z) = E[X^2 1{X <= z}] against quad over the density plus the
    atoms at or below z; right-continuous at the atoms, finite at +-inf."""

    def oracle(z):
        val = math.fsum(w * x * x for x, w in zip(atoms, masses) if x <= z)
        if density is not None and z > interval[0]:
            top = min(z, interval[1])
            val += quad(lambda t: t * t * density(t), interval[0], top, epsabs=1e-15, limit=200)[0]
        return val

    # the law's own atoms are the oracle's, a base atom at 0 merged into the clipped one
    points, weights = law.atoms()
    order = np.argsort(points)
    assert points[order] == pytest.approx(atoms, abs=0)
    assert weights[order] == pytest.approx(masses, abs=1e-15)
    assert law.partial_second_moment(-np.inf) == 0.0
    assert law.partial_second_moment(np.inf) == pytest.approx(law.second_moment, rel=1e-14)
    assert law.partial_second_moment(np.inf) == pytest.approx(oracle(np.inf), abs=1e-12)
    zs = [-4.0, -2.0, -0.7, 0.0, 0.3, 1.0, 1.7, 2.0, 5.0]
    for x in atoms:  # exactly at each atom and just below it
        zs += [x, float(np.nextafter(x, -np.inf))]
    for z in zs:
        assert law.partial_second_moment(z) == pytest.approx(oracle(z), abs=1e-12), z
    batch = law.partial_second_moment(np.array(zs))
    assert batch == pytest.approx([law.partial_second_moment(z) for z in zs], rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Normal(0.0, math.nan),
        lambda: Normal(math.nan, 1.0),
        lambda: Normal(0.0, math.inf),
        lambda: Uniform(0.0, math.inf),
        lambda: Exponential(math.nan),
        lambda: Exponential(math.inf),
        lambda: TruncatedLaw(Normal(), -math.inf, math.inf),
        lambda: law_from_json({"kind": "pointmass", "x": math.nan}),
    ],
    ids=["normal-sd-nan", "normal-mean-nan", "normal-sd-inf", "uniform-b-inf",
         "exponential-nan", "exponential-inf", "truncation-inf", "pointmass-nan"],
)
def test_law_parameters_must_be_finite(make):
    with pytest.raises(DomainError, match="finite"):
        make()


@pytest.mark.parametrize(
    "points, weights",
    [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([-math.inf, 0.0], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [math.inf, 1.0]),
    ],
    ids=["nan-point", "inf-point", "minus-inf-point", "nan-weight", "inf-weight"],
)
def test_finite_atoms_reject_non_finite_points_and_weights(points, weights):
    with pytest.raises(DomainError, match="finite"):
        DiscreteDistribution(points, weights)
