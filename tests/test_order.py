import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from martquant.errors import DimensionMismatch, DomainError
from martquant.laws import Exponential, Normal, PowerDensity2x, Uniform
from martquant.lp import LinearProgram, solve
from martquant.order import (
    DiscreteDistribution,
    MaxAffineFunction,
    abs_deviation,
    baker_grid,
    call_payoff,
    convex_order_check,
    coupling_lp,
    merged_atoms,
    moment_vs_wasserstein_scan,
    path_max_call,
    ramp_law_dominating_family,
    wasserstein2_1d,
)
from martquant.rng import make_generator

from oracles import random_max_affine


def _contract(nu: DiscreteDistribution, n_groups: int) -> DiscreteDistribution:
    """Conditional-expectation coarsening: guaranteed dominated by nu."""
    x, w = nu.atoms()
    groups = np.array_split(np.arange(nu.n_atoms), n_groups)
    pts = [float(np.average(x[g], weights=w[g])) for g in groups]
    ws = [float(w[g].sum()) for g in groups]
    return DiscreteDistribution(pts, ws)


def test_trivial_domination_cases():
    d0 = DiscreteDistribution([0.0], [1.0])
    pm = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    assert convex_order_check(d0, pm).dominated
    res = convex_order_check(pm, d0)
    assert res.status == "not_dominated"
    # |x| separates: E|X| = 1 under pm, 0 under delta_0
    assert res.witness_gap > 0.5
    shifted = DiscreteDistribution([0.1], [1.0])
    res2 = convex_order_check(shifted, pm)
    assert res2.status == "not_dominated"
    assert res2.witness is not None  # affine witness from the mean gap


def test_reflexive():
    mu = DiscreteDistribution([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    assert convex_order_check(mu, mu).dominated


def test_dominated_implies_moment_inequalities():
    gen = make_generator(17)
    for _ in range(5):
        m = int(gen.integers(4, 9))
        nu = DiscreteDistribution(np.sort(gen.normal(size=m)), np.full(m, 1.0 / m))
        mu = _contract(nu, 3)
        res = convex_order_check(mu, nu)
        assert res.dominated
        assert abs(mu.mean - nu.mean) < 1e-9
        assert mu.second_moment <= nu.second_moment + 1e-9


def test_witness_is_valid_separator():
    gen = make_generator(23)
    for _ in range(5):
        # unrelated distributions with matched means: usually not dominated
        a = np.sort(gen.normal(size=5))
        wa = gen.random(5)
        wa /= wa.sum()
        mu = DiscreteDistribution(a - np.average(a, weights=wa), wa)
        b = np.sort(gen.normal(size=4)) * 0.3
        wb = gen.random(4)
        wb /= wb.sum()
        nu = DiscreteDistribution(b - np.average(b, weights=wb), wb)
        res = convex_order_check(mu, nu)
        if res.status == "not_dominated":
            w = res.witness
            gap = mu.expectation(w) - nu.expectation(w)
            assert gap > 0.0
            assert gap == pytest.approx(res.witness_gap, rel=1e-9)


def test_transitivity_spot_check():
    gen = make_generator(5)
    for _ in range(4):
        m = 8
        nu = DiscreteDistribution(np.sort(gen.normal(size=m)), np.full(m, 1.0 / m))
        mid = _contract(nu, 4)
        mu = _contract(mid, 2)
        assert convex_order_check(mu, mid).dominated
        assert convex_order_check(mid, nu).dominated
        assert convex_order_check(mu, nu).dominated


def _call_price_order_oracle(mu: DiscreteDistribution, nu: DiscreteDistribution) -> bool:
    """1D oracle: with equal means, domination holds iff every call price
    E(X - k)+ is weakly larger under nu; kinks at the atoms suffice."""
    if abs(mu.mean - nu.mean) > 1e-11:
        return False
    strikes = np.concatenate([mu.points_1d, nu.points_1d])
    for k in strikes:
        a = float(mu.weights @ np.maximum(mu.points_1d - k, 0.0))
        b = float(nu.weights @ np.maximum(nu.points_1d - k, 0.0))
        if a > b + 1e-11:
            return False
    return True


def test_convex_order_check_against_call_price_oracle():
    gen = make_generator(404)
    agree = 0
    for trial in range(120):
        m = int(gen.integers(3, 9))
        pts = np.unique(np.round(gen.normal(size=m), 6))
        if pts.size < 2:
            continue
        w = gen.random(pts.size)
        w /= w.sum()
        nu = DiscreteDistribution(pts, w)
        if trial % 3 == 0:
            mu = _contract(nu, int(gen.integers(1, pts.size)))
        elif trial % 3 == 1:
            # recentered squeeze of nu: dominated iff the oracle says so
            lam = float(gen.uniform(0.5, 1.5))
            center = nu.mean
            mu = DiscreteDistribution(center + lam * (pts - center), w)
        else:
            qts = np.unique(np.round(gen.normal(size=int(gen.integers(2, 7))), 6))
            if qts.size < 2:
                continue
            v = gen.random(qts.size)
            v /= v.sum()
            shift = nu.mean - float(v @ qts)
            mu = DiscreteDistribution(qts + shift, v)
        got = convex_order_check(mu, nu).dominated
        want = _call_price_order_oracle(mu, nu)
        assert got == want, (mu.points, mu.weights, nu.points, nu.weights)
        agree += 1
    assert agree > 100  # the generator produced enough valid cases


def test_closed_form_1d_agrees_with_coupling_lp():
    gen = make_generator(818)
    outcomes = set()
    for trial in range(90):
        m = int(gen.integers(3, 10))
        pts = np.sort(gen.normal(size=m))
        w = gen.random(m)
        w /= w.sum()
        nu = DiscreteDistribution(pts, w)
        if trial % 3 == 0:
            mu = _contract(nu, int(gen.integers(1, m)))
        elif trial % 3 == 1:
            lam = float(gen.uniform(0.5, 1.5))
            mu = DiscreteDistribution(nu.mean + lam * (pts - nu.mean), w)
        else:
            qts = np.sort(gen.normal(size=int(gen.integers(2, 7))))
            v = gen.random(qts.size)
            v /= v.sum()
            mu = DiscreteDistribution(qts + nu.mean - float(v @ qts), v)
        a, b, _ = coupling_lp([mu, nu])
        feasible = solve(LinearProgram(np.zeros(a.shape[1]), a, b)).status == "optimal"
        res = convex_order_check(mu, nu)
        assert res.dominated == feasible, (mu.points, mu.weights, nu.points, nu.weights)
        if not res.dominated:
            assert res.witness_gap > 0.0
            gap = mu.expectation(res.witness) - nu.expectation(res.witness)
            assert gap == pytest.approx(res.witness_gap, rel=1e-12)
        outcomes.add(feasible)
    assert outcomes == {True, False}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convex_order_check(
            DiscreteDistribution([[0.0, 0.0]], [1.0]), DiscreteDistribution([0.0], [1.0])
        )


def test_convex_order_2d():
    mu = DiscreteDistribution([[0.0, 0.0]], [1.0])
    nu = DiscreteDistribution([[1.0, 1.0], [-1.0, -1.0]], [0.5, 0.5])
    assert convex_order_check(mu, nu).dominated
    res = convex_order_check(nu, mu)
    assert res.status == "not_dominated"
    # the Farkas witness separates, re-evaluated on both laws
    assert res.witness_gap > 0.0
    gap = nu.expectation(res.witness) - mu.expectation(res.witness)
    assert gap > 0.0
    assert gap == pytest.approx(res.witness_gap, rel=1e-12)


def _with_massless_atoms(points, weights, extra, at):
    """The law with zero-weight atoms ``extra`` inserted before indices ``at``."""
    return DiscreteDistribution(np.insert(points, at, extra, axis=0), np.insert(weights, at, 0.0))


def _massless_pair(d):
    """``mu <=_cvx nu`` in R^d, both with massless atoms between their atoms:
    ``mu``'s atoms are barycentres of ``nu``'s under a positive kernel."""
    gen = make_generator(40 + d)
    y = gen.normal(size=(7, d))
    kernel = gen.random((4, 7)) + 0.05
    kernel /= kernel.sum(axis=1, keepdims=True)
    p = gen.random(4) + 0.1
    p /= p.sum()
    mu = _with_massless_atoms(kernel @ y, p, 3.0 * gen.normal(size=(3, d)), [0, 2, 4])
    nu = _with_massless_atoms(y, p @ kernel, 3.0 * gen.normal(size=(4, d)), [1, 1, 5, 7])
    return mu, nu


def _spied_check(monkeypatch, mu, nu):
    """``convex_order_check(mu, nu)`` and the variable count of its LP."""
    import martquant.order as ordermod

    n_vars = []

    def spy(marginals):
        a, b, scales = coupling_lp(marginals)
        n_vars.append(a.shape[1])
        return a, b, scales

    with monkeypatch.context() as patch:
        patch.setattr(ordermod, "coupling_lp", spy)
        res = convex_order_check(mu, nu)
    assert n_vars == [np.count_nonzero(mu.weights) * np.count_nonzero(nu.weights)]
    # oracle: the LP on every atom, massless ones included
    a, b, _ = coupling_lp([mu, nu])
    feasible = solve(LinearProgram(np.zeros(a.shape[1]), a, b)).status == "optimal"
    assert res.dominated == feasible
    return res


@pytest.mark.parametrize("d", [2, 3])
def test_order_lp_runs_on_atoms_with_mass(monkeypatch, d):
    mu, nu = _massless_pair(d)
    assert 0 < np.count_nonzero(mu.weights) < mu.n_atoms
    assert 0 < np.count_nonzero(nu.weights) < nu.n_atoms

    res = _spied_check(monkeypatch, mu, nu)
    assert res.status == "dominated"
    plan = res.coupling
    assert plan.shape == (mu.n_atoms, nu.n_atoms)
    assert not plan[mu.weights == 0.0].any() and not plan[:, nu.weights == 0.0].any()
    assert plan.min() >= -1e-12
    assert np.abs(plan.sum(axis=1) - mu.weights).max() <= 1e-8
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-8
    assert np.abs(plan @ nu.points - mu.weights[:, None] * mu.points).max() <= 1e-8

    res = _spied_check(monkeypatch, nu, mu)
    assert res.status == "not_dominated"
    # the witness has one piece per kept atom and separates the full laws
    assert res.witness.offsets.size == np.count_nonzero(nu.weights)
    gap = nu.expectation(res.witness) - mu.expectation(res.witness)
    assert gap > 0.0
    assert gap == pytest.approx(res.witness_gap, rel=1e-12)


def _product_grid_chain_step(points, weights, noise, n):
    """One step of a 2D chain: every atom x goes to x + theta(x) z_j with
    weight 1/len(noise), and the images are split bilinearly onto the
    product of two n-point grids spanning them (a martingale kernel)."""
    x1, x2 = points[:, 0], points[:, 1]
    theta = math.sqrt(1 / 5) * np.stack(
        [
            np.stack([0.3 + 0.2 * np.abs(x1), 0.15 * x2], axis=-1),
            np.stack([0.1 + 0.1 * np.abs(x2), 0.25 + 0.1 * np.abs(x1)], axis=-1),
        ],
        axis=1,
    )
    images = (points[:, None, :] + np.einsum("aij,kj->aki", theta, noise)).reshape(-1, 2)
    image_weights = np.repeat(weights / len(noise), len(noise))
    grids, boxes, fractions = [], [], []
    for axis in range(2):
        coord = images[:, axis]
        g = np.linspace(coord.min(), coord.max(), n)
        box = np.clip(np.searchsorted(g, coord, "right") - 1, 0, n - 2)
        grids.append(g)
        boxes.append(box)
        fractions.append((coord - g[box]) / (g[box + 1] - g[box]))
    mass = np.zeros((n, n))
    for d0 in (0, 1):
        for d1 in (0, 1):
            split = (fractions[0] if d0 else 1 - fractions[0]) * (
                fractions[1] if d1 else 1 - fractions[1]
            )
            np.add.at(mass, (boxes[0] + d0, boxes[1] + d1), image_weights * split)
    keep = mass > 0
    g0, g1 = np.meshgrid(grids[0], grids[1], indexing="ij")
    return np.column_stack([g0[keep], g1[keep]]), mass[keep] / mass[keep].sum()


def test_a_2d_pair_that_presolve_misjudged_is_dominated():
    # HiGHS with presolve called this feasible coupling LP infeasible and
    # found no Farkas certificate, so the check raised DomainError
    z = np.random.default_rng(10).normal(size=(9, 2))
    z -= z.mean(0)
    z /= z.std(0)
    points, weights = np.array([[1.0, 1.0]]), np.array([1.0])
    laws = []
    for _ in range(5):
        points, weights = _product_grid_chain_step(points, weights, z, 9)
        laws.append(DiscreteDistribution(points, weights))
    mu, nu = laws[3], laws[4]
    assert (mu.n_atoms, nu.n_atoms) == (63, 67)
    res = convex_order_check(mu, nu)
    assert res.status == "dominated"
    plan = res.coupling
    assert np.abs(plan.sum(axis=1) - mu.weights).max() <= 1e-6
    assert np.abs(plan.sum(axis=0) - nu.weights).max() <= 1e-6
    assert np.abs(plan @ nu.points - mu.weights[:, None] * mu.points).max() <= 1e-6


def _dense_coupling_lp(marginals):
    """The coupling LP written row by row from its definition."""
    sizes = tuple(m.n_atoms for m in marginals)
    d = marginals[0].dim
    cells = list(np.ndindex(*sizes))
    rows, rhs, scales = [], [], []
    for k, marg in enumerate(marginals):
        for atom in range(marg.n_atoms):
            rows.append([1.0 if c[k] == atom else 0.0 for c in cells])
            rhs.append(marg.weights[atom])
    for k in range(len(marginals) - 1):
        x, y = marginals[k].points, marginals[k + 1].points
        step_scales = []
        for prefix in np.ndindex(*sizes[: k + 1]):
            members = [c for c in cells if c[: k + 1] == prefix]
            scale = [
                max(1.0, max(abs(y[c[k + 1], ax] - x[c[k], ax]) for c in members))
                for ax in range(d)
            ]
            step_scales.append(scale)
            for ax in range(d):
                row = [0.0] * len(cells)
                for c in members:
                    row[cells.index(c)] = (y[c[k + 1], ax] - x[c[k], ax]) / scale[ax]
                rows.append(row)
                rhs.append(0.0)
        scales.append(np.array(step_scales))
    return np.array(rows), np.array(rhs), scales


@pytest.mark.parametrize("dims", [(1, (3, 5)), (2, (4, 6)), (1, (2, 3, 4))])
def test_coupling_lp_matches_dense_oracle(dims):
    d, sizes = dims
    gen = make_generator(71)
    marginals = []
    for n in sizes:
        w = gen.random(n) + 0.1
        # scales on both sides of their floor of 1
        marginals.append(DiscreteDistribution(0.6 * gen.normal(size=(n, d)), w / w.sum()))
    a, b, scales = coupling_lp(marginals)
    want_a, want_b, want_scales = _dense_coupling_lp(marginals)
    np.testing.assert_array_equal(a.toarray(), want_a)
    np.testing.assert_array_equal(b, want_b)
    assert len(scales) == len(want_scales)
    for got, want in zip(scales, want_scales):
        np.testing.assert_array_equal(got, want)
    assert any((s > 1.0).any() for s in scales) and any((s == 1.0).any() for s in scales)


# ---------------------------------------------------------------------------
# Baker grids


def test_baker_uniform_atoms():
    dd = baker_grid(Uniform(0, 1), 2)
    assert np.allclose(dd.points_1d, [0.25, 0.75])
    assert np.allclose(dd.weights, [0.5, 0.5])
    for n in (3, 7):
        got = baker_grid(Uniform(0, 1), n).points_1d
        assert np.allclose(got, (2 * np.arange(1, n + 1) - 1) / (2 * n), atol=1e-12)


def test_baker_single_atom_is_mean():
    for law in (Normal(1.4, 2.0), Exponential(0.7), PowerDensity2x()):
        dd = baker_grid(law, 1)
        assert dd.points_1d[0] == pytest.approx(law.mean, abs=1e-12)


def test_baker_matches_quadrature_oracle():
    law = PowerDensity2x()
    n = 5
    dd = baker_grid(law, n)
    for i in range(n):
        oracle = n * quad(lambda u: math.sqrt(u), i / n, (i + 1) / n)[0]
        assert dd.points_1d[i] == pytest.approx(oracle, abs=1e-10)


def test_baker_mean_preserving_and_sorted():
    for law in (Normal(0.3, 1.7), Exponential(2.0), Uniform(-3, 5)):
        dd = baker_grid(law, 8)
        assert np.all(np.diff(dd.points_1d) >= 0)
        assert dd.mean == pytest.approx(law.mean, abs=1e-10)


def test_baker_point_mass_merges():
    dd = baker_grid(DiscreteDistribution([2.0], [1.0]), 4)
    assert dd.n_atoms == 1 and dd.points_1d[0] == 2.0


# ---------------------------------------------------------------------------
# Wasserstein distance


def test_wasserstein_basics():
    d0 = DiscreteDistribution([0.0], [1.0])
    d1 = DiscreteDistribution([1.0], [1.0])
    assert wasserstein2_1d(d0, d1) == pytest.approx(1.0, abs=1e-14)
    a = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    assert wasserstein2_1d(a, a) == 0.0
    b = DiscreteDistribution([0.0, 2.0], [0.5, 0.5])
    assert wasserstein2_1d(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-14)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_wasserstein_symmetry_and_positivity(seed):
    gen = make_generator(seed, stream=13)
    pts_a = np.unique(np.round(gen.normal(size=4), 6))
    wa = gen.random(pts_a.size)
    wa /= wa.sum()
    pts_b = np.unique(np.round(gen.normal(size=3), 6))
    wb = gen.random(pts_b.size)
    wb /= wb.sum()
    mu = DiscreteDistribution(pts_a, wa)
    nu = DiscreteDistribution(pts_b, wb)
    ab = wasserstein2_1d(mu, nu)
    ba = wasserstein2_1d(nu, mu)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert ab >= 0.0


def test_wasserstein_zero_iff_equal():
    mu = DiscreteDistribution([0.0, 1.0], [0.4, 0.6])
    nu = DiscreteDistribution([0.0, 1.0], [0.6, 0.4])
    assert wasserstein2_1d(mu, nu) > 0.0


# ---------------------------------------------------------------------------
# the ramp-law scan


def test_family_members_dominate_ramp_discretization():
    # the family must dominate the ramp law; check against a Baker grid
    # with the LP (both finite): family with u = 1/3
    mu = baker_grid(PowerDensity2x(), 24)
    nu = ramp_law_dominating_family(1.0 / 3.0)
    # Baker grid of mu is itself dominated by mu's law... the family
    # dominates the law, and domination of the Baker grid is the testable
    # finite statement here.
    assert convex_order_check(mu, nu).dominated


def test_family_closed_forms_match_direct_integrals():
    for u in (0.1, 1 / 3, 0.326, 0.8):
        nu = ramp_law_dominating_family(u)
        m2_direct = nu.second_moment
        su = math.sqrt(u)
        m2_closed = (2 + u ** 1.5 - su) / 3
        assert m2_direct == pytest.approx(m2_closed, abs=1e-12)


def test_family_w2_closed_form_against_quadrature():
    from martquant.order import _family_w2sq

    for u in (0.05, 1 / 3, 0.326, 0.9):
        su = math.sqrt(u)
        a1, a2 = u / 3, (1 + su + u) / 3
        direct = (
            quad(lambda v: v, 0, a1)[0]
            + quad(lambda v: (math.sqrt(v) - su) ** 2, a1, a2)[0]
            + quad(lambda v: (math.sqrt(v) - 1) ** 2, a2, 1)[0]
        )
        assert _family_w2sq(u) == pytest.approx(direct, abs=1e-10)


def test_w2_closed_form_against_discrete_wasserstein():
    # discretize the ramp law finely and compare the distances
    from martquant.order import _family_w2sq

    mu = baker_grid(PowerDensity2x(), 4000)
    for u in (0.2, 1 / 3, 0.326):
        nu = ramp_law_dominating_family(u)
        approx = wasserstein2_1d(mu, nu) ** 2
        assert approx == pytest.approx(_family_w2sq(u), abs=5e-5)


def test_scan_report_values():
    rep = moment_vs_wasserstein_scan(1e-4)
    assert rep.u_star_moment == pytest.approx(1 / 3, abs=1e-4)
    assert rep.u_star_w2 == pytest.approx(0.326, abs=2e-3)
    assert rep.derivative_sign_at_third == 1
    assert rep.u_star_w2 < rep.u_star_moment  # the two minimizers differ


def test_scan_rejects_bad_resolution():
    with pytest.raises(DomainError):
        moment_vs_wasserstein_scan(0.0)


# ---------------------------------------------------------------------------
# batteries


def test_max_affine_eval():
    fn = MaxAffineFunction([0.0, -1.0], [[1.0], [2.0]])
    assert fn(np.array([[0.0], [2.0]])) == pytest.approx([0.0, 3.0])
    # slopes are one row per offset; a flat array is not read as 1D slopes
    with pytest.raises(DomainError, match="one row per offset"):
        MaxAffineFunction([0.0, -1.0], [1.0, 2.0])


def test_battery_members_are_convex():
    battery = random_max_affine(3, count=10, seed=1)
    gen = make_generator(2)
    x = gen.normal(size=(40, 3))
    y = gen.normal(size=(40, 3))
    for lam in (0.25, 0.5, 0.75):
        mid = lam * x + (1 - lam) * y
        for fn in battery:
            assert np.all(fn(mid) <= lam * fn(x) + (1 - lam) * fn(y) + 1e-12)


def test_call_and_path_max_helpers():
    c = call_payoff(3, 1, strike=0.5)
    assert c(np.array([[0.0, 2.0, 0.0]]))[0] == pytest.approx(1.5)
    p = path_max_call(3, strike=1.0)
    assert p(np.array([[0.0, 3.0, 2.0]]))[0] == pytest.approx(2.0)
    assert p(np.array([[0.0, 0.5, 0.2]]))[0] == 0.0
    d = abs_deviation(1, [0.5])
    assert d(np.array([[2.0]]))[0] == pytest.approx(1.5)


@pytest.mark.parametrize(
    "points, weights",
    [
        ([0.0, math.nan], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, 1.0]),
        ([[0.0, 0.0], [1.0, math.nan]], [0.5, 0.5]),
    ],
    ids=["nan-point", "inf-point", "nan-weight", "nan-point-2d"],
)
def test_discrete_distribution_rejects_non_finite_points_and_weights(points, weights):
    with pytest.raises(DomainError, match="finite"):
        DiscreteDistribution(points, weights)


def test_merged_atoms_rejects_a_nan_weight():
    # merging keeps only positive masses, which used to drop a nan silently
    with pytest.raises(DomainError, match="finite"):
        merged_atoms([0.0, 1.0], [math.nan, 1.0])


def test_merged_atoms_keeps_an_atom_of_mass_zero():
    # a source point of mass 0 still has one-step images, and the embedded
    # grid of the chain must cover their hull
    dd = merged_atoms([1.0, 0.0, 2.0, 1.0], [0.25, 0.5, 0.0, 0.25])
    assert dd.points_1d.tolist() == [0.0, 1.0, 2.0]
    assert dd.weights.tolist() == [0.5, 0.5, 0.0]
    assert dd.support == (0.0, 2.0)
    with pytest.raises(DomainError, match="empty"):
        merged_atoms([0.0, 1.0], [0.0, 0.0])
