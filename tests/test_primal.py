import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from martquant.dual import dual_split
from martquant.errors import DomainError, EmptyCellError
from martquant.laws import DiscreteDistribution, Normal, PowerDensity2x, TruncatedLaw, Uniform
from martquant.primal import (
    _assign_1d, _initial_grid, _lloyd_step, lloyd_1d, voronoi_split,
)


def test_nn_project_tie_break():
    # midpoint belongs to the left cell: cells are (x_{i-1/2}, x_{i+1/2}]
    assert list(_assign_1d(np.array([0.0, 1.0]), np.array([0.5, 0.9]))) == [0, 1]
    # a law's cell masses follow the same rule: an atom on a midpoint counts
    # in the left cell, so voronoi_split (lloyd_1d, quantized noise) and
    # the projection of draws (archmc) split a law alike
    grid = np.array([-1.0, 0.0, 0.5, 2.0])
    atoms = np.array([-0.5, 0.25, 1.25, -3.0, 0.1, 5.0])  # the midpoints first
    w = np.arange(1.0, 7.0) / 21.0
    cells = voronoi_split(grid, DiscreteDistribution(atoms, w))[0]
    assert np.allclose(cells, np.array([1 + 4, 2 + 5, 3, 6]) / 21.0, rtol=0.0, atol=1e-15)
    assert np.allclose(cells, np.bincount(_assign_1d(grid, atoms), weights=w), rtol=0.0, atol=1e-15)


def test_projection_idempotent():
    grid = np.array([-1.0, 0.3, 2.0, 5.5])
    assert list(_assign_1d(grid, grid)) == [0, 1, 2, 3]


def test_distortion_uniform_closed_forms():
    u = Uniform(0, 1)
    assert voronoi_split([0.5], u)[1] == pytest.approx(1 / math.sqrt(12), abs=1e-12)
    assert voronoi_split([0.25, 0.75], u)[1] == pytest.approx(1 / (4 * math.sqrt(3)), abs=1e-12)


def test_distortion_atoms_on_grid_is_zero():
    law = DiscreteDistribution([0.0, 0.5, 2.0], [0.25, 0.5, 0.25])
    assert voronoi_split([0.0, 0.5, 2.0], law)[1] == 0.0


def test_distortion_decreases_when_point_added():
    u = Normal(0, 1)
    base = [-1.0, 1.0]
    richer = [-1.0, 0.0, 1.0]
    assert voronoi_split(richer, u)[1] <= voronoi_split(base, u)[1] + 1e-12


def test_lloyd_uniform_reference_grid():
    res = lloyd_1d(Uniform(0, 1), 4, init=np.array([0.1, 0.2, 0.3, 0.4]), tol=1e-14)
    assert np.abs(res.grid - np.array([1, 3, 5, 7]) / 8).max() < 1e-10
    assert res.converged


def test_lloyd_single_point_is_mean():
    for law in (Uniform(-2, 5), Normal(0.7, 2.0), PowerDensity2x()):
        res = lloyd_1d(law, 1)
        assert res.grid[0] == pytest.approx(law.mean, abs=1e-12)


def test_lloyd_distortion_nonincreasing_stepwise():
    law = Normal(0, 1)
    grid = np.array([-2.0, -0.3, 0.1, 0.6, 2.5])
    last = voronoi_split(grid, law)[1]
    for _ in range(25):
        grid = _lloyd_step(law, grid)
        current = voronoi_split(grid, law)[1]
        assert current <= last + 1e-12
        last = current


def test_lloyd_power2x_matches_grid_search_oracle():
    """Direct distortion minimization (nested lattice search) as the oracle."""
    law = PowerDensity2x()

    def cell_cost(lo, hi, c):
        # integral of (x - c)^2 * 2x over [lo, hi] via the antiderivative
        def anti(x):
            return x ** 4 / 2 - (4 * c / 3) * x ** 3 + c * c * x * x

        return anti(hi) - anti(lo)

    def total(grid):
        cuts = [0.0, (grid[0] + grid[1]) / 2, (grid[1] + grid[2]) / 2, 1.0]
        return sum(cell_cost(cuts[i], cuts[i + 1], grid[i]) for i in range(3))

    best, best_val = None, np.inf
    step = 0.02
    centers = np.arange(0.05, 1.0, step)
    for a in centers:
        for b in centers[centers > a]:
            for c in centers[centers > b]:
                v = total((a, b, c))
                if v < best_val:
                    best, best_val = (a, b, c), v
    for _ in range(3):  # refine to a 1e-4 lattice
        step /= 5
        a0, b0, c0 = best
        ra = np.arange(max(a0 - 3 * step, 1e-6), a0 + 3 * step, step)
        rb = np.arange(b0 - 3 * step, b0 + 3 * step, step)
        rc = np.arange(c0 - 3 * step, min(c0 + 3 * step, 1.0), step)
        for a in ra:
            for b in rb[rb > a]:
                for c in rc[rc > b]:
                    v = total((a, b, c))
                    if v < best_val:
                        best, best_val = (a, b, c), v
    res = lloyd_1d(law, 3, tol=1e-13)
    assert np.abs(res.grid - np.asarray(best)).max() < 1e-3


def test_lloyd_stationarity_invariant():
    res = lloyd_1d(Normal(0, 1), 7, tol=1e-12)
    assert res.stationarity_residual < 10 * 1e-12


def test_lloyd_empty_cell_error():
    with pytest.raises(EmptyCellError):
        lloyd_1d(Uniform(0, 1), 3, init=np.array([2.0, 3.0, 4.0]))


def _start_levels(n):
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def test_lloyd_start_completes_the_quantiles_an_atom_merges():
    # the levels 1/8, 3/8 and 5/8 all fall in the jump of the atom at 1, so
    # the distinct quantiles are 1 and 2; the start adds the atoms 0 and 3
    # inside the two tails, which carry mass, and these four atoms are the
    # optimal grid
    law = DiscreteDistribution([0.0, 1.0, 2.0, 3.0], [0.1, 0.7, 0.1, 0.1])
    assert np.unique(law.quantile(_start_levels(4))).tolist() == [1.0, 2.0]
    assert _initial_grid(law, 4).tolist() == [0.0, 1.0, 2.0, 3.0]
    res = lloyd_1d(law, 4)
    assert res.converged
    assert res.distortion == 0.0
    assert np.abs(res.grid - [0.0, 1.0, 2.0, 3.0]).max() < 1e-14
    assert np.abs(res.weights - [0.1, 0.7, 0.1, 0.1]).max() < 1e-15
    # no gap between three atoms carries mass, so they cannot give four points
    with pytest.raises(DomainError, match="law support is too small"):
        lloyd_1d(DiscreteDistribution([0.0, 1.0, 2.0], [0.2, 0.5, 0.3]), 4)


@pytest.mark.parametrize("alpha", [-1.0, -2.0])
def test_lloyd_converges_where_the_truncation_atom_takes_several_levels(alpha):
    # the mass clipped to 0, 0.32 and 0.046, spans 20 and 2 of the 64 levels
    law = TruncatedLaw.centered(Normal(), alpha)
    assert np.unique(law.quantile(_start_levels(64))).size < 64
    res = lloyd_1d(law, 64, tol=1e-13)
    assert res.converged
    assert res.grid.size == 64
    assert np.all(np.diff(res.grid) > 0.0)
    assert np.all(res.weights > 0.0)


def test_lloyd_start_is_the_quantiles_where_no_levels_merge():
    for law, n in ((Normal(), 31), (TruncatedLaw.centered(Normal(), -2.0), 31), (Uniform(0, 1), 4)):
        want = np.asarray(law.quantile(_start_levels(n)))
        assert _initial_grid(law, n).tobytes() == want.tobytes()


def test_voronoi_weights():
    u = Uniform(0, 1)
    assert np.allclose(voronoi_split(np.array([1, 3, 5, 7]) / 8, u)[0], 0.25)
    assert voronoi_split(np.array([0.5]), Normal(3, 2))[0] == pytest.approx([1.0])
    w = voronoi_split(np.array([0.0, 1.0]), PowerDensity2x())[0]
    assert np.allclose(w, [0.25, 0.75], atol=1e-15)
    assert voronoi_split(np.linspace(-3, 3, 9), Normal(0, 1))[0].sum() == pytest.approx(
        1.0, abs=1e-15
    )


def test_grid_validation():
    with pytest.raises(DomainError):
        voronoi_split([1.0, 1.0], Uniform(0.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_primal_grids_must_be_finite(bad):
    law = Uniform(0.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        voronoi_split([0.2, bad], law)
    with pytest.raises(DomainError, match="finite"):
        lloyd_1d(law, 2, init=[0.2, bad])


def test_uniform_optimal_invariant_rate():
    # N * e_{2,N} equals the 1D constant 1/(2 sqrt(3)) at the optimum
    for n in (2, 5, 11):
        res = lloyd_1d(Uniform(0, 1), n, tol=1e-14)
        assert n * res.distortion == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-10)


def _phi(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


@pytest.mark.parametrize(
    "law, n, density, lo, hi",
    [
        (Normal(), 8, _phi, -np.inf, np.inf),
        (Normal(), 31, _phi, -np.inf, np.inf),
        (Normal(), 128, _phi, -np.inf, np.inf),
        (Uniform(0.9, 1.1), 31, lambda t: 5.0, 0.9, 1.1),
        (TruncatedLaw.centered(Normal(), -2.0), 31, _phi, -2.0, 2.0),
    ],
    ids=["normal-8", "normal-31", "normal-128", "uniform-31", "truncated-31"],
)
def test_distortion_matches_per_cell_quadrature(law, n, density, lo, hi):
    """The closed form sum dM - 2x dK + x^2 dF against per-cell quadrature
    of (t - x)^2 over the density, plus the atoms, summed exactly."""
    grid = lloyd_1d(law, n, tol=1e-9).grid
    cuts = np.clip(np.concatenate(([lo], 0.5 * (grid[:-1] + grid[1:]), [hi])), lo, hi)
    parts = [
        quad(lambda t, x=x: (t - x) ** 2 * density(t), a, b, epsabs=1e-17, epsrel=1e-13)[0]
        for x, a, b in zip(grid, cuts[:-1], cuts[1:])
        if b > a
    ]
    atoms, masses = law.atoms()
    parts += [w * (z - grid[_assign_1d(grid, z)]) ** 2 for z, w in zip(atoms, masses)]
    d2 = voronoi_split(grid, law)[1] ** 2
    assert abs(d2 - math.fsum(parts)) <= 1e-14 * max(1.0, law.second_moment)


# ---------------------------------------------------------------------------
# finite laws, split and quantized atom by atom


def _exact_splits(z, w, grid):
    """The dual split of the atoms ``z, w`` on ``grid`` (weights and squared
    distortion), their Voronoi split on it (the cells of the Monte Carlo
    projection, which end at the float midpoints) and the cell means, all
    in exact fractions of the float inputs."""
    z, w, t = ([Fraction(float(v)) for v in a] for a in (z, w, grid))
    dual_w, dual_d2 = [Fraction(0)] * len(t), Fraction(0)
    if len(t) >= 2:
        for y, q in zip(z, w):
            l = min(max(bisect_right(t, y) - 1, 0), len(t) - 2)
            lam = (y - t[l]) / (t[l + 1] - t[l])
            dual_w[l] += q * (1 - lam)
            dual_w[l + 1] += q * lam
            dual_d2 += q * (t[l + 1] - y) * (y - t[l])
    mids = [Fraction(float(0.5 * (a + b))) for a, b in zip(grid[:-1], grid[1:])]
    cells = [[] for _ in t]
    for y, q in zip(z, w):
        cells[sum(m < y for m in mids)].append((y, q))
    mass = [sum(q for _, q in c) for c in cells]
    vor_d2 = sum(q * (y - x) ** 2 for x, c in zip(t, cells) for y, q in c)
    means = [sum(q * y for y, q in c) / m if m else None for c, m in zip(cells, mass)]
    return dual_w, dual_d2, mass, vor_d2, means, cells


_MICROS = st.integers(-4_000_000, 4_000_000).map(lambda k: k / 1e6)


@st.composite
def _finite_laws_on_grids(draw):
    """Up to six atoms on a 1e-6 lattice of [-4, 4] (not representable, so
    the splits round) with masses of ninths or finer, and a grid of which
    some points are atoms; the dual grid adds the atom hull, padded or not."""
    z = sorted(draw(st.lists(_MICROS, min_size=1, max_size=6, unique=True)))
    q = np.array(draw(st.lists(st.integers(1, 9), min_size=len(z), max_size=len(z))))
    law = DiscreteDistribution(z, q / q.sum())
    on_atoms = draw(st.lists(st.sampled_from(z), max_size=4))
    grid = np.unique(on_atoms + draw(st.lists(_MICROS, max_size=3)))
    if grid.size == 0:
        grid = np.array(z[:1])
    pads = [draw(st.integers(0, 1_000_000)) / 1e6 for _ in range(2)]
    dual_grid = np.unique([z[0] - pads[0], z[-1] + pads[1], *grid[(grid > z[0]) & (grid < z[-1])]])
    if dual_grid.size < 2:
        dual_grid = np.append(dual_grid, dual_grid[0] + 1.0)
    return law, grid, dual_grid


@given(_finite_laws_on_grids())
@settings(max_examples=300, deadline=None)
def test_finite_laws_split_and_quantize_as_exact_sums(case):
    """Both splits and the Lloyd step of a finite law are its exact atom
    sums to 1e-15, relative to the mass 1 for weights, to the distortion
    itself, and to the largest |atom| for cell means; a distortion whose
    exact value is 0 is 0, and a cell of one atom keeps it bit for bit."""
    law, grid, dual_grid = case
    z, w = law.atoms()
    scale = float(np.abs(z).max())

    def close(got, exact, rel):
        assert abs(got - exact) <= rel * 1e-15, (got, exact)

    def distortion(got, exact_d2):
        assert (got == 0.0) == (exact_d2 == 0), (got, exact_d2)
        close(got, math.sqrt(exact_d2), math.sqrt(exact_d2))

    dual_w, dual_d2 = _exact_splits(z, w, dual_grid)[:2]
    weights, d = dual_split(dual_grid, law)
    for got, exact in zip(weights, dual_w):
        close(got, exact, 1.0)
    distortion(d, dual_d2)

    _, _, mass, vor_d2, means, cells = _exact_splits(z, w, grid)
    weights, d = voronoi_split(grid, law)
    for got, exact in zip(weights, mass):
        close(got, exact, 1.0)
    distortion(d, vor_d2)
    if not all(mass):
        with pytest.raises(EmptyCellError):
            _lloyd_step(law, grid)
        return
    for got, exact, cell in zip(_lloyd_step(law, grid), means, cells):
        close(got, exact, scale)
        if len(cell) == 1:
            assert got == cell[0][0]


def test_finite_laws_quantize_onto_their_atoms():
    """Grids on the atoms of a finite law: its exact atoms and masses, and
    distortion 0."""
    atoms = [-2.0, -1.0, 0.0, 1.0, 2.0]
    law = DiscreteDistribution(atoms, [0.1, 0.2, 0.4, 0.2, 0.1])
    res = lloyd_1d(law, 5)
    assert res.grid.tolist() == atoms
    assert res.weights.tolist() == law.weights.tolist()
    assert res.distortion == 0.0
    assert voronoi_split(atoms, law)[1] == 0.0
    weights, distortion = dual_split(atoms, law)
    assert weights.tolist() == law.weights.tolist() and distortion == 0.0
    res = lloyd_1d(DiscreteDistribution([0.1, 0.3, 3.0], [0.1, 0.6, 0.3]), 3)
    assert res.grid.tolist() == [0.1, 0.3, 3.0]
    assert res.distortion == 0.0 and res.stationarity_residual == 0.0
