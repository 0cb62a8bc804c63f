import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from martquant import dual
from martquant.archmc import _split_sample
from martquant.dual import (
    DualQuantization,
    Triangulation2D,
    _grid_points,
    _map_residual,
    dual_lloyd_1d,
    dual_split,
    locate_1d,
)
from martquant.errors import DomainError, HullViolation, SupportError
from martquant.laws import DiscreteDistribution, Law1D, Normal, TruncatedLaw, Uniform
from martquant.order import convex_order_check
from martquant.rng import make_generator


def test_split_linear_interpolation():
    j, lam_right = locate_1d(np.array([0.0, 1.0]), np.array([0.25]))
    assert list(j) == [0]
    assert np.allclose(lam_right, [0.25])  # 0.75 on point 0, 0.25 on point 1


def test_split_on_grid_point_is_degenerate():
    # a query on a grid point splits onto that point alone
    j, lam_right = locate_1d(np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0]))
    assert list(j) == [1, 1]
    assert list(lam_right) == [0.0, 1.0]


def test_split_out_of_hull():
    with pytest.raises(HullViolation):
        locate_1d(np.array([0.0, 1.0]), np.array([1.5]))


def test_split_randomized_boundary_goes_right():
    # 0.25 splits 0.75 / 0.25 onto 0 and 1: u in [0, 0.75) picks 0
    points = np.array([0.0, 1.0, 2.0, 3.0])
    got = _split_sample(points, np.full(2, 0.25), np.array([0.5, 0.75]))
    assert list(got) == [0.0, 1.0]  # boundary is half-open to the right
    # a grid point splits onto itself for every u in [0, 1)
    for x in (1.0, 3.0):
        assert list(_split_sample(points, np.full(2, x), np.array([0.0, 0.999999]))) == [x, x]


def test_dual_weights_uniform():
    u = Uniform(0, 1)
    assert np.allclose(dual_split([0.0, 0.5, 1.0], u)[0], [0.25, 0.5, 0.25], atol=1e-14)
    assert np.allclose(dual_split([0.0, 1.0], u)[0], [0.5, 0.5], atol=1e-14)


def test_dual_weights_hand_integrated_hats():
    # oracle: quadrature of the hat functions against the density
    u = Uniform(0, 1)
    grid = np.array([0.0, 0.3, 1.0])
    w = dual_split(grid, u)[0]
    left = quad(lambda x: (0.3 - x) / 0.3, 0, 0.3)[0]
    mid = quad(lambda x: x / 0.3, 0, 0.3)[0] + quad(lambda x: (1 - x) / 0.7, 0.3, 1)[0]
    right = quad(lambda x: (x - 0.3) / 0.7, 0.3, 1)[0]
    assert np.allclose(w, [left, mid, right], atol=1e-10)


def test_dual_weights_point_mass_barycentric():
    a, b, m = -1.0, 3.0, 0.5
    w = dual_split([a, b], DiscreteDistribution([m], [1.0]))[0]
    assert np.allclose(w, [(b - m) / (b - a), (m - a) / (b - a)], atol=1e-14)


def test_dual_weights_mean_preserved():
    for law in (Uniform(-1, 2), PowerLike := DiscreteDistribution([-0.5, 0.2, 1.7], [0.3, 0.4, 0.3])):
        lo, hi = law.support
        grid = np.array([lo, lo + 0.3 * (hi - lo), lo + 0.55 * (hi - lo), hi])
        w = dual_split(grid, law)[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(w @ grid) == pytest.approx(law.mean, abs=1e-10)


def test_dual_weights_support_error():
    with pytest.raises(SupportError):
        dual_split([0.2, 0.8], Uniform(0, 1))


def test_dual_weights_atom_on_left_endpoint():
    law = DiscreteDistribution([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
    w = dual_split([0.0, 1.0], law)[0]
    # atom at the endpoint belongs wholly to it, the rest splits linearly
    assert np.allclose(w, [0.25 + 0.25, 0.5], atol=1e-14)


def test_dual_distortion_uniform():
    u = Uniform(0, 1)
    assert dual_split([0.0, 1.0], u)[1] == pytest.approx(math.sqrt(1 / 6), abs=1e-12)
    assert dual_split(np.linspace(0, 1, 5), u)[1] == pytest.approx(
        1 / (math.sqrt(6) * 4), abs=1e-12
    )


def test_dual_distortion_zero_when_grid_covers_atoms():
    law = DiscreteDistribution([0.0, 0.25, 1.0], [0.3, 0.4, 0.3])
    # each atom is split where it falls, so no sum cancels to roundoff
    weights, distortion = dual_split([0.0, 0.25, 1.0], law)
    assert weights.tolist() == law.weights.tolist() and distortion == 0.0


class _CallLog:
    """Forwards to a law and logs the name of every method called on it;
    ``isinstance`` sees the law's class."""

    def __init__(self, law):
        self.law = law
        self.calls = []

    @property
    def __class__(self):
        return type(self.law)

    def __getattr__(self, name):
        value = getattr(self.law, name)
        if not callable(value):
            return value

        def logged(*args, **kwargs):
            self.calls.append(name)
            return value(*args, **kwargs)

        return logged


@pytest.mark.parametrize(
    "make_law, call",
    [
        (lambda: Uniform(0.0, 1.0), "cdf_moment_left_batch"),
        (lambda: DiscreteDistribution([0.0, 0.25, 1.0], [0.3, 0.4, 0.3]), "atoms"),
        (lambda: _still_source_mixture(), "cdf_moment_left_batch"),
    ],
    ids=["uniform", "atoms", "mixture"],
)
def test_dual_split_makes_one_law_call(make_law, call):
    """One batch of F, K and F(-), or for a finite law one read of its atoms."""
    law = make_law()
    lo, hi = law.support
    log = _CallLog(law)
    weights = dual_split(np.linspace(lo, hi, 5), log)[0]
    assert log.calls == [call]
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_dual_lloyd_uniform_reference():
    u = Uniform(0, 1)
    inits = []
    for n in (3, 5, 9):
        init = np.linspace(0, 1, n)
        init[1:-1] += 0.25 / n * np.sin(np.arange(1, n - 1) + 1.0)
        inits.append(np.sort(init))
    # uneven gaps: from here the bare map x <- T(x) leaves the ordered
    # simplex within four steps
    inits.append(np.array([0.0, 0.2, 0.45, 0.75, 1.0]))
    for init in inits:
        n = init.size
        res = dual_lloyd_1d(u, n, init=init, tol=1e-13)
        assert res.converged
        assert np.abs(res.grid - np.linspace(0, 1, n)).max() < 1e-10
        assert (n - 1) * res.distortion == pytest.approx(1 / math.sqrt(6), abs=1e-10)


def test_dual_lloyd_two_points_immediate():
    res = dual_lloyd_1d(Uniform(-2, 7), 2)
    assert np.allclose(res.grid, [-2.0, 7.0])
    assert res.converged and res.iterations == 0


def test_dual_lloyd_needs_compact_support():
    with pytest.raises(SupportError):
        dual_lloyd_1d(Normal(0, 1), 5)


def test_dual_lloyd_map_is_scaled_gradient():
    """Finite differences of the closed-form squared distortion, divided by
    the interval masses F(x_{i+1}) - F(x_{i-1}), are the stationarity
    residual |T_i(x) - x_i| of each interior point."""
    from martquant.dual import _map_residual

    law = Uniform(0, 1)
    gen = make_generator(2)
    x = np.sort(gen.random(5))
    x[0], x[-1] = 0.0, 1.0

    def d2(grid):
        return dual_split(grid, law)[1] ** 2

    f = np.asarray(law.cdf(x))
    k = np.asarray(law.partial_moment(x))
    h = 1e-7
    scaled = []
    for i in range(1, 4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (d2(xp) - d2(xm)) / (2 * h)
        scaled.append(abs(fd) / (f[i + 1] - f[i - 1]))
        window = slice(i - 1, i + 2)
        resid = _map_residual(x[window], f[window], k[window], f[window])
        assert scaled[-1] == pytest.approx(resid, abs=5e-7)
    assert max(scaled) == pytest.approx(_map_residual(x, f, k, f), abs=5e-7)


def test_dual_lloyd_truncated_normal_vs_bruteforce_oracle():
    """Reduced N=3 instance: one interior point, exhaustively searched with
    quadrature-evaluated distortion."""
    tn = TruncatedLaw.centered(Normal(0, 1), -3.0)

    def d2_of(c):
        # per-interval integrand (x_{i+1} - xi)(xi - x_i) against the
        # truncated-normal density, plus the clipped atom at zero
        left = quad(
            lambda x: (c - x) * (x + 3) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi), -3, c
        )[0]
        right = quad(
            lambda x: (3 - x) * (x - c) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi), c, 3
        )[0]
        atom = tn.clipped_mass * ((3 - 0) * (0 - c) if c < 0 else (c - 0) * (0 + 3))
        return left + right + atom

    lattice = np.arange(-1.0, 1.0, 1e-3)
    vals = [d2_of(c) for c in lattice]
    best = lattice[int(np.argmin(vals))]
    res = dual_lloyd_1d(tn, 3, tol=1e-10)
    assert res.converged
    assert abs(res.grid[1] - best) < 2e-3
    assert res.distortion ** 2 == pytest.approx(min(vals), abs=1e-3)


def test_dual_lloyd_fuzz_diverse_laws():
    """The optimizer must never crash, never worsen the equispaced grid,
    and always return a valid weighted grid on the hull."""
    gen = make_generator(501)
    laws = [
        TruncatedLaw.centered(Normal(0.3, 1.0), -2.5),
        TruncatedLaw.centered(Uniform(-2, 1), -1.0),
        DiscreteDistribution(np.sort(gen.normal(size=9)), np.full(9, 1 / 9)),
        Uniform(-0.5, 4.0),
    ]
    for law in laws:
        lo, hi = law.support
        for n in (3, 6, 12):
            res = dual_lloyd_1d(law, n, tol=1e-10, max_iter=4000)
            assert res.grid[0] == lo and res.grid[-1] == hi
            assert np.all(np.diff(res.grid) > 0)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert float(res.weights @ res.grid) == pytest.approx(law.mean, abs=1e-9)
            baseline = dual_split(np.linspace(lo, hi, n), law)[1]
            assert res.distortion <= baseline + 1e-12


def test_dual_quantization_raises_convex_order():
    law = DiscreteDistribution([0.1, 0.4, 0.55, 0.8], [0.2, 0.3, 0.3, 0.2])
    grid = np.array([0.0, 0.5, 1.0])
    w = dual_split(grid, law)[0]
    mu = DiscreteDistribution(np.asarray(law.points), law.weights)
    nu = DiscreteDistribution(grid, w)
    assert convex_order_check(mu, nu).dominated


@pytest.mark.parametrize("tol", [dual._HULL_TOL, 1e-6])
def test_locate_1d_matches_bruteforce(tol, monkeypatch):
    # the hull rule at the package's one tolerance, and at a wider one set
    # through the same constant
    monkeypatch.setattr(dual, "_HULL_TOL", tol)
    gen = make_generator(71)
    points = np.sort(np.unique(np.round(gen.normal(size=12) * 0.5 + 20.0, 6)))
    lo, hi = points[0], points[-1]
    queries = np.concatenate(
        (points, 0.5 * (points[:-1] + points[1:]), gen.uniform(lo, hi, size=200))
    )
    j, lam_right = locate_1d(points, queries)
    for q, jq, lq in zip(queries, j, lam_right):
        # the last interval whose left end is at or below q, closed at hi
        want = max(i for i in range(points.size - 1) if points[i] <= q)
        assert jq == want
        assert lq == (q - points[want]) / (points[want + 1] - points[want])
        assert 0.0 <= lq <= 1.0
        assert (1.0 - lq) * points[jq] + lq * points[jq + 1] == pytest.approx(q, abs=1e-12)
    # the slack scales with the largest absolute endpoint, which on this
    # grid far from 0 is several times its width
    span = max(1.0, abs(lo), abs(hi))
    assert span > 4.0 * (hi - lo)
    j, lam_right = locate_1d(points, [lo - 0.5 * tol * span, hi + 0.5 * tol * span])
    assert list(j) == [0, points.size - 2]
    assert list(lam_right) == [0.0, 1.0]
    bad = np.array([0.5 * (lo + hi), hi + 2.0 * tol * span, lo - 2.0 * tol * span])
    with pytest.raises(HullViolation) as err:
        locate_1d(points, bad)
    assert str(err.value).startswith(f"query {bad[1]} ")


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_split_stationarity_1d(seed):
    gen = make_generator(seed, stream=5)
    points = np.sort(gen.normal(size=6) * 3)
    points = np.unique(points)
    if points.size < 2:
        return
    q = gen.uniform(points[0], points[-1])
    j, lam_right = locate_1d(points, np.array([q]))
    lam = np.array([1.0 - lam_right[0], lam_right[0]])
    assert lam.min() >= 0.0
    assert abs(lam.sum() - 1.0) < 1e-12
    assert abs(lam @ points[[j[0], j[0] + 1]] - q) < 1e-10


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _circumcircle_residual(vertices, triangles):
    """Largest normalized in-circle determinant over all triangle/vertex
    pairs; positive means a vertex lies inside a circumcircle."""
    corners = vertices[triangles]  # (T, 3, 2)
    rel = corners[:, None, :, :] - vertices[None, :, None, :]  # (T, N, 3, 2)
    rows = np.concatenate([rel, (rel**2).sum(axis=-1, keepdims=True)], axis=-1)
    det = np.linalg.det(rows)
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    orient = np.sign(_cross(b - a, c - a))
    scale = np.prod(np.maximum(np.abs(rows).max(axis=-1), 1e-30), axis=-1)
    return float((orient[:, None] * det / np.maximum(scale, 1.0)).max())


def _hull_area(points):
    """Area of the convex hull by Andrew's monotone chain and the shoelace formula."""

    def half(pts):
        chain = []
        for p in pts:
            while len(chain) >= 2 and _cross(chain[-1] - chain[-2], p - chain[-2]) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    hull = np.array(half(pts) + half(pts[::-1]))
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(x @ np.roll(y, -1) - y @ np.roll(x, -1)))


def _brute_force_locate(vertices, triangles, queries):
    """Each query's triangle with the largest least barycentric weight, by
    testing every triangle: indices, (Q, 3) weights and least weights."""
    v = vertices[triangles]
    m = np.stack([v[:, 0] - v[:, 2], v[:, 1] - v[:, 2]], axis=-1)  # (T, 2, 2)
    rel = queries[:, None, :] - v[None, :, 2]  # (Q, T, 2)
    lam12 = np.linalg.solve(m[None], rel[..., None])[..., 0]
    lam = np.concatenate([lam12, 1.0 - lam12.sum(axis=-1, keepdims=True)], axis=-1)
    worst = lam.min(axis=2)
    best = np.argmax(worst, axis=1)
    rows = np.arange(queries.shape[0])
    return best, lam[rows, best], worst[rows, best]


def _vertex_weights(n_vertices, triangles, tri_idx, lam):
    """(Q, N) weights per vertex, so that shared-edge queries compare equal."""
    out = np.zeros((len(tri_idx), n_vertices))
    np.add.at(out, (np.arange(len(tri_idx))[:, None], triangles[tri_idx]), lam)
    return out


def test_triangulation_delaunay_property():
    gen = make_generator(7)
    pts = gen.random((40, 2))
    tri = Triangulation2D.delaunay(pts)
    assert _circumcircle_residual(tri.vertices, tri.triangles) <= 1e-9
    # covers the hull: split any interior convex combination
    for _ in range(50):
        w = gen.random(40)
        w /= w.sum()
        q = w @ pts
        tri_idx, lam = tri.locate(q)
        assert abs(lam.sum() - 1.0) < 1e-12
        assert np.abs(lam[0] @ tri.vertices[tri.triangles[tri_idx[0]]] - q).max() < 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_triangulation_covers_the_hull(seed):
    # square corners plus a uniform interior, as the 2D chain grids are built
    gen = make_generator(seed, stream=2)
    half = 1.5 * seed
    corners = half * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    pts = np.vstack([corners, gen.uniform(-half, half, (196, 2))])
    tri = Triangulation2D.delaunay(pts)
    a, b, c = (tri.vertices[tri.triangles[:, i]] for i in range(3))
    areas = 0.5 * np.abs(_cross(b - a, c - a))
    assert abs(areas.sum() - _hull_area(pts)) <= 1e-12 * _hull_area(pts)
    assert np.unique(tri.triangles).size == len(pts)
    assert _circumcircle_residual(tri.vertices, tri.triangles) <= 1e-9


def test_triangulation_out_of_hull():
    tri = Triangulation2D.delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(HullViolation):
        tri.locate(np.array([2.0, 2.0]))


def test_triangulation_locate_matches_brute_force():
    gen = make_generator(11)
    pts = gen.random((30, 2))
    tri = Triangulation2D.delaunay(pts)
    w = gen.random((257, 30))
    edges = tri.triangles[:, [0, 1]]
    queries = np.vstack(
        [
            (w / w.sum(axis=1, keepdims=True)) @ pts,
            pts,  # vertices
            0.5 * (pts[edges[:, 0]] + pts[edges[:, 1]]),  # edge midpoints
        ]
    )
    idx, lam = tri.locate(queries)
    best, lam_bf, margin = _brute_force_locate(tri.vertices, tri.triangles, queries)
    rebuilt = np.einsum("qc,qcd->qd", lam, tri.vertices[tri.triangles[idx]])
    rebuilt_bf = np.einsum("qc,qcd->qd", lam_bf, tri.vertices[tri.triangles[best]])
    assert np.abs(rebuilt - rebuilt_bf).max() <= 1e-12
    assert np.abs(rebuilt - queries).max() <= 1e-12
    n = len(pts)
    assert np.abs(
        _vertex_weights(n, tri.triangles, idx, lam)
        - _vertex_weights(n, tri.triangles, best, lam_bf)
    ).max() <= 1e-12
    # a query strictly inside one triangle has only that triangle
    inside = margin > 1e-12
    assert inside.sum() >= 250
    assert np.array_equal(idx[inside], best[inside])
    outside = np.vstack([queries, [[2.0, 2.0]], queries[:3], [[-3.0, 0.5]]])
    with pytest.raises(HullViolation, match=r"\[2\. 2\.\]"):
        tri.locate(outside)


@pytest.mark.parametrize("tol", [dual._HULL_TOL, 1e-6])
def test_triangulation_locate_hull_tolerance(tol, monkeypatch):
    # the rule at the package's one tolerance, and at a wider one set
    # through the same constant
    monkeypatch.setattr(dual, "_HULL_TOL", tol)
    # on this square span = 4 and each triangle is 4 high over its hull
    # edges, so a query at depth d beyond an edge has least weight -d/4
    tri = Triangulation2D.delaunay(4.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    span = 4.0
    on_edges = np.array([[2.0, 0.0], [4.0, 2.0], [2.0, 4.0], [0.0, 2.0]])
    outward = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    near = on_edges + 0.5 * tol * span * 4.0 * outward
    idx, lam = tri.locate(near)
    assert lam.min() >= 0.0
    assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-12
    # clipping moves each query onto its edge, by about its depth
    rebuilt = np.einsum("qc,qcd->qd", lam, tri.vertices[tri.triangles[idx]])
    assert np.abs(((rebuilt - on_edges) * outward).sum(axis=1)).max() < 1e-12
    assert np.abs(rebuilt - near).max() <= tol * span * 4.0
    for q in on_edges + 2.0 * tol * span * 4.0 * outward:
        with pytest.raises(HullViolation):
            tri.locate(q[None, :])


def test_triangulation_fills_qhulls_transform_cache():
    """``delaunay`` stores closed-form 2x2 inverses in Qhull's private
    ``_transform`` cache, so that ``find_simplex`` never runs LAPACK.  Pin
    that the installed scipy reads the cache, that the transforms agree with
    Qhull's own, and that the located simplices are Qhull's."""
    from scipy.spatial import Delaunay

    gen = make_generator(17)
    for _ in range(40):
        n = int(gen.integers(3, 120))
        pts = gen.standard_normal((n, 2)) * 10.0 ** gen.uniform(-2, 2)
        tri = Triangulation2D.delaunay(pts)
        ours = tri._qhull._transform
        assert tri._qhull.transform is ours
        reference = Delaunay(pts)
        assert np.array_equal(np.isnan(ours), np.isnan(reference.transform))
        assert np.allclose(ours, reference.transform, rtol=1e-9, atol=1e-12, equal_nan=True)
        queries = 1.5 * pts.std() * gen.standard_normal((300, 2)) + pts.mean(axis=0)
        assert np.array_equal(
            tri._qhull.find_simplex(queries), reference.find_simplex(queries)
        )
    # find_simplex reads the cache: all-nan transforms locate nothing
    tri._qhull._transform = np.full_like(ours, np.nan)
    assert (tri._qhull.find_simplex(queries) == -1).all()
    # a degenerate triangle gets nan, as in Qhull
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-13], [0.5, 1.0]])
    ours = Triangulation2D.delaunay(flat)._qhull._transform
    qhull = Delaunay(flat).transform
    assert np.isnan(ours).any()
    assert np.array_equal(np.isnan(ours), np.isnan(qhull))


def test_triangulation_known_barycentric():
    tri = Triangulation2D.delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    tri_idx, lam = tri.locate(np.array([0.25, 0.25]))
    corners = tri.triangles[tri_idx[0]]
    order = np.argsort(corners)
    assert list(corners[order]) == [0, 1, 2]
    assert np.allclose(lam[0][order], [0.5, 0.25, 0.25], atol=1e-12)


def test_triangulation_deterministic_and_json():
    pts = make_generator(3).random((25, 2))
    t1 = Triangulation2D.delaunay(pts)
    t2 = Triangulation2D.delaunay(pts)
    assert np.array_equal(t1.triangles, t2.triangles)
    assert t1.vertices.tobytes() == t2.vertices.tobytes() == pts.tobytes()
    assert t1.triangles.ndim == 2 and t1.triangles.shape[1] == 3
    assert np.array_equal(np.unique(t1.triangles), np.arange(25))


def test_triangulation_rejects_degenerate():
    with pytest.raises(DomainError):
        Triangulation2D.delaunay(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_triangulation_rejects_a_vertex_qhull_leaves_out():
    # Qhull drops one of two points 1e-14 apart from every triangle, so
    # that grid vertex could never receive mass
    pts = make_generator(5).random((30, 2))
    pts = np.vstack([pts, pts[18] + [1e-14, 0.0]])
    with pytest.raises(DomainError, match="too close"):
        Triangulation2D.delaunay(pts)


def test_dual_grid_validation():
    with pytest.raises(DomainError):
        dual_split([1.0], Uniform(0.0, 2.0))
    with pytest.raises(DomainError):
        dual_split([1.0, 1.0], Uniform(0.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_dual_grids_must_be_finite(bad):
    law = Uniform(0.0, 1.0)
    with pytest.raises(DomainError, match="finite"):
        dual_split([0.0, bad, 1.0], law)
    with pytest.raises(DomainError, match="finite"):
        dual_lloyd_1d(law, 3, init=[0.0, bad, 1.0])


def test_triangulation_rejects_a_nan_point():
    pts = make_generator(4).random((10, 2))
    pts[3, 1] = math.nan
    with pytest.raises(DomainError, match="finite"):
        Triangulation2D.delaunay(pts)


# ---------------------------------------------------------------------------
# _solve_levels against the loop it replaced


def _solve_levels_reference(law, levels, lo, hi, xtol):
    """The bracket solver as it stood before the loop was slimmed, verbatim."""
    lo = lo.copy()
    hi = hi.copy()
    flo = np.asarray(law.cdf(lo)) - levels
    fhi = np.asarray(law.cdf(hi)) - levels
    sol = 0.5 * (lo + hi)
    active = np.ones(levels.size, dtype=bool)
    for sweep in range(110):
        width = hi - lo
        active &= width > xtol
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        l_, h_ = lo[idx], hi[idx]
        fl_, fh_ = flo[idx], fhi[idx]
        w_ = h_ - l_
        mid = 0.5 * (l_ + h_)
        if sweep % 2:
            x = mid
        else:
            den = fh_ - fl_
            with np.errstate(divide="ignore", invalid="ignore"):
                sec = (l_ * fh_ - h_ * fl_) / den
            inside = np.isfinite(sec) & (sec > l_ + 0.01 * w_) & (sec < h_ - 0.01 * w_)
            x = np.where(inside, sec, mid)
        fx = np.asarray(law.cdf(x)) - levels[idx]
        sol[idx] = x
        done = np.abs(fx) < 1e-15
        go_hi = fx >= 0.0
        hi[idx] = np.where(go_hi, x, h_)
        fhi[idx] = np.where(go_hi, fx, fh_)
        lo[idx] = np.where(go_hi, l_, x)
        flo[idx] = np.where(go_hi, fl_, fx)
        active[idx[done]] = False
    still = active
    if np.any(still):
        sol[still] = 0.5 * (lo[still] + hi[still])
    return sol


class _RecordingLaw:
    """Forwards to a law and keeps a copy of every ``cdf`` query batch and of
    every grid handed to a sweep batch of F, K and F(-)."""

    def __init__(self, law):
        self.law = law
        self.batches = []
        self.sweep_batches = []

    def __getattr__(self, name):
        return getattr(self.law, name)

    def cdf(self, u):
        self.batches.append(np.array(u, dtype=float, copy=True))
        return self.law.cdf(u)

    def cdf_moment_left_batch(self, u):
        self.sweep_batches.append(np.array(u, dtype=float, copy=True))
        return self.law.cdf_moment_left_batch(u)


def _assert_same_batches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _euler_mixture():
    from martquant.chain import MixtureTransitionLaw, euler_thetas, theta_affine_abs
    from martquant.primal import lloyd_1d

    # the first step of configs/euler.json
    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    theta = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, 5)[0]
    start = lloyd_1d(Uniform(0.9, 1.1), 31)
    return MixtureTransitionLaw(start.grid, start.weights, theta(start.grid), trunc)


def _sweep_levels(law, n_points, parity):
    """Brackets and F-levels of one red-black half-sweep from a uniform grid."""
    lo, hi = law.support
    points = np.linspace(lo, hi, n_points)
    idx = np.arange(parity, n_points - 1, 2)
    f = np.asarray(law.cdf(points))
    k = np.asarray(law.partial_moment(points))
    lo_n, hi_n = points[idx - 1], points[idx + 1]
    levels = (hi_n * f[idx + 1] - lo_n * f[idx - 1] - (k[idx + 1] - k[idx - 1])) / (hi_n - lo_n)
    return np.clip(levels, f[idx - 1], f[idx + 1]), lo_n, hi_n


_SOLVE_CASES = {
    "euler-floor": (_euler_mixture, 31, None),
    "euler-1e-10": (_euler_mixture, 31, 1e-10),
    "euler-1e-6": (_euler_mixture, 31, 1e-6),
    "atoms": (lambda: DiscreteDistribution([-1.0, -0.3, 0.2, 0.25, 0.9, 2.0],
                                  [0.1, 0.2, 0.3, 0.1, 0.2, 0.1]), 9, 1e-12),
    "uniform": (lambda: Uniform(-0.5, 4.0), 12, 1e-13),
}


@pytest.mark.parametrize("case", sorted(_SOLVE_CASES))
def test_solve_levels_matches_the_reference_loop_bit_for_bit(case):
    from martquant.dual import _solve_levels

    make_law, n_points, xtol = _SOLVE_CASES[case]
    law = make_law()
    if xtol is None:  # the sweep's float floor, as in dual_lloyd_1d
        lo, hi = law.support
        xtol = 2e-16 * (abs(lo) + abs(hi) + 1.0)
    for parity in (1, 2):
        levels, lo_n, hi_n = _sweep_levels(law, n_points, parity)
        ref_law, new_law = _RecordingLaw(law), _RecordingLaw(law)
        ref = _solve_levels_reference(ref_law, levels, lo_n, hi_n, xtol)
        new = _solve_levels(
            new_law, levels, lo_n.copy(), hi_n.copy(), law.cdf(lo_n), law.cdf(hi_n), xtol
        )
        assert new.tobytes() == ref.tobytes()
        # the same F calls in every round; the reference's two calls at the
        # bracket ends are the ones the solver is handed
        _assert_same_batches(new_law.batches, ref_law.batches[2:])
        assert new_law.batches


def test_dual_lloyd_does_not_hide_failing_atoms():
    class Broken(Uniform):
        def atoms(self):
            raise ValueError("broken atoms")

    with pytest.raises(ValueError, match="broken atoms"):
        dual_lloyd_1d(Broken(0.0, 1.0), 5)


def test_solve_levels_lets_warnings_from_the_law_through():
    from martquant.dual import _solve_levels

    class Noisy(Uniform):
        """Warns from inside F once the solver loop runs."""

        def cdf(self, z):
            if np.ndim(z) and 0.0 < np.min(z) and np.max(z) < 1.0:
                np.log(np.zeros(1))  # a divide-by-zero RuntimeWarning
            return super().cdf(z)

    law = Noisy(0.0, 1.0)
    levels = np.array([0.3, 0.6])
    lo, hi = np.zeros(2), np.ones(2)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        _solve_levels(law, levels, lo, hi, law.cdf(lo), law.cdf(hi), 1e-12)


def _jump_law():
    """F is flat between atoms: 0.6 on [0.2, 0.25) and 0.7 on [0.25, 0.9)."""
    return DiscreteDistribution([-1.0, -0.3, 0.2, 0.25, 0.9, 2.0], [0.1, 0.2, 0.3, 0.1, 0.2, 0.1])


def _assert_same_solve(law, levels, lo, hi, xtol):
    """The solve and its F batches match the reference loop's, whose first
    two batches, F at the bracket ends, the solver is handed instead."""
    from martquant.dual import _solve_levels

    ref_law, new_law = _RecordingLaw(law), _RecordingLaw(law)
    with np.errstate(over="ignore"):  # the numpy loop warns on an infinite width
        ref = _solve_levels_reference(ref_law, levels, lo, hi, xtol)
    flo, fhi = law.cdf(lo), law.cdf(hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 or x/0 warning escapes either
        new = _solve_levels(new_law, levels, lo.copy(), hi.copy(), flo, fhi, xtol)
    assert new.tobytes() == ref.tobytes()
    _assert_same_batches(new_law.batches, ref_law.batches[2:])
    return new, new_law.batches


def test_solve_levels_flat_f_takes_the_midpoint_bit_for_bit():
    # on [0.3, 0.8] F is 0.7 at both ends, so the secant denominator is 0:
    # level 0.7 gives 0/0 and a residual of 0 at once, level 0.6 gives
    # x/0 and bisects down to xtol; the last two brackets straddle jumps
    levels = np.array([0.7, 0.6, 0.65, 0.5])
    lo = np.array([0.3, 0.3, 0.21, -0.5])
    hi = np.array([0.8, 0.8, 0.26, 1.5])
    sol, _ = _assert_same_solve(_jump_law(), levels, lo, hi, 1e-12)
    assert sol[0] == 0.55  # the first midpoint solves F = 0.7 exactly
    assert np.abs(sol[1:] - [0.3, 0.25, 0.2]).max() < 1e-12


def test_solve_levels_round_cap_takes_the_bracket_midpoint_bit_for_bit():
    # with xtol = 0 no bracket around a jump of F retires: at 0.25 it stalls
    # at two neighbouring floats, at 1e-200 it is still about 1e-33 wide
    # after the 110 rounds, and each takes its bracket midpoint then
    law = DiscreteDistribution([-1.0, 1e-200, 0.25, 1.0], [0.2, 0.3, 0.3, 0.2])
    levels = np.array([0.65, 0.35, 0.8, 0.3])
    lo = np.array([0.21, -0.5, 0.3, -0.9])
    hi = np.array([0.26, 0.5, 0.8, -0.1])
    sol, batches = _assert_same_solve(law, levels, lo, hi, 0.0)
    assert len(batches) == 110
    assert sol[2] == 0.55  # F = 0.8 on [0.25, 1): solved, and retired, at once
    assert np.abs(sol[[0, 1, 3]] - [0.25, 1e-200, -0.1]).max() < 1e-15


class _RootAt(DiscreteDistribution):
    """F of the atoms, except that it is ``level`` at the one point ``root``."""

    def __init__(self, points, weights, root, level):
        super().__init__(points, weights)
        self.root, self.level = root, level

    def cdf(self, z):
        return np.where(np.asarray(z) == self.root, self.level, super().cdf(z))


def test_solve_levels_root_in_the_last_round_keeps_its_point_bit_for_bit():
    # the 1e-200 bracket of the round-cap test, with F set to the level at
    # the point its 110th round queries: the solve keeps that point, where
    # a point still unsolved takes its bracket midpoint
    points, weights = [-1.0, 1e-200, 0.25, 1.0], [0.2, 0.3, 0.3, 0.2]
    levels, lo, hi = np.array([0.35]), np.array([-0.5]), np.array([0.5])
    sol, batches = _assert_same_solve(DiscreteDistribution(points, weights), levels, lo, hi, 0.0)
    assert len(batches) == 110
    last = batches[-1][0]
    assert sol[0] != last
    law = _RootAt(points, weights, last, 0.35)
    sol, batches = _assert_same_solve(law, levels, lo, hi, 0.0)
    assert len(batches) == 110
    assert sol[0] == last


def test_solve_levels_zero_width_bracket_retires_at_round_0_bit_for_bit():
    levels = np.array([0.3, 0.6])
    lo, hi = np.array([0.4, 0.0]), np.array([0.4, 1.0])
    sol, batches = _assert_same_solve(Uniform(0.0, 1.0), levels, lo, hi, 1e-12)
    assert sol[0] == 0.4
    # round 0 already queries the other point alone
    assert batches[0].size == 1


def test_solve_levels_infinite_width_bisects_bit_for_bit():
    # hi - lo overflows to inf, so the secant margin is inf as well and
    # round 0 takes the midpoint, 0; halving 1.5e308 down to 1e-12 then
    # takes more than the 110 rounds, and the round cap ends the solve
    levels = np.array([0.3, 0.8])
    lo, hi = np.array([-1.5e308, -1.0]), np.array([1.5e308, 1.0])
    assert math.isinf(float(hi[0]) - float(lo[0]))
    sol, batches = _assert_same_solve(Uniform(-1.0, 1.0), levels, lo, hi, 1e-12)
    assert batches[0][0] == 0.0
    assert len(batches) == 110
    assert np.all(np.isfinite(sol))


def test_solve_levels_exact_root_retires_after_round_0_bit_for_bit():
    # F is linear, so round 0's secant lands on each root exactly
    levels = np.array([0.25, 0.5])
    lo, hi = np.zeros(2), np.ones(2)
    sol, batches = _assert_same_solve(Uniform(0.0, 1.0), levels, lo, hi, 1e-12)
    assert list(sol) == [0.25, 0.5]
    assert len(batches) == 1


def test_solve_levels_flat_f_everywhere_bisects_bit_for_bit():
    # beyond the support F is 1 at both ends: the secant denominator is 0
    # in every secant round, and every round bisects without a warning
    levels = np.array([0.9, 0.95])
    lo, hi = np.array([1.5, 2.0]), np.array([2.5, 2.5])
    sol, batches = _assert_same_solve(Uniform(0.0, 1.0), levels, lo, hi, 1e-12)
    assert np.abs(sol - lo).max() < 1e-12
    assert batches[0].tolist() == [2.0, 2.25]  # round 0, a secant round
    assert batches[1].tolist() == [1.75, 2.125]
    assert len(batches) == 40  # 2^-40 < 1e-12 < 2^-39


@st.composite
def _solve_inputs(draw):
    """A law, and brackets of its support with levels between their F values."""
    kind = draw(st.sampled_from(["uniform", "atoms", "mixture"]))
    if kind == "uniform":
        a = draw(st.floats(-5.0, 5.0))
        law = Uniform(a, a + draw(st.floats(1e-3, 10.0)))
    else:
        n_atoms = draw(st.integers(1, 12))
        points = np.unique(draw(st.lists(st.floats(-3.0, 3.0), min_size=n_atoms,
                                         max_size=n_atoms)))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=points.size,
                                         max_size=points.size)))
        weights /= weights.sum()
        if kind == "atoms":
            law = DiscreteDistribution(points, weights)
        else:
            from martquant.chain import MixtureTransitionLaw

            trunc = TruncatedLaw.centered(Normal(0, 1), draw(st.floats(-3.0, -0.5)))
            a, b = draw(st.floats(0.01, 0.5)), draw(st.floats(0.0, 0.5))
            law = MixtureTransitionLaw(points, weights, a + b * np.abs(points), trunc)
    n = draw(st.integers(1, 40))
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    s_lo, s_hi = law.support
    ends = s_lo + (s_hi - s_lo) * np.sort([draw(unit), draw(unit)], axis=0)
    lo, hi = ends
    f_lo, f_hi = np.asarray(law.cdf(lo)), np.asarray(law.cdf(hi))
    levels = f_lo + np.array(draw(unit)) * (f_hi - f_lo)
    xtol = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-6]))
    return law, levels, lo, hi, xtol


@given(_solve_inputs())
@settings(max_examples=60, deadline=None)
def test_solve_levels_matches_the_reference_loop_on_random_laws(inputs):
    _assert_same_solve(*inputs)


# ---------------------------------------------------------------------------
# dual_lloyd_1d against the sweep as it stood before the lean round


def _dual_lloyd_1d_reference(
    law: Law1D,
    n_points: int,
    init=None,
    tol: float = 1e-12,
    max_iter: int = 100000,
) -> tuple[DualQuantization, bool]:
    """``dual_lloyd_1d`` before the lean round, verbatim but for the names of
    the two functions and its result: the quantization and the
    ``order_violation`` flag it carried then.  Its level solve is the
    reference loop above, which makes the same query batches as the solver
    it called then."""
    lo, hi = law.support
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise SupportError("dual quantization needs a compact support hull")
    if n_points < 2:
        raise DomainError("a dual grid needs at least two points")
    if init is None:
        points = np.linspace(lo, hi, n_points)
    else:
        points = _grid_points(init).copy()
        if points.size != n_points:
            raise DomainError("init size must match n_points")
        if abs(points[0] - lo) > 1e-9 or abs(points[-1] - hi) > 1e-9:
            raise DomainError("init endpoints must sit on the support hull")
        points[0], points[-1] = lo, hi
    law_atoms = np.sort(np.asarray(law.atoms()[0], dtype=float))
    snap_tol = 1e-13 * (abs(lo) + abs(hi) + 1.0)
    converged = n_points == 2
    order_violation = False
    iterations = 0
    max_iter = 0 if n_points == 2 else max_iter
    float_floor = 2e-16 * (abs(lo) + abs(hi) + 1.0)
    last_move = 0.0  # first sweep solves at full precision
    sweep_step = 1.0
    best_resid = np.inf
    since_best = 0
    # interior points of each parity, with their left and right neighbours
    parities = []
    for parity in (1, 2):
        idx = np.arange(parity, n_points - 1, 2)
        if idx.size:
            parities.append((parity, idx, idx - 1, idx + 1))
    for iterations in range(1, max_iter + 1):
        f, k, f_left = law.cdf_moment_left_batch(points)
        resid = _map_residual(points, f, k, f_left)
        if resid < tol:
            converged = True
            break
        if resid < 0.9 * best_resid:
            best_resid = resid
            since_best = 0
        else:
            since_best += 1
            if since_best > 400:
                sweep_step = 0.5  # stagnation: damp the sweep against cycling
                since_best = 0
        # red-black Gauss-Seidel: each stationarity equation couples a point
        # to its two neighbours only, so same-parity points update
        # independently; alternating parities kills the antiphase
        # oscillation a simultaneous sweep sustains near kinks
        xtol = max(float_floor, 0.02 * last_move)
        cand = points.copy()
        for parity, idx, idx_l, idx_r in parities:
            if parity == 2:
                f, k, _ = law.cdf_moment_left_batch(cand)
            lo_n, hi_n = cand[idx_l], cand[idx_r]
            f_lo, f_hi = f[idx_l], f[idx_r]
            levels = (hi_n * f_hi - lo_n * f_lo - (k[idx_r] - k[idx_l])) / (hi_n - lo_n)
            levels = np.clip(levels, f_lo, f_hi)
            solved = _solve_levels_reference(law, levels, lo_n, hi_n, xtol)
            if sweep_step != 1.0:
                solved = cand[idx] + sweep_step * (solved - cand[idx])
            if law_atoms.size:
                # a point placed within the solve tolerance of an atom
                # belongs on the atom (kink optima live there); the
                # tolerance shrinks with the sweeps, so transient snaps
                # release as the iteration refines
                snap = max(snap_tol, 2.0 * xtol)
                near = np.clip(np.searchsorted(law_atoms, solved), 1, law_atoms.size) - 1
                right = np.minimum(near + 1, law_atoms.size - 1)
                for cand_idx in (near, right):
                    close = np.abs(solved - law_atoms[cand_idx]) <= snap
                    solved = np.where(close, law_atoms[cand_idx], solved)
            keep_order = (solved > lo_n) & (solved < hi_n)
            cand[idx] = np.where(keep_order, solved, cand[idx])
        if np.any(np.diff(cand) <= 0.0):
            order_violation = True
            break
        last_move = float(np.max(np.abs(cand - points)))
        points = cand
        if last_move < 0.5 * float_floor:
            f, k, f_left = law.cdf_moment_left_batch(points)
            converged = _map_residual(points, f, k, f_left) < tol
            break
    weights, distortion = dual_split(points, law)
    return DualQuantization(
        grid=points,
        weights=weights,
        distortion=distortion,
        converged=converged,
        iterations=iterations,
    ), order_violation



def _atoms_at_the_ends_step():
    """A chain step whose noise is truncated at atoms of its base, from 17
    points of U(-1.5, 1.5) with theta(x) = 0.4 + 0.4 |x|: a finite noise, so
    the step's law is the exact law of its images."""
    from martquant.chain import NoiseSpec, _image_law
    from martquant.primal import lloyd_1d

    trunc = TruncatedLaw.centered(
        DiscreteDistribution([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1]), -1.0
    )
    start = lloyd_1d(Uniform(-1.5, 1.5), 17)
    noise = NoiseSpec.truncated(trunc).finite
    return _image_law(start.grid, start.weights, 0.4 + 0.4 * np.abs(start.grid), noise)


def _still_source_mixture():
    """The first step of a chain whose coefficient 0.4 |x - 1| vanishes at
    its start atom 1.0, which stays put."""
    from martquant.chain import MixtureTransitionLaw, euler_thetas, theta_abs_shifted

    trunc = TruncatedLaw.centered(Normal(0, 1), -2.0)
    theta = euler_thetas(theta_abs_shifted(0.4, 1.0), 1.0, 3)[0]
    points = np.array([0.8, 1.0, 1.2])
    return MixtureTransitionLaw(points, [0.25, 0.5, 0.25], theta(points), trunc)


def _many_atoms():
    gen = make_generator(3, 0)
    points = np.sort(gen.standard_normal(200))
    weights = gen.random(200)
    return DiscreteDistribution(points, weights / weights.sum())


# law, grid size, sweep cap: the Euler mixture is cut after 25 sweeps; the
# atomic laws run to their end, through the atom snap
_RUN_CASES = {
    "euler": (_euler_mixture, 31, 25),
    "atoms": (_many_atoms, 9, 100000),
    "atoms-at-the-truncation-ends": (_atoms_at_the_ends_step, 9, 100000),
    "a-source-that-stays-put": (_still_source_mixture, 9, 100000),
}


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_dual_lloyd_matches_the_sweep_before_the_lean_round_bit_for_bit(case, monkeypatch):
    make_law, n_points, max_iter = _RUN_CASES[case]
    law = make_law()
    ref_law, new_law = _RecordingLaw(law), _RecordingLaw(law)
    # where each reference solve starts in the F batches: its first two
    # batches, F at the bracket ends, the sweep hands to the solver instead
    solve_starts = []

    def solve_reference(law, *args, solve=_solve_levels_reference):
        solve_starts.append(len(law.batches))
        return solve(law, *args)

    monkeypatch.setitem(globals(), "_solve_levels_reference", solve_reference)
    ref, ref_order_violation = _dual_lloyd_1d_reference(
        ref_law, n_points, tol=1e-9, max_iter=max_iter
    )
    monkeypatch.undo()
    handed = {i for start in solve_starts for i in (start, start + 1)}
    new = dual_lloyd_1d(new_law, n_points, tol=1e-9, max_iter=max_iter)
    assert new.grid.tobytes() == ref.grid.tobytes()
    assert new.weights.tobytes() == ref.weights.tobytes()
    assert new.distortion == ref.distortion
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    assert not ref_order_violation
    assert new.iterations > 5
    assert solve_starts
    _assert_same_batches(new_law.sweep_batches, ref_law.sweep_batches)
    want = [b for i, b in enumerate(ref_law.batches) if i not in handed]
    _assert_same_batches(new_law.batches, want)
    # the weights and the distortion of the result: one batch at its grid
    assert new_law.sweep_batches[-1].tobytes() == new.grid.tobytes()


@pytest.mark.parametrize(
    "make_law", [_euler_mixture, _still_source_mixture], ids=["euler", "a-source-that-stays-put"]
)
def test_the_kernel_and_the_image_law_share_one_closed_form(make_law):
    """The source weights pushed through ``dual_transition_weights`` onto
    the image law's own dual grid are the ``dual_split`` weights of that
    law; a source where theta = 0 is split where it sits."""
    from martquant.chain import dual_transition_weights

    law = make_law()
    grid = dual_lloyd_1d(law, 9, tol=1e-9).grid
    kernel = dual_transition_weights(law.points, grid, law.theta_values, law.trunc)
    pushed = np.add.reduce(law.weights[:, None] * kernel.matrix, axis=0)
    assert np.abs(pushed - dual_split(grid, law)[0]).max() <= 1e-14
    still = np.flatnonzero(law.theta_values == 0.0)
    assert still.size == (make_law is _still_source_mixture)
    for i in still:
        (j,), (lam_right,) = locate_1d(grid, law.points[i : i + 1])
        split = np.zeros(grid.size)
        split[[j, j + 1]] = 1.0 - lam_right, lam_right
        assert np.abs(kernel.matrix[i] - split).max() <= 1e-15


def _random_finite_law(gen):
    # as many atoms as ``_many_atoms``, or fewer than most grids have points,
    # where several points sit on, or snap to, one atom
    n = 200 if gen.random() < 0.25 else int(gen.integers(2, 13))
    points = np.unique(gen.standard_normal(n))
    weights = gen.random(points.size) + 1e-3
    return DiscreteDistribution(points, weights / weights.sum())


def _random_euler_mixture(gen):
    """A step of an Euler chain from a random finite state."""
    from martquant.chain import MixtureTransitionLaw, euler_thetas, theta_affine_abs

    points = np.unique(gen.uniform(-1.5, 1.5, int(gen.integers(1, 40))))
    theta = euler_thetas(theta_affine_abs(0.4, 0.4), 1.0, int(gen.integers(1, 10)))[0]
    trunc = TruncatedLaw.centered(Normal(0, 1), -float(gen.uniform(0.5, 3.0)))
    return MixtureTransitionLaw(points, gen.dirichlet(np.ones(points.size)), theta(points), trunc)


_INVARIANT_LAWS = {
    "atoms": _random_finite_law,
    "euler": _random_euler_mixture,
    "atoms-at-the-truncation-ends": lambda gen: _atoms_at_the_ends_step(),
}


@given(
    st.sampled_from(sorted(_INVARIANT_LAWS)),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=1, max_value=30),
)
@example("atoms", 25, 24, 10)  # three atoms: points snap onto one atom
@example("atoms", 3, 40, 30)
@settings(max_examples=100, deadline=None)
def test_dual_lloyd_grid_stays_strictly_increasing_on_the_hull(kind, seed, n_points, max_iter):
    """Each sweep moves a point only strictly inside its current neighbours,
    so from a strictly increasing start every grid the sweep returns, at
    any sweep cap, is strictly increasing and ends on the support hull."""
    law = _INVARIANT_LAWS[kind](make_generator(seed, stream=9))
    res = dual_lloyd_1d(law, n_points, tol=1e-13, max_iter=max_iter)
    assert res.grid.size == n_points
    assert np.all(np.diff(res.grid) > 0.0)
    assert (res.grid[0], res.grid[-1]) == law.support


def test_dual_lloyd_rejects_a_start_grid_that_pinning_disorders():
    # both ends lie within 1e-9 of the hull, but pinning the first onto it
    # puts it above the second point
    with pytest.raises(DomainError, match="increasing"):
        dual_lloyd_1d(Uniform(0.0, 1.0), 4, init=[-1e-9, -5e-10, 0.5, 1.0])
    # a hull too narrow for the requested points gives an equispaced start
    # with repeated points
    with pytest.raises(DomainError, match="increasing"):
        dual_lloyd_1d(Uniform(1.0, 1.0 + 4e-16), 8)
