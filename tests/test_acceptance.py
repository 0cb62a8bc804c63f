"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 6-8 exercise the shipped Euler configuration
``configs/euler.json``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from martquant.archmc import (
    batch_standard_error,
    gaussian_tail_bound,
    simulate_coupled,
    truncation_error_bound,
)
from martquant.chain import (
    ArchSpec,
    NoiseSpec,
    build_chain,
    euler_thetas,
    theta_affine_abs,
)
from martquant.dual import Triangulation2D, dual_lloyd_1d, locate_1d
from martquant.laws import Normal, TruncatedLaw, Uniform
from martquant.mot import MotProblem, mot_bounds, quadratic_payoff, spread_payoff, stability_experiment
from martquant.order import (
    DiscreteDistribution,
    abs_deviation,
    call_payoff,
    convex_order_check,
    moment_vs_wasserstein_scan,
    path_max_call,
)
from martquant.primal import lloyd_1d
from martquant.rng import make_generator

from oracles import chain_marginals, domination_rows, random_max_affine


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def _shipped_euler():
    """The shipped Euler configuration: 5 steps, theta(x) = sqrt(T/n) 0.4(1+|x|),
    truncated standard normal noise, X0 ~ U(0.9, 1.1) at 31 points."""
    cfg = json.loads((Path(__file__).parent.parent / "configs" / "euler.json").read_text())
    base = theta_affine_abs(cfg["theta"]["a"], cfg["theta"]["b"])
    thetas = euler_thetas(base, cfg["euler"]["horizon"], cfg["steps"])
    alpha = cfg["noise"]["law"]["truncation"]["alpha"]
    x0 = Uniform(cfg["x0"]["a"], cfg["x0"]["b"])
    sizes = [cfg["sizes"]["n0"]] + [cfg["sizes"]["n"]] * cfg["steps"]
    return thetas, alpha, x0, sizes, cfg["paths"]


def test_criterion_1_uniform_primal_optimum():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 8, 16, 32):
        init = np.sort(Uniform(0, 1).quantile((np.arange(1, n + 1) - 0.3) / (n + 1)))
        res = lloyd_1d(Uniform(0, 1), n, init=init, tol=1e-14)
        target = (2 * np.arange(1, n + 1) - 1) / (2 * n)
        ok &= bool(np.abs(res.grid - target).max() < 1e-10)
        ok &= abs(n * res.distortion - 1 / (2 * math.sqrt(3))) < 1e-10
    _report(1, "uniform primal optimum", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_uniform_dual_optimum():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 5, 9, 17):
        init = np.linspace(0, 1, n)
        init[1:-1] += 0.3 / n * np.sin(np.arange(1, n - 1) + 1.0)
        res = dual_lloyd_1d(Uniform(0, 1), n, init=np.sort(init), tol=1e-13)
        target = np.linspace(0, 1, n)
        ok &= res.converged
        ok &= bool(np.abs(res.grid - target).max() < 1e-10)
        ok &= abs((n - 1) * res.distortion - 1 / math.sqrt(6)) < 1e-10
    _report(2, "uniform dual optimum", ok, time.perf_counter() - t0, 1.0)


def test_criterion_3_projection_counterexample():
    t0 = time.perf_counter()
    rep = moment_vs_wasserstein_scan(1e-4)
    ok = abs(rep.u_star_moment - 1.0 / 3.0) <= 1e-4
    ok &= abs(rep.u_star_w2 - 0.326) <= 2e-3
    ok &= rep.derivative_sign_at_third == 1
    _report(3, "moment vs W2 minimizer scan", ok, time.perf_counter() - t0, 1.0)


def test_criterion_4_mot_quadratic_identity():
    t0 = time.perf_counter()
    gen = make_generator(4040)
    ok = True
    for _ in range(10):
        m = int(gen.integers(12, 41))
        pts = np.sort(gen.normal(size=m)) * float(gen.uniform(0.5, 2.0))
        w = gen.random(m)
        w /= w.sum()
        nu = DiscreteDistribution(pts, w)
        n_groups = int(gen.integers(2, min(m, 41)))
        groups = np.array_split(np.arange(m), n_groups)
        mu = DiscreteDistribution(
            [float(np.average(pts[g], weights=w[g])) for g in groups],
            [float(w[g].sum()) for g in groups],
        )
        res = mot_bounds(MotProblem([mu, nu], quadratic_payoff))
        expected = nu.second_moment - mu.second_moment
        ok &= abs(res.lower - expected) < 1e-8
        ok &= res.upper - res.lower < 1e-8
    _report(4, "MOT quadratic identity", ok, time.perf_counter() - t0, 30.0)


def test_criterion_5_stability_trend():
    t0 = time.perf_counter()
    rows = stability_experiment(
        Uniform(-1, 1), Uniform(-2, 2), spread_payoff, [(8, 8), (16, 16), (32, 32), (64, 64)]
    )
    ok = True
    for key in ("lower", "upper"):
        vals = [r[key] for r in rows]
        deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
        ok &= all(d2 <= d1 for d1, d2 in zip(deltas, deltas[1:]))
        ok &= deltas[-1] < 0.01
    _report(5, "MOT stability trend", ok, time.perf_counter() - t0, 120.0)


def test_criterion_6_chain_invariants():
    t0 = time.perf_counter()
    thetas, alpha, x0, sizes, _ = _shipped_euler()
    trunc = TruncatedLaw.centered(Normal(0, 1), alpha)
    chain = build_chain(ArchSpec(thetas), [NoiseSpec.truncated(trunc)] * 5, x0, sizes)
    ok = all(k.martingale_residual() < 1e-9 for k in chain.kernels)
    mean0 = chain.marginal(0).mean
    ok &= all(abs(chain.marginal(k).mean - mean0) < 1e-9 for k in range(6))
    ok &= all(
        convex_order_check(chain.marginal(k), chain.marginal(k + 1)).dominated
        for k in range(5)
    )
    _report(6, "chain invariants", ok, time.perf_counter() - t0, 30.0)


def test_criterion_7_finite_noise_exactness():
    t0 = time.perf_counter()
    thetas, _, x0, sizes, n_paths = _shipped_euler()
    arch = ArchSpec(thetas)
    spec = NoiseSpec.quantized_from(Normal(0, 1), 7)
    chain = build_chain(arch, [spec] * 5, x0, sizes)
    sample = simulate_coupled(arch, [spec] * 5, x0, n_paths, seed=707, chain=chain)
    mc = chain_marginals(sample, chain)
    ok = True
    for k in range(6):
        p = chain.marginal_weights[k]
        got = mc[k]
        # SE floored at one expected count to keep the normal approximation
        # honest on near-empty atoms
        se = np.sqrt(np.maximum(np.maximum(p, got), 1.0 / n_paths) / n_paths)
        ok &= bool(np.all(np.abs(got - p) <= 4.0 * se))
    _report(7, "finite-noise exactness", ok, time.perf_counter() - t0, 120.0)


def test_criterion_8_truncation_bound():
    thetas, _, x0, _, n_paths = _shipped_euler()
    arch = ArchSpec(thetas)
    ok_all = True
    t_all = time.perf_counter()
    for a in (1.0, 1.5, 2.0):
        t0 = time.perf_counter()
        trunc = TruncatedLaw.centered(Normal(0, 1), -a)
        noise_gap = Normal(0, 1).second_moment - trunc.second_moment
        refined, _ = truncation_error_bound(
            [t.lipschitz for t in thetas],
            [t.c_envelope for t in thetas],
            1,
            x0.second_moment,
            0.0,
            [noise_gap] * 5,
        )
        sample = simulate_coupled(arch, [NoiseSpec.truncated(trunc)] * 5, x0, n_paths, seed=808)
        ok = True
        for k in range(6):
            gap_sq = (sample.exact[k] - sample.approx[k]) ** 2
            emp_sq = float(gap_sq.mean())
            emp = math.sqrt(emp_sq)
            se_sq = batch_standard_error(gap_sq)
            se_norm = se_sq / (2.0 * emp) if emp > 0 else 0.0
            ok &= refined[k] - emp >= -3.0 * se_norm
        diff = np.abs(sample.exact - sample.approx)
        sup_sq = diff.max(axis=0) ** 2
        end_sq = (sample.exact[-1] - sample.approx[-1]) ** 2
        rel_se = batch_standard_error(end_sq) / max(float(end_sq.mean()), 1e-300)
        doob_ok = math.sqrt(float(sup_sq.mean())) <= 2.0 * math.sqrt(
            float(end_sq.mean())
        ) * (1.0 + 3.0 * rel_se)
        ok &= doob_ok
        elapsed = time.perf_counter() - t0
        ok_all &= ok and elapsed < 120.0
    _report(8, "truncation error bound", ok_all, time.perf_counter() - t_all, 360.0)


def test_criterion_9_gaussian_tail_bounds():
    t0 = time.perf_counter()
    ok = True
    for a in (1.0, 2.0, 3.0, 4.0):
        tail = 2 * quad(
            lambda z: z * z * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), a, 60
        )[0]
        ok &= tail <= gaussian_tail_bound(a, 1) + 1e-12
    for a in (3.0, 4.0, 5.0):
        tail = quad(lambda r: r ** 3 * math.exp(-r * r / 2), a, 60)[0]
        ok &= tail <= gaussian_tail_bound(a, 2) + 1e-12
    _report(9, "Gaussian tail bounds", ok, time.perf_counter() - t0, 1.0)


def test_criterion_10_domination():
    t0 = time.perf_counter()
    arch = ArchSpec([theta_affine_abs(0.3, 0.3)] * 4)
    trunc = TruncatedLaw.centered(Normal(0, 1), -1.5)
    battery = (
        [path_max_call(5, k) for k in (0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5)]
        + [call_payoff(5, axis, 1.0) for axis in range(5)]
        + [abs_deviation(5, np.full(5, c), directions=12, seed=s) for c, s in ((0.0, 1), (1.0, 2), (-0.5, 3))]
        + random_max_affine(5, count=5, seed=10)
    )
    assert len(battery) == 20
    sample = simulate_coupled(arch, [NoiseSpec.truncated(trunc)] * 4, 1.0, 1_000_000, seed=909)
    ok = all(passed for _, _, passed in domination_rows(sample.exact, sample.approx, battery))
    _report(10, "convex-order domination", ok, time.perf_counter() - t0, 180.0)


def test_criterion_11_splitting_stationarity():
    t0 = time.perf_counter()
    gen = make_generator(111)
    ok = True
    # 1D: 5000 queries across random hulls
    for _ in range(50):
        pts = np.unique(np.round(gen.normal(size=int(gen.integers(2, 9))) * 4, 9))
        if pts.size < 2:
            continue
        qs = gen.uniform(pts[0], pts[-1], size=100)
        j, lam_right = locate_1d(pts, qs)
        lam = np.stack([1.0 - lam_right, lam_right], axis=1)
        ok &= bool(lam.min() >= 0.0)
        ok &= bool(np.abs(lam.sum(axis=1) - 1.0).max() < 1e-12)
        rebuilt = lam[:, 0] * pts[j] + lam[:, 1] * pts[j + 1]
        ok &= bool(np.abs(rebuilt - qs).max() < 1e-10)
    # 2D: 5000 queries across random triangulations
    for _ in range(10):
        cloud = gen.normal(size=(int(gen.integers(6, 25)), 2)) * 2.0
        tri = Triangulation2D.delaunay(cloud)
        w = gen.random((500, cloud.shape[0]))
        w /= w.sum(axis=1, keepdims=True)
        queries = w @ cloud
        tri_idx, lam = tri.locate(queries)
        ok &= bool(lam.min() >= 0.0)
        ok &= bool(np.abs(lam.sum(axis=1) - 1.0).max() < 1e-12)
        rebuilt = np.einsum("qc,qcd->qd", lam, tri.vertices[tri.triangles[tri_idx]])
        ok &= bool(np.abs(rebuilt - queries).max() < 1e-10)
    _report(11, "splitting stationarity", ok, time.perf_counter() - t0, 1.0)
