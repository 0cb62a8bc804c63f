import numpy as np
import pytest

from martquant.errors import BudgetExceeded, NotInConvexOrder
from martquant.laws import Uniform
from martquant.mot import (
    MotProblem,
    forward_start_payoff,
    mot_bounds,
    quadratic_payoff,
    spread_payoff,
    stability_experiment,
)
from martquant.order import DiscreteDistribution
from martquant.rng import make_generator


def _contract(nu: DiscreteDistribution, n_groups: int) -> DiscreteDistribution:
    x, w = nu.atoms()
    groups = np.array_split(np.arange(nu.n_atoms), n_groups)
    pts = [float(np.average(x[g], weights=w[g])) for g in groups]
    ws = [float(w[g].sum()) for g in groups]
    return DiscreteDistribution(pts, ws)


def test_point_mass_start_forces_variance():
    nu = DiscreteDistribution([0.0, 0.5, 2.0], [0.5, 0.25, 0.25])
    m = nu.mean
    mu = DiscreteDistribution([m], [1.0])
    res = mot_bounds(MotProblem([mu, nu], quadratic_payoff))
    var = nu.second_moment - m * m
    assert res.lower == pytest.approx(var, abs=1e-10)
    assert res.upper == pytest.approx(var, abs=1e-10)


def test_quadratic_payoff_is_moment_difference():
    gen = make_generator(11)
    for _ in range(4):
        m = int(gen.integers(6, 14))
        nu = DiscreteDistribution(np.sort(gen.normal(size=m)) * 1.3, np.full(m, 1.0 / m))
        mu = _contract(nu, max(2, m // 3))
        res = mot_bounds(MotProblem([mu, nu], quadratic_payoff))
        expected = nu.second_moment - mu.second_moment
        assert res.lower == pytest.approx(expected, abs=1e-8)
        assert res.upper - res.lower < 1e-8


def test_equal_marginals_identity_coupling():
    eq = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    res = mot_bounds(MotProblem([eq, eq], spread_payoff))
    assert res.lower == pytest.approx(0.0, abs=1e-12)
    assert res.upper == pytest.approx(0.0, abs=1e-12)
    plan = dict(res.coupling_lower)
    assert plan[(0, 0)] == pytest.approx(0.5) and plan[(1, 1)] == pytest.approx(0.5)


def test_coupling_constraints_hold():
    gen = make_generator(3)
    nu = DiscreteDistribution(np.sort(gen.normal(size=9)), np.full(9, 1.0 / 9))
    mu = _contract(nu, 4)
    res = mot_bounds(MotProblem([mu, nu], spread_payoff))
    assert res.marginal_residual < 1e-8
    assert res.martingale_residual < 1e-8
    # coupling masses rebuild both marginals
    for coupling in (res.coupling_lower, res.coupling_upper):
        row = np.zeros(mu.n_atoms)
        col = np.zeros(nu.n_atoms)
        for (i, j), mass in coupling:
            row[i] += mass
            col[j] += mass
        assert np.abs(row - mu.weights).max() < 1e-8
        assert np.abs(col - nu.weights).max() < 1e-8


def test_upper_equals_negated_lower_of_negated_cost():
    gen = make_generator(5)
    nu = DiscreteDistribution(np.sort(gen.normal(size=7)), np.full(7, 1.0 / 7))
    mu = _contract(nu, 3)
    r1 = mot_bounds(MotProblem([mu, nu], spread_payoff))
    r2 = mot_bounds(MotProblem([mu, nu], lambda x, y: -spread_payoff(x, y)))
    assert r1.upper == pytest.approx(-r2.lower, abs=1e-8)
    assert r1.lower == pytest.approx(-r2.upper, abs=1e-8)


def test_not_in_convex_order_raises_with_witness():
    wide = DiscreteDistribution([-2.0, 2.0], [0.5, 0.5])
    narrow = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    with pytest.raises(NotInConvexOrder) as err:
        mot_bounds(MotProblem([wide, narrow], spread_payoff))
    assert err.value.witness is not None


def test_budget_guard():
    # 1001 x 1000 coupling variables exceed the budget of 10^6; no LP is built
    mu = DiscreteDistribution(np.linspace(-1.0, 1.0, 1001), np.full(1001, 1 / 1001))
    nu = DiscreteDistribution(np.linspace(-2.0, 2.0, 1000), np.full(1000, 1 / 1000))
    message = "1001000 coupling variables exceed budget 1000000"
    with pytest.raises(BudgetExceeded, match=message):
        MotProblem([mu, nu], quadratic_payoff)


def _three_marginals():
    z0 = DiscreteDistribution([0.0], [1.0])
    z1 = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    z2 = DiscreteDistribution([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    return z0, z1, z2


def test_three_marginals():
    z0, z1, z2 = _three_marginals()
    res = mot_bounds(MotProblem([z0, z1, z2], lambda x, y, z: np.maximum(z - x, 0.0)))
    # payoff depends only on the extreme marginals here: both bounds agree
    assert res.lower == pytest.approx(0.5, abs=1e-9)
    assert res.upper == pytest.approx(0.5, abs=1e-9)
    spread3 = mot_bounds(MotProblem([z0, z1, z2], lambda x, y, z: np.abs(z - y)))
    assert spread3.lower <= spread3.upper
    assert spread3.lower >= -1e-12


def _martingale_residual_oracle(problem, coupling):
    """max over steps, prefixes and axes of |sum x (y_{k+1} - y_k)|."""
    worst = 0.0
    for k in range(len(problem.marginals) - 1):
        x, y = problem.marginals[k].points, problem.marginals[k + 1].points
        drift = {}
        for cell, mass in coupling:
            prefix = cell[: k + 1]
            drift[prefix] = drift.get(prefix, 0.0) + mass * (y[cell[k + 1]] - x[cell[k]])
        worst = max([worst] + [float(np.abs(v).max()) for v in drift.values()])
    return worst


def test_martingale_residual_matches_conditional_mean_oracle():
    gen = make_generator(9)
    nu = DiscreteDistribution(gen.normal(size=(7, 2)), np.full(7, 1.0 / 7))
    groups = np.array_split(np.arange(7), 3)
    mu = DiscreteDistribution(
        [nu.points[g].mean(axis=0) for g in groups], [g.size / 7 for g in groups]
    )
    problems = [
        MotProblem([mu, nu], lambda x, y: np.linalg.norm(y - x, axis=-1)),
        MotProblem(_three_marginals(), lambda x, y, z: np.abs(z - y)),
    ]
    for problem in problems:
        res = mot_bounds(problem)
        want = max(
            _martingale_residual_oracle(problem, res.coupling_lower),
            _martingale_residual_oracle(problem, res.coupling_upper),
        )
        assert res.martingale_residual == pytest.approx(want, abs=1e-12)
        assert res.martingale_residual < 1e-8


def test_payoff_matrix_input():
    mu = DiscreteDistribution([0.0], [1.0])
    nu = DiscreteDistribution([-1.0, 1.0], [0.5, 0.5])
    table = np.array([[3.0, 5.0]])
    res = mot_bounds(MotProblem([mu, nu], lambda *_: table))
    assert res.lower == pytest.approx(4.0, abs=1e-10)  # forced coupling mixes rows


def test_forward_start_payoff():
    f = forward_start_payoff(0.5)
    assert f(0.0, 1.0) == 0.5
    assert f(0.0, 0.2) == 0.0


def test_stability_rows_structure_and_trend():
    rows = stability_experiment(
        Uniform(-1, 1), Uniform(-2, 2), spread_payoff, [(8, 8), (16, 16)]
    )
    assert [r["N"] for r in rows] == [8, 16]
    assert rows[0]["lower"] >= rows[1]["lower"] - 1e-9  # lower bounds tighten down
    assert rows[0]["upper"] >= rows[1]["upper"] - 1e-9
    assert all(set(r) == {"N", "M", "lower", "upper"} for r in rows)
    assert all(r["lower"] <= r["upper"] + 1e-8 for r in rows)


def test_quadratic_stability_matches_variance_difference():
    rows = stability_experiment(
        Uniform(-1, 1), Uniform(-2, 2), quadratic_payoff, [(8, 8), (16, 16)]
    )
    # quantization of U(-1,1) primally and U(-2,2) dually: each level gives a
    # pair whose quadratic cost is the second-moment difference, and at the
    # uniform optimal grids that difference is closed-form:
    # E x^2 drops by the primal distortion 1/(3N^2), E y^2 grows by the dual
    # distortion 8/(3(M-1)^2), around the limit 4/3 - 1/3 = 1
    for row in rows:
        assert row["upper"] - row["lower"] < 1e-8
        n, m = row["N"], row["M"]
        exact = 1.0 + 8.0 / (3.0 * (m - 1) ** 2) + 1.0 / (3.0 * n * n)
        assert row["lower"] == pytest.approx(exact, abs=1e-8)

