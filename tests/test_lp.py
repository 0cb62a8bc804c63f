import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from martquant.errors import DomainError
from martquant.lp import LinearProgram, LpSolution, export_lp_text, solve
from martquant.mot import MotProblem, forward_start_payoff, spread_payoff
from martquant.order import DiscreteDistribution, convex_order_check, coupling_lp
from martquant.rng import make_generator


def test_single_variable():
    sol = solve(LinearProgram([1.0], [[1.0]], [3.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-12)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_with_farkas():
    # x1 + x2 = 1 and x1 - x2 = 3 force x2 = -1 < 0
    lp = LinearProgram([0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0])
    sol = solve(lp)
    assert sol.status == "infeasible"
    y = sol.farkas
    assert y @ lp.rhs > 1e-9
    assert np.all(y @ lp.constraint_matrix <= 1e-9)


def test_transportation_2x2():
    cost = np.array([0.0, 1.0, 1.0, 0.0])
    a = np.array(
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    b = np.array([0.5, 0.5, 0.5, 0.5])
    sol = solve(LinearProgram(cost, a, b))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x, [0.5, 0.0, 0.0, 0.5], atol=1e-10)


def test_unbounded():
    sol = solve(LinearProgram([-1.0, 0.0], [[0.0, 1.0]], [1.0]))
    assert sol.status == "unbounded"


def test_max_sense():
    # max x subject to x + s = 2
    sol = solve(LinearProgram([1.0, 0.0], [[1.0, 1.0]], [2.0], sense="max"))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0, abs=1e-12)


def test_weak_duality_and_feasibility_random():
    gen = make_generator(0)
    for _ in range(60):
        m = int(gen.integers(2, 6))
        n = int(gen.integers(3, 9))
        a = gen.normal(size=(m, n))
        b = a @ gen.random(n)
        c = np.abs(gen.normal(size=n))
        sol = solve(LinearProgram(c, a, b))
        assert sol.status == "optimal"
        assert sol.primal_residual < 1e-8
        assert sol.slackness_residual < 1e-7
        assert sol.duals @ b <= sol.objective_value + 1e-7


def test_determinism():
    gen = make_generator(9)
    a = gen.normal(size=(4, 7))
    b = a @ gen.random(7)
    c = np.abs(gen.normal(size=7))
    lp = LinearProgram(c, a, b)
    s1, s2 = solve(lp), solve(lp)
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)


def test_dimension_validation():
    with pytest.raises(DomainError):
        LinearProgram([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(DomainError):
        LinearProgram([np.inf], [[1.0]], [1.0])
    with pytest.raises(DomainError):
        LinearProgram([1.0], [[1.0]], [1.0], sense="solve")


def test_coupling_duals_satisfy_strong_duality():
    from martquant.order import DiscreteDistribution, coupling_lp

    gen = make_generator(40)
    ys = np.sort(gen.normal(size=10))
    w = gen.random(10)
    w /= w.sum()
    nu = DiscreteDistribution(ys, w)
    groups = np.array_split(np.arange(10), 4)
    mu = DiscreteDistribution(
        [float(np.average(ys[g], weights=w[g])) for g in groups],
        [float(w[g].sum()) for g in groups],
    )
    a, b, _ = coupling_lp([mu, nu])
    cost = np.abs(ys[None, :] - mu.points_1d[:, None]).ravel()
    for sense in ("min", "max"):
        sol = solve(LinearProgram(cost, a, b, sense=sense))
        assert sol.status == "optimal"
        assert sol.primal_residual < 1e-8
        assert sol.slackness_residual < 1e-7
        # strong duality at the optimum
        assert sol.duals @ b == pytest.approx(sol.objective_value, abs=1e-7)


def test_export_lp_text_golden():
    lp = LinearProgram([1.0, -0.5], [[1.0, 2.0]], [3.0], sense="min")
    text = export_lp_text(lp, name="tiny")
    assert text == (
        "\\ tiny\n"
        "Minimize\n"
        " obj: + 1 x0 - 0.5 x1\n"
        "Subject To\n"
        " c0: + 1 x0 + 2 x1 = 3\n"
        "Bounds\n"
        " 0 <= x0\n"
        " 0 <= x1\n"
        "End\n"
    )
    # byte stability
    assert export_lp_text(lp, name="tiny") == text


def test_solution_dataclass_shape():
    sol = solve(LinearProgram([1.0], [[1.0]], [2.0]))
    assert isinstance(sol, LpSolution)
    assert sol.farkas is None


def _coarsen(nu, n_groups):
    # barycenters of consecutive groups of atoms are dominated by nu in
    # convex order, so a martingale coupling exists
    groups = np.array_split(np.arange(nu.n_atoms), n_groups)
    w = nu.weights
    return DiscreteDistribution(
        [float(np.average(nu.points_1d[g], weights=w[g])) for g in groups],
        [float(w[g].sum()) for g in groups],
    )


def _random_marginal(gen, n):
    w = gen.random(n) + 0.1
    return DiscreteDistribution(np.sort(gen.normal(size=n)), w / w.sum())


def _mot_instances():
    gen = make_generator(11)
    for n_nu in (8, 13, 21, 32):
        nu = _random_marginal(gen, n_nu)
        mu = _coarsen(nu, int(gen.integers(2, n_nu // 2 + 1)))
        a, b, _ = coupling_lp([mu, nu])
        table = gen.normal(size=(mu.n_atoms, n_nu))
        for payoff in (spread_payoff, forward_start_payoff(0.3), lambda *_: table):
            cost = MotProblem([mu, nu], payoff).cost_tensor().ravel()
            yield f"two-{n_nu}", cost, a, b
    x2 = _random_marginal(gen, 9)
    x1 = _coarsen(x2, 5)
    x0 = _coarsen(x1, 2)
    problem = MotProblem([x0, x1, x2], lambda u, v, w: np.abs(w - u) + (v - u) ** 2)
    a, b, _ = coupling_lp(problem.marginals)
    yield "three", problem.cost_tensor().ravel(), a, b


@pytest.mark.parametrize("sense", ["min", "max"])
def test_dual_ipm_matches_primal_simplex_on_mot_instances(sense):
    sign = 1.0 if sense == "min" else -1.0
    for name, cost, a, b in _mot_instances():
        lp = LinearProgram(cost, a, b, sense=sense)
        sol = solve(lp)
        ref = linprog(sign * cost, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert sol.status == "optimal" and ref.status == 0, name
        v = sign * ref.fun
        assert abs(sol.objective_value - v) <= 1e-9 * max(1.0, abs(v)), name
        # a vertex of {A x = b, x >= 0} has at most n_rows positive entries
        assert np.count_nonzero(sol.x > 1e-12) <= lp.n_rows, name
        assert sol.duals @ b == pytest.approx(sol.objective_value, abs=1e-7), name
        assert sol.primal_residual <= 1e-6, name
        assert sol.slackness_residual < 1e-7, name


@pytest.mark.parametrize("sense", ["min", "max"])
@pytest.mark.parametrize(
    "objective, a, b",
    [
        # x1 + x2 = 1 and x1 - x2 = 3 force x2 = -1 < 0; the dual is unbounded
        ([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 3.0]),
        # x2 = -1 < 0; for the min the dual row 0 y <= -1 is infeasible too
        ([-1.0, 0.0], [[0.0, 1.0]], [-1.0]),
    ],
)
def test_infeasible_with_objective_gives_farkas(objective, a, b, sense):
    lp = LinearProgram(objective, a, b, sense=sense)
    sol = solve(lp)
    assert sol.status == "infeasible"
    assert sol.x is None and sol.duals is None
    y = sol.farkas
    assert y @ lp.rhs > 1e-9
    assert np.all(y @ lp.constraint_matrix <= 1e-9)


@pytest.mark.parametrize(
    "objective, a, b, sense",
    [
        # x1 - x2 = 1 lets x1 and x2 grow together
        ([-1.0, 0.0], [[1.0, -1.0]], [1.0], "min"),
        ([1.0, 0.0], [[1.0, -1.0]], [1.0], "max"),
        ([-1.0, 0.0, 1.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0], "min"),
    ],
)
def test_unbounded_with_objective(objective, a, b, sense):
    sol = solve(LinearProgram(objective, a, b, sense=sense))
    assert sol.status == "unbounded"
    assert sol.x is None and sol.farkas is None


def test_objective_selects_the_highs_method(monkeypatch):
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog

    def spy(*args, **kwargs):
        calls.append((kwargs["method"], kwargs["options"]["presolve"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    a, b = [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0]
    assert solve(LinearProgram([0.0, 0.0], a, b)).status == "optimal"
    assert calls == [("highs", False)]
    calls.clear()
    for sense in ("min", "max"):
        assert solve(LinearProgram([1.0, 2.0], a, b, sense=sense)).status == "optimal"
    assert calls == [("highs-ipm", False), ("highs-ipm", False)]
    calls.clear()
    # x1 + x2 = 1 and x1 + x2 = 2: infeasible, and the Farkas auxiliary LP
    # runs with the same options
    sol = solve(LinearProgram([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0]))
    assert sol.status == "infeasible"
    assert calls == [("highs", False), ("highs", False)]


def _bump_path_law(noise_points, noise_weights, steps=3):
    """Law in R^steps of the paths of x -> x + theta(x) z from x0 = 1, with
    the narrow bump theta(x) = 0.02 + 0.8 exp(-40 (x - 1)^2), which is not
    convex, and a finite noise z."""
    points, weights = [], []
    for combo in itertools.product(range(len(noise_points)), repeat=steps):
        x, path, p = 1.0, [], 1.0
        for i in combo:
            x = x + (0.02 + 0.8 * math.exp(-40.0 * (x - 1.0) ** 2)) * noise_points[i]
            path.append(x)
            p *= noise_weights[i]
        points.append(path)
        weights.append(p)
    return DiscreteDistribution(points, weights)


def test_feasibility_lp_in_numerical_trouble_still_decides():
    # the noise {-2, -1, 0, 1, 2} with weights {.1, .2, .4, .2, .1}, and its
    # truncation to [-1, 1] with the clipped mass at 0: 27 truncated against
    # 125 exact paths.  The dual simplex ends this coupling LP with HiGHS
    # status 4; interior point finds it infeasible.
    exact = _bump_path_law([-2.0, -1.0, 0.0, 1.0, 2.0], [0.1, 0.2, 0.4, 0.2, 0.1])
    truncated = _bump_path_law([-1.0, 0.0, 1.0], [0.2, 0.6, 0.2])
    assert (truncated.n_atoms, exact.n_atoms) == (27, 125)
    check = convex_order_check(truncated, exact)
    assert check.status == "not_dominated"
    assert check.witness_gap == pytest.approx(4.4e-3, rel=0.02)
    phi = check.witness
    assert truncated.expectation(phi) - exact.expectation(phi) == check.witness_gap
