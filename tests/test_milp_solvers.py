"""Tests for the LP/MILP solver backends.

The pure-Python simplex and branch-and-bound implementations are
cross-checked against ``scipy`` (HiGHS) on randomly generated instances via
hypothesis, and both are exercised on hand-written instances with known
optima.  Facade tests that need the scipy-free path request the
``no_scipy`` fixture; HiGHS-only cases skip when scipy is not installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.milp.branch_and_bound import BnbOptions, solve_branch_and_bound
from repro.milp.expression import VarType, lin_sum
from repro.milp.lp_backend import scipy_available, solve_lp
from repro.milp.model import Model, ObjectiveSense
from repro.milp.result import SolveStatus
from repro.milp.scipy_backend import highs_available, solve_with_highs
from repro.milp.simplex import solve_lp_simplex
from repro.milp.solver import MilpSolver, SolverBackend


def small_lp():
    """max 3x + 2y s.t. x + y <= 4, x <= 2, x,y >= 0  -> optimum 10 at (2,2)."""
    c = np.array([-3.0, -2.0])  # minimise form
    a_ub = np.array([[1.0, 1.0], [1.0, 0.0]])
    b_ub = np.array([4.0, 2.0])
    a_eq = np.zeros((0, 2))
    b_eq = np.zeros(0)
    lower = np.zeros(2)
    upper = np.array([np.inf, np.inf])
    return c, a_ub, b_ub, a_eq, b_eq, lower, upper


class TestSimplex:
    def test_known_optimum(self):
        solution = solve_lp_simplex(*small_lp())
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-10.0)
        assert np.allclose(solution.x, [2.0, 2.0])

    def test_infeasible_detected(self):
        c = np.array([1.0])
        a_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])  # x <= 1 and x >= 3
        solution = solve_lp_simplex(
            c, a_ub, b_ub, np.zeros((0, 1)), np.zeros(0), np.zeros(1), np.array([np.inf])
        )
        assert solution.status == "infeasible"

    def test_unbounded_detected(self):
        c = np.array([-1.0])
        solution = solve_lp_simplex(
            c,
            np.zeros((0, 1)),
            np.zeros(0),
            np.zeros((0, 1)),
            np.zeros(0),
            np.zeros(1),
            np.array([np.inf]),
        )
        assert solution.status in ("unbounded", "optimal")
        # With no constraints the bounded direction is reported as optimal at
        # the bound; a cost pushing to +inf must not be reported optimal.
        if solution.status == "optimal":
            assert not np.isfinite(solution.objective) or solution.objective <= -0.0

    def test_equality_constraints(self):
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, 1.0]])
        b_eq = np.array([3.0])
        solution = solve_lp_simplex(
            c, np.zeros((0, 2)), np.zeros(0), a_eq, b_eq, np.zeros(2), np.array([np.inf, np.inf])
        )
        assert solution.is_optimal
        assert solution.objective == pytest.approx(3.0)

    def test_upper_bounds_respected(self):
        c = np.array([-1.0, -1.0])
        solution = solve_lp_simplex(
            c,
            np.zeros((0, 2)),
            np.zeros(0),
            np.zeros((0, 2)),
            np.zeros(0),
            np.zeros(2),
            np.array([1.5, 2.5]),
        )
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-4.0)

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    @given(
        n=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_simplex_matches_scipy_on_random_lps(self, n, m, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-5, 5, n)
        a_ub = rng.uniform(-2, 3, (m, n))
        b_ub = rng.uniform(1, 10, m)
        lower = np.zeros(n)
        upper = rng.uniform(1, 8, n)
        ours = solve_lp_simplex(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
        theirs = solve_lp(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
        # Bounded feasible region (0 <= x <= upper), so both must be optimal.
        assert ours.is_optimal and theirs.is_optimal
        assert ours.objective == pytest.approx(theirs.objective, rel=1e-6, abs=1e-6)

    @pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
    def test_scipy_lp_reads_infinite_upper_bounds_as_unbounded(self):
        from scipy.optimize import linprog

        # Columns 0 and 2 are unbounded above; only the rows cap them.
        c = np.array([-1.0, 1.0, -0.5])
        a_ub = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]])
        b_ub = np.array([4.0, 2.0])
        lower = np.array([0.0, 0.0, -1.0])
        upper = np.array([np.inf, 3.0, np.inf])
        ours = solve_lp(c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0), lower, upper)
        # The same LP with bounds as (lo, hi-or-None) pairs.
        pairs = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(0.0, None), (0.0, 3.0), (-1.0, None)],
            method="highs",
        )
        assert ours.is_optimal and pairs.status == 0
        assert ours.objective == pairs.fun == pytest.approx(-2.5)
        assert np.array_equal(ours.x, pairs.x)
        reference = solve_lp_simplex(
            c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0), lower, upper
        )
        assert reference.objective == pytest.approx(ours.objective)


def knapsack_model() -> Model:
    """A small 0/1 knapsack with known optimum 11 (items 0 and 2)."""
    model = Model("knapsack", sense=ObjectiveSense.MAXIMIZE)
    values = [6.0, 4.0, 5.0]
    weights = [3.0, 3.0, 2.0]
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.add_constr(lin_sum(w * x for w, x in zip(weights, items)) <= 5.0)
    model.set_objective(lin_sum(v * x for v, x in zip(values, items)))
    return model


class TestBranchAndBound:
    def test_knapsack_optimum(self):
        result = solve_branch_and_bound(knapsack_model())
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(11.0)

    def test_infeasible_model(self):
        model = Model("infeasible")
        x = model.add_binary("x")
        model.add_constr(x >= 2)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_respects_node_limit(self):
        result = solve_branch_and_bound(knapsack_model(), BnbOptions(node_limit=1))
        assert result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.TIMEOUT)

    def test_mixed_integer_continuous(self):
        model = Model("mixed", sense=ObjectiveSense.MAXIMIZE)
        x = model.add_binary("x")
        y = model.add_continuous("y", 0.0, 10.0)
        model.add_constr(y <= 3 + 2 * x)
        model.set_objective(y + x)
        result = solve_branch_and_bound(model)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(6.0)

    @pytest.mark.skipif(not highs_available(), reason="scipy.optimize.milp not available")
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_bnb_matches_highs_on_random_knapsacks(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        values = rng.uniform(1, 10, n)
        weights = rng.uniform(1, 5, n)
        capacity = float(weights.sum() * rng.uniform(0.3, 0.8))
        model = Model("rand", sense=ObjectiveSense.MAXIMIZE)
        items = [model.add_binary(f"i{k}") for k in range(n)]
        model.add_constr(lin_sum(w * x for w, x in zip(weights, items)) <= capacity)
        model.set_objective(lin_sum(v * x for v, x in zip(values, items)))
        ours = solve_branch_and_bound(model)
        theirs = solve_with_highs(model)
        assert ours.status is SolveStatus.OPTIMAL
        assert theirs.objective == pytest.approx(ours.objective, rel=1e-6, abs=1e-6)


class TestSolverFacade:
    def test_auto_backend_resolution(self):
        expected = SolverBackend.HIGHS if highs_available() else SolverBackend.BRANCH_AND_BOUND
        assert MilpSolver().resolved_backend() is expected

    def test_explicit_bnb_backend(self, no_scipy):
        solver = MilpSolver()
        assert solver.resolved_backend() is SolverBackend.BRANCH_AND_BOUND
        result = solver.solve(knapsack_model())
        assert result.objective == pytest.approx(11.0)
        assert result.backend == "branch_and_bound"
        assert result.lp_counters  # node LPs ran on the in-repo simplex

    def test_explicit_highs_backend(self):
        pytest.importorskip("scipy")
        solver = MilpSolver()
        assert solver.resolved_backend() is SolverBackend.HIGHS
        result = solver.solve(knapsack_model())
        assert result.objective == pytest.approx(11.0)
        assert result.backend == "highs"

    def test_time_limit_override(self, no_scipy):
        solver = MilpSolver(time_limit=100.0)
        result = solver.solve(knapsack_model(), time_limit=10.0)
        assert result.has_solution

    def test_is_usable_status(self, no_scipy):
        solver = MilpSolver()
        good = solver.solve(knapsack_model())
        assert solver.is_usable_status(good)
        model = Model("bad")
        x = model.add_binary("x")
        model.add_constr(x >= 2)
        bad = solver.solve(model)
        assert not solver.is_usable_status(bad)

    def test_result_gap_and_lookup(self, no_scipy):
        solver = MilpSolver()
        result = solver.solve(knapsack_model())
        assert result.value_by_name("item0") in (0.0, 1.0)
        gap = result.gap()
        assert gap is None or gap >= 0.0
