"""Dual-simplex warm starts and solver counters.

The contract under test: a warm re-solve of a *perturbed* system (changed
bounds and right-hand sides over the same rows/columns) resumed with the
dual simplex returns exactly the optimum a cold primal solve returns, which
in turn matches the dense reference tableau, including on degenerate and
fixed-variable LPs.  The hypothesis sections drive these equivalences over
random instances; the unit sections pin the counters and the fallback
reporting.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.milp.simplex import (
    SimplexBasis,
    SolverCounters,
    SOLVER_COUNTER_FIELDS,
    solve_lp_simplex,
)
from repro.api import PlannerConfig
from repro.api.base import PlannerStats, PlanningOutcome
from repro.core.planner import SQPRPlanner
from repro.dsps.query import Query
from repro.milp import Model, ObjectiveSense
from repro.milp.branch_and_bound import BnbOptions, solve_branch_and_bound
from repro.milp.result import SolveStatus
from tests.conftest import make_catalog, query_over
from tests.oracles.dense_simplex import solve_lp_dense

common_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_lp(seed: int, n: int = 10, m_ub: int = 6, m_eq: int = 2):
    """A bounded LP with a guaranteed-feasible interior point."""
    rng = np.random.default_rng(seed)
    a_ub = rng.normal(size=(m_ub, n)) * (rng.random((m_ub, n)) < 0.6)
    a_eq = rng.normal(size=(m_eq, n)) * (rng.random((m_eq, n)) < 0.7)
    x0 = rng.uniform(0.2, 0.8, n)
    b_ub = a_ub @ x0 + rng.uniform(0.05, 0.8, m_ub)
    b_eq = a_eq @ x0
    c = rng.normal(size=n)
    lower = np.zeros(n)
    upper = np.ones(n)
    return c, a_ub, b_ub, a_eq, b_eq, lower, upper


def _perturb(seed: int, b_ub, b_eq, lower, upper):
    """Random bound tightenings + RHS shifts (may make the LP infeasible)."""
    rng = np.random.default_rng(seed)
    n = len(lower)
    upper2 = upper.copy()
    upper2[rng.integers(0, n, max(1, n // 4))] = 0.0
    b_ub2 = b_ub - rng.uniform(0.0, 0.5, len(b_ub))
    b_eq2 = b_eq + rng.normal(scale=0.1, size=len(b_eq))
    return b_ub2, b_eq2, lower, upper2


def _assert_same_optimum(a, b, label):
    assert a.status == b.status, f"{label}: {a.status} != {b.status}"
    if a.status == "optimal":
        scale = max(1.0, abs(a.objective))
        assert abs(a.objective - b.objective) < 1e-6 * scale, (
            f"{label}: {a.objective} != {b.objective}"
        )


class TestDualWarmEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @common_settings
    def test_dual_warm_resolve_matches_cold_and_dense(self, seed):
        """Perturbed re-solve: dual warm == cold primal == dense oracle."""
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(seed)
        base = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        assert base.status == "optimal"
        b_ub2, b_eq2, lower2, upper2 = _perturb(seed + 1, b_ub, b_eq, lower, upper)

        cold = solve_lp_simplex(c, a_ub, b_ub2, a_eq, b_eq2, lower2, upper2)
        warm = solve_lp_simplex(
            c, a_ub, b_ub2, a_eq, b_eq2, lower2, upper2, warm_basis=base.basis
        )
        dense = solve_lp_dense(c, a_ub, b_ub2, a_eq, b_eq2, lower2, upper2)
        _assert_same_optimum(cold, warm, "warm vs cold")
        _assert_same_optimum(cold, dense, "cold vs dense")
        assert warm.warm_status in ("dual_resume", "cold_fallback")

    def test_typical_perturbation_takes_the_dual_path(self):
        """Mild bound/RHS drift resumes via the dual simplex, not cold."""
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(42)
        base = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        warm = solve_lp_simplex(
            c, a_ub, b_ub * 0.97, a_eq, b_eq, lower, upper, warm_basis=base.basis
        )
        assert warm.status == "optimal"
        assert warm.warm_status == "dual_resume"
        assert warm.counters.dual_resumes == 1
        assert warm.counters.phase1_iterations == 0

    def test_infeasible_perturbation_agrees_with_cold(self):
        """A dual infeasibility certificate matches the cold verdict."""
        n = 6
        c = -np.ones(n)
        a_ub = np.ones((1, n))
        b_ub = np.array([3.0])
        no_eq = np.zeros((0, n))
        lower = np.zeros(n)
        upper = np.ones(n)
        base = solve_lp_simplex(c, a_ub, b_ub, no_eq, np.zeros(0), lower, upper)
        assert base.status == "optimal"
        # Force sum(x) <= -1 with x >= 0: clearly infeasible.
        warm = solve_lp_simplex(
            c, a_ub, np.array([-1.0]), no_eq, np.zeros(0), lower, upper,
            warm_basis=base.basis,
        )
        cold = solve_lp_simplex(
            c, a_ub, np.array([-1.0]), no_eq, np.zeros(0), lower, upper
        )
        assert warm.status == cold.status == "infeasible"


class TestDenseOracleEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @common_settings
    def test_degenerate_lps_match_dense_oracle(self, seed):
        """Fixed variables + duplicated rows (degeneracy): same optimum."""
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(seed)
        rng = np.random.default_rng(seed + 3)
        # Fix a few variables (lb == ub) and duplicate a row to create a
        # degenerate vertex.
        fixed = rng.integers(0, len(c), 3)
        upper = upper.copy()
        upper[fixed] = lower[fixed]
        a_ub = np.vstack([a_ub, a_ub[:1]])
        b_ub = np.concatenate([b_ub, b_ub[:1]])
        sparse = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        dense = solve_lp_dense(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        _assert_same_optimum(sparse, dense, "sparse vs dense")

    def test_wide_lp_matches_dense_oracle(self):
        """A 420-column, 40-row sparse LP: same optimum as the tableau."""
        rng = np.random.default_rng(11)
        n, m = 420, 40
        a = np.zeros((m, n))
        for i in range(m):
            cols = rng.choice(n, size=6, replace=False)
            a[i, cols] = rng.normal(size=6)
        x0 = rng.uniform(0, 1, n)
        b = a @ x0 + rng.uniform(0.1, 1.0, m)
        c = rng.normal(size=n)
        no_eq = np.zeros((0, n))
        sparse = solve_lp_simplex(c, a, b, no_eq, np.zeros(0), np.zeros(n), np.ones(n))
        dense = solve_lp_dense(c, a, b, no_eq, np.zeros(0), np.zeros(n), np.ones(n))
        _assert_same_optimum(sparse, dense, "sparse vs dense")


class TestCountersAndRepairBudget:
    def test_counters_present_and_consistent(self):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(1)
        sol = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        assert sol.counters is not None
        d = sol.counters.to_dict()
        assert set(d) == set(SOLVER_COUNTER_FIELDS)
        assert all(v >= 0 for v in d.values())
        assert sol.warm_status == ""  # no warm basis was supplied
        # A cold solve of this (infeasible-at-origin) system runs phase 1.
        assert d["phase1_iterations"] > 0
        assert d["refactorisations"] >= 0

    def test_counters_add(self):
        a = SolverCounters(primal_iterations=2, dual_resumes=1)
        b = SolverCounters(primal_iterations=3, bound_flips=4)
        a.add(b)
        assert a.primal_iterations == 5
        assert a.bound_flips == 4
        assert a.dual_resumes == 1

    def test_garbage_basis_reports_cold_fallback(self):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(2)
        m = len(b_ub) + len(b_eq)
        num_cols = len(c) + len(b_ub) + m
        garbage = SimplexBasis(
            basic=np.zeros(m, dtype=np.int64),  # singular: one column m times
            at_upper=np.zeros(num_cols, dtype=bool),
        )
        sol = solve_lp_simplex(
            c, a_ub, b_ub, a_eq, b_eq, lower, upper, warm_basis=garbage
        )
        cold = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        _assert_same_optimum(cold, sol, "garbage warm vs cold")
        assert sol.warm_status == "cold_fallback"
        assert sol.counters.cold_fallbacks == 1

class TestBranchAndBoundIntegration:
    def _knapsack(self, cap, seed=9):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 20, 16)
        weights = rng.integers(1, 10, 16)
        model = Model("knap", ObjectiveSense.MAXIMIZE)
        xs = [model.add_binary(f"x{i}") for i in range(16)]
        model.set_objective(sum(int(v) * x for v, x in zip(values, xs)))
        model.add_constr(sum(int(w) * x for w, x in zip(weights, xs)) <= cap)
        return model

    def test_bnb_children_resume_via_dual_simplex(self, no_scipy):
        result = solve_branch_and_bound(self._knapsack(30))
        assert result.lp_counters["dual_resumes"] > 0
        assert result.lp_counters["cold_fallbacks"] == 0

    def test_warm_node_resumes_equal_cold_nodes(self, no_scipy):
        for cap in (26, 30):
            warm = solve_branch_and_bound(self._knapsack(cap))
            cold = solve_branch_and_bound(
                self._knapsack(cap), BnbOptions(warm_start=False)
            )
            assert warm.status is cold.status is SolveStatus.OPTIMAL
            assert warm.objective == cold.objective
            assert cold.lp_counters["dual_resumes"] == 0


class TestPlannerBasisStore:
    def test_resubmit_after_eviction_reports_counters(self, no_scipy):
        """A churn-style retire + resubmit is tagged and reports counters."""
        catalog = make_catalog(num_hosts=3, cpu=4.0, num_base=4, rate=2.0)
        config = PlannerConfig(time_limit=5.0, validate_after_apply=True)
        planner = SQPRPlanner(catalog, config=config)
        query = catalog.register_query(query_over("b0", "b1"))
        assert planner.submit(query).admitted
        planner.retire(query.query_id)
        outcome = planner.resubmit(query)
        assert outcome.admitted
        assert outcome.extras["perturbation_resolve"] is True
        counters = planner.solver_counters()
        assert counters  # the B&B backend reported simplex counters
        assert counters.get("primal_iterations", 0) + counters.get(
            "dual_iterations", 0
        ) > 0

    def test_solver_counters_dedupe_shared_dicts(self):
        stats = PlannerStats()
        query = Query(
            query_id=1,
            result_stream=0,
            base_streams=frozenset(),
            candidate_streams=frozenset(),
            candidate_operators=frozenset(),
        )
        shared = {"dual_resumes": 3}
        stats.outcomes = [
            PlanningOutcome(query=query, admitted=True, extras={"solver_counters": shared}),
            PlanningOutcome(query=query, admitted=True, extras={"solver_counters": shared}),
            PlanningOutcome(
                query=query, admitted=False, extras={"solver_counters": {"dual_resumes": 2}}
            ),
        ]
        assert stats.solver_counters() == {"dual_resumes": 5}
