"""Solver-reuse tests: warm starts and model reuse never change results.

The incremental-reuse machinery added to the MILP stack (parent-basis warm
starts in branch and bound, the constructive stage-A start, the planner's
model-reuse cache) is a pure speed optimisation.  This module pins down the
contract: with reuse on or off, every registry planner admits the same
queries and reports the same objective values, and the branch-and-bound
solver returns the same optimum.  Tests that request the ``no_scipy``
fixture run the dependency-free path (branch and bound over the in-repo
simplex) whether or not scipy is installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import PlannerConfig, create_planner
from repro.milp.branch_and_bound import BnbOptions, solve_branch_and_bound
from repro.milp.expression import lin_sum
from repro.milp.model import Model, ObjectiveSense
from repro.milp.result import SolveStatus
from repro.milp.solver import MilpSolver, SolverBackend

from tests.conftest import make_catalog, query_over

ALL_PLANNERS = ["sqpr", "heuristic", "soda", "optimistic_bound"]


def _random_milp(seed: int) -> Model:
    """A random mixed-integer model with a bounded feasible region."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    model = Model(f"rand{seed}", sense=ObjectiveSense.MAXIMIZE)
    items = [model.add_binary(f"b{k}") for k in range(n)]
    extra = model.add_continuous("y", 0.0, 5.0)
    weights = rng.uniform(1, 5, n)
    values = rng.uniform(1, 10, n)
    capacity = float(weights.sum() * 0.6)
    model.add_constr(lin_sum(w * x for w, x in zip(weights, items)) <= capacity)
    model.add_constr(extra <= lin_sum(items))
    model.set_objective(lin_sum(v * x for v, x in zip(values, items)) + 0.5 * extra)
    return model


class TestBranchAndBoundWarmStart:
    # "simplex" forces the scipy-free LP path; "auto" runs whichever LP
    # engine the platform provides.
    @pytest.mark.parametrize("engine", ["simplex", "auto"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_warm_equals_cold(self, seed, engine, request):
        if engine == "simplex":
            request.getfixturevalue("no_scipy")
        warm = solve_branch_and_bound(_random_milp(seed), BnbOptions(warm_start=True))
        cold = solve_branch_and_bound(_random_milp(seed), BnbOptions(warm_start=False))
        assert warm.status is SolveStatus.OPTIMAL
        assert cold.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)

    def test_feasible_hint_seeds_incumbent_without_changing_optimum(self, no_scipy):
        model = _random_milp(7)
        baseline = solve_branch_and_bound(model)
        assert baseline.status is SolveStatus.OPTIMAL
        # Hint the all-zeros solution (feasible: the knapsack row is <=).
        hinted = _random_milp(7)
        hinted.set_warm_start({var: 0.0 for var in hinted.variables})
        seeded = solve_branch_and_bound(hinted)
        assert seeded.status is SolveStatus.OPTIMAL
        assert seeded.objective == pytest.approx(baseline.objective, rel=1e-6, abs=1e-6)

    def test_infeasible_hint_is_ignored(self, no_scipy):
        model = _random_milp(9)
        baseline = solve_branch_and_bound(model)
        hinted = _random_milp(9)
        # Violates the knapsack constraint: every item selected.
        hinted.set_warm_start({var: 1.0 for var in hinted.variables})
        seeded = solve_branch_and_bound(hinted)
        assert seeded.objective == pytest.approx(baseline.objective, rel=1e-6, abs=1e-6)


def _run_workload(name: str, reuse: bool):
    """Admit a small workload twice over (with repeats) and collect outcomes."""
    catalog = make_catalog(num_hosts=3, cpu=8.0, num_base=4)
    config = PlannerConfig(
        time_limit=2.0,
        reuse_model=reuse,
        warm_start=reuse,
    )
    planner = create_planner(name, catalog, config=config)
    workload = [
        query_over("b0", "b1"),
        query_over("b1", "b2"),
        query_over("b0", "b1", "b2"),
        query_over("b2", "b3"),
        query_over("b0", "b3"),
    ]
    outcomes = [planner.submit(item) for item in workload]
    return planner, outcomes


class TestPlannerWarmStartEquivalence:
    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_warm_and_cold_planning_agree(self, name, no_scipy):
        planner, warm_outcomes = _run_workload(name, reuse=True)
        _, cold_outcomes = _run_workload(name, reuse=False)
        assert [o.admitted for o in warm_outcomes] == [o.admitted for o in cold_outcomes]
        # SQPR's warm solves start from a constructive incumbent and stop at
        # the configured gap: two gap-optimal plans need not be equal.  The
        # other planners do no search and must agree exactly.
        rel = planner.config.mip_gap if name == "sqpr" else 1e-6
        for warm, cold in zip(warm_outcomes, cold_outcomes):
            if warm.objective_value is not None and cold.objective_value is not None:
                assert warm.objective_value == pytest.approx(
                    cold.objective_value, rel=rel, abs=1e-6
                )

    def test_sqpr_reports_reuse_extras(self, no_scipy):
        _, outcomes = _run_workload("sqpr", reuse=True)
        planned = [o for o in outcomes if not o.duplicate]
        assert planned, "workload should exercise the planning path"
        for outcome in planned:
            assert isinstance(outcome.reused_model, bool)
            assert isinstance(outcome.warm_seeded, bool)


class TestModelReuseCache:
    def test_rejected_query_retry_hits_cache(self, no_scipy):
        # A tiny system that rejects an oversized query: the rejection leaves
        # the allocation untouched, so retrying the same query must reuse the
        # cached model instead of rebuilding it.
        catalog = make_catalog(num_hosts=2, cpu=0.5, num_base=3, rate=50.0)
        config = PlannerConfig(time_limit=2.0, two_stage=False)
        planner = create_planner("sqpr", catalog, config=config)
        query = catalog.register_query(query_over("b0", "b1", "b2"))
        first = planner.submit(query)
        retried = planner.submit(query)
        assert not first.admitted and not retried.admitted
        assert planner.reuse_stats["hits"] >= 1
        assert retried.reused_model

    def test_reset_clears_reuse_state(self, no_scipy):
        planner, _ = _run_workload("sqpr", reuse=True)
        planner.reset()
        assert planner.reuse_stats == {"hits": 0, "misses": 0}

    def test_disabled_reuse_never_hits(self, no_scipy):
        planner, _ = _run_workload("sqpr", reuse=False)
        assert planner.reuse_stats["hits"] == 0


class TestScipyFreePlatform:
    def test_admissions_match_highs(self, request):
        """Run to optimality, the scipy-free path admits what HiGHS admits."""
        pytest.importorskip("scipy")

        def admitted_set():
            # Room for three single-operator queries; the rest are rejected.
            catalog = make_catalog(num_hosts=3, cpu=1.2, num_base=4)
            planner = create_planner(
                "sqpr", catalog, config=PlannerConfig(time_limit=None)
            )
            workload = [
                query_over("b0", "b1"),
                query_over("b1", "b2"),
                query_over("b2", "b3"),
                query_over("b0", "b1", "b2"),
                query_over("b0", "b3"),
                query_over("b1", "b3"),
            ]
            outcomes = [planner.submit(item) for item in workload]
            return planner, {o.query.query_id for o in outcomes if o.admitted}

        highs_planner, highs = admitted_set()
        assert highs_planner.solver.resolved_backend() is SolverBackend.HIGHS
        request.getfixturevalue("no_scipy")
        bnb_planner, bnb = admitted_set()
        assert bnb_planner.solver.resolved_backend() is SolverBackend.BRANCH_AND_BOUND
        assert MilpSolver().resolved_backend() is SolverBackend.BRANCH_AND_BOUND
        assert bnb == highs
        assert 0 < len(bnb) < 6
