"""Primal-first stage A: the constructive start and what solvers do with it.

Three layers, one contract — the MILP stays the arbiter:

* **candidates vs. model** — every §V-A greedy-reuse candidate, completed
  into a full assignment, satisfies the frozen stage-A model's own rows and
  scores exactly the model's objective (the heuristic's scoring and the
  MILP objective are tied here and nowhere else);
* **solver** — the HiGHS path turns a complete, feasible start into the
  incumbent, certifies it against the root LP bound, and ignores anything
  less than that exactly as if no start had been given;
* **planner** — warm and cold planning admit the same queries with
  objectives within the configured gap, and the structural pre-solve screen
  only rejects what the unscreened planner rejects too.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.planner as planner_module
from repro.api import PlannerConfig, create_planner
from repro.core.candidates import abstract_plans, best_candidate, place_at_host
from repro.core.model_builder import build_model
from repro.core.reduction import compute_scope, result_obtainable
from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.milp import scipy_backend
from repro.milp.expression import lin_sum
from repro.milp.model import Model, ObjectiveSense
from repro.milp.result import SolveStatus
from repro.milp.scipy_backend import highs_available, solve_with_highs
from repro.milp.solver import MilpSolver

from tests.conftest import make_catalog, query_over

pytestmark = pytest.mark.skipif(
    not highs_available(), reason="scipy.optimize.milp (HiGHS) is not installed"
)

BASE_NAMES = ["b0", "b1", "b2", "b3", "b4"]


# ------------------------------------------------------ candidates vs. the model
def _catalog(num_hosts, cpu, bandwidth, exhaustive, two_sites) -> SystemCatalog:
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=(
            DecompositionMode.EXHAUSTIVE if exhaustive else DecompositionMode.CANONICAL
        ),
        default_link_capacity=60.0,
        default_wan_capacity=45.0 if two_sites else None,
    )
    for index in range(num_hosts):
        catalog.add_host(
            cpu_capacity=cpu,
            bandwidth_capacity=bandwidth,
            name=f"h{index}",
            site=index % 2 if two_sites else 0,
        )
    for index, name in enumerate(BASE_NAMES):
        catalog.add_base_stream(name, 10.0, index % num_hosts)
    return catalog


workloads = st.lists(
    st.sets(st.sampled_from(BASE_NAMES), min_size=2, max_size=3).map(
        lambda names: QueryWorkloadItem(base_names=tuple(sorted(names)))
    ),
    min_size=1,
    max_size=6,
)


class TestCandidatesAgainstTheStageAModel:
    @given(
        workload=workloads,
        num_hosts=st.integers(min_value=2, max_value=4),
        cpu=st.sampled_from([3.0, 6.0, 12.0]),
        bandwidth=st.sampled_from([50.0, 200.0]),
        exhaustive=st.booleans(),
        two_sites=st.booleans(),
        allow_relay=st.booleans(),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_completed_candidates_are_feasible_and_scored_by_the_objective(
        self, workload, num_hosts, cpu, bandwidth, exhaustive, two_sites, allow_relay
    ):
        catalog = _catalog(num_hosts, cpu, bandwidth, exhaustive, two_sites)
        # The SQPR planner itself grows the allocation, so the candidates are
        # judged against the states stage A really sees (relays, plans
        # spread over hosts, shared sub-plans), not only heuristic ones.
        planner = create_planner(
            "sqpr",
            catalog,
            config=PlannerConfig(time_limit=0.2, allow_relay=allow_relay),
        )
        for item in workload:
            query = catalog.register_query(item)
            allocation = planner.allocation
            if not allocation.is_provided(query.result_stream):
                scope = compute_scope(
                    catalog, allocation, [query], replan_overlapping=False
                )
                built = build_model(
                    catalog,
                    allocation,
                    scope,
                    planner.weights,
                    frozen_mode=True,
                    allow_relay=allow_relay,
                )
                for operators in abstract_plans(catalog, query, 64):
                    for host in catalog.host_ids:
                        candidate = place_at_host(
                            catalog, allocation, planner.weights, query, operators, host
                        )
                        if candidate is None:
                            continue
                        start = built.start_from_delta(
                            catalog, candidate.delta, candidate.max_load
                        )
                        assert start is not None
                        assert len(start) == built.model.num_variables
                        assert built.model.is_feasible(start)
                        assert built.model.objective_value(start) == pytest.approx(
                            candidate.score, rel=1e-12, abs=1e-9
                        )
            planner.submit(query)
            assert planner.allocation.validate() == []

    def test_unknown_structures_cannot_be_completed(self, tiny_catalog):
        query = tiny_catalog.register_query(query_over("b0", "b1"))
        allocation = Allocation(tiny_catalog)
        weights = create_planner("sqpr", tiny_catalog).weights
        scope = compute_scope(tiny_catalog, allocation, [query], replan_overlapping=False)
        built = build_model(tiny_catalog, allocation, scope, weights, frozen_mode=True)
        best, _ = best_candidate(tiny_catalog, allocation, weights, query, 64)
        assert built.start_from_delta(tiny_catalog, best.delta, best.max_load)
        foreign = PlacementDelta()
        foreign.add_flows.add((0, 99, query.result_stream))  # no such host
        assert built.start_from_delta(tiny_catalog, foreign, 0.0) is None


# ------------------------------------------------------------------ solver level
def _tight_model():
    """max 3x + 2y, x + y <= 1: the LP relaxation is integral (bound 3)."""
    model = Model("tight", sense=ObjectiveSense.MAXIMIZE)
    x, y = model.add_binary("x"), model.add_binary("y")
    model.add_constr(x + y <= 1)
    model.set_objective(3 * x + 2 * y)
    return model, x, y


def _knapsack():
    """A knapsack whose LP bound (17) is above its integer optimum (16)."""
    model = Model("knapsack", sense=ObjectiveSense.MAXIMIZE)
    items = [model.add_binary(f"b{k}") for k in range(4)]
    weights, values = [4, 3, 2, 3], [10, 6, 5, 4]
    model.add_constr(lin_sum(w * b for w, b in zip(weights, items)) <= 7)
    model.set_objective(lin_sum(v * b for v, b in zip(values, items)))
    return model, items


def _forbid_branch_and_cut(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("branch-and-cut entered despite a certified start")

    monkeypatch.setattr(scipy_backend, "_scipy_milp", forbidden)


def _same_result(left, right):
    assert left.status is right.status
    assert left.objective == right.objective
    assert {v.name: val for v, val in left.values.items()} == {
        v.name: val for v, val in right.values.items()
    }
    assert left.incumbent_source == right.incumbent_source


class TestHighsHonoursCompleteStarts:
    def test_certified_start_returns_optimal_without_branch_and_cut(self, monkeypatch):
        model, x, y = _tight_model()
        model.set_warm_start({x: 1.0, y: 0.0})
        _forbid_branch_and_cut(monkeypatch)
        result = solve_with_highs(model, mip_rel_gap=1e-3)
        assert result.status is SolveStatus.OPTIMAL
        assert result.incumbent_source == "start"
        assert result.objective == pytest.approx(3.0)
        assert result.bound == pytest.approx(3.0)
        assert result.values == {x: 1.0, y: 0.0}

    def test_start_outside_the_gap_searches_and_keeps_the_better(self):
        model, x, y = _tight_model()
        model.set_warm_start({x: 0.0, y: 1.0})  # feasible, 2 against a bound of 3
        result = solve_with_highs(model, mip_rel_gap=1e-3)
        assert result.status is SolveStatus.OPTIMAL
        assert result.incumbent_source == "search"
        assert result.objective == pytest.approx(3.0)

    @pytest.mark.parametrize("case", ["partial", "infeasible", "foreign"])
    def test_unusable_starts_change_nothing(self, case):
        cold_model, _ = _knapsack()
        cold = solve_with_highs(cold_model, mip_rel_gap=1e-6)
        model, items = _knapsack()
        if case == "partial":
            hint = {items[0]: 1.0, items[2]: 1.0}  # feasible once completed
        elif case == "infeasible":
            hint = {item: 1.0 for item in items}  # weight 12 > 7
        else:
            other, other_items = _knapsack()
            hint = {item: 0.0 for item in other_items}
        model.set_warm_start(hint)
        hinted = solve_with_highs(model, mip_rel_gap=1e-6)
        assert cold.status is SolveStatus.OPTIMAL
        assert cold.incumbent_source == "search"
        _same_result(hinted, cold)

    def test_warm_start_off_ignores_a_certifiable_start(self):
        model, x, y = _tight_model()
        cold = solve_with_highs(model, mip_rel_gap=1e-3)
        model.set_warm_start({x: 1.0, y: 0.0})
        off = solve_with_highs(model, mip_rel_gap=1e-3, warm_start=False)
        _same_result(off, cold)
        facade = MilpSolver(mip_gap=1e-3, warm_start=False)
        _same_result(facade.solve(model), cold)

    def test_timeout_cannot_discard_the_start(self, monkeypatch):
        model, items = _knapsack()
        start = {items[0]: 1.0, items[1]: 0.0, items[2]: 1.0, items[3]: 0.0}
        model.set_warm_start(start)
        seen = {}

        def timed_out(**kwargs):
            seen.update(kwargs["options"])
            return SimpleNamespace(x=None, status=1, fun=None, mip_dual_bound=None)

        monkeypatch.setattr(scipy_backend, "_scipy_milp", timed_out)
        result = solve_with_highs(model, time_limit=0.001, mip_rel_gap=0.0)
        assert result.status is SolveStatus.FEASIBLE
        assert result.incumbent_source == "start"
        assert result.values == start
        assert result.objective == pytest.approx(15.0)
        assert result.bound == pytest.approx(17.0)
        # HiGHS was entered (gap 0 cannot be certified by the LP) on what
        # was left of the budget, floored as before.
        assert seen["time_limit"] == pytest.approx(1e-3)
        assert seen["mip_rel_gap"] == 0.0

    def test_one_millisecond_never_times_out_with_a_start(self):
        model, items = _knapsack()
        model.set_warm_start({item: 0.0 for item in items})  # feasible, worth 0
        result = solve_with_highs(model, time_limit=0.001, mip_rel_gap=0.0)
        assert result.status in (SolveStatus.FEASIBLE, SolveStatus.OPTIMAL)
        assert result.has_solution
        assert model.is_feasible(result.values)
        assert result.objective >= 0.0

    def test_worse_search_incumbent_loses_to_the_start(self, monkeypatch):
        model, items = _knapsack()
        start = {items[0]: 1.0, items[1]: 0.0, items[2]: 1.0, items[3]: 0.0}
        model.set_warm_start(start)

        def weak_search(**kwargs):
            # b1 + b3: feasible, worth 10 (-10 in minimisation space).
            return SimpleNamespace(
                x=[0.0, 1.0, 0.0, 1.0], status=1, fun=-10.0, mip_dual_bound=-17.0
            )

        monkeypatch.setattr(scipy_backend, "_scipy_milp", weak_search)
        result = solve_with_highs(model, time_limit=1.0, mip_rel_gap=0.0)
        assert result.status is SolveStatus.FEASIBLE
        assert result.incumbent_source == "start"
        assert result.objective == pytest.approx(15.0)
        assert result.bound == pytest.approx(17.0)


# ----------------------------------------------------------------- planner level
def _pairs_and_triples():
    names = BASE_NAMES[:4]
    return [
        query_over(*combo)
        for size in (2, 3)
        for combo in itertools.combinations(names, size)
    ]


def _plan_all(warm_start: bool):
    # Three small hosts: six queries fit, four are rejected after a stage B.
    catalog = make_catalog(num_hosts=3, cpu=2.5, num_base=4)
    config = PlannerConfig(time_limit=None, warm_start=warm_start)
    planner = create_planner("sqpr", catalog, config=config)
    outcomes = [planner.submit(item) for item in _pairs_and_triples()]
    assert planner.allocation.validate() == []
    return planner, outcomes


class TestWarmAndColdPlanningAgree:
    def test_same_admissions_and_objectives_within_the_gap(self):
        planner, warm = _plan_all(warm_start=True)
        _, cold = _plan_all(warm_start=False)
        assert [o.admitted for o in warm] == [o.admitted for o in cold]
        assert any(o.admitted for o in warm) and not all(o.admitted for o in warm)
        for warm_outcome, cold_outcome in zip(warm, cold):
            assert warm_outcome.objective_value == pytest.approx(
                cold_outcome.objective_value, rel=planner.config.mip_gap
            )

    def test_provenance_of_the_deployed_incumbent_is_recorded(self):
        _, warm = _plan_all(warm_start=True)
        _, cold = _plan_all(warm_start=False)
        admitted = [o for o in warm if o.admitted]
        assert admitted and all(o.incumbent_source == "start" for o in admitted)
        assert all(o.solve_result.status is SolveStatus.OPTIMAL for o in admitted)
        assert all(o.warm_seeded for o in admitted)
        assert {o.incumbent_source for o in cold} <= {"search", ""}
        assert not any(o.warm_seeded for o in cold)

    def test_batches_and_replanning_keep_the_name_keyed_hint(self):
        catalog = make_catalog(num_hosts=3, cpu=8.0, num_base=4)
        planner = create_planner(
            "sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        assert planner.submit(query_over("b0", "b1")).incumbent_source == "start"
        batch = planner.submit_batch([query_over("b1", "b2"), query_over("b2", "b3")])
        # A partial hint is not a start HiGHS may use.
        assert all(o.incumbent_source == "search" for o in batch)
        assert all(o.admitted for o in batch)


class TestStructuralScreen:
    def _failed_host_run(self, mode, screened: bool, monkeypatch):
        catalog = make_catalog(num_hosts=3, cpu=8.0, num_base=4, decomposition=mode)
        planner = create_planner(
            "sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        if not screened:
            monkeypatch.setattr(
                planner_module, "result_obtainable", lambda *args: True
            )
        before = [planner.submit(query_over("b0", "b2"))]
        catalog.deactivate_host(1)  # b1's only injection point
        planner.on_topology_change()
        return planner, before + [planner.submit(q) for q in _pairs_and_triples()]

    @pytest.mark.parametrize(
        "mode", [DecompositionMode.CANONICAL, DecompositionMode.EXHAUSTIVE]
    )
    def test_screened_queries_are_rejected_by_the_unscreened_planner_too(
        self, mode, monkeypatch
    ):
        planner, screened = self._failed_host_run(mode, True, monkeypatch)
        _, unscreened = self._failed_host_run(mode, False, monkeypatch)
        dead = planner.catalog.streams.get_by_name("b1").stream_id
        reasons = [o.rejection_reason for o in screened]
        assert reasons.count("screened:unobtainable-stream") == 6  # all with b1
        for with_screen, without in zip(screened, unscreened):
            assert with_screen.admitted == without.admitted
            if with_screen.rejection_reason.startswith("screened:"):
                assert dead in with_screen.query.base_streams
                assert with_screen.solve_result is None  # no model was built
                assert without.rejection_reason == "no-admitting-incumbent"
        assert planner.allocation.validate() == []

    def test_a_stream_the_allocation_still_holds_is_obtainable(self, tiny_catalog):
        catalog = tiny_catalog
        first = catalog.register_query(query_over("b0", "b1"))
        triple = catalog.register_query(query_over("b0", "b1", "b2"))
        other = catalog.register_query(query_over("b1", "b2"))
        allocation = Allocation(catalog)
        assert result_obtainable(catalog, allocation, triple)
        catalog.deactivate_host(1)
        assert not result_obtainable(catalog, allocation, triple)
        # b0 ⋈ b1 survives on a live host: the triple can still be built on it.
        delta = PlacementDelta()
        delta.add_available.add((0, first.result_stream))
        allocation.apply(delta)
        assert result_obtainable(catalog, allocation, triple)
        assert not result_obtainable(catalog, allocation, other)
        # ... but not while it only survives on the dead host.
        stranded = Allocation(catalog)
        delta = PlacementDelta()
        delta.add_available.add((1, first.result_stream))
        stranded.apply(delta)
        assert not result_obtainable(catalog, stranded, triple)
