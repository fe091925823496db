"""Tests for the unified planner API: protocol, outcome, registry, hooks."""

from __future__ import annotations

import pytest

import repro
from repro.api import (
    Planner,
    PlannerConfig,
    PlanningOutcome,
    available_planners,
    create_planner,
    get_planner_class,
    register_planner,
    resolve_planner_name,
    unregister_planner,
)
from repro.baselines.heuristic import HeuristicPlanner
from repro.baselines.soda.planner import SodaPlanner
from repro.core.optimistic import OptimisticBoundPlanner
from repro.core.planner import SQPRPlanner
from repro.exceptions import PlanningError
from tests.conftest import make_catalog, query_over

ALL_PLANNERS = ("sqpr", "heuristic", "soda", "optimistic")


class TestRegistry:
    def test_all_builtins_registered(self):
        names = available_planners()
        for name in ALL_PLANNERS:
            assert name in names

    def test_create_planner_round_trip(self, tiny_catalog):
        expected = {
            "sqpr": SQPRPlanner,
            "heuristic": HeuristicPlanner,
            "soda": SodaPlanner,
            "optimistic": OptimisticBoundPlanner,
        }
        for name, cls in expected.items():
            planner = create_planner(
                name, make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            assert isinstance(planner, cls)
            assert isinstance(planner, Planner)
            assert planner.name == name
            assert get_planner_class(name) is cls

    def test_alias_resolves_to_canonical(self):
        assert resolve_planner_name("optimistic_bound") == "optimistic"
        planner = create_planner("optimistic_bound", make_catalog())
        assert isinstance(planner, OptimisticBoundPlanner)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(PlanningError, match="sqpr"):
            create_planner("cplex", make_catalog())

    def test_register_and_unregister_custom_planner(self, tiny_catalog):
        @register_planner("always-reject")
        class AlwaysReject(Planner):
            def submit(self, query):
                return self._record(
                    PlanningOutcome(
                        query=self._resolve_query(query),
                        admitted=False,
                        rejection_reason="policy",
                    )
                )

        try:
            planner = create_planner("always-reject", tiny_catalog)
            outcome = planner.submit(query_over("b0", "b1"))
            assert not outcome.admitted
            assert planner.num_admitted == 0 and planner.num_submitted == 1
        finally:
            unregister_planner("always-reject")
        assert "always-reject" not in available_planners()

    def test_register_rejects_non_planner(self):
        with pytest.raises(PlanningError):
            register_planner("bogus", object)

    def test_second_registration_does_not_rename_existing(self):
        register_planner("sqpr-tuned", SQPRPlanner)
        try:
            original = create_planner(
                "sqpr", make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            tuned = create_planner(
                "sqpr-tuned", make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            assert original.name == "sqpr"
            assert tuned.name == "sqpr-tuned"
            assert SQPRPlanner.name == "sqpr"
        finally:
            unregister_planner("sqpr-tuned")

    def test_explicit_registration_overrides_alias(self):
        @register_planner("optimistic_bound")
        class Stub(Planner):
            def submit(self, query):
                return self._record(
                    PlanningOutcome(query=self._resolve_query(query), admitted=False)
                )

        try:
            planner = create_planner("optimistic_bound", make_catalog())
            assert isinstance(planner, Stub)
        finally:
            unregister_planner("optimistic_bound")
        # unregistering restores the displaced built-in alias
        restored = create_planner("optimistic_bound", make_catalog())
        assert isinstance(restored, OptimisticBoundPlanner)


class TestUnifiedOutcome:
    def test_every_planner_returns_planning_outcome(self):
        for name in ALL_PLANNERS:
            planner = create_planner(
                name, make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            outcome = planner.submit(query_over("b0", "b1"))
            assert type(outcome) is PlanningOutcome
            assert isinstance(outcome.admitted, bool)
            assert outcome.planning_time >= 0.0

    def test_legacy_field_parity(self, tiny_catalog):
        """The old per-planner outcome fields remain readable via extras."""
        sqpr = create_planner("sqpr", make_catalog(), config=PlannerConfig(time_limit=0.5))
        outcome = sqpr.submit(query_over("b0", "b1"))
        assert outcome.model_size > 0
        assert outcome.scope_streams >= 1
        assert outcome.solve_result is not None

        heuristic = create_planner("heuristic", make_catalog())
        outcome = heuristic.submit(query_over("b0", "b1"))
        assert outcome.admitted and outcome.host is not None

        optimistic = create_planner("optimistic", make_catalog())
        outcome = optimistic.submit(query_over("b0", "b1"))
        assert outcome.marginal_cpu > 0.0

        soda = create_planner("soda", make_catalog(num_hosts=1, cpu=1.2))
        outcomes = soda.submit_epoch([query_over("b0", "b1"), query_over("b2", "b3")])
        rejected = [o for o in outcomes if not o.admitted]
        assert rejected and rejected[0].rejected_by in ("macroq", "macrow")
        assert rejected[0].rejection_reason == rejected[0].rejected_by

    def test_extras_defaults_cross_planner(self):
        """Well-known extras read as neutral defaults on other planners."""
        outcome = PlanningOutcome(query=None, admitted=True)
        assert outcome.solve_result is None
        assert outcome.host is None
        assert outcome.marginal_cpu == 0.0
        assert outcome.rejected_by == ""
        with pytest.raises(AttributeError):
            outcome.not_a_field

    def test_package_getattr_is_timeline_only(self):
        from repro.experiments import timeline

        assert repro.run_churn_experiment is timeline.run_churn_experiment
        for legacy in ("HeuristicOutcome", "SodaOutcome", "OptimisticOutcome"):
            with pytest.raises(AttributeError, match=legacy):
                getattr(repro, legacy)

    def test_record_plans_config(self):
        planner = create_planner(
            "heuristic", make_catalog(), config=PlannerConfig(record_plans=True)
        )
        outcome = planner.submit(query_over("b0", "b1"))
        assert outcome.admitted
        assert outcome.plan is not None
        assert outcome.plan.query_stream == outcome.query.result_stream


class TestStatsParity:
    """The PlannerStats mixin must reproduce the pre-unification counters."""

    def test_counts_match_allocation_and_outcomes(self):
        workload = [
            query_over("b0", "b1"),
            query_over("b1", "b2"),
            query_over("b0", "b1"),  # duplicate result stream
            query_over("b2", "b3"),
        ]
        for name in ALL_PLANNERS:
            planner = create_planner(
                name, make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            for item in workload:
                planner.submit(item)
            assert planner.num_submitted == len(workload) == len(planner.outcomes)
            outcome_admitted = sum(1 for o in planner.outcomes if o.admitted)
            # Without re-planning, the allocation-based and outcome-based
            # counts coincide (the seed planners used one or the other).
            assert planner.num_admitted == outcome_admitted
            allocation = getattr(planner, "allocation", None)
            if allocation is not None:
                assert planner.num_admitted == len(allocation.admitted_queries)
            assert 0.0 <= planner.admission_rate() <= 1.0
            assert planner.average_planning_time() >= 0.0

    def test_reset_restores_fresh_state(self):
        for name in ALL_PLANNERS:
            planner = create_planner(
                name, make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            first = planner.submit(query_over("b0", "b1"))
            assert first.admitted
            planner.reset()
            assert planner.num_submitted == 0 and planner.num_admitted == 0
            allocation = getattr(planner, "allocation", None)
            if allocation is not None:
                assert not allocation.admitted_queries
            again = planner.submit(query_over("b0", "b1"))
            assert again.admitted


class TestCrossPlannerSmoke:
    def test_shared_workload_through_every_registered_planner(self):
        """One workload, every registered planner, one protocol."""
        workload = [
            query_over("b0", "b1"),
            query_over("b1", "b2"),
            query_over("b0", "b1", "b2"),
        ]
        for name in available_planners():
            planner = create_planner(
                name, make_catalog(), config=PlannerConfig(time_limit=0.3)
            )
            outcomes = planner.submit_batch(workload)
            assert len(outcomes) == len(workload)
            assert all(type(o) is PlanningOutcome for o in outcomes)
            assert planner.num_submitted == len(workload)
            allocation = getattr(planner, "allocation", None)
            if allocation is not None:
                assert allocation.validate() == []


class TestFigureDriverEdges:
    def test_fig4a_sqpr_only_still_has_submitted_series(self, small_scenario):
        from repro.experiments.figures import fig4a_planning_efficiency

        result = fig4a_planning_efficiency(
            scenario=small_scenario,
            num_queries=3,
            timeouts=(0.1,),
            checkpoint_every=1,
            baselines=(),
        )
        assert result.series["submitted"]

    def test_fig4a_baselines_only_does_not_crash(self, small_scenario):
        from repro.experiments.figures import fig4a_planning_efficiency

        result = fig4a_planning_efficiency(
            scenario=small_scenario,
            num_queries=3,
            timeouts=(),
            checkpoint_every=1,
            baselines=("heuristic",),
        )
        assert result.series["submitted"]
        assert "heuristic" in result.series

    def test_fig7b_skips_planner_without_allocation(self, small_scenario):
        from repro.experiments.figures import fig7b_cpu_distribution

        result = fig7b_cpu_distribution(
            scenario=small_scenario,
            query_counts=(2,),
            time_limit=0.1,
            planners=("heuristic", "optimistic"),
        )
        assert "heuristic_2_cpu_pct" in result.series
        assert "optimistic_2_cpu_pct" not in result.series


class TestRunnerIntegration:
    def test_run_admission_experiment_accepts_planner_name(self):
        from repro.experiments.runner import run_admission_experiment

        workload = [query_over("b0", "b1"), query_over("b1", "b2")]
        curve = run_admission_experiment(
            "heuristic",
            workload,
            checkpoint_every=1,
            catalog=make_catalog(),
        )
        assert curve.planner_name == "heuristic"
        assert curve.total_submitted == len(workload)

    def test_run_admission_experiment_name_requires_catalog(self):
        with pytest.raises(PlanningError, match="catalog"):
            from repro.experiments.runner import run_admission_experiment

            run_admission_experiment("heuristic", [query_over("b0", "b1")])


class TestHooks:
    def test_admit_and_reject_hooks_fire(self):
        planner = create_planner(
            "soda", make_catalog(num_hosts=1, cpu=1.2), config=PlannerConfig()
        )
        admitted, rejected = [], []
        planner.on_admit(admitted.append)
        planner.on_reject(rejected.append)
        planner.submit_batch([query_over("b0", "b1"), query_over("b2", "b3")])
        assert len(admitted) + len(rejected) == 2
        assert len(admitted) == sum(1 for o in planner.outcomes if o.admitted)
        assert all(not o.admitted for o in rejected)

    def test_on_replan_hook_fires(self):
        from repro.core.adaptive import AdaptiveReplanner
        from repro.dsps.resource_monitor import ResourceMonitor

        catalog = make_catalog()
        planner = create_planner("sqpr", catalog, config=PlannerConfig(time_limit=0.5))
        outcome = planner.submit(query_over("b0", "b1"))
        assert outcome.admitted
        reports = []
        planner.on_replan(reports.append)
        replanner = AdaptiveReplanner(planner, ResourceMonitor(catalog))
        report = replanner.replan(victim_ids=[outcome.query.query_id])
        assert reports == [report]
        assert report.victims == [outcome.query.query_id]


class TestTopLevelExports:
    """The main user-facing entry points are importable from ``repro``
    directly, so examples and docs never reach into submodules."""

    def test_primary_entry_points_are_exported(self):
        import repro

        for name in (
            "create_planner",
            "SimulationHarness",
            "CHURN_SCENARIOS",
            "run_churn_experiment",
            "run_named_churn_experiment",
            "FederatedPlanner",
            "SiteCatalogView",
            "SitePartition",
            "SiteRecovery",
            "WanDrift",
            "build_named_churn_schedule",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__, name

    def test_lazy_timeline_exports_resolve(self):
        import repro
        from repro.experiments import timeline

        assert repro.run_churn_experiment is timeline.run_churn_experiment
        assert repro.run_named_churn_experiment is timeline.run_named_churn_experiment

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing
