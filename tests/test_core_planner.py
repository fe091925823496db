"""Tests for the SQPR planner (Algorithm 1), batching and statistics."""

from __future__ import annotations

import pytest

from repro.core.planner import PlannerConfig, SQPRPlanner
from repro.exceptions import PlanningError
from tests.conftest import make_catalog, query_over


class TestSubmit:
    def test_single_admission(self, tiny_planner):
        outcome = tiny_planner.submit(query_over("b0", "b1"))
        assert outcome.admitted
        assert not outcome.duplicate
        assert outcome.planning_time >= 0.0
        assert tiny_planner.num_admitted == 1
        assert tiny_planner.allocation.validate() == []

    def test_duplicate_query_admitted_for_free(self, tiny_planner):
        first = tiny_planner.submit(query_over("b0", "b1"))
        second = tiny_planner.submit(query_over("b1", "b0"))
        assert first.admitted and second.admitted
        assert second.duplicate
        assert second.solve_result is None
        assert tiny_planner.num_admitted == 2

    def test_sequence_of_queries_stays_feasible(self, tiny_planner):
        items = [
            query_over("b0", "b1"),
            query_over("b1", "b2"),
            query_over("b0", "b1", "b2"),
            query_over("b2", "b3"),
            query_over("b0", "b3"),
        ]
        for item in items:
            tiny_planner.submit(item)
        assert tiny_planner.allocation.validate() == []
        assert tiny_planner.num_admitted >= 4

    def test_rejection_when_resources_exhausted(self):
        catalog = make_catalog(num_hosts=2, cpu=1.2, num_base=4)
        planner = SQPRPlanner(
            catalog, config=PlannerConfig(time_limit=5.0, validate_after_apply=True)
        )
        outcomes = [
            planner.submit(query_over("b0", "b1")),
            planner.submit(query_over("b2", "b3")),
            planner.submit(query_over("b0", "b2")),
            planner.submit(query_over("b1", "b3")),
        ]
        assert any(o.admitted for o in outcomes)
        assert any(not o.admitted for o in outcomes)
        assert planner.allocation.validate() == []
        # Admitted queries keep being admitted even after later rejections.
        for outcome in outcomes:
            if outcome.admitted:
                assert outcome.query.query_id in planner.allocation.admitted_queries

    def test_saturated_cluster_reports_the_aggregate_cpu_screen(self, monkeypatch):
        # Three hosts fit one 1.1-CPU operator each; after three admissions
        # the 0.3 CPU left cannot hold any new operator, however the
        # resident placement is repacked.
        workload = [
            ("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b0", "b1", "b2"), ("b0", "b3"),
        ]

        def run(screen: bool):
            catalog = make_catalog(num_hosts=3, cpu=1.2, num_base=4)
            planner = SQPRPlanner(catalog, config=PlannerConfig(time_limit=None))
            if not screen:
                monkeypatch.setattr(planner, "_relocation_candidates", lambda qs: qs)
            return [planner.submit(query_over(*names)) for names in workload]

        screened = run(screen=True)
        assert [o.admitted for o in screened] == [True, True, True, False, False]
        assert [o.rejection_reason for o in screened[3:]] == ["screened:aggregate-cpu"] * 2
        unscreened = run(screen=False)
        assert [o.admitted for o in unscreened] == [o.admitted for o in screened]
        assert [o.rejection_reason for o in unscreened[3:]] == ["no-admitting-incumbent"] * 2

    def test_submit_rejects_bad_type(self, tiny_planner):
        with pytest.raises(PlanningError):
            tiny_planner.submit("not a query")  # type: ignore[arg-type]

    def test_statistics(self, tiny_planner):
        tiny_planner.submit(query_over("b0", "b1"))
        tiny_planner.submit(query_over("b2", "b3"))
        assert tiny_planner.num_submitted == 2
        assert 0.0 < tiny_planner.admission_rate() <= 1.0
        assert tiny_planner.average_planning_time() >= 0.0

    def test_outcome_records_model_size(self, tiny_planner):
        outcome = tiny_planner.submit(query_over("b0", "b1"))
        assert outcome.model_size > 0
        assert outcome.scope_streams >= 3
        assert outcome.scope_operators >= 1


class TestBatching:
    def test_batch_submission(self, tiny_planner):
        outcomes = tiny_planner.submit_batch(
            [query_over("b0", "b1"), query_over("b2", "b3")]
        )
        assert len(outcomes) == 2
        assert all(o.admitted for o in outcomes)
        assert tiny_planner.allocation.validate() == []

    def test_empty_batch(self, tiny_planner):
        assert tiny_planner.submit_batch([]) == []

    def test_batch_outcomes_preserve_order(self, tiny_planner):
        items = [query_over("b0", "b1"), query_over("b1", "b2"), query_over("b0", "b1")]
        outcomes = tiny_planner.submit_batch(items)
        assert [o.query.base_streams for o in outcomes] == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 1}),
        ]
        # The third item duplicates the first; within one batch it is covered
        # by the same provided result stream and therefore admitted.
        assert outcomes[0].admitted and outcomes[2].admitted


class TestConfigurationVariants:
    @pytest.mark.parametrize("replan", [True, False])
    def test_replanning_toggle(self, replan):
        catalog = make_catalog(num_hosts=3, num_base=4)
        planner = SQPRPlanner(
            catalog,
            config=PlannerConfig(
                time_limit=5.0, replan_overlapping=replan, validate_after_apply=True
            ),
        )
        for names in (("b0", "b1"), ("b0", "b1", "b2"), ("b1", "b2")):
            planner.submit(query_over(*names))
        assert planner.allocation.validate() == []
        assert planner.num_admitted >= 2

    def test_relay_disabled(self):
        catalog = make_catalog(num_hosts=3, num_base=4)
        planner = SQPRPlanner(
            catalog,
            config=PlannerConfig(
                time_limit=5.0, allow_relay=False, validate_after_apply=True
            ),
        )
        outcome = planner.submit(query_over("b0", "b1", "b2"))
        assert outcome.admitted
        assert planner.allocation.validate() == []

    def test_single_stage_mode(self):
        catalog = make_catalog(num_hosts=3, num_base=4)
        planner = SQPRPlanner(
            catalog,
            config=PlannerConfig(
                time_limit=5.0, two_stage=False, validate_after_apply=True
            ),
        )
        outcome = planner.submit(query_over("b0", "b1"))
        assert outcome.admitted

    def test_garbage_collection_keeps_allocation_minimal(self):
        catalog = make_catalog(num_hosts=3, num_base=4)
        planner = SQPRPlanner(
            catalog,
            config=PlannerConfig(time_limit=5.0, garbage_collect=True),
        )
        planner.submit(query_over("b0", "b1"))
        planner.submit(query_over("b0", "b1", "b2"))
        allocation = planner.allocation
        # Every placement must be used by some admitted query's plan.
        from repro.dsps.plan import extract_plan

        used = set()
        for query_id in allocation.admitted_queries:
            query = catalog.get_query(query_id)
            plan = extract_plan(catalog, allocation, query.result_stream)
            for node in plan.nodes():
                if node.operator_id is not None:
                    used.add((node.host, node.operator_id))
        assert allocation.placements == used
