"""Tests for the heuristic planner and the SODA-like planner."""

from __future__ import annotations

import pytest

from repro.baselines.heuristic import HeuristicPlanner
from repro.baselines.soda.macroq import admit_queries, marginal_cpu_requirement
from repro.baselines.soda.macrow import place_template
from repro.baselines.soda.planner import SodaPlanner
from repro.baselines.soda.templates import build_template
from repro.core.candidates import abstract_plans
from repro.dsps.allocation import Allocation
from tests.conftest import make_catalog, query_over


class TestHeuristicPlanner:
    def test_admits_first_query_feasibly(self, tiny_catalog):
        planner = HeuristicPlanner(tiny_catalog)
        outcome = planner.submit(query_over("b0", "b1"))
        assert outcome.admitted
        assert outcome.host is not None
        assert planner.allocation.validate() == []

    def test_duplicate_query_free(self, tiny_catalog):
        planner = HeuristicPlanner(tiny_catalog)
        planner.submit(query_over("b0", "b1"))
        duplicate = planner.submit(query_over("b1", "b0"))
        assert duplicate.admitted and duplicate.duplicate

    def test_reuses_existing_subquery(self, tiny_catalog):
        planner = HeuristicPlanner(tiny_catalog)
        planner.submit(query_over("b0", "b1"))
        cpu_before = planner.allocation.total_cpu_used()
        outcome = planner.submit(query_over("b0", "b1", "b2"))
        assert outcome.admitted
        extra = planner.allocation.total_cpu_used() - cpu_before
        query = outcome.query
        costs = [tiny_catalog.get_operator(o).cpu_cost for o in query.candidate_operators]
        assert extra <= max(costs) + 1e-6
        assert planner.allocation.validate() == []

    def test_rejects_when_no_single_host_fits(self):
        # Each host can fit one join operator; a 3-way join (two operators)
        # cannot be implemented on a single host once both are loaded.
        catalog = make_catalog(num_hosts=2, cpu=1.3, num_base=4)
        planner = HeuristicPlanner(catalog)
        assert planner.submit(query_over("b0", "b1")).admitted
        assert planner.submit(query_over("b2", "b3")).admitted
        outcome = planner.submit(query_over("b0", "b2", "b3"))
        assert not outcome.admitted
        assert planner.allocation.validate() == []

    def test_sequence_stays_feasible(self, tiny_catalog):
        planner = HeuristicPlanner(tiny_catalog)
        for names in (("b0", "b1"), ("b1", "b2"), ("b0", "b1", "b2"), ("b2", "b3")):
            planner.submit(query_over(*names))
        assert planner.allocation.validate() == []
        assert planner.num_admitted >= 3

    def test_abstract_plan_enumeration_bushy(self, bushy_catalog):
        planner = HeuristicPlanner(bushy_catalog)
        query = bushy_catalog.register_query(query_over("b0", "b1", "b2"))
        plans = abstract_plans(bushy_catalog, query, planner.max_abstract_plans)
        # Three bushy decompositions of a 3-way join.
        assert len(plans) == 3
        for plan in plans:
            assert len(plan) == 2


class TestSodaTemplates:
    def test_template_is_canonical_chain(self, tiny_catalog):
        query = tiny_catalog.register_query(query_over("b0", "b1", "b2"))
        template = build_template(tiny_catalog, query)
        assert len(template.operators) == 2
        assert template.result_stream == query.result_stream
        assert template.total_cpu(tiny_catalog) > 0.0

    def test_template_in_exhaustive_catalog(self, bushy_catalog):
        query = bushy_catalog.register_query(query_over("b0", "b1", "b2"))
        template = build_template(bushy_catalog, query)
        assert len(template.operators) == 2


class TestSodaStages:
    def test_macroq_admits_within_capacity(self, tiny_catalog):
        q1 = tiny_catalog.register_query(query_over("b0", "b1"))
        q2 = tiny_catalog.register_query(query_over("b1", "b2"))
        templates = [build_template(tiny_catalog, q) for q in (q1, q2)]
        allocation = Allocation(tiny_catalog)
        decisions = admit_queries(tiny_catalog, allocation, templates)
        assert all(d.admitted for d in decisions)

    def test_macroq_rejects_beyond_capacity(self):
        catalog = make_catalog(num_hosts=1, cpu=1.2, num_base=4)
        q1 = catalog.register_query(query_over("b0", "b1"))
        q2 = catalog.register_query(query_over("b2", "b3"))
        templates = [build_template(catalog, q) for q in (q1, q2)]
        decisions = admit_queries(catalog, Allocation(catalog), templates)
        assert decisions[0].admitted
        assert not decisions[1].admitted

    def test_marginal_cpu_accounts_for_gluing(self, tiny_catalog):
        q1 = tiny_catalog.register_query(query_over("b0", "b1"))
        template = build_template(tiny_catalog, q1)
        allocation = Allocation(tiny_catalog)
        full = marginal_cpu_requirement(tiny_catalog, allocation, template)
        assert full > 0.0
        allocation.placements.add((0, template.operators[0]))
        assert marginal_cpu_requirement(tiny_catalog, allocation, template) == 0.0

    def test_macrow_places_feasibly(self, tiny_catalog):
        query = tiny_catalog.register_query(query_over("b0", "b1", "b2"))
        template = build_template(tiny_catalog, query)
        result = place_template(tiny_catalog, Allocation(tiny_catalog), template)
        assert result.success
        assert result.allocation.validate() == []
        assert result.allocation.is_provided(query.result_stream)

    def test_macrow_fails_when_no_cpu(self):
        catalog = make_catalog(num_hosts=2, cpu=0.05, num_base=3)
        query = catalog.register_query(query_over("b0", "b1"))
        template = build_template(catalog, query)
        result = place_template(catalog, Allocation(catalog), template)
        assert not result.success


class TestSodaPlanner:
    def test_epoch_planning(self, tiny_catalog):
        planner = SodaPlanner(tiny_catalog)
        outcomes = planner.submit_epoch(
            [query_over("b0", "b1"), query_over("b1", "b2"), query_over("b0", "b1")]
        )
        assert len(outcomes) == 3
        assert all(o.admitted for o in outcomes)
        assert planner.allocation.validate() == []

    def test_duplicate_across_epochs_is_free(self, tiny_catalog):
        planner = SodaPlanner(tiny_catalog)
        planner.submit_epoch([query_over("b0", "b1")])
        outcome = planner.submit(query_over("b1", "b0"))
        assert outcome.admitted and outcome.duplicate

    def test_rejection_reasons_recorded(self):
        catalog = make_catalog(num_hosts=1, cpu=1.2, num_base=4)
        planner = SodaPlanner(catalog)
        outcomes = planner.submit_epoch(
            [query_over("b0", "b1"), query_over("b2", "b3")]
        )
        assert outcomes[0].admitted
        assert not outcomes[1].admitted
        assert outcomes[1].rejected_by in ("macroq", "macrow")

    def test_miniw_can_be_disabled(self, tiny_catalog):
        planner = SodaPlanner(tiny_catalog, use_miniw=False)
        outcome = planner.submit(query_over("b0", "b1", "b2"))
        assert outcome.admitted
        assert planner.allocation.validate() == []

    def test_sequence_stays_feasible(self, tiny_catalog):
        planner = SodaPlanner(tiny_catalog)
        for names in (("b0", "b1"), ("b1", "b2"), ("b0", "b1", "b2"), ("b2", "b3")):
            planner.submit(query_over(*names))
        assert planner.allocation.validate() == []
        assert planner.num_admitted >= 3
