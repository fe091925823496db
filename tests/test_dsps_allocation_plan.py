"""Tests for the allocation state, query-plan trees and plan extraction."""

from __future__ import annotations

import pytest

from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.plan import PlanNode, QueryPlan, extract_plan, rebuild_minimal_allocation
from repro.exceptions import PlanError
from tests.conftest import make_catalog, query_over


@pytest.fixture
def planted_catalog():
    """A catalog with one registered 2-way join query (b0 ⋈ b1)."""
    catalog = make_catalog(num_hosts=3, num_base=3)
    query = catalog.register_query(query_over("b0", "b1"))
    return catalog, query


def manual_allocation(catalog, query, host=0):
    """Manually place the whole query on ``host`` (pulling b1 from host 1)."""
    operator = catalog.producers_of(query.result_stream)[0]
    allocation = Allocation(catalog)
    allocation.available.add((1, 1))
    allocation.flows.add((1, host, 1))
    allocation.available.add((host, 0))
    allocation.available.add((host, 1))
    allocation.placements.add((host, operator.operator_id))
    allocation.available.add((host, query.result_stream))
    allocation.provided[query.result_stream] = host
    allocation.admitted_queries.add(query.query_id)
    return allocation, operator


class TestAllocationAccounting:
    def test_resource_usage(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        assert allocation.cpu_used(0) == pytest.approx(operator.cpu_cost)
        assert allocation.cpu_used(1) == 0.0
        # Host 1 sends b1 (10 Mbps); host 0 delivers the result to the client.
        assert allocation.out_bandwidth_used(1) == pytest.approx(10.0)
        result_rate = catalog.stream_rate(query.result_stream)
        assert allocation.out_bandwidth_used(0) == pytest.approx(result_rate)
        assert allocation.in_bandwidth_used(0) == pytest.approx(10.0)
        assert allocation.link_used(1, 0) == pytest.approx(10.0)

    def test_exclusion_sets(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        assert allocation.cpu_used(0, exclude_operators={operator.operator_id}) == 0.0
        assert allocation.out_bandwidth_used(1, exclude_streams={1}) == 0.0

    def test_objective_helpers(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        assert allocation.total_cpu_used() == pytest.approx(operator.cpu_cost)
        assert allocation.max_cpu_used() == pytest.approx(operator.cpu_cost)
        assert allocation.total_network_used() == pytest.approx(10.0)

    def test_validate_clean_allocation(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, _ = manual_allocation(catalog, query)
        assert allocation.validate() == []
        assert allocation.is_feasible()

    def test_validate_detects_missing_source(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, _ = manual_allocation(catalog, query)
        allocation.available.add((2, query.result_stream))  # no source at host 2
        assert any("availability" in v for v in allocation.validate())

    def test_validate_detects_missing_operator_input(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        allocation.available.discard((0, 1))
        assert any("misses input" in v for v in allocation.validate())

    def test_validate_detects_cpu_overload(self):
        # A host with almost no CPU cannot run even a single join operator.
        big = make_catalog(num_hosts=1, cpu=0.1, num_base=2)
        q = big.register_query(query_over("b0", "b1"))
        op = big.producers_of(q.result_stream)[0]
        alloc = Allocation(big)
        alloc.available.add((0, 0))
        alloc.available.add((0, 1))
        alloc.placements.add((0, op.operator_id))
        assert any("CPU overload" in v for v in alloc.validate())

    def test_validate_detects_unrequested_provided(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, _ = manual_allocation(catalog, query)
        allocation.provided[0] = 0  # base stream b0 was never requested
        assert any("not requested" in v for v in allocation.validate())

    def test_validate_detects_causal_loop(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, _ = manual_allocation(catalog, query)
        s = query.result_stream
        # Hosts 1 and 2 exchange the composite stream without any producer.
        allocation.available.add((1, s))
        allocation.available.add((2, s))
        allocation.flows.add((1, 2, s))
        allocation.flows.add((2, 1, s))
        assert any("acyclicity" in v or "availability" in v for v in allocation.validate())

    def test_apply_delta_and_copy_independence(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        clone = allocation.copy()
        delta = PlacementDelta(remove_placements={(0, operator.operator_id)})
        allocation.apply(delta)
        assert not allocation.has_placement(0, operator.operator_id)
        assert clone.has_placement(0, operator.operator_id)

    def test_delta_is_empty(self):
        assert PlacementDelta().is_empty()
        assert not PlacementDelta(admit_queries={1}).is_empty()

    def test_lookup_helpers(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        assert allocation.provider_of(query.result_stream) == 0
        assert allocation.hosts_with_stream(1) == frozenset({0, 1})
        assert allocation.hosts_of_operator(operator.operator_id) == frozenset({0})
        assert allocation.flow_sources(0, 1) == [1]
        assert allocation.placed_operators() == [operator.operator_id]


class TestPlanValidationAndExtraction:
    def test_extract_plan_round_trip(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        plan = extract_plan(catalog, allocation, query.result_stream)
        assert plan.is_valid(catalog)
        assert plan.root.host == 0
        assert operator.operator_id in plan.operators_used()
        assert plan.num_relays() >= 1  # b1 relayed from host 1
        assert plan.total_cpu(catalog) == pytest.approx(operator.cpu_cost)
        assert plan.network_traffic(catalog) == pytest.approx(10.0)

    def test_extract_plan_requires_provider(self, planted_catalog):
        catalog, query = planted_catalog
        allocation = Allocation(catalog)
        with pytest.raises(PlanError):
            extract_plan(catalog, allocation, query.result_stream)

    def test_c1_violation_detected(self, planted_catalog):
        catalog, query = planted_catalog
        node = PlanNode(host=0, operator_id=None, output_stream=0, local_inputs=frozenset({0}))
        plan = QueryPlan(query_stream=query.result_stream, root=node)
        assert any(v.startswith("C1") for v in plan.validate(catalog))

    def test_c2_violation_detected(self, planted_catalog):
        catalog, query = planted_catalog
        operator = catalog.producers_of(query.result_stream)[0]
        node = PlanNode(
            host=0,
            operator_id=operator.operator_id,
            output_stream=query.result_stream,
            children=[],
            local_inputs=frozenset({0}),  # missing b1
        )
        plan = QueryPlan(query_stream=query.result_stream, root=node)
        assert any(v.startswith("C2") for v in plan.validate(catalog))

    def test_c3_violation_detected(self, planted_catalog):
        catalog, query = planted_catalog
        relay = PlanNode(host=0, operator_id=None, output_stream=1, local_inputs=frozenset())
        plan = QueryPlan(query_stream=1, root=relay)
        assert any(v.startswith("C3") for v in plan.validate(catalog))

    def test_c4_violation_detected(self, planted_catalog):
        catalog, query = planted_catalog
        # Base stream b1 is injected at host 1, not host 2.
        node = PlanNode(host=2, operator_id=None, output_stream=1, local_inputs=frozenset({1}))
        plan = QueryPlan(query_stream=1, root=node)
        assert any(v.startswith("C4") for v in plan.validate(catalog))

    def test_rebuild_minimal_allocation_drops_garbage(self, planted_catalog):
        catalog, query = planted_catalog
        allocation, operator = manual_allocation(catalog, query)
        # Add garbage: a redundant placement and an unused flow.
        allocation.placements.add((2, operator.operator_id))
        allocation.available.add((2, 0))
        allocation.available.add((2, 1))
        allocation.flows.add((1, 2, 1))
        rebuilt = rebuild_minimal_allocation(catalog, allocation)
        assert rebuilt.validate() == []
        assert rebuilt.admitted_queries == {query.query_id}
        assert not rebuilt.has_placement(2, operator.operator_id)
        assert rebuilt.total_cpu_used() <= allocation.total_cpu_used()
