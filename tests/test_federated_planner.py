"""Unit tests of the federated planning stack: the site catalog views, the
query router, shard/coordinator ownership, resource soundness across the
shard boundary, and the ``federated:<inner>`` registry integration."""

from __future__ import annotations

import pytest

from repro.api import PlannerConfig, available_planners, create_planner
from repro.core.federated import FederatedPlanner
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SiteCatalogView, SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.exceptions import CatalogError, PlanningError
from tests.conftest import query_over


def make_federated_catalog(
    num_sites: int = 2,
    hosts_per_site: int = 3,
    cpu: float = 8.0,
    bandwidth: float = 400.0,
    wan_capacity: float = 100.0,
    streams_per_host: int = 2,
    rate: float = 10.0,
) -> SystemCatalog:
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=1000.0,
        default_wan_capacity=wan_capacity,
    )
    num_hosts = num_sites * hosts_per_site
    for i in range(num_hosts):
        catalog.add_host(cpu, bandwidth, name=f"h{i}", site=i // hosts_per_site)
    for i in range(streams_per_host * num_hosts):
        catalog.add_base_stream(f"b{i}", rate, i % num_hosts)
    return catalog


def stream_names_of_site(catalog: SystemCatalog, site: int):
    names = []
    for stream in catalog.streams.base_streams:
        hosts = catalog.base_hosts_of(stream.stream_id)
        if hosts and all(catalog.site_of_host(h) == site for h in hosts):
            names.append(stream.name)
    return names


class TestSiteCatalogView:
    def test_filters_hosts_and_base_streams(self):
        catalog = make_federated_catalog()
        view = SiteCatalogView(catalog, 1)
        assert view.host_ids == [3, 4, 5]
        assert view.hosts.ids == [3, 4, 5]
        assert view.num_hosts == catalog.num_hosts  # global id space
        for stream in catalog.streams.base_streams:
            expected = frozenset(
                h
                for h in catalog.base_hosts_of(stream.stream_id)
                if catalog.site_of_host(h) == 1
            )
            assert view.base_hosts_of(stream.stream_id) == expected

    def test_delegates_everything_else(self):
        catalog = make_federated_catalog()
        view = SiteCatalogView(catalog, 0)
        assert view.cost_model is catalog.cost_model
        assert view.streams is catalog.streams
        assert view.num_sites == 2
        query = view.register_query(query_over("b0", "b1"))
        assert catalog.get_query(query.query_id) is query

    def test_rejects_unknown_site(self):
        catalog = make_federated_catalog()
        with pytest.raises(CatalogError):
            SiteCatalogView(catalog, 9)

    def test_host_liveness_follows_base(self):
        catalog = make_federated_catalog()
        view = SiteCatalogView(catalog, 0)
        catalog.deactivate_host(1)
        assert view.host_ids == [0, 2]
        assert view.hosts.offline_ids == [1]
        catalog.activate_host(1)
        assert view.host_ids == [0, 1, 2]

    def test_foreign_allocation_reduces_capacities(self):
        catalog = make_federated_catalog()
        view = SiteCatalogView(catalog, 0)
        assert view.hosts.get(0).cpu_capacity == 8.0

        query = catalog.register_query(query_over("b0", "b1"))
        operator_id = next(iter(query.candidate_operators))
        cost = catalog.get_operator(operator_id).cpu_cost
        foreign = Allocation(catalog)
        foreign.available.add((0, 0))
        foreign.available.add((0, 1))
        foreign.placements.add((0, operator_id))
        foreign.flows.add((1, 0, 1))
        view.set_foreign_allocation(foreign)

        assert view.hosts.get(0).cpu_capacity == pytest.approx(8.0 - cost)
        rate = catalog.stream_rate(1)
        assert view.hosts.get(0).bandwidth_capacity == pytest.approx(400.0 - rate)
        assert view.link_capacity(1, 0) == pytest.approx(1000.0 - rate)
        # Untouched hosts keep the original Host object.
        assert view.hosts.get(2) is catalog.hosts.get(2)
        view.set_foreign_allocation(None)
        assert view.hosts.get(0).cpu_capacity == 8.0


class TestRegistry:
    def test_federated_is_registered(self):
        assert "federated" in available_planners()

    @pytest.mark.parametrize("inner", ["sqpr", "heuristic", "soda"])
    def test_parameterised_creation(self, inner):
        catalog = make_federated_catalog()
        planner = create_planner(
            f"federated:{inner}", catalog, config=PlannerConfig(time_limit=0.3)
        )
        assert isinstance(planner, FederatedPlanner)
        assert planner.name == f"federated:{inner}"
        assert planner.inner_name == inner

    def test_bare_federated_defaults_to_sqpr(self):
        planner = create_planner("federated", make_federated_catalog())
        assert planner.inner_name == "sqpr"
        assert planner.name == "federated"

    def test_unknown_inner_raises(self):
        with pytest.raises(PlanningError):
            create_planner("federated:nope", make_federated_catalog())

    def test_allocationless_inner_raises(self):
        with pytest.raises(PlanningError):
            create_planner("federated:optimistic", make_federated_catalog())

    def test_nesting_raises(self):
        with pytest.raises(PlanningError):
            create_planner("federated:federated", make_federated_catalog())

    def test_non_parameterised_outer_raises_planning_error(self):
        with pytest.raises(PlanningError):
            create_planner("soda:sqpr", make_federated_catalog())


class TestRouting:
    def test_site_local_queries_go_to_their_shard(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:heuristic", catalog, config=PlannerConfig()
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        out0 = planner.submit(query_over(*site0[:2]))
        out1 = planner.submit(query_over(*site1[:2]))
        assert out0.extras["site"] == 0
        assert out1.extras["site"] == 1
        cross = planner.submit(query_over(site0[0], site1[0]))
        assert cross.extras["site"] == "coordinator"

    def test_offline_sources_escalate_to_coordinator(self):
        catalog = make_federated_catalog()
        planner = create_planner("federated:heuristic", catalog)
        name = stream_names_of_site(catalog, 0)[0]
        stream = catalog.streams.get_by_name(name)
        query = catalog.register_query(query_over(name, stream_names_of_site(catalog, 0)[1]))
        assert planner.route(query) == 0
        for host in catalog.base_hosts_of(stream.stream_id):
            catalog.deactivate_host(host)
        assert planner.route(query) is None

    def test_multi_homed_stream_intersects_sites(self):
        catalog = make_federated_catalog()
        # Make b0 (site 0) also available at a site-1 host: a query over
        # {b0, b_site1} is then site-1-local.
        b0 = catalog.streams.get_by_name("b0")
        catalog.add_base_stream_location(b0.stream_id, 3)
        planner = create_planner("federated:heuristic", catalog)
        site1_name = stream_names_of_site(catalog, 1)[0]
        query = catalog.register_query(query_over("b0", site1_name))
        assert planner.route(query) == 1


class TestFederatedPlanning:
    def test_shard_allocations_merge_into_global_state(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        outcomes = [
            planner.submit(query_over(*site0[:2])),
            planner.submit(query_over(*site1[:2])),
            planner.submit(query_over(site0[0], site1[0])),
        ]
        assert all(o.admitted for o in outcomes)
        assert planner.allocation.validate() == []
        assert planner.active_queries == {0, 1, 2}
        # The cross-site query crossed the gateway; the site-local ones did
        # not (their placements stay inside their shard's hosts).
        assert planner.allocation.wan_usage() != {}
        for host, _op in planner.allocation.placements:
            assert catalog.is_host_active(host)

    def test_retire_routes_to_owner_and_is_idempotent(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        planner.submit(query_over(*site0[:2]))
        cross = planner.submit(query_over(site0[0], site1[0]))
        assert planner.retire(cross.query.query_id) is True
        assert planner.retire(cross.query.query_id) is False
        assert planner.allocation.wan_usage() == {}
        assert planner.allocation.validate() == []
        assert planner.active_queries == {0}
        assert planner.retire(12345) is False

    def test_retire_refused_by_owner_skips_the_merge_rebuild(self, monkeypatch):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        query_id = planner.submit(query_over(*site0[:2])).query.query_id
        # The owning shard no longer admits the query (e.g. an inner planner
        # dropped it on a topology change): nothing leaves, nothing to merge.
        shard = planner._shards[planner._owner[query_id]]
        monkeypatch.setattr(shard, "retire", lambda _query_id: False)
        merged = planner.allocation
        fingerprint = merged.fingerprint()
        assert planner.retire(query_id) is False
        assert planner.allocation is merged
        assert merged.fingerprint() == fingerprint

    def test_each_shard_has_its_own_reuse_cache(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        caches = {
            id(shard._reuse_cache) for shard in planner._shards.values()
        }
        caches.add(id(planner._coordinator._reuse_cache))
        assert len(caches) == len(planner._shards) + 1
        site0 = stream_names_of_site(catalog, 0)
        planner.submit(query_over(*site0[:2]))
        stats = planner.reuse_stats
        assert stats["misses"] >= 1

    def test_coordinator_usage_blocks_shard_overcommit(self):
        """Resource soundness across the boundary: once cross-site queries
        consume a host's CPU, the owning shard sees the reduced capacity
        and declines placements that would jointly overload the host."""
        catalog = make_federated_catalog(
            hosts_per_site=1, cpu=2.5, streams_per_host=4
        )
        planner = create_planner(
            "federated:heuristic", catalog, config=PlannerConfig()
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        cross_admitted, local_admitted, local_rejected = 0, 0, 0
        for i in range(3):
            cross = planner.submit(query_over(site0[i], site1[i]))
            cross_admitted += bool(cross.admitted)
            local = planner.submit(query_over(site0[i], site0[i + 1]))
            local_admitted += bool(local.admitted)
            local_rejected += not local.admitted
            assert planner.allocation.validate() == [], (
                "shard overcommitted a host shared with the coordinator"
            )
        assert cross_admitted >= 1
        assert local_admitted >= 1
        # The single site-0 host fills up with coordinator placements the
        # shard itself never made; without the foreign-usage adjustment the
        # shard would keep admitting and the validations above would fail.
        assert local_rejected >= 1

    def test_foreign_usage_excludes_shard_owned_structures(self):
        """A cross-site plan may reuse shard-produced structures; the
        published foreign usage must exclude them (the shard already
        counts its own structures as background), so the capacity a shard
        sees equals what is actually free on its hosts."""
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        local = planner.submit(query_over(*site0[:2]))
        cross = planner.submit(query_over(site0[0], site1[0]))
        assert local.admitted and cross.admitted
        for site, view in planner._views.items():
            own = planner._shards[site].allocation
            foreign = view.foreign_allocation
            if foreign is not None:
                assert not (set(foreign.placements) & set(own.placements))
                assert not (set(foreign.flows) & set(own.flows))
            for host in view.host_ids:
                true_free = catalog.hosts.get(
                    host
                ).cpu_capacity - planner.allocation.cpu_used(host)
                visible_free = view.hosts.get(host).cpu_capacity - own.cpu_used(
                    host
                )
                assert visible_free == pytest.approx(true_free, abs=1e-9)

    def test_external_assignment_reconciles_shards(self):
        """The harness/replanner path: assigning a garbage-collected
        allocation retires the missing queries from their owners."""
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        site1 = stream_names_of_site(catalog, 1)
        keep = planner.submit(query_over(*site0[:2])).query.query_id
        drop = planner.submit(query_over(*site1[:2])).query.query_id
        survivor = planner.allocation.without_queries([drop])
        planner.allocation = survivor
        assert planner.active_queries == {keep}
        assert drop not in planner._shards[1].allocation.admitted_queries
        assert planner.allocation.validate() == []

    def test_host_join_to_existing_site_becomes_plannable(self):
        catalog = make_federated_catalog()
        planner = create_planner("federated:heuristic", catalog)
        joined = catalog.add_host(8.0, 400.0, name="late", site=0).host_id
        stream = catalog.add_base_stream("late_stream", 10.0, joined)
        planner.on_topology_change()
        assert joined in planner._views[0].site_hosts
        outcome = planner.submit(
            query_over("late_stream", stream_names_of_site(catalog, 0)[0])
        )
        assert outcome.admitted
        assert outcome.extras["site"] == 0
        assert planner.allocation.validate() == []

    def test_host_join_to_new_site_creates_a_shard(self):
        catalog = make_federated_catalog()
        planner = create_planner("federated:heuristic", catalog)
        h1 = catalog.add_host(8.0, 400.0, name="n1", site=2).host_id
        h2 = catalog.add_host(8.0, 400.0, name="n2", site=2).host_id
        catalog.add_base_stream("n_a", 10.0, h1)
        catalog.add_base_stream("n_b", 10.0, h2)
        # Even without an explicit on_topology_change(), submit materialises
        # the new shard on demand.
        outcome = planner.submit(query_over("n_a", "n_b"))
        assert outcome.admitted
        assert outcome.extras["site"] == 2
        assert 2 in planner._shards
        assert planner.allocation.validate() == []

    def test_external_assignment_with_foreign_queries_raises(self):
        """An assigned allocation may only remove queries; adopting queries
        this planner never planned has no owning shard and must fail loudly
        instead of silently dropping them."""
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:heuristic", catalog, config=PlannerConfig()
        )
        site0 = stream_names_of_site(catalog, 0)
        planner.submit(query_over(*site0[:2]))
        foreign = planner.allocation.copy()
        stranger = catalog.register_query(query_over(*site0[2:4]))
        foreign.admit_query(stranger.query_id)
        with pytest.raises(PlanningError):
            planner.allocation = foreign

    def test_reset_clears_all_shards(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        planner.submit(query_over(*stream_names_of_site(catalog, 0)[:2]))
        planner.reset()
        assert planner.num_submitted == 0
        assert planner.active_queries == frozenset()
        assert len(planner.allocation.placements) == 0
        for shard in planner._shards.values():
            assert len(shard.allocation.admitted_queries) == 0

    def test_duplicate_result_stream_is_free(self):
        catalog = make_federated_catalog()
        planner = create_planner(
            "federated:sqpr", catalog, config=PlannerConfig(time_limit=None)
        )
        site0 = stream_names_of_site(catalog, 0)
        first = planner.submit(query_over(*site0[:2]))
        second = planner.submit(query_over(*site0[:2]))
        assert first.admitted and second.admitted
        assert second.duplicate
        assert planner.retire(first.query.query_id)
        # The shared result stream must survive for the duplicate.
        assert planner.allocation.is_provided(first.query.result_stream)
        assert planner.retire(second.query.query_id)
        assert not planner.allocation.is_provided(first.query.result_stream)


class TestSingleSiteEquivalence:
    @pytest.mark.parametrize("inner", ["sqpr", "heuristic"])
    def test_single_site_matches_inner_planner_exactly(self, inner):
        catalog_a = make_federated_catalog(num_sites=1)
        catalog_b = make_federated_catalog(num_sites=1)
        federated = create_planner(
            f"federated:{inner}", catalog_a, config=PlannerConfig(time_limit=None)
        )
        plain = create_planner(
            inner, catalog_b, config=PlannerConfig(time_limit=None)
        )
        workload = [
            query_over("b0", "b1"),
            query_over("b1", "b2"),
            query_over("b0", "b1", "b2"),
            query_over("b3", "b4"),
        ]
        for item in workload:
            fed_outcome = federated.submit(item)
            plain_outcome = plain.submit(item)
            assert fed_outcome.admitted == plain_outcome.admitted
        assert federated.allocation.fingerprint() == plain.allocation.fingerprint()
