"""Property-based mirror tests of the indexed allocation state.

The :class:`~repro.dsps.allocation.Allocation` maintains reverse indexes,
cached resource aggregates, a rolling fingerprint and touched-entity
tracking incrementally on *every* mutation path — ``apply``, direct set
mutation, bulk in-place operators, copies.  These tests pin the contract:

* after any random mutation sequence, every indexed accessor and cached
  aggregate equals the naive full-scan recomputation over the ground-truth
  sets (the ``*_scan`` oracles),
* ``validate_delta`` over the touched sets reports exactly what the full
  ``validate()`` oracle reports,
* equal-content allocations fingerprint equally regardless of history,
* copies are fully independent of their source.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsps.allocation import (
    Allocation,
    PlacementDelta,
    delta_touched_sets,
    touched_between,
)
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode
from tests.conftest import make_catalog, query_over

APPROX = dict(rel=1e-9, abs=1e-9)

NUM_HOSTS = 3
NUM_BASE = 4


def build_catalog():
    catalog = make_catalog(num_hosts=NUM_HOSTS, num_base=NUM_BASE)
    catalog.register_query(query_over("b0", "b1"))
    catalog.register_query(query_over("b1", "b2"))
    catalog.register_query(query_over("b2", "b3"))
    return catalog


#: One shared read-only catalog: streams/operators/queries are immutable
#: once registered, and the tests never touch host liveness on it.
CATALOG = build_catalog()
STREAM_IDS = sorted(
    set(range(NUM_BASE)) | {q.result_stream for q in CATALOG.queries}
)
OPERATOR_IDS = [op.operator_id for op in CATALOG.operators]
QUERY_IDS = [q.query_id for q in CATALOG.queries]
HOSTS = list(range(NUM_HOSTS))


def hosts_st():
    return st.sampled_from(HOSTS)


def streams_st():
    return st.sampled_from(STREAM_IDS)


@st.composite
def mutations(draw, max_ops: int = 40):
    """A random sequence of raw mutation operations."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(
            st.sampled_from(
                [
                    "add_flow",
                    "remove_flow",
                    "add_avail",
                    "remove_avail",
                    "add_place",
                    "remove_place",
                    "provide",
                    "unprovide",
                    "admit",
                    "unadmit",
                    "apply_delta",
                    "bulk_sub",
                    "copy",
                ]
            )
        )
        if kind in ("add_flow", "remove_flow"):
            src = draw(hosts_st())
            dst = draw(st.sampled_from([h for h in HOSTS if h != src]))
            ops.append((kind, (src, dst, draw(streams_st()))))
        elif kind in ("add_avail", "remove_avail"):
            ops.append((kind, (draw(hosts_st()), draw(streams_st()))))
        elif kind in ("add_place", "remove_place"):
            ops.append(
                (kind, (draw(hosts_st()), draw(st.sampled_from(OPERATOR_IDS))))
            )
        elif kind == "provide":
            ops.append((kind, (draw(streams_st()), draw(hosts_st()))))
        elif kind == "unprovide":
            ops.append((kind, draw(streams_st())))
        elif kind in ("admit", "unadmit"):
            ops.append((kind, draw(st.sampled_from(QUERY_IDS))))
        elif kind == "apply_delta":
            ops.append(
                (
                    kind,
                    PlacementDelta(
                        add_flows={
                            (0, 1, draw(streams_st())),
                            (1, 2, draw(streams_st())),
                        },
                        remove_flows={(0, 1, draw(streams_st()))},
                        add_available={(draw(hosts_st()), draw(streams_st()))},
                        remove_available={(draw(hosts_st()), draw(streams_st()))},
                        add_placements={
                            (draw(hosts_st()), draw(st.sampled_from(OPERATOR_IDS)))
                        },
                        set_provided={draw(streams_st()): draw(hosts_st())},
                        unset_provided={draw(streams_st())},
                        admit_queries={draw(st.sampled_from(QUERY_IDS))},
                    ),
                )
            )
        else:  # bulk_sub / copy carry no payload beyond what they draw
            ops.append((kind, None))
    return ops


def apply_mutation(allocation: Allocation, op) -> Allocation:
    """Apply one mutation; returns the (possibly replaced) allocation."""
    kind, payload = op
    if kind == "add_flow":
        allocation.flows.add(payload)
    elif kind == "remove_flow":
        allocation.flows.discard(payload)
    elif kind == "add_avail":
        allocation.available.add(payload)
    elif kind == "remove_avail":
        allocation.available.discard(payload)
    elif kind == "add_place":
        allocation.placements.add(payload)
    elif kind == "remove_place":
        allocation.placements.discard(payload)
    elif kind == "provide":
        stream_id, host = payload
        allocation.provided[stream_id] = host
    elif kind == "unprovide":
        allocation.provided.pop(payload, None)
    elif kind == "admit":
        allocation.admit_query(payload)
    elif kind == "unadmit":
        allocation.admitted_queries.discard(payload)
    elif kind == "apply_delta":
        allocation.apply(payload)
    elif kind == "bulk_sub":
        # Exercise the in-place set operators (removals of half the flows).
        doomed = set(sorted(allocation.flows)[::2])
        allocation.flows -= doomed
    elif kind == "copy":
        allocation = allocation.copy()
    return allocation


def assert_mirrors_naive(allocation: Allocation) -> None:
    """Every indexed accessor equals the naive ground-truth recomputation."""
    flows = set(allocation.flows)
    available = set(allocation.available)
    placements = set(allocation.placements)
    provided = dict(allocation.provided)

    # The host-keyed indexes behind validate_delta (emptied keys are
    # deleted, so an absent host means an empty scan).
    for host in HOSTS:
        assert allocation._ops_by_host.get(host, set()) == {
            o for (h, o) in placements if h == host
        }
        assert allocation._avail_by_host.get(host, set()) == {
            s for (h, s) in available if h == host
        }
        assert allocation._provided_by_host.get(host, set()) == {
            s for s, h in provided.items() if h == host
        }
        assert allocation._flows_by_host.get(host, set()) == {
            f for f in flows if host in f[:2]
        }
    assert all(allocation._ops_by_host.values())
    assert all(allocation._avail_by_host.values())
    assert all(allocation._provided_by_host.values())
    assert all(allocation._flows_by_host.values())

    for host in HOSTS:
        assert allocation.cpu_used(host) == pytest.approx(
            allocation.cpu_used_scan(host), **APPROX
        )
        assert allocation.out_bandwidth_used(host) == pytest.approx(
            allocation.out_bandwidth_used_scan(host), **APPROX
        )
        assert allocation.in_bandwidth_used(host) == pytest.approx(
            allocation.in_bandwidth_used_scan(host), **APPROX
        )
        for dst in HOSTS:
            assert allocation.link_used(host, dst) == pytest.approx(
                allocation.link_used_scan(host, dst), **APPROX
            )
        for stream_id in STREAM_IDS:
            assert allocation.flow_sources(host, stream_id) == sorted(
                src for (src, dst, s) in flows if dst == host and s == stream_id
            )

    for stream_id in STREAM_IDS:
        assert allocation.hosts_with_stream(stream_id) == frozenset(
            h for (h, s) in available if s == stream_id
        )
        assert allocation.flow_edges_of_stream(stream_id) == frozenset(
            (src, dst) for (src, dst, s) in flows if s == stream_id
        )
    for operator_id in OPERATOR_IDS:
        assert allocation.hosts_of_operator(operator_id) == frozenset(
            h for (h, o) in placements if o == operator_id
        )
        assert allocation.queries_using_operator(
            operator_id
        ) == allocation.queries_using_operator_scan(operator_id)

    for stream_id in STREAM_IDS:
        assert allocation.queries_using_stream(
            stream_id
        ) == allocation.queries_using_stream_scan(stream_id)
        assert allocation.is_result_held(stream_id) == bool(
            allocation.queries_for_result_scan(stream_id)
        )
    assert allocation.placed_operators() == sorted({o for (_h, o) in placements})
    assert allocation.max_cpu_used() == pytest.approx(
        allocation.max_cpu_used_scan(), **APPROX
    )
    assert allocation.total_cpu_used() == pytest.approx(
        sum(allocation.cpu_used_scan(h) for h in CATALOG.host_ids), **APPROX
    )
    assert allocation.total_network_used() == pytest.approx(
        sum(CATALOG.stream_rate(s) for (_h, _m, s) in flows), **APPROX
    )

    # Excluded-scan parity on a couple of representative exclude sets.
    exclude_streams = set(STREAM_IDS[::2])
    exclude_operators = set(OPERATOR_IDS[::2])
    for host in HOSTS:
        assert allocation.cpu_used(host, exclude_operators) == pytest.approx(
            allocation.cpu_used_scan(host, exclude_operators), **APPROX
        )
        assert allocation.out_bandwidth_used(host, exclude_streams) == pytest.approx(
            allocation.out_bandwidth_used_scan(host, exclude_streams), **APPROX
        )
        assert allocation.in_bandwidth_used(host, exclude_streams) == pytest.approx(
            allocation.in_bandwidth_used_scan(host, exclude_streams), **APPROX
        )
        for dst in HOSTS:
            assert allocation.link_used(host, dst, exclude_streams) == pytest.approx(
                allocation.link_used_scan(host, dst, exclude_streams), **APPROX
            )

    # Fingerprint: rebuilding the same contents from scratch (different
    # history, different insertion order) must produce the same digest.
    rebuilt = Allocation(CATALOG)
    for key in sorted(flows, reverse=True):
        rebuilt.flows.add(key)
    for key in sorted(available, reverse=True):
        rebuilt.available.add(key)
    for key in sorted(placements, reverse=True):
        rebuilt.placements.add(key)
    for stream_id, host in sorted(provided.items(), reverse=True):
        rebuilt.provided[stream_id] = host
    for query_id in sorted(allocation.admitted_queries, reverse=True):
        rebuilt.admit_query(query_id)
    assert rebuilt.fingerprint() == allocation.fingerprint()
    assert rebuilt.structural_fingerprint() == allocation.structural_fingerprint()


common_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestIndexMirror:
    @given(ops=mutations())
    @common_settings
    def test_indexes_equal_naive_recomputation_after_any_sequence(self, ops):
        allocation = Allocation(CATALOG)
        for op in ops:
            allocation = apply_mutation(allocation, op)
        assert_mirrors_naive(allocation)

    @given(ops=mutations(max_ops=20))
    @common_settings
    def test_validate_delta_over_cumulative_touched_equals_oracle(self, ops):
        # From an empty allocation every structure that exists was touched
        # at some point, so the union of all drained touched sets covers the
        # whole state and delta validation must agree with the full oracle.
        allocation = Allocation(CATALOG)
        hosts, streams, operators = set(), set(), set()
        for op in ops:
            before = allocation
            allocation = apply_mutation(allocation, op)
            if allocation is not before:
                th, ts, to = touched_between(before, allocation)
                allocation.drain_touched()
            else:
                th, ts, to = allocation.drain_touched()
            hosts |= th
            streams |= ts
            operators |= to
        delta_report = allocation.validate_delta(hosts, streams, operators)
        assert sorted(delta_report) == sorted(allocation.validate())

    @given(ops=mutations(max_ops=25))
    @common_settings
    def test_rolling_fingerprint_tracks_exact_fingerprint(self, ops):
        # The model-reuse cache keys rounds by the O(1) rolling fingerprint;
        # this pins it to the exact content-enumerating one: equal contents
        # (however reached) agree, and every content change moves both.
        from repro.core.model_builder import (
            allocation_fingerprint,
            allocation_fingerprint_exact,
        )

        allocation = Allocation(CATALOG)
        seen = {}
        for op in ops:
            allocation = apply_mutation(allocation, op)
            exact = allocation_fingerprint_exact(allocation)
            rolling = allocation_fingerprint(allocation)
            assert rolling == allocation.fingerprint()
            if exact in seen:
                # Same contents reached through a different history must
                # produce the same rolling digest.
                assert seen[exact] == rolling
            seen[exact] = rolling
        # Distinct contents never collided across this run's states.
        assert len(set(seen.values())) == len(seen)

    @given(ops=mutations(max_ops=20))
    @common_settings
    def test_copy_is_independent(self, ops):
        allocation = Allocation(CATALOG)
        for op in ops:
            allocation = apply_mutation(allocation, op)
        snapshot_fp = allocation.fingerprint()
        clone = allocation.copy()
        assert clone.fingerprint() == snapshot_fp
        # Mutating the clone must leave the original (sets, indexes,
        # aggregates, fingerprint) untouched.
        clone.flows.add((0, 2, STREAM_IDS[0]))
        clone.placements.add((2, OPERATOR_IDS[0]))
        clone.provided[STREAM_IDS[0]] = 2
        assert allocation.fingerprint() == snapshot_fp
        assert_mirrors_naive(allocation)
        assert_mirrors_naive(clone)


class TestFingerprintCancellation:
    """Adversarial duplicate add/remove sequences against the rolling XOR.

    An XOR accumulator over a *multiset* would let a duplicate insertion
    cancel itself (x ^ x == 0) and report an empty-looking digest for a
    non-empty state.  The observed collections are sets, so a second add
    of a present key must be a no-op for the fingerprint, and remove/add
    churn must always land back on the content digest.  These tests pin
    that by pitting the rolling digest against the content-enumerating
    oracle under sequences crafted to trigger cancellation.
    """

    def test_duplicate_add_is_a_fingerprint_noop(self):
        from repro.core.model_builder import (
            allocation_fingerprint,
            allocation_fingerprint_exact,
        )

        allocation = Allocation(CATALOG)
        flow = (0, 1, STREAM_IDS[0])
        allocation.flows.add(flow)
        once = allocation_fingerprint(allocation)
        # A second add of the same key must not XOR the term again (which
        # would cancel it and make the state fingerprint as empty).
        allocation.flows.add(flow)
        allocation.flows.update([flow])
        allocation.flows |= {flow}
        assert allocation_fingerprint(allocation) == once
        assert allocation_fingerprint(allocation) != Allocation(
            CATALOG
        ).fingerprint()
        assert len(allocation.flows) == 1
        assert allocation_fingerprint_exact(
            allocation
        ) == allocation_fingerprint_exact(allocation)

    def test_remove_absent_key_is_a_fingerprint_noop(self):
        allocation = Allocation(CATALOG)
        avail = (0, STREAM_IDS[1])
        allocation.available.add(avail)
        once = allocation.fingerprint()
        allocation.available.discard((2, STREAM_IDS[1]))
        allocation.available -= {(1, STREAM_IDS[1])}
        assert allocation.fingerprint() == once

    @given(
        key=st.tuples(
            st.sampled_from(HOSTS), st.sampled_from(STREAM_IDS)
        ),
        churn=st.lists(st.booleans(), min_size=1, max_size=30),
    )
    @common_settings
    def test_add_remove_churn_lands_on_content_digest(self, key, churn):
        # Replay an arbitrary present/absent toggle history for one key and
        # check the rolling digest matches a fresh same-content build.
        from repro.core.model_builder import (
            allocation_fingerprint,
            allocation_fingerprint_exact,
        )

        allocation = Allocation(CATALOG)
        for want_present in churn:
            if want_present:
                allocation.available.add(key)
            else:
                allocation.available.discard(key)
        reference = Allocation(CATALOG)
        if churn[-1]:
            reference.available.add(key)
        assert allocation_fingerprint(allocation) == allocation_fingerprint(
            reference
        )
        assert allocation_fingerprint_exact(
            allocation
        ) == allocation_fingerprint_exact(reference)

    @given(ops=mutations(max_ops=30))
    @common_settings
    def test_structural_fingerprint_is_blind_to_admitted_churn(self, ops):
        allocation = Allocation(CATALOG)
        for op in ops:
            allocation = apply_mutation(allocation, op)
        before = allocation.structural_fingerprint()
        # Admitted-set churn never moves the structural fingerprint.
        for query_id in QUERY_IDS:
            allocation.admit_query(query_id)
            assert allocation.structural_fingerprint() == before
        for query_id in QUERY_IDS:
            allocation.admitted_queries.discard(query_id)
        assert allocation.structural_fingerprint() == before
        full_before = allocation.fingerprint()
        # A structural change moves it.
        probe = (2, STREAM_IDS[-1])
        was_present = probe in allocation.available
        if was_present:
            allocation.available.discard(probe)
        else:
            allocation.available.add(probe)
        assert allocation.structural_fingerprint() != before
        # Round-trip back restores both digests (history-independence).
        if was_present:
            allocation.available.add(probe)
        else:
            allocation.available.discard(probe)
        assert allocation.structural_fingerprint() == before
        assert allocation.fingerprint() == full_before


class TestValidateDeltaFromValidState:
    """Delta validation from a *valid* state finds exactly the oracle's
    violations for any single perturbation — the contract the simulation
    harness relies on event after event."""

    def build_valid_allocation(self):
        from repro.api import create_planner

        catalog = build_catalog()
        planner = create_planner("heuristic", catalog)
        for query in catalog.queries:
            planner.submit(query)
        allocation = planner.allocation
        assert allocation.validate() == []
        allocation.drain_touched()
        return catalog, allocation

    def perturbations(self, allocation):
        yield "remove_flow", lambda a: a.flows and a.flows.discard(
            sorted(a.flows)[0]
        )
        yield "remove_avail", lambda a: a.available.discard(
            sorted(a.available)[0]
        )
        yield "remove_place", lambda a: a.placements.discard(
            sorted(a.placements)[0]
        )
        yield "bogus_avail", lambda a: a.available.add((2, sorted(a.provided)[0]))
        yield "bogus_provide", lambda a: a.provided.__setitem__(
            sorted(a.provided)[0], 2
        )
        yield "bogus_flow", lambda a: a.flows.add((2, 0, sorted(a.provided)[0]))

    def test_single_perturbations_match_oracle(self):
        for name, perturb in self.perturbations(None):
            catalog, allocation = self.build_valid_allocation()
            perturb(allocation)
            touched = allocation.drain_touched()
            delta_report = allocation.validate_delta(*touched)
            assert sorted(delta_report) == sorted(allocation.validate()), name

    def test_offline_host_liveness_detected(self):
        catalog, allocation = self.build_valid_allocation()
        # Take a host that actually carries structures offline; every
        # liveness violation the oracle sees must surface through the
        # touched-host slice alone.
        loaded = max(catalog.host_ids, key=allocation.cpu_used)
        catalog.deactivate_host(loaded)
        delta_report = allocation.validate_delta({loaded})
        assert sorted(delta_report) == sorted(allocation.validate())
        assert delta_report  # the loaded host had placements
        catalog.activate_host(loaded)


class TestTouchedInheritance:
    """Touched tracking survives the mutate-in-place-then-replace pattern
    of the planners' garbage-collection path: draining the successor object
    must still report the in-place mutations of the same event."""

    def test_rebuild_seeds_touched_from_source(self):
        from repro.api import create_planner
        from repro.dsps.plan import rebuild_minimal_allocation

        catalog = build_catalog()
        planner = create_planner("heuristic", catalog)
        for query in catalog.queries:
            planner.submit(query)
        allocation = planner.allocation
        allocation.drain_touched()

        # In-place mutation (as a planner applying a decoded delta does) …
        operator_id = OPERATOR_IDS[0]
        placed_host = sorted(allocation.hosts_of_operator(operator_id))
        extra_host = next(
            h for h in catalog.host_ids if h not in placed_host
        )
        allocation.placements.add((extra_host, operator_id))
        # … followed by a rebuild that garbage-collects the redundant
        # placement into a fresh object.
        rebuilt = rebuild_minimal_allocation(catalog, allocation)
        assert (extra_host, operator_id) not in rebuilt.placements
        hosts, _streams, operators = rebuilt.drain_touched()
        assert extra_host in hosts
        assert operator_id in operators

    def test_copy_carries_pending_touched(self):
        allocation = Allocation(CATALOG)
        allocation.available.add((0, 0))
        clone = allocation.copy()
        clone.available.add((1, 1))
        hosts, streams, _ = clone.drain_touched()
        assert hosts == {0, 1}
        assert streams == {0, 1}


class TestObservedCollections:
    """Every mutating entry point of the observed collections keeps the
    indexes in sync — including the rarely used bulk/in-place forms."""

    def test_set_entry_points(self):
        allocation = Allocation(CATALOG)
        flows = allocation.flows
        flows.add((0, 1, 0))
        flows.update({(1, 2, 1), (0, 2, 2)})
        flows |= {(2, 0, 3)}
        assert_mirrors_naive(allocation)
        flows.remove((0, 1, 0))
        with pytest.raises(KeyError):
            flows.remove((0, 1, 0))
        flows.discard((9, 9, 9))  # absent: no-op
        flows -= {(1, 2, 1)}
        assert_mirrors_naive(allocation)
        flows ^= {(0, 2, 2), (1, 0, 1)}  # drops one, adds one
        assert (1, 0, 1) in flows and (0, 2, 2) not in flows
        flows &= {(1, 0, 1)}
        assert set(flows) == {(1, 0, 1)}
        assert_mirrors_naive(allocation)
        popped = flows.pop()
        assert popped == (1, 0, 1)
        allocation.available.update({(0, 0), (1, 1)})
        allocation.available.clear()
        assert_mirrors_naive(allocation)
        assert allocation.fingerprint() == Allocation(CATALOG).fingerprint()

    def test_dict_entry_points(self):
        allocation = Allocation(CATALOG)
        provided = allocation.provided
        provided[0] = 1
        provided[0] = 1  # same value: no fingerprint churn
        fp = allocation.fingerprint()
        provided[0] = 1
        assert allocation.fingerprint() == fp
        provided[0] = 2  # moved provider
        assert allocation.fingerprint() != fp
        provided.update({1: 0, 2: 1})
        assert provided.setdefault(1, 9) == 0
        assert provided.setdefault(3, 2) == 2
        del provided[3]
        assert provided.pop(2) == 1
        assert provided.pop(2, None) is None
        with pytest.raises(KeyError):
            provided.pop(7)
        provided.popitem()
        provided.clear()
        # |= must route through the hooks (dict.__ior__ would bypass them).
        provided |= {0: 1, 1: 0}
        assert allocation._provided_by_host[1] == {0}
        assert_mirrors_naive(allocation)
        provided.clear()
        assert allocation.fingerprint() == Allocation(CATALOG).fingerprint()

    def test_symmetric_difference_update_deduplicates_like_builtin(self):
        allocation = Allocation(CATALOG)
        allocation.flows.update({(0, 1, 0), (1, 2, 1)})
        # Builtin sets toggle each *distinct* element once; a duplicate in
        # the iterable must not cancel the toggle.
        allocation.flows.symmetric_difference_update([(0, 2, 2), (0, 2, 2)])
        assert set(allocation.flows) == {(0, 1, 0), (1, 2, 1), (0, 2, 2)}
        assert_mirrors_naive(allocation)

    def test_observed_collections_refuse_pickling(self):
        import pickle

        allocation = Allocation(CATALOG)
        with pytest.raises(TypeError):
            pickle.dumps(allocation.flows)
        with pytest.raises(TypeError):
            pickle.dumps(allocation.provided)


class TestDeltaTouchedSets:
    def test_extractor_covers_every_field(self):
        catalog = CATALOG
        operator_id = OPERATOR_IDS[0]
        output = catalog.get_operator(operator_id).output_stream
        delta = PlacementDelta(
            add_flows={(0, 1, 3)},
            remove_flows={(1, 2, 2)},
            add_available={(2, 1)},
            remove_available={(0, 0)},
            add_placements={(1, operator_id)},
            set_provided={2: 0},
            unset_provided={1},
            admit_queries={QUERY_IDS[0]},
        )
        hosts, streams, operators = delta_touched_sets(delta, catalog)
        assert hosts == {0, 1, 2}
        assert streams == {0, 1, 2, 3, output}
        assert operators == {operator_id}

    def test_apply_then_validate_delta_matches_oracle(self):
        allocation = Allocation(CATALOG)
        operator_id = OPERATOR_IDS[0]
        delta = PlacementDelta(
            add_available={(0, 0), (0, 5)},
            add_placements={(0, operator_id)},
            set_provided={5: 0},
        )
        allocation.apply(delta)
        report = allocation.validate_delta(*delta_touched_sets(delta, CATALOG))
        assert sorted(report) == sorted(allocation.validate())


# --------------------------------------------------------------- federated
def build_federated_catalog():
    """A two-site catalog with a deliberately tight WAN gateway, so random
    mutation sequences routinely overload it (the mirror tests must agree
    on violations, not just on clean states)."""
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=1000.0,
        default_wan_capacity=25.0,
    )
    for i in range(NUM_HOSTS + 1):
        catalog.add_host(
            cpu_capacity=10.0,
            bandwidth_capacity=200.0,
            name=f"h{i}",
            site=i // 2,
        )
    for i in range(NUM_BASE):
        catalog.add_base_stream(f"b{i}", 10.0, i % (NUM_HOSTS + 1))
    catalog.register_query(query_over("b0", "b1"))
    catalog.register_query(query_over("b1", "b2"))
    catalog.register_query(query_over("b2", "b3"))
    return catalog


FED_CATALOG = build_federated_catalog()
FED_HOSTS = list(range(NUM_HOSTS + 1))
FED_SITES = FED_CATALOG.sites


@st.composite
def fed_mutations(draw, max_ops: int = 30):
    """Random raw mutations over the federated catalog's id spaces."""
    ops = []
    stream_ids = sorted(
        set(range(NUM_BASE)) | {q.result_stream for q in FED_CATALOG.queries}
    )
    operator_ids = [op.operator_id for op in FED_CATALOG.operators]
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(
            st.sampled_from(
                ["add_flow", "remove_flow", "add_place", "remove_place", "copy"]
            )
        )
        if kind in ("add_flow", "remove_flow"):
            src = draw(st.sampled_from(FED_HOSTS))
            dst = draw(st.sampled_from([h for h in FED_HOSTS if h != src]))
            ops.append((kind, (src, dst, draw(st.sampled_from(stream_ids)))))
        elif kind in ("add_place", "remove_place"):
            ops.append(
                (
                    kind,
                    (
                        draw(st.sampled_from(FED_HOSTS)),
                        draw(st.sampled_from(operator_ids)),
                    ),
                )
            )
        else:
            ops.append((kind, None))
    return ops


class TestFederatedAggregateMirror:
    """Hypothesis mirrors pinning the per-site-pair WAN aggregates to naive
    recomputation, matching the index-mirror pattern above."""

    @given(ops=fed_mutations())
    @common_settings
    def test_site_aggregates_equal_naive_recomputation(self, ops):
        allocation = Allocation(FED_CATALOG)
        for op in ops:
            allocation = apply_mutation(allocation, op)
        for site in FED_SITES:
            for other in FED_SITES:
                assert allocation.wan_used(site, other) == pytest.approx(
                    allocation.wan_used_scan(site, other), **APPROX
                )
        # wan_usage() lists exactly the pairs with live crossings.
        naive_pairs = {
            (FED_CATALOG.site_of_host(src), FED_CATALOG.site_of_host(dst))
            for (src, dst, _s) in allocation.flows
            if FED_CATALOG.site_of_host(src) != FED_CATALOG.site_of_host(dst)
        }
        assert set(allocation.wan_usage()) == naive_pairs
        # Excluded-scan parity, mirroring the link_used exclusion contract.
        exclude = set(
            sorted({s for (_h, _m, s) in allocation.flows})[::2]
        )
        for site in FED_SITES:
            for other in FED_SITES:
                assert allocation.wan_used(site, other, exclude) == pytest.approx(
                    allocation.wan_used_scan(site, other)
                    - sum(
                        FED_CATALOG.stream_rate(s)
                        for (src, dst, s) in allocation.flows
                        if s in exclude
                        and FED_CATALOG.site_of_host(src) == site
                        and FED_CATALOG.site_of_host(dst) == other
                        and site != other
                    ),
                    **APPROX,
                )

    @given(ops=fed_mutations())
    @common_settings
    def test_wan_and_liveness_delta_equals_oracle(self, ops):
        """validate_delta over everything touched reports exactly the WAN /
        site-liveness violations the full oracle reports — including under
        a partition."""
        allocation = Allocation(FED_CATALOG)
        touched_hosts, touched_streams, touched_operators = set(), set(), set()
        for op in ops:
            allocation = apply_mutation(allocation, op)
            hosts, streams, operators = allocation.drain_touched()
            touched_hosts |= hosts
            touched_streams |= streams
            touched_operators |= operators
        delta_report = allocation.validate_delta(
            touched_hosts, touched_streams, touched_operators
        )
        assert sorted(delta_report) == sorted(allocation.validate())
        FED_CATALOG.partition_site(FED_SITES[-1])
        try:
            partition_report = allocation.validate_delta(set(FED_HOSTS))
            assert sorted(partition_report) == sorted(allocation.validate())
        finally:
            FED_CATALOG.heal_site(FED_SITES[-1])
