"""The sub-plan reuse index: identity with the minimal-rebuild fallback.

The whole point of :class:`repro.dsps.subplan.SubPlanIndex` is that it
*never changes planning results* — it only removes the per-admission
linear pass over resident queries.  The tests here run two planners with
identical inputs through random admit / retire / host-failure /
site-partition sequences and assert that every admission decision and
every allocation fingerprint is identical after every operation.  One
planner keeps its live index; the other's :class:`StaleSubPlanIndex` is
never fresh, so it takes the ``rebuild_minimal_allocation`` /
``without_queries`` fallback on every admission and retirement.  That
twin is the oracle, the same role the ``*_scan`` recomputations play for
the allocation's own indexes.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.planner import PlannerConfig, SQPRPlanner
from repro.dsps.allocation import PlacementDelta, delta_touched_sets
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.engine import ClusterEngine
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.dsps.subplan import SubPlanIndex, resolve_reuse_matches
from tests.conftest import make_catalog, query_over

NUM_HOSTS = 4
NUM_BASE = 6
BASES = [f"b{i}" for i in range(NUM_BASE)]


def build_catalog(
    two_sites: bool = False, num_base: int = NUM_BASE, roomy: float = 1.0
) -> SystemCatalog:
    """``roomy`` scales every capacity (nothing is ever rejected at 20)."""
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=1000.0 * roomy,
    )
    for i in range(NUM_HOSTS):
        site = (i % 2) if two_sites else 0
        catalog.add_host(
            cpu_capacity=10.0 * roomy,
            bandwidth_capacity=200.0 * roomy,
            name=f"h{i}",
            site=site,
        )
    for i in range(num_base):
        catalog.add_base_stream(f"b{i}", 10.0, i % NUM_HOSTS)
    return catalog


class StaleSubPlanIndex(SubPlanIndex):
    """An index that never claims freshness, so its planner always takes
    the ``rebuild_minimal_allocation`` / ``without_queries`` fallback."""

    def is_fresh(self, allocation) -> bool:
        return False


def make_planner(
    catalog: SystemCatalog, oracle: bool = False, **config
) -> SQPRPlanner:
    """An SQPR planner; ``oracle=True`` swaps in a :class:`StaleSubPlanIndex`."""
    config.setdefault("time_limit", 1.0)
    config.setdefault("validate_after_apply", True)
    planner = SQPRPlanner(catalog, config=PlannerConfig(**config))
    if oracle:
        planner._subplan_index = StaleSubPlanIndex(catalog)
    return planner


def paired_planners(two_sites: bool = False):
    """Two planners over twin catalogs: live index and fallback oracle."""
    return (
        make_planner(build_catalog(two_sites)),
        make_planner(build_catalog(two_sites), oracle=True),
    )


def assert_twin_state(p_on: SQPRPlanner, p_off: SQPRPlanner) -> None:
    assert p_on.allocation.fingerprint() == p_off.allocation.fingerprint()
    assert (
        p_on.allocation.admitted_queries == p_off.allocation.admitted_queries
    )
    assert p_on.allocation.validate() == []
    assert_index_invariants(p_on)


def assert_index_invariants(planner: SQPRPlanner) -> None:
    """Reference counts, minimality and provided-holders of a fresh index.

    A topology change (host failure, partition) invalidates the index
    until the next planned admission re-synchronises it; the invariants
    bind only while it claims freshness.
    """
    index, allocation = planner._subplan_index, planner.allocation
    if not index.is_fresh(allocation):
        return
    recount = Counter(op for record in index.records.values() for op in record.ops)
    assert index._refs == recount
    live = {
        kind: {key for k, key in recount if k == kind} for kind in (0, 1, 2)
    }
    assert set(allocation.available) == live[0]
    assert set(allocation.placements) == live[1]
    assert set(allocation.flows) == live[2]
    held = {
        planner.catalog.get_query(query_id).result_stream
        for query_id in allocation.admitted_queries
    }
    assert set(allocation.provided) == held
    assert set(index.records) == held


# --------------------------------------------------------------------- units
class TestSubPlanIndexUnit:
    def test_fresh_from_construction_and_incremental_thereafter(self):
        planner = make_planner(build_catalog())
        for names in (("b0", "b1"), ("b1", "b2"), ("b0", "b1")):
            outcome = planner.submit(query_over(*names))
            assert outcome.admitted
        stats = planner.subplan_stats
        # Construction syncs once; every admission after that is
        # incremental — no stale fallbacks, no extra full rebuilds.
        assert stats["full_rebuilds"] == 1
        assert stats["stale_fallbacks"] == 0
        assert stats["incremental_collects"] == 2  # third submit is a duplicate
        assert stats["records"] == 2

    def test_duplicate_admission_keeps_index_fresh(self):
        planner = make_planner(build_catalog())
        first = planner.submit(query_over("b0", "b1"))
        dup = planner.submit(query_over("b0", "b1"))
        assert first.admitted and dup.admitted
        assert dup.duplicate
        # The duplicate only touched the admitted set; the index must still
        # be fresh (structural fingerprint is blind to admitted churn).
        assert planner._subplan_index.is_fresh(planner.allocation)

    def test_external_mutation_forces_fallback_then_resync(self):
        p_on, p_off = paired_planners()
        for planner in (p_on, p_off):
            planner.submit(query_over("b0", "b1"))
        # Simulate an external actor leaving garbage in the live allocation
        # (e.g. a harness poking state): the index must detect the changed
        # structural fingerprint, fall back, and still match the oracle.
        for planner in (p_on, p_off):
            planner.allocation.available.add((0, 5))
        assert not p_on._subplan_index.is_fresh(p_on.allocation)
        o_on = p_on.submit(query_over("b1", "b2"))
        o_off = p_off.submit(query_over("b1", "b2"))
        assert o_on.admitted == o_off.admitted
        assert_twin_state(p_on, p_off)
        assert p_on.subplan_stats["stale_fallbacks"] == 1
        # Resynced: the next admission is incremental again.
        p_on.submit(query_over("b2", "b3"))
        assert p_on.subplan_stats["stale_fallbacks"] == 1

    def test_retire_matches_oracle_and_shares_duplicate_subplans(self):
        p_on, p_off = paired_planners()
        ids = []
        for names in (("b0", "b1"), ("b0", "b1"), ("b2", "b3")):
            o_on = p_on.submit(query_over(*names))
            p_off.submit(query_over(*names))
            ids.append(o_on.query.query_id)
        # Retiring one of two duplicates must keep the shared sub-plan.
        assert p_on.retire(ids[0]) is True
        assert p_off.retire(ids[0]) is True
        assert_twin_state(p_on, p_off)
        assert p_on.allocation.is_provided(
            p_on.catalog.get_query(ids[1]).result_stream
        )
        # Retiring the survivor drops it.
        assert p_on.retire(ids[1]) is True
        assert p_off.retire(ids[1]) is True
        assert_twin_state(p_on, p_off)
        # Unknown / not-admitted ids are refused identically.
        assert p_on.retire(ids[1]) is False
        assert p_off.retire(ids[1]) is False
        assert p_on.retire(10_000) is False
        assert p_off.retire(10_000) is False

    def test_reset_resyncs_on_empty_allocation(self):
        planner = make_planner(build_catalog())
        planner.submit(query_over("b0", "b1"))
        planner.reset()
        assert len(planner._subplan_index) == 0
        assert planner._subplan_index.is_fresh(planner.allocation)
        outcome = planner.submit(query_over("b1", "b2"))
        assert outcome.admitted
        assert planner.subplan_stats["stale_fallbacks"] == 0

    def test_fallback_rebuild_reextracts_every_record(self):
        planner = make_planner(build_catalog())
        for names in (("b0", "b1"), ("b2", "b3")):
            planner.submit(query_over(*names))
        index = planner._subplan_index
        # External garbage makes the next admission take the fallback; the
        # rebuild that follows must leave exactly what fresh extractions
        # from the rebuilt allocation give, with matching reference counts.
        planner.allocation.available.add((0, 5))
        assert planner.submit(query_over("b1", "b2")).admitted
        assert planner.subplan_stats["stale_fallbacks"] == 1
        assert index.is_fresh(planner.allocation)
        records = index.records
        assert len(records) == 3
        for result_stream, record in records.items():
            assert record == index._extract(planner.allocation, result_stream)
        recount = Counter(op for record in records.values() for op in record.ops)
        assert index._refs == recount

    def test_records_are_replay_sequences(self):
        planner = make_planner(build_catalog())
        outcome = planner.submit(query_over("b0", "b1"))
        index = planner._subplan_index
        record = index.records[outcome.query.result_stream]
        assert record.provider == planner.allocation.provider_of(
            outcome.query.result_stream
        )
        assert record.num_structures == len(record.ops)
        # Every structure in the replay sequence is live.
        for kind, key in record.ops:
            if kind == 0:
                assert key in planner.allocation.available
            elif kind == 1:
                assert key in planner.allocation.placements
            else:
                assert key in planner.allocation.flows


class TestRetireCostsItsDelta:
    """Retirement is O(delta), pinned by what it touches — not by a clock.

    Twin planners hold 256 and then 2048 residents drawn Zipf from one pool
    of 40 distinct queries (the e2e ``resident_turnover`` shape).  At either
    population a duplicate's departure touches nothing and the last holder's
    departure touches exactly its record's zero-count structures.
    """

    POOL = 40
    ZIPF = 1.5
    NUM_BASE = 10  # 45 arity-2 combinations >= POOL

    @classmethod
    def roomy_planner(cls, oracle: bool) -> SQPRPlanner:
        # No time limit: a solve cut short returns a timing-dependent
        # incumbent, and the twins must plan identically.
        return make_planner(
            build_catalog(num_base=cls.NUM_BASE, roomy=20.0),
            oracle=oracle,
            time_limit=None,
            validate_after_apply=False,
        )

    def test_duplicate_and_last_holder_retires_at_256_and_2048(self):
        rng = random.Random(7)
        p_on, p_off = self.roomy_planner(False), self.roomy_planner(True)
        combos = list(combinations([f"b{i}" for i in range(self.NUM_BASE)], 2))
        rng.shuffle(combos)
        pool = combos[: self.POOL]
        weights = [1.0 / (rank + 1) ** self.ZIPF for rank in range(self.POOL)]
        holders = {names: [] for names in pool}

        def retire_both(query_id: int) -> None:
            assert p_on.retire(query_id) is True
            assert p_off.retire(query_id) is True
            assert p_on.allocation.fingerprint() == p_off.allocation.fingerprint()
            assert p_on.allocation.validate() == []

        for target in (256, 2048):
            missing = target - len(p_on.allocation.admitted_queries)
            for names in rng.choices(pool, weights=weights, k=missing):
                o_on = p_on.submit(query_over(*names))
                o_off = p_off.submit(query_over(*names))
                assert o_on.admitted and o_off.admitted
                holders[names].append(o_on.query.query_id)
            assert len(p_on.allocation.admitted_queries) == target
            live, index = p_on.allocation, p_on._subplan_index
            reextracted = index.stats["records_reextracted"]

            # A duplicate leaves: same object, same structures, nothing touched.
            crowded = max(pool, key=lambda names: len(holders[names]))
            structural = live.structural_fingerprint()
            live.drain_touched()
            retire_both(holders[crowded].pop())
            assert p_on.allocation is live
            assert live.structural_fingerprint() == structural
            assert live.peek_touched() == (set(), set(), set())

            # The last holder leaves: only its zero-count structures go.
            rare = min(
                (names for names in pool if holders[names]),
                key=lambda names: len(holders[names]),
            )
            while len(holders[rare]) > 1:
                retire_both(holders[rare].pop())
            last = holders[rare].pop()
            result_stream = p_on.catalog.get_query(last).result_stream
            record = index.records[result_stream]
            exclusive = [op for op in record.ops if index._refs[op] == 1]
            hosts, streams, operators = delta_touched_sets(
                PlacementDelta(
                    remove_available={key for kind, key in exclusive if kind == 0},
                    remove_placements={key for kind, key in exclusive if kind == 1},
                    remove_flows={key for kind, key in exclusive if kind == 2},
                    unset_provided={result_stream},
                ),
                p_on.catalog,
            )
            hosts.add(record.provider)
            live.drain_touched()
            retire_both(last)
            assert p_on.allocation is live
            assert live.peek_touched() == (hosts, streams, operators)
            assert result_stream not in index.records
            assert index.stats["records_reextracted"] == reextracted
            assert_index_invariants(p_on)
        assert p_on.subplan_stats["stale_fallbacks"] == 0


class TestReuseMatches:
    def test_exact_partial_and_fresh_classification(self):
        planner = make_planner(build_catalog())
        resident = planner.submit(query_over("b0", "b1")).query
        duplicate = planner.catalog.register_query(query_over("b0", "b1"))
        overlapping = planner.catalog.register_query(query_over("b1", "b2"))
        fresh = planner.catalog.register_query(query_over("b4", "b5"))
        matches = {
            m.query_id: m
            for m in resolve_reuse_matches(
                planner.allocation, [duplicate, overlapping, fresh]
            )
        }
        assert matches[duplicate.query_id].exact
        assert not matches[duplicate.query_id].partial
        assert not matches[overlapping.query_id].exact
        assert matches[overlapping.query_id].partial
        assert matches[overlapping.query_id].overlapping_queries == 1
        assert not matches[fresh.query_id].exact
        assert not matches[fresh.query_id].partial
        assert matches[fresh.query_id].shared_streams == 0
        assert resident.query_id not in matches

    def test_submit_batch_attaches_reuse_extras(self):
        planner = make_planner(build_catalog())
        planner.submit(query_over("b0", "b1"))
        outcomes = planner.submit_batch(
            [query_over("b0", "b1"), query_over("b1", "b2"), query_over("b4", "b5")]
        )
        assert outcomes[0].duplicate and outcomes[0].reuse_exact
        assert not outcomes[1].reuse_exact and outcomes[1].reuse_partial
        assert not outcomes[2].reuse_exact and not outcomes[2].reuse_partial


# ---------------------------------------------------------------- properties
OPS = ["submit", "submit", "submit", "retire", "fail_host", "partition"]

# The fast lane runs 10 examples; the full 25-example budget lives in the
# ``slow`` twin below (CI runs ``-m slow``).  Same strategy, same assertions.
full_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
fast_settings = settings(full_settings, max_examples=10)


@st.composite
def op_sequences(draw):
    length = draw(st.integers(min_value=4, max_value=14))
    ops = []
    for _ in range(length):
        kind = draw(st.sampled_from(OPS))
        if kind == "submit":
            k = draw(st.integers(min_value=2, max_value=3))
            ops.append(
                (
                    "submit",
                    tuple(
                        sorted(
                            draw(
                                st.permutations(BASES).map(
                                    lambda p, k=k: tuple(p[:k])
                                )
                            )
                        )
                    ),
                )
            )
        elif kind == "retire":
            ops.append(("retire", draw(st.integers(min_value=0, max_value=30))))
        else:
            ops.append((kind, None))
    return ops


class TestIndexMatchesOracle:
    """Live index == rebuild-fallback oracle across random lifecycle sequences."""

    @given(ops=op_sequences())
    @fast_settings
    def test_random_sequences_agree_with_index_free_oracle(self, ops):
        self.check_sequence(ops)

    @pytest.mark.slow
    @given(ops=op_sequences())
    @full_settings
    def test_random_sequences_agree_with_index_free_oracle_full(self, ops):
        self.check_sequence(ops)

    @staticmethod
    def check_sequence(ops):
        p_on, p_off = paired_planners(two_sites=True)
        engines = (
            ClusterEngine(p_on.catalog, strict=False),
            ClusterEngine(p_off.catalog, strict=False),
        )
        failed = False
        partitioned = False
        admitted: list = []
        for kind, payload in ops:
            if kind == "submit":
                o_on = p_on.submit(query_over(*payload))
                o_off = p_off.submit(query_over(*payload))
                assert (o_on.admitted, o_on.duplicate) == (
                    o_off.admitted,
                    o_off.duplicate,
                )
                if o_on.admitted:
                    admitted.append(o_on.query.query_id)
            elif kind == "retire":
                if not admitted:
                    continue
                query_id = admitted[payload % len(admitted)]
                r_on = p_on.retire(query_id)
                r_off = p_off.retire(query_id)
                assert r_on == r_off
                if r_on:
                    admitted.remove(query_id)
            elif kind == "fail_host" and not failed:
                # Mirror the harness: engines adopt the planner allocation,
                # fail the host, planners adopt the survivors back and get
                # their topology-change notification.
                failed = True
                victims = None
                for planner, engine in zip((p_on, p_off), engines):
                    engine.adopt(planner.allocation, trusted=True)
                    report = engine.fail_host(0)
                    assert report.violations == []
                    planner.allocation = engine.allocation
                    planner.on_topology_change()
                    if victims is None:
                        victims = report.victims
                    else:
                        assert report.victims == victims
                admitted = [q for q in admitted if q not in victims]
            elif kind == "partition" and not partitioned:
                partitioned = True
                victims = None
                for planner, engine in zip((p_on, p_off), engines):
                    engine.adopt(planner.allocation, trusted=True)
                    report = engine.partition_site(1)
                    assert report.violations == []
                    engine.heal_site(1)
                    planner.allocation = engine.allocation
                    planner.on_topology_change()
                    if victims is None:
                        victims = report.victims
                    else:
                        assert report.victims == victims
                admitted = [q for q in admitted if q not in victims]
            assert_twin_state(p_on, p_off)

    def test_long_random_walk_stays_identical(self):
        rng = random.Random(1234)
        p_on, p_off = paired_planners()
        admitted: list = []
        for _ in range(80):
            if rng.random() < 0.65 or not admitted:
                names = tuple(sorted(rng.sample(BASES, rng.choice([2, 2, 3]))))
                o_on = p_on.submit(query_over(*names))
                o_off = p_off.submit(query_over(*names))
                assert (o_on.admitted, o_on.duplicate) == (
                    o_off.admitted,
                    o_off.duplicate,
                )
                if o_on.admitted:
                    admitted.append(o_on.query.query_id)
            else:
                query_id = rng.choice(admitted)
                assert p_on.retire(query_id) == p_off.retire(query_id)
                admitted.remove(query_id)
            # No topology change in this walk: the invariants inside
            # assert_twin_state must bind after every single step.
            assert p_on._subplan_index.is_fresh(p_on.allocation)
            assert_twin_state(p_on, p_off)
        stats = p_on.subplan_stats
        assert stats["stale_fallbacks"] == 0
        assert stats["incremental_collects"] > 0
        assert stats["incremental_retires"] > 0
