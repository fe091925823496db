"""Determinism of concurrent shard planning.

``workers`` must never change observable output: planning the same
workload inline (``workers=None``/1) and on the thread pool
(``workers > 1``) yields identical admission decisions and identical
allocation fingerprints after every step — including after a retire, a
host failure (engine eviction adopted by the planner) and the topology
change that follows it.  (The matrix-sweep half of the same contract,
``generate_golden_matrix(workers=4) == generate_golden_matrix(workers=1)``
byte for byte, lives in ``tests/test_golden_matrix.py``.)
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import create_planner
from repro.dsps.engine import ClusterEngine
from repro.experiments.federated import federated_scenario, site_local_workload


def run_trace(workers, *, num_sites=3, queries_per_site=3, seed=7):
    """One churny planning run; returns one record per step: what the
    step decided, the allocation fingerprint after it and the violations
    ``validate()`` reports (always none)."""
    scenario = federated_scenario(num_sites, seed=seed)
    catalog = scenario.build_catalog()
    workload = site_local_workload(scenario, queries_per_site=queries_per_site)
    planner = create_planner("federated:sqpr", catalog, workers=workers)
    trace = []

    def step(decided):
        allocation = planner.allocation
        trace.append((decided, allocation.fingerprint(), allocation.validate()))

    split = max(1, len(workload) // 2)
    batch1 = planner.submit_batch(workload[:split])
    step(tuple((o.query.query_id, o.admitted) for o in batch1))
    admitted = [o.query.query_id for o in batch1 if o.admitted]
    if admitted:
        step(planner.retire(admitted[0]))
    # A host failure the way the harness drives one: the engine evicts
    # the victims, the planner adopts the surviving state.
    engine = ClusterEngine(catalog)
    engine.adopt(planner.allocation)
    report = engine.fail_host(sorted(catalog.hosts.ids)[0])
    planner.allocation = engine.allocation
    dropped = planner.on_topology_change()
    step((tuple(sorted(report.victims)), tuple(sorted(dropped))))
    single = planner.submit(workload[split])
    step((single.query.query_id, single.admitted))
    batch2 = planner.submit_batch(workload[split + 1 :])
    step(tuple((o.query.query_id, o.admitted) for o in batch2))
    return trace


class TestBackendParity:
    def test_serial_thread_identical(self):
        reference = run_trace(None)
        assert all(violations == [] for _, _, violations in reference)
        for workers in (1, 2, 4):
            assert run_trace(workers) == reference, workers

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=1, max_value=50))
    def test_property_thread_matches_inline(self, seed):
        assert run_trace(
            2, num_sites=2, queries_per_site=2, seed=seed
        ) == run_trace(None, num_sites=2, queries_per_site=2, seed=seed)
