"""Unit coverage for the admission service and its metrics layer.

The sustained-load story lives in ``benchmarks/test_fig11_admission_service``;
here the contracts are pinned on tiny systems: queueing and overload
policies, batch coalescing with the sequential-equivalence fallback,
pipelined vs. synchronous execution, deploys routed through the cluster
engine, and the metrics instruments themselves.
"""

from __future__ import annotations

import json
import queue
import threading
import time

import pytest

from repro.api import PlannerConfig, create_planner
from repro.dsps.engine import ClusterEngine
from repro.exceptions import PlanningError
from repro.service import (
    AdmissionService,
    AdmissionTimeout,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    QueueFullError,
    ServiceClosed,
    ServiceConfig,
)

from tests.conftest import make_catalog, query_over


def small_workload(count: int = 6):
    names = [f"b{i}" for i in range(4)]
    return [
        query_over(names[i % 4], names[(i + 1) % 4]) for i in range(count)
    ]


def make_service(pipelined=False, engine=True, **config_kwargs):
    catalog = make_catalog(num_hosts=3, num_base=4)
    planner = create_planner(
        "sqpr", catalog, config=PlannerConfig(time_limit=2.0)
    )
    cluster = ClusterEngine(catalog) if engine else None
    service = AdmissionService(
        planner,
        engine=cluster,
        config=ServiceConfig(pipelined=pipelined, **config_kwargs),
    )
    return service, planner, cluster


def hold_solves(planner):
    """Make ``planner.submit_batch`` wait until the returned event is set."""
    release = threading.Event()
    plan_batch = planner.submit_batch

    def held_submit_batch(*args, **kwargs):
        assert release.wait(timeout=30.0)
        return plan_batch(*args, **kwargs)

    planner.submit_batch = held_submit_batch
    return release


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 2

    def test_histogram_quantiles_bracket_observations(self):
        histogram = LatencyHistogram("h")
        for value in (0.001, 0.002, 0.004, 0.1, 1.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert 0.0005 <= histogram.quantile(0.5) <= 0.01
        assert histogram.quantile(1.0) == pytest.approx(1.0)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(1.0)
        assert snap["p50"] <= snap["p99"] <= snap["max"]

    def test_histogram_edge_cases(self):
        histogram = LatencyHistogram("h")
        assert histogram.quantile(0.99) == 0.0
        histogram.observe(-1.0)  # clamped to zero
        assert histogram.snapshot()["min"] == 0.0
        histogram.observe(1e9)  # overflow bucket reports the true max
        assert histogram.quantile(1.0) == pytest.approx(1e9)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram("bad", lowest=0.0)

    def test_registry_snapshot_round_trips_json(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2.0)
        registry.histogram("c").observe(0.5)
        assert registry.counter("a") is registry.counter("a")
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["a"] == 1
        assert parsed["gauges"]["b"] == 2.0
        assert parsed["histograms"]["c"]["count"] == 1


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"max_batch": 0},
            {"batch_window": -0.1},
            {"overload_policy": "drop"},
            {"fallback": "sometimes"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_engine_must_share_catalog(self):
        catalog = make_catalog()
        other = make_catalog()
        planner = create_planner("sqpr", catalog)
        with pytest.raises(PlanningError):
            AdmissionService(planner, engine=ClusterEngine(other))


class TestSynchronousService:
    def test_submit_decides_and_deploys_inline(self):
        service, planner, cluster = make_service()
        tickets = [service.submit(item) for item in small_workload(4)]
        assert all(ticket.done() for ticket in tickets)
        outcomes = [ticket.result() for ticket in tickets]
        assert all(outcome.admitted for outcome in outcomes)
        assert (
            cluster.allocation.fingerprint()
            == planner.allocation.fingerprint()
        )
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["admitted_total"] == 4
        assert snapshot["counters"]["batches_total"] == 4
        assert snapshot["counters"]["deploys_total"] == 4
        service.close()

    def test_submit_many_coalesces_deterministically(self):
        def run():
            service, planner, _ = make_service(max_batch=4)
            tickets = service.submit_many(small_workload(8))
            decisions = [ticket.result().admitted for ticket in tickets]
            batches = service.metrics.snapshot()["counters"]["batches_total"]
            service.close()
            return decisions, planner.allocation.fingerprint(), batches

        first = run()
        second = run()
        assert first == second
        assert first[2] == 2  # 8 queries over max_batch=4

    def test_ticket_latency_fields(self):
        service, _, _ = make_service()
        ticket = service.submit(small_workload(1)[0])
        assert ticket.latency is not None and ticket.latency >= 0
        assert ticket.queue_wait is not None and ticket.queue_wait >= 0
        service.close()

    def test_closed_service_refuses_submissions(self):
        service, _, _ = make_service()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(small_workload(1)[0])


class TestOverloadPolicies:
    def test_reject_policy_sheds_on_full_queue(self):
        # No drain happens while the sync lock is held by another thread,
        # so fill the queue directly to exercise the shed path.
        service, _, _ = make_service(
            max_queue=2, overload_policy="reject"
        )
        with service._sync_lock:  # freeze the pipeline
            service._enqueue(small_workload(1)[0])
            service._enqueue(small_workload(1)[0])
            with pytest.raises(QueueFullError):
                service._enqueue(small_workload(1)[0])
        assert service.metrics.snapshot()["counters"]["shed_total"] == 1
        service.close()

    def test_timeout_policy_bounds_the_wait(self):
        service, _, _ = make_service(
            max_queue=1, overload_policy="timeout", enqueue_timeout=0.05
        )
        with service._sync_lock:
            service._enqueue(small_workload(1)[0])
            started = time.perf_counter()
            with pytest.raises(AdmissionTimeout):
                service._enqueue(small_workload(1)[0])
            assert time.perf_counter() - started >= 0.05
        service.close()


class TestPipelinedService:
    def test_pipeline_matches_sync_decisions(self):
        sync_service, sync_planner, _ = make_service()
        sync_outcomes = [
            sync_service.submit(item).result()
            for item in small_workload(6)
        ]
        sync_service.close()

        pipe_service, pipe_planner, pipe_engine = make_service(
            pipelined=True, max_batch=1
        )
        tickets = [pipe_service.submit(item) for item in small_workload(6)]
        pipe_service.flush(timeout=30.0)
        pipe_outcomes = [ticket.result(timeout=5.0) for ticket in tickets]
        pipe_service.close()

        assert [o.admitted for o in pipe_outcomes] == [
            o.admitted for o in sync_outcomes
        ]
        assert (
            pipe_planner.allocation.fingerprint()
            == sync_planner.allocation.fingerprint()
        )
        assert (
            pipe_engine.allocation.fingerprint()
            == pipe_planner.allocation.fingerprint()
        )

    def test_pipeline_coalesces_under_backlog(self):
        service, planner, _ = make_service(pipelined=True)
        # Hold the worker in its first solve: everything submitted
        # meanwhile queues up and must leave as one batch, with no window.
        release = hold_solves(planner)
        try:
            tickets = [service.submit(item) for item in small_workload(8)]
        finally:
            release.set()
        service.flush(timeout=30.0)
        assert all(t.result(timeout=5.0) is not None for t in tickets)
        counters = service.metrics.snapshot()["counters"]
        assert counters["batches_total"] <= 2
        service.close()

    def test_close_drains_accepted_work(self):
        service, _, _ = make_service(pipelined=True)
        tickets = [service.submit(item) for item in small_workload(3)]
        service.close(wait=True)
        assert all(ticket.done() for ticket in tickets)

    def test_flush_timeout_raises(self):
        service, planner, _ = make_service(pipelined=True)
        # Hold the worker's solve on an event, so the timeout does not depend
        # on how long a solve happens to take.
        release = hold_solves(planner)
        ticket = service.submit(small_workload(1)[0])
        try:
            with pytest.raises(AdmissionTimeout):
                service.flush(timeout=0.05)
            assert not ticket.done()
        finally:
            release.set()
        service.flush(timeout=30.0)
        assert ticket.result(timeout=5.0).admitted
        service.close()


def record_arrival_gets(service):
    """Log ``(kind, block)`` for every ``_arrivals.get`` the service makes.

    ``kind`` is ``"ticket"`` or ``"empty"``; ``block`` says whether the
    call could wait (``get_nowait`` goes through ``get(block=False)``).
    Returns the log and an event set once the first logged call starts.
    """
    log = []
    polling = threading.Event()
    real_get = service._arrivals.get

    def get(block=True, timeout=None):
        polling.set()
        try:
            item = real_get(block, timeout)
        except queue.Empty:
            log.append(("empty", block))
            raise
        log.append(("ticket", block))
        return item

    service._arrivals.get = get
    return log, polling


class TestWorkConserving:
    def test_lone_arrival_on_idle_worker_is_dispatched_at_once(self):
        service, planner, _ = make_service(pipelined=True)
        log, polling = record_arrival_gets(service)
        plan_batch = planner.submit_batch

        def logged_submit_batch(*args, **kwargs):
            log.append(("solve", None))
            return plan_batch(*args, **kwargs)

        planner.submit_batch = logged_submit_batch
        # Submit once the idle worker polls through the logged get, so the
        # call that takes the ticket is in the log.
        assert polling.wait(timeout=5.0)
        ticket = service.submit(small_workload(1)[0])
        assert ticket.result(timeout=30.0).admitted
        service.close()
        taken = log.index(("ticket", True))
        solved = log.index(("solve", None))
        assert taken < solved
        # Between taking the ticket and solving, nothing waited for
        # co-arrivals.
        assert [e for e in log[taken + 1 : solved] if e[1]] == []

    def test_synchronous_drain_ignores_the_window(self):
        service, _, _ = make_service(batch_window=5.0)
        log, _ = record_arrival_gets(service)
        tickets = service.submit_many(small_workload(3))
        assert all(ticket.done() for ticket in tickets)
        assert service.metrics.snapshot()["counters"]["batches_total"] == 1
        assert log and not any(block for _, block in log)
        service.close()


class _SolveFailed(RuntimeError):
    pass


def fail_every_solve(planner):
    def submit_batch(*args, **kwargs):
        raise _SolveFailed("the solver raised")

    planner.submit_batch = submit_batch


class TestFailedSolve:
    def test_synchronous_failure_resolves_the_batch(self):
        service, planner, _ = make_service()
        fail_every_solve(planner)
        tickets = [service._enqueue(item) for item in small_workload(2)]
        # The synchronous drain hands the planner's error to its caller...
        with pytest.raises(_SolveFailed):
            service.flush()
        # ...and to every ticket of the batch, which no longer counts as
        # in flight.
        for ticket in tickets:
            with pytest.raises(_SolveFailed):
                ticket.result(timeout=5.0)
        assert service._inflight == 0
        service.flush()
        service.close()

    def test_worker_failure_resolves_the_batch(self):
        service, planner, _ = make_service(pipelined=True)
        fail_every_solve(planner)
        ticket = service.submit(small_workload(1)[0])
        service.flush(timeout=10.0)
        with pytest.raises(_SolveFailed):
            ticket.result(timeout=5.0)
        # A failed solve stops the worker; later submissions are refused.
        service._worker.join(timeout=5.0)
        assert not service._worker.is_alive()
        with pytest.raises(PlanningError, match="worker died"):
            service.submit(small_workload(1)[0])
        service.close()


class TestStartIncumbentMetric:
    def test_counts_decisions_deployed_from_the_warm_start(self):
        service, planner, _ = make_service(pipelined=False)
        tickets = [service.submit(item) for item in small_workload(4)]
        outcomes = [ticket.result() for ticket in tickets]
        from_start = sum(o.incumbent_source == "start" for o in outcomes)
        assert from_start >= 1
        counters = service.metrics.snapshot()["counters"]
        assert counters["start_incumbents_total"] == from_start
        service.close()


class TestFallbackPolicies:
    def _run(self, fallback):
        # One host, tiny capacity: the first query fills the system and the
        # rest of the batch is rejected jointly.
        catalog = make_catalog(num_hosts=1, cpu=1.2, num_base=4, rate=10.0)
        planner = create_planner(
            "sqpr", catalog, config=PlannerConfig(time_limit=2.0)
        )
        service = AdmissionService(
            planner,
            config=ServiceConfig(
                pipelined=False, max_batch=8, fallback=fallback
            ),
        )
        tickets = service.submit_many(small_workload(8))
        outcomes = [ticket.result() for ticket in tickets]
        counters = service.metrics.snapshot()["counters"]
        service.close()
        return outcomes, counters

    def test_fallback_none_accepts_batch_outcomes(self):
        outcomes, counters = self._run("none")
        assert counters["fallback_batches_total"] == 0
        assert counters["rejected_total"] == sum(
            1 for o in outcomes if not o.admitted
        )

    def test_fallback_rejected_replans_each_member(self):
        outcomes_none, _ = self._run("none")
        outcomes, counters = self._run("rejected")
        if any(not o.admitted for o in outcomes_none):
            assert counters["fallback_batches_total"] >= 1
        # Per-query replanning never loses an admission.
        assert sum(o.admitted for o in outcomes) >= sum(
            o.admitted for o in outcomes_none
        )

    def test_fallback_batch_triggers_on_fully_rejected_batch(self):
        # Saturate the system first, then submit a batch that is jointly
        # rejected: the "batch" policy re-plans it member by member.
        catalog = make_catalog(num_hosts=1, cpu=1.2, num_base=4, rate=10.0)
        planner = create_planner(
            "sqpr", catalog, config=PlannerConfig(time_limit=2.0)
        )
        service = AdmissionService(
            planner,
            config=ServiceConfig(
                pipelined=False, max_batch=4, fallback="batch"
            ),
        )
        service.submit_many(small_workload(8))
        before = service.metrics.snapshot()["counters"][
            "fallback_batches_total"
        ]
        tickets = service.submit_many(small_workload(4))
        [ticket.result() for ticket in tickets]
        after = service.metrics.snapshot()["counters"][
            "fallback_batches_total"
        ]
        if all(not t.result().admitted for t in tickets):
            assert after >= before
        service.close()


class TestServiceLoadExperiment:
    def test_experiment_compares_both_paths_on_one_trace(self):
        from repro.experiments.service_load import (
            poisson_offsets,
            run_service_load_experiment,
        )

        with pytest.raises(ValueError):
            poisson_offsets(0.0, 4, seed=1)
        offsets = poisson_offsets(50.0, 6, seed=1)
        assert len(offsets) == 6 and offsets == sorted(offsets)

        records = run_service_load_experiment(
            [{"rate": 50.0, "queries_per_site": 2, "seed": 5}],
            num_sites=2,
            time_limit=0.5,
            workers=2,
            max_batch=4,
            batch_window=0.05,
            batch_time_limit=1.0,
        )
        assert len(records) == 1
        record = records[0]
        assert record["num_queries"] == 4
        assert record["arrival_seed"] == 5
        for path in ("sequential", "service"):
            summary = record[path]
            assert summary["submitted"] == 4
            assert 0 <= summary["admitted"] <= 4
            assert summary["latency_p50"] <= summary["latency_p99"]
        assert record["throughput_speedup"] > 0
        assert "metrics" in record["service"]
        counters = record["service"]["metrics"]["counters"]
        assert counters["arrivals_total"] == 4


class TestConcurrentSubmitters:
    def test_many_threads_one_service(self):
        service, planner, cluster = make_service(
            pipelined=True, max_batch=4, batch_window=0.01
        )
        results = []
        lock = threading.Lock()

        def client(index: int) -> None:
            ticket = service.submit(small_workload(8)[index % 8])
            outcome = ticket.result(timeout=30.0)
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert len(results) == 12
        counters = service.metrics.snapshot()["counters"]
        assert counters["arrivals_total"] == 12
        assert (
            counters["admitted_total"] + counters["rejected_total"] >= 12
        )
        assert (
            cluster.allocation.fingerprint()
            == planner.allocation.fingerprint()
        )
