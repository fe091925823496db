"""Sustained-load experiment: the admission service vs one-shot submission.

Drives Poisson query-arrival traffic at increasing rates against two
admission paths built on the *same* federated scenario:

* **sequential** — the pre-service world: every arrival is a blocking
  one-shot ``planner.submit`` call, arrivals queue up behind the solver;
* **service** — an :class:`~repro.service.AdmissionService` over a
  federated planner with parallel shards: co-arriving queries coalesce
  into batch admissions, each solved and deployed on the service's
  worker thread.

Both paths see the identical arrival schedule and workload, and report
sustained throughput (completed admissions per second of wall-clock,
first arrival to last deployed decision) plus admission-latency
percentiles measured from each query's *scheduled* arrival time — so
queueing delay behind a saturated solver is part of the number, exactly
as a client would experience it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import PlannerConfig, create_planner
from repro.dsps.engine import ClusterEngine
from repro.experiments.federated import federated_scenario, site_local_workload
from repro.service import AdmissionService, ServiceConfig

__all__ = [
    "poisson_offsets",
    "run_sequential_load",
    "run_service_load",
    "run_service_load_experiment",
]


def poisson_offsets(rate: float, count: int, seed: int) -> List[float]:
    """Arrival-time offsets (seconds) of a Poisson process at ``rate``."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=count)
    return list(np.cumsum(gaps))


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples), q))


def _summary(
    decisions: List[bool], latencies: List[float], duration: float
) -> Dict[str, object]:
    return {
        "submitted": len(decisions),
        "admitted": sum(decisions),
        "duration_seconds": round(duration, 3),
        "throughput_qps": round(len(decisions) / duration, 2)
        if duration > 0
        else 0.0,
        "latency_p50": round(_percentile(latencies, 50), 4),
        "latency_p99": round(_percentile(latencies, 99), 4),
        "decisions": decisions,
    }


def run_sequential_load(
    num_sites: int,
    queries_per_site: int,
    offsets: Sequence[float],
    time_limit: float = 0.6,
    seed: int = 7,
) -> Dict[str, object]:
    """One-shot blocking submission of the arrival trace."""
    scenario = federated_scenario(num_sites, seed=seed)
    workload = site_local_workload(scenario, queries_per_site=queries_per_site)
    catalog = scenario.build_catalog()
    planner = create_planner(
        "federated:sqpr",
        catalog,
        config=PlannerConfig(time_limit=time_limit),
    )
    engine = ClusterEngine(catalog)
    decisions: List[bool] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for offset, item in zip(offsets, workload):
        now = time.perf_counter() - start
        if offset > now:
            time.sleep(offset - now)
        outcome = planner.submit(item)
        # Deploy path of the one-shot world: hand the engine the new
        # allocation after every admission, validating what it touched.
        allocation = planner.allocation
        hosts, streams, operators = allocation.drain_touched()
        violations = allocation.validate_delta(hosts, streams, operators)
        assert not violations, violations
        engine.adopt(allocation, trusted=True)
        decisions.append(outcome.admitted)
        latencies.append((time.perf_counter() - start) - offset)
    duration = time.perf_counter() - start
    return _summary(decisions, latencies, duration)


def run_service_load(
    num_sites: int,
    queries_per_site: int,
    offsets: Sequence[float],
    time_limit: float = 0.6,
    seed: int = 7,
    workers: int = 4,
    max_batch: int = 40,
    batch_window: float = 1.2,
    batch_time_limit: Optional[float] = 2.0,
) -> Dict[str, object]:
    """The same trace through a batching admission service.

    Unlike the service's own work-conserving default (``0.0``), this
    keeps a 1.2 s ``batch_window``: it exceeds the ≈ 0.7 s a 60 q/s
    arrival rate needs to deliver ``max_batch=40`` queries, so loaded
    batches fill to 40.  On fig11's saturated point (160 queries, where
    the sequential path admits 87) that admitted 90–93 over seven runs.
    At ``0.0`` batches are whatever queued up during the previous solve
    and admitted 86–89, below sequential in two runs of seven.  Waiting
    only when the queue is non-empty admitted 84–85 in 4 of 4 runs.
    """
    scenario = federated_scenario(num_sites, seed=seed)
    workload = site_local_workload(scenario, queries_per_site=queries_per_site)
    catalog = scenario.build_catalog()
    planner = create_planner(
        "federated:sqpr",
        catalog,
        config=PlannerConfig(time_limit=time_limit),
        workers=workers,
    )
    engine = ClusterEngine(catalog)
    service = AdmissionService(
        planner,
        engine=engine,
        config=ServiceConfig(
            max_batch=max_batch,
            batch_window=batch_window,
            batch_time_limit=batch_time_limit,
            overload_policy="block",
        ),
    )
    tickets = []
    start = time.perf_counter()
    with service:
        for offset, item in zip(offsets, workload):
            now = time.perf_counter() - start
            if offset > now:
                time.sleep(offset - now)
            tickets.append((offset, service.submit(item)))
        service.flush()
        duration = time.perf_counter() - start
        decisions = [
            ticket.result(timeout=60.0).admitted for _, ticket in tickets
        ]
        latencies = [
            (ticket.completed_at - start) - offset
            for offset, ticket in tickets
        ]
    result = _summary(decisions, latencies, duration)
    result["metrics"] = service.metrics.snapshot()
    return result


def run_service_load_experiment(
    load_points: Sequence[Dict[str, float]],
    num_sites: int = 4,
    time_limit: float = 0.6,
    seed: int = 7,
    **service_kwargs: object,
) -> List[Dict[str, object]]:
    """Run both admission paths over increasing Poisson arrival rates.

    ``load_points`` entries carry ``rate`` (queries/second offered) and
    ``queries_per_site``; the same seeded arrival schedule feeds both
    paths at each point.  A point may pin its own arrival-trace ``seed``
    (defaults to ``seed + index``) so that quick and full benchmark modes
    measure the identical trace at a shared load point.
    """
    records: List[Dict[str, object]] = []
    for index, point in enumerate(load_points):
        rate = float(point["rate"])
        queries_per_site = int(point["queries_per_site"])
        count = queries_per_site * num_sites
        arrival_seed = int(point.get("seed", seed + index))
        offsets = poisson_offsets(rate, count, seed=arrival_seed)
        sequential = run_sequential_load(
            num_sites,
            queries_per_site,
            offsets,
            time_limit=time_limit,
            seed=seed,
        )
        service = run_service_load(
            num_sites,
            queries_per_site,
            offsets,
            time_limit=time_limit,
            seed=seed,
            **service_kwargs,
        )
        speedup = (
            service["throughput_qps"] / sequential["throughput_qps"]
            if sequential["throughput_qps"]
            else float("inf")
        )
        records.append(
            {
                "offered_rate_qps": rate,
                "num_queries": count,
                "arrival_seed": arrival_seed,
                "sequential": sequential,
                "service": service,
                "throughput_speedup": round(speedup, 2),
            }
        )
    return records
