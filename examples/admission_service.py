"""A long-running admission service under bursty query arrivals.

Builds a 3-site federated scenario, starts an ``AdmissionService`` over
``federated:sqpr`` with parallel per-site shards, and pushes a burst of
site-local queries through it.  The first query is solved at once; the
ones that queue up behind its solve coalesce into batch admissions (one
joint model per site group per batch), each batch deploys through the
cluster engine, and the service's metrics registry records what
happened — batch sizes, queue waits, solve and deploy timings, and the
end-to-end admission-latency distribution.

Run with::

    python examples/admission_service.py
"""

from __future__ import annotations

import json

from repro import ClusterEngine, PlannerConfig, create_planner
from repro.experiments.federated import federated_scenario, site_local_workload
from repro.service import AdmissionService, ServiceConfig


def main() -> None:
    scenario = federated_scenario(num_sites=3, seed=11)
    workload = site_local_workload(scenario, queries_per_site=8)
    catalog = scenario.build_catalog()
    print(f"catalog: {catalog.summary()}")
    print(f"burst: {len(workload)} site-local queries across {catalog.num_sites} sites\n")

    planner = create_planner(
        "federated:sqpr",
        catalog,
        config=PlannerConfig(time_limit=0.6),
        workers=3,  # per-site shards solve on a worker pool
    )
    engine = ClusterEngine(catalog)

    config = ServiceConfig(
        max_batch=8,          # coalesce up to 8 queued queries per batch
        batch_time_limit=1.5, # flat solver budget per batch
        overload_policy="block",
    )

    with AdmissionService(planner, engine=engine, config=config) as service:
        # Fire the whole burst without waiting for decisions: each submit
        # returns a ticket immediately and the worker coalesces.
        tickets = [service.submit(item) for item in workload]
        service.flush(timeout=60.0)

        admitted = 0
        for index, ticket in enumerate(tickets):
            outcome = ticket.result(timeout=10.0)
            admitted += outcome.admitted
            if index < 5:
                print(
                    f"query {index}: admitted={outcome.admitted} "
                    f"queue_wait={ticket.queue_wait:.3f}s "
                    f"latency={ticket.latency:.3f}s"
                )
        print(f"...\nadmitted {admitted}/{len(tickets)}")
        print(f"engine allocation matches planner: "
              f"{engine.allocation.fingerprint() == planner.allocation.fingerprint()}\n")

        snapshot = service.metrics.snapshot()
        counters = snapshot["counters"]
        batches = snapshot["histograms"]["batch_size"]
        latency = snapshot["histograms"]["admission_latency_seconds"]
        print(f"batches: {counters['batches_total']} "
              f"(median size {batches['p50']:.0f}), "
              f"deploys: {counters['deploys_total']}")
        print(f"admission latency: p50={latency['p50']:.3f}s "
              f"p99={latency['p99']:.3f}s")
        print("\nfull metrics snapshot:")
        print(json.dumps(snapshot, indent=2, default=float)[:800], "...")


if __name__ == "__main__":
    main()
