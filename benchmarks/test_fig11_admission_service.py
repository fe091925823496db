"""Benchmark "Figure 11": sustained admission throughput under Poisson load.

The admission service turns the planner into a long-running endpoint:
co-arriving queries coalesce into batch admissions (one joint MILP per
batch instead of one per query), the federated planner runs its per-site
shards on a worker pool, and the service's worker thread deploys each
batch after its solve.  The pre-service baseline is sequential one-shot
submission — each arrival blocks on its own ``planner.submit`` and
engine hand-off while later arrivals queue up behind the solver.

Both paths replay the *identical* seeded Poisson arrival trace over the
same federated scenario at increasing offered rates, and report
sustained throughput (queries decided and deployed per wall-clock
second) plus p50/p99 admission latency measured from each query's
scheduled arrival.  At the largest load point the benchmark asserts

* a sustained-throughput speedup of at least ``MIN_THROUGHPUT_SPEEDUP``×,
* an equal-or-better admission count for the service (batch-level
  fallback keeps decisions from regressing vs. sequential), and
* a recorded (positive) p99 admission latency for both paths.

The report is written to ``BENCH_service.json`` at the repository root
(format documented in ``docs/benchmarks.md``).  Set
``SERVICE_BENCH_QUICK=1`` for the smaller CI mode — it runs only the
largest (asserted) load point over the same pinned arrival trace — and
``SERVICE_BENCH_OUT`` to redirect the report.  No pytest-benchmark
plugin needed:

    pytest benchmarks/test_fig11_admission_service.py -q -s
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.service_load import run_service_load_experiment

#: Offered Poisson rates and per-site workload sizes.  The largest point
#: (the saturated one) carries the assertions; its arrival-trace seed is
#: pinned so quick and full modes measure the identical trace.
FULL_LOAD_POINTS = [
    {"rate": 5.0, "queries_per_site": 10, "seed": 7},
    {"rate": 15.0, "queries_per_site": 25, "seed": 8},
    {"rate": 60.0, "queries_per_site": 40, "seed": 7},
]
QUICK_LOAD_POINTS = FULL_LOAD_POINTS[-1:]

NUM_SITES = 4
TIME_LIMIT = 0.6
SEED = 7

#: Service configuration under test: parallel federated shards plus
#: batched admission with a flat per-batch solver budget.  The 1.2 s
#: coalescing window (the service's own default is 0.0) exceeds the
#: batch fill time at the saturating rate (40 arrivals at 60 q/s ≈
#: 0.7 s), so loaded batches fill to ``max_batch``.  Measured on the
#: pinned 160-query trace, where sequential admits 87: at 1.2 s, 90–93
#: admitted over seven runs (solves reach the 2.0 s cap, so the count
#: moves with solver timing); at 0.0, 86–89, below sequential in two
#: runs of seven, which the assertion below forbids; waiting only while
#: the queue is non-empty, 84–85 in 4 of 4.  The price is idle latency:
#: the 5 q/s point's service p50 stays near 0.9 s (sequential: ≈ 15 ms),
#: most of it the window.
SERVICE_KWARGS = {
    "workers": 4,
    "max_batch": 40,
    "batch_window": 1.2,
    "batch_time_limit": 2.0,
}

MIN_THROUGHPUT_SPEEDUP = 2.0


def test_fig11_admission_service_report():
    quick = bool(os.environ.get("SERVICE_BENCH_QUICK"))
    load_points = QUICK_LOAD_POINTS if quick else FULL_LOAD_POINTS
    out_path = Path(
        os.environ.get(
            "SERVICE_BENCH_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_service.json",
        )
    )

    raw = run_service_load_experiment(
        load_points,
        num_sites=NUM_SITES,
        time_limit=TIME_LIMIT,
        seed=SEED,
        **SERVICE_KWARGS,
    )

    records = []
    for entry in raw:
        sequential, service = entry["sequential"], entry["service"]
        # Decisions are per-query booleans; the report keeps the compact
        # summary and the service's own metrics snapshot.
        records.append(
            {
                "offered_rate_qps": entry["offered_rate_qps"],
                "num_queries": entry["num_queries"],
                "arrival_seed": entry["arrival_seed"],
                "sequential": {
                    key: sequential[key]
                    for key in (
                        "submitted",
                        "admitted",
                        "duration_seconds",
                        "throughput_qps",
                        "latency_p50",
                        "latency_p99",
                    )
                },
                "service": {
                    key: service[key]
                    for key in (
                        "submitted",
                        "admitted",
                        "duration_seconds",
                        "throughput_qps",
                        "latency_p50",
                        "latency_p99",
                    )
                },
                "service_metrics": service["metrics"],
                "throughput_speedup": entry["throughput_speedup"],
            }
        )
        print(
            f"fig11 admission service: rate={entry['offered_rate_qps']:.0f}q/s "
            f"n={entry['num_queries']} "
            f"sequential={sequential['throughput_qps']:.2f}q/s "
            f"(adm {sequential['admitted']}, p99 {sequential['latency_p99']:.2f}s) "
            f"service={service['throughput_qps']:.2f}q/s "
            f"(adm {service['admitted']}, p99 {service['latency_p99']:.2f}s) "
            f"speedup={entry['throughput_speedup']:.2f}x"
        )

    report = {
        "figure": "fig11_admission_service",
        "quick_mode": quick,
        "planner": "federated:sqpr",
        "num_sites": NUM_SITES,
        "time_limit": TIME_LIMIT,
        "seed": SEED,
        "service": SERVICE_KWARGS,
        "workload": "site_local_poisson",
        "min_throughput_speedup_at_largest": MIN_THROUGHPUT_SPEEDUP,
        "load_points": records,
        "largest": records[-1],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"fig11 admission-service report written to {out_path}")

    largest = records[-1]
    assert largest["throughput_speedup"] >= MIN_THROUGHPUT_SPEEDUP, (
        f"the admission service sustains only "
        f"{largest['throughput_speedup']}x the sequential one-shot "
        f"throughput at {largest['offered_rate_qps']:.0f} q/s offered; "
        f"expected >= {MIN_THROUGHPUT_SPEEDUP}x"
    )
    assert largest["service"]["admitted"] >= largest["sequential"]["admitted"], (
        "batched admission admitted fewer queries than sequential "
        "one-shot submission at the largest load point"
    )
    for path in ("sequential", "service"):
        assert largest[path]["latency_p99"] > 0.0, (
            f"no p99 admission latency recorded for the {path} path"
        )
