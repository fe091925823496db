"""Benchmark "Figure 14": concurrent shard planning on the thread pool.

A 6-site federated catalog is planned by ``federated:sqpr`` with its
per-site shard groups run inline (``workers=None``) and on the thread
pool (``workers`` 2 and 4).  Batch solves spend their time inside HiGHS
with the GIL released, so threads overlap them; the Python-bound model
build and lowering is what bounds the ratio.

Every configuration is timed ``RUNS`` times, the three taking turns
within a round.  The assertion — on *every* machine — is that admission
decisions and allocation fingerprints are identical to the inline
reference.  No speed-up is asserted: the ratio depends on the core
count, which is recorded as ``cpu_count`` so readers can interpret it.

The report is written to ``BENCH_parallel.json`` at the repository root
(format documented in ``docs/benchmarks.md``).  Set
``PARALLEL_BENCH_QUICK=1`` for the smaller CI mode and
``PARALLEL_BENCH_OUT`` to redirect the report.  No pytest-benchmark
plugin needed:

    pytest benchmarks/test_fig14_parallel_planning.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from repro.api import create_planner
from repro.experiments.federated import federated_scenario, site_local_workload

NUM_SITES = 6
QUERIES_PER_SITE_FULL = 5
QUERIES_PER_SITE_QUICK = 3
SEED = 7

FULL_WORKER_COUNTS = [2, 4]
QUICK_WORKER_COUNTS = [2]

RUNS_FULL = 5
RUNS_QUICK = 1


def _federated_run(workers, queries_per_site):
    scenario = federated_scenario(NUM_SITES, seed=SEED)
    catalog = scenario.build_catalog()
    workload = site_local_workload(
        scenario, queries_per_site=queries_per_site
    )
    planner = create_planner("federated:sqpr", catalog, workers=workers)
    start = time.perf_counter()
    outcomes = planner.submit_batch(workload)
    elapsed = time.perf_counter() - start
    decisions = tuple((o.query.query_id, o.admitted) for o in outcomes)
    return {
        "elapsed": elapsed,
        "decisions": decisions,
        "fingerprint": planner.allocation.fingerprint(),
        "admitted": sum(1 for _, admitted in decisions if admitted),
    }


def test_fig14_parallel_planning_report():
    quick = bool(os.environ.get("PARALLEL_BENCH_QUICK"))
    worker_counts = QUICK_WORKER_COUNTS if quick else FULL_WORKER_COUNTS
    queries_per_site = (
        QUERIES_PER_SITE_QUICK if quick else QUERIES_PER_SITE_FULL
    )
    runs = RUNS_QUICK if quick else RUNS_FULL
    out_path = Path(
        os.environ.get(
            "PARALLEL_BENCH_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_parallel.json",
        )
    )

    configs = [None] + worker_counts
    seconds = {workers: [] for workers in configs}
    reference = None
    for round_index in range(runs):
        # Rotate who goes first so no configuration always runs on a
        # cold (or a warmed-up) interpreter and CPU.
        shift = round_index % len(configs)
        for workers in configs[shift:] + configs[:shift]:
            run = _federated_run(workers, queries_per_site)
            seconds[workers].append(run["elapsed"])
            if reference is None:
                reference = run
            # The contract, on every machine: workers change wall-clock
            # only, never decisions or the final allocation.
            assert run["decisions"] == reference["decisions"], (
                f"workers={workers} diverged from the reference decisions"
            )
            assert run["fingerprint"] == reference["fingerprint"], (
                f"workers={workers} diverged from the reference fingerprint"
            )

    serial_median = statistics.median(seconds[None])
    federated = {
        "serial": {
            "run_seconds": [round(s, 3) for s in seconds[None]],
            "median_seconds": round(serial_median, 3),
            "admitted": reference["admitted"],
        }
    }
    for workers in worker_counts:
        median = statistics.median(seconds[workers])
        federated[f"workers_{workers}"] = {
            "run_seconds": [round(s, 3) for s in seconds[workers]],
            "median_seconds": round(median, 3),
            "speedup_vs_serial": round(serial_median / median, 2),
        }

    report = {
        "figure": "fig14_parallel_planning",
        "quick_mode": quick,
        "cpu_count": os.cpu_count() or 1,
        "num_sites": NUM_SITES,
        "queries_per_site": queries_per_site,
        "worker_counts": worker_counts,
        "runs": runs,
        "federated_batch": federated,
        "decisions_identical": True,
        "fingerprints_identical": True,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    widest = max(worker_counts)
    print(
        f"fig14 parallel planning: cpus={report['cpu_count']} "
        f"threads x{widest} speedup="
        f"{federated[f'workers_{widest}']['speedup_vs_serial']}x "
        "(recorded only; decision/fingerprint parity asserted)"
    )
    print(f"fig14 parallel-planning report written to {out_path}")
