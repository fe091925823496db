"""Benchmark "Figure 12": scenario-matrix sweep throughput and parity.

Drives the quick-scale scenario matrix through the sweep runner twice —
serial (``workers=1``) and fanned out over the shared worker pool
(``workers=4``) — and records wall-clock, cells/sec and the per-mode
elapsed time.  The load-bearing assertion is *parity*, not speedup: the
two sweeps must produce identical per-cell fingerprints, pinning the
runner's contract that concurrency changes wall-clock and never results.
(Wall-clock gains depend on the core count and on how much of a cell
runs inside HiGHS; the report records the ratio without asserting it.)

The report is written to ``BENCH_matrix.json`` at the repository root
(format documented in ``docs/benchmarks.md``).  Set ``MATRIX_BENCH_QUICK=1``
for the smaller CI mode and ``MATRIX_BENCH_OUT`` to redirect the report.
No pytest-benchmark plugin needed:

    pytest benchmarks/test_fig12_scenario_matrix.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments.matrix import run_matrix
from repro.scenarios import BASELINE_SCENARIO, MATRIX_REGIMES

#: Full mode sweeps every regime; quick mode a representative subset.
FULL_SCENARIOS = list(MATRIX_REGIMES)
QUICK_SCENARIOS = [
    BASELINE_SCENARIO,
    "flash_crowd",
    "flash_crowd+site_partition",
    "adversarial_fragmentation",
]
FULL_PLANNERS = ["heuristic", "optimistic", "soda", "sqpr"]
QUICK_PLANNERS = ["heuristic", "optimistic"]
PARALLEL_WORKERS = 4


def _sweep(scenarios, planners, workers):
    start = time.perf_counter()
    sweep = run_matrix(
        scenarios=scenarios, planners=planners, workers=workers
    )
    elapsed = time.perf_counter() - start
    assert not sweep.violations()
    return sweep, elapsed


def test_fig12_scenario_matrix_report():
    quick = bool(os.environ.get("MATRIX_BENCH_QUICK"))
    scenarios = QUICK_SCENARIOS if quick else FULL_SCENARIOS
    planners = QUICK_PLANNERS if quick else FULL_PLANNERS
    out_path = Path(
        os.environ.get(
            "MATRIX_BENCH_OUT",
            Path(__file__).resolve().parent.parent / "BENCH_matrix.json",
        )
    )

    serial, serial_seconds = _sweep(scenarios, planners, workers=1)
    parallel, parallel_seconds = _sweep(
        scenarios, planners, workers=PARALLEL_WORKERS
    )

    # The contract under measurement: worker fan-out is result-invariant.
    assert parallel.fingerprints() == serial.fingerprints(), (
        "parallel sweep diverged from the serial sweep"
    )

    num_cells = len(serial.artifacts)
    speedup = serial_seconds / parallel_seconds
    report = {
        "figure": "fig12_scenario_matrix",
        "quick_mode": quick,
        "scale": "quick",
        "scenarios": scenarios,
        "planners": planners,
        "num_cells": num_cells,
        "parallel_workers": PARALLEL_WORKERS,
        "serial": {
            "run_seconds": round(serial_seconds, 3),
            "cells_per_second": round(num_cells / serial_seconds, 3),
        },
        "parallel": {
            "run_seconds": round(parallel_seconds, 3),
            "cells_per_second": round(num_cells / parallel_seconds, 3),
        },
        "speedup": round(speedup, 2),
        "fingerprints_identical": True,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"fig12 scenario matrix: {num_cells} cells "
        f"serial={serial_seconds:.1f}s "
        f"parallel(x{PARALLEL_WORKERS})={parallel_seconds:.1f}s "
        f"speedup={speedup:.2f}x (parity asserted)"
    )
    print(f"fig12 scenario-matrix report written to {out_path}")
