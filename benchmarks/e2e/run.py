"""The repo's end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload fill_default --seed 7 \\
        --seconds 24 --trace 0

prints every metric by name with its unit, checks the program's outputs,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` repeats the same workload with the layer callables rebound to
span recorders and reports the per-layer metrics instead.  ``--all`` runs
every workload both ways, each in a fresh interpreter, and writes one
artifact (see README.md).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: When this interpreter started on the benchmark (``setup_s`` counts from here).
STARTED = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent

WORKLOAD_NAMES = ("fill_default", "resident_turnover", "service_poisson", "churn_mixed")

#: End-to-end metrics (``--trace 0``): name -> unit.  Bounds live in
#: BENCHMARK.json; the self-tests keep the two lists identical.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_latency_ms": "ms",
    "admitted_frac": "ratio",
}

#: Per-layer counts and ratios beside the span metrics: name -> unit.
LAYER_COUNTS: Dict[str, str] = {
    "milp.solver.limit_hit_frac": "ratio",
    "milp.solver.optimal_frac": "ratio",
    "core.planner.stage_b_frac": "ratio",
    "core.model_builder.reuse_hit_frac": "ratio",
    "core.model_builder.model_vars_p50": "count",
    "dsps.subplan.records_reused_frac": "ratio",
    "dsps.subplan.stale_fallbacks": "count",
    "service.admission.queue_wait_p50_ms": "ms",
    "service.admission.solve_mean_ms": "ms",
    "service.admission.deploy_mean_ms": "ms",
    "service.admission.batch_size_mean": "count",
    "service.admission.fallback_batches": "count",
    "service.admission.shed": "count",
    "sim.harness.validate_s": "s",
    "sim.harness.evicted": "count",
    "sim.harness.readmitted": "count",
    "sim.harness.dropped": "count",
    "bench.gen_lateness_p99_ms": "ms",
    "bench.unattributed_share": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

#: Most fresh interpreters one run sets up in; ``setup_s`` is the median.
MAX_COLD_SETUPS = 5
#: Limits the traced pass must stay inside for its numbers to be trusted.
MAX_UNATTRIBUTED_SHARE = 0.05
MAX_TRACE_OVERHEAD_FRAC = 0.05


def per_layer_units() -> Dict[str, str]:
    """Every ``--trace 1`` metric name -> unit, in reporting order."""
    from spans import SPAN_NAMES

    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        units[name + ".share"] = "ratio"
    units.update(LAYER_COUNTS)
    return units


def _bootstrap_path() -> None:
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        sys.stderr.write(
            "benchmarks/e2e: %s is missing — the benchmark measures the "
            "program in this checkout and cannot run without it\n" % (source / "repro")
        )
        raise SystemExit(2)
    for entry in (str(source), str(BENCH_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# ----------------------------------------------------------------------- set-up
def cold_setup(name: str, seconds: float) -> Tuple[Any, float]:
    """Set the workload up; returns its state and the seconds since this
    interpreter started the benchmark: importing the program, building
    scenario, catalog and planner (and engine), and one throw-away warm-up
    solve — what a user pays before the first request."""
    _bootstrap_path()
    import workloads

    spec = workloads.WORKLOADS[name]
    state = spec["setup"](spec["params"](seconds / workloads.REF_SECONDS))
    return state, time.perf_counter() - STARTED


def more_cold_setups(name: str, seconds: float) -> List[float]:
    """``cold_setup`` in further fresh interpreters, one after the other.

    A user pays the import and the first solve once per process, so an
    in-process repeat (13 ms of object construction) would leave out nearly
    all of it.  A run of ``--seconds`` spends about a quarter of that on
    set-ups, five at most, its own included."""
    repeats = max(1, min(MAX_COLD_SETUPS, int(seconds / 4)))
    samples: List[float] = []
    for _ in range(repeats - 1):
        child = subprocess.run(
            [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seconds", str(seconds), "--cold-setup",
            ],
            capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise RuntimeError("cold set-up failed: %s" % child.stderr[-2000:])
        samples.append(float(child.stdout.split()[-1]))
    return samples


# ------------------------------------------------------------------ one workload
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, trace_out: Optional[str]
) -> Dict[str, Any]:
    """Set up, drive and check one workload; returns the full result record."""
    state, own_setup = cold_setup(name, seconds)
    import measure
    import spans
    import workloads

    spec = workloads.WORKLOADS[name]
    params = spec["params"](seconds / workloads.REF_SECONDS)
    header = measure.provenance(seed, name, params)
    header["seconds"] = seconds
    header["trace"] = bool(trace)
    # setup_s is an end-to-end metric: the traced pass does not report it.
    setup_times = [] if trace else [own_setup] + more_cold_setups(name, seconds)

    recorder = spans.SpanRecorder() if trace else None
    if recorder is not None:
        with spans.Rebinding(recorder):
            m = spec["run"](state, seed, params, recorder)
    else:
        m = spec["run"](state, seed, params, None)

    checks, detail, layer = m.checks, m.detail, m.layer
    units = dict(END_TO_END, **per_layer_units())
    metrics: Dict[str, Dict[str, Any]] = {}

    def put(metric: str, value: float) -> None:
        metrics[metric] = {"value": float(value), "unit": units[metric]}

    detail["throughput_ops_s"] = m.throughput_ops_s
    detail["peak_rss_mb"] = measure.peak_rss_mb()
    checks["op_latency_measured"] = m.op_latency_s > 0
    if recorder is None:
        put("setup_s", statistics.median(setup_times))
        put("op_latency_ms", 1e3 * m.op_latency_s)
        put("admitted_frac", m.admitted / m.decided if m.decided else 0.0)
    else:
        totals = recorder.layer_totals()
        wall = max(m.timed_wall, 1e-9)
        for span_name in spans.SPAN_NAMES:
            entry = totals.get(span_name, {"calls": 0, "self_s": 0.0})
            put(span_name + ".calls", entry["calls"])
            put(span_name + ".self_s", entry["self_s"])
            put(span_name + ".share", entry["self_s"] / wall)
        rounds = m.planning_rounds
        solves = totals.get("milp.solver.solve", {"calls": 0})["calls"]
        layer["core.planner.stage_b_frac"] = solves / rounds - 1.0 if rounds else 0.0
        if name in workloads.CLOSED_LOOP:
            covered = recorder.root_seconds("MainThread")
            layer["bench.unattributed_share"] = max(0.0, 1.0 - covered / wall)
            checks["unattributed_share_within_limit"] = (
                layer["bench.unattributed_share"] <= MAX_UNATTRIBUTED_SHARE
            )
        span_count = sum(entry["calls"] for entry in totals.values())
        layer["bench.trace_overhead_frac"] = (
            span_count * spans.calibrate_span_cost() / wall
        )
        checks["trace_overhead_within_limit"] = (
            layer["bench.trace_overhead_frac"] <= MAX_TRACE_OVERHEAD_FRAC
        )
        for metric in LAYER_COUNTS:
            put(metric, layer.get(metric, 0.0))
        detail["span_count"] = span_count
        if trace_out:
            recorder.write_jsonl(trace_out)

    checks["nothing_failed"] = m.failed == 0
    return {
        "provenance": header,
        "correct": all(checks.values()),
        "attempted": int(m.attempted),
        "failed": int(m.failed),
        "metrics": metrics,
        "detail": detail,
        "checks": checks,
        "timed_wall_s": m.timed_wall,
        "setup_samples_s": setup_times,
        "notes": m.notes,
    }


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_report(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then detail, checks and notes."""
    header = result["provenance"]
    print(
        "# %s seed=%s seconds=%s trace=%s backend=%s cpus=%s git=%s"
        % (
            header["workload"],
            header["seed"],
            header["seconds"],
            int(header["trace"]),
            header["solver_backend"],
            header["cpu_count"],
            header["git_sha"][:12],
        )
    )
    print("# params %s" % json.dumps(header["params"], sort_keys=True))
    for metric, entry in result["metrics"].items():
        if not entry["value"] and metric.endswith((".calls", ".self_s", ".share")):
            continue  # layers this workload never enters
        print("%-46s %14s %s" % (metric, _format_value(entry["value"]), entry["unit"]))
    for key, value in result["detail"].items():
        if isinstance(value, dict) and "n" in value:
            parts = ["n=%d" % value["n"]]
            if "p50" in value:
                parts.append("p50=%.4g" % value["p50"])
            if value.get("tail_q"):
                parts.append("p%g=%.4g" % (value["tail_q"], value["tail"]))
            print("  %-44s %s" % (key, " ".join(parts)))
        else:
            print("  %-44s %s" % (key, _format_value(value)))
    print("  %-44s %.3f s" % ("timed_wall", result["timed_wall_s"]))
    for check, passed in result["checks"].items():
        print("  check %-38s %s" % (check, "ok" if passed else "FAILED"))
    for note in result["notes"]:
        print("  note: %s" % note)


def contract_line(result: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
    )


# ------------------------------------------------------------------------ suite
def run_suite(
    seeds: List[int], seconds: float, out: Optional[str], smoke: bool, traced: bool
) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    runs: List[Dict[str, Any]] = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="e2e-") as scratch:
        path = os.path.join(scratch, "result.json")
        for seed in seeds:
            for name in WORKLOAD_NAMES:
                for trace in (0, 1) if traced else (0,):
                    if os.path.exists(path):
                        os.remove(path)
                    code = subprocess.run(
                        [
                            sys.executable, str(BENCH_DIR / "run.py"),
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace),
                            "--out", path,
                        ],
                        timeout=900,
                    ).returncode
                    if not os.path.exists(path):
                        print("!! %s trace=%d produced no result" % (name, trace))
                        ok = False
                        continue
                    with open(path) as handle:
                        result = json.load(handle)
                    result["smoke"] = smoke
                    ok = ok and result["correct"] and code == 0
                    runs.append(result)
    if smoke:
        print("# smoke run: tiny operation counts, numbers are NOT comparable")
    if out:
        with open(out, "w") as handle:
            json.dump({"smoke": smoke, "seconds": seconds, "runs": runs}, handle, indent=1)
        print("# wrote %s (%d runs)" % (out, len(runs)))
    print("# suite %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result (JSON) here")
    parser.add_argument("--trace-out", help="write the spans (JSONL) here; --trace 1")
    parser.add_argument(
        "--all", action="store_true",
        help="run every workload untraced and traced, each in a fresh interpreter",
    )
    parser.add_argument(
        "--seeds",
        help="comma-separated seeds for --all (default: --seed); repeat a seed "
        "to run it again, e.g. 7,7,7 for a set compare.py can take a spread of",
    )
    parser.add_argument(
        "--no-trace", action="store_true",
        help="with --all: skip the traced pass (for seed sweeps fed to compare.py)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="with --all: tiny operation counts (--seconds 0.01); not comparable",
    )
    parser.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.all or args.smoke:
        _bootstrap_path()
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
        seconds = 0.01 if args.smoke else args.seconds
        return run_suite(seeds, seconds, args.out, args.smoke, not args.no_trace)
    if not args.workload:
        parser.error("--workload is required (or --all)")
    if args.cold_setup:
        print(repr(cold_setup(args.workload, args.seconds)[1]))
        return 0
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out
    )
    print_report(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
