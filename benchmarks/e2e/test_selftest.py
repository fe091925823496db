"""Self-tests of the e2e benchmark harness (not collected by tier-1).

    python3 -m pytest benchmarks/e2e/test_selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
for _entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------- span recorder
def _nested(recorder):
    def leaf():
        time.sleep(0.002)

    traced_leaf = recorder.wrap("leaf", leaf)

    def middle():
        traced_leaf()
        time.sleep(0.001)
        traced_leaf()

    traced_middle = recorder.wrap("middle", middle)

    def root():
        traced_middle()
        time.sleep(0.001)

    return recorder.wrap("root", root)


def test_self_time_is_duration_minus_direct_children():
    recorder = spans.SpanRecorder()
    _nested(recorder)()
    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record[1], []).append(record)
    (root,) = by_name["root"]
    (middle,) = by_name["middle"]
    leaves = by_name["leaf"]
    assert len(leaves) == 2
    duration = lambda r: r[3] - r[2]  # noqa: E731
    # leaves have no children: self time is the whole span
    for leaf in leaves:
        assert abs(leaf[7] - duration(leaf)) < 1e-9
        assert leaf[4] == middle[0]
    assert middle[4] == root[0] and root[4] is None
    assert abs(middle[7] - (duration(middle) - sum(duration(l) for l in leaves))) < 1e-9
    # only *direct* children are subtracted from the root
    assert abs(root[7] - (duration(root) - duration(middle))) < 1e-9
    # self times partition the root's duration exactly
    assert abs(sum(r[7] for r in recorder.spans) - duration(root)) < 1e-9
    assert middle[7] >= 0.001 and root[7] >= 0.001
    # one operation: every span inherits the root's id
    assert {r[5] for r in recorder.spans} == {root[0]}
    totals = recorder.layer_totals()
    assert totals["leaf"]["calls"] == 2 and totals["root"]["calls"] == 1


def test_explicit_operation_ids_tag_root_spans():
    recorder = spans.SpanRecorder()
    call = _nested(recorder)
    for op in (10, 11):
        recorder.set_operation(op)
        call()
    assert sorted({r[5] for r in recorder.spans}) == [10, 11]
    assert sum(1 for r in recorder.spans if r[5] == 10) == 4


def test_two_threads_keep_separate_stacks():
    recorder = spans.SpanRecorder()
    call = _nested(recorder)
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait(timeout=5)
        call()

    threads = [threading.Thread(target=worker, name="w%d" % i) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(recorder.spans) == 8
    by_id = {r[0]: r for r in recorder.spans}
    for record in recorder.spans:
        if record[4] is not None:
            assert by_id[record[4]][6] == record[6], "parent on another thread"
    for name in ("w0", "w1"):
        mine = [r for r in recorder.spans if r[6] == name]
        assert len(mine) == 4
        (root,) = [r for r in mine if r[4] is None]
        # overlapping work on the other thread is not subtracted here
        assert abs(sum(r[7] for r in mine) - (root[3] - root[2])) < 1e-9
        assert abs(recorder.root_seconds(name) - (root[3] - root[2])) < 1e-12
    assert len({r[5] for r in recorder.spans}) == 2


def test_trace_jsonl_round_trip(tmp_path):
    recorder = spans.SpanRecorder()
    _nested(recorder)()
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["leaf", "leaf", "middle", "root"]
    assert set(lines[0]) == {"id", "name", "start", "end", "parent", "op", "thread", "self_s"}


# -------------------------------------------------------------------- rebinding
def _binding_snapshot():
    import importlib

    snapshot = {}
    for module_name, _path in spans.SPAN_TARGETS.values():
        importlib.import_module(module_name)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                snapshot[(module_name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for member, raw in list(vars(value).items()):
                    if callable(raw):
                        snapshot[(module_name, attr, member)] = raw
    return snapshot


def test_rebinding_wraps_every_target_and_restores_all():
    import repro.core.planner as planner_module
    import repro.core.reduction as reduction_module
    import repro.milp.scipy_backend as backend_module

    before = _binding_snapshot()
    recorder = spans.SpanRecorder()
    with spans.Rebinding(recorder):
        # a from-import copy in the caller's module is the one rebound
        assert reduction_module.compute_scope is planner_module.compute_scope
        assert getattr(planner_module.compute_scope, "__wrapped__", None) is not None
        assert getattr(planner_module.SQPRPlanner.submit_batch, "__wrapped__", None)
        if backend_module.highs_available():
            assert getattr(backend_module._scipy_milp, "__wrapped__", None)
        during = _binding_snapshot()
        changed = [key for key in before if during[key] is not before[key]]
        assert len(changed) >= len(spans.SPAN_TARGETS)
    after = _binding_snapshot()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)


def test_rebinding_restores_after_an_exception():
    before = _binding_snapshot()
    try:
        with spans.Rebinding(spans.SpanRecorder()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = _binding_snapshot()
    assert all(after[key] is before[key] for key in before)


def test_traced_planner_records_layer_spans():
    from repro import create_planner
    from repro.dsps.query import QueryWorkloadItem
    from repro.workloads.scenarios import (
        SimulationScenarioConfig,
        build_simulation_scenario,
    )

    scenario = build_simulation_scenario(
        SimulationScenarioConfig(num_hosts=2, num_base_streams=4)
    )
    planner = create_planner("sqpr", scenario.build_catalog())
    recorder = spans.SpanRecorder()
    with spans.Rebinding(recorder):
        outcome = planner.submit(QueryWorkloadItem(base_names=("b0", "b1")))
    assert outcome.admitted
    totals = recorder.layer_totals()
    for name in (
        "core.planner.submit_batch",
        "core.reduction.compute_scope",
        "core.model_builder.build_model",
        "milp.solver.solve",
        "core.solution.decode_solution",
        "dsps.allocation.apply",
    ):
        assert totals[name]["calls"] >= 1, name
    roots = [r for r in recorder.spans if r[4] is None]
    assert [r[1] for r in roots] == ["core.planner.submit_batch"]
    assert abs(sum(r[7] for r in recorder.spans) - (roots[0][3] - roots[0][2])) < 1e-9


# ------------------------------------------------------------------- statistics
def test_highest_supported_percentile_needs_ten_samples_beyond():
    pick = measure.highest_supported_percentile
    assert pick(19) is None
    assert pick(20) == 50.0
    assert pick(35) == 50.0
    assert pick(40) == 75.0
    assert pick(100) == 90.0
    assert pick(199) == 90.0
    assert pick(200) == 95.0
    assert pick(1000) == 99.0
    assert pick(10000) == 99.9


def test_timing_summary_reports_counts_and_tail():
    summary = measure.timing_summary([i / 1000.0 for i in range(1, 101)])
    assert summary["n"] == 100 and summary["tail_q"] == 90.0
    assert abs(summary["p50"] - 50.5) < 1e-9
    assert abs(summary["tail"] - 90.1) < 1e-9
    small = measure.timing_summary([0.001] * 12)
    assert small["n"] == 12 and small["tail_q"] is None and "tail" not in small
    assert measure.timing_summary([]) == {"n": 0}


# ---------------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_runner():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128


# ---------------------------------------------------------------------- compare
def test_compare_verdicts():
    spec = [{"name": "latency", "unit": "ms", "better": "lower", "bound": 0.1}]
    steady = {"w": {"latency": [100.0, 101.0, 99.0, 100.0]}}
    slower = {"w": {"latency": [120.0, 121.0, 119.0, 120.0]}}
    noisy = {"w": {"latency": [80.0, 120.0, 100.0, 140.0]}}
    faster = {"w": {"latency": [50.0, 51.0, 52.0, 50.0]}}
    rows, failed = compare.compare(steady, slower, spec)
    assert failed and rows[0].endswith("REGRESSION")
    rows, failed = compare.compare(steady, noisy, spec)
    assert not failed and rows[0].endswith("unresolved")
    rows, failed = compare.compare(noisy, faster, spec)
    assert not failed and rows[0].endswith("ok")  # every run better: resolved
    rows, failed = compare.compare(noisy, None, spec)
    assert failed and rows[0].endswith("SPREAD>BOUND")
    # one run a side has no spread: never a hard verdict
    rows, failed = compare.compare({"w": {"latency": [100.0]}}, {"w": {"latency": [130.0]}}, spec)
    assert not failed and rows[0].endswith("unresolved")
    assert compare.worse_by(100.0, 90.0, "higher") > 0 > compare.worse_by(100.0, 90.0, "lower")


# ------------------------------------------------------------------ entry point
def test_smoke_suite_finishes_quickly(tmp_path):
    out = tmp_path / "smoke.json"
    began = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - began
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    assert "NOT comparable" in completed.stdout
    artifact = json.loads(out.read_text())
    assert artifact["smoke"] is True
    assert len(artifact["runs"]) == 2 * len(run.WORKLOAD_NAMES)
    for result in artifact["runs"]:
        assert result["correct"], result["checks"]
        assert result["provenance"]["solver_backend"]
    assert elapsed < 20.0, "smoke suite took %.1f s" % elapsed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(str(REPO_ROOT / "BENCHMARK.json"), str(tmp_path / "BENCHMARK.json"))
    shutil.copytree(
        str(BENCH_DIR),
        str(tmp_path / "benchmarks" / "e2e"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", "fill_default",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
