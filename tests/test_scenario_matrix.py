"""Tests of the scenario-matrix sweep runner and its artifact bundles.

Covers the runner's contract: baseline-linked KPI deltas, determinism
across worker counts and across the service-replay path, artifact
serialisation stability, golden-fixture drift detection, the CLI, and
the harness's per-event invariant recording the artifacts surface.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import create_planner
from repro.dsps.allocation import Allocation
from repro.exceptions import SimulationError
from repro.experiments.matrix import (
    _main,
    run_matrix,
)
from repro.scenarios import (
    BASELINE_SCENARIO,
    MATRIX_REGIMES,
    MATRIX_SCALES,
    SCENARIO_MATRIX,
    diff_golden,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim import SimulationHarness

SCENARIOS = [BASELINE_SCENARIO, "flash_crowd", "flash_crowd+site_partition"]
PLANNERS = ["heuristic", "optimistic"]


@pytest.fixture(scope="module")
def sweep():
    return run_matrix(scenarios=SCENARIOS, planners=PLANNERS)


def test_registry_covers_the_required_regimes():
    # The default sweep exercises at least six regimes beyond baseline.
    assert len([r for r in MATRIX_REGIMES if r != BASELINE_SCENARIO]) >= 6
    for expression in MATRIX_REGIMES:
        for part in expression.split("+"):
            assert part in SCENARIO_MATRIX


def test_every_cell_present_with_baseline_deltas(sweep):
    assert len(sweep.artifacts) == len(SCENARIOS) * len(PLANNERS)
    for cid, artifact in sweep.artifacts.items():
        assert artifact.cell_id == cid
        assert artifact.ok
        assert artifact.fingerprint
        assert artifact.baseline_cell == (
            f"{BASELINE_SCENARIO}/{artifact.planner}/{artifact.scale}"
        )
        assert set(artifact.kpi_deltas) == set(artifact.kpis)


def test_baseline_deltas_are_zero_for_baseline_cells(sweep):
    for planner in PLANNERS:
        artifact = sweep.artifacts[f"{BASELINE_SCENARIO}/{planner}/quick"]
        assert all(delta == 0.0 for delta in artifact.kpi_deltas.values())


def test_flash_crowd_admits_more_than_baseline(sweep):
    for planner in PLANNERS:
        artifact = sweep.artifacts[f"flash_crowd/{planner}/quick"]
        assert artifact.kpi_deltas["arrivals"] > 0
        assert artifact.kpi_deltas["admitted"] > 0


def test_baseline_is_prepended_when_absent():
    sweep = run_matrix(scenarios=["flash_crowd"], planners=["heuristic"])
    assert set(sweep.artifacts) == {
        f"{BASELINE_SCENARIO}/heuristic/quick",
        "flash_crowd/heuristic/quick",
    }


def test_worker_count_never_changes_fingerprints(sweep):
    parallel = run_matrix(scenarios=SCENARIOS, planners=PLANNERS, workers=3)
    assert parallel.fingerprints() == sweep.fingerprints()


def test_service_replay_matches_direct_submission(sweep):
    replayed = run_matrix(
        scenarios=[BASELINE_SCENARIO, "flash_crowd"],
        planners=["heuristic"],
        through_service=True,
    )
    for cid, artifact in replayed.artifacts.items():
        assert artifact.service_replay
        assert artifact.fingerprint == sweep.artifacts[cid].fingerprint


def test_seed_override_rerolls_the_matrix(sweep):
    rerolled = run_matrix(
        scenarios=[BASELINE_SCENARIO], planners=["heuristic"], seed=4242
    )
    cid = f"{BASELINE_SCENARIO}/heuristic/quick"
    assert rerolled.artifacts[cid].seed == 4242
    assert (
        rerolled.artifacts[cid].fingerprint
        != sweep.artifacts[cid].fingerprint
    )


def test_unknown_scale_and_bad_workers_fail_loudly():
    with pytest.raises(SimulationError, match="unknown matrix scale"):
        run_matrix(scenarios=[BASELINE_SCENARIO], scales=["galactic"])
    with pytest.raises(SimulationError, match="workers"):
        run_matrix(scenarios=[BASELINE_SCENARIO], workers=0)


def test_artifact_json_is_stable_and_complete(sweep, tmp_path):
    artifact = sweep.artifacts["flash_crowd/heuristic/quick"]
    text = artifact.to_json()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["spec"]["trace_overrides"]["burst_factor"] == 3.0
    assert payload["inputs"]["trace"]["burst_factor"] == 3.0
    assert payload["inputs"]["topology"]["num_hosts"] == 4
    assert payload["schedule"]["num_events"] > 0
    assert payload["invariants"]["ok"] is True
    assert payload["invariants"]["violation_events"] == []
    # Byte-stable: serialising twice gives identical text.
    assert artifact.to_json() == text

    written = artifact.write(tmp_path)
    assert written.read_text(encoding="utf-8") == text


def test_write_artifacts_emits_index(sweep, tmp_path):
    paths = sweep.write_artifacts(tmp_path)
    assert len(paths) == len(sweep.artifacts) + 1
    index = json.loads((tmp_path / "matrix_index.json").read_text())
    assert set(index["cells"]) == set(sweep.artifacts)
    for cid, entry in index["cells"].items():
        assert (tmp_path / entry["file"]).exists()
        assert entry["fingerprint"] == sweep.artifacts[cid].fingerprint


def test_diff_golden_reports_drift_missing_and_extra(sweep):
    golden = sweep.golden_payload()
    assert diff_golden(golden, sweep.artifacts) == []

    tampered = {
        "schema": golden["schema"],
        "cells": dict(golden["cells"], **{"extra/cell/quick": "0" * 64}),
    }
    victim = next(iter(golden["cells"]))
    tampered["cells"][victim] = "f" * 64
    problems = diff_golden(tampered, sweep.artifacts)
    assert any("drifted" in p and victim in p for p in problems)
    assert any("missing from this sweep" in p for p in problems)

    subset = {cid: sweep.artifacts[cid] for cid in list(sweep.artifacts)[:1]}
    extra = diff_golden({"cells": {}}, subset)
    assert extra == [
        f"cell {next(iter(subset))} not present in the golden fixture"
    ]


def test_golden_json_generation_is_idempotent(sweep):
    assert sweep.golden_json() == sweep.golden_json()
    payload = json.loads(sweep.golden_json())
    assert payload["cells"] == sweep.fingerprints()


def test_cli_writes_artifacts_and_checks_golden(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    golden = tmp_path / "golden.json"
    base_argv = [
        "--scenarios",
        BASELINE_SCENARIO,
        "flash_crowd",
        "--planners",
        "heuristic",
    ]
    _main(
        base_argv
        + ["--out-dir", str(out_dir), "--write-golden", str(golden)]
    )
    output = capsys.readouterr().out
    assert "scenario matrix: 2 cells" in output
    assert golden.exists()
    assert (out_dir / "matrix_index.json").exists()

    # Same seeds, same golden: the check passes and exits cleanly.
    _main(base_argv + ["--check-golden", str(golden)])
    assert "golden fingerprints match" in capsys.readouterr().out

    # A tampered fixture makes the run exit non-zero and name the cell.
    payload = json.loads(golden.read_text())
    victim = next(iter(payload["cells"]))
    payload["cells"][victim] = "0" * 64
    golden.write_text(json.dumps(payload))
    with pytest.raises(SystemExit):
        _main(base_argv + ["--check-golden", str(golden)])
    assert "GOLDEN DRIFT" in capsys.readouterr().out


def test_generate_golden_matrix_matches_default_sweep(golden_matrix_workers1):
    # The fixture generator is just the default quick sweep serialised.
    sweep = run_matrix(
        scenarios=[BASELINE_SCENARIO], planners=["heuristic"]
    )
    payload = json.loads(golden_matrix_workers1)
    cid = f"{BASELINE_SCENARIO}/heuristic/quick"
    assert payload["cells"][cid] == sweep.artifacts[cid].fingerprint


# ------------------------------------------------------- violation surfacing
def _tiny_run(monkeypatch, on_violation):
    """Run the quick baseline cell with Allocation.validate forced to
    report a fake violation on every check."""
    scale = MATRIX_SCALES["quick"]
    resolved = ScenarioSpec("probe").resolve(scale.trace, scale.topology)
    scenario = resolved.build_scenario()
    schedule = resolved.build_schedule(scenario)
    planner = create_planner("heuristic", scenario.build_catalog())
    monkeypatch.setattr(
        Allocation, "validate", lambda self: ["forced violation"]
    )
    harness = SimulationHarness(
        planner, validation_mode="full", on_violation=on_violation
    )
    return harness.run(schedule), schedule


def test_recorded_violations_carry_event_index_and_kind(monkeypatch):
    result, schedule = _tiny_run(monkeypatch, on_violation="record")
    assert result.violation_events
    events = list(schedule)
    for entry in result.violation_events:
        assert entry["violations"] == ["forced violation"]
        assert entry["stage"] == "invariant violated"
        event = events[entry["event_index"]]
        assert entry["event_kind"] == event.kind
        assert entry["time"] == event.time
    # The forced violations flow through to the KPI the artifacts report.
    assert result.kpis()["invariant_violations"] == len(
        result.violation_events
    ) + len(result.final_violations)


def test_raise_mode_aborts_on_first_violation(monkeypatch):
    with pytest.raises(SimulationError, match="invariant violated"):
        _tiny_run(monkeypatch, on_violation="raise")


def test_matrix_cells_record_instead_of_raising(monkeypatch, sweep):
    """A violating cell must not abort the sweep — its artifact reports."""
    monkeypatch.setattr(
        Allocation, "validate", lambda self: ["forced violation"]
    )
    broken = run_matrix(
        scenarios=[BASELINE_SCENARIO], planners=["heuristic"]
    )
    artifact = broken.artifacts[f"{BASELINE_SCENARIO}/heuristic/quick"]
    assert not artifact.ok
    assert artifact.invariants["final_violations"] == ["forced violation"]
    assert broken.violations()


def test_harness_rejects_unknown_on_violation_mode():
    scale = MATRIX_SCALES["quick"]
    resolved = ScenarioSpec("probe").resolve(scale.trace, scale.topology)
    planner = create_planner(
        "heuristic", resolved.build_scenario().build_catalog()
    )
    with pytest.raises(SimulationError, match="on_violation"):
        SimulationHarness(planner, on_violation="ignore")
