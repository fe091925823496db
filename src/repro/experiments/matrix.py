"""The scenario-matrix sweep runner and its CLI.

Executes the cross-product of (scenario × planner × scale) through
:class:`~repro.sim.harness.SimulationHarness` and writes one
:class:`~repro.scenarios.artifacts.CellArtifact` per cell.  Per scale,
each scenario's schedule is generated **once** and shared by every
planner (identical initial conditions); each cell gets a fresh catalog,
planner and engine.  Cells are independent, so the runner fans them out
on the same ordered worker-pool helper
:class:`~repro.core.federated.FederatedPlanner` uses for its per-site
shards — concurrency changes wall-clock, never results, which the
parallel-parity benchmark asserts.

Baseline deltas: the ``baseline`` scenario's cell for the same (planner,
scale) is the pinned reference; every artifact records
``kpi_deltas = cell KPI − baseline KPI`` (the baseline's own deltas are
zero).  Invariant checking runs in ``on_violation="record"`` mode so a
misbehaving cell reports *every* violation, with the triggering event's
schedule index and kind, instead of dying on the first.

CLI (the CI ``scenario-matrix`` job)::

    python -m repro.experiments.matrix --quick --workers 4 \
        --out-dir MATRIX_artifacts \
        --check-golden tests/fixtures/golden_matrix.json

The process exits non-zero on any invariant violation or on fingerprint
drift against the golden fixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import PlannerConfig, create_planner
from repro.exceptions import SimulationError
from repro.scenarios.artifacts import (
    CellArtifact,
    attach_baseline,
    build_cell_artifact,
    diff_golden,
    diff_kpi_bands,
    golden_json,
    golden_payload,
    kpi_band_payload,
)
from repro.scenarios.matrix import (
    BASELINE_SCENARIO,
    MATRIX_REGIMES,
    MATRIX_SCALES,
    MatrixScale,
    SCENARIO_MATRIX,
)
from repro.scenarios.spec import ResolvedScenario, ScenarioSpec, parse_spec
from repro.sim.harness import SimulationHarness, SimulationResult
from repro.utils.pool import map_in_pool

#: The registry planners every sweep covers by default.
DEFAULT_PLANNERS: Tuple[str, ...] = ("heuristic", "optimistic", "soda", "sqpr")


@dataclass
class MatrixResult:
    """Everything one sweep produced, keyed by cell id (insertion order:
    scale → scenario → planner)."""

    artifacts: Dict[str, CellArtifact] = field(default_factory=dict)
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    #: Scale names whose cells are excluded from the golden fingerprint
    #: payload (non-deterministic tiers, checked by KPI bands instead).
    nondeterministic_scales: frozenset = frozenset()

    def violations(self) -> List[str]:
        """One line per cell that finished with invariant violations."""
        lines = []
        for cid, artifact in self.artifacts.items():
            if not artifact.ok:
                events = artifact.invariants.get("violation_events", [])
                final = artifact.invariants.get("final_violations", [])
                lines.append(
                    f"{cid}: {len(events)} per-event violation(s), "
                    f"{len(final)} final-state violation(s)"
                )
        return lines

    def fingerprints(self) -> Dict[str, str]:
        return {
            cid: artifact.fingerprint
            for cid, artifact in self.artifacts.items()
        }

    def _deterministic_artifacts(self) -> Dict[str, CellArtifact]:
        return {
            cid: artifact
            for cid, artifact in self.artifacts.items()
            if artifact.scale not in self.nondeterministic_scales
        }

    def golden_payload(self) -> Dict[str, Any]:
        """Fingerprint fixture body — deterministic-scale cells only."""
        return golden_payload(self._deterministic_artifacts())

    def golden_json(self) -> str:
        return golden_json(self._deterministic_artifacts())

    def kpi_band_payload(self) -> Dict[str, Any]:
        """KPI reference body for the non-deterministic-scale cells."""
        return kpi_band_payload(
            {
                cid: artifact
                for cid, artifact in self.artifacts.items()
                if artifact.scale in self.nondeterministic_scales
            }
        )

    def write_artifacts(self, directory: Path) -> List[Path]:
        """Write every cell bundle plus a ``matrix_index.json`` summary."""
        directory = Path(directory)
        paths = [
            artifact.write(directory) for artifact in self.artifacts.values()
        ]
        index = {
            "cells": {
                cid: {
                    "file": artifact.file_name(),
                    "fingerprint": artifact.fingerprint,
                    "ok": artifact.ok,
                    "baseline_cell": artifact.baseline_cell,
                }
                for cid, artifact in self.artifacts.items()
            }
        }
        index_path = directory / "matrix_index.json"
        index_path.write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(index_path)
        return paths

    def summary_rows(self) -> List[List[object]]:
        """Rows for :func:`repro.experiments.reporting.format_table`."""
        rows: List[List[object]] = []
        for artifact in self.artifacts.values():
            rows.append(
                [
                    artifact.scenario,
                    artifact.planner,
                    artifact.scale,
                    int(artifact.kpis.get("admitted", 0)),
                    int(artifact.kpis.get("rejected", 0)),
                    int(artifact.kpis.get("dropped", 0)),
                    f"{artifact.kpi_deltas.get('admitted', 0.0):+g}",
                    "ok" if artifact.ok else "VIOLATED",
                ]
            )
        return rows


def _resolve_cells(
    scenarios: Sequence[str],
    scales: Sequence[str],
    registry: Mapping[str, ScenarioSpec],
    scale_registry: Mapping[str, MatrixScale],
    seed: Optional[int],
) -> Dict[Tuple[str, str], Tuple[ResolvedScenario, Any, Any]]:
    """Resolve every (scenario, scale) pair once: spec → configs →
    scenario object → shared schedule."""
    resolved_pairs: Dict[Tuple[str, str], Tuple[ResolvedScenario, Any, Any]] = {}
    for scale_name in scales:
        try:
            scale = scale_registry[scale_name]
        except KeyError:
            known = ", ".join(sorted(scale_registry))
            raise SimulationError(
                f"unknown matrix scale {scale_name!r}; known scales: {known}"
            ) from None
        base_trace = scale.trace
        if seed is not None:
            base_trace = replace(base_trace, seed=seed)
        for expression in scenarios:
            spec = parse_spec(expression, registry)
            resolved = spec.resolve(base_trace, scale.topology)
            scenario_obj = resolved.build_scenario()
            schedule = resolved.build_schedule(scenario_obj)
            resolved_pairs[(expression, scale_name)] = (
                resolved,
                scenario_obj,
                schedule,
            )
    return resolved_pairs


def run_matrix_cell(
    resolved: ResolvedScenario,
    scenario_obj,
    schedule,
    planner_name: str,
    *,
    planner_config: Optional[PlannerConfig] = None,
    through_service: bool = False,
) -> SimulationResult:
    """Run one cell: fresh catalog + planner + engine over the shared
    schedule, invariants recorded (never aborting the sweep)."""
    catalog = scenario_obj.build_catalog()
    planner = create_planner(
        planner_name,
        catalog,
        config=planner_config or PlannerConfig(time_limit=None),
    )
    service = None
    if through_service:
        from repro.service import AdmissionService, ServiceConfig

        service = AdmissionService(
            planner, config=ServiceConfig(pipelined=False)
        )
    harness = SimulationHarness(
        planner, service=service, on_violation="record"
    )
    try:
        return harness.run(schedule)
    finally:
        if service is not None:
            service.close()


def run_matrix(
    scenarios: Sequence[str] = MATRIX_REGIMES,
    planners: Sequence[str] = DEFAULT_PLANNERS,
    scales: Sequence[str] = ("quick",),
    *,
    registry: Optional[Mapping[str, ScenarioSpec]] = None,
    scale_registry: Optional[Mapping[str, MatrixScale]] = None,
    seed: Optional[int] = None,
    planner_config: Optional[PlannerConfig] = None,
    workers: int = 1,
    through_service: bool = False,
    baseline: str = BASELINE_SCENARIO,
) -> MatrixResult:
    """Execute the (scenario × planner × scale) sweep.

    ``scenarios`` are spec *expressions* over ``registry`` (names or
    ``name+name`` compositions); the ``baseline`` scenario is prepended
    when absent, because every artifact's KPI deltas are taken against
    the baseline cell of the same (planner, scale).  ``seed`` overrides
    every scale's trace seed (one knob to re-roll the whole matrix);
    ``workers`` bounds cell-level concurrency (``1`` runs the cells
    inline, more on a thread pool sharing the resolved schedules);
    ``through_service`` replays every cell's arrivals through a
    synchronous :class:`~repro.service.AdmissionService` instead of
    direct ``planner.submit`` calls.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    registry = registry if registry is not None else SCENARIO_MATRIX
    scale_registry = (
        scale_registry if scale_registry is not None else MATRIX_SCALES
    )
    scenario_list = list(scenarios)
    if baseline not in scenario_list:
        scenario_list.insert(0, baseline)
    resolved_pairs = _resolve_cells(
        scenario_list, scales, registry, scale_registry, seed
    )

    def run_cell(key: Tuple[str, str, str]):
        expression, planner_name, scale_name = key
        resolved, scenario_obj, schedule = resolved_pairs[
            (expression, scale_name)
        ]
        result = run_matrix_cell(
            resolved,
            scenario_obj,
            schedule,
            planner_name,
            planner_config=planner_config,
            through_service=through_service,
        )
        artifact = build_cell_artifact(
            scenario=expression,
            planner=planner_name,
            scale=scale_name,
            resolved=resolved,
            schedule=schedule,
            result=result,
            service_replay=through_service,
        )
        return key, artifact, result

    baseline_cells = [
        (baseline, planner, scale_name)
        for scale_name in scales
        for planner in planners
    ]
    other_cells = [
        (expression, planner, scale_name)
        for scale_name in scales
        for expression in scenario_list
        if expression != baseline
        for planner in planners
    ]
    # Baselines first — every other cell's deltas need them pinned.
    completed = map_in_pool(
        run_cell, baseline_cells, workers=workers, thread_name_prefix="matrix"
    )
    completed += map_in_pool(
        run_cell, other_cells, workers=workers, thread_name_prefix="matrix"
    )

    by_key = {key: (artifact, result) for key, artifact, result in completed}
    baselines = {
        (planner, scale_name): by_key[(baseline, planner, scale_name)][0]
        for scale_name in scales
        for planner in planners
    }
    sweep = MatrixResult(
        nondeterministic_scales=frozenset(
            scale_name
            for scale_name in scales
            if not scale_registry[scale_name].deterministic
        )
    )
    for scale_name in scales:
        for expression in scenario_list:
            for planner in planners:
                artifact, result = by_key[(expression, planner, scale_name)]
                attach_baseline(
                    artifact, baselines[(planner, scale_name)]
                )
                sweep.artifacts[artifact.cell_id] = artifact
                sweep.results[artifact.cell_id] = result
    return sweep


def diff_kpi_reference(
    expected: Mapping[str, Any],
    sweep: MatrixResult,
    scale_registry: Optional[Mapping[str, MatrixScale]] = None,
) -> List[str]:
    """KPI-band drift of a sweep's non-deterministic cells vs a reference.

    Each non-deterministic scale is checked against its own tolerance
    map (:attr:`MatrixScale.kpi_tolerances`); deterministic scales are
    covered by the golden fingerprints and skipped here.
    """
    scale_registry = (
        scale_registry if scale_registry is not None else MATRIX_SCALES
    )
    problems: List[str] = []
    for scale_name in sorted(sweep.nondeterministic_scales):
        scale = scale_registry[scale_name]
        artifacts = {
            cid: artifact
            for cid, artifact in sweep.artifacts.items()
            if artifact.scale == scale_name
        }
        expected_cells = {
            cid: kpis
            for cid, kpis in expected.get("cells", {}).items()
            if cid.rsplit("/", 1)[-1] == scale_name
        }
        problems.extend(
            diff_kpi_bands(
                {"cells": expected_cells}, artifacts, scale.tolerance_map()
            )
        )
    return problems


def generate_golden_matrix(
    *, workers: int = 1, scales: Sequence[str] = ("quick",)
) -> str:
    """The golden-matrix fixture bytes for the default quick sweep.

    Shared by the CLI's ``--write-golden`` flag and the golden-fixture
    regeneration test, so both always agree on what "the quick matrix"
    means.
    """
    sweep = run_matrix(scales=scales, workers=workers)
    return sweep.golden_json()


def _main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse

    from repro.experiments.reporting import format_table

    parser = argparse.ArgumentParser(
        description="run the declarative scenario-matrix sweep"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the CI sweep: every regime x every planner at the quick scale",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="EXPR",
        help="spec expressions (names or name+name compositions); "
        f"default: {' '.join(MATRIX_REGIMES)}",
    )
    parser.add_argument(
        "--planners", nargs="+", default=list(DEFAULT_PLANNERS)
    )
    parser.add_argument(
        "--scales",
        nargs="+",
        default=["quick"],
        choices=sorted(MATRIX_SCALES),
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-solve time limit (required practice for the "
        "non-deterministic 'large' scale)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="replay every cell through a synchronous AdmissionService",
    )
    parser.add_argument("--out-dir", default=None, metavar="DIR")
    parser.add_argument(
        "--check-golden",
        default=None,
        metavar="PATH",
        help="fail on fingerprint drift against this golden fixture",
    )
    parser.add_argument(
        "--write-golden",
        default=None,
        metavar="PATH",
        help="write the sweep's golden fixture to PATH and exit cleanly",
    )
    parser.add_argument(
        "--check-kpi-ref",
        default=None,
        metavar="PATH",
        help="fail when non-deterministic-scale KPIs leave the "
        "tolerance bands of this reference",
    )
    parser.add_argument(
        "--write-kpi-ref",
        default=None,
        metavar="PATH",
        help="write the non-deterministic-scale KPI reference to PATH",
    )
    args = parser.parse_args(argv)

    scenarios = args.scenarios or list(MATRIX_REGIMES)
    sweep = run_matrix(
        scenarios=scenarios,
        planners=args.planners,
        scales=args.scales,
        seed=args.seed,
        workers=args.workers,
        planner_config=(
            PlannerConfig(time_limit=args.time_limit)
            if args.time_limit is not None
            else None
        ),
        through_service=args.service,
    )

    if args.out_dir:
        paths = sweep.write_artifacts(Path(args.out_dir))
        print(f"wrote {len(paths)} artifact files to {args.out_dir}")
    print(
        format_table(
            [
                "scenario",
                "planner",
                "scale",
                "admitted",
                "rejected",
                "dropped",
                "d(admitted)",
                "invariants",
            ],
            sweep.summary_rows(),
            title=(
                f"scenario matrix: {len(sweep.artifacts)} cells "
                f"({len(scenarios)} scenarios x {len(args.planners)} "
                f"planners x {len(args.scales)} scales)"
            ),
        )
    )

    failures: List[str] = sweep.violations()
    if failures:
        print("INVARIANT VIOLATIONS:")
        for line in failures:
            print(f"  {line}")

    if args.write_golden:
        Path(args.write_golden).write_text(
            sweep.golden_json(), encoding="utf-8"
        )
        print(f"golden fixture written to {args.write_golden}")
    if args.write_kpi_ref:
        Path(args.write_kpi_ref).write_text(
            json.dumps(sweep.kpi_band_payload(), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"KPI reference written to {args.write_kpi_ref}")
    if args.check_kpi_ref:
        expected = json.loads(
            Path(args.check_kpi_ref).read_text(encoding="utf-8")
        )
        band_drift = diff_kpi_reference(expected, sweep)
        if band_drift:
            print(f"KPI BAND DRIFT vs {args.check_kpi_ref}:")
            for line in band_drift:
                print(f"  {line}")
            failures.extend(band_drift)
        else:
            print(f"KPIs within tolerance bands of {args.check_kpi_ref}")
    if args.check_golden:
        expected = json.loads(
            Path(args.check_golden).read_text(encoding="utf-8")
        )
        drift = diff_golden(expected, sweep.artifacts)
        if drift:
            print(f"GOLDEN DRIFT vs {args.check_golden}:")
            for line in drift:
                print(f"  {line}")
            failures.extend(drift)
        else:
            print(f"golden fingerprints match {args.check_golden}")

    if failures:
        raise SystemExit(1)


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    _main()
