"""The ``large`` scenario-matrix scale tier and its KPI tolerance bands.

The large tier runs under a solver time limit, so its cells are excluded
from the golden fingerprint fixture and checked against per-KPI
tolerance bands instead (:func:`repro.scenarios.artifacts.diff_kpi_bands`
/ :func:`repro.experiments.matrix.diff_kpi_reference`).
"""

from __future__ import annotations

import copy

from repro.api import PlannerConfig
from repro.experiments.matrix import diff_kpi_reference, run_matrix
from repro.scenarios.artifacts import diff_kpi_bands, kpi_band_payload
from repro.scenarios.matrix import MATRIX_SCALES


class TestLargeScaleDefinition:
    def test_registered_and_nondeterministic(self):
        scale = MATRIX_SCALES["large"]
        assert not scale.deterministic
        assert scale.tolerance_map()  # has bands to check against

    def test_strictly_bigger_than_medium(self):
        large, medium = MATRIX_SCALES["large"], MATRIX_SCALES["medium"]
        assert large.topology.num_hosts > medium.topology.num_hosts
        assert (
            large.topology.num_base_streams > medium.topology.num_base_streams
        )
        assert large.trace.duration > medium.trace.duration

    def test_other_scales_stay_deterministic(self):
        for name in ("quick", "small", "medium"):
            assert MATRIX_SCALES[name].deterministic
            assert MATRIX_SCALES[name].tolerance_map() == {}


def _large_sweep(workers=1, scenarios=("baseline",)):
    return run_matrix(
        scenarios=list(scenarios),
        planners=["heuristic"],
        scales=["large"],
        workers=workers,
        planner_config=PlannerConfig(time_limit=0.5),
    )


class TestLargeSweep:
    def test_runs_clean_with_per_cell_artifacts(self, tmp_path):
        sweep = _large_sweep()
        assert sweep.violations() == []
        assert list(sweep.artifacts) == ["baseline/heuristic/large"]
        paths = sweep.write_artifacts(tmp_path)
        assert (tmp_path / "matrix_index.json").exists()
        assert len(paths) == 2

    def test_excluded_from_golden_payload(self):
        sweep = _large_sweep()
        assert sweep.nondeterministic_scales == frozenset({"large"})
        assert sweep.golden_payload()["cells"] == {}
        assert list(sweep.kpi_band_payload()["cells"]) == [
            "baseline/heuristic/large"
        ]

    def test_runs_on_threads_within_bands(self):
        # Two cells, so workers=2 really runs them side by side.
        scenarios = ("baseline", "reuse_heavy", "reuse_free")
        reference = _large_sweep(scenarios=scenarios).kpi_band_payload()
        sweep = _large_sweep(workers=2, scenarios=scenarios)
        assert sweep.violations() == []
        assert diff_kpi_reference(reference, sweep) == []


class TestKpiBands:
    def _payload(self):
        return _large_sweep().kpi_band_payload()

    def test_self_comparison_is_clean(self):
        sweep = _large_sweep()
        assert diff_kpi_reference(sweep.kpi_band_payload(), sweep) == []

    def test_out_of_band_kpi_reported(self):
        sweep = _large_sweep()
        reference = copy.deepcopy(sweep.kpi_band_payload())
        cell = reference["cells"]["baseline/heuristic/large"]
        cell["admitted"] = cell["admitted"] * 10 + 100
        drift = diff_kpi_reference(reference, sweep)
        assert len(drift) == 1
        assert "out of band" in drift[0]
        assert "'admitted'" in drift[0]

    def test_within_band_deviation_tolerated(self):
        sweep = _large_sweep()
        reference = copy.deepcopy(sweep.kpi_band_payload())
        cell = reference["cells"]["baseline/heuristic/large"]
        # 10% band on 'admitted': a 5% nudge stays inside.
        cell["admitted"] = cell["admitted"] * 1.05
        assert diff_kpi_reference(reference, sweep) == []

    def test_missing_and_unexpected_cells_reported(self):
        sweep = _large_sweep()
        artifacts = {
            cid: artifact
            for cid, artifact in sweep.artifacts.items()
            if artifact.scale == "large"
        }
        reference = {"cells": {"ghost/heuristic/large": {"admitted": 1.0}}}
        drift = diff_kpi_bands(
            reference, artifacts, MATRIX_SCALES["large"].tolerance_map()
        )
        assert any("missing from this sweep" in line for line in drift)
        assert any("not present in the KPI reference" in line for line in drift)

    def test_near_zero_reference_uses_absolute_floor(self):
        sweep = _large_sweep()
        artifacts = dict(sweep.artifacts)
        payload = kpi_band_payload(artifacts)
        cell = payload["cells"]["baseline/heuristic/large"]
        real_dropped = cell["dropped"]
        cell["dropped"] = 0.0
        drift = diff_kpi_bands(
            payload, artifacts, {"dropped": 0.25}
        )
        # band = 0.25 * max(1, 0) = 0.25 — clean only if truly near zero.
        assert (real_dropped <= 0.25) == (drift == [])
