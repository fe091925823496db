"""Golden regression test for the scenario-matrix fingerprints.

The quick-scale sweep — every registered regime (plus the compound
flash-crowd-during-partition expression) across all four registry
planners — commits one determinism fingerprint per cell to
``tests/fixtures/golden_matrix.json``.  Any behavioural drift in the
workload generators, the harness, or a planner changes a fingerprint and
fails loudly here; the CI ``scenario-matrix`` job checks the same
fixture through the CLI.

When a change is intentional, regenerate the fixture and commit it::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_matrix.py -q

Regeneration is idempotent by construction (no wall-clock enters an
artifact), which ``test_golden_matrix_regeneration_is_idempotent``
asserts by comparing the bytes of two generations (session fixtures in
``conftest.py``, one on four threads and one inline).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.matrix import DEFAULT_PLANNERS
from repro.scenarios import MATRIX_REGIMES

FIXTURE = Path(__file__).parent / "fixtures" / "golden_matrix.json"


@pytest.mark.slow
def test_golden_matrix_fingerprints_match_fixture(golden_matrix_workers4):
    observed = golden_matrix_workers4

    if os.environ.get("REGEN_GOLDEN"):
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(observed, encoding="utf-8")
        pytest.skip(f"regenerated {FIXTURE}")

    expected = FIXTURE.read_text(encoding="utf-8")
    assert observed == expected, (
        "scenario-matrix fingerprints drifted from the committed fixture; "
        "if this change is intentional, regenerate with REGEN_GOLDEN=1 and "
        "commit the new fixture"
    )


@pytest.mark.slow
def test_golden_matrix_regeneration_is_idempotent(
    golden_matrix_workers4, golden_matrix_workers1
):
    # Byte-identical across runs AND across worker counts: nothing
    # wall-clock or scheduling-dependent may enter the fixture.
    assert golden_matrix_workers4 == golden_matrix_workers1


def test_fixture_covers_the_full_quick_matrix():
    payload = json.loads(FIXTURE.read_text(encoding="utf-8"))
    expected_cells = {
        f"{scenario}/{planner}/quick"
        for scenario in MATRIX_REGIMES
        for planner in DEFAULT_PLANNERS
    }
    assert set(payload["cells"]) == expected_cells
    for fingerprint in payload["cells"].values():
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # hex sha256
