"""Tests for :func:`repro.utils.pool.map_in_pool`: identical results and
ordering inline and pooled, error propagation, argument checking.
(Cancel-the-remainder and first-failure order are in
``tests/test_utils.py::TestMapInPool``.)
"""

from __future__ import annotations

import threading

import pytest

from repro.utils.pool import map_in_pool


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestMapInPool:
    @pytest.mark.parametrize("workers", [None, 1, 2, 8])
    def test_preserves_order(self, workers):
        items = list(range(7))
        assert map_in_pool(_square, items, workers=workers) == [
            x * x for x in items
        ]

    def test_empty_items(self):
        assert map_in_pool(_square, [], workers=4) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            map_in_pool(_square, [1], workers=-1)

    @pytest.mark.parametrize(
        "workers", [pytest.param(1, id="serial"), pytest.param(2, id="thread")]
    )
    def test_exception_propagates(self, workers):
        with pytest.raises(ValueError, match="boom"):
            map_in_pool(_boom, [1, 2, 3, 4], workers=workers)

    def test_inline_runs_in_calling_thread(self):
        # No pool below two workers — observable via thread identity.
        for workers in (None, 0, 1):
            idents = map_in_pool(
                lambda _: threading.get_ident(), [1, 2, 3], workers=workers
            )
            assert set(idents) == {threading.get_ident()}
