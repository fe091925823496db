"""Span recorder and rebinding for the traced pass of the e2e benchmark.

Nothing under ``src/`` is instrumented.  For the traced pass only, the
harness rebinds the public callables of each layer — at the names their
callers resolve — to thin timing wrappers, and restores the originals
afterwards.  A span is ``(name, start, end, parent span, operation id,
thread)``; spans of one submit / retire / event / service batch share an
operation id.  Stacks are thread-local because the admission service runs
its solver and deployer on their own threads.

A layer's *self time* is its span's duration minus the time covered by its
direct child spans (children of one span run sequentially on one thread,
so they never overlap).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``span name -> (module, attribute path)``.  A one-component path is a
#: module-level function: it is rebound in its defining module *and* in
#: every loaded ``repro`` module that imported it by name (``from x import
#: f`` copies the binding, so the caller's copy is the one that matters).
#: A two-component path is ``Class.method`` and is rebound on the class.
SPAN_TARGETS: Dict[str, Tuple[str, str]] = {
    "api.resolve_query": ("repro.api.base", "Planner._resolve_query"),
    "core.planner.submit_batch": ("repro.core.planner", "SQPRPlanner.submit_batch"),
    "core.planner.retire": ("repro.core.planner", "SQPRPlanner.retire"),
    "core.federated.submit_batch": ("repro.core.federated", "FederatedPlanner.submit_batch"),
    "core.reduction.compute_scope": ("repro.core.reduction", "compute_scope"),
    "core.model_builder.get_or_build": ("repro.core.model_builder", "ModelReuseCache.get_or_build"),
    "core.model_builder.build_model": ("repro.core.model_builder", "build_model"),
    "milp.standard_form.to_standard_form": ("repro.milp.standard_form", "to_standard_form"),
    "milp.solver.solve": ("repro.milp.solver", "MilpSolver.solve"),
    "milp.highs": ("repro.milp.scipy_backend", "_scipy_milp"),
    "core.solution.decode_solution": ("repro.core.solution", "decode_solution"),
    "dsps.allocation.apply": ("repro.dsps.allocation", "Allocation.apply"),
    "dsps.allocation.validate_delta": ("repro.dsps.allocation", "Allocation.validate_delta"),
    "dsps.allocation.copy": ("repro.dsps.allocation", "Allocation.copy"),
    "dsps.subplan.resolve_reuse_matches": ("repro.dsps.subplan", "resolve_reuse_matches"),
    "dsps.subplan.collect": ("repro.dsps.subplan", "SubPlanIndex.collect"),
    "dsps.subplan.retire": ("repro.dsps.subplan", "SubPlanIndex.retire"),
    "dsps.plan.rebuild_minimal_allocation": ("repro.dsps.plan", "rebuild_minimal_allocation"),
    "dsps.engine.adopt": ("repro.dsps.engine", "ClusterEngine.adopt"),
    "dsps.engine.fail_host": ("repro.dsps.engine", "ClusterEngine.fail_host"),
    "dsps.engine.restore_host": ("repro.dsps.engine", "ClusterEngine.restore_host"),
    "core.adaptive.replan": ("repro.core.adaptive", "AdaptiveReplanner.replan"),
    "sim.harness.run": ("repro.sim.harness", "SimulationHarness.run"),
}

SPAN_NAMES: Tuple[str, ...] = tuple(SPAN_TARGETS)


class SpanRecorder:
    """In-memory span store with per-thread stacks and O(1) self time."""

    def __init__(self) -> None:
        # One record per finished span:
        # [id, name, start, end, parent id or None, operation id, thread name, self seconds]
        self.spans: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- operations
    def set_operation(self, op_id: Optional[int]) -> None:
        """Tag the calling thread's next spans with ``op_id``.

        Without an explicit operation a root span (one with no parent on its
        thread) starts a new operation named after its own span id, which
        its children inherit — enough for the service's solver and deployer
        threads, where one root span is one batch.
        """
        self._local.op = op_id

    # ------------------------------------------------------------------ spans
    def wrap(self, name: str, fn: Callable) -> Callable:
        """A timing wrapper around ``fn`` recording one ``name`` span per call."""
        local = self._local
        spans = self.spans
        ids = self._ids
        lock = self._lock
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent = stack[-1]
                parent_id, op_id = parent[0], parent[1]
            else:
                parent = None
                parent_id = None
                op_id = getattr(local, "op", None)
                if op_id is None:
                    op_id = span_id
            # frame: [span id, operation id, seconds covered by children]
            frame = [span_id, op_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                record = [
                    span_id,
                    name,
                    start,
                    end,
                    parent_id,
                    op_id,
                    threading.current_thread().name,
                    duration - frame[2],
                ]
                with lock:
                    spans.append(record)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ---------------------------------------------------------------- reading
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "self_s"}`` over every recorded span."""
        totals: Dict[str, Dict[str, float]] = {}
        with self._lock:
            snapshot = list(self.spans)
        for record in snapshot:
            entry = totals.setdefault(record[1], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += record[7]
        return totals

    def root_seconds(self, thread_name: str) -> float:
        """Seconds covered by root spans (no parent) on one thread."""
        with self._lock:
            return sum(
                r[3] - r[2]
                for r in self.spans
                if r[4] is None and r[6] == thread_name
            )

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with self._lock:
            snapshot = list(self.spans)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, op_id, thread, self_s in snapshot:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op_id,
                            "thread": thread,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


class Rebinding:
    """Context manager: rebind the layer callables to ``recorder`` wrappers.

    Every rebound name is remembered with its original value and restored
    on exit in reverse order, so nesting and early exits leave the program
    exactly as it was (the self-tests compare object identities).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _rebind(self, owner: Any, attr: str, new: Any) -> None:
        # vars() rather than getattr(): a class attribute must be restored
        # to the raw function object, not a bound/unbound view of it.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Rebinding":
        try:
            for name, (module_name, path) in SPAN_TARGETS.items():
                module = importlib.import_module(module_name)
                parts = path.split(".")
                if len(parts) == 2:
                    cls = getattr(module, parts[0])
                    original = vars(cls)[parts[1]]
                    self._rebind(cls, parts[1], self.recorder.wrap(name, original))
                    continue
                original = vars(module)[path]
                if original is None:
                    continue  # optional dependency missing (no scipy)
                wrapper = self.recorder.wrap(name, original)
                for other_name, other in list(sys.modules.items()):
                    if other is None or not other_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._rebind(other, attr, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def calibrate_span_cost() -> float:
    """Seconds one wrapper adds to a call, measured on an empty function."""
    samples = 20000

    def nothing() -> None:
        return None

    recorder = SpanRecorder()
    traced = recorder.wrap("calibration", nothing)
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        nothing()
    bare = clock() - start
    start = clock()
    for _ in range(samples):
        traced()
    wrapped = clock() - start
    return max(0.0, (wrapped - bare) / samples)
