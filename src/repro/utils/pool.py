"""Shared fan-out helper: independent tasks, results in submission order.

:class:`~repro.core.federated.FederatedPlanner` plans its per-site groups
concurrently and the scenario-matrix sweep runner executes independent
matrix cells concurrently — both are the same shape: a list of
independent tasks whose results must come back *in submission order* so
that concurrency never changes observable output, only wall-clock.
:func:`map_in_pool` is that shape, factored out so both layers share one
audited implementation.

``workers`` alone picks the execution: ``None``, ``0`` or ``1`` runs
inline in the caller, anything larger runs on a
:class:`~concurrent.futures.ThreadPoolExecutor`.  Threads pay here because
a batch solve spends its time inside HiGHS with the GIL released; the
Python-bound share of a task (model build and lowering) is what bounds
the speed-up (numbers in ``docs/architecture.md``, "Shard concurrency").
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_in_pool(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    thread_name_prefix: str = "pool",
) -> List[R]:
    """Apply ``fn`` to every item, preserving input order in the result.

    ``workers`` bounds the pool width (``None``, ``0`` or ``1`` runs
    sequentially in the calling thread — no pool, no thread-switch
    overhead); a negative ``workers`` is a caller bug and raises
    :class:`ValueError` rather than silently degrading to the sequential
    path.  The effective width never exceeds ``len(items)``.  Exceptions
    propagate from the first failing item in submission order, exactly as
    the sequential path would raise them; on failure the not-yet-started
    remainder of the batch is cancelled instead of being run to
    completion behind the caller's back.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    width = min(workers or 1, len(items))
    if width <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(
        max_workers=width, thread_name_prefix=thread_name_prefix
    ) as pool:
        futures = [pool.submit(fn, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
