"""A long-running admission service over a planner.

The service models SQPR's intended deployment: an admission controller
sitting in the request path of a federated stream-processing system,
absorbing sustained query-arrival traffic.  Three ideas carry the
throughput story on top of the existing planners:

**Bounded intake with overload policies.**  Arrivals enter a bounded
queue.  When it is full the configured :class:`OverloadPolicy` decides:
``reject`` sheds the arrival immediately (:class:`QueueFullError`),
``block`` applies backpressure to the caller, ``timeout`` blocks for a
bounded wait and then sheds (:class:`AdmissionTimeout`).

**Work-conserving batch coalescing with a sequential-equivalence
fallback.**  An arrival at an idle service is dispatched at once.
Queries that arrive while a solve is in flight queue up and coalesce
into the next batch — one MILP model build + solve per batch (per
federated site group) instead of one per query.  Joint admission is the
throughput lever under load, but SQPR's two-stage rescue (the
forced-admission stage-B replan) only engages for singletons; the
``fallback`` policy compensates:
``"batch"`` (default) re-plans every member individually when a batch
admits *nothing* — the situation where sequential submission is known
to behave differently — while ``"rejected"`` re-plans every rejected
member for strict per-query equivalence, at sequential cost under
overload.  Measured on the federated scenarios, ``"batch"`` admits the
same queries or more than the sequential baseline (the joint model can
co-place queries that one-at-a-time greedy admission strands).

**Deploys through the cluster engine.**  After each solve the service
snapshots the planner's allocation and the batch's touched-entity sets,
delta-validates exactly those entities and hands the snapshot to
:class:`~repro.dsps.engine.ClusterEngine` — the same validate-then-adopt
contract the simulation harness uses, run per admission batch.  One
worker thread decides and deploys each batch in turn: a deploy costs a
fraction of a millisecond against solves of milliseconds to seconds, so
overlapping it with the next solve bought nothing.

With ``pipelined=False`` the same decide-and-deploy step runs
synchronously inside :meth:`AdmissionService.submit`, which keeps
event-replay deterministic for the simulation harness and golden
fixtures.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..api.base import Planner, PlanningOutcome
from ..dsps.allocation import Allocation
from ..dsps.engine import ClusterEngine
from ..exceptions import PlanningError
from ..dsps.query import Query, QueryWorkloadItem
from ..milp import SOLVER_COUNTER_FIELDS
from .metrics import MetricsRegistry

__all__ = [
    "AdmissionService",
    "AdmissionTicket",
    "AdmissionTimeout",
    "OverloadPolicy",
    "QueueFullError",
    "ServiceClosed",
    "ServiceConfig",
]

SubmitItem = Union[Query, QueryWorkloadItem]

#: How callers experience a full arrival queue.
OverloadPolicy = str  # "reject" | "block" | "timeout"

_OVERLOAD_POLICIES = ("reject", "block", "timeout")
_FALLBACK_POLICIES = ("batch", "rejected", "none")


class QueueFullError(PlanningError):
    """The arrival queue is full and the overload policy sheds load."""


class AdmissionTimeout(PlanningError):
    """Enqueueing (or waiting for a decision) exceeded its deadline."""


class ServiceClosed(PlanningError):
    """The service has been closed and accepts no further queries."""


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`AdmissionService`.

    Attributes
    ----------
    max_queue:
        Bound on the arrival queue; beyond it the ``overload_policy``
        applies.
    max_batch:
        Most queries coalesced into one batch admission.
    batch_window:
        How long the worker waits (seconds) for co-arrivals after taking
        the first query of a batch.  The default ``0.0`` is
        work-conserving: an idle arrival is dispatched at once, and a
        batch holds whatever queued up while the previous one solved.  A
        positive window fills batches at the price of idle latency (the
        fig11 benchmark keeps 1.2 s for its admission count).  The
        synchronous drain never waits: it is the queue's only consumer.
    overload_policy:
        ``"reject"`` | ``"block"`` | ``"timeout"`` — see module docs.
    enqueue_timeout:
        Bounded wait for the ``"timeout"`` policy.
    batch_time_limit:
        Flat solver budget per batch (per federated site group), passed
        to ``submit_batch``.  ``None`` keeps the planner's default
        (per-query budget scaled by batch size), which grows unbounded
        with coalesced batches under load — capping it keeps worst-case
        decision latency flat.
    fallback:
        ``"batch"`` (default), ``"rejected"``, or ``"none"`` — when to
        re-plan batch members individually, see module docs.
    pipelined:
        ``True`` decides and deploys batches on one background
        ``admission-worker`` thread, so ``submit`` returns at once;
        ``False`` runs the same step synchronously inside ``submit``
        (deterministic, used by the simulation harness).
    """

    max_queue: int = 1024
    max_batch: int = 32
    batch_window: float = 0.0
    overload_policy: OverloadPolicy = "block"
    enqueue_timeout: float = 1.0
    batch_time_limit: Optional[float] = None
    fallback: str = "batch"
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.batch_window < 0:
            raise ValueError("batch_window cannot be negative")
        if self.overload_policy not in _OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload_policy {self.overload_policy!r}; "
                f"expected one of {_OVERLOAD_POLICIES}"
            )
        if self.fallback not in _FALLBACK_POLICIES:
            raise ValueError(
                f"unknown fallback {self.fallback!r}; "
                f"expected one of {_FALLBACK_POLICIES}"
            )


class AdmissionTicket:
    """A caller's handle on one in-flight admission.

    Tickets resolve with the query's :class:`PlanningOutcome` once the
    decision is made *and* its batch has deployed; ``result()`` blocks
    until then.  Stage timestamps (relative to enqueue) expose where the
    latency went.
    """

    def __init__(self, item: SubmitItem) -> None:
        self.item = item
        self.enqueued_at = time.perf_counter()
        self.decided_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._event = threading.Event()
        self._outcome: Optional[PlanningOutcome] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------- completion
    def _resolve(self, outcome: PlanningOutcome) -> None:
        self._outcome = outcome
        self.completed_at = time.perf_counter()
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.completed_at = time.perf_counter()
        self._event.set()

    # ---------------------------------------------------------------- reading
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> PlanningOutcome:
        if not self._event.wait(timeout):
            raise AdmissionTimeout(
                "admission decision not available within the timeout"
            )
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds from enqueue to the start of the batch's solve."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.enqueued_at

    @property
    def latency(self) -> Optional[float]:
        """Seconds from enqueue to deployed decision."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class AdmissionService:
    """Batched, work-conserving admission over a planner (see module docs).

    Parameters
    ----------
    planner:
        Any :class:`~repro.api.base.Planner`.  For federated planners
        constructed with ``workers > 1`` the per-site groups of each
        batch solve on a thread pool, composing shard parallelism with
        the service's batching.
    engine:
        Optional :class:`~repro.dsps.engine.ClusterEngine` built on the
        same catalog.  When given, every batch's allocation snapshot is
        delta-validated and adopted by the engine (trusted — the service
        just validated the touched entities), so the engine's live state
        tracks admissions exactly as under the simulation harness.
    """

    def __init__(
        self,
        planner: Planner,
        engine: Optional[ClusterEngine] = None,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if engine is not None and engine.catalog is not planner.catalog:
            raise PlanningError(
                "service engine must share the planner's catalog"
            )
        self.planner = planner
        self.engine = engine
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self._arrivals: "queue.Queue" = queue.Queue(
            maxsize=self.config.max_queue
        )
        self._closed = threading.Event()
        self._sync_lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._stage_error: Optional[BaseException] = None
        # Tickets accepted but not yet resolved; flush() waits on this, not
        # on queue emptiness (the batch in the worker's hands is not queued).
        self._inflight = 0
        self._inflight_cv = threading.Condition()

        registry = self.metrics
        self._m_arrivals = registry.counter("arrivals_total")
        self._m_shed = registry.counter("shed_total")
        self._m_admitted = registry.counter("admitted_total")
        self._m_rejected = registry.counter("rejected_total")
        self._m_batches = registry.counter("batches_total")
        self._m_fallbacks = registry.counter("fallback_batches_total")
        self._m_deploys = registry.counter("deploys_total")
        self._m_deploy_failures = registry.counter("deploy_failures_total")
        self._m_reuse_exact = registry.counter("reuse_exact_total")
        self._m_reuse_partial = registry.counter("reuse_partial_total")
        self._m_start_incumbents = registry.counter("start_incumbents_total")
        self._m_queue_depth = registry.gauge("queue_depth")
        self._m_batch_size = registry.histogram(
            "batch_size", lowest=1.0, highest=4096.0, growth=2.0
        )
        self._m_queue_wait = registry.histogram("queue_wait_seconds")
        self._m_solve = registry.histogram("solve_seconds")
        self._m_deploy = registry.histogram("deploy_seconds")
        self._m_latency = registry.histogram("admission_latency_seconds")
        # One monotonic counter per simplex counter field (solver_dual_resumes_total,
        # solver_phase1_iterations_total, …) so re-plan cost is observable in
        # the same registry as admission throughput.  Outcomes of one batch
        # share a counters dict; _observe_solver_counters dedupes by identity.
        self._m_solver = {
            name: registry.counter(f"solver_{name}_total")
            for name in SOLVER_COUNTER_FIELDS
        }

        if self.config.pipelined:
            self._worker = threading.Thread(
                target=self._work, name="admission-worker", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------------ intake
    def _enqueue(self, item: SubmitItem) -> AdmissionTicket:
        if self._closed.is_set():
            raise ServiceClosed("the admission service is closed")
        if self._stage_error is not None:
            raise PlanningError(
                "the admission worker died"
            ) from self._stage_error
        ticket = AdmissionTicket(item)
        self._m_arrivals.inc()
        policy = self.config.overload_policy
        try:
            if policy == "block":
                self._arrivals.put(ticket)
            elif policy == "timeout":
                self._arrivals.put(
                    ticket, timeout=self.config.enqueue_timeout
                )
            else:
                self._arrivals.put_nowait(ticket)
        except queue.Full:
            self._m_shed.inc()
            error: PlanningError = (
                AdmissionTimeout(
                    "arrival queue stayed full past enqueue_timeout"
                )
                if policy == "timeout"
                else QueueFullError("arrival queue is full; load shed")
            )
            ticket._fail(error)
            raise error
        with self._inflight_cv:
            self._inflight += 1
        self._m_queue_depth.set(self._arrivals.qsize())
        return ticket

    def submit(self, item: SubmitItem) -> AdmissionTicket:
        """Enqueue one query for admission and return its ticket.

        In synchronous mode (``pipelined=False``) the query is planned
        and deployed before this returns — one query, one batch — which
        is what keeps harness replay deterministic.
        """
        ticket = self._enqueue(item)
        if not self.config.pipelined:
            with self._sync_lock:
                while not ticket.done():
                    self._drain_once()
        return ticket

    def submit_many(
        self, items: Sequence[SubmitItem]
    ) -> List[AdmissionTicket]:
        """Enqueue several queries at once.

        Unlike repeated :meth:`submit`, in synchronous mode the whole
        group is enqueued *before* draining, so it coalesces into
        ``max_batch``-sized batches deterministically — the synchronous
        twin of what the worker does under backlog.
        """
        if not self.config.pipelined:
            tickets = [self._enqueue(item) for item in items]
            with self._sync_lock:
                while any(not t.done() for t in tickets):
                    self._drain_once()
            return tickets
        return [self.submit(item) for item in items]

    def _finish(
        self,
        ticket: AdmissionTicket,
        outcome: Optional[PlanningOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if error is not None:
            ticket._fail(error)
        else:
            assert outcome is not None
            ticket._resolve(outcome)
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    # --------------------------------------------------------------- batching
    def _next_batch(
        self, block: bool
    ) -> Optional[List[AdmissionTicket]]:
        """Coalesce up to ``max_batch`` tickets from the arrival queue.

        The worker (``block=True``) idles on the queue for a first ticket
        and then waits up to ``batch_window`` for co-arrivals.  The
        synchronous drain is the queue's only consumer, so it takes what
        is already queued and never waits.
        """
        try:
            batch = [
                self._arrivals.get(block=block, timeout=0.1 if block else None)
            ]
        except queue.Empty:
            return None
        window = self.config.batch_window if block else 0.0
        deadline = time.perf_counter() + window
        while len(batch) < self.config.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    batch.append(self._arrivals.get(timeout=remaining))
                else:
                    batch.append(self._arrivals.get_nowait())
            except queue.Empty:
                break
        self._m_queue_depth.set(self._arrivals.qsize())
        return batch

    # ----------------------------------------------------------------- stages
    def _observe_solver_counters(self, outcomes: List[PlanningOutcome]) -> None:
        """Fold the outcomes' simplex counters into the metrics registry.

        Outcomes of one planning round share a single counters dict (a
        batch, or stage A + B of a two-stage solve), so aggregation dedupes
        by object identity within this call — a ten-query batch counts its
        solve once.  Fallback re-submissions carry their own dicts and are
        counted separately.
        """
        seen: set = set()
        for outcome in outcomes:
            counters = outcome.extras.get("solver_counters")
            if not counters or id(counters) in seen:
                continue
            seen.add(id(counters))
            for name, value in counters.items():
                metric = self._m_solver.get(name)
                if metric is not None and value:
                    metric.inc(value)

    def _solve_batch(
        self, batch: List[AdmissionTicket]
    ) -> Tuple[
        List[PlanningOutcome],
        Optional[Allocation],
        Tuple[set, set, set],
    ]:
        """Plan one coalesced batch and snapshot the result for deploy."""
        started = time.perf_counter()
        for ticket in batch:
            ticket.decided_at = started
            self._m_queue_wait.observe(started - ticket.enqueued_at)
        outcomes = self.planner.submit_batch(
            [ticket.item for ticket in batch],
            time_limit=self.config.batch_time_limit,
        )
        fallback = self.config.fallback
        if fallback != "none" and outcomes:
            if fallback == "batch":
                retry = (
                    outcomes if not any(o.admitted for o in outcomes) else []
                )
            else:  # "rejected"
                retry = [o for o in outcomes if not o.admitted]
            if retry:
                self._m_fallbacks.inc()
                # A fallback retry re-solves a model the batch solve just
                # built: resubmit routes it through the planner's
                # dual-simplex warm-start path.
                rescued = {
                    id(o): self.planner.resubmit(o.query) for o in retry
                }
                outcomes = [rescued.get(id(o), o) for o in outcomes]
        self._m_batches.inc()
        self._m_batch_size.observe(float(len(batch)))
        self._m_solve.observe(time.perf_counter() - started)
        for outcome in outcomes:
            if outcome.admitted:
                self._m_admitted.inc()
            else:
                self._m_rejected.inc()
            # Reuse resolution is one shared index pass inside
            # ``submit_batch``; the matches ride along on the extras.
            if outcome.reuse_exact:
                self._m_reuse_exact.inc()
            elif outcome.reuse_partial:
                self._m_reuse_partial.inc()
            # Decisions whose solve returned the planner's warm start
            # rather than an incumbent found by search.
            if outcome.incumbent_source == "start":
                self._m_start_incumbents.inc()
        self._observe_solver_counters(outcomes)
        allocation = self.planner.allocation
        if self.engine is not None and allocation is not None:
            # Drain exactly what this batch touched for the deploy's
            # delta-validation.  Without an engine the pending touched sets
            # are left alone — an outer owner (the simulation harness) may
            # be tracking them for its own validation.  The engine adopts a
            # copy: the next batch mutates the planner's live allocation.
            touched = allocation.drain_touched()
            snapshot: Optional[Allocation] = allocation.copy()
        else:
            touched = (set(), set(), set())
            snapshot = None
        return outcomes, snapshot, touched

    def _deploy_batch(
        self,
        batch: List[AdmissionTicket],
        outcomes: List[PlanningOutcome],
        snapshot: Optional[Allocation],
        touched: Tuple[set, set, set],
    ) -> None:
        """Delta-validate the batch's snapshot and adopt it on the engine."""
        started = time.perf_counter()
        try:
            if self.engine is not None and snapshot is not None:
                hosts, streams, operators = touched
                violations = snapshot.validate_delta(
                    hosts, streams, operators
                )
                if violations:
                    self._m_deploy_failures.inc()
                    raise PlanningError(
                        "admission batch produced an infeasible "
                        "allocation: " + "; ".join(violations[:5])
                    )
                # Trusted: the delta-validation above covered everything
                # this batch touched, matching the harness's contract.
                self.engine.adopt(snapshot, trusted=True)
                self._m_deploys.inc()
        except BaseException as error:
            for ticket in batch:
                self._finish(ticket, error=error)
            raise
        finally:
            self._m_deploy.observe(time.perf_counter() - started)
        for ticket, outcome in zip(batch, outcomes):
            self._finish(ticket, outcome=outcome)
            latency = ticket.latency
            if latency is not None:
                self._m_latency.observe(latency)

    def _drain_once(self, block: bool = False) -> None:
        """Decide and deploy one coalesced batch on the calling thread.

        Every ticket of the batch resolves, whatever fails.  A failed
        solve propagates: to the synchronous caller, or out of the worker
        loop, which then stops.  A failed deploy propagates only to a
        synchronous caller; the worker goes on to the next batch.
        """
        batch = self._next_batch(block)
        if not batch:
            return
        try:
            planned = self._solve_batch(batch)
        except BaseException as error:
            for ticket in batch:
                self._finish(ticket, error=error)
            raise
        try:
            self._deploy_batch(batch, *planned)
        except Exception:
            if not block:
                raise

    def _work(self) -> None:
        """The ``admission-worker`` loop: drain batches until closed."""
        try:
            while not (self._closed.is_set() and self._arrivals.empty()):
                self._drain_once(block=True)
        except Exception as error:
            # A failed solve stops the worker; _enqueue refuses from now on.
            self._stage_error = error
            self._fail_pending(error)
        finally:
            # A submit racing close() can slip a ticket in after the last
            # drain; nothing will plan it, so fail it loudly.
            self._fail_pending(ServiceClosed("the admission service closed"))

    def _fail_pending(self, error: BaseException) -> None:
        while True:
            try:
                ticket = self._arrivals.get_nowait()
            except queue.Empty:
                break
            self._finish(ticket, error=error)

    # --------------------------------------------------------------- lifecycle
    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every accepted query has a deployed decision."""
        if not self.config.pipelined:
            with self._sync_lock:
                while not self._arrivals.empty():
                    self._drain_once()
            return
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    raise AdmissionTimeout("flush timed out")
                self._inflight_cv.wait(timeout=remaining)

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; optionally drain in-flight work."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._worker is not None:
            if wait:
                self._worker.join(timeout=60.0)
        elif wait:
            self.flush()

    def __enter__(self) -> "AdmissionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(wait=True)
