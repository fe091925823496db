"""The deterministic discrete-event churn simulation harness.

:class:`SimulationHarness` drives one planner through an
:class:`~repro.sim.events.EventSchedule` on top of a
:class:`~repro.dsps.engine.ClusterEngine`:

* **arrivals** go through the planner's normal ``submit`` path,
* **departures** retire admitted queries (``Planner.retire``), garbage-
  collecting the structures only they needed,
* **host failures** deactivate the host in the engine, evict the victim
  queries and immediately try to re-admit them on the surviving hosts,
* **host recoveries** bring the host (and its base streams) back,
* **site partitions** cut a whole site off the WAN (its hosts keep
  running); queries straddling the boundary are evicted and re-admitted,
  ideally confined to one side — **site recoveries** re-attach the site,
* **WAN drift** scales the effective gateway capacities; queries on
  gateways that no longer fit are evicted and re-planned,
* **load drift** perturbs observed operator costs in the resource monitor,
* **replan ticks** give the :class:`~repro.core.adaptive.AdaptiveReplanner`
  a periodic chance to move drifted/overloaded queries (§IV-B).

Determinism contract: given the same schedule (hence the same seed) and a
freshly built catalog + planner, two runs produce identical
:class:`SimulationResult` values — ``result.fingerprint()`` is the equality
the scenario tests assert.  The harness adds no randomness of its own
beyond an RNG derived from the schedule seed (used to pick drift targets),
and it never reads the clock.  Planners must be configured
deterministically: on the small scenarios used for simulation the default
config works because solves finish before their time limits; for strict
determinism on larger scenarios pass ``PlannerConfig(time_limit=None)`` so
no solver decision ever depends on wall-clock.

After every event the harness checks the planner's live allocation for
constraint violations (``validate_invariants=True``, the default) and
raises :class:`~repro.exceptions.SimulationError` on the first violation,
so a decoding or garbage-collection bug surfaces at the event that caused
it rather than as a corrupted end-state.

Invariant checking is *delta-based* by default (``validation_mode="delta"``):
the harness validates only the hosts/streams/operators an event actually
touched — drained from the allocation's incremental touched tracking when
the event mutated the allocation in place, or recovered via
:func:`~repro.dsps.allocation.touched_between` when the event replaced the
allocation object (garbage collection, host failure, re-planning).  Events
that touch nothing (idle replan ticks, drift) skip validation entirely.
``validation_mode="full"`` restores the pre-index behaviour — a full
:meth:`~repro.dsps.allocation.Allocation.validate` scan after every event —
and is what the churn-throughput benchmark uses as its naive baseline.
Either way the full oracle still runs once on the final state
(``result.final_violations``).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.admission import AdmissionService

from repro.api.base import Planner
from repro.core.adaptive import AdaptiveReplanner
from repro.dsps.allocation import Allocation, touched_between
from repro.dsps.engine import ClusterEngine
from repro.exceptions import SimulationError
from repro.sim.events import (
    EventSchedule,
    HostFailure,
    HostRecovery,
    LoadDrift,
    QueryArrival,
    QueryDeparture,
    ReplanTick,
    SimEvent,
    SitePartition,
    SiteRecovery,
    WanDrift,
)
from repro.utils.rng import ensure_rng

#: Counter names every simulation result carries (all start at zero, so
#: golden fixtures and dashboards see a stable key set).
COUNTER_NAMES = (
    "arrivals",
    "admitted",
    "rejected",
    "departures",
    "departures_of_rejected",
    "host_failures",
    "host_recoveries",
    "evicted",
    "readmitted",
    "dropped",
    "drift_events",
    "replan_ticks",
    "replan_rounds",
    "replan_readmitted",
    "replan_dropped",
    "site_partitions",
    "site_recoveries",
    "wan_drift_events",
)


@dataclass
class TickMetrics:
    """One per-event snapshot of the simulated system."""

    time: float
    event: str
    submitted: int          # cumulative arrivals submitted
    active: int             # queries currently admitted and not departed
    rejected: int           # cumulative admission rejections
    departed: int           # cumulative clean departures
    dropped: int            # cumulative forced drops (failures, replans)
    replans: int            # cumulative replanning rounds that moved queries
    active_hosts: int
    mean_cpu_utilisation: float
    max_cpu_utilisation: float


@dataclass
class SimulationResult:
    """Everything one churn simulation run produced."""

    planner_name: str
    seed: int
    ticks: List[TickMetrics] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    final_violations: List[str] = field(default_factory=list)
    #: Per-event invariant violations, each recorded with the index (its
    #: 0-based position in the schedule), kind and time of the scheduled
    #: event that triggered it plus the violation messages — so an artifact
    #: bundle can say *which* event broke which invariant instead of only
    #: that the run died.  Populated before the harness raises (default
    #: ``on_violation="raise"``) or accumulated across the whole run
    #: (``on_violation="record"``).
    violation_events: List[Dict[str, Any]] = field(default_factory=list)
    #: How invariants were checked during the run ("delta" or "full"), how
    #: many per-event validations ran, and the wall-clock they consumed.
    #: Excluded from :meth:`fingerprint` — wall-clock is never part of the
    #: determinism digest.
    validation_mode: str = "delta"
    validate_calls: int = 0
    validate_seconds: float = 0.0

    @property
    def final_active(self) -> int:
        """Queries still admitted when the schedule ran out."""
        return self.ticks[-1].active if self.ticks else 0

    def fingerprint(self) -> Tuple:
        """A hashable digest of the run used to assert determinism.

        Covers every counter and the full per-tick ``(time, active,
        rejected, dropped)`` trajectory; planning times are deliberately
        excluded because wall-clock is the one thing two identical runs
        may not share.
        """
        return (
            self.planner_name,
            self.seed,
            tuple(sorted(self.counters.items())),
            tuple((t.time, t.active, t.rejected, t.dropped) for t in self.ticks),
        )

    def kpis(self) -> Dict[str, float]:
        """The run's key performance indicators as one flat numeric dict.

        This is the extraction hook the scenario-matrix artifacts build
        their baseline deltas from: every value is a plain float derived
        only from counters and recorded ticks (never wall-clock), so KPIs
        of two runs of the same schedule are identical and cross-cell
        deltas are meaningful.
        """
        counters = self.counters
        arrivals = counters.get("arrivals", 0)
        ticks = self.ticks
        kpis: Dict[str, float] = {
            name: float(counters.get(name, 0))
            for name in (
                "arrivals",
                "admitted",
                "rejected",
                "departures",
                "dropped",
                "evicted",
                "readmitted",
                "replan_rounds",
                "host_failures",
                "site_partitions",
                "wan_drift_events",
            )
        }
        kpis["admission_rate"] = (
            counters.get("admitted", 0) / arrivals if arrivals else 0.0
        )
        kpis["final_active"] = float(self.final_active)
        kpis["peak_active"] = float(max((t.active for t in ticks), default=0))
        kpis["mean_active"] = (
            sum(t.active for t in ticks) / len(ticks) if ticks else 0.0
        )
        kpis["mean_cpu_utilisation"] = (
            sum(t.mean_cpu_utilisation for t in ticks) / len(ticks)
            if ticks
            else 0.0
        )
        kpis["peak_cpu_utilisation"] = float(
            max((t.max_cpu_utilisation for t in ticks), default=0.0)
        )
        kpis["invariant_violations"] = float(
            len(self.violation_events) + len(self.final_violations)
        )
        return kpis

    def to_json_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dump (the CI churn artifact format)."""
        return {
            "planner": self.planner_name,
            "seed": self.seed,
            "counters": dict(sorted(self.counters.items())),
            "final_active": self.final_active,
            "final_violations": list(self.final_violations),
            "violation_events": [dict(v) for v in self.violation_events],
            "validation": {
                "mode": self.validation_mode,
                "calls": self.validate_calls,
                "seconds": round(self.validate_seconds, 6),
            },
            "ticks": [asdict(tick) for tick in self.ticks],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise :meth:`to_json_dict` to a JSON string."""
        return json.dumps(self.to_json_dict(), indent=indent)


class SimulationHarness:
    """Drive one planner through an event schedule on a cluster engine.

    Parameters
    ----------
    planner:
        Any registered planner instance (the catalog it was built on is the
        simulated system).
    engine:
        The cluster engine to run on; one is built on the planner's catalog
        when omitted.  The engine's monitor is the drift/overload oracle.
    replanner:
        Adaptive replanner consuming the ``ReplanTick`` events; built
        automatically for planners with a live allocation when omitted
        (``auto_replanner=False`` disables that).
    drift_threshold:
        Relative drift above which an operator's queries become replan
        victims (forwarded to the auto-built replanner).
    service:
        Optional :class:`~repro.service.admission.AdmissionService` built
        on the same planner.  When given, arrival events *enqueue* into
        the service instead of calling ``planner.submit`` directly — the
        schedule replays through the real admission path (queue, batch
        coalescing, fallback policy).  The service must be synchronous
        (``pipelined=False``: the caller's thread decides, no background
        worker) so replay stays deterministic, and must not own an engine of its own — the
        harness keeps doing the validating and engine syncing.
    validate_invariants:
        Check the planner's allocation after every event and raise
        :class:`SimulationError` on the first violation.
    on_violation:
        ``"raise"`` (default) aborts the run on the first violation, after
        recording it in ``result.violation_events`` with the triggering
        event's schedule index, kind and time; ``"record"`` keeps running
        and accumulates every violation there instead — the mode the
        scenario-matrix runner uses so one bad cell reports *all* its
        violations in the artifact bundle rather than dying on the first.
    validation_mode:
        ``"delta"`` (default) validates only what each event touched via
        :meth:`~repro.dsps.allocation.Allocation.validate_delta`;
        ``"full"`` runs the complete
        :meth:`~repro.dsps.allocation.Allocation.validate` oracle after
        every event (the naive pre-index behaviour, kept as the benchmark
        baseline).  Both modes raise on the same violations for valid
        simulations, and both end with one full-oracle pass.
    record_every:
        Record a :class:`TickMetrics` every N processed events (the final
        event is always recorded).
    """

    def __init__(
        self,
        planner: Planner,
        engine: Optional[ClusterEngine] = None,
        replanner: Optional[AdaptiveReplanner] = None,
        drift_threshold: float = 0.25,
        auto_replanner: bool = True,
        validate_invariants: bool = True,
        validation_mode: str = "delta",
        on_violation: str = "raise",
        record_every: int = 1,
        service: Optional["AdmissionService"] = None,
    ) -> None:
        self.planner = planner
        self.engine = engine or ClusterEngine(planner.catalog, strict=False)
        if self.engine.catalog is not planner.catalog:
            raise SimulationError(
                "engine and planner must share one catalog instance"
            )
        if service is not None:
            if service.planner is not planner:
                raise SimulationError(
                    "the admission service must wrap the harness's planner"
                )
            if service.config.pipelined:
                raise SimulationError(
                    "schedule replay needs a synchronous service "
                    "(ServiceConfig(pipelined=False)) to stay deterministic"
                )
            if service.engine is not None:
                raise SimulationError(
                    "the harness owns engine syncing; build the service "
                    "without an engine"
                )
        self.service = service
        if validation_mode not in ("delta", "full"):
            raise SimulationError(
                f"validation_mode must be 'delta' or 'full', got {validation_mode!r}"
            )
        if on_violation not in ("raise", "record"):
            raise SimulationError(
                f"on_violation must be 'raise' or 'record', got {on_violation!r}"
            )
        if replanner is None and auto_replanner and planner.allocation is not None:
            replanner = AdaptiveReplanner(
                planner, self.engine.monitor, drift_threshold=drift_threshold
            )
        self.replanner = replanner
        self.validate_invariants = validate_invariants
        self.validation_mode = validation_mode
        self.on_violation = on_violation
        self.record_every = max(1, record_every)
        self.validate_calls = 0
        self.validate_seconds = 0.0

    # ------------------------------------------------------------------ running
    def run(self, schedule: EventSchedule) -> SimulationResult:
        """Process every event of ``schedule`` in order and return the result."""
        planner = self.planner
        catalog = planner.catalog
        rng = ensure_rng(schedule.seed + 0x5EED)
        result = SimulationResult(
            planner_name=planner.name,
            seed=schedule.seed,
            validation_mode=self.validation_mode,
        )
        counters = result.counters
        for name in COUNTER_NAMES:
            counters[name] = 0
        self.validate_calls = 0
        self.validate_seconds = 0.0
        # Delta-validation baseline: discard touched state accumulated before
        # the run (e.g. by a warmed-up planner) and remember the allocation
        # object identity so replaced allocations are diffed, not drained.
        prev_allocation = planner.allocation
        if prev_allocation is not None:
            prev_allocation.drain_touched()

        #: arrival_index -> query_id for still-active queries, and the
        #: reverse map so a re-admitted victim re-occupies its slot.
        active: Dict[int, int] = {}
        index_by_query: Dict[int, int] = {}

        def reconcile() -> List[int]:
            """Drop map entries whose query the planner no longer admits;
            returns the forcibly dropped query ids."""
            current = planner.active_queries
            stale = [
                (index, qid) for index, qid in active.items() if qid not in current
            ]
            for index, _qid in stale:
                del active[index]
            return [qid for _index, qid in stale]

        def sync_engine() -> None:
            if planner.allocation is not None:
                # With invariant checking on, the state handed back is
                # exactly what the harness last validated, so the engine may
                # keep using delta-based checks on it.  With checking off
                # that guarantee is gone and the engine's own host-change
                # reports fall back to the full oracle.
                self.engine.adopt(
                    planner.allocation, trusted=self.validate_invariants
                )

        def record_violations(
            position: int, event: SimEvent, messages: List[str], label: str
        ) -> None:
            """Attach ``messages`` to the result as one violation record —
            keyed by the triggering event's schedule index, kind and time —
            then raise unless the harness is in ``on_violation="record"``
            mode.  Recording *before* raising means even an aborted run's
            result object (when the caller kept a reference) and the
            exception text both say which scheduled event broke."""
            if not messages:
                return
            result.violation_events.append(
                {
                    "event_index": position,
                    "event_kind": event.kind,
                    "time": event.time,
                    "stage": label,
                    "violations": list(messages),
                }
            )
            if self.on_violation == "raise":
                raise SimulationError(
                    f"{label} after event #{position} ({event.kind}) at "
                    f"t={event.time:g}: " + "; ".join(messages[:3])
                )

        def handle_eviction_report(
            position: int, event: SimEvent, report, label: str
        ) -> None:
            """Shared tail of the eviction-producing events (host failures,
            site partitions, WAN drift): adopt the engine's surviving
            allocation, account the evictions and give every victim one
            immediate re-admission attempt.  Only victims this run counted
            as dropped may decrement the counter — a planner warmed up
            before run() has victims the harness never tracked."""
            if planner.allocation is not None:
                planner.allocation = self.engine.allocation
            planner_drops = planner.on_topology_change()
            counters["evicted"] += len(report.victims) + len(planner_drops)
            dropped_now = set(reconcile())
            counters["dropped"] += len(dropped_now)
            for victim in report.victims:
                # A churn victim is a perturbation re-solve of a known
                # query: route it through resubmit so MILP planners take
                # the dual-simplex warm-start path.
                outcome = planner.resubmit(catalog.get_query(victim))
                if outcome.admitted:
                    counters["readmitted"] += 1
                    if victim in dropped_now:
                        counters["dropped"] -= 1
                    index = index_by_query.get(victim)
                    if index is not None:
                        active[index] = victim
            record_violations(
                position, event, report.violations, f"{label} left violations"
            )

        for position, event in enumerate(schedule):
            if isinstance(event, QueryArrival):
                counters["arrivals"] += 1
                if self.service is not None:
                    outcome = self.service.submit(event.item).result()
                else:
                    outcome = planner.submit(event.item)
                index_by_query[outcome.query.query_id] = event.arrival_index
                if outcome.admitted:
                    counters["admitted"] += 1
                    active[event.arrival_index] = outcome.query.query_id
                else:
                    counters["rejected"] += 1

            elif isinstance(event, QueryDeparture):
                query_id = active.pop(event.arrival_index, None)
                if query_id is None:
                    # The arrival was rejected (or already force-dropped);
                    # the client's cancellation is a no-op.
                    counters["departures_of_rejected"] += 1
                else:
                    planner.retire(query_id)
                    counters["departures"] += 1
                    # An optimistic-bound replay may shed other queries.
                    counters["dropped"] += len(reconcile())

            elif isinstance(event, HostFailure):
                counters["host_failures"] += 1
                sync_engine()
                report = self.engine.fail_host(event.host)
                handle_eviction_report(
                    position, event, report, f"host failure {event.host}"
                )

            elif isinstance(event, HostRecovery):
                counters["host_recoveries"] += 1
                self.engine.restore_host(event.host)
                planner.on_topology_change()

            elif isinstance(event, SitePartition):
                counters["site_partitions"] += 1
                sync_engine()
                report = self.engine.partition_site(event.site)
                handle_eviction_report(
                    position, event, report, f"partition of site {event.site}"
                )

            elif isinstance(event, SiteRecovery):
                counters["site_recoveries"] += 1
                self.engine.heal_site(event.site)
                planner.on_topology_change()

            elif isinstance(event, WanDrift):
                counters["wan_drift_events"] += 1
                sync_engine()
                report = self.engine.apply_wan_drift(event.factor)
                handle_eviction_report(
                    position, event, report, f"WAN drift to {event.factor:g}x"
                )

            elif isinstance(event, LoadDrift):
                counters["drift_events"] += 1
                self._apply_drift(event, rng)

            elif isinstance(event, ReplanTick):
                counters["replan_ticks"] += 1
                if self.replanner is not None:
                    report = self.replanner.maybe_replan()
                    if report is not None:
                        counters["replan_rounds"] += 1
                        counters["replan_readmitted"] += len(report.readmitted)
                        counters["replan_dropped"] += len(report.dropped)
                        counters["dropped"] += len(reconcile())
                        # Once re-planned, the drifted estimates have been
                        # acted on; clear them so the same drift does not
                        # re-trigger a round on every subsequent tick.
                        self.engine.monitor.reset_drift()

            else:  # pragma: no cover - future event kinds
                raise SimulationError(f"unknown event kind {event.kind!r}")

            sync_engine()
            if isinstance(event, (HostFailure, HostRecovery)):
                extra_hosts: Set[int] = {event.host}
            elif isinstance(event, (SitePartition, SiteRecovery)):
                extra_hosts = set(catalog.hosts_in_site(event.site))
            elif isinstance(event, WanDrift) and catalog.num_sites > 1:
                # Only gateways still carrying traffic can be overloaded by
                # a capacity scale; re-check the hosts of exactly those site
                # pairs (evicted structures are in the drained touched set).
                extra_hosts = set()
                if planner.allocation is not None:
                    for src_site, dst_site in planner.allocation.wan_usage():
                        extra_hosts.update(catalog.hosts_in_site(src_site))
                        extra_hosts.update(catalog.hosts_in_site(dst_site))
            else:
                extra_hosts = set()
            prev_allocation, violations = self._check_invariants(
                event, prev_allocation, extra_hosts
            )
            record_violations(position, event, violations, "invariant violated")
            if (
                position % self.record_every == 0
                or position == len(schedule) - 1
            ):
                result.ticks.append(self._tick(event, counters, len(active)))

        if planner.allocation is not None:
            result.final_violations = planner.allocation.validate()
        result.validate_calls = self.validate_calls
        result.validate_seconds = self.validate_seconds
        return result

    # ------------------------------------------------------------------ helpers
    def _apply_drift(self, event: LoadDrift, rng) -> None:
        """Apply ``event`` to deterministically chosen drift targets.

        Targets are the currently-placed operators (allocation planners) or
        every registered operator (planners without an allocation), sorted
        by id; the schedule-derived RNG picks ``num_operators`` of them.
        Selection is deterministic because the RNG is consumed in event
        order.
        """
        allocation = self.planner.allocation
        if allocation is not None:
            # host→operators / operator→hosts are maintained incrementally;
            # no need to re-scan every placement pair per drift event.
            candidates = allocation.placed_operators()
        else:
            candidates = sorted(
                operator.operator_id for operator in self.planner.catalog.operators
            )
        if not candidates:
            return
        count = min(max(1, event.num_operators), len(candidates))
        chosen = rng.choice(len(candidates), size=count, replace=False)
        for offset in sorted(int(i) for i in chosen):
            self.engine.monitor.set_operator_drift(candidates[offset], event.factor)

    def _check_invariants(
        self,
        event: SimEvent,
        prev_allocation: Optional[Allocation],
        extra_hosts: Set[int],
    ) -> Tuple[Optional[Allocation], List[str]]:
        """Validate what ``event`` touched; return the new baseline
        allocation plus any violations found (the caller records them
        against the event and decides whether to raise or keep running).

        With ``validation_mode="delta"`` the touched sets come from the
        allocation's own mutation tracking (in-place events) or from a
        ground-truth diff against the previous allocation object (events
        that replace the allocation, e.g. garbage collection on departure).
        ``extra_hosts`` carries entities an event touches without mutating
        the allocation — the host of a failure/recovery.
        """
        allocation = self.planner.allocation
        if allocation is None:
            return None, []
        if not self.validate_invariants:
            # Keep the touched accumulator drained so it cannot grow without
            # bound across a long unvalidated run.
            allocation.drain_touched()
            return allocation, []
        start = time.perf_counter()
        if self.validation_mode == "full":
            allocation.drain_touched()
            violations = allocation.validate()
        else:
            # The accumulator is complete even across object replacements:
            # copies inherit pending touches and rebuilds re-seed them via
            # Allocation.inherit_touched.  Only a replacement that arrives
            # with *no* pending touches (a path that bypassed those hooks,
            # e.g. a planner reset to a fresh allocation) falls back to a
            # defensive ground-truth diff against the previous object.
            hosts, streams, operators = allocation.drain_touched()
            if (
                allocation is not prev_allocation
                and prev_allocation is not None
                and not (hosts or streams or operators)
            ):
                hosts, streams, operators = touched_between(
                    prev_allocation, allocation
                )
            hosts |= extra_hosts
            if hosts or streams or operators:
                violations = allocation.validate_delta(hosts, streams, operators)
            else:
                violations = []
        self.validate_seconds += time.perf_counter() - start
        self.validate_calls += 1
        return allocation, violations

    def _tick(
        self, event: SimEvent, counters: Dict[str, int], num_active: int
    ) -> TickMetrics:
        allocation = self.planner.allocation
        hosts = self.planner.catalog.host_ids
        if allocation is not None and hosts:
            utilisations = [allocation.cpu_utilisation(h) for h in hosts]
            mean_cpu = sum(utilisations) / len(utilisations)
            max_cpu = max(utilisations)
        elif hosts:
            # Aggregate-host planners: one global utilisation number.
            used = getattr(self.planner, "cpu_used", 0.0)
            capacity = getattr(self.planner, "cpu_capacity", 0.0) or 1.0
            mean_cpu = max_cpu = used / capacity
        else:
            mean_cpu = max_cpu = 0.0
        return TickMetrics(
            time=event.time,
            event=event.kind,
            submitted=counters["arrivals"],
            active=num_active,
            rejected=counters["rejected"],
            departed=counters["departures"],
            dropped=counters["dropped"],
            replans=counters["replan_rounds"],
            active_hosts=len(hosts),
            mean_cpu_utilisation=mean_cpu,
            max_cpu_utilisation=max_cpu,
        )
