"""The unified planner API: one protocol, one outcome type, one config.

Every planner in the repository — the SQPR MILP planner, the greedy-reuse
heuristic, the SODA-like epoch planner and the optimistic aggregate-host
bound — implements the :class:`Planner` abstract base class:

* ``submit(query)`` plans one query and returns a :class:`PlanningOutcome`,
* ``submit_batch(items)`` plans a group (a batch for SQPR, an epoch for
  SODA, a loop of single submissions otherwise),
* ``retire(query_id)`` removes an admitted query again (a client leaving),
  garbage-collecting the structures only it needed,
* ``on_topology_change()`` lets a planner react to hosts failing, joining
  or recovering (cache invalidation, capacity re-accounting),
* ``reset()`` returns the planner to its freshly-constructed state,
* the :class:`PlannerStats` mixin provides ``num_admitted`` /
  ``num_submitted`` / ``admission_rate()`` / ``average_planning_time()``,
* :class:`PlannerHooks` lets monitors observe admissions, rejections and
  adaptive re-planning rounds without subclassing.

Planner-specific result fields (SODA's rejecting stage, the heuristic's
chosen host, the optimistic bound's marginal CPU, SQPR's solver statistics)
live in :attr:`PlanningOutcome.extras`; attribute access falls through to
that dict so ``outcome.marginal_cpu`` keeps working.
"""

from __future__ import annotations

import threading
import warnings
from abc import ABC, abstractmethod
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.dsps.plan import QueryPlan, extract_plan
from repro.dsps.query import Query, QueryWorkloadItem
from repro.exceptions import PlanError, PlanningError


@dataclass
class PlannerConfig:
    """Unified configuration accepted by every registered planner.

    Planners read the fields that apply to them and ignore the rest, so one
    config object can drive a whole planner comparison.

    Attributes
    ----------
    time_limit:
        Per-query solver timeout in seconds (the paper uses 5–60 s; the
        scaled-down experiments use fractions of a second).  Only the MILP
        planner enforces it.
    replan_overlapping:
        Whether admitted queries sharing streams with the new query are
        pulled into the scope and may be re-planned (paper behaviour).
    max_replanned_queries:
        Cap on how many overlapping admitted queries join the re-planning
        scope (see :func:`repro.core.reduction.compute_scope`).
    two_stage:
        Solve a small greedy-reuse (frozen) model first and fall back to the
        full re-planning model only when that fails to admit the query.  The
        paper solves the re-planning model directly with a 5–60 s CPLEX
        timeout; with the sub-second timeouts used here the restriction-first
        order finds admitting incumbents far more reliably while preserving
        the same search space overall.
    allow_relay:
        Whether hosts may relay streams they do not generate (§II-C).
    max_relay_hops:
        Bound on relay chain length in the acyclicity constraints.
    load_balancing:
        The λ3/λ4 trade-off passed to :class:`ObjectiveWeights`.
    validate_after_apply:
        Run the full allocation validator after every admission (slower, but
        catches decoding bugs; enabled by default in tests).
    max_abstract_plans:
        Cap on abstract plan enumeration in the §V-A greedy-reuse candidate
        search (the heuristic planner, and the constructive stage-A start
        of the SQPR planner — see ``warm_start``).
    use_miniw:
        Whether the SODA-like planner polishes placements with miniW swaps.
    record_plans:
        Extract the admitted query's deployed :class:`QueryPlan` into
        :attr:`PlanningOutcome.plan` (planners that keep a live allocation
        only; costs one plan extraction per admission).
    warm_start:
        Hand a single query's frozen stage A a *constructive* start: the
        best §V-A greedy-reuse placement (:mod:`repro.core.candidates`)
        completed into a value for every variable.  The solver accepts it
        only if the model's own rows admit it; HiGHS then solves the root LP
        once and, when the start is within ``mip_gap`` of that bound,
        returns it as optimal without entering branch-and-cut — otherwise it
        searches on the remaining budget and returns the better of its
        incumbent and the start.  Batches and re-planning stages start cold.
        The scipy-free branch-and-bound fallback also re-starts child-node
        LPs from the parent basis.  ``False`` forces every solve fully
        cold — the reference the equivalence tests compare against.  Warm
        and cold planning admit the same queries when run to optimality;
        their objectives agree within ``mip_gap`` (two gap-optimal plans
        need not be equal).
    """

    time_limit: Optional[float] = 1.0
    replan_overlapping: bool = True
    max_replanned_queries: int = 4
    two_stage: bool = True
    allow_relay: bool = True
    max_relay_hops: int = 3
    load_balancing: float = 0.5
    mip_gap: float = 1e-3
    validate_after_apply: bool = False
    max_abstract_plans: int = 64
    use_miniw: bool = True
    record_plans: bool = False
    warm_start: bool = True


#: Defaults for well-known planner-specific extras, so the legacy attribute
#: names stay readable on outcomes produced by *other* planners (a duplicate
#: SQPR admission has no solver result; a heuristic rejection has no host).
_EXTRA_DEFAULTS: Dict[str, Any] = {
    "solve_result": None,
    "model_size": 0,
    "scope_streams": 0,
    "scope_operators": 0,
    "host": None,
    "plans_considered": 0,
    "rejected_by": "",
    "marginal_cpu": 0.0,
    "reused_model": False,
    "warm_seeded": False,
    "incumbent_source": "",
    "reuse_exact": False,
    "reuse_partial": False,
    "reuse_overlapping_queries": 0,
    "solver_counters": None,
    "perturbation_resolve": False,
}


@dataclass
class PlanningOutcome:
    """The result of planning one query, identical across all planners.

    Attributes
    ----------
    query:
        The resolved :class:`~repro.dsps.query.Query`.
    admitted:
        Whether the query was admitted.
    duplicate:
        Whether the query was satisfied for free because its result stream
        was already delivered (Algorithm 1, line 3).
    planning_time:
        Wall-clock seconds spent planning this query (batch members share
        the batch time equally).
    plan:
        The deployed query plan, when the planner was configured with
        ``record_plans=True``.
    delta:
        The placement delta applied on admission, when the planner computes
        a per-query delta (batch planners apply one delta per batch).
    objective_value:
        The planner's score for the chosen placement (MILP incumbent
        objective, heuristic candidate score), if any.
    rejection_reason:
        Short machine-readable reason when ``admitted`` is ``False``
        (e.g. ``"macroq"``, ``"no-feasible-placement"``).
    extras:
        Planner-specific fields (SQPR solver statistics, heuristic host,
        optimistic marginal CPU, …).  Attribute access on the outcome falls
        through to this dict.
    """

    query: Query
    admitted: bool
    duplicate: bool = False
    planning_time: float = 0.0
    plan: Optional[QueryPlan] = None
    delta: Optional[PlacementDelta] = None
    objective_value: Optional[float] = None
    rejection_reason: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal attribute lookup fails: fall through to
        # the planner-specific extras, then to the known defaults.
        if name.startswith("__"):
            raise AttributeError(name)
        extras = self.__dict__.get("extras")
        if extras and name in extras:
            return extras[name]
        if name in _EXTRA_DEFAULTS:
            return _EXTRA_DEFAULTS[name]
        raise AttributeError(
            f"{type(self).__name__} has no attribute or extra {name!r}"
        )

    def __repr__(self) -> str:
        verdict = "admitted" if self.admitted else "rejected"
        reason = f", reason={self.rejection_reason}" if self.rejection_reason else ""
        return (
            f"PlanningOutcome(query={self.query.query_id}, {verdict}, "
            f"{self.planning_time * 1000:.1f} ms{reason})"
        )


@dataclass
class PlannerHooks:
    """Callback lists fired as a planner makes decisions.

    ``on_admit`` and ``on_reject`` receive the :class:`PlanningOutcome`;
    ``on_replan`` receives the re-planning report of an adaptive round
    (see :class:`repro.core.adaptive.ReplanReport`).
    """

    on_admit: List[Callable[[PlanningOutcome], None]] = field(default_factory=list)
    on_reject: List[Callable[[PlanningOutcome], None]] = field(default_factory=list)
    on_replan: List[Callable[[Any], None]] = field(default_factory=list)


class PlannerStats:
    """Shared admission statistics over a planner's recorded outcomes.

    Planners that maintain a live :class:`~repro.dsps.allocation.Allocation`
    report ``num_admitted`` from the currently-admitted query set (adaptive
    re-planning can shrink it); planners without one (the optimistic bound)
    count admitted outcomes.  For a planner that never re-plans the two
    coincide — ``tests/test_api.py`` asserts this parity.

    Recording and reading are safe under concurrent use (several threads
    driving one planner, the federated planner's concurrent shard mode):
    :meth:`Planner._record` appends under the planner's stats lock and the
    aggregate readers iterate a snapshot taken under the same lock, so a
    rate or mean computed mid-append never mixes a stale length with fresh
    contents.
    """

    outcomes: List[PlanningOutcome]

    def _stats_guard(self):
        """The planner's stats lock, or a no-op guard for bare mixin use."""
        return self.__dict__.get("_stats_lock") or nullcontext()

    def _outcomes_snapshot(self) -> Tuple[PlanningOutcome, ...]:
        """A point-in-time copy of the recorded outcomes."""
        with self._stats_guard():
            return tuple(self.outcomes)

    @property
    def num_submitted(self) -> int:
        """Number of queries submitted so far."""
        return len(self._outcomes_snapshot())

    @property
    def num_admitted(self) -> int:
        """Number of queries admitted so far."""
        allocation = getattr(self, "allocation", None)
        if allocation is not None:
            return len(allocation.admitted_queries)
        return sum(1 for outcome in self._outcomes_snapshot() if outcome.admitted)

    def admission_rate(self) -> float:
        """Fraction of submitted queries that were admitted."""
        outcomes = self._outcomes_snapshot()
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.admitted) / len(outcomes)

    def average_planning_time(self) -> float:
        """Mean planning time per submitted query (seconds)."""
        outcomes = self._outcomes_snapshot()
        if not outcomes:
            return 0.0
        return sum(o.planning_time for o in outcomes) / len(outcomes)

    def solver_counters(self) -> Dict[str, int]:
        """Summed simplex counters over all recorded outcomes.

        Outcomes of one planning round (a batch, or stage A + stage B of a
        two-stage solve) share a single counters dict, so aggregation
        dedupes by object identity — a batch of ten queries counts its
        solve once.  Empty when no outcome carries counters (non-MILP
        planners, scipy backends).
        """
        totals: Dict[str, int] = {}
        seen: set = set()
        for outcome in self._outcomes_snapshot():
            counters = outcome.extras.get("solver_counters")
            if not counters or id(counters) in seen:
                continue
            seen.add(id(counters))
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


class Planner(PlannerStats, ABC):
    """Abstract base class every query planner implements.

    Subclasses must define :attr:`name` (the registry key), implement
    :meth:`submit`, and route every finished outcome through
    :meth:`_record` so statistics and hooks stay consistent.
    """

    #: Canonical registry name of the planner.
    name: ClassVar[str] = ""

    #: Whether the planner is designed to plan whole epochs at once (SODA);
    #: experiment drivers use this to pick a submission group size without
    #: special-casing planner names.
    plans_in_epochs: ClassVar[bool] = False

    #: The live allocation the planner maintains, or ``None`` for planners
    #: that only decide admission (the optimistic bound).  Subclasses with
    #: state assign it in ``__init__``; callers test ``is not None``.
    allocation: Optional[Allocation] = None

    def __init__(
        self, catalog: SystemCatalog, config: Optional[PlannerConfig] = None
    ) -> None:
        self.catalog = catalog
        self.config = config or PlannerConfig()
        self.hooks = PlannerHooks()
        self.outcomes: List[PlanningOutcome] = []
        # Guards outcome recording and the aggregate stats readers; RLock so
        # a hook that reads stats from inside _record does not deadlock.
        self._stats_lock = threading.RLock()

    # ----------------------------------------------------------------- protocol
    @abstractmethod
    def submit(self, query: Union[Query, QueryWorkloadItem]) -> PlanningOutcome:
        """Plan one query and return its outcome."""

    def resubmit(
        self,
        query: Union[Query, QueryWorkloadItem],
        time_limit: Optional[float] = None,
    ) -> PlanningOutcome:
        """Re-plan a query the system already knows (churn victim, retry).

        Admission decisions are identical to :meth:`submit`; the distinction
        lets planners route perturbation re-solves through a warm-start path
        (the SQPR planner resumes the incumbent simplex basis with the dual
        simplex) and lets metrics separate re-plan cost from first-admission
        cost.  The default simply delegates to :meth:`submit`.
        """
        return self.submit(query)

    def submit_batch(
        self,
        queries: Sequence[Union[Query, QueryWorkloadItem]],
        time_limit: Optional[float] = None,
    ) -> List[PlanningOutcome]:
        """Plan a group of queries; by default one at a time, in order.

        ``time_limit`` is an advisory solver budget for the whole batch.
        Planners that build one joint model per batch (SQPR, federated
        shards) honour it; the default per-query loop ignores it — each
        submission keeps its configured per-query budget.
        """
        return [self.submit(query) for query in queries]

    @property
    def active_queries(self) -> FrozenSet[int]:
        """Ids of the queries currently admitted (shrinks on retirement).

        Unlike :attr:`PlannerStats.num_admitted` — which for planners
        without a live allocation counts admitted *outcomes* cumulatively —
        this is always the current set, which is what churn simulations
        chart over time.
        """
        if self.allocation is not None:
            return frozenset(self.allocation.admitted_queries)
        raise PlanningError(
            f"planner {self.name!r} keeps no live allocation; "
            "it must override active_queries"
        )

    def retire(self, query_id: int) -> bool:
        """Remove an admitted query from the system (the query *departs*).

        Returns ``True`` when the query was admitted and has now been
        removed, ``False`` when it was not admitted (never submitted,
        rejected, or already retired) — retiring is idempotent.

        The default implementation serves every planner that maintains a
        live :class:`~repro.dsps.allocation.Allocation`: the query leaves
        the admitted set and the allocation is garbage-collected down to
        what the surviving queries still need
        (:meth:`Allocation.without_queries`, built on
        :func:`repro.dsps.plan.rebuild_minimal_allocation`).  Stateful
        planners without an allocation must override this.
        """
        if self.allocation is None:
            raise PlanningError(
                f"planner {self.name!r} keeps no live allocation; "
                "it must override retire()"
            )
        if query_id not in self.allocation.admitted_queries:
            return False
        self.allocation = self.allocation.without_queries([query_id])
        return True

    def on_topology_change(self) -> List[int]:
        """React to hosts failing, joining or recovering.

        Called by :class:`repro.dsps.engine.ClusterEngine` users (notably
        the simulation harness) after the catalog's active host set changed.
        Returns the ids of admitted queries the *planner itself* had to drop
        because of the change — non-empty only for planners that track
        aggregate capacity instead of placements (the optimistic bound);
        placement-level eviction is the engine's job.  The default is a
        no-op returning an empty list.
        """
        return []

    def reset(self) -> None:
        """Forget all outcomes and return to an empty-system state.

        The planner's allocation is replaced with a fresh, empty one —
        including an allocation that was injected at construction time,
        which is discarded (not cleared in place): callers sharing that
        object must re-inject it after a reset.
        """
        with self._stats_guard():
            self.outcomes.clear()
        if self.allocation is not None:
            self.allocation = Allocation(self.catalog)

    # -------------------------------------------------------------------- hooks
    def on_admit(self, callback: Callable[[PlanningOutcome], None]) -> Callable:
        """Register ``callback`` to run after every admission."""
        self.hooks.on_admit.append(callback)
        return callback

    def on_reject(self, callback: Callable[[PlanningOutcome], None]) -> Callable:
        """Register ``callback`` to run after every rejection."""
        self.hooks.on_reject.append(callback)
        return callback

    def on_replan(self, callback: Callable[[Any], None]) -> Callable:
        """Register ``callback`` to run after every adaptive re-planning round."""
        self.hooks.on_replan.append(callback)
        return callback

    # ------------------------------------------------------------------ helpers
    def _record(self, outcome: PlanningOutcome) -> PlanningOutcome:
        """Append ``outcome`` to the history and fire admit/reject hooks."""
        with self._stats_guard():
            self.outcomes.append(outcome)
        callbacks = self.hooks.on_admit if outcome.admitted else self.hooks.on_reject
        for callback in callbacks:
            callback(outcome)
        return outcome

    def _record_many(
        self, outcomes: Sequence[PlanningOutcome]
    ) -> List[PlanningOutcome]:
        return [self._record(outcome) for outcome in outcomes]

    @staticmethod
    def _reorder(
        resolved: Sequence[Query], outcomes: Sequence[PlanningOutcome]
    ) -> List[PlanningOutcome]:
        """Put batch outcomes back into the submission order of ``resolved``."""
        by_query = {outcome.query.query_id: outcome for outcome in outcomes}
        return [by_query[query.query_id] for query in resolved]

    def _notify_replan(self, report: Any) -> None:
        """Fire the ``on_replan`` hooks with an adaptive re-planning report."""
        for callback in self.hooks.on_replan:
            callback(report)

    def _resolve_query(self, query: Union[Query, QueryWorkloadItem]) -> Query:
        """Register a workload item with the catalog, or pass a query through."""
        if isinstance(query, QueryWorkloadItem):
            return self.catalog.register_query(query)
        if isinstance(query, Query):
            return query
        raise PlanningError(
            f"submit expects a Query or QueryWorkloadItem, got {type(query).__name__}"
        )

    def _maybe_extract_plan(self, query: Query) -> Optional[QueryPlan]:
        """Extract the deployed plan when ``record_plans`` is enabled.

        Returns ``None`` for planners without a live allocation.  An
        inconsistent allocation (``PlanError``) also yields ``None`` but is
        reported with a warning — callers opted into plan recording, so a
        missing plan on an admitted query should not pass silently.
        """
        if not self.config.record_plans:
            return None
        if self.allocation is None:
            return None
        try:
            return extract_plan(self.catalog, self.allocation, query.result_stream)
        except PlanError as exc:
            warnings.warn(
                f"record_plans: could not extract the plan of query "
                f"{query.query_id}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"admitted={self.num_admitted}/{self.num_submitted})"
        )
