"""The SQPR planner: Algorithm 1 (initial query planning) plus batching.

The planner keeps the live :class:`~repro.dsps.allocation.Allocation` of the
DSPS.  For every submitted query it

1. checks whether the query's result stream is already provided (duplicate
   queries are satisfied for free — Algorithm 1, line 3) and screens out
   queries whose result stream no placement could produce (a base stream
   whose every injection host is down),
2. computes the reduced re-planning scope (§IV-A),
3. builds the reduced MILP and solves it with the configured per-query
   timeout — for a single query's frozen stage A the solver is handed the
   best §V-A greedy-reuse placement as a complete warm start, which ends the
   solve at the root LP when the model admits it and the bound certifies it,
4. decodes the solution and — if the query was admitted — applies the
   placement delta, and
5. records a :class:`PlanningOutcome` with timing and solver statistics.

Batched submission (Fig. 4b) plans several new queries in one model with a
proportionally larger timeout.

``PlannerConfig`` and ``PlanningOutcome`` are re-exported from
:mod:`repro.api` for backwards compatibility; the planner registers itself
as ``"sqpr"`` in the planner registry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.api.base import Planner, PlannerConfig, PlanningOutcome
from repro.api.registry import register_planner
from repro.core.candidates import best_candidate
from repro.core.model_builder import ModelReuseCache, SqprModel, build_model
from repro.core.reduction import compute_scope, result_obtainable
from repro.core.solution import decode_solution
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.dsps.plan import rebuild_minimal_allocation
from repro.dsps.query import Query, QueryWorkloadItem
from repro.dsps.subplan import ReuseMatch, SubPlanIndex, resolve_reuse_matches
from repro.exceptions import PlanningError
from repro.milp import MilpSolver, Variable
from repro.utils.timer import Stopwatch

__all__ = ["PlannerConfig", "PlanningOutcome", "SQPRPlanner"]


@register_planner("sqpr")
class SQPRPlanner(Planner):
    """Stream Query Planning with Reuse."""

    def __init__(
        self,
        catalog: SystemCatalog,
        config: Optional[PlannerConfig] = None,
        weights: Optional[ObjectiveWeights] = None,
        solver: Optional[MilpSolver] = None,
        allocation: Optional[Allocation] = None,
    ) -> None:
        super().__init__(catalog, config)
        self.weights = weights or ObjectiveWeights.paper_default(
            catalog, load_balancing=self.config.load_balancing
        )
        self.solver = solver or MilpSolver(
            time_limit=self.config.time_limit,
            mip_gap=self.config.mip_gap,
            warm_start=self.config.warm_start,
        )
        self.allocation = allocation if allocation is not None else Allocation(catalog)
        self._reuse_cache = ModelReuseCache()
        # True while a churn/repair path re-submits an already-known query
        # (see resubmit); tagged onto outcome extras so re-plan cost can be
        # separated from first-admission cost in metrics.
        self._resubmitting = False
        self._subplan_index: Optional[SubPlanIndex] = (
            SubPlanIndex(catalog) if self.config.reuse_index else None
        )
        if self._subplan_index is not None and allocation is None:
            # A fresh empty allocation is trivially minimal, so the index can
            # start in sync.  A caller-supplied allocation may carry garbage;
            # leave the index unsynchronised and let the first admission fall
            # back to the index-free rebuild (which re-synchronises it).
            self._subplan_index.rebuild(self.allocation)

    def reset(self) -> None:
        """Forget outcomes, allocation and cached models."""
        super().reset()
        self._reuse_cache.clear()
        if self._subplan_index is not None:
            self._subplan_index.invalidate()
            self._subplan_index.rebuild(self.allocation)

    def on_topology_change(self) -> List[int]:
        """Invalidate solver-layer caches after hosts failed or joined.

        The reuse-cache key covers the active host set, so stale hits are
        impossible either way; dropping the entries just frees models built
        for a topology that no longer exists.  SQPR never drops queries
        here — placement-level eviction happens in the engine.
        """
        self._reuse_cache.clear()
        if self._subplan_index is not None:
            # Plan extraction reads catalog state (base-injection liveness)
            # that the index's read keys do not cover, so cached sub-plan
            # records cannot survive a topology change.
            self._subplan_index.invalidate()
        return []

    @property
    def reuse_stats(self) -> Dict[str, int]:
        """Model-reuse cache counters: ``hits``/``misses`` of whole models."""
        return {"hits": self._reuse_cache.hits, "misses": self._reuse_cache.misses}

    @property
    def subplan_stats(self) -> Dict[str, int]:
        """Sub-plan index maintenance counters (empty when the index is off)."""
        if self._subplan_index is None:
            return {}
        stats = dict(self._subplan_index.stats)
        stats["records"] = len(self._subplan_index)
        return stats

    def resolve_reuse(self, queries: Sequence[Query]) -> List[ReuseMatch]:
        """Resolve exact/partial reuse for already-registered queries.

        Purely informational — admission decisions are made by the MILP as
        usual.  Expects :class:`Query` objects; workload items must go
        through ``submit_batch`` (which performs this pass itself and
        attaches the matches to the outcomes' extras) so they are not
        registered twice.
        """
        return resolve_reuse_matches(self.allocation, list(queries))

    def retire(self, query_id: int) -> bool:
        """Retire a query at the cost of what it exclusively held.

        Falls back to the index-free path (``without_queries`` plus minimal
        rebuild) whenever the index cannot guarantee an identical result:
        index disabled, garbage collection off, an id the catalog does not
        know, or an allocation the index is out of sync with.
        """
        index = self._subplan_index
        if (
            index is None
            or not self.config.garbage_collect
            or not self.catalog.has_query(query_id)
            or not index.is_fresh(self.allocation)
        ):
            return super().retire(query_id)
        # Prunes the live allocation in place; None means "not admitted".
        return index.retire(self.allocation, query_id) is not None

    # -------------------------------------------------------------- submission
    def submit(
        self,
        query: Union[Query, QueryWorkloadItem],
        time_limit: Optional[float] = None,
    ) -> PlanningOutcome:
        """Plan a single new query (Algorithm 1) and return the outcome."""
        outcomes = self.submit_batch([query], time_limit=time_limit)
        return outcomes[0]

    def resubmit(
        self,
        query: Union[Query, QueryWorkloadItem],
        time_limit: Optional[float] = None,
    ) -> PlanningOutcome:
        """Re-plan a query after a perturbation (churn, eviction, drift).

        Identical decisions and solver path to :meth:`submit`; the outcome
        is tagged with ``perturbation_resolve=True`` so metrics can separate
        re-plan cost from first-admission cost.
        """
        self._resubmitting = True
        try:
            return self.submit(query, time_limit=time_limit)
        finally:
            self._resubmitting = False

    def submit_batch(
        self,
        queries: Sequence[Union[Query, QueryWorkloadItem]],
        time_limit: Optional[float] = None,
    ) -> List[PlanningOutcome]:
        """Plan a batch of new queries in a single optimisation model.

        The timeout defaults to ``config.time_limit * len(batch)``, matching
        the paper's batching experiment (Fig. 4b).
        """
        if not queries:
            return []
        resolved = [self._resolve_query(q) for q in queries]

        # One shared index pass resolves exact/partial reuse for the whole
        # batch up front (before any admission mutates the allocation);
        # the matches are attached to the outcomes below so callers (the
        # admission service's metrics) never need their own resident scan.
        reuse_matches = {
            match.query_id: match
            for match in resolve_reuse_matches(self.allocation, resolved)
        }

        # Algorithm 1, line 3: queries whose result stream is already
        # provided are satisfied without any planning.  Queries whose result
        # stream cannot be produced at all are rejected without a model:
        # the screen reads structure only (no capacities), so it never
        # rejects a query some model variant could admit.
        to_plan: List[Query] = []
        unplanned_outcomes: List[PlanningOutcome] = []
        for query in resolved:
            if self.allocation.is_provided(query.result_stream):
                self.allocation.admit_query(query.query_id)
                unplanned_outcomes.append(
                    PlanningOutcome(
                        query=query,
                        admitted=True,
                        duplicate=True,
                        planning_time=0.0,
                    )
                )
            elif not result_obtainable(self.catalog, self.allocation, query):
                unplanned_outcomes.append(
                    PlanningOutcome(
                        query=query,
                        admitted=False,
                        planning_time=0.0,
                        rejection_reason="screened:unobtainable-stream",
                    )
                )
            else:
                to_plan.append(query)

        planned_outcomes: List[PlanningOutcome] = []
        if to_plan:
            if time_limit is None and self.config.time_limit is not None:
                time_limit = self.config.time_limit * len(to_plan)
            planned_outcomes = self._plan(to_plan, time_limit)

        ordered = self._reorder(resolved, unplanned_outcomes + planned_outcomes)
        for outcome in ordered:
            match = reuse_matches.get(outcome.query.query_id)
            if match is not None:
                outcome.extras["reuse_exact"] = match.exact
                outcome.extras["reuse_partial"] = match.partial
                outcome.extras["reuse_overlapping_queries"] = (
                    match.overlapping_queries
                )
        return self._record_many(ordered)

    # ---------------------------------------------------------------- planning
    def _stage_start(
        self, queries: List[Query], built: SqprModel
    ) -> Dict[Variable, float]:
        """The warm start handed to the solver along with ``built``'s model.

        A single query's frozen model (stage A) gets a *constructive* start:
        the best §V-A greedy-reuse candidate — one abstract plan at one
        host, scored with this planner's own objective weights — completed
        into a value for every variable.  Both backends test it against the
        model's rows before using it, so it can only save search, never
        decide an admission the MILP would not.  Batches and re-planning
        models start cold.
        """
        if not (self.config.warm_start and built.frozen_mode and len(queries) == 1):
            return {}
        candidate, _ = best_candidate(
            self.catalog,
            self.allocation,
            self.weights,
            queries[0],
            self.config.max_abstract_plans,
        )
        if candidate is None:
            return {}
        start = built.start_from_delta(self.catalog, candidate.delta, candidate.max_load)
        return start or {}

    def _solve_stage(
        self,
        queries: List[Query],
        frozen_mode: bool,
        replan_overlapping: bool,
        time_limit: Optional[float],
        force_admission: bool = False,
    ):
        """Build (or reuse) and solve one model variant.

        Returns ``(scope, built, result, reused)`` where ``reused`` is true
        when the model came out of the reuse cache instead of being rebuilt.
        """
        scope = compute_scope(
            self.catalog,
            self.allocation,
            queries,
            replan_overlapping=replan_overlapping,
            max_replanned_queries=self.config.max_replanned_queries,
        )
        build_kwargs = dict(
            frozen_mode=frozen_mode,
            allow_relay=self.config.allow_relay,
            max_relay_hops=self.config.max_relay_hops,
            force_admission=force_admission and len(queries) == 1,
        )
        if self.config.reuse_model:
            built, reused = self._reuse_cache.get_or_build(
                self.catalog, self.allocation, scope, self.weights, **build_kwargs
            )
        else:
            built = build_model(
                self.catalog, self.allocation, scope, self.weights, **build_kwargs
            )
            reused = False
        built.model.set_warm_start(self._stage_start(queries, built))
        result = self.solver.solve(built.model, time_limit=time_limit)
        return scope, built, result, reused

    def _apply_if_admitting(self, built, result) -> frozenset:
        """Decode ``result`` and apply it if it admits any new query."""
        if not self.solver.is_usable_status(result):
            return frozenset()
        decoded = decode_solution(self.catalog, self.allocation, built, result)
        if not decoded.admitted_any:
            return frozenset()
        index = self._subplan_index
        # Freshness must be judged against the pre-delta allocation: that is
        # the state the index's records describe.
        index_ok = (
            index is not None
            and self.config.garbage_collect
            and index.is_fresh(self.allocation)
        )
        self.allocation.apply(decoded.delta)
        if self.config.garbage_collect:
            # Timed-out incumbents may contain redundant placements and
            # flows; keep only what admitted queries actually need so wasted
            # resources do not pile up over time.  With a fresh sub-plan
            # index the collection prunes the live allocation in place
            # (proportional to the delta and the affected sub-plans);
            # otherwise fall back to the full rebuild, which replaces the
            # object, and re-synchronise the index from its result.
            if index_ok:
                forced = {
                    self.catalog.get_query(query_id).result_stream
                    for query_id in (
                        decoded.admitted_new_queries | built.scope.replanned_queries
                    )
                }
                index.collect(self.allocation, decoded.delta, forced)
            else:
                self.allocation = rebuild_minimal_allocation(
                    self.catalog, self.allocation
                )
                if index is not None:
                    index.note_stale_fallback()
                    index.rebuild(self.allocation)
        if self.config.validate_after_apply:
            violations = self.allocation.validate()
            if violations:
                raise PlanningError(
                    "decoded solution produced an infeasible allocation: "
                    + "; ".join(violations[:5])
                )
        return decoded.admitted_new_queries

    def _relocation_candidates(self, queries: List[Query]) -> List[Query]:
        """Drop queries that no stage-B relocation could possibly admit.

        Re-planning may move operators but can neither evict admitted
        queries (constraint IV.9) nor shrink their demand — operator CPU
        costs are placement-independent — so admitting a new query needs
        at least its cheapest not-yet-placed candidate operator to fit
        inside the cluster's *aggregate* free CPU, no matter how the
        existing placement is repacked.  When that necessary condition
        fails, the forced-admission model is infeasible by construction;
        skipping it avoids paying the solver's infeasibility proof, which
        otherwise dominates planning time on a saturated system.  The
        bound is conservative (bandwidth and per-host packing ignored),
        so a pruned query is one stage B could never have admitted and
        observable decisions are unchanged; its outcome reads
        ``rejection_reason="screened:aggregate-cpu"``.
        """
        if not queries:
            return queries
        free = sum(
            self.catalog.hosts.get(h).cpu_capacity
            - self.allocation.cpu_used(h)
            for h in self.catalog.host_ids
        )
        viable: List[Query] = []
        for query in queries:
            min_new_cost = min(
                (
                    self.catalog.get_operator(o).cpu_cost
                    for o in query.candidate_operators
                    if not self.allocation.hosts_of_operator(o)
                ),
                default=0.0,
            )
            if min_new_cost <= free + 1e-9:
                viable.append(query)
        return viable

    def _plan(
        self, queries: List[Query], time_limit: Optional[float]
    ) -> List[PlanningOutcome]:
        watch = Stopwatch()
        replan = self.config.replan_overlapping
        use_two_stage = self.config.two_stage and replan

        # One counters dict is shared by every outcome of this planning
        # round (stage A + stage B summed); consumers that aggregate over
        # outcomes dedupe by object identity so a batch is not multiple-
        # counted.
        solver_counters: Dict[str, int] = {}

        def merge_counters(result) -> None:
            for key, value in (getattr(result, "lp_counters", None) or {}).items():
                solver_counters[key] = solver_counters.get(key, 0) + value

        admitted_ids: frozenset = frozenset()
        # Stage-A rejects that stage B cannot admit on aggregate CPU alone.
        screened_ids: frozenset = frozenset()
        if use_two_stage:
            # Stage A: a small greedy-reuse model (existing structures frozen).
            stage_a_limit = None if time_limit is None else 0.5 * time_limit
            scope, built, result, reused = self._solve_stage(
                queries,
                frozen_mode=True,
                replan_overlapping=False,
                time_limit=stage_a_limit,
            )
            merge_counters(result)
            admitted_ids = self._apply_if_admitting(built, result)
            unplaced = [q for q in queries if q.query_id not in admitted_ids]
            rejected = self._relocation_candidates(unplaced)
            screened_ids = frozenset(q.query_id for q in unplaced) - frozenset(
                q.query_id for q in rejected
            )
            if rejected:
                # Stage B: the full re-planning model with the remaining
                # budget, over whatever stage A could not place.  For a
                # single query this is a forced-admission feasibility
                # search (the lexicographically dominant λ1 turned into a
                # constraint); for a batch remainder the joint model keeps
                # λ1 in the objective and relocates existing placements to
                # admit as many of the leftovers as it can — so a batch
                # member rejected by the frozen greedy stage still gets the
                # same relocation chance a one-at-a-time submission would.
                remaining = None if time_limit is None else max(
                    0.05, time_limit - watch.elapsed()
                )
                scope, built, result, reused = self._solve_stage(
                    rejected,
                    frozen_mode=False,
                    replan_overlapping=True,
                    time_limit=remaining,
                    force_admission=True,
                )
                merge_counters(result)
                admitted_ids = admitted_ids | self._apply_if_admitting(
                    built, result
                )
        else:
            scope, built, result, reused = self._solve_stage(
                queries,
                frozen_mode=not replan,
                replan_overlapping=replan,
                time_limit=time_limit,
            )
            merge_counters(result)
            admitted_ids = self._apply_if_admitting(built, result)

        elapsed = watch.elapsed()
        per_query_time = elapsed / max(1, len(queries))
        outcomes: List[PlanningOutcome] = []
        for query in queries:
            admitted = query.query_id in admitted_ids
            if admitted:
                reason = ""
            elif query.query_id in screened_ids:
                reason = "screened:aggregate-cpu"
            else:
                reason = "no-admitting-incumbent"
            outcomes.append(
                PlanningOutcome(
                    query=query,
                    admitted=admitted,
                    planning_time=per_query_time,
                    plan=self._maybe_extract_plan(query) if admitted else None,
                    objective_value=result.objective,
                    rejection_reason=reason,
                    extras={
                        "solve_result": result,
                        "model_size": built.model.num_variables,
                        "scope_streams": scope.num_streams,
                        "scope_operators": scope.num_operators,
                        "reused_model": reused,
                        "warm_seeded": bool(built.model.warm_start),
                        "incumbent_source": result.incumbent_source,
                        "solver_counters": solver_counters,
                        "perturbation_resolve": self._resubmitting,
                    },
                )
            )
        return outcomes
