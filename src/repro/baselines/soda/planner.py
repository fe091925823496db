"""The :class:`SodaPlanner` facade: macroQ → macroW → miniW per epoch.

SODA plans in epochs: a set of newly submitted queries is considered
together, admission is decided first (macroQ), operators of the admitted
templates are placed next (macroW), and the placement is polished with local
swaps (miniW).  Queries not placeable within the epoch are rejected; SODA
never revisits them and never restructures already-running templates.

The planner registers itself as ``"soda"``; ``submit_batch`` is an epoch.
The stage that rejected a query is recorded in the outcome's
``rejection_reason`` (and as the ``rejected_by`` extra).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.api.base import Planner, PlannerConfig, PlanningOutcome
from repro.api.registry import register_planner
from repro.baselines.soda.macroq import admit_queries
from repro.baselines.soda.macrow import place_template
from repro.baselines.soda.miniw import improve_placement
from repro.baselines.soda.templates import build_template
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.dsps.query import Query, QueryWorkloadItem
from repro.utils.timer import Stopwatch

__all__ = ["SodaPlanner"]


@register_planner("soda")
class SodaPlanner(Planner):
    """Template-based epoch planner in the spirit of SODA [9]."""

    plans_in_epochs = True

    def __init__(
        self,
        catalog: SystemCatalog,
        *,
        config: Optional[PlannerConfig] = None,
        allocation: Optional[Allocation] = None,
        use_miniw: Optional[bool] = None,
    ) -> None:
        super().__init__(catalog, config)
        self.allocation = allocation if allocation is not None else Allocation(catalog)
        self.use_miniw = use_miniw if use_miniw is not None else self.config.use_miniw

    # ---------------------------------------------------------------- submission
    def submit(self, query: Union[Query, QueryWorkloadItem]) -> PlanningOutcome:
        """Plan a single query (an epoch of size one)."""
        return self.submit_epoch([query])[0]

    def submit_batch(
        self, queries: Sequence[Union[Query, QueryWorkloadItem]]
    ) -> List[PlanningOutcome]:
        """Plan a group of queries; for SODA a batch *is* an epoch."""
        return self.submit_epoch(queries)

    def submit_epoch(
        self, queries: Sequence[Union[Query, QueryWorkloadItem]]
    ) -> List[PlanningOutcome]:
        """Plan one epoch of queries: macroQ, then macroW + miniW per query."""
        watch = Stopwatch()
        resolved = [self._resolve_query(q) for q in queries]
        outcomes: List[PlanningOutcome] = []

        # Duplicate queries (result stream already delivered) are free.
        to_plan: List[Query] = []
        for query in resolved:
            if self.allocation.is_provided(query.result_stream):
                self.allocation.admit_query(query.query_id)
                outcomes.append(
                    PlanningOutcome(query=query, admitted=True, duplicate=True)
                )
            else:
                to_plan.append(query)

        templates = [build_template(self.catalog, q) for q in to_plan]
        decisions = admit_queries(self.catalog, self.allocation, templates)

        for decision in decisions:
            template = decision.template
            query = template.query
            if not decision.admitted:
                outcomes.append(self._rejected(query, "macroq"))
                continue
            placement = place_template(self.catalog, self.allocation, template)
            if not placement.success:
                outcomes.append(self._rejected(query, "macrow"))
                continue
            candidate = placement.allocation
            if self.use_miniw and placement.placed_operators:
                candidate = improve_placement(
                    self.catalog, candidate, placement.placed_operators
                )
            self.allocation = candidate
            outcomes.append(
                PlanningOutcome(
                    query=query,
                    admitted=True,
                    plan=self._maybe_extract_plan(query),
                )
            )

        elapsed = watch.elapsed()
        per_query = elapsed / max(1, len(resolved))
        for outcome in outcomes:
            outcome.planning_time = per_query
        ordered = self._reorder(resolved, outcomes)
        return self._record_many(ordered)

    @staticmethod
    def _rejected(query: Query, stage: str) -> PlanningOutcome:
        return PlanningOutcome(
            query=query,
            admitted=False,
            rejection_reason=stage,
            extras={"rejected_by": stage},
        )
