"""The hand-crafted heuristic planner of §V-A.

For every submitted query the heuristic

1. enumerates the abstract query plans (operator trees that produce the
   query's result stream from base streams),
2. for every abstract plan and every host ``h`` tries to implement the plan
   *at host h*: streams that already exist anywhere in the system are pulled
   to ``h`` over the network (aggressively favouring complete sub-queries
   over base streams), everything else is computed locally at ``h``,
3. scores every feasible candidate with the same weighted objective SQPR
   uses, and deploys the best one.

Crucially — and this is why SQPR beats it — the heuristic never reconsiders
previous allocation decisions and never spreads a single query plan over
multiple hosts.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.base import Planner, PlannerConfig, PlanningOutcome
from repro.api.registry import register_planner
from repro.core.candidates import best_candidate
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.dsps.query import Query, QueryWorkloadItem
from repro.utils.timer import Stopwatch

__all__ = ["HeuristicPlanner"]


@register_planner("heuristic")
class HeuristicPlanner(Planner):
    """Greedy reuse heuristic with exhaustive abstract-plan enumeration."""

    def __init__(
        self,
        catalog: SystemCatalog,
        *,
        config: Optional[PlannerConfig] = None,
        weights: Optional[ObjectiveWeights] = None,
        allocation: Optional[Allocation] = None,
        max_abstract_plans: Optional[int] = None,
    ) -> None:
        super().__init__(catalog, config)
        self.weights = weights or ObjectiveWeights.paper_default(catalog)
        self.allocation = allocation if allocation is not None else Allocation(catalog)
        self.max_abstract_plans = (
            max_abstract_plans
            if max_abstract_plans is not None
            else self.config.max_abstract_plans
        )

    # ---------------------------------------------------------------- submission
    def submit(self, query: Union[Query, QueryWorkloadItem]) -> PlanningOutcome:
        """Plan a single query and return the outcome."""
        watch = Stopwatch()
        query = self._resolve_query(query)

        if self.allocation.is_provided(query.result_stream):
            self.allocation.admit_query(query.query_id)
            outcome = PlanningOutcome(
                query=query, admitted=True, duplicate=True, planning_time=watch.elapsed()
            )
            return self._record(outcome)

        # Direct reuse shortcut: the result stream already exists somewhere
        # (as an intermediate of another query); providing it only costs
        # client-delivery bandwidth at that host.
        existing_hosts = self.allocation.hosts_with_stream(query.result_stream)
        result_rate = self.catalog.stream_rate(query.result_stream)
        for host in sorted(existing_hosts):
            host_obj = self.catalog.hosts.get(host)
            if (
                self.allocation.out_bandwidth_used(host) + result_rate
                <= host_obj.bandwidth_capacity + 1e-9
            ):
                delta = PlacementDelta()
                delta.set_provided[query.result_stream] = host
                delta.admit_queries.add(query.query_id)
                self.allocation.apply(delta)
                outcome = PlanningOutcome(
                    query=query,
                    admitted=True,
                    planning_time=watch.elapsed(),
                    plan=self._maybe_extract_plan(query),
                    delta=delta,
                    extras={"host": host},
                )
                return self._record(outcome)

        best, plans_considered = best_candidate(
            self.catalog, self.allocation, self.weights, query, self.max_abstract_plans
        )

        admitted = best is not None
        if best is not None:
            self.allocation.apply(best.delta)
        outcome = PlanningOutcome(
            query=query,
            admitted=admitted,
            planning_time=watch.elapsed(),
            plan=self._maybe_extract_plan(query) if admitted else None,
            delta=best.delta if best else None,
            objective_value=best.score if best else None,
            rejection_reason="" if admitted else "no-feasible-placement",
            extras={
                "host": best.host if best else None,
                "plans_considered": plans_considered,
            },
        )
        return self._record(outcome)
