"""The optimistic upper bound of §V-A.

All hosts are merged into a single "aggregate host" that owns every base
stream and the sum of all CPU resources; network constraints vanish.  The
number of queries this aggregate host can satisfy upper-bounds what any real
planner can achieve, because any feasible distributed allocation can be
collapsed onto the aggregate host.

With a single host and no network, the optimisation model collapses to a
covering problem that admits the analytical greedy solution implemented
here: process queries in submission order, pay only for the operators whose
output streams are not yet produced (perfect reuse), and admit a query while
the aggregate CPU budget allows it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Union

from repro.api.base import Planner, PlannerConfig, PlanningOutcome
from repro.api.registry import register_planner
from repro.dsps.catalog import SystemCatalog
from repro.dsps.query import Query, QueryWorkloadItem
from repro.exceptions import PlanningError
from repro.utils.timer import Stopwatch

__all__ = ["OptimisticBoundPlanner"]


@register_planner("optimistic", aliases=("optimistic_bound",))
class OptimisticBoundPlanner(Planner):
    """Upper bound on the number of satisfiable queries."""

    def __init__(
        self, catalog: SystemCatalog, config: Optional[PlannerConfig] = None
    ) -> None:
        super().__init__(catalog, config)
        self.cpu_capacity = catalog.total_cpu_capacity()
        self.cpu_used = 0.0
        self._produced_streams: Set[int] = set()
        self._admitted_results: Set[int] = set()
        self._admitted_order: List[int] = []
        #: Result stream of each entry of ``_admitted_order`` (kept parallel
        #: so retirement can detect free riders without catalog lookups).
        self._admitted_streams: List[int] = []

    def reset(self) -> None:
        """Forget all outcomes and release the aggregate CPU budget."""
        super().reset()
        self.cpu_used = 0.0
        self._produced_streams.clear()
        self._admitted_results.clear()
        self._admitted_order.clear()
        self._admitted_streams.clear()

    # ------------------------------------------------------------------ lifecycle
    @property
    def active_queries(self) -> FrozenSet[int]:
        """Ids of the queries currently counted against the aggregate budget."""
        return frozenset(self._admitted_order)

    def retire(self, query_id: int) -> bool:
        """Remove an admitted query and replay the survivors from scratch.

        The bound's state (produced streams, consumed CPU) is the result of
        order-dependent greedy accounting, so the faithful way to release
        exactly what the departing query paid for — and nothing a surviving
        query still relies on — is to replay the surviving queries in their
        original admission order.  The replayed state is identical to
        submitting only the survivors, which is the invariant the
        property-based churn tests pin down.

        Free riders skip the replay entirely: a query whose result stream
        was already admitted by an *earlier* entry paid nothing and marked
        nothing as produced, so a replay without it would reproduce the
        current accounting step for step — removal from the admission order
        is the whole retirement.  Under result-stream sharing (the Zipf
        workloads) this turns most retirements into O(n) list surgery
        instead of a full greedy re-plan of every survivor.
        """
        try:
            index = self._admitted_order.index(query_id)
        except ValueError:
            return False
        stream = self._admitted_streams[index]
        if stream in self._admitted_streams[:index]:
            del self._admitted_order[index]
            del self._admitted_streams[index]
            return True
        survivors = [qid for qid in self._admitted_order if qid != query_id]
        self._replay(survivors)
        return True

    def on_topology_change(self) -> List[int]:
        """Re-read the aggregate capacity; drop queries that no longer fit.

        A host failure shrinks the aggregate host.  Replaying the admitted
        queries in order under the new budget keeps the earliest-admitted
        prefix that still fits (mirroring the engine's eviction of concrete
        placements) and reports the dropped ids.
        """
        self.cpu_capacity = self.catalog.total_cpu_capacity()
        return self._replay(list(self._admitted_order))

    def _replay(self, query_ids: List[int]) -> List[int]:
        """Rebuild the aggregate accounting by re-admitting ``query_ids`` in
        order; returns the ids that no longer fit the budget."""
        self.cpu_used = 0.0
        self._produced_streams.clear()
        self._admitted_results.clear()
        self._admitted_order = []
        self._admitted_streams = []
        dropped: List[int] = []
        for query_id in query_ids:
            query = self.catalog.get_query(query_id)
            if query.result_stream in self._admitted_results:
                self._admitted_order.append(query_id)
                self._admitted_streams.append(query.result_stream)
                continue
            marginal_cpu, operators = self._cheapest_plan_cost(query)
            if self.cpu_used + marginal_cpu > self.cpu_capacity + 1e-9:
                dropped.append(query_id)
                continue
            self.cpu_used += marginal_cpu
            self._admitted_results.add(query.result_stream)
            for operator_id in operators:
                operator = self.catalog.get_operator(operator_id)
                self._produced_streams.add(operator.output_stream)
            self._admitted_order.append(query_id)
            self._admitted_streams.append(query.result_stream)
        return dropped

    def _cheapest_plan_cost(self, query: Query) -> tuple:
        """CPU cost and operator set of the cheapest plan with full reuse.

        For the canonical decomposition there is exactly one plan; for the
        exhaustive decomposition we greedily pick, for each needed stream,
        the cheapest producer whose inputs are recursively obtainable.
        Streams already produced for earlier queries cost nothing.
        """
        produced = self._produced_streams

        memo = {}

        def cost_of_stream(stream_id: int, visiting: frozenset) -> Optional[tuple]:
            stream = self.catalog.streams.get(stream_id)
            if stream.is_base or stream_id in produced:
                return (0.0, frozenset())
            if stream_id in memo:
                return memo[stream_id]
            if stream_id in visiting:
                return None
            best: Optional[tuple] = None
            for operator in self.catalog.producers_of(stream_id):
                if operator.operator_id not in query.candidate_operators:
                    continue
                total = operator.cpu_cost
                operators = {operator.operator_id}
                feasible = True
                for input_id in operator.input_streams:
                    sub = cost_of_stream(input_id, visiting | {stream_id})
                    if sub is None:
                        feasible = False
                        break
                    total += sub[0]
                    operators |= set(sub[1])
                if feasible and (best is None or total < best[0]):
                    best = (total, frozenset(operators))
            memo[stream_id] = best
            return best

        result = cost_of_stream(query.result_stream, frozenset())
        if result is None:
            raise PlanningError(
                f"query {query.query_id} has no producible plan in the catalog"
            )
        return result

    def submit(self, query: Union[Query, QueryWorkloadItem]) -> PlanningOutcome:
        """Decide admission of one query under the aggregate-host relaxation."""
        watch = Stopwatch()
        query = self._resolve_query(query)
        if query.result_stream in self._admitted_results:
            if query.query_id not in self._admitted_order:
                self._admitted_order.append(query.query_id)
                self._admitted_streams.append(query.result_stream)
            outcome = PlanningOutcome(
                query=query,
                admitted=True,
                duplicate=True,
                planning_time=watch.elapsed(),
                extras={"marginal_cpu": 0.0},
            )
            return self._record(outcome)
        marginal_cpu, operators = self._cheapest_plan_cost(query)
        admitted = self.cpu_used + marginal_cpu <= self.cpu_capacity + 1e-9
        if admitted:
            self.cpu_used += marginal_cpu
            self._admitted_results.add(query.result_stream)
            self._admitted_order.append(query.query_id)
            self._admitted_streams.append(query.result_stream)
            # Mark every intermediate stream of the chosen plan as produced.
            for operator_id in operators:
                operator = self.catalog.get_operator(operator_id)
                self._produced_streams.add(operator.output_stream)
        outcome = PlanningOutcome(
            query=query,
            admitted=admitted,
            planning_time=watch.elapsed(),
            objective_value=-marginal_cpu,
            rejection_reason="" if admitted else "insufficient-aggregate-cpu",
            extras={"marginal_cpu": marginal_cpu},
        )
        return self._record(outcome)
