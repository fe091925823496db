"""Problem reduction: the S(q)/O(q) restriction of §IV-A.

SQPR does not re-solve the full optimisation problem when a query arrives.
It restricts the decision variables to the streams S(q) and operators O(q)
that can appear in plans for the new query, plus — because reuse may require
moving already-placed operators — the streams and operators of *admitted*
queries that share streams with the new query.  Everything else is treated
as fixed background: its resource usage is subtracted from the capacities
and its availability can optionally be credited for reuse.

Constraint (IV.9) — "the new solution does not drop already admitted
queries" — is captured by :attr:`ReplanScope.keep_provided`: the set of
already-provided requested streams inside the scope, which the model builder
forces to remain provided (possibly by a different host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set

from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.dsps.query import Query


def _overlap_scored(
    catalog: SystemCatalog,
    allocation: Allocation,
    streams: Set[int],
    new_ids: Set[int],
) -> List[tuple]:
    """Score admitted queries overlapping ``streams``, via the
    stream→queries membership index.

    Cost is proportional to the *overlap* (the admitted queries actually
    sharing a scope stream), not to the resident-query count.  Produces
    exactly the ``(composite_shared, shared, query_id)`` tuples of
    :func:`_overlap_scored_scan`, the index-free oracle.
    """
    shared_total: Dict[int, int] = {}
    shared_composite: Dict[int, int] = {}
    for stream_id in streams:
        users = allocation.queries_using_stream(stream_id)
        if not users:
            continue
        composite = catalog.streams.get(stream_id).is_composite
        for query_id in users:
            if query_id in new_ids:
                continue
            shared_total[query_id] = shared_total.get(query_id, 0) + 1
            if composite:
                shared_composite[query_id] = (
                    shared_composite.get(query_id, 0) + 1
                )
    return [
        (shared_composite.get(query_id, 0), total, query_id)
        for query_id, total in shared_total.items()
    ]


def _overlap_scored_scan(
    catalog: SystemCatalog,
    allocation: Allocation,
    streams: Set[int],
    new_ids: Set[int],
) -> List[tuple]:
    """Index-free oracle for :func:`_overlap_scored`: scan every admitted
    query and intersect its candidate streams with the scope."""
    scored: List[tuple] = []
    for admitted_id in allocation.admitted_queries:
        if admitted_id in new_ids or not catalog.has_query(admitted_id):
            continue
        admitted = catalog.get_query(admitted_id)
        shared = set(admitted.candidate_streams) & streams
        if not shared:
            continue
        composite_shared = sum(
            1 for s in shared if catalog.streams.get(s).is_composite
        )
        scored.append((composite_shared, len(shared), admitted_id))
    return scored


def result_obtainable(
    catalog: SystemCatalog, allocation: Allocation, query: Query
) -> bool:
    """Whether *any* plan could produce the query's result stream.

    A stream is obtainable iff it is already available on an active host in
    ``allocation``, or it is a base stream with a live injection host, or
    one of the query's candidate operators produces it and is either
    already placed on an active host or has only obtainable inputs.  These
    are exactly the ways a ``y`` variable of the reduced model can reach 1
    (credits, a base injection, a ``z`` with satisfied inputs — flows only
    move a stream that is obtainable somewhere, and the potentials forbid
    cycles), in every model variant: frozen and re-planning models differ
    in which credits they grant, and this test grants all of them.

    The test reads structure only — no capacities — so a query it rules
    out is one no solve could admit; the converse does not hold.
    """
    live = set(catalog.host_ids)
    known: Dict[int, bool] = {}

    def obtainable(stream_id: int) -> bool:
        verdict = known.get(stream_id)
        if verdict is None:
            known[stream_id] = False  # a stream cannot justify itself
            verdict = known[stream_id] = (
                not live.isdisjoint(allocation.hosts_with_stream(stream_id))
                or (
                    catalog.streams.get(stream_id).is_base
                    and bool(catalog.base_hosts_of(stream_id))
                )
                or any(
                    not live.isdisjoint(
                        allocation.hosts_of_operator(operator.operator_id)
                    )
                    or all(obtainable(s) for s in operator.input_streams)
                    for operator in catalog.producers_of(stream_id)
                    if operator.operator_id in query.candidate_operators
                )
            )
        return verdict

    return obtainable(query.result_stream)


@dataclass(frozen=True)
class ReplanScope:
    """The reduced variable universe for one planning round.

    Attributes
    ----------
    new_queries:
        The queries being planned in this round (one, or a batch).
    streams:
        Stream ids whose variables are free in the reduced model.
    operators:
        Operator ids whose variables are free in the reduced model.
    keep_provided:
        Requested streams inside the scope that are already provided and must
        remain provided (constraint IV.9).
    replanned_queries:
        Ids of admitted queries that fall inside the scope (their placement
        may move, their admission may not be dropped).
    """

    new_queries: FrozenSet[int]
    streams: FrozenSet[int]
    operators: FrozenSet[int]
    keep_provided: FrozenSet[int]
    replanned_queries: FrozenSet[int]

    @property
    def num_streams(self) -> int:
        """Number of streams with free variables."""
        return len(self.streams)

    @property
    def num_operators(self) -> int:
        """Number of operators with free variables."""
        return len(self.operators)

    def requested_streams(self, catalog: SystemCatalog) -> FrozenSet[int]:
        """Streams that carry a d variable: new results plus kept results."""
        requested = set(self.keep_provided)
        for query_id in self.new_queries:
            requested.add(catalog.get_query(query_id).result_stream)
        return frozenset(requested)


def compute_scope(
    catalog: SystemCatalog,
    allocation: Allocation,
    new_queries: Sequence[Query],
    replan_overlapping: bool = True,
    max_replanned_queries: int = 4,
) -> ReplanScope:
    """Compute the reduced scope for planning ``new_queries``.

    Parameters
    ----------
    replan_overlapping:
        When true (the paper's behaviour), admitted queries sharing streams
        with a new query are pulled into the scope so their operators may be
        moved.  When false, they stay fixed background (a pure greedy-reuse
        ablation).
    max_replanned_queries:
        Upper bound on how many overlapping admitted queries are pulled into
        the scope.  The paper replans *all* sharing queries; with skewed
        (Zipfian) workloads that set can cover most of the system, which
        defeats the purpose of problem reduction, so we keep the queries with
        the largest overlap (composite-stream overlap first).  Set to a large
        number to recover the unbounded behaviour.
    """
    streams: Set[int] = set()
    operators: Set[int] = set()
    for query in new_queries:
        streams |= set(query.candidate_streams)
        operators |= set(query.candidate_operators)

    replanned: Set[int] = set()
    if replan_overlapping and max_replanned_queries > 0:
        new_ids = {query.query_id for query in new_queries}
        scored = _overlap_scored(catalog, allocation, streams, new_ids)
        scored.sort(reverse=True)
        replanned = {qid for (_c, _t, qid) in scored[:max_replanned_queries]}
        for admitted_id in replanned:
            admitted = catalog.get_query(admitted_id)
            streams |= set(admitted.candidate_streams)
            operators |= set(admitted.candidate_operators)

    keep_provided: Set[int] = set()
    for stream_id in streams:
        if allocation.is_provided(stream_id):
            keep_provided.add(stream_id)

    return ReplanScope(
        new_queries=frozenset(q.query_id for q in new_queries),
        streams=frozenset(streams),
        operators=frozenset(operators),
        keep_provided=frozenset(keep_provided),
        replanned_queries=frozenset(replanned),
    )
