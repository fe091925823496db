"""Greedy-reuse placement candidates (§V-A), shared by two planners.

A *candidate* implements one abstract plan of a query — an operator set
producing its result stream from base streams — entirely at one host:
streams that already exist anywhere in the system are pulled to that host
over the network (aggressively favouring complete sub-queries over base
streams), everything else is computed locally.  Every feasible candidate is
scored with the λ-weighted objective SQPR maximises, so the score of a
candidate *is* the MILP objective of the assignment it describes.

Two callers use the generator:

* :class:`repro.baselines.heuristic.HeuristicPlanner` deploys the best
  candidate directly (and never reconsiders it);
* :class:`repro.core.planner.SQPRPlanner` completes the best candidate into
  a full assignment of its frozen stage-A model and hands it to the solver
  as a warm start (see :meth:`repro.core.model_builder.SqprModel.start_from_delta`),
  where it counts only if the model's own rows admit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.dsps.query import Query

__all__ = ["PlacementCandidate", "abstract_plans", "best_candidate", "place_at_host"]


@dataclass
class PlacementCandidate:
    """One (abstract plan, host) placement candidate."""

    delta: PlacementDelta
    score: float
    host: int
    #: Maximum CPU load over the active hosts once the candidate is applied
    #: (the O4 term of the score).
    max_load: float


def abstract_plans(
    catalog: SystemCatalog, query: Query, max_plans: int
) -> List[FrozenSet[int]]:
    """Enumerate operator sets that can produce the query's result stream."""

    def expand(stream_id: int) -> List[FrozenSet[int]]:
        stream = catalog.streams.get(stream_id)
        if stream.is_base:
            return [frozenset()]
        alternatives: List[FrozenSet[int]] = []
        for operator in catalog.producers_of(stream_id):
            if operator.operator_id not in query.candidate_operators:
                continue
            partials: List[FrozenSet[int]] = [frozenset({operator.operator_id})]
            for input_id in operator.input_streams:
                sub_plans = expand(input_id)
                combined: List[FrozenSet[int]] = []
                for partial in partials:
                    for sub in sub_plans:
                        combined.append(partial | sub)
                        if len(combined) >= max_plans:
                            break
                    if len(combined) >= max_plans:
                        break
                partials = combined
            alternatives.extend(partials)
            if len(alternatives) >= max_plans:
                break
        return alternatives[:max_plans]

    return expand(query.result_stream)


def place_at_host(
    catalog: SystemCatalog,
    allocation: Allocation,
    weights: ObjectiveWeights,
    query: Query,
    operators: FrozenSet[int],
    host: int,
) -> Optional[PlacementCandidate]:
    """Try to implement the abstract plan ``operators`` at ``host``."""
    host_obj = catalog.hosts.get(host)

    delta = PlacementDelta()
    delta.admit_queries.add(query.query_id)
    new_cpu = 0.0
    inbound: Dict[int, float] = {}  # src host -> added rate into `host`
    needed: List[int] = [query.result_stream]
    computed_here: Set[int] = set()
    by_output = {
        catalog.get_operator(o).output_stream: catalog.get_operator(o)
        for o in operators
    }

    while needed:
        stream_id = needed.pop()
        stream = catalog.streams.get(stream_id)
        if allocation.is_available(host, stream_id) or (host, stream_id) in delta.add_available:
            continue
        if stream.is_base and host in catalog.base_hosts_of(stream_id):
            delta.add_available.add((host, stream_id))
            continue
        # Aggressive reuse: pull the stream from any host that has it.
        existing_hosts = allocation.hosts_with_stream(stream_id)
        if existing_hosts and stream_id != query.result_stream:
            source = min(existing_hosts)
            delta.add_flows.add((source, host, stream_id))
            delta.add_available.add((host, stream_id))
            inbound[source] = inbound.get(source, 0.0) + catalog.stream_rate(stream_id)
            continue
        # Base stream not present here and not yet in the system: pull it
        # from one of its injection points.
        if stream.is_base:
            base_hosts = catalog.base_hosts_of(stream_id)
            if not base_hosts:
                return None
            source = min(base_hosts)
            delta.add_flows.add((source, host, stream_id))
            delta.add_available.add((host, stream_id))
            delta.add_available.add((source, stream_id))
            inbound[source] = inbound.get(source, 0.0) + catalog.stream_rate(stream_id)
            continue
        # Otherwise compute it locally with the plan's operator.
        operator = by_output.get(stream_id)
        if operator is None:
            return None
        if operator.operator_id in computed_here:
            continue
        computed_here.add(operator.operator_id)
        delta.add_placements.add((host, operator.operator_id))
        delta.add_available.add((host, stream_id))
        new_cpu += operator.cpu_cost
        needed.extend(operator.input_streams)

    delta.set_provided[query.result_stream] = host
    delta.add_available.add((host, query.result_stream))

    # ------------------------------------------------------- feasibility check
    if allocation.cpu_used(host) + new_cpu > host_obj.cpu_capacity + 1e-9:
        return None
    added_in = sum(inbound.values())
    if allocation.in_bandwidth_used(host) + added_in > host_obj.bandwidth_capacity + 1e-9:
        return None
    result_rate = catalog.stream_rate(query.result_stream)
    if (
        allocation.out_bandwidth_used(host) + result_rate
        > host_obj.bandwidth_capacity + 1e-9
    ):
        return None
    for source, added_rate in inbound.items():
        source_obj = catalog.hosts.get(source)
        if (
            allocation.out_bandwidth_used(source) + added_rate
            > source_obj.bandwidth_capacity + 1e-9
        ):
            return None
        if allocation.link_used(source, host) + added_rate > catalog.link_capacity(
            source, host
        ) + 1e-9:
            return None
    if catalog.num_sites > 1:
        # Shared WAN gateways: all new cross-site flows of this candidate
        # must fit the remaining budget of their site pair jointly.
        wan_added: Dict[tuple, float] = {}
        for src, dst, stream_id in delta.add_flows:
            src_site = catalog.site_of_host(src)
            dst_site = catalog.site_of_host(dst)
            if src_site != dst_site:
                pair = (src_site, dst_site)
                wan_added[pair] = wan_added.get(pair, 0.0) + catalog.stream_rate(
                    stream_id
                )
        for (src_site, dst_site), added in wan_added.items():
            effective = catalog.effective_wan_capacity(src_site, dst_site)
            if effective is None:
                continue
            if allocation.wan_used(src_site, dst_site) + added > effective + 1e-9:
                return None

    # ------------------------------------------------------------------- score
    max_load = max(
        allocation.cpu_used(h) + (new_cpu if h == host else 0.0)
        for h in catalog.host_ids
    )
    score = (
        weights.admission
        - weights.network * added_in
        - weights.cpu * new_cpu
        - weights.balance * max_load
    )
    return PlacementCandidate(delta=delta, score=score, host=host, max_load=max_load)


def best_candidate(
    catalog: SystemCatalog,
    allocation: Allocation,
    weights: ObjectiveWeights,
    query: Query,
    max_plans: int,
) -> Tuple[Optional[PlacementCandidate], int]:
    """The best-scoring candidate over every (abstract plan, active host) pair.

    Returns ``(candidate, plans considered)``; the candidate is ``None`` when
    no single host can implement any abstract plan.  Ties keep the first
    candidate in (plan, host) enumeration order.
    """
    best: Optional[PlacementCandidate] = None
    plans = abstract_plans(catalog, query, max_plans)
    for operators in plans:
        for host in catalog.host_ids:
            candidate = place_at_host(
                catalog, allocation, weights, query, operators, host
            )
            if candidate is not None and (best is None or candidate.score > best.score):
                best = candidate
    return best, len(plans)
