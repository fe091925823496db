"""Query-plan trees and the paper's structural conditions C1–C4 (§III-A).

A query plan is a tree whose nodes are labelled ⟨host, operator⟩ (the
operator may be the relay µ) and whose arcs are labelled by streams.  Data
flows from the leaves towards the root; the root's outgoing arc carries the
query's result stream to the client.

:class:`QueryPlan` offers validation of the four conditions of §III-A and a
resource-summary helper.  :func:`extract_plan` reconstructs a plan tree from
a global :class:`~repro.dsps.allocation.Allocation`, which is how the
examples and the test-suite verify that the MILP solutions decoded by the
planner correspond to real, causal plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dsps.catalog import SystemCatalog
from repro.exceptions import PlanError


@dataclass
class PlanNode:
    """A node ⟨host, operator⟩ of a query plan.

    ``operator_id`` is ``None`` for a relay node (the µ operator of §II-C).
    ``children`` are the sub-plans providing this node's non-local inputs;
    ``local_inputs`` are base streams read directly at this node's host
    (the leaf arcs of condition C4).
    """

    host: int
    operator_id: Optional[int]
    output_stream: int
    children: List["PlanNode"] = field(default_factory=list)
    local_inputs: FrozenSet[int] = frozenset()

    @property
    def is_relay(self) -> bool:
        """Whether this node relays a stream rather than computing one."""
        return self.operator_id is None

    def iter_nodes(self) -> List["PlanNode"]:
        """All nodes of the subtree rooted here (pre-order)."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.iter_nodes())
        return nodes

    def __repr__(self) -> str:
        kind = "relay" if self.is_relay else f"op{self.operator_id}"
        return f"PlanNode(h{self.host}, {kind}, out={self.output_stream})"


@dataclass
class QueryPlan:
    """A complete plan for one query: a root node plus the query stream."""

    query_stream: int
    root: PlanNode

    # ------------------------------------------------------------------ structure
    def nodes(self) -> List[PlanNode]:
        """All nodes in the plan (pre-order)."""
        return self.root.iter_nodes()

    def hosts_used(self) -> FrozenSet[int]:
        """The hosts that appear in the plan."""
        return frozenset(node.host for node in self.nodes())

    def operators_used(self) -> FrozenSet[int]:
        """The (non-relay) operator ids that appear in the plan."""
        return frozenset(
            node.operator_id for node in self.nodes() if node.operator_id is not None
        )

    def num_relays(self) -> int:
        """Number of relay nodes in the plan."""
        return sum(1 for node in self.nodes() if node.is_relay)

    # ----------------------------------------------------------------- validation
    def validate(self, catalog: SystemCatalog) -> List[str]:
        """Check conditions C1–C4; return a list of violation messages."""
        violations: List[str] = []

        # C1: the arc emanating from the root carries the query stream.
        if self.root.output_stream != self.query_stream:
            violations.append(
                f"C1: root outputs stream {self.root.output_stream}, "
                f"expected query stream {self.query_stream}"
            )

        for node in self.nodes():
            child_streams = {child.output_stream for child in node.children}
            incoming = child_streams | set(node.local_inputs)

            if node.is_relay:
                # C3: a relay has exactly one incoming arc with the same label
                # as its outgoing arc.
                if len(incoming) != 1 or node.output_stream not in incoming:
                    violations.append(
                        f"C3: relay at host {node.host} must have exactly one "
                        f"incoming arc labelled {node.output_stream}, got {sorted(incoming)}"
                    )
            else:
                operator = catalog.get_operator(node.operator_id)
                # C2: incoming arcs form a superset of S_o; outgoing arc is s_o.
                if not set(operator.input_streams) <= incoming:
                    missing = set(operator.input_streams) - incoming
                    violations.append(
                        f"C2: operator {operator.name} at host {node.host} is "
                        f"missing inputs {sorted(missing)}"
                    )
                if node.output_stream != operator.output_stream:
                    violations.append(
                        f"C2: operator {operator.name} outputs stream "
                        f"{operator.output_stream}, node claims {node.output_stream}"
                    )

            # C4: base streams read locally must actually be injected there.
            for base_id in node.local_inputs:
                stream = catalog.streams.get(base_id)
                if not stream.is_base:
                    violations.append(
                        f"C4: node at host {node.host} reads non-base stream "
                        f"{stream.name} as a local input"
                    )
                elif node.host not in catalog.base_hosts_of(base_id):
                    violations.append(
                        f"C4: base stream {stream.name} is not available at "
                        f"host {node.host}"
                    )
        return violations

    def is_valid(self, catalog: SystemCatalog) -> bool:
        """Whether the plan satisfies all of C1–C4."""
        return not self.validate(catalog)

    # -------------------------------------------------------------------- costs
    def total_cpu(self, catalog: SystemCatalog) -> float:
        """Sum of γ_o over the plan's operator nodes (relays are free)."""
        return sum(
            catalog.get_operator(node.operator_id).cpu_cost
            for node in self.nodes()
            if node.operator_id is not None
        )

    def network_traffic(self, catalog: SystemCatalog) -> float:
        """Total rate shipped across hosts inside the plan (excludes client arc)."""
        traffic = 0.0
        for node in self.nodes():
            for child in node.children:
                if child.host != node.host:
                    traffic += catalog.stream_rate(child.output_stream)
        return traffic


def extract_plan(
    catalog: SystemCatalog,
    allocation,
    query_stream: int,
    read_log: Optional[Set[Tuple[int, int]]] = None,
) -> QueryPlan:
    """Reconstruct a :class:`QueryPlan` for ``query_stream`` from an allocation.

    The reconstruction prefers (in order) reading a base stream locally,
    using an operator placed at the host, and finally pulling the stream over
    a flow from another host (which materialises a relay node).  Raises
    :class:`PlanError` if the allocation does not actually provide the
    stream.

    ``read_log``, when given, accumulates every ``(host, stream)`` point of
    the allocation the reconstruction consulted — positively *or*
    negatively (an input checked and found missing is recorded too).  The
    sub-plan index keys cached plans on exactly these points: the extracted
    plan can only change if the allocation changes at a logged point, so
    re-extraction after a delta is limited to the plans whose logged points
    the delta touched.  (Placement lookups are covered by the producing
    stream's point; base-injection lookups read the catalog, not the
    allocation, and are handled by topology-change invalidation.)
    """
    from repro.dsps.allocation import Allocation  # local import to avoid a cycle

    if not isinstance(allocation, Allocation):
        raise PlanError("extract_plan expects an Allocation")
    provider = allocation.provider_of(query_stream)
    if provider is None:
        raise PlanError(f"stream {query_stream} is not provided by any host")

    def resolve(host: int, stream_id: int, visiting: Set[Tuple[int, int]]) -> PlanNode:
        key = (host, stream_id)
        if key in visiting:
            raise PlanError(
                f"cycle while resolving stream {stream_id} at host {host}"
            )
        visiting = visiting | {key}
        if read_log is not None:
            read_log.add(key)
        stream = catalog.streams.get(stream_id)

        # Prefer an operator placed at this host that produces the stream.
        if stream.is_composite:
            for operator in catalog.producers_of(stream_id):
                if allocation.has_placement(host, operator.operator_id):
                    children = []
                    local_inputs = set()
                    ok = True
                    for input_id in operator.input_streams:
                        input_stream = catalog.streams.get(input_id)
                        if read_log is not None:
                            read_log.add((host, input_id))
                        if (
                            input_stream.is_base
                            and host in catalog.base_hosts_of(input_id)
                        ):
                            local_inputs.add(input_id)
                        elif allocation.is_available(host, input_id):
                            children.append(resolve(host, input_id, visiting))
                        else:
                            ok = False
                            break
                    if ok:
                        return PlanNode(
                            host=host,
                            operator_id=operator.operator_id,
                            output_stream=stream_id,
                            children=children,
                            local_inputs=frozenset(local_inputs),
                        )

        # A base stream injected here is a leaf relay-free consumption point;
        # represent it as a relay node with a local input so the arc labels
        # remain explicit.
        if stream.is_base and host in catalog.base_hosts_of(stream_id):
            return PlanNode(
                host=host,
                operator_id=None,
                output_stream=stream_id,
                children=[],
                local_inputs=frozenset({stream_id}),
            )

        # Otherwise the stream must be flowing in from another host.
        for source in allocation.flow_sources(host, stream_id):
            child = resolve(source, stream_id, visiting)
            return PlanNode(
                host=host,
                operator_id=None,
                output_stream=stream_id,
                children=[child],
                local_inputs=frozenset(),
            )

        raise PlanError(
            f"allocation provides no way to obtain stream {stream_id} at host {host}"
        )

    root = resolve(provider, query_stream, set())
    return QueryPlan(query_stream=query_stream, root=root)


def rebuild_minimal_allocation(catalog: SystemCatalog, allocation) -> "Allocation":
    """Rebuild an allocation containing only what admitted queries need.

    For every admitted query one concrete plan is extracted from the current
    allocation and its structures (operator placements, flows, availability,
    client delivery) are copied into a fresh allocation.  Structures that no
    admitted query relies on — e.g. redundant placements left behind by a
    timed-out solver incumbent or by a removed query — are dropped.  The
    result is always a subset of the input, so it can never violate resource
    capacities the input satisfied.

    This is the reference route to the post-admission allocation: retirement
    through :meth:`Allocation.without_queries`, host failures and adaptive
    re-planning use it directly, and the SQPR planner's
    :class:`repro.dsps.subplan.SubPlanIndex` — which prunes the live
    allocation in place to the same content — falls back to it when stale
    and is tested against it as the oracle.
    """
    from repro.dsps.allocation import Allocation  # local import to avoid a cycle

    rebuilt = Allocation(catalog)
    for query_id in sorted(allocation.admitted_queries):
        query = catalog.get_query(query_id)
        provider = allocation.provider_of(query.result_stream)
        if provider is None:
            # Admitted queries always have a provider; tolerate the
            # inconsistency rather than fail the whole rebuild.
            continue
        plan = extract_plan(catalog, allocation, query.result_stream)
        rebuilt.admitted_queries.add(query_id)
        rebuilt.provided[query.result_stream] = provider
        for node in plan.nodes():
            rebuilt.available.add((node.host, node.output_stream))
            if node.operator_id is not None:
                rebuilt.placements.add((node.host, node.operator_id))
                operator = catalog.get_operator(node.operator_id)
                for input_id in operator.input_streams:
                    rebuilt.available.add((node.host, input_id))
            for child in node.children:
                if child.host != node.host:
                    rebuilt.flows.add((child.host, node.host, child.output_stream))
                    rebuilt.available.add((node.host, child.output_stream))
    # Seed the rebuilt allocation's touched tracking with the net change
    # against its source (plus the source's own pending touches), so delta
    # validation of the successor object covers the whole event even across
    # the object replacement this rebuild performs.
    rebuilt.inherit_touched(allocation)
    return rebuilt
