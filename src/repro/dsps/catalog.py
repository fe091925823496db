"""The system catalog: hosts, network, streams, operators and queries.

The catalog is the single source of truth the planners operate on.  It owns

* the set of hosts and the network topology (resource capacities),
* the stream registry (with equivalence-based identity),
* the operator universe (deduplicated by signature),
* the placement of base streams on hosts (S0h), and
* the registered queries with their candidate streams S(q) and operators
  O(q), which drive SQPR's problem-reduction step.

Registering a query is idempotent with respect to stream/operator creation:
overlapping queries share composite streams and operators, which is exactly
what makes reuse possible.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.dsps.cost_model import LinearCostModel
from repro.dsps.hosts import Host, HostSet
from repro.dsps.network import NetworkTopology
from repro.dsps.operators import Operator, OperatorKind
from repro.dsps.query import (
    DecompositionMode,
    Query,
    QueryWorkloadItem,
    canonical_chain,
    enumerate_splits,
    enumerate_subsets,
)
from repro.dsps.stream import Stream, StreamRegistry
from repro.exceptions import CatalogError
from repro.utils.validation import check_positive


class SystemCatalog:
    """Hosts, streams, operators and queries of one DSPS instance."""

    def __init__(
        self,
        cost_model: Optional[LinearCostModel] = None,
        decomposition: DecompositionMode = DecompositionMode.CANONICAL,
        default_link_capacity: float = 1000.0,
        default_wan_capacity: Optional[float] = None,
    ) -> None:
        self.cost_model = cost_model or LinearCostModel()
        self.decomposition = decomposition
        self.hosts = HostSet()
        self.streams = StreamRegistry()
        self._default_link_capacity = check_positive(
            "default link capacity", default_link_capacity
        )
        self._link_overrides: Dict[Tuple[int, int], float] = {}
        if default_wan_capacity is not None:
            default_wan_capacity = float(default_wan_capacity)
            if default_wan_capacity < 0:
                raise CatalogError("default WAN capacity must be non-negative")
        self._default_wan_capacity = default_wan_capacity
        self._wan_overrides: Dict[Tuple[int, int], float] = {}
        self._wan_drift = 1.0
        self._partitioned_sites: Set[int] = set()
        self._operators: List[Operator] = []
        self._operators_by_signature: Dict[Tuple, Operator] = {}
        self._producers: Dict[int, List[Operator]] = {}
        self._base_hosts: Dict[int, Set[int]] = {}
        self._base_at_host: Dict[int, Set[int]] = {}
        self._queries: List[Query] = []
        self._queries_by_result: Dict[int, List[Query]] = {}

    # ------------------------------------------------------------------ hosts
    def add_host(
        self,
        cpu_capacity: float,
        bandwidth_capacity: float,
        name: Optional[str] = None,
        site: int = 0,
    ) -> Host:
        """Register a host with the given CPU and NIC capacities.

        ``site`` assigns the host to a resource site; the default keeps
        every host in site 0 (a flat cluster).
        """
        name = name or f"host{len(self.hosts)}"
        return self.hosts.add(name, cpu_capacity, bandwidth_capacity, site=site)

    @property
    def num_hosts(self) -> int:
        """Number of registered hosts (online or not; ids stay dense)."""
        return len(self.hosts)

    @property
    def host_ids(self) -> List[int]:
        """Active host ids in order.

        Every placement decision in the library iterates this view, so
        deactivating a host removes it from consideration by all planners
        at once.
        """
        return self.hosts.ids

    # ------------------------------------------------------------ host lifecycle
    def deactivate_host(self, host_id: int) -> None:
        """Take a host offline (a failure): planners stop seeing it and base
        streams injected there become unavailable until reactivation."""
        self.hosts.deactivate(host_id)

    def activate_host(self, host_id: int) -> None:
        """Bring a failed host back online (a host join/recovery)."""
        self.hosts.activate(host_id)

    def is_host_active(self, host_id: int) -> bool:
        """Whether ``host_id`` is currently online."""
        return self.hosts.is_active(host_id)

    # -------------------------------------------------------------------- sites
    def site_of_host(self, host_id: int) -> int:
        """The resource site ``host_id`` belongs to."""
        return self.hosts.site_of(host_id)

    @property
    def sites(self) -> List[int]:
        """Sorted distinct site ids over the registered hosts."""
        return self.hosts.sites

    @property
    def num_sites(self) -> int:
        """Number of distinct resource sites (1 for a flat cluster)."""
        return self.hosts.num_sites

    def hosts_in_site(self, site: int) -> List[int]:
        """All registered host ids of ``site`` (online or not)."""
        return self.hosts.ids_in_site(site)

    def active_hosts_in_site(self, site: int) -> List[int]:
        """Online host ids of ``site``."""
        return self.hosts.active_ids_in_site(site)

    # ------------------------------------------------------------ site lifecycle
    def partition_site(self, site: int) -> None:
        """Cut ``site`` off the WAN: its hosts keep running and can plan
        site-locally, but no stream may cross its gateway until
        :meth:`heal_site`."""
        if site not in set(self.hosts.sites):
            raise CatalogError(f"unknown site id {site}")
        self._partitioned_sites.add(site)

    def heal_site(self, site: int) -> None:
        """Re-attach a partitioned site to the WAN."""
        if site not in set(self.hosts.sites):
            raise CatalogError(f"unknown site id {site}")
        self._partitioned_sites.discard(site)

    def is_site_partitioned(self, site: int) -> bool:
        """Whether ``site`` is currently cut off the WAN."""
        return site in self._partitioned_sites

    @property
    def partitioned_sites(self) -> List[int]:
        """Ids of sites currently partitioned, sorted."""
        return sorted(self._partitioned_sites)

    # ---------------------------------------------------------------- topology
    def set_link_capacity(
        self, src: int, dst: int, capacity: float, symmetric: bool = True
    ) -> None:
        """Override the capacity of the link ``src -> dst``.

        By default the reverse link gets the same capacity; pass
        ``symmetric=False`` for asymmetric links (WAN up/down capacities
        commonly differ).
        """
        self._link_overrides[(src, dst)] = float(capacity)
        if symmetric:
            self._link_overrides[(dst, src)] = float(capacity)

    def link_capacity(self, src: int, dst: int) -> float:
        """κ(src, dst); zero on the self-loop.

        On federated topologies a cross-site pair is additionally capped at
        the current *effective* WAN gateway capacity of its site pair (zero
        across a partition, scaled under WAN drift) — no single host-pair
        link can offer more than the gateway it runs through, and the cap
        is what makes every planner decline unroutable cross-site flows.
        The *shared* gateway budget across host pairs is enforced by
        :meth:`Allocation.validate` and the planners' own WAN checks.
        """
        if src == dst:
            return 0.0
        capacity = self._link_overrides.get((src, dst), self._default_link_capacity)
        if self.hosts.num_sites > 1:
            src_site = self.hosts.site_of(src)
            dst_site = self.hosts.site_of(dst)
            if src_site != dst_site:
                effective = self.effective_wan_capacity(src_site, dst_site)
                if effective is not None:
                    capacity = min(capacity, effective)
        return capacity

    # -------------------------------------------------------------- WAN gateways
    def set_wan_capacity(
        self,
        src_site: int,
        dst_site: int,
        capacity: float,
        symmetric: bool = True,
    ) -> None:
        """Set the shared gateway capacity of the WAN link ``src_site ->
        dst_site`` (and, by default, the reverse direction).

        Unlike per-host-pair link capacities, the WAN capacity is shared by
        *every* flow crossing that site pair — the defining constraint of
        federated deployments.
        """
        known = set(self.hosts.sites)
        for s in (src_site, dst_site):
            if s not in known:
                raise CatalogError(f"unknown site id {s}; sites: {sorted(known)}")
        if src_site == dst_site:
            raise CatalogError("WAN capacity applies to distinct site pairs")
        if capacity < 0:
            raise CatalogError("WAN capacity must be non-negative")
        self._wan_overrides[(src_site, dst_site)] = float(capacity)
        if symmetric:
            self._wan_overrides[(dst_site, src_site)] = float(capacity)

    def wan_capacity(self, src_site: int, dst_site: int) -> Optional[float]:
        """Configured gateway capacity ``src_site -> dst_site``.

        ``None`` means unconstrained (also for the intra-site "pair"), which
        keeps single-site catalogs byte-compatible with the flat model.
        """
        if src_site == dst_site:
            return None
        return self._wan_overrides.get(
            (src_site, dst_site), self._default_wan_capacity
        )

    def effective_wan_capacity(self, src_site: int, dst_site: int) -> Optional[float]:
        """The capacity :meth:`Allocation.validate` enforces right now.

        A partitioned endpoint forces the gateway to zero; otherwise the
        configured capacity is scaled by the current WAN drift factor
        (``None`` stays unconstrained).
        """
        if src_site == dst_site:
            return None
        if src_site in self._partitioned_sites or dst_site in self._partitioned_sites:
            return 0.0
        capacity = self.wan_capacity(src_site, dst_site)
        if capacity is None:
            return None
        return capacity * self._wan_drift

    @property
    def wan_drift(self) -> float:
        """Current multiplicative WAN drift factor (1.0 = nominal)."""
        return self._wan_drift

    def set_wan_drift(self, factor: float) -> None:
        """Scale every WAN gateway capacity by ``factor`` (congestion when
        below 1.0); the configured capacities themselves are untouched."""
        check_positive("WAN drift factor", factor)
        self._wan_drift = float(factor)

    def topology(self) -> NetworkTopology:
        """Materialise the current topology as a :class:`NetworkTopology`."""
        topo = NetworkTopology(
            max(1, self.num_hosts),
            self._default_link_capacity,
            sites=[self.hosts.site_of(h) for h in self.hosts.all_ids] or None,
            default_wan_capacity=self._default_wan_capacity,
        )
        for (src, dst), capacity in self._link_overrides.items():
            topo.set_capacity(src, dst, capacity, symmetric=False)
        for (src_site, dst_site), capacity in self._wan_overrides.items():
            topo.set_wan_capacity(src_site, dst_site, capacity, symmetric=False)
        return topo

    # ----------------------------------------------------------------- streams
    def add_base_stream(self, name: str, rate: float, host_id: int) -> Stream:
        """Register a base stream available at ``host_id``."""
        self.hosts.get(host_id)  # validates the id
        stream = self.streams.add_base_stream(name, rate)
        self._base_hosts.setdefault(stream.stream_id, set()).add(host_id)
        self._base_at_host.setdefault(host_id, set()).add(stream.stream_id)
        return stream

    def add_base_stream_location(self, stream_id: int, host_id: int) -> None:
        """Make an existing base stream also available at ``host_id``."""
        stream = self.streams.get(stream_id)
        if not stream.is_base:
            raise CatalogError(f"stream {stream.name!r} is not a base stream")
        self.hosts.get(host_id)
        self._base_hosts.setdefault(stream_id, set()).add(host_id)
        self._base_at_host.setdefault(host_id, set()).add(stream_id)

    def base_hosts_of(self, stream_id: int) -> FrozenSet[int]:
        """*Active* hosts at which the given base stream is injected.

        Injection points on offline hosts are hidden — a failed host stops
        sourcing its base streams — and reappear when the host is
        reactivated.
        """
        return frozenset(
            h
            for h in self._base_hosts.get(stream_id, set())
            if self.hosts.is_active(h)
        )

    def base_streams_at(self, host_id: int) -> FrozenSet[int]:
        """S0h — base streams available at ``host_id`` (empty when offline)."""
        if not self.hosts.is_active(host_id):
            return frozenset()
        return frozenset(self._base_at_host.get(host_id, set()))

    def base_streams_registered_at(self, host_id: int) -> FrozenSet[int]:
        """Base streams whose injection point is ``host_id``, alive or not.

        Unlike :meth:`base_streams_at` this ignores liveness: delta
        validation uses it to learn which streams *lost* a source when a
        host went offline, so their flow graphs can be re-checked.
        """
        return frozenset(self._base_at_host.get(host_id, set()))

    def stream_rate(self, stream_id: int) -> float:
        """ϱ_s for any registered stream."""
        return self.streams.get(stream_id).rate

    # --------------------------------------------------------------- operators
    def _register_operator(
        self,
        kind: OperatorKind,
        input_streams: Iterable[int],
        output_stream: int,
        cpu_cost: float,
        name: Optional[str] = None,
    ) -> Operator:
        inputs = frozenset(int(s) for s in input_streams)
        signature = (kind.value, inputs, int(output_stream))
        existing = self._operators_by_signature.get(signature)
        if existing is not None:
            return existing
        operator = Operator(
            operator_id=len(self._operators),
            name=name or f"{kind.value}_op_{len(self._operators)}",
            kind=kind,
            input_streams=inputs,
            output_stream=int(output_stream),
            cpu_cost=float(cpu_cost),
        )
        self._operators.append(operator)
        self._operators_by_signature[signature] = operator
        self._producers.setdefault(operator.output_stream, []).append(operator)
        return operator

    def get_operator(self, operator_id: int) -> Operator:
        """Look up an operator by id."""
        try:
            return self._operators[operator_id]
        except IndexError:
            raise CatalogError(f"unknown operator id {operator_id}") from None

    @property
    def operators(self) -> List[Operator]:
        """All operators in id order."""
        return list(self._operators)

    @property
    def num_operators(self) -> int:
        """Number of registered operators."""
        return len(self._operators)

    def producers_of(self, stream_id: int) -> List[Operator]:
        """All operators whose output stream is ``stream_id``."""
        return list(self._producers.get(stream_id, []))

    # ------------------------------------------------------- composite streams
    def _ensure_composite_stream(self, base_set: FrozenSet[int]) -> Stream:
        """Create (or fetch) the join stream covering ``base_set``."""
        existing = self.streams.find_equivalent("join", base_set)
        if existing is not None:
            return existing
        rates = [self.streams.get(b).rate for b in base_set]
        rate = self.cost_model.output_rate(rates, base_set)
        return self.streams.add_composite_stream("join", base_set, rate)

    def _stream_for_subset(self, subset: FrozenSet[int]) -> Stream:
        """The stream covering ``subset`` — a base stream or a join stream."""
        if len(subset) == 1:
            (only,) = subset
            return self.streams.get(only)
        return self._ensure_composite_stream(subset)

    # ------------------------------------------------------------------ queries
    def register_query(self, item: QueryWorkloadItem) -> Query:
        """Register a join query and return its :class:`Query` descriptor.

        Creates (or reuses) the composite streams and candidate operators of
        the query's decomposition according to the catalog's
        :class:`DecompositionMode`.
        """
        base_ids = []
        for name in item.base_names:
            stream = self.streams.get_by_name(name)
            if not stream.is_base:
                raise CatalogError(f"query references non-base stream {name!r}")
            base_ids.append(stream.stream_id)
        base_set = frozenset(base_ids)
        if len(base_set) != len(base_ids):
            raise CatalogError("query references duplicate base streams")

        candidate_streams: Set[int] = set(base_set)
        candidate_operators: Set[int] = set()

        if self.decomposition is DecompositionMode.CANONICAL:
            chain = canonical_chain(sorted(base_set))
            previous: Stream = self.streams.get(min(base_set))
            sorted_bases = sorted(base_set)
            previous = self.streams.get(sorted_bases[0])
            for index, subset in enumerate(chain):
                next_base = self.streams.get(sorted_bases[index + 1])
                output = self._ensure_composite_stream(subset)
                inputs = frozenset({previous.stream_id, next_base.stream_id})
                cpu = self.cost_model.operator_cpu_cost(
                    [previous.rate, next_base.rate]
                )
                operator = self._register_operator(
                    OperatorKind.JOIN, inputs, output.stream_id, cpu
                )
                candidate_streams.add(output.stream_id)
                candidate_operators.add(operator.operator_id)
                previous = output
            result_stream = previous
        else:
            subsets = enumerate_subsets(sorted(base_set))
            for subset in subsets:
                output = self._ensure_composite_stream(subset)
                candidate_streams.add(output.stream_id)
                for left, right in enumerate_splits(subset):
                    left_stream = self._stream_for_subset(left)
                    right_stream = self._stream_for_subset(right)
                    inputs = frozenset({left_stream.stream_id, right_stream.stream_id})
                    if len(inputs) < 2:
                        continue
                    cpu = self.cost_model.operator_cpu_cost(
                        [left_stream.rate, right_stream.rate]
                    )
                    operator = self._register_operator(
                        OperatorKind.JOIN, inputs, output.stream_id, cpu
                    )
                    candidate_operators.add(operator.operator_id)
            result_stream = self._ensure_composite_stream(base_set)

        query = Query(
            query_id=len(self._queries),
            result_stream=result_stream.stream_id,
            base_streams=base_set,
            candidate_streams=frozenset(candidate_streams),
            candidate_operators=frozenset(candidate_operators),
        )
        self._queries.append(query)
        self._queries_by_result.setdefault(result_stream.stream_id, []).append(query)
        return query

    def get_query(self, query_id: int) -> Query:
        """Look up a query by id."""
        try:
            return self._queries[query_id]
        except IndexError:
            raise CatalogError(f"unknown query id {query_id}") from None

    def has_query(self, query_id: int) -> bool:
        """Whether ``query_id`` names a registered query."""
        return 0 <= query_id < len(self._queries)

    @property
    def queries(self) -> List[Query]:
        """All registered queries in submission order."""
        return list(self._queries)

    def queries_for_stream(self, stream_id: int) -> List[Query]:
        """All queries whose result stream is ``stream_id``."""
        return list(self._queries_by_result.get(stream_id, []))

    @property
    def requested_streams(self) -> FrozenSet[int]:
        """Streams with δ_s = 1 — i.e. result streams of registered queries."""
        return frozenset(self._queries_by_result.keys())

    # -------------------------------------------------------------- aggregates
    def total_cpu_capacity(self) -> float:
        """Sum of ζ_h over the active hosts."""
        return sum(host.cpu_capacity for host in self.hosts)

    def total_bandwidth_capacity(self) -> float:
        """Sum of β_h over the active hosts."""
        return sum(host.bandwidth_capacity for host in self.hosts)

    def total_link_capacity(self) -> float:
        """Sum of κ(h, m) over all ordered host pairs."""
        total = 0.0
        for src in self.host_ids:
            for dst in self.host_ids:
                if src != dst:
                    total += self.link_capacity(src, dst)
        return total

    def summary(self) -> str:
        """One-line description of the catalog size."""
        return (
            f"SystemCatalog: {self.num_hosts} hosts, {len(self.streams)} streams "
            f"({len(self.streams.base_streams)} base), {self.num_operators} operators, "
            f"{len(self._queries)} queries"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"


class _SiteHostSetView:
    """The :class:`HostSet` facade of a :class:`SiteCatalogView`.

    Exposes only the view's site hosts through the placement-facing
    accessors (:attr:`ids`, iteration, :attr:`offline_ids`) and adjusts
    reported capacities for *foreign usage* — resources consumed on the
    site's hosts by structures the site's own allocation does not contain
    (cross-site queries planned by a federated coordinator).  Lookups by id
    keep resolving every registered host, mirroring the base semantics.
    """

    def __init__(self, view: "SiteCatalogView") -> None:
        self._view = view

    @property
    def _base(self) -> HostSet:
        return self._view.base.hosts

    def _adjust(self, host: Host) -> Host:
        foreign = self._view.foreign_allocation
        if foreign is None:
            return host
        cpu_used = foreign.cpu_used(host.host_id)
        bw_used = max(
            foreign.out_bandwidth_used(host.host_id),
            foreign.in_bandwidth_used(host.host_id),
        )
        if not cpu_used and not bw_used:
            return host
        # Host capacities must stay positive; a fully consumed resource is
        # clamped to an epsilon no placement can fit under the validation
        # tolerance, which blocks the host without breaking invariants.
        return Host(
            host_id=host.host_id,
            name=host.name,
            cpu_capacity=max(1e-9, host.cpu_capacity - cpu_used),
            bandwidth_capacity=max(1e-9, host.bandwidth_capacity - bw_used),
            site=host.site,
        )

    def get(self, host_id: int) -> Host:
        return self._adjust(self._base.get(host_id))

    def get_by_name(self, name: str) -> Host:
        return self._adjust(self._base.get_by_name(name))

    def is_active(self, host_id: int) -> bool:
        return self._base.is_active(host_id)

    @property
    def ids(self) -> List[int]:
        return [h for h in self._base.ids if h in self._view.site_hosts]

    @property
    def all_ids(self) -> List[int]:
        return [h for h in self._base.all_ids if h in self._view.site_hosts]

    @property
    def offline_ids(self) -> List[int]:
        return [h for h in self._base.offline_ids if h in self._view.site_hosts]

    def site_of(self, host_id: int) -> int:
        return self._base.site_of(host_id)

    def __iter__(self) -> Iterable[Host]:
        return (
            self._adjust(h) for h in self._base if h.host_id in self._view.site_hosts
        )

    def __len__(self) -> int:
        # Total registered count, like the base HostSet: id allocation stays
        # dense and global even through a site view.
        return len(self._base)


class SiteCatalogView:
    """A site-local, read-mostly view of a shared :class:`SystemCatalog`.

    The view shares the base catalog's streams, operators and queries (ids
    are global), but filters every *placement-facing* host accessor down to
    one site: :attr:`host_ids`, host iteration and
    :meth:`base_hosts_of` only see the site's hosts, so any planner driven
    through the view plans a purely site-local subproblem while producing
    an allocation in the global host-id space (directly mergeable with the
    other shards).

    :meth:`set_foreign_allocation` injects the structures *other* planners
    placed on this site's hosts (a federated coordinator's cross-site
    queries); the view then reports correspondingly reduced host and link
    capacities, so the site's own planner cannot overcommit shared hosts.

    Everything not overridden here delegates to the base catalog, including
    mutations such as :meth:`SystemCatalog.register_query`.
    """

    def __init__(self, base: SystemCatalog, site: int) -> None:
        if site not in set(base.sites):
            raise CatalogError(
                f"unknown site id {site}; catalog sites: {base.sites}"
            )
        self._base_catalog = base
        self.site = site
        self.site_hosts: FrozenSet[int] = frozenset(base.hosts_in_site(site))
        self.hosts = _SiteHostSetView(self)
        self.foreign_allocation = None

    @property
    def base(self) -> SystemCatalog:
        """The catalog this view filters."""
        return self._base_catalog

    def __getattr__(self, name: str):
        # Anything not overridden (streams, operators, queries, cost model,
        # aggregate capacities, WAN state, ...) resolves on the base catalog.
        return getattr(self._base_catalog, name)

    def set_foreign_allocation(self, allocation) -> None:
        """Declare the foreign structures occupying this site's resources
        (``None`` clears the adjustment)."""
        self.foreign_allocation = allocation

    def refresh(self) -> None:
        """Re-snapshot the site's host membership from the base catalog.

        Hosts can join a site after the view was built
        (:meth:`SystemCatalog.add_host` on a live system); callers reacting
        to topology changes refresh their views so the new capacity becomes
        visible.
        """
        self.site_hosts = frozenset(self._base_catalog.hosts_in_site(self.site))

    # ------------------------------------------------------------- host views
    @property
    def host_ids(self) -> List[int]:
        """Active host ids of this site only."""
        return [h for h in self._base_catalog.host_ids if h in self.site_hosts]

    @property
    def num_hosts(self) -> int:
        """Total registered hosts of the *base* catalog — ids stay dense and
        global so shard allocations merge without remapping."""
        return self._base_catalog.num_hosts

    def base_hosts_of(self, stream_id: int) -> FrozenSet[int]:
        """Active injection points of a base stream *within this site*."""
        return frozenset(
            h
            for h in self._base_catalog.base_hosts_of(stream_id)
            if h in self.site_hosts
        )

    def link_capacity(self, src: int, dst: int) -> float:
        """Intra-site link capacity, net of foreign usage on the link."""
        capacity = self._base_catalog.link_capacity(src, dst)
        foreign = self.foreign_allocation
        if foreign is not None and capacity and src != dst:
            capacity = max(0.0, capacity - foreign.link_used(src, dst))
        return capacity

    def summary(self) -> str:
        return (
            f"SiteCatalogView(site={self.site}, hosts={sorted(self.site_hosts)}, "
            f"base={self._base_catalog.summary()})"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"


class GatewayCatalogView:
    """A WAN-aware view of a :class:`SystemCatalog` for cross-site planning.

    Sees every host (unlike :class:`SiteCatalogView`) but caps the reported
    capacity of each *cross-site* host pair at the remaining effective WAN
    gateway capacity of its site pair — the configured capacity after drift
    and partitions, minus what the supplied live allocation already ships
    across that gateway.  A planner that only models per-host-pair link
    constraints (the SQPR MILP) therefore cannot route a stream over a
    partitioned or saturated gateway.

    The cap is conservative: the planner's own background usage of the same
    host pair is subtracted again by its model, and a plan shipping several
    new streams across one gateway is not jointly capped — the shared-WAN
    constraint proper is enforced by :meth:`Allocation.validate`.
    """

    def __init__(self, base: SystemCatalog, allocation_ref) -> None:
        self._base_catalog = base
        #: Zero-argument callable returning the live global allocation whose
        #: WAN usage the remaining gateway capacity is measured against.
        self._allocation_ref = allocation_ref

    @property
    def base(self) -> SystemCatalog:
        """The catalog this view wraps."""
        return self._base_catalog

    def __getattr__(self, name: str):
        return getattr(self._base_catalog, name)

    def link_capacity(self, src: int, dst: int) -> float:
        capacity = self._base_catalog.link_capacity(src, dst)
        if src == dst:
            return capacity
        src_site = self._base_catalog.site_of_host(src)
        dst_site = self._base_catalog.site_of_host(dst)
        if src_site == dst_site:
            return capacity
        effective = self._base_catalog.effective_wan_capacity(src_site, dst_site)
        if effective is None:
            return capacity
        allocation = self._allocation_ref()
        remaining = effective
        if allocation is not None:
            remaining -= allocation.wan_used(src_site, dst_site)
        return max(0.0, min(capacity, remaining))

    def __repr__(self) -> str:
        return f"<GatewayCatalogView of {self._base_catalog.summary()}>"
