"""The live allocation state (d, x, y, z) and its resource accounting.

An :class:`Allocation` mirrors the decision variables of the optimisation
model of §III-B as concrete sets:

* ``provided``   — d: which host serves each requested stream to clients,
* ``flows``      — x: which streams are shipped between which host pairs,
* ``available``  — y: which streams are available at which hosts,
* ``placements`` — z: which operators execute on which hosts.

It also tracks which queries have been admitted, computes the induced
resource usage (CPU per host, in/out host bandwidth, per-link bandwidth) and
can validate itself against the catalog: capacity constraints (III.6),
availability implications (III.5), demand constraints (III.4) and acyclicity
(III.7, checked structurally per stream).

Planners never mutate an allocation in place while exploring: they build a
:class:`PlacementDelta` and apply it only once a query is admitted.

Indexed state
-------------
The public collections are *observed*: ``flows``, ``available``,
``placements`` and ``admitted_queries`` are set subclasses and ``provided``
is a dict subclass that notify the owning allocation on every mutation, no
matter how the mutation arrives (``apply``, a baseline poking
``allocation.flows.add(...)`` directly, or the garbage collector rebuilding
a minimal allocation).  Every notification incrementally maintains

* reverse indexes (host→operators, operator→hosts, stream→available hosts,
  host→available streams, stream→flow edges, link→streams, host→flows,
  (host, stream)→flow sources, host→provided streams),
* cached resource aggregates (CPU and in/out bandwidth per host,
  bandwidth per link and per ordered site pair's WAN gateway),
* a rolling, order-independent allocation fingerprint
  (:meth:`Allocation.fingerprint`, used by the planner's model-reuse
  cache; its structural part tells the sub-plan index
  (:mod:`repro.dsps.subplan`) whether an external change happened),
* query-membership indexes (candidate stream → admitted queries, candidate
  operator → admitted queries, result stream → admitted queries) that make
  reuse-overlap enumeration at admission time proportional to the overlap,
  not to the resident-query count, and
* *touched* host/stream/operator accumulators
  (:meth:`Allocation.drain_touched`) that drive incremental invariant
  checking via :meth:`Allocation.validate_delta`.

The full :meth:`validate` deliberately recomputes resource usage with naive
full scans (the ``*_scan`` methods) so it stays an index-independent oracle:
if an index ever drifted from the ground-truth sets, delta validation and
the oracle would disagree and the property tests would catch it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.dsps.catalog import SystemCatalog
from repro.exceptions import AllocationError

FlowKey = Tuple[int, int, int]  # (src host, dst host, stream)
AvailKey = Tuple[int, int]  # (host, stream)
PlaceKey = Tuple[int, int]  # (host, operator)

#: Fingerprint tags: every item of every collection hashes with a distinct
#: integer tag so e.g. a flow and an availability entry can never cancel.
_FP_FLOW, _FP_AVAIL, _FP_PLACE, _FP_PROVIDED, _FP_ADMITTED = 1, 2, 3, 4, 5

_MISSING = object()


@dataclass
class PlacementDelta:
    """A set of changes to apply atomically to an :class:`Allocation`."""

    add_flows: Set[FlowKey] = field(default_factory=set)
    remove_flows: Set[FlowKey] = field(default_factory=set)
    add_available: Set[AvailKey] = field(default_factory=set)
    remove_available: Set[AvailKey] = field(default_factory=set)
    add_placements: Set[PlaceKey] = field(default_factory=set)
    remove_placements: Set[PlaceKey] = field(default_factory=set)
    set_provided: Dict[int, int] = field(default_factory=dict)
    unset_provided: Set[int] = field(default_factory=set)
    admit_queries: Set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        """Whether the delta changes nothing."""
        return not any(
            (
                self.add_flows,
                self.remove_flows,
                self.add_available,
                self.remove_available,
                self.add_placements,
                self.remove_placements,
                self.set_provided,
                self.unset_provided,
                self.admit_queries,
            )
        )


def delta_touched_sets(
    delta: PlacementDelta, catalog: SystemCatalog
) -> Tuple[Set[int], Set[int], Set[int]]:
    """The (hosts, streams, operators) a :class:`PlacementDelta` touches.

    This is the touched-set extractor for delta-based invariant checking:
    validating exactly these entities after applying ``delta`` to a
    previously valid allocation finds every violation the full
    :meth:`Allocation.validate` would find.
    """
    hosts: Set[int] = set()
    streams: Set[int] = set()
    operators: Set[int] = set()
    for src, dst, stream_id in delta.add_flows | delta.remove_flows:
        hosts.add(src)
        hosts.add(dst)
        streams.add(stream_id)
    for host, stream_id in delta.add_available | delta.remove_available:
        hosts.add(host)
        streams.add(stream_id)
    for host, operator_id in delta.add_placements | delta.remove_placements:
        hosts.add(host)
        operators.add(operator_id)
        streams.add(catalog.get_operator(operator_id).output_stream)
    for stream_id, host in delta.set_provided.items():
        hosts.add(host)
        streams.add(stream_id)
    streams |= delta.unset_provided
    return hosts, streams, operators


def touched_between(
    old: "Allocation", new: "Allocation"
) -> Tuple[Set[int], Set[int], Set[int]]:
    """Touched (hosts, streams, operators) between two allocation states.

    Used when an event *replaces* an allocation object (garbage collection,
    host failure, adaptive re-planning) so per-mutation touched tracking is
    unavailable: the symmetric differences of the ground-truth collections
    give exactly the entities whose constraints could have changed.  Set
    differences run in C, so this is far cheaper than a full re-validation
    even though it is linear in the allocation size.
    """
    hosts: Set[int] = set()
    streams: Set[int] = set()
    operators: Set[int] = set()
    catalog = new.catalog
    for src, dst, stream_id in set.symmetric_difference(old.flows, new.flows):
        hosts.add(src)
        hosts.add(dst)
        streams.add(stream_id)
    for host, stream_id in set.symmetric_difference(old.available, new.available):
        hosts.add(host)
        streams.add(stream_id)
    for host, operator_id in set.symmetric_difference(
        old.placements, new.placements
    ):
        hosts.add(host)
        operators.add(operator_id)
        streams.add(catalog.get_operator(operator_id).output_stream)
    for stream_id in set(old.provided) | set(new.provided):
        old_host = old.provided.get(stream_id)
        new_host = new.provided.get(stream_id)
        if old_host != new_host:
            streams.add(stream_id)
            if old_host is not None:
                hosts.add(old_host)
            if new_host is not None:
                hosts.add(new_host)
    return hosts, streams, operators


class _ObservedSet(set):
    """A set that notifies its owner on every successful add/remove.

    All mutating entry points — including the in-place operators and bulk
    updates — funnel through :meth:`add`/:meth:`discard`, so index
    maintenance sees exactly one callback per element that actually entered
    or left the set.  Non-mutating operators (``|``, ``&``, ``^``, ``-``)
    inherit from :class:`set` and return plain sets.
    """

    __slots__ = ("_added", "_removed")

    def __init__(self, added, removed, items: Iterable = ()) -> None:
        set.__init__(self)
        self._added = added
        self._removed = removed
        for item in items:
            self.add(item)

    # ------------------------------------------------------------ single item
    def add(self, item) -> None:
        if item not in self:
            set.add(self, item)
            self._added(item)

    def discard(self, item) -> None:
        if item in self:
            set.discard(self, item)
            self._removed(item)

    def remove(self, item) -> None:
        if item not in self:
            raise KeyError(item)
        set.discard(self, item)
        self._removed(item)

    def pop(self):
        item = set.pop(self)
        self._removed(item)
        return item

    def clear(self) -> None:
        while self:
            self.pop()

    # ------------------------------------------------------------------- bulk
    def update(self, *others) -> None:
        for other in others:
            for item in other:
                self.add(item)

    def __ior__(self, other):
        self.update(other)
        return self

    def difference_update(self, *others) -> None:
        for other in others:
            items = list(other) if other is self else other
            for item in items:
                self.discard(item)

    def __isub__(self, other):
        self.difference_update(other)
        return self

    def intersection_update(self, *others) -> None:
        keep = set(self).intersection(*others)
        for item in [item for item in self if item not in keep]:
            self.discard(item)

    def __iand__(self, other):
        self.intersection_update(other)
        return self

    def symmetric_difference_update(self, other) -> None:
        # Deduplicate first: builtin set semantics toggle each *distinct*
        # element once, not once per occurrence in the iterable.
        for item in set(other):
            if item in self:
                self.discard(item)
            else:
                self.add(item)

    def __ixor__(self, other):
        self.symmetric_difference_update(other)
        return self

    def __reduce__(self):  # pragma: no cover - defensive
        raise TypeError("observed allocation sets cannot be pickled")


class _ObservedDict(dict):
    """A dict that notifies its owner on every key set/unset."""

    __slots__ = ("_set", "_unset")

    def __init__(self, set_hook, unset_hook) -> None:
        dict.__init__(self)
        self._set = set_hook
        self._unset = unset_hook

    def __setitem__(self, key, value) -> None:
        old = dict.get(self, key, _MISSING)
        if old is not _MISSING:
            if old == value:
                return
            self._unset(key, old)
        dict.__setitem__(self, key, value)
        self._set(key, value)

    def __delitem__(self, key) -> None:
        old = dict.pop(self, key)
        self._unset(key, old)

    def pop(self, key, *default):
        if key in self:
            old = dict.pop(self, key)
            self._unset(key, old)
            return old
        if default:
            return default[0]
        raise KeyError(key)

    def popitem(self):
        key, value = dict.popitem(self)
        self._unset(key, value)
        return key, value

    def update(self, *args, **kwargs) -> None:
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __ior__(self, other):
        # dict.__ior__ merges at the C level, bypassing __setitem__;
        # route it through update() so the hooks always fire.
        self.update(other)
        return self

    def clear(self) -> None:
        while self:
            self.popitem()

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]
        self[key] = default
        return default

    def __reduce__(self):  # pragma: no cover - defensive
        raise TypeError("observed allocation dicts cannot be pickled")


class Allocation:
    """The global placement state of the DSPS."""

    def __init__(self, catalog: SystemCatalog) -> None:
        self.catalog = catalog
        self._init_indexes()
        self.provided: Dict[int, int] = _ObservedDict(
            self._provided_set, self._provided_unset
        )
        self.flows: Set[FlowKey] = _ObservedSet(self._flow_added, self._flow_removed)
        self.available: Set[AvailKey] = _ObservedSet(
            self._avail_added, self._avail_removed
        )
        self.placements: Set[PlaceKey] = _ObservedSet(
            self._placement_added, self._placement_removed
        )
        self.admitted_queries: Set[int] = _ObservedSet(
            self._admitted_added, self._admitted_removed
        )

    def _init_indexes(self) -> None:
        # Reverse indexes over the ground-truth collections.
        self._ops_by_host: Dict[int, Set[int]] = {}
        self._hosts_by_op: Dict[int, Set[int]] = {}
        self._avail_by_stream: Dict[int, Set[int]] = {}
        self._avail_by_host: Dict[int, Set[int]] = {}
        self._flow_edges_by_stream: Dict[int, Set[Tuple[int, int]]] = {}
        self._flows_by_link: Dict[Tuple[int, int], Set[int]] = {}
        self._flows_by_host: Dict[int, Set[FlowKey]] = {}
        self._sources_by_sink: Dict[Tuple[int, int], Set[int]] = {}
        self._provided_by_host: Dict[int, Set[int]] = {}
        # Per-host outgoing/incoming flow multiplicities per stream (a host
        # may ship one stream to several destinations).
        self._out_count: Dict[int, Dict[int, int]] = {}
        self._in_count: Dict[int, Dict[int, int]] = {}
        # Cached resource aggregates.  Entries are removed when they drop to
        # exactly zero elements, so no float residue accumulates on hosts
        # that emptied out.
        self._cpu_cache: Dict[int, float] = {}
        self._out_bw: Dict[int, float] = {}
        self._in_bw: Dict[int, float] = {}
        self._link_bw: Dict[Tuple[int, int], float] = {}
        # Bandwidth crossing each ordered site pair's shared WAN gateway
        # (federated topologies).  Entry counts guard the exact-zero
        # cleanup, like the per-host caches above.
        self._wan_bw: Dict[Tuple[int, int], float] = {}
        self._wan_count: Dict[Tuple[int, int], int] = {}
        # Query-membership indexes over the admitted set: which admitted
        # queries list a stream/operator among their candidates, and which
        # admitted queries request a given result stream.  Maintained by the
        # admitted hooks (guarded — ids the catalog does not know are simply
        # not indexed) and consumed by the reuse-matching path.
        self._queries_by_stream: Dict[int, Set[int]] = {}
        self._queries_by_operator: Dict[int, Set[int]] = {}
        self._queries_by_result: Dict[int, Set[int]] = {}
        # Rolling fingerprint + touched accumulators.
        self._fingerprint = 0
        # XOR of the admitted-query terms alone, so the *structural*
        # fingerprint (everything except admitted membership) is available
        # in O(1): structural = _fingerprint ^ _admitted_fp.
        self._admitted_fp = 0
        self._touched_hosts: Set[int] = set()
        self._touched_streams: Set[int] = set()
        self._touched_operators: Set[int] = set()

    # ------------------------------------------------------------- index hooks
    def _flow_added(self, key: FlowKey) -> None:
        src, dst, stream_id = key
        rate = self.catalog.stream_rate(stream_id)
        self._flow_edges_by_stream.setdefault(stream_id, set()).add((src, dst))
        self._flows_by_link.setdefault((src, dst), set()).add(stream_id)
        self._link_bw[(src, dst)] = self._link_bw.get((src, dst), 0.0) + rate
        self._flows_by_host.setdefault(src, set()).add(key)
        self._flows_by_host.setdefault(dst, set()).add(key)
        self._sources_by_sink.setdefault((dst, stream_id), set()).add(src)
        out = self._out_count.setdefault(src, {})
        out[stream_id] = out.get(stream_id, 0) + 1
        self._out_bw[src] = self._out_bw.get(src, 0.0) + rate
        inn = self._in_count.setdefault(dst, {})
        inn[stream_id] = inn.get(stream_id, 0) + 1
        self._in_bw[dst] = self._in_bw.get(dst, 0.0) + rate
        src_site = self.catalog.site_of_host(src)
        dst_site = self.catalog.site_of_host(dst)
        if src_site != dst_site:
            pair = (src_site, dst_site)
            self._wan_bw[pair] = self._wan_bw.get(pair, 0.0) + rate
            self._wan_count[pair] = self._wan_count.get(pair, 0) + 1
        self._fingerprint ^= hash((_FP_FLOW, src, dst, stream_id))
        self._touched_hosts.add(src)
        self._touched_hosts.add(dst)
        self._touched_streams.add(stream_id)

    def _flow_removed(self, key: FlowKey) -> None:
        src, dst, stream_id = key
        rate = self.catalog.stream_rate(stream_id)
        edges = self._flow_edges_by_stream[stream_id]
        edges.discard((src, dst))
        if not edges:
            del self._flow_edges_by_stream[stream_id]
        link_streams = self._flows_by_link[(src, dst)]
        link_streams.discard(stream_id)
        if not link_streams:
            del self._flows_by_link[(src, dst)]
            del self._link_bw[(src, dst)]
        else:
            self._link_bw[(src, dst)] -= rate
        for host in {src, dst}:
            per_host = self._flows_by_host[host]
            per_host.discard(key)
            if not per_host:
                del self._flows_by_host[host]
        sources = self._sources_by_sink[(dst, stream_id)]
        sources.discard(src)
        if not sources:
            del self._sources_by_sink[(dst, stream_id)]
        out = self._out_count[src]
        out[stream_id] -= 1
        if not out[stream_id]:
            del out[stream_id]
        if not out:
            del self._out_count[src]
        if src in self._out_count or src in self._provided_by_host:
            self._out_bw[src] -= rate
        else:
            del self._out_bw[src]
        inn = self._in_count[dst]
        inn[stream_id] -= 1
        if not inn[stream_id]:
            del inn[stream_id]
        if not inn:
            del self._in_count[dst]
            del self._in_bw[dst]
        else:
            self._in_bw[dst] -= rate
        src_site = self.catalog.site_of_host(src)
        dst_site = self.catalog.site_of_host(dst)
        if src_site != dst_site:
            pair = (src_site, dst_site)
            self._wan_count[pair] -= 1
            if not self._wan_count[pair]:
                del self._wan_count[pair]
                del self._wan_bw[pair]
            else:
                self._wan_bw[pair] -= rate
        self._fingerprint ^= hash((_FP_FLOW, src, dst, stream_id))
        self._touched_hosts.add(src)
        self._touched_hosts.add(dst)
        self._touched_streams.add(stream_id)

    def _avail_added(self, key: AvailKey) -> None:
        host, stream_id = key
        self._avail_by_stream.setdefault(stream_id, set()).add(host)
        self._avail_by_host.setdefault(host, set()).add(stream_id)
        self._fingerprint ^= hash((_FP_AVAIL, host, stream_id))
        self._touched_hosts.add(host)
        self._touched_streams.add(stream_id)

    def _avail_removed(self, key: AvailKey) -> None:
        host, stream_id = key
        hosts = self._avail_by_stream[stream_id]
        hosts.discard(host)
        if not hosts:
            del self._avail_by_stream[stream_id]
        streams = self._avail_by_host[host]
        streams.discard(stream_id)
        if not streams:
            del self._avail_by_host[host]
        self._fingerprint ^= hash((_FP_AVAIL, host, stream_id))
        self._touched_hosts.add(host)
        self._touched_streams.add(stream_id)

    def _placement_added(self, key: PlaceKey) -> None:
        host, operator_id = key
        self._ops_by_host.setdefault(host, set()).add(operator_id)
        self._hosts_by_op.setdefault(operator_id, set()).add(host)
        operator = self.catalog.get_operator(operator_id)
        self._cpu_cache[host] = self._cpu_cache.get(host, 0.0) + operator.cpu_cost
        self._fingerprint ^= hash((_FP_PLACE, host, operator_id))
        self._touched_hosts.add(host)
        self._touched_operators.add(operator_id)
        self._touched_streams.add(operator.output_stream)

    def _placement_removed(self, key: PlaceKey) -> None:
        host, operator_id = key
        operator = self.catalog.get_operator(operator_id)
        ops = self._ops_by_host[host]
        ops.discard(operator_id)
        if not ops:
            del self._ops_by_host[host]
            del self._cpu_cache[host]
        else:
            self._cpu_cache[host] -= operator.cpu_cost
        hosts = self._hosts_by_op[operator_id]
        hosts.discard(host)
        if not hosts:
            del self._hosts_by_op[operator_id]
        self._fingerprint ^= hash((_FP_PLACE, host, operator_id))
        self._touched_hosts.add(host)
        self._touched_operators.add(operator_id)
        self._touched_streams.add(operator.output_stream)

    def _provided_set(self, stream_id: int, host: int) -> None:
        self._provided_by_host.setdefault(host, set()).add(stream_id)
        self._out_bw[host] = self._out_bw.get(host, 0.0) + self.catalog.stream_rate(
            stream_id
        )
        self._fingerprint ^= hash((_FP_PROVIDED, stream_id, host))
        self._touched_hosts.add(host)
        self._touched_streams.add(stream_id)

    def _provided_unset(self, stream_id: int, host: int) -> None:
        streams = self._provided_by_host[host]
        streams.discard(stream_id)
        if not streams:
            del self._provided_by_host[host]
        if host in self._out_count or host in self._provided_by_host:
            self._out_bw[host] -= self.catalog.stream_rate(stream_id)
        else:
            del self._out_bw[host]
        self._fingerprint ^= hash((_FP_PROVIDED, stream_id, host))
        self._touched_hosts.add(host)
        self._touched_streams.add(stream_id)

    def _admitted_added(self, query_id: int) -> None:
        term = hash((_FP_ADMITTED, query_id))
        self._fingerprint ^= term
        self._admitted_fp ^= term
        catalog = self.catalog
        if not catalog.has_query(query_id):
            # Tests (and defensive callers) may admit ids the catalog does
            # not know; they simply stay out of the membership indexes.
            return
        query = catalog.get_query(query_id)
        for stream_id in query.candidate_streams:
            self._queries_by_stream.setdefault(stream_id, set()).add(query_id)
        for operator_id in query.candidate_operators:
            self._queries_by_operator.setdefault(operator_id, set()).add(query_id)
        self._queries_by_result.setdefault(query.result_stream, set()).add(
            query_id
        )

    def _admitted_removed(self, query_id: int) -> None:
        term = hash((_FP_ADMITTED, query_id))
        self._fingerprint ^= term
        self._admitted_fp ^= term
        catalog = self.catalog
        if not catalog.has_query(query_id):
            return
        query = catalog.get_query(query_id)
        for stream_id in query.candidate_streams:
            members = self._queries_by_stream.get(stream_id)
            if members is not None:
                members.discard(query_id)
                if not members:
                    del self._queries_by_stream[stream_id]
        for operator_id in query.candidate_operators:
            members = self._queries_by_operator.get(operator_id)
            if members is not None:
                members.discard(query_id)
                if not members:
                    del self._queries_by_operator[operator_id]
        members = self._queries_by_result.get(query.result_stream)
        if members is not None:
            members.discard(query_id)
            if not members:
                del self._queries_by_result[query.result_stream]

    # ---------------------------------------------------------------- copying
    def copy(self) -> "Allocation":
        """A deep-enough copy sharing the (immutable) catalog.

        The ground-truth collections *and* every index structure are copied
        directly (plain C-level ``set``/``dict`` copies) instead of being
        rebuilt element-by-element through the observation hooks — copies
        are taken on every candidate-exploration step of the baselines and
        on the garbage-collection path, so this is hot.
        """
        clone = object.__new__(Allocation)
        clone.catalog = self.catalog
        clone.provided = _ObservedDict(clone._provided_set, clone._provided_unset)
        dict.update(clone.provided, self.provided)
        clone.flows = _ObservedSet(clone._flow_added, clone._flow_removed)
        set.update(clone.flows, self.flows)
        clone.available = _ObservedSet(clone._avail_added, clone._avail_removed)
        set.update(clone.available, self.available)
        clone.placements = _ObservedSet(
            clone._placement_added, clone._placement_removed
        )
        set.update(clone.placements, self.placements)
        clone.admitted_queries = _ObservedSet(
            clone._admitted_added, clone._admitted_removed
        )
        set.update(clone.admitted_queries, self.admitted_queries)
        clone._ops_by_host = {h: set(v) for h, v in self._ops_by_host.items()}
        clone._hosts_by_op = {o: set(v) for o, v in self._hosts_by_op.items()}
        clone._avail_by_stream = {
            s: set(v) for s, v in self._avail_by_stream.items()
        }
        clone._avail_by_host = {h: set(v) for h, v in self._avail_by_host.items()}
        clone._flow_edges_by_stream = {
            s: set(v) for s, v in self._flow_edges_by_stream.items()
        }
        clone._flows_by_link = {k: set(v) for k, v in self._flows_by_link.items()}
        clone._flows_by_host = {h: set(v) for h, v in self._flows_by_host.items()}
        clone._sources_by_sink = {
            k: set(v) for k, v in self._sources_by_sink.items()
        }
        clone._provided_by_host = {
            h: set(v) for h, v in self._provided_by_host.items()
        }
        clone._out_count = {h: dict(v) for h, v in self._out_count.items()}
        clone._in_count = {h: dict(v) for h, v in self._in_count.items()}
        clone._cpu_cache = dict(self._cpu_cache)
        clone._out_bw = dict(self._out_bw)
        clone._in_bw = dict(self._in_bw)
        clone._link_bw = dict(self._link_bw)
        clone._wan_bw = dict(self._wan_bw)
        clone._wan_count = dict(self._wan_count)
        clone._queries_by_stream = {
            s: set(v) for s, v in self._queries_by_stream.items()
        }
        clone._queries_by_operator = {
            o: set(v) for o, v in self._queries_by_operator.items()
        }
        clone._queries_by_result = {
            s: set(v) for s, v in self._queries_by_result.items()
        }
        clone._admitted_fp = self._admitted_fp
        clone._fingerprint = self._fingerprint
        # Pending touched state is inherited: a copy taken mid-event (the
        # garbage-collection path) must not lose track of what the event
        # already mutated, or delta validation of the successor object
        # would skip those entities.
        clone._touched_hosts = set(self._touched_hosts)
        clone._touched_streams = set(self._touched_streams)
        clone._touched_operators = set(self._touched_operators)
        return clone

    # ---------------------------------------------------------------- queries
    def is_provided(self, stream_id: int) -> bool:
        """Whether some host currently serves ``stream_id`` to clients."""
        return stream_id in self.provided

    def provider_of(self, stream_id: int) -> Optional[int]:
        """The host serving ``stream_id`` to clients, if any."""
        return self.provided.get(stream_id)

    def is_available(self, host: int, stream_id: int) -> bool:
        """Whether stream ``stream_id`` is available at ``host`` (y)."""
        return (host, stream_id) in self.available

    def has_placement(self, host: int, operator_id: int) -> bool:
        """Whether operator ``operator_id`` runs on ``host`` (z)."""
        return (host, operator_id) in self.placements

    def hosts_with_stream(self, stream_id: int) -> FrozenSet[int]:
        """All hosts at which the stream is available."""
        return frozenset(self._avail_by_stream.get(stream_id, ()))

    def hosts_of_operator(self, operator_id: int) -> FrozenSet[int]:
        """All hosts on which the operator is placed."""
        return frozenset(self._hosts_by_op.get(operator_id, ()))

    def flow_sources(self, host: int, stream_id: int) -> List[int]:
        """Hosts currently sending ``stream_id`` to ``host``."""
        return sorted(self._sources_by_sink.get((host, stream_id), ()))

    def placed_operators(self) -> List[int]:
        """Sorted ids of every operator with at least one placement."""
        return sorted(self._hosts_by_op)

    def flow_edges_of_stream(self, stream_id: int) -> FrozenSet[Tuple[int, int]]:
        """The (src, dst) edges currently shipping ``stream_id``."""
        return frozenset(self._flow_edges_by_stream.get(stream_id, ()))

    # ----------------------------------------------- query-membership indexes
    def queries_using_stream(self, stream_id: int) -> FrozenSet[int]:
        """Admitted queries with ``stream_id`` among their candidate streams.

        This is the reuse-overlap index: enumerating which resident queries
        could share work with an arriving query costs O(overlap), not
        O(resident queries).  Ids the catalog does not know are never
        indexed (see :meth:`_admitted_added`).
        """
        return frozenset(self._queries_by_stream.get(stream_id, ()))

    def queries_using_operator(self, operator_id: int) -> FrozenSet[int]:
        """Admitted queries with ``operator_id`` among their candidates."""
        return frozenset(self._queries_by_operator.get(operator_id, ()))

    def is_result_held(self, stream_id: int) -> bool:
        """Whether any admitted query's result stream is ``stream_id`` (O(1))."""
        return stream_id in self._queries_by_result

    def queries_using_stream_scan(self, stream_id: int) -> FrozenSet[int]:
        """Full-scan recomputation of :meth:`queries_using_stream`."""
        catalog = self.catalog
        return frozenset(
            qid
            for qid in self.admitted_queries
            if catalog.has_query(qid)
            and stream_id in catalog.get_query(qid).candidate_streams
        )

    def queries_using_operator_scan(self, operator_id: int) -> FrozenSet[int]:
        """Full-scan recomputation of :meth:`queries_using_operator`."""
        catalog = self.catalog
        return frozenset(
            qid
            for qid in self.admitted_queries
            if catalog.has_query(qid)
            and operator_id in catalog.get_query(qid).candidate_operators
        )

    def queries_for_result_scan(self, stream_id: int) -> FrozenSet[int]:
        """Admitted queries whose result stream is ``stream_id``, by full
        scan (the oracle for :meth:`is_result_held`)."""
        catalog = self.catalog
        return frozenset(
            qid
            for qid in self.admitted_queries
            if catalog.has_query(qid)
            and catalog.get_query(qid).result_stream == stream_id
        )

    # ----------------------------------------------------------- resource usage
    def cpu_used(self, host: int, exclude_operators: Optional[Set[int]] = None) -> float:
        """CPU consumed on ``host`` (optionally excluding some operators)."""
        total = self._cpu_cache.get(host, 0.0)
        if exclude_operators:
            placed = self._ops_by_host.get(host)
            if placed:
                for operator_id in placed.intersection(exclude_operators):
                    total -= self.catalog.get_operator(operator_id).cpu_cost
        return total

    def _excluded_flow_rate(
        self, counts: Optional[Dict[int, int]], exclude_streams: Set[int]
    ) -> float:
        """Total rate of excluded streams in a per-host flow-count map,
        iterating whichever of the two is smaller."""
        if not counts:
            return 0.0
        rate = self.catalog.stream_rate
        total = 0.0
        if len(exclude_streams) < len(counts):
            for stream_id in exclude_streams:
                count = counts.get(stream_id)
                if count:
                    total += count * rate(stream_id)
        else:
            for stream_id, count in counts.items():
                if stream_id in exclude_streams:
                    total += count * rate(stream_id)
        return total

    def out_bandwidth_used(self, host: int, exclude_streams: Optional[Set[int]] = None) -> float:
        """Outgoing bandwidth used at ``host`` — flows out plus client delivery."""
        total = self._out_bw.get(host, 0.0)
        if exclude_streams and total:
            total -= self._excluded_flow_rate(
                self._out_count.get(host), exclude_streams
            )
            delivered = self._provided_by_host.get(host)
            if delivered:
                rate = self.catalog.stream_rate
                for stream_id in delivered.intersection(exclude_streams):
                    total -= rate(stream_id)
        return total

    def in_bandwidth_used(self, host: int, exclude_streams: Optional[Set[int]] = None) -> float:
        """Incoming bandwidth used at ``host`` from flows."""
        total = self._in_bw.get(host, 0.0)
        if exclude_streams and total:
            total -= self._excluded_flow_rate(
                self._in_count.get(host), exclude_streams
            )
        return total

    def link_used(self, src: int, dst: int, exclude_streams: Optional[Set[int]] = None) -> float:
        """Bandwidth used on the directed link ``src -> dst``."""
        total = self._link_bw.get((src, dst), 0.0)
        if exclude_streams and total:
            streams = self._flows_by_link.get((src, dst))
            if streams:
                rate = self.catalog.stream_rate
                for stream_id in streams.intersection(exclude_streams):
                    total -= rate(stream_id)
        return total

    def cpu_utilisation(self, host: int) -> float:
        """Fraction of the host's CPU capacity in use (0..1+)."""
        capacity = self.catalog.hosts.get(host).cpu_capacity
        return self.cpu_used(host) / capacity if capacity > 0 else 0.0

    def network_usage(self, host: int) -> float:
        """Total data rate sent plus received by ``host`` (for Fig. 7c)."""
        return self.out_bandwidth_used(host) + self.in_bandwidth_used(host)

    def max_cpu_used(self) -> float:
        """The O4 objective value: maximum CPU consumption over hosts."""
        if not self._cpu_cache:
            return 0.0
        offline = self.catalog.hosts.offline_ids
        if offline:
            offline = set(offline)
            return max(
                (used for host, used in self._cpu_cache.items() if host not in offline),
                default=0.0,
            )
        return max(self._cpu_cache.values())

    def total_cpu_used(self) -> float:
        """The O3 objective value: system-wide CPU consumption."""
        offline = self.catalog.hosts.offline_ids
        if offline:
            offline = set(offline)
            return sum(
                used for host, used in self._cpu_cache.items() if host not in offline
            )
        return sum(self._cpu_cache.values())

    def total_network_used(self) -> float:
        """The O2 objective value: system-wide inter-host traffic."""
        return sum(self._link_bw.values())

    # ------------------------------------------------------ per-site aggregates
    def wan_used(
        self,
        src_site: int,
        dst_site: int,
        exclude_streams: Optional[Set[int]] = None,
    ) -> float:
        """Bandwidth crossing the shared WAN gateway ``src_site ->
        dst_site`` (O(1); zero inside one site).

        ``exclude_streams`` discounts the crossings of the given streams
        (the re-planning background computation, mirroring
        :meth:`link_used`).
        """
        total = self._wan_bw.get((src_site, dst_site), 0.0)
        if exclude_streams and total:
            site_of = self.catalog.site_of_host
            rate = self.catalog.stream_rate
            for stream_id in exclude_streams:
                for src, dst in self._flow_edges_by_stream.get(stream_id, ()):
                    if site_of(src) == src_site and site_of(dst) == dst_site:
                        total -= rate(stream_id)
        return total

    def wan_usage(self) -> Dict[Tuple[int, int], float]:
        """Snapshot of every ordered site pair with non-zero WAN traffic."""
        return dict(self._wan_bw)

    # ------------------------------------------------- naive full-scan oracles
    def cpu_used_scan(self, host: int, exclude_operators: Optional[Set[int]] = None) -> float:
        """Full-scan recomputation of :meth:`cpu_used` (index-independent)."""
        exclude = exclude_operators or set()
        return sum(
            self.catalog.get_operator(o).cpu_cost
            for (h, o) in self.placements
            if h == host and o not in exclude
        )

    def out_bandwidth_used_scan(
        self, host: int, exclude_streams: Optional[Set[int]] = None
    ) -> float:
        """Full-scan recomputation of :meth:`out_bandwidth_used`."""
        exclude = exclude_streams or set()
        total = sum(
            self.catalog.stream_rate(s)
            for (src, _dst, s) in self.flows
            if src == host and s not in exclude
        )
        total += sum(
            self.catalog.stream_rate(s)
            for s, h in self.provided.items()
            if h == host and s not in exclude
        )
        return total

    def in_bandwidth_used_scan(
        self, host: int, exclude_streams: Optional[Set[int]] = None
    ) -> float:
        """Full-scan recomputation of :meth:`in_bandwidth_used`."""
        exclude = exclude_streams or set()
        return sum(
            self.catalog.stream_rate(s)
            for (_src, dst, s) in self.flows
            if dst == host and s not in exclude
        )

    def link_used_scan(
        self, src: int, dst: int, exclude_streams: Optional[Set[int]] = None
    ) -> float:
        """Full-scan recomputation of :meth:`link_used`."""
        exclude = exclude_streams or set()
        return sum(
            self.catalog.stream_rate(s)
            for (h, m, s) in self.flows
            if h == src and m == dst and s not in exclude
        )

    def max_cpu_used_scan(self) -> float:
        """Full-scan recomputation of :meth:`max_cpu_used`."""
        if self.catalog.num_hosts == 0:
            return 0.0
        return max(self.cpu_used_scan(h) for h in self.catalog.host_ids)

    def wan_used_scan(self, src_site: int, dst_site: int) -> float:
        """Full-scan recomputation of :meth:`wan_used`."""
        catalog = self.catalog
        return sum(
            catalog.stream_rate(s)
            for (src, dst, s) in self.flows
            if catalog.site_of_host(src) == src_site
            and catalog.site_of_host(dst) == dst_site
            and src_site != dst_site
        )

    # ------------------------------------------------- fingerprint and touched
    def fingerprint(self) -> Tuple:
        """A hashable rolling snapshot of the allocation contents.

        Maintained in O(1) per mutation: each element of each collection
        contributes an order-independent XOR term (with a per-collection
        tag), and the element counts guard against trivial cancellation.
        Equal-content allocations always produce equal fingerprints
        regardless of mutation history; distinct contents collide only with
        the probability of a 64-bit XOR-hash collision, which the planner's
        model-reuse cache accepts in exchange for never re-scanning the
        allocation (see :class:`repro.core.model_builder.ModelReuseCache`).
        """
        return (
            self._fingerprint,
            len(self.flows),
            len(self.available),
            len(self.placements),
            len(self.provided),
            len(self.admitted_queries),
        )

    def structural_fingerprint(self) -> Tuple:
        """Like :meth:`fingerprint`, but blind to admitted-query membership.

        The sub-plan index keys its freshness check on this: admitting a
        duplicate query (or any other admitted-set-only bookkeeping) changes
        no placement structure, so it must not force an index resync.
        """
        return (
            self._fingerprint ^ self._admitted_fp,
            len(self.flows),
            len(self.available),
            len(self.placements),
            len(self.provided),
        )

    def drain_touched(self) -> Tuple[Set[int], Set[int], Set[int]]:
        """Return and reset the (hosts, streams, operators) touched so far.

        Every index-maintaining mutation records which entities it touched;
        the simulation harness drains this accumulator after each event and
        validates only the drained sets via :meth:`validate_delta`.
        """
        touched = (
            self._touched_hosts,
            self._touched_streams,
            self._touched_operators,
        )
        self._touched_hosts = set()
        self._touched_streams = set()
        self._touched_operators = set()
        return touched

    def peek_touched(self) -> Tuple[Set[int], Set[int], Set[int]]:
        """Copies of the pending touched sets, without draining them.

        Lets an intermediate consumer (the cluster engine validating a host
        failure) act on the accumulated touched state while leaving it in
        place for the final consumer of the event (the harness).
        """
        return (
            set(self._touched_hosts),
            set(self._touched_streams),
            set(self._touched_operators),
        )

    def inherit_touched(self, source: "Allocation") -> None:
        """Adopt ``source``'s pending touched state plus the diff to it.

        Called by :func:`repro.dsps.plan.rebuild_minimal_allocation` after a
        rebuild: the rebuilt object's own accumulator only records its
        construction (i.e. everything), so it is drained and re-seeded with
        what actually changed relative to ``source`` — the garbage-collected
        structures — plus whatever ``source`` itself had pending from
        earlier mutations in the same event.  This keeps
        ``drain_touched()`` on the successor object a complete record of
        the event's net changes across object replacements.
        """
        self.drain_touched()
        hosts, streams, operators = touched_between(source, self)
        self._touched_hosts = hosts | source._touched_hosts
        self._touched_streams = streams | source._touched_streams
        self._touched_operators = operators | source._touched_operators

    # ---------------------------------------------------------------- mutation
    def apply(self, delta: PlacementDelta) -> None:
        """Apply ``delta`` in place (removals first, then additions)."""
        self.flows -= delta.remove_flows
        self.available -= delta.remove_available
        self.placements -= delta.remove_placements
        for stream_id in delta.unset_provided:
            self.provided.pop(stream_id, None)
        self.flows |= delta.add_flows
        self.available |= delta.add_available
        self.placements |= delta.add_placements
        self.provided.update(delta.set_provided)
        self.admitted_queries |= delta.admit_queries

    def admit_query(self, query_id: int) -> None:
        """Mark a query as admitted."""
        self.admitted_queries.add(query_id)

    def without_queries(self, query_ids: Iterable[int]) -> "Allocation":
        """A new allocation with ``query_ids`` removed and garbage-collected.

        This is §IV-B's "considering the system without those queries": the
        queries leave the admitted set, their result streams stop being
        provided unless another admitted query still requests them, and the
        remainder is rebuilt down to the structures the surviving queries
        actually need (via
        :func:`repro.dsps.plan.rebuild_minimal_allocation`).  The result is
        a subset of ``self``, so it cannot violate resource capacities this
        allocation satisfied.  ``self`` is left untouched.
        """
        from repro.dsps.plan import rebuild_minimal_allocation  # avoid a cycle

        removed = set(query_ids) & self.admitted_queries
        if not removed:
            return self.copy()
        shrunk = self.copy()
        shrunk.admitted_queries -= removed
        surviving_results = {
            self.catalog.get_query(qid).result_stream
            for qid in shrunk.admitted_queries
        }
        for query_id in removed:
            result_stream = self.catalog.get_query(query_id).result_stream
            if result_stream not in surviving_results:
                shrunk.provided.pop(result_stream, None)
        return rebuild_minimal_allocation(self.catalog, shrunk)

    # -------------------------------------------------------------- validation
    def validate(self, tol: float = 1e-6) -> List[str]:
        """Check the allocation against all model constraints; list violations.

        This is the full, index-independent oracle: it scans the
        ground-truth collections and recomputes resource usage with the
        ``*_scan`` helpers, so it cannot be fooled by a drifted index or a
        stale cached aggregate.  The hot path uses :meth:`validate_delta`;
        the simulation harness still runs this oracle on the final state.
        """
        violations: List[str] = []
        catalog = self.catalog

        # Liveness: nothing may run on, flow through or be served from a host
        # that is currently offline (a failed host has no resources at all).
        offline = set(catalog.hosts.offline_ids)
        if offline:
            for host, operator_id in self.placements:
                if host in offline:
                    violations.append(
                        f"liveness: operator {operator_id} placed on offline host {host}"
                    )
            for src, dst, stream_id in self.flows:
                if src in offline or dst in offline:
                    violations.append(
                        f"liveness: flow {src}->{dst} of stream {stream_id} "
                        f"touches an offline host"
                    )
            for stream_id, host in self.provided.items():
                if host in offline:
                    violations.append(
                        f"liveness: stream {stream_id} provided from offline host {host}"
                    )
            for host, stream_id in self.available:
                if host in offline:
                    violations.append(
                        f"liveness: stream {stream_id} marked available at "
                        f"offline host {host}"
                    )

        # Demand constraints (III.4): provided streams must be requested and
        # available at the providing host.
        requested = catalog.requested_streams
        for stream_id, host in self.provided.items():
            if stream_id not in requested:
                violations.append(
                    f"demand: stream {stream_id} is provided but not requested"
                )
            if (host, stream_id) not in self.available:
                violations.append(
                    f"demand: host {host} provides stream {stream_id} without having it"
                )

        # Availability constraints (III.5): y implies a source; x and z imply y.
        for host, stream_id in self.available:
            stream = catalog.streams.get(stream_id)
            has_flow_in = any(
                dst == host and s == stream_id for (_src, dst, s) in self.flows
            )
            generates = any(
                catalog.get_operator(o).output_stream == stream_id
                for (h, o) in self.placements
                if h == host
            )
            is_base_here = stream.is_base and host in catalog.base_hosts_of(stream_id)
            if not (has_flow_in or generates or is_base_here):
                violations.append(
                    f"availability: stream {stream_id} marked available at host "
                    f"{host} with no source"
                )
        for host, operator_id in self.placements:
            operator = catalog.get_operator(operator_id)
            for input_id in operator.input_streams:
                if (host, input_id) not in self.available:
                    violations.append(
                        f"availability: operator {operator_id} on host {host} "
                        f"misses input stream {input_id}"
                    )
        for src, dst, stream_id in self.flows:
            if (src, stream_id) not in self.available:
                violations.append(
                    f"availability: host {src} sends stream {stream_id} to "
                    f"{dst} without having it"
                )

        # Resource constraints (III.6).
        for host in catalog.host_ids:
            capacity = catalog.hosts.get(host)
            if self.cpu_used_scan(host) > capacity.cpu_capacity + tol:
                violations.append(
                    f"resources: CPU overload on host {host}: "
                    f"{self.cpu_used_scan(host):.3f} > {capacity.cpu_capacity:.3f}"
                )
            if self.out_bandwidth_used_scan(host) > capacity.bandwidth_capacity + tol:
                violations.append(
                    f"resources: outgoing bandwidth overload on host {host}"
                )
            if self.in_bandwidth_used_scan(host) > capacity.bandwidth_capacity + tol:
                violations.append(
                    f"resources: incoming bandwidth overload on host {host}"
                )
        for src in catalog.host_ids:
            for dst in catalog.host_ids:
                if src == dst:
                    continue
                if self.link_used_scan(src, dst) > catalog.link_capacity(src, dst) + tol:
                    violations.append(
                        f"resources: link {src}->{dst} overloaded"
                    )

        # Federated constraints: shared WAN gateway capacities and site
        # liveness (no stream may cross the boundary of a partitioned site).
        # Recomputed by scanning the flows — index-free, like the rest of
        # the oracle.
        if catalog.num_sites > 1:
            partitioned = set(catalog.partitioned_sites)
            wan_usage: Dict[Tuple[int, int], float] = {}
            for src, dst, stream_id in self.flows:
                src_site = catalog.site_of_host(src)
                dst_site = catalog.site_of_host(dst)
                if src_site == dst_site:
                    continue
                pair = (src_site, dst_site)
                wan_usage[pair] = wan_usage.get(pair, 0.0) + catalog.stream_rate(
                    stream_id
                )
                if src_site in partitioned or dst_site in partitioned:
                    violations.append(
                        f"site-liveness: flow {src}->{dst} of stream {stream_id} "
                        f"crosses a partitioned site boundary "
                        f"({src_site}->{dst_site})"
                    )
            for (src_site, dst_site), used in sorted(wan_usage.items()):
                if src_site in partitioned or dst_site in partitioned:
                    continue  # already reported as site-liveness violations
                capacity = catalog.effective_wan_capacity(src_site, dst_site)
                if capacity is not None and used > capacity + tol:
                    violations.append(
                        f"resources: WAN gateway {src_site}->{dst_site} overloaded"
                    )

        # Acyclicity (III.7): per stream, flows must form a DAG rooted at real
        # sources (operator placements or base-stream injection points).
        violations.extend(self._acyclicity_violations())
        return violations

    def validate_delta(
        self,
        touched_hosts: Iterable[int],
        touched_streams: Iterable[int] = (),
        touched_operators: Iterable[int] = (),
        tol: float = 1e-6,
    ) -> List[str]:
        """Check only the constraints the touched entities participate in.

        Given a previously *valid* allocation, any violation introduced by a
        mutation batch involves at least one structure whose host, stream or
        operator that batch touched (see :meth:`drain_touched`,
        :func:`delta_touched_sets` and :func:`touched_between`), so checking
        the touched slice finds exactly what the full oracle would find.
        Pre-existing violations outside the touched slice are *not*
        re-reported — the harness runs the full oracle on the final state as
        a backstop.

        All lookups go through the incremental indexes, so the cost is
        O(degree of the touched entities), not O(allocation size) or
        O(hosts²).
        """
        touched_hosts = set(touched_hosts)
        touched_streams = set(touched_streams)
        touched_operators = set(touched_operators)
        violations: List[str] = []
        if not (touched_hosts or touched_streams or touched_operators):
            return violations
        catalog = self.catalog

        # A touched host drags in every stream it sources or carries: its
        # liveness (and hence its eligibility as a base injection point or
        # generator) participates in the per-stream acyclicity check, so
        # those streams must be re-checked even when no allocation structure
        # of theirs changed (e.g. a host going offline under live flows).
        for host in touched_hosts:
            for operator_id in self._ops_by_host.get(host, ()):
                touched_streams.add(catalog.get_operator(operator_id).output_stream)
            touched_streams |= catalog.base_streams_registered_at(host)
            for _src, _dst, stream_id in self._flows_by_host.get(host, ()):
                touched_streams.add(stream_id)

        # Liveness.
        offline = set(catalog.hosts.offline_ids)
        if offline and touched_hosts:
            for host in sorted(touched_hosts & offline):
                for operator_id in sorted(self._ops_by_host.get(host, ())):
                    violations.append(
                        f"liveness: operator {operator_id} placed on offline host {host}"
                    )
            flow_keys: Set[FlowKey] = set()
            for host in touched_hosts:
                flow_keys |= self._flows_by_host.get(host, set())
            for src, dst, stream_id in sorted(flow_keys):
                if src in offline or dst in offline:
                    violations.append(
                        f"liveness: flow {src}->{dst} of stream {stream_id} "
                        f"touches an offline host"
                    )
            for host in sorted(touched_hosts & offline):
                for stream_id in sorted(self._provided_by_host.get(host, ())):
                    violations.append(
                        f"liveness: stream {stream_id} provided from offline host {host}"
                    )
                for stream_id in sorted(self._avail_by_host.get(host, ())):
                    violations.append(
                        f"liveness: stream {stream_id} marked available at "
                        f"offline host {host}"
                    )

        # Demand (III.4) for touched provided entries.
        requested = catalog.requested_streams
        provided_to_check: Set[int] = {
            s for s in touched_streams if s in self.provided
        }
        for host in touched_hosts:
            provided_to_check |= self._provided_by_host.get(host, set())
        for stream_id in sorted(provided_to_check):
            host = self.provided[stream_id]
            if stream_id not in requested:
                violations.append(
                    f"demand: stream {stream_id} is provided but not requested"
                )
            if (host, stream_id) not in self.available:
                violations.append(
                    f"demand: host {host} provides stream {stream_id} without having it"
                )

        # Availability (III.5): y implies a source.
        avail_pairs: Set[AvailKey] = set()
        for host in touched_hosts:
            for stream_id in self._avail_by_host.get(host, ()):
                avail_pairs.add((host, stream_id))
        for stream_id in touched_streams:
            for host in self._avail_by_stream.get(stream_id, ()):
                avail_pairs.add((host, stream_id))
        for host, stream_id in sorted(avail_pairs):
            stream = catalog.streams.get(stream_id)
            has_flow_in = bool(self._sources_by_sink.get((host, stream_id)))
            generates = any(
                operator.operator_id in self._ops_by_host.get(host, ())
                for operator in catalog.producers_of(stream_id)
            )
            is_base_here = stream.is_base and host in catalog.base_hosts_of(stream_id)
            if not (has_flow_in or generates or is_base_here):
                violations.append(
                    f"availability: stream {stream_id} marked available at host "
                    f"{host} with no source"
                )

        # Availability (III.5): z implies its inputs are available.
        place_pairs: Set[PlaceKey] = set()
        for host in touched_hosts:
            for operator_id in self._ops_by_host.get(host, ()):
                place_pairs.add((host, operator_id))
        for operator_id in touched_operators:
            for host in self._hosts_by_op.get(operator_id, ()):
                place_pairs.add((host, operator_id))
        for host, operator_id in sorted(place_pairs):
            operator = catalog.get_operator(operator_id)
            for input_id in operator.input_streams:
                if (host, input_id) not in self.available:
                    violations.append(
                        f"availability: operator {operator_id} on host {host} "
                        f"misses input stream {input_id}"
                    )

        # Availability (III.5): x implies the sender has the stream.
        flow_checks: Set[FlowKey] = set()
        for host in touched_hosts:
            flow_checks |= self._flows_by_host.get(host, set())
        for stream_id in touched_streams:
            for src, dst in self._flow_edges_by_stream.get(stream_id, ()):
                flow_checks.add((src, dst, stream_id))
        for src, dst, stream_id in sorted(flow_checks):
            if (src, stream_id) not in self.available:
                violations.append(
                    f"availability: host {src} sends stream {stream_id} to "
                    f"{dst} without having it"
                )

        # Resources (III.6) on touched hosts and their incident links.
        for host in sorted(touched_hosts):
            if not catalog.is_host_active(host):
                continue
            capacity = catalog.hosts.get(host)
            if self.cpu_used(host) > capacity.cpu_capacity + tol:
                violations.append(
                    f"resources: CPU overload on host {host}: "
                    f"{self.cpu_used(host):.3f} > {capacity.cpu_capacity:.3f}"
                )
            if self.out_bandwidth_used(host) > capacity.bandwidth_capacity + tol:
                violations.append(
                    f"resources: outgoing bandwidth overload on host {host}"
                )
            if self.in_bandwidth_used(host) > capacity.bandwidth_capacity + tol:
                violations.append(
                    f"resources: incoming bandwidth overload on host {host}"
                )
        incident_links: Set[Tuple[int, int]] = set()
        for host in touched_hosts:
            for src, dst, _stream in self._flows_by_host.get(host, ()):
                incident_links.add((src, dst))
        for src, dst in sorted(incident_links):
            if not (catalog.is_host_active(src) and catalog.is_host_active(dst)):
                continue
            if self._link_bw[(src, dst)] > catalog.link_capacity(src, dst) + tol:
                violations.append(f"resources: link {src}->{dst} overloaded")

        # Federated constraints on the sites the touched hosts belong to:
        # shared WAN gateway capacities (via the incremental per-site-pair
        # aggregate) and site liveness of crossing flows.
        if catalog.num_sites > 1:
            touched_sites = {catalog.site_of_host(h) for h in touched_hosts}
            partitioned = set(catalog.partitioned_sites)
            crossing: Set[FlowKey] = set()
            for host in touched_hosts:
                crossing |= self._flows_by_host.get(host, set())
            for src, dst, stream_id in sorted(crossing):
                src_site = catalog.site_of_host(src)
                dst_site = catalog.site_of_host(dst)
                if src_site == dst_site:
                    continue
                if src_site in partitioned or dst_site in partitioned:
                    violations.append(
                        f"site-liveness: flow {src}->{dst} of stream {stream_id} "
                        f"crosses a partitioned site boundary "
                        f"({src_site}->{dst_site})"
                    )
            for (src_site, dst_site), used in sorted(self._wan_bw.items()):
                if src_site not in touched_sites and dst_site not in touched_sites:
                    continue
                if src_site in partitioned or dst_site in partitioned:
                    continue  # already reported as site-liveness violations
                capacity = catalog.effective_wan_capacity(src_site, dst_site)
                if capacity is not None and used > capacity + tol:
                    violations.append(
                        f"resources: WAN gateway {src_site}->{dst_site} overloaded"
                    )

        # Acyclicity (III.7) for touched streams only.
        for stream_id in sorted(touched_streams):
            edges = self._flow_edges_by_stream.get(stream_id)
            if not edges:
                continue
            violations.extend(self._stream_acyclicity(stream_id, edges, offline))
        return violations

    def is_feasible(self, tol: float = 1e-6) -> bool:
        """Whether the allocation satisfies every constraint."""
        return not self.validate(tol)

    def _stream_acyclicity(
        self,
        stream_id: int,
        edges: Iterable[Tuple[int, int]],
        offline: Set[int],
    ) -> List[str]:
        """Index-backed reachability check of one stream's flow graph."""
        catalog = self.catalog
        stream = catalog.streams.get(stream_id)
        sources: Set[int] = set()
        for operator in catalog.producers_of(stream_id):
            sources |= self._hosts_by_op.get(operator.operator_id, set())
        if stream.is_base:
            sources |= set(catalog.base_hosts_of(stream_id))
        if offline:
            sources -= offline
        reachable = set(sources)
        frontier = list(sources)
        adjacency: Dict[int, List[int]] = {}
        for src, dst in edges:
            adjacency.setdefault(src, []).append(dst)
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency.get(node, []):
                if neighbour not in reachable:
                    reachable.add(neighbour)
                    frontier.append(neighbour)
        receivers = {dst for (_src, dst) in edges}
        unreachable = receivers - reachable
        if unreachable:
            return [
                f"acyclicity: stream {stream_id} reaches hosts {sorted(unreachable)} "
                f"only through a causal loop (no path from a real source)"
            ]
        return []

    def _acyclicity_violations(self) -> List[str]:
        violations: List[str] = []
        catalog = self.catalog
        streams_with_flows = {s for (_h, _m, s) in self.flows}
        for stream_id in streams_with_flows:
            stream = catalog.streams.get(stream_id)
            edges = [(h, m) for (h, m, s) in self.flows if s == stream_id]
            sources = set()
            for host in catalog.host_ids:
                generates = any(
                    catalog.get_operator(o).output_stream == stream_id
                    for (h, o) in self.placements
                    if h == host
                )
                is_base_here = stream.is_base and host in catalog.base_hosts_of(stream_id)
                if generates or is_base_here:
                    sources.add(host)
            # Every host receiving the stream must be reachable from a source.
            reachable = set(sources)
            frontier = list(sources)
            adjacency: Dict[int, List[int]] = {}
            for src, dst in edges:
                adjacency.setdefault(src, []).append(dst)
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency.get(node, []):
                    if neighbour not in reachable:
                        reachable.add(neighbour)
                        frontier.append(neighbour)
            receivers = {dst for (_src, dst) in edges}
            unreachable = receivers - reachable
            if unreachable:
                violations.append(
                    f"acyclicity: stream {stream_id} reaches hosts {sorted(unreachable)} "
                    f"only through a causal loop (no path from a real source)"
                )
        return violations

    # -------------------------------------------------------------- summaries
    def summary(self) -> str:
        """One-line description of the allocation size."""
        return (
            f"Allocation: {len(self.admitted_queries)} admitted queries, "
            f"{len(self.placements)} operator placements, {len(self.flows)} flows, "
            f"{len(self.provided)} provided streams"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"
