"""Persistent sub-plan index: incremental garbage collection and reuse
matching for admissions against a large resident-query population.

Reuse of already-deployed sub-queries is the core SQPR idea, but with the
allocation garbage-collected through
:func:`repro.dsps.plan.rebuild_minimal_allocation` every admission pays a
full pass over *all* resident queries (one plan extraction each).  That
term — together with the full-collection teardown scans and the overlap
scan of scope computation, both fixed at their own call sites — made
admission latency grow linearly with the number of resident queries.

The :class:`SubPlanIndex` removes the remaining linear extraction term.
It caches, per *result stream*, a :class:`SubPlanRecord`: the structures
the deployed sub-plan's extraction emits, plus the exact set of
allocation points the extraction *read* — positively or negatively (see
the ``read_log`` parameter of :func:`repro.dsps.plan.extract_plan`).
Records are keyed by result stream rather than query id because duplicate
queries share one deployed sub-plan; under a reuse-heavy (Zipfian)
workload the number of records grows with the number of *distinct* plans,
not with the resident-query count.

The contract with the rebuild route is *equal decisions, equal content
fingerprints and a clean* ``validate()`` after every operation (the
hypothesis oracle and the e2e benchmark assert all three) — not equal
object state.  :meth:`SubPlanIndex.collect` and
:meth:`SubPlanIndex.retire` therefore prune the **live allocation in
place**, driven by a structure reference count: ``refs[(kind, key)]`` is
the number of records whose sub-plan contains that availability entry,
placement or flow.  A retirement whose result stream still has another
holder only leaves the admitted set; the last holder's departure drops
the record and removes exactly the structures whose count reached zero.
A collection re-extracts the records whose logged read points the applied
delta touched and then removes whatever the delta added, or the dropped
records held, that no record references any more.  Both cost what the
departing or arriving query *exclusively* holds, not the resident count,
and the allocation object keeps its identity; it is replaced only on the
stale fallback below (:func:`rebuild_minimal_allocation`, which doubles
as the oracle).

Two facts make the record cache exact:

* **Read-key completeness.**  ``extract_plan`` is a deterministic
  function of the allocation values at its logged ``(host, stream)``
  points plus the catalog.  A delta that touches none of a record's
  points cannot change that record's extraction.
* **Minimality invariant.**  The live allocation always equals the union
  of the records' structures (the key set of the reference counts), so
  records never go stale between deltas and a zero count means garbage.

External changes (the engine adopting a different allocation, the
adaptive replanner replacing the planner's allocation, a host failure)
are detected by comparing the allocation's *structural* fingerprint
against the value stored after the last index operation; a mismatch makes
the caller fall back to :func:`rebuild_minimal_allocation` once, after
which :meth:`SubPlanIndex.rebuild` drops every record and re-extracts one
per wanted result stream.  Catalog state (base-injection liveness) is read
by extraction at points the read log does not cover, so
:meth:`SubPlanIndex.invalidate` must be called on topology changes — the
planner does this in ``on_topology_change`` and ``reset``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.dsps.plan import extract_plan
from repro.dsps.query import Query

__all__ = [
    "ReuseMatch",
    "SubPlanIndex",
    "SubPlanRecord",
    "resolve_reuse_matches",
]

#: Pseudo-host used in read keys for "who provides this stream" lookups
#: (real host ids are non-negative).
_PROVIDER = -1

ReadKey = Tuple[int, int]  # (host | _PROVIDER, stream)

#: Structure kinds in a record's ``ops``.
_AVAIL = 0
_PLACE = 1
_FLOW = 2

Op = Tuple[int, Tuple[int, ...]]  # (kind, structure key)


@dataclass(frozen=True)
class SubPlanRecord:
    """One result stream's cached deployed sub-plan.

    ``ops`` is the set of structures
    :func:`rebuild_minimal_allocation` emits for one query using this
    result stream — what the index reference-counts to decide which live
    structures are still needed.  ``read_keys`` are the allocation points
    the extraction read; a delta touching none of them leaves the record
    exact.
    """

    result_stream: int
    provider: Optional[int]
    ops: FrozenSet[Op]
    read_keys: FrozenSet[ReadKey]

    @property
    def num_structures(self) -> int:
        """Size of the deployed sub-plan in distinct structures."""
        return len(self.ops)


@dataclass(frozen=True)
class ReuseMatch:
    """Reuse resolution for one arriving query, straight off the indexes.

    ``exact`` — the result stream is already provided, so admission is a
    free duplicate (Algorithm 1, line 3).  ``shared_streams`` /
    ``overlapping_queries`` quantify partial reuse: how many of the
    query's candidate streams some resident query also lists, and how
    many distinct resident queries overlap at all.
    """

    query_id: int
    result_stream: int
    exact: bool
    shared_streams: int
    overlapping_queries: int

    @property
    def partial(self) -> bool:
        """Whether the query overlaps residents without being a duplicate."""
        return not self.exact and self.overlapping_queries > 0


def resolve_reuse_matches(
    allocation: Allocation, queries: Sequence[Query]
) -> List[ReuseMatch]:
    """Resolve exact/partial reuse for a batch in one index pass.

    Per-stream membership lookups are shared across the batch
    (co-arriving queries under a Zipfian workload overlap heavily), so
    the cost is one index lookup per *distinct* candidate stream in the
    batch, ~O(total query size) — never a scan over resident queries.
    """
    users_cache: Dict[int, FrozenSet[int]] = {}
    matches: List[ReuseMatch] = []
    for query in queries:
        overlapping: Set[int] = set()
        shared = 0
        for stream_id in query.candidate_streams:
            users = users_cache.get(stream_id)
            if users is None:
                users = allocation.queries_using_stream(stream_id)
                users_cache[stream_id] = users
            if users:
                shared += 1
                overlapping |= users
        overlapping.discard(query.query_id)
        matches.append(
            ReuseMatch(
                query_id=query.query_id,
                result_stream=query.result_stream,
                exact=allocation.is_provided(query.result_stream),
                shared_streams=shared,
                overlapping_queries=len(overlapping),
            )
        )
    return matches


class SubPlanIndex:
    """Cached extraction results over one planner's live allocation.

    The owning planner must call :meth:`is_fresh` before relying on any
    incremental operation and fall back to
    :func:`~repro.dsps.plan.rebuild_minimal_allocation` (followed by
    :meth:`rebuild`) when it returns false.  :meth:`collect` and
    :meth:`retire` prune the live allocation in place down to the content
    that rebuild would construct, so both routes yield equal allocation
    fingerprints — and therefore identical planning decisions downstream.
    """

    def __init__(self, catalog: SystemCatalog) -> None:
        self.catalog = catalog
        self._records: Dict[int, SubPlanRecord] = {}
        self._readers: Dict[ReadKey, Set[int]] = {}
        # Number of records whose ops contain each structure; its key set is
        # the live allocation's structures (the minimality invariant).
        self._refs: Dict[Op, int] = {}
        # Structural fingerprint of the allocation after the last index
        # operation; None until the first rebuild (and after invalidate()).
        self._fp: Optional[Tuple] = None
        self.stats: Dict[str, int] = {
            "incremental_collects": 0,
            "incremental_retires": 0,
            "full_rebuilds": 0,
            "records_reextracted": 0,
            "stale_fallbacks": 0,
        }

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Dict[int, SubPlanRecord]:
        """Read-only view of the cached records (keyed by result stream)."""
        return dict(self._records)

    # ---------------------------------------------------------------- freshness
    def is_fresh(self, allocation: Allocation) -> bool:
        """Whether the index still describes ``allocation``.

        Keyed on the *structural* fingerprint, so admitted-set-only
        changes (duplicate admissions) stay fresh for free.
        """
        return (
            self._fp is not None
            and self._fp == allocation.structural_fingerprint()
        )

    def note_stale_fallback(self) -> None:
        """Record that a caller had to take the rebuild fallback."""
        self.stats["stale_fallbacks"] += 1

    def invalidate(self) -> None:
        """Drop everything — required after catalog/topology changes.

        Plan extraction reads the catalog (base-stream injection points
        are filtered by host liveness) at points the read log does not
        cover, so cached records cannot be trusted across a topology
        change even when the allocation is unchanged.
        """
        self._records.clear()
        self._readers.clear()
        self._refs.clear()
        self._fp = None

    # ----------------------------------------------------------- record plumbing
    def _extract(self, allocation: Allocation, result_stream: int) -> SubPlanRecord:
        """Extract the current sub-plan record for ``result_stream``.

        Emits exactly the structures
        :func:`rebuild_minimal_allocation` adds for one admitted query of
        this result stream; a missing provider yields an empty record
        (the rebuild skips such queries entirely).
        """
        self.stats["records_reextracted"] += 1
        catalog = self.catalog
        provider = allocation.provider_of(result_stream)
        read_keys: Set[ReadKey] = {(_PROVIDER, result_stream)}
        ops: Set[Op] = set()
        if provider is not None:
            log: Set[ReadKey] = set()
            plan = extract_plan(catalog, allocation, result_stream, read_log=log)
            read_keys |= log
            for node in plan.nodes():
                ops.add((_AVAIL, (node.host, node.output_stream)))
                if node.operator_id is not None:
                    ops.add((_PLACE, (node.host, node.operator_id)))
                    operator = catalog.get_operator(node.operator_id)
                    for input_id in operator.input_streams:
                        ops.add((_AVAIL, (node.host, input_id)))
                for child in node.children:
                    if child.host != node.host:
                        ops.add(
                            (_FLOW, (child.host, node.host, child.output_stream))
                        )
                        ops.add((_AVAIL, (node.host, child.output_stream)))
        return SubPlanRecord(
            result_stream=result_stream,
            provider=provider,
            ops=frozenset(ops),
            read_keys=frozenset(read_keys),
        )

    def _add_record(self, record: SubPlanRecord) -> None:
        self._records[record.result_stream] = record
        for key in record.read_keys:
            self._readers.setdefault(key, set()).add(record.result_stream)
        refs = self._refs
        for op in record.ops:
            refs[op] = refs.get(op, 0) + 1

    def _drop_record(self, record: SubPlanRecord) -> List[Op]:
        """Forget ``record``; returns its ops whose count reached zero."""
        del self._records[record.result_stream]
        for key in record.read_keys:
            readers = self._readers.get(key)
            if readers is not None:
                readers.discard(record.result_stream)
                if not readers:
                    del self._readers[key]
        refs = self._refs
        dead: List[Op] = []
        for op in record.ops:
            if refs[op] > 1:
                refs[op] -= 1
            else:
                del refs[op]
                dead.append(op)
        return dead

    def _prune(self, allocation: Allocation, candidates: Iterable[Op]) -> None:
        """Remove the candidate structures no record references."""
        refs = self._refs
        for op in candidates:
            if op in refs:
                continue
            kind, key = op
            if kind == _AVAIL:
                allocation.available.discard(key)
            elif kind == _PLACE:
                allocation.placements.discard(key)
            else:
                allocation.flows.discard(key)

    # ------------------------------------------------------------------ rebuild
    def rebuild(self, allocation: Allocation) -> None:
        """Re-synchronise against ``allocation`` (which must already be
        garbage-collected, i.e. the output of
        :func:`~repro.dsps.plan.rebuild_minimal_allocation`): drop every
        record and extract one per admitted result stream.
        """
        self.stats["full_rebuilds"] += 1
        self.invalidate()
        catalog = self.catalog
        wanted = {
            catalog.get_query(query_id).result_stream
            for query_id in allocation.admitted_queries
            if catalog.has_query(query_id)
        }
        for result_stream in sorted(wanted):
            self._add_record(self._extract(allocation, result_stream))
        self._fp = allocation.structural_fingerprint()

    # ------------------------------------------------------- incremental collect
    def _delta_keys(self, delta: PlacementDelta) -> Set[ReadKey]:
        """The read points an applied delta could have changed.

        Flows map to their *sink* point (extraction reads flow sources
        per receiving host), placements to their operator's output stream
        at the host, and provided changes to the pseudo-provider point.
        """
        catalog = self.catalog
        keys: Set[ReadKey] = set()
        for _src, dst, stream_id in delta.add_flows | delta.remove_flows:
            keys.add((dst, stream_id))
        keys.update(delta.add_available, delta.remove_available)
        for host, operator_id in delta.add_placements | delta.remove_placements:
            keys.add((host, catalog.get_operator(operator_id).output_stream))
        for stream_id in delta.unset_provided.union(delta.set_provided):
            keys.add((_PROVIDER, stream_id))
        return keys

    def collect(
        self,
        allocation: Allocation,
        delta: PlacementDelta,
        forced_results: Iterable[int] = (),
    ) -> Allocation:
        """Incremental garbage collection after ``delta`` was applied.

        ``allocation`` is the post-apply state; ``forced_results`` are
        the result streams of the queries this round admitted or
        replanned (their records are re-extracted unconditionally).
        Prunes ``allocation`` in place and returns it — equal in content
        to ``rebuild_minimal_allocation(catalog, allocation)`` — at a
        cost proportional to the delta and the affected sub-plans rather
        than the resident-query count.

        The caller must have checked :meth:`is_fresh` against the
        *pre-delta* allocation.
        """
        self.stats["incremental_collects"] += 1
        affected: Set[int] = set(forced_results)
        for key in self._delta_keys(delta):
            readers = self._readers.get(key)
            if readers:
                affected |= readers
        # Garbage candidates: what the delta added plus what the dropped
        # records held alone; everything else is referenced by an untouched
        # record (the pre-delta state was minimal).
        garbage: Set[Op] = {(_AVAIL, key) for key in delta.add_available}
        garbage.update((_PLACE, key) for key in delta.add_placements)
        garbage.update((_FLOW, key) for key in delta.add_flows)
        for result_stream in sorted(affected):
            old = self._records.get(result_stream)
            if old is not None:
                garbage.update(self._drop_record(old))
            if allocation.is_result_held(result_stream):
                self._add_record(self._extract(allocation, result_stream))
        self._prune(allocation, garbage)
        for stream_id in delta.set_provided:
            if not allocation.is_result_held(stream_id):
                allocation.provided.pop(stream_id, None)
        self._fp = allocation.structural_fingerprint()
        return allocation

    # --------------------------------------------------------------- retirement
    def retire(
        self, allocation: Allocation, query_id: int
    ) -> Optional[Allocation]:
        """Retire ``query_id``; mirror of ``without_queries`` + rebuild.

        Prunes ``allocation`` in place and returns it, or returns ``None``
        when the query is not admitted (``Planner.retire`` returns
        ``False`` then).  While another admitted query still holds the
        result stream only the admitted set changes; the last holder's
        departure unsets the provider and removes the structures no other
        record references.  No re-extraction is needed either way.  The
        caller must have checked :meth:`is_fresh` and that the catalog
        knows the id.
        """
        if query_id not in allocation.admitted_queries:
            return None
        self.stats["incremental_retires"] += 1
        allocation.admitted_queries.discard(query_id)
        result_stream = self.catalog.get_query(query_id).result_stream
        if allocation.is_result_held(result_stream):
            return allocation
        allocation.provided.pop(result_stream, None)
        record = self._records.get(result_stream)
        if record is not None:
            self._prune(allocation, self._drop_record(record))
        self._fp = allocation.structural_fingerprint()
        return allocation
