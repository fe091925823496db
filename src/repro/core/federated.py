"""Hierarchical partitioned planning over a federated, site-aware topology.

The paper targets *federated* stream-processing infrastructures: resource
sites connected by constrained wide-area links.  :class:`FederatedPlanner`
brings that structure into the planning stack by decomposing admission the
way the topology decomposes the cluster:

* every site gets its own **inner planner** (any registered allocation-
  keeping planner: ``sqpr``, ``heuristic``, ``soda``) driving a
  :class:`~repro.dsps.catalog.SiteCatalogView` — a site-local slice of the
  shared catalog.  A query whose base streams are all injected inside one
  site is planned *entirely* by that site's planner: the MILP it solves
  spans only the site's hosts, which is what makes partitioned planning
  scale with the number of sites;
* queries whose base streams span sites escalate to a **coordinator** — one
  more inner planner over a :class:`~repro.dsps.catalog.GatewayCatalogView`
  that sees every host but caps cross-site link capacities at the remaining
  WAN gateway budget.  The coordinator plans in frozen (greedy-reuse) mode
  on top of the merged global state, so it can reuse shard-produced streams
  across the WAN but never tears shard-owned placements down;
* the planner's public :attr:`allocation` is the **merged** global state —
  the union of every shard's allocation plus the structures only the
  coordinator's cross-site queries need — rebuilt (with touched-state
  inheritance, so delta validation keeps working) after every mutation.

Resource soundness across the shards: shard planners cannot see the
coordinator's cross-site placements in their own allocations, so each
:class:`SiteCatalogView` carries the coordinator's *foreign usage* and
reports correspondingly reduced host/link capacities.  Conversely the
coordinator is handed a copy of the merged allocation before every
cross-site submission, so all shard usage is background to it.

Every inner planner keeps its own
:class:`~repro.core.model_builder.ModelReuseCache`; ``retire``,
``on_topology_change`` and the stats/hook machinery route through the
shards.  Instances are registered as ``federated`` and constructed through
the registry's parameterised names: ``create_planner("federated:sqpr", …)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.api.base import Planner, PlannerConfig, PlanningOutcome
from repro.api.registry import get_planner_class, register_planner, resolve_planner_name
from repro.dsps.allocation import Allocation
from repro.utils.pool import map_in_pool
from repro.dsps.catalog import GatewayCatalogView, SiteCatalogView, SystemCatalog
from repro.dsps.query import Query, QueryWorkloadItem
from repro.exceptions import PlanningError

__all__ = ["FederatedPlanner"]

#: Owner key of the coordinator in the query-ownership map (shards use
#: their site id).
_COORDINATOR = "coordinator"


@register_planner("federated")
class FederatedPlanner(Planner):
    """Site-partitioned admission with a WAN-aware coordinator."""

    def __init__(
        self,
        catalog: SystemCatalog,
        config: Optional[PlannerConfig] = None,
        inner: str = "sqpr",
        workers: Optional[int] = None,
    ) -> None:
        super().__init__(catalog, config)
        if workers is not None and workers < 1:
            raise PlanningError(f"workers must be >= 1, got {workers}")
        #: Pool width for concurrent shard planning in
        #: :meth:`submit_batch` (``None``/1 = plan site groups serially
        #: in the caller).  The per-site shards are embarrassingly parallel:
        #: each one reads the shared catalog (immutable during a batch —
        #: queries are resolved up front) and mutates only its own
        #: allocation, solver and reuse cache, so concurrent execution
        #: returns exactly the serial results.
        self.workers = workers
        self.inner_name = resolve_planner_name(inner)
        if self.inner_name == "federated":
            raise PlanningError("federated planners cannot nest")
        self._inner_cls = get_planner_class(self.inner_name)
        #: query id -> owning shard site id, or the coordinator marker.
        self._owner: Dict[int, Union[int, str]] = {}
        #: (coordinator fingerprint, owned-query set) -> remainder cache;
        #: invalidated on topology changes (plan extraction reads catalog
        #: liveness, not just allocation contents).
        self._remainder_cache = None
        # The merge must exist before the coordinator: its gateway view
        # reads the live allocation for remaining-WAN capacity, and an
        # inner planner may consult link capacities during construction.
        self._merged = Allocation(catalog)
        self._views: Dict[int, SiteCatalogView] = {}
        self._shards: Dict[int, Planner] = {}
        for site in catalog.sites:
            self._add_shard(site)
        # The coordinator plans cross-site queries greedily on top of the
        # frozen global state: shard-owned structures are reusable
        # background, never re-planning victims — shards stay the sole
        # owners of their placements.
        coordinator_config = replace(self.config, replan_overlapping=False)
        self._gateway_view = GatewayCatalogView(catalog, lambda: self._merged)
        self._coordinator = self._inner_cls(
            self._gateway_view, config=coordinator_config
        )
        self._coordinator.name = f"{self.inner_name}@coordinator"

    def _add_shard(self, site: int) -> None:
        view = SiteCatalogView(self.catalog, site)
        shard = self._inner_cls(view, config=self.config)
        shard.name = f"{self.inner_name}@site{site}"
        if shard.allocation is None:
            raise PlanningError(
                f"federated planning needs an allocation-keeping inner "
                f"planner; {self.inner_name!r} keeps none"
            )
        self._views[site] = view
        self._shards[site] = shard

    def _refresh_shards(self) -> None:
        """Track topology growth: new sites get shards, existing views
        re-snapshot their host membership (hosts can join a site)."""
        for site in self.catalog.sites:
            if site in self._shards:
                self._views[site].refresh()
            else:
                self._add_shard(site)

    # -------------------------------------------------------- merged allocation
    @property
    def allocation(self) -> Allocation:
        """The merged global allocation (union of shards + coordinator)."""
        return self._merged

    @allocation.setter
    def allocation(self, value: Allocation) -> None:
        # External assignment (the simulation harness adopting the cluster
        # engine's post-eviction state, the adaptive replanner removing
        # victims): the assigned state is authoritative — inner planners
        # retire everything it no longer admits, then the merge is rebuilt.
        if value is self._merged:
            return
        self._reconcile_external(value)

    def _inner_planners(self) -> List[Planner]:
        return [self._shards[site] for site in sorted(self._shards)] + [
            self._coordinator
        ]

    def _coordinator_remainder(self) -> Allocation:
        """The structures only the coordinator's own queries need.

        The coordinator's allocation is a synced copy of the whole merged
        state plus its own admissions; garbage-collecting every query it
        does *not* own leaves exactly the cross-site plans (including any
        shard structures they reuse, which the union below keeps alive even
        if the owning shard retires them).
        """
        alloc = self._coordinator.allocation
        owned = frozenset(
            qid
            for qid in alloc.admitted_queries
            if self._owner.get(qid) == _COORDINATOR
        )
        # Garbage-collecting the coordinator's (global-sized) allocation on
        # every merge would make each submission O(system size); the result
        # only depends on the allocation contents and the owned set, so it
        # is cached on the O(1) rolling fingerprint.
        key = (alloc.fingerprint(), owned)
        if self._remainder_cache is not None and self._remainder_cache[0] == key:
            return self._remainder_cache[1]
        foreign = sorted(set(alloc.admitted_queries) - owned)
        remainder = alloc if not foreign else alloc.without_queries(foreign)
        self._remainder_cache = (key, remainder)
        return remainder

    def _rebuild_merged(self, inherit_from: Optional[Allocation] = None) -> None:
        """Re-derive the global allocation from the shards + coordinator.

        ``inherit_from`` names the allocation whose pending touched state
        (plus the diff to the rebuilt result) the merge must carry, so the
        harness's per-event delta validation stays complete across the
        object replacement; it defaults to the previous merged state.
        """
        source = inherit_from if inherit_from is not None else self._merged
        remainder = self._coordinator_remainder()
        merged = Allocation(self.catalog)
        parts = [self._shards[site].allocation for site in sorted(self._shards)]
        parts.append(remainder)
        for part in parts:
            merged.flows |= part.flows
            merged.available |= part.available
            merged.placements |= part.placements
            merged.admitted_queries |= part.admitted_queries
            merged.provided.update(part.provided)
        merged.inherit_touched(source)
        self._merged = merged
        self._update_foreign(remainder)

    def _update_foreign(self, remainder: Optional[Allocation]) -> None:
        """Publish the coordinator's usage to every site view, so shard
        planners see reduced capacities on hosts the coordinator shares.

        Each view gets the remainder *minus* the structures already present
        in that shard's own allocation (a cross-site plan may reuse a
        shard-produced stream, and the shard already accounts its own
        structures as background) — publishing the raw remainder would
        double-count them and shrink the shard's visible capacity below
        what is actually free.
        """
        if remainder is None or not (
            remainder.placements or remainder.flows or remainder.provided
        ):
            for view in self._views.values():
                view.set_foreign_allocation(None)
            return
        for site, view in self._views.items():
            own = self._shards[site].allocation
            pruned = Allocation(self.catalog)
            for key in remainder.placements:
                if key not in own.placements:
                    pruned.placements.add(key)
            for key in remainder.flows:
                if key not in own.flows:
                    pruned.flows.add(key)
            for stream_id, host in remainder.provided.items():
                if own.provided.get(stream_id) != host:
                    pruned.provided[stream_id] = host
            if pruned.placements or pruned.flows or pruned.provided:
                view.set_foreign_allocation(pruned)
            else:
                view.set_foreign_allocation(None)

    def _reconcile_external(self, value: Allocation) -> None:
        keep = set(value.admitted_queries)
        unknown = sorted(q for q in keep if q not in self._owner)
        if unknown:
            # The assigned state is authoritative for *removals* (engine
            # evictions, the adaptive replanner); queries this planner never
            # planned have no owning shard and cannot be adopted — dropping
            # them silently would desynchronise the engine, so refuse.
            raise PlanningError(
                "federated planner cannot adopt an allocation containing "
                f"queries it did not plan: {unknown}"
            )
        for site in sorted(self._shards):
            shard = self._shards[site]
            stale = sorted(set(shard.allocation.admitted_queries) - keep)
            if stale:
                shard.allocation = shard.allocation.without_queries(stale)
        coordinator = self._coordinator
        stale = sorted(
            qid
            for qid in coordinator.allocation.admitted_queries
            if qid not in keep and self._owner.get(qid) == _COORDINATOR
        )
        if stale:
            coordinator.allocation = coordinator.allocation.without_queries(stale)
        for qid in [q for q in self._owner if q not in keep]:
            del self._owner[qid]
        # External assignments follow engine-level events (host failures,
        # partitions) whose catalog changes can alter plan extraction.
        self._remainder_cache = None
        self._rebuild_merged(inherit_from=value)

    # ----------------------------------------------------------------- routing
    def route(self, query: Query) -> Optional[int]:
        """The site that can plan ``query`` locally, or ``None``.

        A query is site-local when some single site currently injects *all*
        of its base streams (multi-homed streams intersect); the smallest
        such site id wins for determinism.  Everything else — including
        queries whose sources went offline — escalates to the coordinator.
        """
        catalog = self.catalog
        candidates = None
        for base_id in sorted(query.base_streams):
            stream_sites = {
                catalog.site_of_host(h) for h in catalog.base_hosts_of(base_id)
            }
            if candidates is None:
                candidates = stream_sites
            else:
                candidates &= stream_sites
            if not candidates:
                return None
        if not candidates:
            return None
        return min(candidates)

    def _sync_coordinator(self) -> None:
        """Hand the coordinator the merged global state as background."""
        self._coordinator.allocation = self._merged.copy()

    # -------------------------------------------------------------- submission
    def submit(self, query: Union[Query, QueryWorkloadItem]) -> PlanningOutcome:
        """Route one query to its site shard or the coordinator."""
        query = self._resolve_query(query)
        return self._record(self._plan_one(query))

    def _route_registered(self, query: Query) -> Optional[int]:
        """Route an already-resolved query, materialising missing shards."""
        site = self.route(query)
        if site is not None and site not in self._shards:
            # A host joined a brand-new site without an explicit
            # on_topology_change(); materialise its shard on demand.
            self._refresh_shards()
        return site

    def _plan_one(self, query: Query) -> PlanningOutcome:
        """Plan one resolved query through its shard or the coordinator."""
        site = self._route_registered(query)
        if site is None:
            self._sync_coordinator()
            owner_key: Union[int, str] = _COORDINATOR
            target = self._coordinator
        else:
            owner_key = site
            target = self._shards[site]
        before = target.allocation
        before_fp = before.fingerprint()
        outcome = target.submit(query)
        if outcome.admitted:
            self._owner[query.query_id] = owner_key
        # A rejection leaves the inner allocation untouched (checked via the
        # O(1) fingerprint, defensively against custom inner planners), and
        # then the O(allocation) merge rebuild can be skipped entirely.
        changed = (
            target.allocation is not before
            or target.allocation.fingerprint() != before_fp
        )
        if outcome.admitted or changed:
            self._rebuild_merged()
        outcome.extras["site"] = owner_key
        return outcome

    def submit_batch(
        self,
        queries: Sequence[Union[Query, QueryWorkloadItem]],
        time_limit: Optional[float] = None,
    ) -> List[PlanningOutcome]:
        """Plan a batch with per-site grouping and optional shard concurrency.

        The batch is routed first: queries local to one site form per-site
        groups, everything else escalates to the coordinator.  Site groups
        are independent of each other — each shard reads the shared catalog
        (immutable during the batch) and mutates only its own state — so
        with ``workers > 1`` they are planned concurrently on a thread
        pool.  Site groups hand the whole group to the shard's own
        ``submit_batch`` (one MILP build + solve per group for the SQPR
        inner planner), the merged global allocation is rebuilt **once**
        per batch instead of once per query, and only then are cross-site
        queries planned serially through the coordinator (each needs the
        up-to-date merge as background).

        Within a site, group order is submission order; outcomes are
        returned in submission order.  Results are identical to the serial
        path for any ``workers`` value — concurrency changes wall-clock
        only.

        ``time_limit`` is the solver budget **per site group** (the inner
        planner's default — ``config.time_limit`` scaled by group size —
        applies when ``None``).  A flat cap keeps joint solves bounded
        when an admission service coalesces large batches under load.
        """
        if not queries:
            return []
        resolved = [self._resolve_query(q) for q in queries]
        site_groups: "OrderedDict[int, List[Query]]" = OrderedDict()
        cross: List[Query] = []
        for query in resolved:
            site = self._route_registered(query)
            if site is None:
                cross.append(query)
            else:
                site_groups.setdefault(site, []).append(query)

        outcomes: List[PlanningOutcome] = []
        mutated = False

        def plan_site(site: int, group: List[Query]):
            shard = self._shards[site]
            before = shard.allocation
            before_fp = before.fingerprint()
            group_outcomes = shard.submit_batch(group, time_limit=time_limit)
            changed = (
                shard.allocation is not before
                or shard.allocation.fingerprint() != before_fp
            )
            return site, group_outcomes, changed

        planned = map_in_pool(
            lambda entry: plan_site(*entry),
            list(site_groups.items()),
            workers=self.workers,
            thread_name_prefix="federated-shard",
        )
        for site, group_outcomes, changed in planned:
            mutated = mutated or changed
            for outcome in group_outcomes:
                if outcome.admitted:
                    self._owner[outcome.query.query_id] = site
                outcome.extras["site"] = site
                outcomes.append(outcome)
        if mutated:
            # One merge rebuild for the whole site-local phase — this is
            # where batching beats per-query submission even without
            # concurrency: the O(allocation) merge is amortised over the
            # batch.
            self._rebuild_merged()
        for query in cross:
            outcomes.append(self._plan_one(query))
        ordered = self._reorder(resolved, outcomes)
        return self._record_many(ordered)

    # --------------------------------------------------------------- lifecycle
    def retire(self, query_id: int) -> bool:
        """Retire through the owning shard (or the coordinator)."""
        owner_key = self._owner.get(query_id)
        if owner_key is None:
            return False
        planner = (
            self._coordinator
            if owner_key == _COORDINATOR
            else self._shards[owner_key]
        )
        removed = planner.retire(query_id)
        self._owner.pop(query_id, None)
        if not removed:
            # Nothing left the inner planner, so the merge is unchanged.
            return False
        self._rebuild_merged()
        return True

    def on_topology_change(self) -> List[int]:
        """Forward topology changes to every shard and the coordinator.

        Also tracks topology *growth*: views re-snapshot their site's host
        membership and newly appeared sites get their own shard, so joined
        capacity becomes plannable.
        """
        self._refresh_shards()
        self._remainder_cache = None
        dropped: List[int] = []
        for planner in self._inner_planners():
            dropped.extend(planner.on_topology_change())
        self._rebuild_merged()
        return dropped

    def reset(self) -> None:
        """Reset every inner planner and start from an empty merge."""
        with self._stats_guard():
            self.outcomes.clear()
        for planner in self._inner_planners():
            planner.reset()
        self._owner.clear()
        self._remainder_cache = None
        self._merged = Allocation(self.catalog)
        self._update_foreign(None)

    # ------------------------------------------------------------------- stats
    @property
    def reuse_stats(self) -> Dict[str, int]:
        """Model-reuse hits/misses summed over the shards + coordinator."""
        totals = {"hits": 0, "misses": 0}
        for planner in self._inner_planners():
            stats = getattr(planner, "reuse_stats", None)
            if stats:
                for key in totals:
                    totals[key] += stats.get(key, 0)
        return totals

    def shard_stats(self) -> Dict[Union[int, str], Dict[str, int]]:
        """Per-shard submission/admission counts (sites plus coordinator)."""
        stats: Dict[Union[int, str], Dict[str, int]] = {}
        for site in sorted(self._shards):
            shard = self._shards[site]
            stats[site] = {
                "submitted": shard.num_submitted,
                "admitted": sum(1 for o in shard.outcomes if o.admitted),
            }
        stats[_COORDINATOR] = {
            "submitted": self._coordinator.num_submitted,
            "admitted": sum(1 for o in self._coordinator.outcomes if o.admitted),
        }
        return stats

    def __repr__(self) -> str:
        return (
            f"FederatedPlanner(inner={self.inner_name!r}, "
            f"sites={sorted(self._shards)}, "
            f"admitted={self.num_admitted}/{self.num_submitted})"
        )
