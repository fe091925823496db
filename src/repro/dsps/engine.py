"""A simulated DISSP-like cluster engine.

The engine stands in for the Java DISSP prototype of §IV-C: it owns the
catalog and the live allocation, lets a planner "deploy" placement deltas,
and reports the per-host CPU-utilisation and network-usage distributions that
the cluster experiments of §V-B plot as CDFs.

The engine deliberately does not simulate individual tuples: the paper's
cluster results are resource-level (admitted queries, CPU/network
distributions), and those are fully determined by the allocation plus the
cost model.  Operator-level drift is handled by
:class:`~repro.dsps.resource_monitor.ResourceMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dsps.allocation import Allocation, PlacementDelta, delta_touched_sets
from repro.dsps.catalog import SystemCatalog
from repro.dsps.plan import extract_plan, rebuild_minimal_allocation
from repro.dsps.resource_monitor import ResourceMonitor, ResourceSample
from repro.exceptions import AllocationError, CatalogError, PlanError


@dataclass
class DeploymentReport:
    """Cluster-wide state snapshot after a deployment round."""

    num_admitted_queries: int
    cpu_utilisation: List[float]
    network_usage: List[float]
    violations: List[str] = field(default_factory=list)

    @property
    def is_consistent(self) -> bool:
        """Whether the deployed allocation satisfies every constraint."""
        return not self.violations

    @property
    def mean_cpu_utilisation(self) -> float:
        """Average CPU utilisation across hosts."""
        if not self.cpu_utilisation:
            return 0.0
        return sum(self.cpu_utilisation) / len(self.cpu_utilisation)

    @property
    def max_cpu_utilisation(self) -> float:
        """Maximum CPU utilisation across hosts (load-balance indicator)."""
        return max(self.cpu_utilisation, default=0.0)


@dataclass
class HostChangeReport:
    """Outcome of a host failure/recovery applied to the engine.

    ``victims`` are the admitted queries that were running (in whole or in
    part) on the affected host and had to be evicted; re-submitting them
    through a planner is the caller's job (the simulation harness does so).
    ``violations`` is the re-validation result of the surviving allocation
    and is empty in normal operation.
    """

    host: int
    victims: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the surviving allocation re-validated with no violations."""
        return not self.violations


@dataclass
class SiteChangeReport:
    """Outcome of a WAN-level event (site partition/recovery, WAN drift).

    ``site`` is the affected site id, or ``-1`` for events touching every
    gateway at once (WAN drift).  ``victims`` are the admitted queries whose
    plans crossed a now-unusable gateway and had to be evicted; re-admitting
    them (possibly confined to one side of the partition) is the caller's
    job.
    """

    site: int
    victims: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the surviving allocation re-validated with no violations."""
        return not self.violations


class ClusterEngine:
    """Owns the live allocation and applies planner decisions to it."""

    def __init__(
        self,
        catalog: SystemCatalog,
        monitor: Optional[ResourceMonitor] = None,
        strict: bool = True,
    ) -> None:
        self.catalog = catalog
        self.allocation = Allocation(catalog)
        self.monitor = monitor or ResourceMonitor(catalog)
        self.strict = strict
        self._deploy_log: List[PlacementDelta] = []
        # Whether the live allocation is known feasible.  A fresh (empty)
        # allocation trivially is; adopt() takes arbitrary external state,
        # so the first strict deploy after an adoption falls back to a full
        # validation before delta checks can be trusted again.
        self._base_validated = True

    # --------------------------------------------------------------- deployment
    def deploy(self, delta: PlacementDelta) -> None:
        """Apply a placement delta produced by a planner.

        With ``strict=True`` (the default) the engine refuses deltas that
        would leave the allocation in an infeasible state, mirroring a real
        DSPS that would fail to instantiate an over-committed plan.  The
        check is delta-based once the live allocation is known feasible:
        only the entities the delta touches need re-validation
        (:func:`~repro.dsps.allocation.delta_touched_sets`).  The first
        strict deploy after :meth:`adopt` — whose input is arbitrary
        external state — runs one full validation to (re-)establish that
        baseline.
        """
        candidate = self.allocation.copy()
        candidate.apply(delta)
        if self.strict:
            if self._base_validated:
                violations = candidate.validate_delta(
                    *delta_touched_sets(delta, self.catalog)
                )
            else:
                violations = candidate.validate()
            if violations:
                raise AllocationError(
                    "refusing to deploy an infeasible delta: " + "; ".join(violations[:5])
                )
            self._base_validated = True
        else:
            # Non-strict deploys apply the delta unchecked, so the live
            # allocation's feasibility is unknown from here on; the next
            # host-change report or strict deploy runs the full oracle.
            self._base_validated = False
        self.allocation = candidate
        self._deploy_log.append(delta)

    @property
    def num_deployments(self) -> int:
        """How many deltas have been deployed."""
        return len(self._deploy_log)

    def adopt(self, allocation: Allocation, trusted: bool = False) -> None:
        """Make ``allocation`` the engine's live allocation.

        The simulation harness keeps a planner's live allocation and the
        engine's in sync through this method.  Sharing by identity is not a
        contract: the SQPR planner prunes its allocation in place on the
        sub-plan-index path, but the stale fallback, index-free planners,
        host failures and the adaptive replanner all *replace* the object,
        so callers re-adopt after every event instead of holding on to one.

        Adoption performs no validation of its own — the adopted object
        carries its incremental indexes and touched tracking with it, so the
        caller (the harness) validates exactly what the surrounding event
        touched instead of the engine re-scanning the whole allocation here.

        ``trusted=True`` declares the adopted state already known feasible
        (the harness validates after every event, so what it hands back is
        exactly what it last checked); the engine then keeps using
        delta-based checks.  Untrusted adoptions make the next strict
        deploy / host-change report fall back to one full validation.
        """
        if allocation.catalog is not self.catalog:
            raise AllocationError(
                "cannot adopt an allocation built on a different catalog"
            )
        self.allocation = allocation
        self._base_validated = bool(trusted)

    # ------------------------------------------------------------ host lifecycle
    @property
    def active_hosts(self) -> List[int]:
        """Ids of hosts currently online."""
        return self.catalog.host_ids

    def add_host(
        self,
        cpu_capacity: float,
        bandwidth_capacity: float,
        name: Optional[str] = None,
        site: int = 0,
    ) -> int:
        """Provision a brand-new host (a host-join event) and return its id.

        On federated catalogs ``site`` places the host in an existing or
        brand-new resource site; planners learn about it through their next
        ``on_topology_change()``.
        """
        return self.catalog.add_host(
            cpu_capacity, bandwidth_capacity, name, site=site
        ).host_id

    def victims_of_host(self, host_id: int) -> List[int]:
        """Admitted queries that depend on ``host_id`` in the live allocation.

        A query is a victim when its result stream is served from the host,
        when its extracted plan touches the host, or when its plan can no
        longer be extracted at all (e.g. the host sourced one of its base
        streams).
        """
        victims: List[int] = []
        for query_id in sorted(self.allocation.admitted_queries):
            query = self.catalog.get_query(query_id)
            if self.allocation.provider_of(query.result_stream) == host_id:
                victims.append(query_id)
                continue
            try:
                plan = extract_plan(self.catalog, self.allocation, query.result_stream)
            except PlanError:
                victims.append(query_id)
                continue
            if host_id in plan.hosts_used():
                victims.append(query_id)
        return victims

    def fail_host(self, host_id: int) -> HostChangeReport:
        """Take ``host_id`` offline and evict every query depending on it.

        The host is deactivated in the catalog (planners stop considering
        it and its base-stream injections disappear), the victim queries are
        removed with garbage collection, and the surviving allocation is
        re-validated.  The report lists the victims so the caller can try to
        re-admit them elsewhere.
        """
        if not self.catalog.is_host_active(host_id):
            raise CatalogError(f"host {host_id} is already offline")
        self.catalog.deactivate_host(host_id)
        previous = self.allocation
        victims = self.victims_of_host(host_id)
        if victims:
            self.allocation = previous.without_queries(victims)
        else:
            # Even with no victims the allocation may carry redundant
            # structures on the dead host that no extracted plan uses (a
            # timed-out incumbent with garbage collection disabled leaves
            # such residue); rebuild so nothing references the host.
            self.allocation = rebuild_minimal_allocation(
                self.catalog, self.allocation
            )
        # Re-validate only what the failure touched: the structures dropped
        # by garbage collection plus the failed host itself.  The rebuilt
        # allocation's pending accumulator already holds the ground-truth
        # diff (seeded by inherit_touched); peek at it instead of
        # re-diffing, and leave it in place for the harness's own check.
        # A base of unknown feasibility (untrusted adopt) gets the full
        # oracle instead, since delta checks cannot see its prior state.
        if self._base_validated:
            hosts, streams, operators = self.allocation.peek_touched()
            hosts.add(host_id)
            violations = self.allocation.validate_delta(hosts, streams, operators)
        else:
            violations = self.allocation.validate()
        # Either way, a report with violations means the base can no longer
        # be trusted for delta-only checks.
        self._base_validated = not violations
        return HostChangeReport(
            host=host_id, victims=victims, violations=violations
        )

    # ------------------------------------------------------------ site lifecycle
    def _plan_site_pairs(self, plan) -> List[tuple]:
        """Ordered site pairs crossed by a plan's inter-host arcs."""
        catalog = self.catalog
        pairs = []
        for node in plan.nodes():
            for child in node.children:
                if child.host != node.host:
                    src_site = catalog.site_of_host(child.host)
                    dst_site = catalog.site_of_host(node.host)
                    if src_site != dst_site:
                        pairs.append((src_site, dst_site))
        return pairs

    def victims_of_site_boundary(self, site: int) -> List[int]:
        """Admitted queries whose plan crosses the boundary of ``site``.

        A query is a victim when its plan spans hosts inside *and* outside
        the site (the plan tree is connected, so spanning implies at least
        one arc crossing the gateway) or when its plan can no longer be
        extracted at all.
        """
        site_hosts = set(self.catalog.hosts_in_site(site))
        victims: List[int] = []
        for query_id in sorted(self.allocation.admitted_queries):
            query = self.catalog.get_query(query_id)
            try:
                plan = extract_plan(self.catalog, self.allocation, query.result_stream)
            except PlanError:
                victims.append(query_id)
                continue
            used = set(plan.hosts_used())
            if used & site_hosts and used - site_hosts:
                victims.append(query_id)
        return victims

    def _evict_and_revalidate(self, victims: List[int], touch_hosts) -> List[str]:
        """Shared tail of the site-level events: drop the victims, then
        re-validate the touched slice (or the full oracle on an untrusted
        base)."""
        if victims:
            self.allocation = self.allocation.without_queries(victims)
        else:
            self.allocation = rebuild_minimal_allocation(self.catalog, self.allocation)
        if self._base_validated:
            hosts, streams, operators = self.allocation.peek_touched()
            hosts.update(touch_hosts)
            violations = self.allocation.validate_delta(hosts, streams, operators)
        else:
            violations = self.allocation.validate()
        self._base_validated = not violations
        return violations

    def partition_site(self, site: int) -> SiteChangeReport:
        """Cut ``site`` off the WAN and evict every query straddling it.

        The site's hosts keep running (site-local queries survive), but any
        admitted query whose plan crossed the site's gateway is evicted;
        the report lists them so the caller can try re-admitting each one —
        a federated planner may then fit it entirely inside one side of the
        partition.
        """
        if self.catalog.is_site_partitioned(site):
            raise CatalogError(f"site {site} is already partitioned")
        self.catalog.partition_site(site)
        victims = self.victims_of_site_boundary(site)
        violations = self._evict_and_revalidate(
            victims, self.catalog.hosts_in_site(site)
        )
        return SiteChangeReport(site=site, victims=victims, violations=violations)

    def heal_site(self, site: int) -> SiteChangeReport:
        """Re-attach a partitioned site to the WAN (gateways come back)."""
        if not self.catalog.is_site_partitioned(site):
            raise CatalogError(f"site {site} is not partitioned")
        self.catalog.heal_site(site)
        # Healing only adds capacity; the allocation is unchanged, so only
        # the site's own constraints need a look on a trusted base.
        if self._base_validated:
            violations = self.allocation.validate_delta(
                set(self.catalog.hosts_in_site(site))
            )
        else:
            violations = self.allocation.validate()
        self._base_validated = not violations
        return SiteChangeReport(site=site, violations=violations)

    def apply_wan_drift(self, factor: float) -> SiteChangeReport:
        """Scale every WAN gateway capacity by ``factor`` and evict the
        queries whose gateways no longer fit.

        After the capacity change, every ordered site pair whose current
        WAN usage exceeds the new effective capacity is drained: all
        admitted queries with a plan arc on an overloaded gateway are
        evicted in one pass (survivors, by construction, put no traffic on
        those gateways).  The report lists the victims for re-admission.
        """
        self.catalog.set_wan_drift(factor)
        overloaded = set()
        for (src_site, dst_site), used in sorted(self.allocation.wan_usage().items()):
            capacity = self.catalog.effective_wan_capacity(src_site, dst_site)
            if capacity is not None and used > capacity + 1e-6:
                overloaded.add((src_site, dst_site))
        if not overloaded:
            # Capacities changed but every gateway still fits: the
            # allocation is untouched, so a trusted base stays trusted.
            violations = [] if self._base_validated else self.allocation.validate()
            self._base_validated = not violations
            return SiteChangeReport(site=-1, violations=violations)
        victims: List[int] = []
        for query_id in sorted(self.allocation.admitted_queries):
            query = self.catalog.get_query(query_id)
            try:
                plan = extract_plan(
                    self.catalog, self.allocation, query.result_stream
                )
            except PlanError:
                victims.append(query_id)
                continue
            if overloaded & set(self._plan_site_pairs(plan)):
                victims.append(query_id)
        touch_hosts = set()
        for src_site, dst_site in overloaded:
            touch_hosts.update(self.catalog.hosts_in_site(src_site))
            touch_hosts.update(self.catalog.hosts_in_site(dst_site))
        violations = self._evict_and_revalidate(victims, touch_hosts)
        return SiteChangeReport(site=-1, victims=victims, violations=violations)

    def restore_host(self, host_id: int) -> HostChangeReport:
        """Bring a failed host back online (its base streams reappear)."""
        if self.catalog.is_host_active(host_id):
            raise CatalogError(f"host {host_id} is already online")
        self.catalog.activate_host(host_id)
        # Recovery only adds capacity and base-stream injection points; the
        # allocation itself is unchanged, so only the host's own constraints
        # need a look — unless the base came from an untrusted adopt, in
        # which case the full oracle (re-)establishes feasibility.
        if self._base_validated:
            violations = self.allocation.validate_delta({host_id})
        else:
            violations = self.allocation.validate()
        self._base_validated = not violations
        return HostChangeReport(host=host_id, violations=violations)

    # ---------------------------------------------------------------- reporting
    def report(self) -> DeploymentReport:
        """Snapshot the cluster state (per-host utilisation distributions)."""
        cpu = [self.allocation.cpu_utilisation(h) for h in self.catalog.host_ids]
        net = [self.allocation.network_usage(h) for h in self.catalog.host_ids]
        return DeploymentReport(
            num_admitted_queries=len(self.allocation.admitted_queries),
            cpu_utilisation=cpu,
            network_usage=net,
            violations=self.allocation.validate(),
        )

    def samples(self) -> List[ResourceSample]:
        """Observed per-host samples from the resource monitor."""
        return self.monitor.sample_all(self.allocation)

    def reset(self) -> None:
        """Drop all deployed queries (used between experiment repetitions).

        Also clears any operator drift injected into the shared
        :class:`ResourceMonitor` — without this a later repetition would
        observe phantom drift from the previous one — and brings every
        failed host back online so repetitions start from identical state.
        """
        self.allocation = Allocation(self.catalog)
        self._base_validated = True
        self._deploy_log.clear()
        self.monitor.reset_drift()
        for host_id in self.catalog.hosts.offline_ids:
            self.catalog.activate_host(host_id)
        for site in self.catalog.partitioned_sites:
            self.catalog.heal_site(site)
        self.catalog.set_wan_drift(1.0)
