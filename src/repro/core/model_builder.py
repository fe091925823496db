"""Build the reduced SQPR MILP for one planning round.

This module translates §III-B of the paper into a
:class:`repro.milp.model.Model`:

* decision variables ``d`` (provide stream to clients), ``x`` (ship stream
  between hosts), ``y`` (stream available at host), ``z`` (operator placed on
  host) and ``p`` (acyclicity potentials);
* demand constraints (III.4), availability constraints (III.5), resource
  constraints (III.6) and acyclicity constraints (III.7);
* the weighted objective λ1·O1 − λ2·O2 − λ3·O3 − λ4·O4, with O4 linearised
  through an auxiliary "maximum load" variable;
* the keep-admitted constraint (IV.9) for already-provided streams in scope.

Only variables for streams/operators inside the :class:`ReplanScope` are
created — this *is* the paper's problem-reduction step (§IV-A): variables for
irrelevant streams are conceptually fixed to their previous values, which we
realise by not instantiating them and instead subtracting their resource
usage from the capacities ("background usage").

Two planning modes are supported:

``replan`` (paper behaviour)
    Structures involving scope streams/operators may be torn down and
    rebuilt; their current resource usage is excluded from the background.

``frozen`` (ablation: greedy reuse without re-planning)
    Existing structures are immutable.  Their usage stays in the background,
    already-available scope streams earn an availability credit in (III.5a)
    and already-placed scope operators earn a generation credit instead of a
    ``z`` variable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.reduction import ReplanScope
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import SystemCatalog
from repro.milp import LinExpr, Model, ObjectiveSense, Variable, VarType, lin_sum
from repro.exceptions import ModelError


@dataclass
class SqprModel:
    """The reduced MILP plus the bookkeeping needed to decode its solution."""

    model: Model
    scope: ReplanScope
    frozen_mode: bool
    d_vars: Dict[Tuple[int, int], Variable] = field(default_factory=dict)  # (host, stream)
    x_vars: Dict[Tuple[int, int, int], Variable] = field(default_factory=dict)  # (src, dst, stream)
    y_vars: Dict[Tuple[int, int], Variable] = field(default_factory=dict)  # (host, stream)
    z_vars: Dict[Tuple[int, int], Variable] = field(default_factory=dict)  # (host, operator)
    p_vars: Dict[Tuple[int, int], Variable] = field(default_factory=dict)  # (host, stream)
    load_var: Optional[Variable] = None  # linearised O4 (maximum CPU load)
    requested_streams: FrozenSet[int] = frozenset()
    new_result_streams: FrozenSet[int] = frozenset()
    placed_operator_credit: Set[Tuple[int, int]] = field(default_factory=set)
    availability_credit: Set[Tuple[int, int]] = field(default_factory=set)
    teardown_streams: FrozenSet[int] = frozenset()
    teardown_operators: FrozenSet[int] = frozenset()

    @property
    def num_binary_variables(self) -> int:
        """Number of binary variables in the reduced model."""
        return self.model.num_integer_variables

    def start_from_delta(
        self, catalog: SystemCatalog, delta: PlacementDelta, max_load: float
    ) -> Optional[Dict[Variable, float]]:
        """Complete an additive placement delta into a full assignment.

        Meant for frozen-mode models, where a plan only *adds* structures:
        ``d``/``x``/``z`` follow the delta, ``y`` is raised wherever the
        delta provides, ships, receives, generates or consumes a stream
        (streams already present there are covered by the model's
        availability credits), every flow's sender gets potential 1 (the
        delta's flows must be single-hop — receivers stay at 0) and
        ``max_load`` takes the given value; everything else is 0.

        Returns ``None`` when the delta names a structure the model has no
        variable for (an offline host, an operator already credited as
        placed).  The result is a *proposal*: whether the model's rows admit
        it is for the solver's feasibility test to decide.
        """
        values = dict.fromkeys(self.model.variables, 0.0)
        y_vars = self.y_vars
        try:
            for stream_id, host in delta.set_provided.items():
                values[self.d_vars[(host, stream_id)]] = 1.0
                values[y_vars[(host, stream_id)]] = 1.0
            for key in delta.add_available:
                values[y_vars[key]] = 1.0
            for src, dst, stream_id in delta.add_flows:
                values[self.x_vars[(src, dst, stream_id)]] = 1.0
                values[y_vars[(src, stream_id)]] = 1.0
                values[y_vars[(dst, stream_id)]] = 1.0
                values[self.p_vars[(src, stream_id)]] = 1.0
            for host, operator_id in delta.add_placements:
                values[self.z_vars[(host, operator_id)]] = 1.0
                operator = catalog.get_operator(operator_id)
                values[y_vars[(host, operator.output_stream)]] = 1.0
                for stream_id in operator.input_streams:
                    values[y_vars[(host, stream_id)]] = 1.0
        except KeyError:
            return None
        values[self.load_var] = max_load
        return values


def build_model(
    catalog: SystemCatalog,
    allocation: Allocation,
    scope: ReplanScope,
    weights: ObjectiveWeights,
    frozen_mode: bool = False,
    allow_relay: bool = True,
    max_relay_hops: int = 3,
    force_admission: bool = False,
) -> SqprModel:
    """Build the reduced MILP for ``scope`` on top of ``allocation``.

    Parameters
    ----------
    frozen_mode:
        Use the "frozen" ablation mode (see module docstring).
    allow_relay:
        When false, a host may only ship a stream it generates locally
        (disables the relay operator µ, reproducing the Fig. 2 discussion).
    max_relay_hops:
        Bound on the length of relay chains.  The paper's potentials allow
        chains up to H-1 hops with a big-M of H+2; long chains are never
        useful in a flat data-centre network, and a small bound makes the
        big-M acyclicity constraints (III.7) far tighter for the solver.
    force_admission:
        Require every new result stream to be provided (Σ_h d = 1 instead of
        ≤ 1).  With λ1 chosen "sufficiently large" the objective is already
        lexicographic in admissions; turning the preference into a hard
        constraint turns the solve into a feasibility search, which is what
        the re-planning fallback stage needs under tight timeouts.
    """
    hosts = catalog.host_ids
    if not hosts:
        raise ModelError("cannot plan on a catalog with no hosts")
    scope_streams = sorted(scope.streams)
    scope_operators = sorted(scope.operators)
    new_results = frozenset(
        catalog.get_query(qid).result_stream for qid in scope.new_queries
    )

    model = Model("sqpr", sense=ObjectiveSense.MAXIMIZE)

    # ----------------------------------------------------- protection & teardown
    # Streams/operators that also belong to admitted queries *outside* the
    # re-planning set must not be torn down: those queries keep running
    # unchanged, so their structures act as immutable background that the new
    # plan may reuse (availability credits) but not move.  In frozen mode
    # everything existing is protected.
    if frozen_mode:
        protected_streams: Set[int] = set(scope_streams)
        protected_operators: Set[int] = set(scope_operators)
    else:
        # A scope stream/operator is protected iff some *untouched* admitted
        # query (outside the replanned and new sets) lists it among its
        # candidates.  The allocation's query-membership index answers that
        # per entity: a candidate user set larger than the excluded set
        # must contain an untouched query (the excluded ids are the only
        # ones that could be discounted); otherwise the handful of users
        # is checked directly.  O(|scope| × |excluded|) instead of a loop over
        # every resident query.
        protected_streams = set()
        protected_operators = set()
        excluded = set(scope.replanned_queries) | set(scope.new_queries)
        for stream_id in scope_streams:
            users = allocation.queries_using_stream(stream_id)
            if len(users) > len(excluded) or any(
                qid not in excluded for qid in users
            ):
                protected_streams.add(stream_id)
        for operator_id in scope_operators:
            users = allocation.queries_using_operator(operator_id)
            if len(users) > len(excluded) or any(
                qid not in excluded for qid in users
            ):
                protected_operators.add(operator_id)
    teardown_streams = set(scope_streams) - protected_streams
    teardown_operators = set(scope_operators) - protected_operators

    # Client deliveries (d) are only re-decided for new result streams and for
    # kept streams that are actually being torn down; protected kept streams
    # simply stay with their current provider.
    requested_for_d = set(new_results) | (set(scope.keep_provided) & teardown_streams)

    built = SqprModel(
        model=model,
        scope=scope,
        frozen_mode=frozen_mode,
        requested_streams=frozenset(requested_for_d),
        new_result_streams=new_results,
        teardown_streams=frozenset(teardown_streams),
        teardown_operators=frozenset(teardown_operators),
    )

    # Background usage: resources consumed by structures the model does not
    # control.  Only torn-down structures are excluded; protected and
    # out-of-scope structures keep consuming their resources.
    exclude_streams: Set[int] = set(teardown_streams)
    exclude_operators: Set[int] = set(teardown_operators)

    # ----------------------------------------------------------------- variables
    for s in scope_streams:
        for h in hosts:
            built.y_vars[(h, s)] = model.add_binary(f"y[{h},{s}]")
    for s in sorted(requested_for_d):
        for h in hosts:
            built.d_vars[(h, s)] = model.add_binary(f"d[{h},{s}]")
    for s in scope_streams:
        for h in hosts:
            for m in hosts:
                if h != m:
                    built.x_vars[(h, m, s)] = model.add_binary(f"x[{h},{m},{s}]")
    for o in scope_operators:
        for h in hosts:
            if o in protected_operators and allocation.has_placement(h, o):
                # Already running here and immutable: credit its output
                # availability instead of modelling it.
                built.placed_operator_credit.add((h, o))
                continue
            built.z_vars[(h, o)] = model.add_binary(f"z[{h},{o}]")
    # Acyclicity potentials.  The potential range caps the length of relay
    # chains; big_m only needs to dominate the largest possible potential
    # difference plus one.
    num_hosts = len(hosts)
    potential_cap = min(max(1, max_relay_hops), num_hosts + 1)
    big_m = potential_cap + 2
    p_vars = built.p_vars
    for s in scope_streams:
        for h in hosts:
            p_vars[(h, s)] = model.add_continuous(f"p[{h},{s}]", 0.0, potential_cap)
    # Linearised O4 (maximum CPU load over hosts).
    max_cpu_capacity = max(catalog.hosts.get(h).cpu_capacity for h in hosts)
    load_var = model.add_continuous("max_load", 0.0, max_cpu_capacity * 10.0 + 1.0)
    built.load_var = load_var

    # Availability credit: protected scope streams already available at a host
    # through immutable structures stay available there.  The stream→hosts
    # index makes this O(|protected| × degree) instead of a full scan of
    # every availability entry in the system.
    for s in protected_streams:
        for h in allocation.hosts_with_stream(s):
            built.availability_credit.add((h, s))

    # --------------------------------------------------------- demand constraints
    for s in sorted(requested_for_d):
        for h in hosts:
            model.add_constr(
                built.d_vars[(h, s)] <= built.y_vars[(h, s)],
                name=f"demand_avail[{h},{s}]",
            )
        total_d = lin_sum(built.d_vars[(h, s)] for h in hosts)
        if s in scope.keep_provided:
            # (IV.9): already admitted queries may move but not be dropped.
            model.add_constr(total_d == 1, name=f"keep_admitted[{s}]")
        elif force_admission and s in new_results:
            model.add_constr(total_d == 1, name=f"force_admit[{s}]")
        else:
            model.add_constr(total_d <= 1, name=f"demand_once[{s}]")

    # --------------------------------------------------- availability constraints
    producers_in_scope: Dict[int, List[int]] = {}
    for o in scope_operators:
        operator = catalog.get_operator(o)
        producers_in_scope.setdefault(operator.output_stream, []).append(o)

    for s in scope_streams:
        stream = catalog.streams.get(s)
        for m in hosts:
            sources: List = [
                built.x_vars[(h, m, s)] for h in hosts if h != m
            ]
            for o in producers_in_scope.get(s, []):
                var = built.z_vars.get((m, o))
                if var is not None:
                    sources.append(var)
            credit = 0.0
            if stream.is_base and m in catalog.base_hosts_of(s):
                credit += 1.0
            if (m, s) in built.availability_credit:
                credit += 1.0
            for h, o in built.placed_operator_credit:
                if h == m and catalog.get_operator(o).output_stream == s:
                    credit += 1.0
            model.add_constr(
                built.y_vars[(m, s)] <= lin_sum(sources) + credit,
                name=f"avail_source[{m},{s}]",
            )

    for o in scope_operators:
        operator = catalog.get_operator(o)
        for h in hosts:
            z_var = built.z_vars.get((h, o))
            if z_var is None:
                continue
            for s in operator.input_streams:
                if s in scope.streams:
                    model.add_constr(
                        z_var <= built.y_vars[(h, s)],
                        name=f"op_inputs[{h},{o},{s}]",
                    )
                elif not allocation.is_available(h, s):
                    # Input outside the scope and not already present: the
                    # operator cannot run here in this round.
                    model.add_constr(z_var <= 0, name=f"op_inputs_fixed[{h},{o},{s}]")

    for (h, m, s), x_var in built.x_vars.items():
        model.add_constr(x_var <= built.y_vars[(h, s)], name=f"flow_avail[{h},{m},{s}]")
        if not allow_relay:
            # Sender must generate the stream locally (no relaying).
            stream = catalog.streams.get(s)
            generators: List = [
                built.z_vars[(h, o)]
                for o in producers_in_scope.get(s, [])
                if (h, o) in built.z_vars
            ]
            credit = 0.0
            if stream.is_base and h in catalog.base_hosts_of(s):
                credit += 1.0
            if (h, s) in built.availability_credit:
                credit += 1.0
            for hh, o in built.placed_operator_credit:
                if hh == h and catalog.get_operator(o).output_stream == s:
                    credit += 1.0
            model.add_constr(
                x_var <= lin_sum(generators) + credit,
                name=f"no_relay[{h},{m},{s}]",
            )

    # ------------------------------------------------------- resource constraints
    rate = catalog.stream_rate
    for h in hosts:
        for m in hosts:
            if h == m:
                continue
            link_free = catalog.link_capacity(h, m) - allocation.link_used(
                h, m, exclude_streams=exclude_streams
            )
            terms = [rate(s) * built.x_vars[(h, m, s)] for s in scope_streams]
            model.add_constr(lin_sum(terms) <= link_free, name=f"link[{h},{m}]")

    if catalog.num_sites > 1:
        # Shared WAN gateways (federated topologies): every flow crossing
        # one ordered site pair shares that gateway's effective capacity,
        # *across* host pairs — the per-link rows above cannot express
        # this.  Background usage follows the same teardown-exclusion rule
        # as the per-link background.
        site_of = catalog.site_of_host
        wan_rows: Dict[Tuple[int, int], List] = {}
        for (h, m, s), x_var in built.x_vars.items():
            src_site = site_of(h)
            dst_site = site_of(m)
            if src_site != dst_site:
                wan_rows.setdefault((src_site, dst_site), []).append(
                    rate(s) * x_var
                )
        for (src_site, dst_site), terms in sorted(wan_rows.items()):
            effective = catalog.effective_wan_capacity(src_site, dst_site)
            if effective is None:
                continue
            wan_free = effective - allocation.wan_used(
                src_site, dst_site, exclude_streams=exclude_streams
            )
            model.add_constr(
                lin_sum(terms) <= wan_free,
                name=f"wan[{src_site},{dst_site}]",
            )

    for m in hosts:
        bandwidth = catalog.hosts.get(m).bandwidth_capacity
        in_free = bandwidth - allocation.in_bandwidth_used(m, exclude_streams=exclude_streams)
        in_terms = [
            rate(s) * built.x_vars[(h, m, s)]
            for s in scope_streams
            for h in hosts
            if h != m
        ]
        model.add_constr(lin_sum(in_terms) <= in_free, name=f"in_bw[{m}]")

        out_free = bandwidth - allocation.out_bandwidth_used(m, exclude_streams=exclude_streams)
        out_terms: List[LinExpr] = [
            rate(s) * built.x_vars[(m, dst, s)]
            for s in scope_streams
            for dst in hosts
            if dst != m
        ]
        out_terms.extend(
            rate(s) * built.d_vars[(m, s)] for s in sorted(requested_for_d)
        )
        model.add_constr(lin_sum(out_terms) <= out_free, name=f"out_bw[{m}]")

    for h in hosts:
        cpu_background = allocation.cpu_used(h, exclude_operators=exclude_operators)
        cpu_free = catalog.hosts.get(h).cpu_capacity - cpu_background
        cpu_terms = [
            catalog.get_operator(o).cpu_cost * built.z_vars[(h, o)]
            for o in scope_operators
            if (h, o) in built.z_vars
        ]
        model.add_constr(lin_sum(cpu_terms) <= cpu_free, name=f"cpu[{h}]")
        # Linearisation of O4: max_load >= total CPU on every host.
        model.add_constr(
            lin_sum(cpu_terms) + cpu_background <= load_var,
            name=f"max_load[{h}]",
        )

    # ----------------------------------------------------- acyclicity constraints
    for (h, m, s), x_var in built.x_vars.items():
        model.add_constr(
            p_vars[(h, s)] >= p_vars[(m, s)] + 1 - big_m * (1 - x_var.to_expr()),
            name=f"acyclic[{h},{m},{s}]",
        )

    # ------------------------------------------------------------------ objective
    admission_terms = [
        built.d_vars[(h, s)] for s in new_results for h in hosts if (h, s) in built.d_vars
    ]
    network_terms = [rate(s) * var for (h, m, s), var in built.x_vars.items()]
    cpu_cost_terms = [
        catalog.get_operator(o).cpu_cost * var for (h, o), var in built.z_vars.items()
    ]
    objective = (
        weights.admission * lin_sum(admission_terms)
        - weights.network * lin_sum(network_terms)
        - weights.cpu * lin_sum(cpu_cost_terms)
        - weights.balance * load_var
    )
    model.set_objective(objective)
    return built


# --------------------------------------------------------------------- reuse
def catalog_fingerprint(catalog: SystemCatalog, scope: ReplanScope) -> Tuple:
    """A hashable snapshot of the catalog state ``build_model`` reads.

    Streams, operators and queries are immutable once registered, so the
    scope's id sets already pin them.  What *can* change between planning
    rounds is host/link provisioning (``set_link_capacity``, ``add_host``)
    and base-stream placement (``add_base_stream_location``) — resource
    sweeps like fig. 5(b) do exactly this — so those go into the reuse key
    explicitly.
    """
    hosts = catalog.host_ids
    sites = catalog.sites
    return (
        tuple(
            (h, catalog.hosts.get(h).cpu_capacity, catalog.hosts.get(h).bandwidth_capacity)
            for h in hosts
        ),
        tuple(
            catalog.link_capacity(h, m) for h in hosts for m in hosts if h != m
        ),
        # Effective WAN gateway state (partitions, drift): the shared-WAN
        # rows read it, and the per-pair link capping alone does not always
        # reveal a change (a gateway wider than the links it carries).
        tuple(
            (a, b, catalog.effective_wan_capacity(a, b))
            for a in sites
            for b in sites
            if a != b
        ),
        tuple(
            (s, catalog.base_hosts_of(s))
            for s in sorted(scope.streams)
            if catalog.streams.get(s).is_base
        ),
    )


def allocation_fingerprint(allocation: Allocation) -> Tuple:
    """A hashable snapshot of everything ``build_model`` reads from an allocation.

    The model depends on the allocation through background resource usage
    (flows, placements), availability credits (``available``), protection of
    structures shared with untouched queries (``admitted_queries``) and the
    provided map.  This returns the allocation's *rolling* fingerprint — an
    order-independent XOR digest maintained in O(1) per mutation by
    ``Allocation.apply`` and friends — so fingerprinting a planning round
    costs O(1) instead of re-hashing every structure in the system.  Equal
    contents always fingerprint equally; distinct contents collide only
    with 64-bit-hash probability (see :meth:`Allocation.fingerprint`).
    """
    return allocation.fingerprint()


def allocation_fingerprint_exact(allocation: Allocation) -> Tuple:
    """The exact (content-enumerating) fingerprint, kept as a test oracle.

    O(allocation size) — this is what every planning round used to pay
    before the rolling fingerprint; ``tests/test_allocation_indexes.py``
    compares the two across random mutation histories to pin the
    equal-content ⇒ equal-fingerprint contract.
    """
    return (
        frozenset(allocation.flows),
        frozenset(allocation.available),
        frozenset(allocation.placements),
        frozenset(allocation.admitted_queries),
        tuple(sorted(allocation.provided.items())),
    )


class ModelReuseCache:
    """LRU cache of built :class:`SqprModel` keyed by their full build inputs.

    This is the paper's reuse idea applied to the solver layer: a planning
    round whose reduced scope *and* system state match a previous round gets
    the previous round's model back verbatim — no variable creation, no
    constraint assembly, and (through the standard-form cache on the model)
    no re-lowering.  Hits require resubmitting the *same* registered
    :class:`~repro.dsps.query.Query` while the allocation is unchanged —
    the retry-after-rejection loop (a rejection leaves the allocation
    untouched).  Submitting a fresh ``QueryWorkloadItem`` registers a new
    query id and therefore always misses; such rounds pay only the
    fingerprinting cost.

    Keys include a :func:`catalog_fingerprint` and an
    :func:`allocation_fingerprint` — the allocation part is the O(1)
    rolling digest maintained by ``Allocation.apply``, so keying a round no
    longer re-hashes the whole system state.  A hit therefore means the
    model would be rebuilt identically (up to the astronomically unlikely
    64-bit digest collision); reuse never changes planning results.

    The cache is safe to share across threads (the federated planner's
    concurrent shard mode, a planner behind the admission service): every
    LRU/counter mutation happens under one lock.  Model *construction* on a
    miss deliberately runs outside the lock, so a slow build never blocks
    concurrent lookups; two threads racing on the same key both build and
    the later insert wins, which only costs duplicate work, never
    correctness (the models are identical by keying).
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, SqprModel]" = OrderedDict()
        # Incumbent simplex bases keyed by model *structure* (not full build
        # inputs): a basis survives bound/RHS perturbations of the same
        # row/column layout, which is exactly what the dual simplex resumes
        # from.  A structurally stale basis is detected and discarded by the
        # LP engine itself, so an imperfect key costs a cold fallback, never
        # a wrong answer.
        self._basis_store: "OrderedDict[Tuple, object]" = OrderedDict()
        self._hot_basis_key: Optional[Tuple] = None
        self.basis_hits = 0
        self.basis_misses = 0
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Drop all cached models and counters (e.g. on planner reset)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self._basis_store.clear()
            self._hot_basis_key = None
            self.basis_hits = 0
            self.basis_misses = 0

    # ----------------------------------------------------------- basis store
    def store_basis(self, key: Tuple, basis) -> None:
        """Remember the incumbent basis for a model structure.

        Only the most recently stored basis keeps its ``m x m`` inverse
        (the next solve under the same structure re-installs it without a
        refactorisation); older entries are stripped to their column/bound
        vectors, bounding the store's memory at one inverse regardless of
        how many structures are live.
        """
        if basis is None:
            return
        with self._lock:
            if (
                self._hot_basis_key is not None
                and self._hot_basis_key != key
                and self._hot_basis_key in self._basis_store
            ):
                self._basis_store[self._hot_basis_key].binv = None
            self._hot_basis_key = key
            self._basis_store[key] = basis
            self._basis_store.move_to_end(key)
            while len(self._basis_store) > self.max_entries:
                evicted_key, _ = self._basis_store.popitem(last=False)
                if evicted_key == self._hot_basis_key:
                    self._hot_basis_key = None

    def basis_for(self, key: Tuple):
        """The stored incumbent basis for ``key``, or ``None`` (counted)."""
        with self._lock:
            basis = self._basis_store.get(key)
            if basis is not None:
                self._basis_store.move_to_end(key)
                self.basis_hits += 1
                return basis
            self.basis_misses += 1
            return None

    def get_or_build(
        self,
        catalog: SystemCatalog,
        allocation: Allocation,
        scope: ReplanScope,
        weights: ObjectiveWeights,
        frozen_mode: bool = False,
        allow_relay: bool = True,
        max_relay_hops: int = 3,
        force_admission: bool = False,
    ) -> Tuple[SqprModel, bool]:
        """Return ``(model, reused)`` — a cached model when the inputs match."""
        key = (
            frozen_mode,
            allow_relay,
            max_relay_hops,
            force_admission,
            scope.new_queries,
            scope.streams,
            scope.operators,
            scope.keep_provided,
            scope.replanned_queries,
            (weights.admission, weights.network, weights.cpu, weights.balance),
            catalog_fingerprint(catalog, scope),
            allocation_fingerprint(allocation),
        )
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached, True
        built = build_model(
            catalog,
            allocation,
            scope,
            weights,
            frozen_mode=frozen_mode,
            allow_relay=allow_relay,
            max_relay_hops=max_relay_hops,
            force_admission=force_admission,
        )
        with self._lock:
            self._entries[key] = built
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self.misses += 1
        return built, False
