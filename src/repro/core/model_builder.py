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

The variables are registered as :class:`~repro.milp.expression.Variable`
objects (the :class:`SqprModel` maps, decoding and warm starts read them), but
every row is emitted straight into :meth:`Model.add_row` through the
variables' column indices: the builder creates no expression objects, and
lowering only stacks the stored rows.  The same formulation written with
``LinExpr`` objects is kept as the test oracle
``tests/oracles/expr_model_builder.py``; both must lower to identical arrays.

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
from repro.milp import ConstraintSense, LinExpr, Model, ObjectiveSense, Variable
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

    # Column indices of each variable family: the rows are emitted through them.
    y, d, x, z, p = (
        {key: var.index for key, var in family.items()}
        for family in (built.y_vars, built.d_vars, built.x_vars, built.z_vars, built.p_vars)
    )
    add_row = model.add_row
    LE, GE, EQ = ConstraintSense.LE, ConstraintSense.GE, ConstraintSense.EQ

    placed_credit: Dict[Tuple[int, int], int] = {}
    for h, o in built.placed_operator_credit:
        key = (h, catalog.get_operator(o).output_stream)
        placed_credit[key] = placed_credit.get(key, 0) + 1

    def standing_sources(h: int, s: int) -> float:
        """Sources of ``s`` at ``h`` that no variable models: base injection,
        the availability credit and already-placed producers."""
        base = catalog.streams.get(s).is_base and h in catalog.base_hosts_of(s)
        return float(
            base + ((h, s) in built.availability_credit) + placed_credit.get((h, s), 0)
        )

    # --------------------------------------------------------- demand constraints
    requested = sorted(requested_for_d)
    for s in requested:
        cols = [d[(h, s)] for h in hosts]
        for h, col in zip(hosts, cols):
            add_row((col, y[(h, s)]), (1.0, -1.0), LE, 0.0)
        # (IV.9): already admitted queries may move but not be dropped;
        # forced admission pins a new result the same way.
        pinned = s in scope.keep_provided or (force_admission and s in new_results)
        add_row(cols, [1.0] * len(cols), EQ if pinned else LE, 1.0)

    # --------------------------------------------------- availability constraints
    producers_in_scope: Dict[int, List[int]] = {}
    for o in scope_operators:
        operator = catalog.get_operator(o)
        producers_in_scope.setdefault(operator.output_stream, []).append(o)

    for s in scope_streams:
        producers = producers_in_scope.get(s, [])
        for m in hosts:
            cols = [y[(m, s)]] + [x[(h, m, s)] for h in hosts if h != m]
            cols += [z[(m, o)] for o in producers if (m, o) in z]
            add_row(cols, [1.0] + [-1.0] * (len(cols) - 1), LE, standing_sources(m, s))

    for o in scope_operators:
        operator = catalog.get_operator(o)
        for h in hosts:
            col = z.get((h, o))
            if col is None:
                continue
            for s in operator.input_streams:
                if s in scope.streams:
                    add_row((col, y[(h, s)]), (1.0, -1.0), LE, 0.0)
                elif not allocation.is_available(h, s):
                    # Input outside the scope and not already present: the
                    # operator cannot run here in this round.
                    add_row((col,), (1.0,), LE, 0.0)

    for (h, m, s), col in x.items():
        add_row((col, y[(h, s)]), (1.0, -1.0), LE, 0.0)
        if not allow_relay:
            # Sender must generate the stream locally (no relaying).
            cols = [col] + [z[(h, o)] for o in producers_in_scope.get(s, []) if (h, o) in z]
            add_row(cols, [1.0] + [-1.0] * (len(cols) - 1), LE, standing_sources(h, s))

    # ------------------------------------------------------- resource constraints
    rate = catalog.stream_rate
    rates = [rate(s) for s in scope_streams]
    for h in hosts:
        for m in hosts:
            if h == m:
                continue
            link_free = catalog.link_capacity(h, m) - allocation.link_used(
                h, m, exclude_streams=exclude_streams
            )
            add_row([x[(h, m, s)] for s in scope_streams], rates, LE, link_free)

    if catalog.num_sites > 1:
        # Shared WAN gateways (federated topologies): every flow crossing
        # one ordered site pair shares that gateway's effective capacity,
        # *across* host pairs — the per-link rows above cannot express
        # this.  Background usage follows the same teardown-exclusion rule
        # as the per-link background.
        site_of = catalog.site_of_host
        wan_rows: Dict[Tuple[int, int], Tuple[List[int], List[float]]] = {}
        for (h, m, s), col in x.items():
            src_site = site_of(h)
            dst_site = site_of(m)
            if src_site != dst_site:
                cols, coefs = wan_rows.setdefault((src_site, dst_site), ([], []))
                cols.append(col)
                coefs.append(rate(s))
        for (src_site, dst_site), (cols, coefs) in sorted(wan_rows.items()):
            effective = catalog.effective_wan_capacity(src_site, dst_site)
            if effective is None:
                continue
            wan_free = effective - allocation.wan_used(
                src_site, dst_site, exclude_streams=exclude_streams
            )
            add_row(cols, coefs, LE, wan_free)

    # Each stream's rate once per peer host, stream-major: the coefficients
    # of one host's inbound (or outbound) flows.
    peer_rates = [r for r in rates for _ in range(num_hosts - 1)]
    for m in hosts:
        bandwidth = catalog.hosts.get(m).bandwidth_capacity
        peers = [h for h in hosts if h != m]
        in_free = bandwidth - allocation.in_bandwidth_used(m, exclude_streams=exclude_streams)
        add_row([x[(h, m, s)] for s in scope_streams for h in peers], peer_rates, LE, in_free)

        out_free = bandwidth - allocation.out_bandwidth_used(m, exclude_streams=exclude_streams)
        add_row(
            [x[(m, dst, s)] for s in scope_streams for dst in peers]
            + [d[(m, s)] for s in requested],
            peer_rates + [rate(s) for s in requested],
            LE,
            out_free,
        )

    cpu_cost = {o: catalog.get_operator(o).cpu_cost for o in scope_operators}
    for h in hosts:
        cpu_background = allocation.cpu_used(h, exclude_operators=exclude_operators)
        cpu_free = catalog.hosts.get(h).cpu_capacity - cpu_background
        placeable = [o for o in scope_operators if (h, o) in z]
        cols = [z[(h, o)] for o in placeable]
        costs = [cpu_cost[o] for o in placeable]
        add_row(cols, costs, LE, cpu_free)
        # Linearisation of O4: max_load >= total CPU on every host.
        add_row(cols + [load_var.index], costs + [-1.0], LE, -cpu_background)

    # ----------------------------------------------------- acyclicity constraints
    # p[h,s] >= p[m,s] + 1 - big_m·(1 - x[h,m,s])
    for (h, m, s), col in x.items():
        add_row((p[(h, s)], p[(m, s)], col), (1.0, -1.0, -big_m), GE, 1.0 - big_m)

    # ------------------------------------------------------------------ objective
    # λ1·admissions − λ2·network − λ3·CPU − λ4·max load.
    objective: Dict[Variable, float] = {
        built.d_vars[(h, s)]: weights.admission
        for s in new_results
        for h in hosts
        if (h, s) in built.d_vars
    }
    for (h, m, s), var in built.x_vars.items():
        objective[var] = -(rate(s) * weights.network)
    for (h, o), var in built.z_vars.items():
        objective[var] = -(cpu_cost[o] * weights.cpu)
    objective[load_var] = -weights.balance
    model.set_objective(LinExpr(objective))
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
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Drop all cached models and counters (e.g. on planner reset)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

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
