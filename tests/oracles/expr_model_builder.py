"""The expression-layer SQPR model builder, kept as a test oracle.

This is :func:`repro.core.model_builder.build_model` as it was before the
builder emitted index rows: every row is assembled from
:class:`~repro.milp.expression.Variable` / :class:`~repro.milp.expression.LinExpr`
objects and registered through :meth:`Model.add_constr`.  The body is
unchanged.  ``tests/test_model_builder_oracle.py`` lowers both builders'
models with :func:`~repro.milp.standard_form.to_standard_form` and requires
identical arrays, so the row builder's coefficients, row order and term
order are pinned against this readable formulation of §III-B.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.model_builder import SqprModel
from repro.core.reduction import ReplanScope
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.exceptions import ModelError
from repro.milp import LinExpr, Model, ObjectiveSense, lin_sum


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
