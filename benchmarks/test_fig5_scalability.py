"""Benchmarks reproducing Figure 5: scalability of query planning.

* Fig. 5(a): satisfiable queries vs number of hosts.
* Fig. 5(b): satisfiable queries vs per-host resources (CPU cores, 10×
  network capacity).
* Fig. 5(c): satisfiable queries vs query complexity (2-way .. 5-way joins).

``test_fig5_planning_time_report`` additionally tracks *planning time* per
model size across PRs: it times the SQPR LP relaxation on growing fig. 5
style models with the dense reference tableau and the sparse revised
simplex, writes ``BENCH_fig5.json`` at the repository root (format
documented in ``docs/benchmarks.md``), and asserts the sparse engine is at
least 3x faster at the largest configured size.  Set ``FIG5_QUICK=1`` for
the small-size CI mode and ``FIG5_BENCH_OUT`` to redirect the report.  This
test needs no pytest-benchmark plugin:

    pytest benchmarks/test_fig5_scalability.py -k planning_time -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.model_builder import build_model
from repro.core.reduction import compute_scope
from repro.core.weights import ObjectiveWeights
from repro.dsps.allocation import Allocation
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.experiments import figures
from repro.milp.simplex import solve_lp_simplex
from repro.milp.standard_form import to_standard_form

from benchmarks.conftest import BOUND, SQPR, run_figure
from tests.oracles.dense_simplex import solve_lp_dense


@pytest.mark.benchmark(group="fig5")
def test_fig5a_scalability_hosts(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5a_scalability_hosts,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    bound = result.series[BOUND]
    # More hosts -> at least as many satisfiable queries (small tolerance).
    assert sqpr[-1] >= sqpr[0] - 2
    assert bound[-1] >= bound[0]
    # The optimistic bound stays an upper envelope (up to solver noise).
    for s, b in zip(sqpr, bound):
        assert s <= b + 2


@pytest.mark.benchmark(group="fig5")
def test_fig5b_scalability_resources(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5b_scalability_resources,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    # Richer hosts admit at least as many queries; with 8x CPU the workload
    # should be fully admitted or close to it.
    assert sqpr[-1] >= sqpr[0]
    assert sqpr[-1] >= 0.8 * max(result.series[BOUND])


# --------------------------------------------------------------------------
# Planning-time trajectory: dense reference tableau vs sparse revised simplex,
# plus a "re-plan after perturbation" column: after the cold solve the
# capacity rows are degraded (a host losing resources) and the perturbed LP
# is re-solved cold vs warm from the incumbent basis (dual simplex resume).

#: (num_hosts, join_arity, dense_oracle) per measured size.  The largest
#: entry with ``dense_oracle=True`` carries the >= 3x dense-vs-sparse
#: assertion; the largest entry overall carries the >= 3x warm-replan
#: assertion.  Sizes beyond the dense tableau's practical range set
#: ``dense_oracle=False`` and skip the dense timing.  Quick mode keeps CI
#: runs under ~10 s.
FULL_SIZES = [(4, 3, True), (6, 3, True), (8, 4, True), (12, 4, False)]
QUICK_SIZES = [(4, 3, True), (6, 3, True)]

MIN_SPEEDUP_AT_LARGEST = 3.0
MIN_REPLAN_SPEEDUP_AT_LARGEST = 3.0
#: Quick mode measures tiny LPs where fixed per-solve overhead dominates, so
#: the warm-replan ratio gate is relaxed there (full mode keeps the 3x gate).
MIN_REPLAN_SPEEDUP_QUICK = 1.5

#: Capacity rows (large RHS) are scaled by this factor for the perturbation
#: re-solve; small structural RHS entries (the <= 1 demand rows) are kept.
PERTURB_CAPACITY_SCALE = 0.9
PERTURB_RHS_CUTOFF = 2.0


def _fig5_planning_model(num_hosts: int, arity: int):
    """The reduced SQPR MILP for one ``arity``-way join on ``num_hosts`` hosts."""
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=DecompositionMode.CANONICAL,
        default_link_capacity=1000.0,
    )
    for i in range(num_hosts):
        catalog.add_host(cpu_capacity=10.0, bandwidth_capacity=500.0, name=f"h{i}")
    for i in range(arity):
        catalog.add_base_stream(f"b{i}", 10.0, i % num_hosts)
    query = catalog.register_query(
        QueryWorkloadItem(base_names=tuple(f"b{i}" for i in range(arity)))
    )
    allocation = Allocation(catalog)
    scope = compute_scope(catalog, allocation, [query])
    built = build_model(
        catalog, allocation, scope, ObjectiveWeights.paper_default(catalog)
    )
    return to_standard_form(built.model)


def _timed_lp(form, engine: str, b_ub=None, warm_basis=None):
    """Solve the form's LP with the ``"simplex"`` engine or the ``"dense"``
    oracle (which takes dense blocks) and time it."""
    b_ub = form.b_ub if b_ub is None else b_ub
    start = time.perf_counter()
    if engine == "dense":
        solution = solve_lp_dense(
            form.c, form.a_ub.toarray(), b_ub, form.a_eq.toarray(), form.b_eq,
            form.lower, form.upper,
        )
    else:
        solution = solve_lp_simplex(
            form.c, form.a_ub, b_ub, form.a_eq, form.b_eq, form.lower, form.upper,
            warm_basis=warm_basis,
        )
    return solution, time.perf_counter() - start


def _perturbed_rhs(form):
    """Degrade the capacity rows, as a host losing resources would.

    Only large right-hand sides (CPU, link, bandwidth budgets) are scaled;
    the structural ``<= 1`` demand rows are left alone so the perturbed LP
    keeps the same admission semantics.
    """
    b_ub = np.array(form.b_ub, dtype=float, copy=True)
    capacity_rows = b_ub > PERTURB_RHS_CUTOFF
    b_ub[capacity_rows] *= PERTURB_CAPACITY_SCALE
    return b_ub


def _admission_mass(form, x):
    """Per-stream admission mass: sum of the ``d[h,s]`` values per stream.

    The ``d`` variables are the paper's admission decisions; comparing their
    per-stream totals (rather than raw vectors) keeps the check stable under
    degenerate alternate optima that merely move a plan between hosts.
    """
    mass = {}
    for i, var in enumerate(form.variables):
        if var.name.startswith("d["):
            stream = var.name[var.name.index(",") + 1 : -1]
            mass[stream] = mass.get(stream, 0.0) + float(x[i])
    return {stream: round(total, 6) for stream, total in mass.items()}


def test_fig5_planning_time_report():
    quick = bool(os.environ.get("FIG5_QUICK"))
    sizes = QUICK_SIZES if quick else FULL_SIZES
    out_path = Path(
        os.environ.get(
            "FIG5_BENCH_OUT", Path(__file__).resolve().parent.parent / "BENCH_fig5.json"
        )
    )

    records = []
    largest_oracle_index = None
    for num_hosts, arity, dense_oracle in sizes:
        form = _fig5_planning_model(num_hosts, arity)
        sparse_sol, sparse_seconds = _timed_lp(form, "simplex")
        warm_sol, warm_seconds = _timed_lp(form, "simplex", warm_basis=sparse_sol.basis)
        assert sparse_sol.is_optimal and warm_sol.is_optimal
        scale = max(1.0, abs(sparse_sol.objective))
        assert abs(warm_sol.objective - sparse_sol.objective) <= 1e-5 * scale

        dense_seconds = None
        speedup = None
        if dense_oracle:
            dense_sol, dense_seconds = _timed_lp(form, "dense")
            assert dense_sol.is_optimal
            assert abs(sparse_sol.objective - dense_sol.objective) <= 1e-5 * scale
            speedup = round(dense_seconds / max(1e-9, sparse_seconds), 2)
            largest_oracle_index = len(records)

        # Re-plan after perturbation: degrade the capacity rows and re-solve
        # cold (fresh phase-1 primal) vs warm (dual simplex resuming the
        # incumbent basis).  Both must agree exactly on what is admitted.
        b_ub_pert = _perturbed_rhs(form)
        cold_replan_sol, cold_replan_seconds = _timed_lp(form, "simplex", b_ub=b_ub_pert)
        warm_replan_sol, warm_replan_seconds = _timed_lp(
            form, "simplex", b_ub=b_ub_pert, warm_basis=sparse_sol.basis
        )
        assert cold_replan_sol.is_optimal and warm_replan_sol.is_optimal
        replan_scale = max(1.0, abs(cold_replan_sol.objective))
        assert (
            abs(warm_replan_sol.objective - cold_replan_sol.objective)
            <= 1e-5 * replan_scale
        )
        assert warm_replan_sol.warm_status == "dual_resume", (
            f"warm re-plan fell back to {warm_replan_sol.warm_status!r} at "
            f"hosts={num_hosts} arity={arity}"
        )
        cold_mass = _admission_mass(form, cold_replan_sol.x)
        warm_mass = _admission_mass(form, warm_replan_sol.x)
        assert warm_mass == cold_mass, (
            f"warm and cold re-plans disagree on admission decisions: "
            f"{warm_mass} != {cold_mass}"
        )

        records.append(
            {
                "num_hosts": num_hosts,
                "join_arity": arity,
                "num_variables": form.num_variables,
                "num_constraints": form.a_ub.shape[0] + form.a_eq.shape[0],
                "nnz": form.a_ub.nnz + form.a_eq.nnz,
                "dense_oracle": dense_oracle,
                "dense_seconds": None if dense_seconds is None else round(dense_seconds, 6),
                "sparse_seconds": round(sparse_seconds, 6),
                "sparse_warm_seconds": round(warm_seconds, 6),
                "speedup": speedup,
                "replan_cold_seconds": round(cold_replan_seconds, 6),
                "replan_warm_seconds": round(warm_replan_seconds, 6),
                "replan_speedup": round(
                    cold_replan_seconds / max(1e-9, warm_replan_seconds), 2
                ),
                "replan_warm_status": warm_replan_sol.warm_status,
                "replan_dual_iterations": (
                    warm_replan_sol.counters.dual_iterations
                    if warm_replan_sol.counters is not None
                    else None
                ),
                "objective": sparse_sol.objective,
                "replan_objective": cold_replan_sol.objective,
            }
        )
        print(
            f"fig5 planning time: hosts={num_hosts} arity={arity} "
            f"vars={records[-1]['num_variables']} "
            f"dense={'-' if dense_seconds is None else f'{dense_seconds:.3f}s'} "
            f"sparse={sparse_seconds:.3f}s warm={warm_seconds:.3f}s "
            f"speedup={records[-1]['speedup']}x "
            f"replan cold={cold_replan_seconds:.3f}s "
            f"warm={warm_replan_seconds:.3f}s "
            f"({records[-1]['replan_speedup']}x, "
            f"{records[-1]['replan_warm_status']})"
        )

    report = {
        "figure": "fig5_planning_time",
        "quick_mode": quick,
        "baseline_engine": "dense",
        "candidate_engine": "simplex",
        "min_speedup_at_largest": MIN_SPEEDUP_AT_LARGEST,
        "min_replan_speedup_at_largest": (
            MIN_REPLAN_SPEEDUP_QUICK if quick else MIN_REPLAN_SPEEDUP_AT_LARGEST
        ),
        "perturbation": {
            "capacity_scale": PERTURB_CAPACITY_SCALE,
            "rhs_cutoff": PERTURB_RHS_CUTOFF,
        },
        "sizes": records,
        "largest": records[-1],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"fig5 planning-time report written to {out_path}")

    assert largest_oracle_index is not None
    oracle_record = records[largest_oracle_index]
    assert oracle_record["speedup"] >= MIN_SPEEDUP_AT_LARGEST, (
        f"sparse simplex is only {oracle_record['speedup']}x faster than the "
        f"dense tableau at the largest oracle size; expected >= "
        f"{MIN_SPEEDUP_AT_LARGEST}x"
    )
    replan_gate = MIN_REPLAN_SPEEDUP_QUICK if quick else MIN_REPLAN_SPEEDUP_AT_LARGEST
    assert records[-1]["replan_speedup"] >= replan_gate, (
        f"warm dual-simplex re-plan is only {records[-1]['replan_speedup']}x "
        f"faster than a cold re-solve at the largest size; expected >= "
        f"{replan_gate}x"
    )


@pytest.mark.benchmark(group="fig5")
def test_fig5c_query_complexity(benchmark):
    result = run_figure(
        benchmark,
        figures.fig5c_query_complexity,
        planner_name=SQPR,
        bound_name=BOUND,
    )
    sqpr = result.series[SQPR]
    # More complex queries consume more resources, so the number of
    # satisfiable queries must not increase with arity (small tolerance).
    assert sqpr[-1] <= sqpr[0] + 2
    # SQPR stays within a constant factor of the optimistic bound across
    # arities (the paper: efficiency roughly independent of complexity).
    for s, b in zip(sqpr, result.series[BOUND]):
        if b > 0:
            assert s >= 0.5 * b - 2
