"""The row-emitting SQPR model builder against its expression-layer oracle.

:func:`repro.core.model_builder.build_model` emits every row of the reduced
MILP straight into :meth:`Model.add_row` as column indices.  The oracle in
``tests/oracles/expr_model_builder.py`` is the same formulation written with
``Variable`` / ``LinExpr`` objects.  For every input the two must lower to
*identical* standard forms — the same variables in the same order, the same
rows in the same order with the same terms, coefficients and right-hand
sides — so the solver sees the same problem and no decision can move.

The inputs cover both decompositions, one and two sites (shared WAN rows),
relaying on and off, frozen and re-planning mode, forced admission and
allocations that already hold admitted queries, so protection, teardown,
availability / placed-operator credits and kept result streams all appear.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import PlannerConfig, create_planner
from repro.core.model_builder import build_model
from repro.core.reduction import compute_scope
from repro.core.weights import ObjectiveWeights
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.milp.standard_form import to_standard_form
from tests.oracles.expr_model_builder import build_model as build_model_expr

BASE_NAMES = ["b0", "b1", "b2", "b3", "b4"]

def _catalog(num_hosts: int, exhaustive: bool, two_sites: bool) -> SystemCatalog:
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=(
            DecompositionMode.EXHAUSTIVE if exhaustive else DecompositionMode.CANONICAL
        ),
        default_link_capacity=60.0,
        default_wan_capacity=45.0 if two_sites else None,
    )
    for index in range(num_hosts):
        catalog.add_host(
            cpu_capacity=6.0,
            bandwidth_capacity=200.0,
            name=f"h{index}",
            site=index % 2 if two_sites else 0,
        )
    for index, name in enumerate(BASE_NAMES):
        catalog.add_base_stream(name, 10.0, index % num_hosts)
    return catalog


def _lowered(built):
    """Variable names plus every standard-form array of ``built``'s model."""
    form = to_standard_form(built.model)
    arrays = {
        "a_ub.indptr": form.a_ub.indptr,
        "a_ub.indices": form.a_ub.indices,
        "a_ub.data": form.a_ub.data,
        "b_ub": form.b_ub,
        "a_eq.indptr": form.a_eq.indptr,
        "a_eq.indices": form.a_eq.indices,
        "a_eq.data": form.a_eq.data,
        "b_eq": form.b_eq,
        "c": form.c,
        "lower": form.lower,
        "upper": form.upper,
        "integrality": form.integrality,
    }
    return [var.name for var in form.variables], form.objective_offset, arrays


def assert_identical(rows, oracle) -> None:
    """Fail unless two lowered models agree in every array, exactly."""
    names, offset, arrays = rows
    oracle_names, oracle_offset, oracle_arrays = oracle
    assert names == oracle_names
    assert offset == oracle_offset
    assert arrays.keys() == oracle_arrays.keys()
    for field, ours in arrays.items():
        theirs = oracle_arrays[field]
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field


def _build_both(catalog, allocation, queries, weights, replan, max_replanned, **kwargs):
    scope = compute_scope(
        catalog,
        allocation,
        queries,
        replan_overlapping=replan,
        max_replanned_queries=max_replanned,
    )
    args = (catalog, allocation, scope, weights)
    return build_model(*args, **kwargs), build_model_expr(*args, **kwargs)


items = st.sets(st.sampled_from(BASE_NAMES), min_size=2, max_size=3).map(
    lambda names: QueryWorkloadItem(base_names=tuple(sorted(names)))
)


@given(
    workload=st.lists(items, min_size=2, max_size=6),
    admitted=st.integers(min_value=0, max_value=5),
    num_hosts=st.integers(min_value=2, max_value=4),
    exhaustive=st.booleans(),
    two_sites=st.booleans(),
    allow_relay=st.booleans(),
    replan=st.booleans(),
    force_admission=st.booleans(),
    max_replanned=st.sampled_from([1, 4]),
    grow_with=st.sampled_from(["heuristic", "sqpr"]),
    admission_only=st.booleans(),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_row_builder_lowers_identically_to_the_expression_oracle(
    workload,
    admitted,
    num_hosts,
    exhaustive,
    two_sites,
    allow_relay,
    replan,
    force_admission,
    max_replanned,
    grow_with,
    admission_only,
):
    catalog = _catalog(num_hosts, exhaustive, two_sites)
    # A planner admits a prefix first, so the models are built on top of
    # allocations with admitted queries (SQPR spreads plans and relays;
    # the heuristic keeps each plan on one host).
    planner = create_planner(
        grow_with,
        catalog,
        config=PlannerConfig(time_limit=0.2, allow_relay=allow_relay),
    )
    split = min(admitted, len(workload) - 1)
    for item in workload[:split]:
        planner.submit(item)
    queries = [catalog.register_query(item) for item in workload[split:]]
    weights = (
        ObjectiveWeights.admission_only()
        if admission_only
        else ObjectiveWeights.paper_default(catalog)
    )
    rows, oracle = _build_both(
        catalog,
        planner.allocation,
        queries,
        weights,
        replan,
        max_replanned,
        frozen_mode=not replan,
        allow_relay=allow_relay,
        force_admission=force_admission,
    )
    assert_identical(_lowered(rows), _lowered(oracle))


@pytest.mark.parametrize("field", ["a_ub.data", "b_ub", "a_eq.data", "b_eq", "c"])
def test_a_perturbed_coefficient_fails_the_comparison(field):
    """Mutation guard: the comparison must see a one-entry change."""
    catalog = _catalog(3, exhaustive=True, two_sites=True)
    planner = create_planner("heuristic", catalog)
    planner.submit(QueryWorkloadItem(base_names=("b0", "b1")))
    queries = [catalog.register_query(QueryWorkloadItem(base_names=("b0", "b1", "b2")))]
    rows, oracle = _build_both(
        catalog,
        planner.allocation,
        queries,
        ObjectiveWeights.paper_default(catalog),
        replan=True,
        max_replanned=4,
        force_admission=True,
    )
    lowered_rows, lowered_oracle = _lowered(rows), _lowered(oracle)
    assert_identical(lowered_rows, lowered_oracle)

    names, offset, arrays = lowered_oracle
    mutated = dict(arrays)
    values = arrays[field].copy()
    assert values.size, field
    values[values.size // 2] += 0.5
    mutated[field] = values
    with pytest.raises(AssertionError, match=field.replace(".", r"\.")):
        assert_identical(lowered_rows, (names, offset, mutated))
