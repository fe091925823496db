"""Shared fixtures for the test suite.

The fixtures build deliberately tiny systems (3–4 hosts, a handful of base
streams) so that every MILP solved during the tests is small enough to be
solved to optimality in milliseconds by either backend.
"""

from __future__ import annotations

import pytest

from repro.core.planner import PlannerConfig, SQPRPlanner
from repro.dsps.catalog import SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.query import DecompositionMode, QueryWorkloadItem
from repro.experiments.matrix import generate_golden_matrix
from repro.workloads.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)


def make_catalog(
    num_hosts: int = 3,
    cpu: float = 10.0,
    bandwidth: float = 200.0,
    num_base: int = 4,
    rate: float = 10.0,
    decomposition: DecompositionMode = DecompositionMode.CANONICAL,
) -> SystemCatalog:
    """Build a small catalog with one base stream per host (round-robin)."""
    catalog = SystemCatalog(
        cost_model=LinearCostModel(seed=1),
        decomposition=decomposition,
        default_link_capacity=1000.0,
    )
    for i in range(num_hosts):
        catalog.add_host(cpu_capacity=cpu, bandwidth_capacity=bandwidth, name=f"h{i}")
    for i in range(num_base):
        catalog.add_base_stream(f"b{i}", rate, i % num_hosts)
    return catalog


@pytest.fixture
def tiny_catalog() -> SystemCatalog:
    """Three hosts, four base streams, canonical decomposition."""
    return make_catalog()


@pytest.fixture
def bushy_catalog() -> SystemCatalog:
    """Three hosts, four base streams, exhaustive decomposition."""
    return make_catalog(decomposition=DecompositionMode.EXHAUSTIVE)


@pytest.fixture
def tiny_planner(tiny_catalog: SystemCatalog) -> SQPRPlanner:
    """An SQPR planner on the tiny catalog with validation enabled.

    The tiny models solve to optimality in milliseconds; the time limit is
    only a safety net, so it is kept low to cap worst-case test duration.
    """
    config = PlannerConfig(time_limit=1.0, validate_after_apply=True)
    return SQPRPlanner(tiny_catalog, config=config)


@pytest.fixture
def small_scenario():
    """A very small simulation scenario for integration tests."""
    config = SimulationScenarioConfig(
        num_hosts=4,
        num_base_streams=12,
        host_cpu_capacity=6.0,
        host_bandwidth=200.0,
        decomposition=DecompositionMode.CANONICAL,
        seed=3,
    )
    return build_simulation_scenario(config)


@pytest.fixture(scope="session")
def golden_matrix_workers4() -> str:
    """The golden quick-sweep bytes, generated once per session on four
    threads (what the committed fixture is written from)."""
    return generate_golden_matrix(workers=4)


@pytest.fixture(scope="session")
def golden_matrix_workers1() -> str:
    """The same sweep generated once per session with the cells inline."""
    return generate_golden_matrix(workers=1)


def query_over(*names: str) -> QueryWorkloadItem:
    """Shorthand for a :class:`QueryWorkloadItem` over the given streams."""
    return QueryWorkloadItem(base_names=tuple(names))
