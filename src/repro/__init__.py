"""repro — a reproduction of "SQPR: Stream Query Planning with Reuse" (ICDE 2011).

The package is organised as:

* :mod:`repro.api` — the unified planner API: the :class:`Planner`
  protocol, the :class:`PlanningOutcome` every planner returns, the
  unified :class:`PlannerConfig`, and the planner registry
  (:func:`register_planner` / :func:`create_planner`),
* :mod:`repro.milp` — a MILP modelling layer and solvers (the CPLEX
  substitute),
* :mod:`repro.dsps` — the distributed stream processing substrate (hosts,
  streams, operators, queries, plans, allocations, a simulated cluster),
* :mod:`repro.core` — the SQPR planner itself (reduced optimisation model,
  Algorithm 1, adaptive re-planning, optimistic bound),
* :mod:`repro.baselines` — the heuristic planner and a SODA-like planner,
* :mod:`repro.workloads` — workload generation and evaluation scenarios,
* :mod:`repro.scenarios` — the declarative scenario matrix: composable
  :class:`ScenarioSpec` overrides, named operating regimes and scales,
  and the per-cell artifact bundles of the sweep runner,
* :mod:`repro.service` — a long-running admission service over a planner:
  bounded intake with overload policies, batch coalescing, deploys
  through the cluster engine, and a metrics registry,
* :mod:`repro.experiments` — planner-agnostic drivers reproducing every
  figure of §V.

Quickstart
----------
>>> from repro import build_simulation_scenario, create_planner, PlannerConfig
>>> scenario = build_simulation_scenario()
>>> catalog = scenario.build_catalog()
>>> planner = create_planner("sqpr", catalog, config=PlannerConfig(time_limit=0.5))
>>> outcome = planner.submit(scenario.workload(1)[0])
>>> outcome.admitted
True

Every registered planner (``available_planners()`` lists them: ``sqpr``,
``heuristic``, ``soda``, ``optimistic``, ``federated``) is constructed the
same way and returns the same :class:`PlanningOutcome` from ``submit()`` /
``submit_batch()``; planner-specific details live in ``outcome.extras``.
On federated (multi-site) catalogs, ``create_planner("federated:<inner>",
…)`` decomposes admission by site and escalates only cross-site queries to
a WAN-aware coordinator.
"""

from repro.api import (
    Planner,
    PlannerConfig,
    PlannerHooks,
    PlannerStats,
    PlanningOutcome,
    available_planners,
    create_planner,
    get_planner_class,
    register_planner,
)
from repro.core.planner import SQPRPlanner
from repro.core.adaptive import AdaptiveReplanner
from repro.core.federated import FederatedPlanner
from repro.core.optimistic import OptimisticBoundPlanner
from repro.core.weights import ObjectiveWeights
from repro.baselines.heuristic import HeuristicPlanner
from repro.baselines.soda.planner import SodaPlanner
from repro.dsps.allocation import Allocation, PlacementDelta
from repro.dsps.catalog import GatewayCatalogView, SiteCatalogView, SystemCatalog
from repro.dsps.cost_model import LinearCostModel
from repro.dsps.engine import ClusterEngine
from repro.dsps.plan import QueryPlan, extract_plan
from repro.dsps.query import DecompositionMode, Query, QueryWorkloadItem
from repro.dsps.resource_monitor import ResourceMonitor
from repro.milp import MilpSolver, Model, SolverBackend
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.scenarios import (
    ClusterScenarioConfig,
    Scenario,
    SimulationScenarioConfig,
    build_cluster_scenario,
    build_simulation_scenario,
)
from repro.workloads.churn import (
    CHURN_SCENARIOS,
    ChurnTraceConfig,
    build_churn_schedule,
    build_named_churn_schedule,
)
from repro.sim import (
    EventSchedule,
    SimulationHarness,
    SimulationResult,
    SitePartition,
    SiteRecovery,
    WanDrift,
)
from repro.scenarios import (
    BASELINE_SCENARIO,
    CellArtifact,
    MATRIX_REGIMES,
    MATRIX_SCALES,
    MatrixScale,
    ResolvedScenario,
    SCENARIO_MATRIX,
    ScenarioSpec,
    parse_spec,
)
from repro.experiments.runner import AdmissionCurve, run_admission_experiment
from repro.service import (
    AdmissionService,
    AdmissionTicket,
    AdmissionTimeout,
    MetricsRegistry,
    QueueFullError,
    ServiceClosed,
    ServiceConfig,
)

__version__ = "1.5.0"

__all__ = [
    # unified planner API
    "Planner",
    "PlannerConfig",
    "PlannerHooks",
    "PlannerStats",
    "PlanningOutcome",
    "available_planners",
    "create_planner",
    "get_planner_class",
    "register_planner",
    # planners
    "SQPRPlanner",
    "AdaptiveReplanner",
    "FederatedPlanner",
    "OptimisticBoundPlanner",
    "ObjectiveWeights",
    "HeuristicPlanner",
    "SodaPlanner",
    # substrate
    "Allocation",
    "PlacementDelta",
    "SystemCatalog",
    "SiteCatalogView",
    "GatewayCatalogView",
    "LinearCostModel",
    "ClusterEngine",
    "QueryPlan",
    "extract_plan",
    "DecompositionMode",
    "Query",
    "QueryWorkloadItem",
    "ResourceMonitor",
    "MilpSolver",
    "Model",
    "SolverBackend",
    # workloads & experiments
    "WorkloadGenerator",
    "WorkloadSpec",
    "Scenario",
    "SimulationScenarioConfig",
    "ClusterScenarioConfig",
    "build_simulation_scenario",
    "build_cluster_scenario",
    "AdmissionCurve",
    "run_admission_experiment",
    # churn simulation
    "CHURN_SCENARIOS",
    "ChurnTraceConfig",
    "build_churn_schedule",
    "build_named_churn_schedule",
    "EventSchedule",
    "SimulationHarness",
    "SimulationResult",
    "SitePartition",
    "SiteRecovery",
    "WanDrift",
    # scenario matrix
    "BASELINE_SCENARIO",
    "CellArtifact",
    "MATRIX_REGIMES",
    "MATRIX_SCALES",
    "MatrixScale",
    "ResolvedScenario",
    "SCENARIO_MATRIX",
    "ScenarioSpec",
    "parse_spec",
    # admission service
    "AdmissionService",
    "AdmissionTicket",
    "AdmissionTimeout",
    "MetricsRegistry",
    "QueueFullError",
    "ServiceClosed",
    "ServiceConfig",
    "run_churn_experiment",
    "run_named_churn_experiment",
    "__version__",
]


def __getattr__(name):
    # The timeline drivers are resolved lazily so that running the module
    # `python -m repro.experiments.timeline` does not import timeline as a
    # side effect of importing the repro package (runpy would then execute
    # the module body twice and warn).
    if name in ("run_churn_experiment", "run_named_churn_experiment"):
        from repro.experiments import timeline

        return getattr(timeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
