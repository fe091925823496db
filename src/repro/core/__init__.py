"""The SQPR planner — the paper's primary contribution.

The planner treats query admission, operator placement and reuse as a single
constrained optimisation problem (§III), reduced per new query to the
streams and operators related to that query (§IV-A), and solved with a
timeout after which the best incumbent is used.
"""

from repro.core.weights import ObjectiveWeights
from repro.core.reduction import ReplanScope, compute_scope
from repro.core.model_builder import SqprModel, build_model
from repro.core.solution import decode_solution
from repro.core.planner import PlannerConfig, PlanningOutcome, SQPRPlanner
from repro.core.adaptive import AdaptiveReplanner, garbage_collect
from repro.core.optimistic import OptimisticBoundPlanner


__all__ = [
    "ObjectiveWeights",
    "ReplanScope",
    "compute_scope",
    "SqprModel",
    "build_model",
    "decode_solution",
    "PlannerConfig",
    "PlanningOutcome",
    "SQPRPlanner",
    "AdaptiveReplanner",
    "garbage_collect",
    "OptimisticBoundPlanner",
]
