"""Baseline planners the paper compares SQPR against.

* :class:`HeuristicPlanner` — the hand-crafted greedy-reuse heuristic of
  §V-A (inspired by source-placement approaches [15]).
* :class:`SodaPlanner` — a reimplementation of the basic functionality of
  SODA [9] as described in §V-B: template-based planning in stages
  (macroQ admission, macroW placement, miniW local improvement) with stream
  gluing for reuse and no relaying.

Both return the unified :class:`repro.api.PlanningOutcome`.
"""

from repro.baselines.heuristic import HeuristicPlanner
from repro.baselines.soda.planner import SodaPlanner

__all__ = [
    "HeuristicPlanner",
    "SodaPlanner",
]
