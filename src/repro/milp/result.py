"""Solve results and statuses shared by all MILP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.milp.expression import Variable


class SolveStatus(enum.Enum):
    """Outcome of a solve call.

    ``OPTIMAL``     — proven optimal within tolerances.
    ``FEASIBLE``    — a feasible incumbent was found but optimality was not
                      proven (typically because the time limit expired).
    ``INFEASIBLE``  — proven infeasible.
    ``UNBOUNDED``   — proven unbounded.
    ``TIMEOUT``     — the time limit expired without any feasible incumbent.
    ``ERROR``       — the backend failed.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"
    ERROR = "error"


@dataclass
class SolveResult:
    """The result of solving a :class:`repro.milp.model.Model`.

    Attributes
    ----------
    status:
        Final :class:`SolveStatus`.
    objective:
        Objective value of the incumbent (``None`` if no incumbent).
    values:
        Mapping from variable to value for the incumbent (empty if none).
    bound:
        Best proven dual bound (``None`` if the backend does not report one).
    solve_time:
        Wall-clock seconds spent inside the backend.
    nodes:
        Number of branch-and-bound nodes processed (0 for direct backends).
    backend:
        Name of the backend that produced this result.
    lp_counters:
        Simplex iteration/maintenance counters summed over every LP solved
        for this result (phase-1/primal/dual iterations, bound flips,
        refactorisations, dual resumes, cold fallbacks).  Empty for backends
        that do not run the in-repo simplex.
    incumbent_source:
        Where the returned incumbent came from: ``"start"`` when it is the
        caller's warm start (``Model.set_warm_start``) unimproved,
        ``"search"`` when the backend found it, empty without an incumbent.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[Variable, float] = field(default_factory=dict)
    bound: Optional[float] = None
    solve_time: float = 0.0
    nodes: int = 0
    backend: str = ""
    lp_counters: Dict[str, int] = field(default_factory=dict)
    incumbent_source: str = ""

    @property
    def has_solution(self) -> bool:
        """Whether a usable incumbent is available."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and bool(self.values)

    def value(self, var: Variable, default: float = 0.0) -> float:
        """Value of ``var`` in the incumbent (``default`` when absent)."""
        return float(self.values.get(var, default))

    def value_by_name(self, name: str, default: float = 0.0) -> float:
        """Value of the variable named ``name`` in the incumbent."""
        for var, val in self.values.items():
            if var.name == name:
                return float(val)
        return default

    def gap(self) -> Optional[float]:
        """Relative optimality gap, when both incumbent and bound are known."""
        if self.objective is None or self.bound is None:
            return None
        denom = max(1e-12, abs(self.objective))
        return abs(self.bound - self.objective) / denom
