"""The :class:`MilpSolver` facade used by the planners.

SQPR's contract with its solver is simple: "here is a MILP and a timeout;
give me the best feasible solution you can find".  The platform picks who
provides that service: ``scipy.optimize.milp`` (HiGHS) when scipy is
importable, otherwise the pure-Python branch and bound in
:mod:`repro.milp.branch_and_bound` — the package declares no dependencies,
so the fallback must always work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.milp.branch_and_bound import BnbOptions, solve_branch_and_bound
from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.scipy_backend import highs_available, solve_with_highs


class SolverBackend(enum.Enum):
    """The MILP engine a solve runs on (reported, not selectable)."""

    HIGHS = "highs"
    BRANCH_AND_BOUND = "bnb"


@dataclass
class MilpSolver:
    """Facade over the MILP engine the platform provides.

    Parameters
    ----------
    time_limit:
        Default per-solve wall-clock limit in seconds (``None`` = unlimited).
        This models the per-query CPLEX timeout in the paper.
    mip_gap:
        Relative optimality gap at which the search may stop.
    warm_start:
        Honour the model's warm-start hint (``Model.set_warm_start``): a
        hint that passes the shared feasibility test
        (:func:`repro.milp.standard_form.seed_incumbent`) becomes the
        initial incumbent.  HiGHS needs a complete hint, certifies it
        against the root LP bound and skips branch-and-cut when it is within
        ``mip_gap`` (see :func:`repro.milp.scipy_backend.solve_with_highs`);
        branch and bound also re-starts child-node LPs from the parent
        basis.  ``False`` makes every solve cold.
    """

    time_limit: Optional[float] = None
    mip_gap: float = 1e-6
    warm_start: bool = True

    def resolved_backend(self) -> SolverBackend:
        """The backend the next solve runs on: HiGHS when importable."""
        return SolverBackend.HIGHS if highs_available() else SolverBackend.BRANCH_AND_BOUND

    def solve(self, model: Model, time_limit: Optional[float] = None) -> SolveResult:
        """Solve ``model`` and return a :class:`SolveResult`.

        ``time_limit`` overrides the solver's default limit for this call.
        The returned result always carries the best incumbent found, even if
        optimality could not be proven within the budget.
        """
        limit = time_limit if time_limit is not None else self.time_limit
        if self.resolved_backend() is SolverBackend.HIGHS:
            return solve_with_highs(
                model,
                time_limit=limit,
                mip_rel_gap=self.mip_gap,
                warm_start=self.warm_start,
            )
        options = BnbOptions(
            time_limit=limit,
            relative_gap=self.mip_gap,
            warm_start=self.warm_start,
        )
        return solve_branch_and_bound(model, options)

    def is_usable_status(self, result: SolveResult) -> bool:
        """Whether a result carries a solution the planner may deploy."""
        return result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and result.has_solution
