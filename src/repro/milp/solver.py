"""The :class:`MilpSolver` facade used by the planners.

SQPR's contract with its solver is simple: "here is a MILP and a timeout;
give me the best feasible solution you can find".  The facade hides which
backend provides that service:

* ``SolverBackend.HIGHS`` — ``scipy.optimize.milp`` (default when available),
* ``SolverBackend.BRANCH_AND_BOUND`` — the pure-Python solver in
  :mod:`repro.milp.branch_and_bound`,
* ``SolverBackend.AUTO`` — HiGHS when importable, otherwise branch and bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SolverError
from repro.milp.branch_and_bound import BnbOptions, solve_branch_and_bound
from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.scipy_backend import highs_available, solve_with_highs


class SolverBackend(enum.Enum):
    """Which MILP engine to use."""

    AUTO = "auto"
    HIGHS = "highs"
    BRANCH_AND_BOUND = "bnb"


@dataclass
class MilpSolver:
    """Facade over the available MILP backends.

    Parameters
    ----------
    backend:
        Desired backend; ``AUTO`` picks HiGHS when available.
    time_limit:
        Default per-solve wall-clock limit in seconds (``None`` = unlimited).
        This models the per-query CPLEX timeout in the paper.
    mip_gap:
        Relative optimality gap at which the search may stop.
    warm_start:
        Honour the model's warm-start hint (``Model.set_warm_start``): a
        hint that passes the shared feasibility test
        (:func:`repro.milp.standard_form.seed_incumbent`) becomes the
        initial incumbent.  The branch-and-bound backend accepts partial
        hints and also re-starts child-node LPs from the parent basis; the
        HiGHS backend needs a complete hint, certifies it against the root
        LP bound and skips branch-and-cut when it is within ``mip_gap``
        (see :func:`repro.milp.scipy_backend.solve_with_highs`).  ``False``
        makes every solve cold on both backends.
    lp_engine:
        LP relaxation engine for the branch-and-bound backend (``"auto"``,
        ``"scipy"``, ``"simplex"``, ``"dense"`` — see
        :func:`repro.milp.lp_backend.solve_lp`).  Pin ``"simplex"`` to get
        dual-simplex warm starts, basis hand-back (``SolveResult.root_basis``)
        and solver counters in environments where scipy would otherwise be
        auto-selected.  HiGHS ignores this.
    """

    backend: SolverBackend = SolverBackend.AUTO
    time_limit: Optional[float] = None
    mip_gap: float = 1e-6
    warm_start: bool = True
    lp_engine: str = "auto"

    def resolved_backend(self) -> SolverBackend:
        """The concrete backend that will be used for the next solve."""
        if self.backend is SolverBackend.AUTO:
            return SolverBackend.HIGHS if highs_available() else SolverBackend.BRANCH_AND_BOUND
        return self.backend

    def solve(self, model: Model, time_limit: Optional[float] = None) -> SolveResult:
        """Solve ``model`` and return a :class:`SolveResult`.

        ``time_limit`` overrides the solver's default limit for this call.
        The returned result always carries the best incumbent found, even if
        optimality could not be proven within the budget.
        """
        limit = time_limit if time_limit is not None else self.time_limit
        backend = self.resolved_backend()
        if backend is SolverBackend.HIGHS:
            if not highs_available():
                raise SolverError("HiGHS backend requested but scipy.optimize.milp is missing")
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
            lp_engine=self.lp_engine,
        )
        return solve_branch_and_bound(model, options)

    def is_usable_status(self, result: SolveResult) -> bool:
        """Whether a result carries a solution the planner may deploy."""
        return result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE) and result.has_solution
