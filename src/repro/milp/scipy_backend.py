"""MILP backend delegating to ``scipy.optimize.milp`` (HiGHS).

HiGHS is the fastest solver available in this environment and plays the role
of CPLEX in the original paper: it is handed the model together with a time
limit and asked for the best solution it can find in that budget.

scipy exposes no way to *install* a starting solution in HiGHS, so the
warm-start contract (``Model.set_warm_start``) is honoured in front of it:
a complete start that the model's own rows admit is the incumbent from the
outset, one LP relaxation decides whether it is already within the gap, and
HiGHS is only entered — on the remaining budget — when it is not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import SolverError
from repro.milp.lp_backend import solve_lp
from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.standard_form import seed_incumbent, to_standard_form
from repro.utils.timer import Stopwatch

try:  # pragma: no cover - depends on environment
    from scipy.optimize import Bounds, LinearConstraint, milp as _scipy_milp
    from scipy.sparse import csr_matrix as _scipy_csr
except ImportError:  # pragma: no cover
    _scipy_milp = None
    Bounds = None
    LinearConstraint = None
    _scipy_csr = None


def highs_available() -> bool:
    """Whether the ``scipy.optimize.milp`` backend can be used."""
    return _scipy_milp is not None


def solve_with_highs(
    model: Model,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 1e-6,
    warm_start: bool = True,
) -> SolveResult:
    """Solve ``model`` with HiGHS via scipy, honouring ``time_limit``.

    With ``warm_start`` a *complete* warm start on the model (one value per
    variable, see :meth:`Model.set_warm_start`) that passes the shared
    feasibility test becomes the incumbent before any search: the LP
    relaxation is solved once, and when the start is within ``mip_rel_gap``
    of that bound it is returned as ``OPTIMAL`` without entering
    branch-and-cut.  Otherwise HiGHS runs on the remaining budget and the
    better of its incumbent and the start is returned, so a timeout cannot
    discard a known feasible solution.  Partial, foreign or infeasible
    starts are ignored — the solve is the cold one.
    """
    if not highs_available():
        raise SolverError("scipy.optimize.milp is not available in this environment")

    watch = Stopwatch()
    form = to_standard_form(model)

    def incumbent(x, minimised, status, bound, source) -> SolveResult:
        return SolveResult(
            status=status,
            objective=form.objective_sign * minimised + form.objective_offset,
            values=form.assignment(x),
            bound=bound,
            solve_time=watch.elapsed(),
            backend="highs",
            incumbent_source=source,
        )

    start = None
    start_value = 0.0  # c @ start, in minimisation space
    root_bound = None
    spent = 0.0
    if warm_start and len(model.warm_start) == form.num_variables:
        start = seed_incumbent(model, form)
    if start is not None:
        start_value = float(form.c @ start)
        root = solve_lp(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        if root.is_optimal:
            root_bound = form.objective_sign * root.objective + form.objective_offset
            certified = incumbent(
                start, start_value, SolveStatus.OPTIMAL, root_bound, "start"
            )
            if certified.gap() <= mip_rel_gap:
                return certified
        spent = watch.elapsed()

    # Hand HiGHS the CSR arrays directly — SQPR models are large and sparse,
    # so densifying them here would dominate the solve's memory footprint.
    def _matrix(block):
        if _scipy_csr is not None:
            return _scipy_csr(block.tocsr_arrays(), shape=block.shape)
        return block.toarray()

    constraints = []
    if form.a_ub.size:
        constraints.append(LinearConstraint(_matrix(form.a_ub), -np.inf, form.b_ub))
    if form.a_eq.size:
        constraints.append(LinearConstraint(_matrix(form.a_eq), form.b_eq, form.b_eq))

    bounds = Bounds(form.lower, form.upper)
    options = {"presolve": True, "mip_rel_gap": mip_rel_gap}
    if time_limit is not None:
        options["time_limit"] = max(1e-3, float(time_limit) - spent)

    result = _scipy_milp(
        c=form.c,
        constraints=constraints or None,
        integrality=form.integrality,
        bounds=bounds,
        options=options,
    )

    # scipy milp statuses: 0 optimal, 1 iteration/time limit, 2 infeasible,
    # 3 unbounded, 4 other.
    if result.x is not None:
        bound = root_bound
        if getattr(result, "mip_dual_bound", None) is not None:
            bound = form.objective_sign * float(result.mip_dual_bound) + form.objective_offset
        status = SolveStatus.OPTIMAL if result.status == 0 else SolveStatus.FEASIBLE
        if start is not None and start_value < float(result.fun):
            return incumbent(start, start_value, status, bound, "start")
        x = np.asarray(result.x, dtype=float)
        return incumbent(x, float(result.fun), status, bound, "search")
    if start is not None:
        # Whatever ended the search, the start is a known feasible solution.
        return incumbent(start, start_value, SolveStatus.FEASIBLE, root_bound, "start")
    elapsed = watch.elapsed()
    if result.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE, solve_time=elapsed, backend="highs")
    if result.status == 3:
        return SolveResult(SolveStatus.UNBOUNDED, solve_time=elapsed, backend="highs")
    if result.status == 1:
        return SolveResult(SolveStatus.TIMEOUT, solve_time=elapsed, backend="highs")
    return SolveResult(SolveStatus.ERROR, solve_time=elapsed, backend="highs")
