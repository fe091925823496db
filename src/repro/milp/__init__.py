"""A small mixed-integer linear programming (MILP) toolkit.

The SQPR paper formulates query planning as a MILP and solves it with
CPLEX 11.2.  CPLEX (and PuLP/OR-Tools) are not available in this
environment, so this subpackage provides the substrate the planner needs:

* a modelling layer (:class:`Variable`, :class:`LinExpr`,
  :class:`Constraint`, :class:`Model`) in the spirit of PuLP,
* a sparse lowering to standard form (:mod:`repro.milp.standard_form` over
  :class:`~repro.milp.sparse.CsrMatrix`),
* a ``scipy.optimize.milp`` (HiGHS) backend, used whenever scipy is
  importable,
* a pure-Python branch-and-bound fallback
  (:mod:`repro.milp.branch_and_bound`) whose node LPs run on the vectorized
  revised simplex (:mod:`repro.milp.simplex`) with dual-simplex resumes from
  the parent basis, and
* a :class:`MilpSolver` facade that runs whichever of the two the platform
  provides, honours wall-clock time limits and always reports the best
  incumbent found — mirroring the way SQPR invokes CPLEX with a timeout.
"""

from repro.milp.expression import LinExpr, Variable, VarType, lin_sum
from repro.milp.constraint import Constraint, ConstraintSense
from repro.milp.model import Model, ObjectiveSense
from repro.milp.solver import MilpSolver, SolverBackend
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.simplex import LpSolution, SolverCounters, SOLVER_COUNTER_FIELDS
from repro.milp.sparse import CsrMatrix

__all__ = [
    "Variable",
    "VarType",
    "LinExpr",
    "lin_sum",
    "Constraint",
    "ConstraintSense",
    "Model",
    "ObjectiveSense",
    "MilpSolver",
    "SolverBackend",
    "SolveResult",
    "SolveStatus",
    "LpSolution",
    "SolverCounters",
    "SOLVER_COUNTER_FIELDS",
    "CsrMatrix",
]
