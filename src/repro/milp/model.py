"""The :class:`Model` container tying variables, constraints and objective.

A :class:`Model` is a mutable builder object.  Solver backends consume it via
:mod:`repro.milp.standard_form`, which lowers the model to matrix form.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.exceptions import ModelError
from repro.milp.constraint import Constraint
from repro.milp.expression import LinExpr, Variable, VarType

Number = Union[int, float]


class ObjectiveSense(enum.Enum):
    """Whether the objective is maximised or minimised."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Model:
    """A mixed-integer linear program under construction.

    Example
    -------
    >>> model = Model("toy", sense=ObjectiveSense.MAXIMIZE)
    >>> x = model.add_var("x", VarType.BINARY)
    >>> y = model.add_var("y", VarType.BINARY)
    >>> model.add_constr(x + y <= 1, name="choose_one")
    >>> model.set_objective(2 * x + y)
    """

    def __init__(self, name: str = "model", sense: ObjectiveSense = ObjectiveSense.MINIMIZE) -> None:
        self.name = name
        self.sense = sense
        self._variables: List[Variable] = []
        self._by_name: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._fixed_values: Dict[Variable, float] = {}
        self._warm_start: Dict[Variable, float] = {}
        self._revision = 0

    # ------------------------------------------------------------------ revision
    @property
    def revision(self) -> int:
        """Monotonic counter bumped on every structural modification.

        Consumers that lower the model (``to_standard_form``) cache per
        revision, so repeated solves of an unchanged model skip re-lowering.
        The warm-start hint is *not* structural and does not bump it.
        """
        return self._revision

    def _bump_revision(self) -> None:
        self._revision += 1

    # ------------------------------------------------------------------ variables
    def add_var(
        self,
        name: str,
        var_type: VarType = VarType.CONTINUOUS,
        lower: Number = 0.0,
        upper: Number = math.inf,
    ) -> Variable:
        """Create a variable, register it and return it.

        Raises :class:`ModelError` if a variable with the same name exists.
        """
        if name in self._by_name:
            raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        var = Variable(name, var_type, lower, upper, index=len(self._variables))
        # Bound mutation after registration is structural: hook it into the
        # revision counter so cached standard forms are invalidated.
        var._on_bounds_change = self._bump_revision
        self._variables.append(var)
        self._by_name[name] = var
        self._bump_revision()
        return var

    def add_binary(self, name: str) -> Variable:
        """Shorthand for ``add_var(name, VarType.BINARY)``."""
        return self.add_var(name, VarType.BINARY)

    def add_continuous(self, name: str, lower: Number = 0.0, upper: Number = math.inf) -> Variable:
        """Shorthand for a continuous variable with the given bounds."""
        return self.add_var(name, VarType.CONTINUOUS, lower, upper)

    def get_var(self, name: str) -> Variable:
        """Look up a variable by name, raising :class:`ModelError` if missing."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"model {self.name!r} has no variable {name!r}") from None

    def has_var(self, name: str) -> bool:
        """Whether a variable named ``name`` exists."""
        return name in self._by_name

    @property
    def variables(self) -> List[Variable]:
        """All variables in creation order."""
        return list(self._variables)

    @property
    def num_variables(self) -> int:
        """Number of variables."""
        return len(self._variables)

    @property
    def num_integer_variables(self) -> int:
        """Number of integer/binary variables."""
        return sum(1 for v in self._variables if v.is_integer)

    # ---------------------------------------------------------------- constraints
    def add_constr(self, constraint: Constraint, name: Optional[str] = None) -> Constraint:
        """Register a constraint (optionally naming it) and return it."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint; build one by comparing "
                "expressions, e.g. `x + y <= 1`"
            )
        foreign = [v for v in constraint.lhs_terms if self._by_name.get(v.name) is not v]
        if foreign:
            names = ", ".join(v.name for v in foreign[:3])
            raise ModelError(
                f"constraint uses variables not registered in model {self.name!r}: {names}"
            )
        if name is not None:
            constraint.name = name
        self._constraints.append(constraint)
        self._bump_revision()
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint], prefix: str = "") -> List[Constraint]:
        """Register many constraints, auto-naming them ``prefix[i]``."""
        added = []
        for i, constraint in enumerate(constraints):
            label = f"{prefix}[{i}]" if prefix else None
            added.append(self.add_constr(constraint, name=label))
        return added

    @property
    def constraints(self) -> List[Constraint]:
        """All constraints in insertion order."""
        return list(self._constraints)

    @property
    def num_constraints(self) -> int:
        """Number of constraints."""
        return len(self._constraints)

    # ------------------------------------------------------------------ objective
    def set_objective(self, expr: Union[LinExpr, Variable, Number], sense: Optional[ObjectiveSense] = None) -> None:
        """Set the objective expression (and optionally switch the sense)."""
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        elif isinstance(expr, (int, float)):
            expr = LinExpr({}, expr)
        if not isinstance(expr, LinExpr):
            raise ModelError("objective must be a LinExpr, Variable or number")
        self._objective = expr
        if sense is not None:
            self.sense = sense
        self._bump_revision()

    @property
    def objective(self) -> LinExpr:
        """The current objective expression."""
        return self._objective

    # -------------------------------------------------------------------- fixing
    def fix_var(self, var: Variable, value: Number) -> None:
        """Fix ``var`` to ``value`` (used by SQPR's problem-reduction step).

        Fixing is implemented as a bound tightening recorded separately so it
        can be inspected (``fixed_values``) and is honoured by all backends.
        """
        value = float(value)
        if self._by_name.get(var.name) is not var:
            raise ModelError(f"cannot fix unknown variable {var.name!r}")
        if value < var.lower - 1e-9 or value > var.upper + 1e-9:
            raise ModelError(
                f"cannot fix {var.name!r} to {value}, outside bounds "
                f"[{var.lower}, {var.upper}]"
            )
        if var.is_integer and abs(value - round(value)) > 1e-9:
            raise ModelError(f"cannot fix integer variable {var.name!r} to {value}")
        self._fixed_values[var] = value
        self._bump_revision()

    @property
    def fixed_values(self) -> Mapping[Variable, float]:
        """Mapping of fixed variables to their values."""
        return dict(self._fixed_values)

    def effective_bounds(self, var: Variable) -> tuple:
        """Bounds of ``var`` after applying any fixing."""
        if var in self._fixed_values:
            value = self._fixed_values[var]
            return (value, value)
        return (var.lower, var.upper)

    # ---------------------------------------------------------------- warm start
    def set_warm_start(self, assignment: Mapping[Variable, float]) -> None:
        """Provide a (possibly partial) starting assignment hint."""
        self._warm_start = dict(assignment)

    @property
    def warm_start(self) -> Mapping[Variable, float]:
        """The warm-start hint (possibly empty)."""
        return dict(self._warm_start)

    # -------------------------------------------------------------- evaluation
    def objective_value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the objective under ``assignment``."""
        return self._objective.value(assignment)

    def is_feasible(self, assignment: Mapping[Variable, float], tol: float = 1e-6) -> bool:
        """Check bounds, integrality, fixings and all constraints."""
        for var in self._variables:
            value = float(assignment.get(var, 0.0))
            lower, upper = self.effective_bounds(var)
            if value < lower - tol or value > upper + tol:
                return False
            if var.is_integer and abs(value - round(value)) > tol:
                return False
        return all(c.is_satisfied(assignment, tol) for c in self._constraints)

    def summary(self) -> str:
        """One-line human-readable size summary."""
        return (
            f"Model {self.name!r}: {self.num_variables} vars "
            f"({self.num_integer_variables} integer), "
            f"{self.num_constraints} constraints, sense={self.sense.value}"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"
