"""Lowering a :class:`~repro.milp.model.Model` to sparse matrix standard form.

The standard form produced here matches the conventions of
``scipy.optimize.linprog``/``milp``:

* minimise ``c @ x``
* ``A_ub @ x <= b_ub``
* ``A_eq @ x == b_eq``
* ``lb <= x <= ub``
* ``integrality[i] == 1`` marks integer variables.

A :class:`Model` already holds its rows as column indices and coefficients
(:meth:`Model.add_row`), so lowering only stacks them: ``<=`` and ``>=``
rows (the latter negated) into ``A_ub``, ``==`` rows into ``A_eq``.

``A_ub``/``A_eq`` are :class:`~repro.milp.sparse.CsrMatrix` — SQPR models
are a few non-zeros per row across thousands of columns, and the fig. 5
scale experiments made dense lowering the dominant memory cost.  Callers
that need dense blocks use ``.toarray()``; dimension probes (``.shape``,
``.size``) behave like ``ndarray``.

Maximisation models are lowered by negating ``c``; callers use
:attr:`StandardForm.objective_sign` and :attr:`StandardForm.objective_offset`
to translate optimal values back to the model's original objective.

Lowering is cached per model revision: :func:`to_standard_form` returns the
same :class:`StandardForm` until the model is structurally modified (see
:attr:`Model.revision`; the objective sense is part of the cache key too).
The two-stage planner, the branch-and-bound solver and warm-start
feasibility checks all lower the same model, so the cache removes repeated
O(nnz) passes from the planning hot path.  Mutating ``Variable.lower`` /
``Variable.upper`` after a solve is safe: bound assignment on a registered
variable routes through a revision-bumping setter, so the cached
:class:`StandardForm` is invalidated exactly like any other structural
edit (:meth:`Model.fix_var` remains the way to fix a variable without
touching its declared bounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.milp.model import Model, ObjectiveSense
from repro.milp.expression import Variable
from repro.milp.sparse import CsrMatrix

_FEAS_TOL = 1e-6


@dataclass
class StandardForm:
    """Matrix representation of a model, plus bookkeeping to map back.

    Instances are shared: :func:`to_standard_form` returns the same object
    for every call at the same model revision, so treat all fields as
    read-only.  Solvers that tighten bounds (branch and bound) must work on
    copies of ``lower``/``upper``, never mutate them in place.
    """

    variables: List[Variable]
    c: np.ndarray
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    objective_sign: float
    objective_offset: float

    @property
    def num_variables(self) -> int:
        """Number of columns."""
        return len(self.variables)

    def index_of(self, var: Variable) -> int:
        """Column index of ``var``."""
        try:
            return self._index[var]
        except AttributeError:
            self._index: Dict[Variable, int] = {v: i for i, v in enumerate(self.variables)}
            return self._index[var]

    def model_objective(self, x: np.ndarray) -> float:
        """Translate a standard-form vector back to the model objective."""
        return self.objective_sign * float(self.c @ x) + self.objective_offset

    def assignment(self, x: np.ndarray) -> Dict[Variable, float]:
        """Build a variable->value mapping from a solution vector."""
        return {var: float(x[i]) for i, var in enumerate(self.variables)}

def to_standard_form(model: Model) -> StandardForm:
    """Lower ``model`` to :class:`StandardForm` (cached per model revision).

    Fixed variables (see :meth:`Model.fix_var`) are lowered as equal lower and
    upper bounds so that all backends honour them uniformly.
    """
    cached = getattr(model, "_form_cache", None)
    cache_key = (model.revision, model.sense)
    if cached is not None and cached[0] == cache_key:
        return cached[1]
    form = _lower(model)
    model._form_cache = (cache_key, form)
    return form


def _lower(model: Model) -> StandardForm:
    variables = model.variables
    if not variables:
        raise ModelError("cannot lower a model with no variables")
    n = len(variables)

    # Objective: scipy always minimises, so a MAXIMIZE model flips sign.
    sign = -1.0 if model.sense is ObjectiveSense.MAXIMIZE else 1.0
    c = np.zeros(n)
    for var, coeff in model.objective.terms.items():
        c[var.index] = sign * coeff
    offset = model.objective.constant

    # The rows are stored lowered; split them into the <= and == blocks,
    # negating >= rows into <= form.
    rows, row_sign, rhs = model.row_matrix()
    is_ub = row_sign != 0.0
    scale = np.where(is_ub, row_sign, 1.0)
    data = rows.data * scale[rows.row_ids]
    rhs = rhs * scale
    counts = np.diff(rows.indptr)
    entry_ub = is_ub[rows.row_ids]
    a_ub = _csr(counts[is_ub], rows.indices[entry_ub], data[entry_ub], n)
    a_eq = _csr(counts[~is_ub], rows.indices[~entry_ub], data[~entry_ub], n)
    b_ub = rhs[is_ub]
    b_eq = rhs[~is_ub]

    lower = np.array([var.lower for var in variables], dtype=float)
    upper = np.array([var.upper for var in variables], dtype=float)
    for var, value in model.fixed_values.items():
        lower[var.index] = upper[var.index] = value
    integrality = np.array([1.0 if var.is_integer else 0.0 for var in variables])

    return StandardForm(
        variables=variables,
        c=c,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower,
        upper=upper,
        integrality=integrality,
        objective_sign=sign,
        objective_offset=offset,
    )


def _csr(counts: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int) -> CsrMatrix:
    """A CSR block from per-row entry counts and the rows' stacked entries."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CsrMatrix(data, indices, indptr, (len(counts), n))


# ------------------------------------------------------------- warm starts
def round_integers(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Round integer coordinates of ``x`` (used when they are near-integral)."""
    rounded = x.copy()
    int_idx = integrality > 0.5
    rounded[int_idx] = np.round(rounded[int_idx])
    return rounded


def seed_incumbent(model: Model, form: StandardForm) -> Optional[np.ndarray]:
    """Turn the model's warm-start hint into a feasible incumbent, if it is one.

    The one feasibility test every backend applies to a caller-supplied
    start.  The hint may be partial: missing variables default to their
    lower bound.  Returns the standard-form vector or ``None`` when the hint
    is absent, names a variable of another model, or is infeasible (bounds,
    integrality or any constraint violated).
    """
    hint = model.warm_start
    if not hint:
        return None
    x = np.where(np.isfinite(form.lower), form.lower, 0.0)
    for var, value in hint.items():
        try:
            x[form.index_of(var)] = float(value)
        except KeyError:
            return None  # hint refers to a variable of another model
    x = round_integers(x, form.integrality)
    if np.any(x < form.lower - _FEAS_TOL) or np.any(x > form.upper + _FEAS_TOL):
        return None
    if form.a_ub.shape[0] and np.any(form.a_ub.matvec(x) > form.b_ub + _FEAS_TOL):
        return None
    if form.a_eq.shape[0] and np.any(np.abs(form.a_eq.matvec(x) - form.b_eq) > _FEAS_TOL):
        return None
    return x
