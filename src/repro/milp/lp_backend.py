"""LP relaxation solving: scipy (HiGHS) when importable, else the in-repo simplex.

The branch-and-bound solver only needs the answer to one question per node:
"what is the optimum of this LP (with these bounds)?".  The platform decides
who answers it: ``scipy.optimize.linprog`` when scipy is importable, the
vectorized sparse revised simplex in :mod:`repro.milp.simplex` otherwise.

Constraint matrices may be passed as :class:`~repro.milp.sparse.CsrMatrix`
(what :func:`repro.milp.standard_form.to_standard_form` produces) or as
dense arrays.  ``warm_basis`` carries a
:class:`~repro.milp.simplex.SimplexBasis` from a previous solve of the same
system; only the in-repo simplex uses it, ``linprog`` always solves cold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.milp.simplex import LpSolution, SimplexBasis, solve_lp_simplex
from repro.milp.sparse import as_csr

try:  # pragma: no cover - exercised implicitly depending on environment
    from scipy.optimize import linprog as _scipy_linprog
except ImportError:  # pragma: no cover
    _scipy_linprog = None

try:  # pragma: no cover - optional, used to hand scipy sparse matrices
    from scipy.sparse import csr_matrix as _scipy_csr
except ImportError:  # pragma: no cover
    _scipy_csr = None


def scipy_available() -> bool:
    """Whether ``scipy.optimize.linprog`` can be used."""
    return _scipy_linprog is not None


def solve_lp(
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    warm_basis: Optional[SimplexBasis] = None,
) -> LpSolution:
    """Minimise ``c @ x`` subject to the given system.

    Uses ``linprog`` when scipy is importable (``warm_basis`` is then
    ignored), otherwise the in-repo simplex, which resumes ``warm_basis``
    with the dual simplex.
    """
    if scipy_available():
        return _solve_with_scipy(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
    return solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper, warm_basis=warm_basis)


def _to_scipy_matrix(matrix, num_cols: int):
    """Convert to something ``linprog`` accepts, staying sparse when possible."""
    csr = as_csr(matrix, num_cols)
    if csr.shape[0] == 0:
        return None
    if _scipy_csr is not None:
        return _scipy_csr(csr.tocsr_arrays(), shape=csr.shape)
    return csr.toarray()


def _solve_with_scipy(c, a_ub, b_ub, a_eq, b_eq, lower, upper) -> LpSolution:
    n = len(c)
    bounds = list(zip(lower, [u if np.isfinite(u) else None for u in upper]))
    a_ub_mat = _to_scipy_matrix(a_ub, n)
    a_eq_mat = _to_scipy_matrix(a_eq, n)
    result = _scipy_linprog(
        c,
        A_ub=a_ub_mat,
        b_ub=b_ub if a_ub_mat is not None else None,
        A_eq=a_eq_mat,
        b_eq=b_eq if a_eq_mat is not None else None,
        bounds=bounds,
        method="highs",
    )
    # scipy status codes: 0 ok, 1 iteration limit, 2 infeasible, 3 unbounded.
    if result.status == 0:
        return LpSolution("optimal", np.asarray(result.x, dtype=float), float(result.fun))
    if result.status == 2:
        return LpSolution("infeasible")
    if result.status == 3:
        return LpSolution("unbounded")
    return LpSolution("iteration_limit")
