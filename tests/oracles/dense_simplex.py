"""The original dense two-phase tableau simplex, kept as a test oracle.

This is the seed repository's LP engine, unchanged apart from importing
:class:`~repro.milp.simplex.LpSolution` from the package.  It is a
straightforward dense tableau implementation with Bland's rule: correct,
slow, and deliberately preserved so that

* the vectorized revised simplex in :mod:`repro.milp.simplex` can be
  cross-checked against it on random instances, and
* the fig. 5 planning-time benchmark can measure the speedup of the sparse
  solver against this baseline (``BENCH_fig5.json``).

It folds finite upper bounds into explicit ``x_i <= u_i`` rows, so its
tableau has ``O((m + n) * n)`` entries — the dense-tableau cost the sparse
rewrite removes.  It takes dense constraint blocks only.
"""

from __future__ import annotations

import numpy as np

from repro.milp.simplex import LpSolution

_TOL = 1e-9
_MAX_ITER_FACTOR = 50


def _fold_bounds_into_rows(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """Shift variables so every variable has lower bound 0.

    Returns the shifted data plus the shift vector, and appends upper-bound
    rows ``x_i <= upper_i - lower_i`` for finite upper bounds.  Variables
    with infinite lower bounds are not supported; the modelling layer in
    this package always produces finite lower bounds (>= 0 or fixed
    values), so we simply assert that here.
    """
    n = len(c)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(~np.isfinite(lower)):
        raise ValueError("simplex backend requires finite lower bounds")
    shift = lower.copy()
    b_ub = b_ub - a_ub @ shift if a_ub.size else b_ub.copy()
    b_eq = b_eq - a_eq @ shift if a_eq.size else b_eq.copy()

    extra_rows = []
    extra_rhs = []
    span = upper - lower
    for i in range(n):
        if np.isfinite(span[i]):
            row = np.zeros(n)
            row[i] = 1.0
            extra_rows.append(row)
            extra_rhs.append(span[i])
    if extra_rows:
        a_ub = np.vstack([a_ub, np.vstack(extra_rows)]) if a_ub.size else np.vstack(extra_rows)
        b_ub = np.concatenate([b_ub, np.asarray(extra_rhs)])
    return c, a_ub, b_ub, a_eq, b_eq, shift


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Perform a pivot on (row, col) in place."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, num_cols: int, max_iter: int) -> str:
    """Run the primal simplex on ``tableau`` until optimality or failure.

    The last row of the tableau holds the (negated) reduced costs and the
    last column holds the right-hand side.  Uses Bland's anti-cycling rule.
    """
    for _ in range(max_iter):
        cost_row = tableau[-1, :num_cols]
        entering = -1
        for j in range(num_cols):
            if cost_row[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal"
        ratios_col = tableau[:-1, entering]
        rhs = tableau[:-1, -1]
        best_ratio = np.inf
        leaving = -1
        for i in range(len(rhs)):
            if ratios_col[i] > _TOL:
                ratio = rhs[i] / ratios_col[i]
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)
    return "iteration_limit"


def solve_lp_dense(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> LpSolution:
    """Minimise ``c @ x`` subject to the given constraints and bounds."""
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, len(c)) if np.size(a_ub) else np.zeros((0, len(c)))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, len(c)) if np.size(a_eq) else np.zeros((0, len(c)))
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)

    c, a_ub, b_ub, a_eq, b_eq, shift = _fold_bounds_into_rows(
        c, a_ub, b_ub, a_eq, b_eq, lower, upper
    )
    n = len(c)

    # Convert <= rows with negative rhs and == rows into a canonical system
    # A x + slacks = b with b >= 0, then run phase 1 with artificials.
    rows = []
    rhs = []
    slack_count = a_ub.shape[0]
    total_cols = n + slack_count
    for i in range(a_ub.shape[0]):
        row = np.zeros(total_cols)
        row[:n] = a_ub[i]
        row[n + i] = 1.0
        b = b_ub[i]
        if b < 0:
            row = -row
            b = -b
        rows.append(row)
        rhs.append(b)
    for i in range(a_eq.shape[0]):
        row = np.zeros(total_cols)
        row[:n] = a_eq[i]
        b = b_eq[i]
        if b < 0:
            row = -row
            b = -b
        rows.append(row)
        rhs.append(b)

    if not rows:
        # Unconstrained apart from bounds: minimise each variable at its bound.
        x = np.where(c > 0, 0.0, np.where(np.isfinite(upper - shift), upper - shift, 0.0))
        x = x + shift
        return LpSolution("optimal", x, float(c @ x))

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    m = a.shape[0]
    max_iter = _MAX_ITER_FACTOR * (m + total_cols + 10)

    # Phase 1: add artificial variables and minimise their sum.
    art_cols = m
    tableau = np.zeros((m + 1, total_cols + art_cols + 1))
    tableau[:m, :total_cols] = a
    tableau[:m, total_cols : total_cols + art_cols] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.array([total_cols + i for i in range(m)])
    # Phase-1 cost row: minimise sum of artificials.
    tableau[-1, total_cols : total_cols + art_cols] = 1.0
    for i in range(m):
        tableau[-1] -= tableau[i]

    status = _run_simplex(tableau, basis, total_cols + art_cols, max_iter)
    if status != "optimal":
        return LpSolution(status)
    if tableau[-1, -1] < -1e-6:
        return LpSolution("infeasible")

    # Drive remaining artificial variables out of the basis when possible.
    for i in range(m):
        if basis[i] >= total_cols:
            pivot_col = -1
            for j in range(total_cols):
                if abs(tableau[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)

    # Phase 2: replace the cost row with the true objective.
    phase2 = np.zeros((m + 1, total_cols + 1))
    phase2[:m, :total_cols] = tableau[:m, :total_cols]
    phase2[:m, -1] = tableau[:m, -1]
    phase2[-1, :n] = c
    for i in range(m):
        col = basis[i]
        if col < total_cols and abs(phase2[-1, col]) > _TOL:
            phase2[-1] -= phase2[-1, col] * phase2[i]

    status = _run_simplex(phase2, basis, total_cols, max_iter)
    if status == "unbounded":
        return LpSolution("unbounded")
    if status != "optimal":
        return LpSolution(status)

    x_full = np.zeros(total_cols)
    for i in range(m):
        if basis[i] < total_cols:
            x_full[basis[i]] = phase2[i, -1]
    x = x_full[:n] + shift
    return LpSolution("optimal", x, float(c @ x))
