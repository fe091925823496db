"""A vectorized revised simplex for sparse LPs with bounded variables.

This replaces the seed repository's dense two-phase tableau (kept as the
test oracle ``tests/oracles/dense_simplex.py``).  Three structural changes
make it the fast pure-Python path the branch-and-bound solver runs on when
scipy is unavailable — and the engine the fig. 5 planning-time benchmark
measures:

* **Bounded variables are native.**  The dense tableau folded every finite
  upper bound into an explicit ``x_i <= u_i`` row, roughly doubling the row
  count on the binary-heavy SQPR models.  Here nonbasic variables rest at
  either bound and bound flips are a constant-time move, so the working
  basis stays at ``m = |A_ub| + |A_eq|`` rows.
* **Revised, not tableau.**  Only the ``m × m`` basis inverse is
  maintained (product-form eta updates, periodic refactorisation); pricing
  runs over the sparse constraint matrix (:class:`~repro.milp.sparse.CsrMatrix`)
  with no Python-level loops.  The primal engine prices by Dantzig's rule
  (largest reduced cost) and switches to Bland's rule after a stall, which
  guarantees termination.
* **Dual simplex warm starts.**  :func:`solve_lp_simplex` accepts the
  :class:`SimplexBasis` returned by a previous solve on the same system
  (possibly with different variable bounds or right-hand sides).  A warm
  basis is first resumed with the **bounded-variable dual simplex**
  (:meth:`_BoundedSimplex.run_dual`): reduced costs do not depend on bounds
  or the RHS, so the incumbent basis is dual-feasible after at most a few
  nonbasic bound flips and the re-solve walks straight back to primal
  feasibility — the textbook move for a branch-and-bound child node, which
  differs from its parent by one bound.  The dual ratio test is
  *bound-flipping* (long-step): breakpoint variables whose reduced cost
  crosses zero are flipped to their other bound while the leaving row's
  infeasibility still shrinks, which on the binary-heavy SQPR models
  absorbs most of the perturbation without a single basis change.  When
  the dual resume fails the engine falls back to a cold start, so
  warm-started solves always return the same optimum a cold solve would.

Every solve reports a :class:`SolverCounters` record (phase-1/primal/dual
iterations, bound flips, refactorisations, dual resumes, cold fallbacks)
so callers up the stack — branch and bound, the planner, the admission
service's metrics registry — can observe what a re-plan actually cost.

The entry point keeps the package-wide standard form (minimise ``c @ x``
s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``, ``lb <= x <= ub``; lower
bounds must be finite).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Optional

import numpy as np

from repro.milp.sparse import CsrMatrix, as_csr

_DUAL_TOL = 1e-7
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_REFACTOR_EVERY = 100
_MAX_ITER_FACTOR = 200


@dataclass
class SolverCounters:
    """Per-solve iteration/maintenance counters, reported on every solution.

    One record covers one :func:`solve_lp_simplex` call; branch and bound
    sums the records of all node LPs into ``SolveResult.lp_counters`` and
    the planner forwards that dict through outcome extras, so re-plan cost
    is observable per admission and per churn event.
    """

    phase1_iterations: int = 0
    primal_iterations: int = 0
    dual_iterations: int = 0
    bound_flips: int = 0
    refactorisations: int = 0
    #: Warm starts resumed to optimality by the dual simplex (skips phase 1).
    dual_resumes: int = 0
    #: Warm starts that had to be thrown away for a cold start.
    cold_fallbacks: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain ``name -> value`` dict."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def add(self, other: "SolverCounters") -> None:
        """Accumulate ``other`` into this record in place."""
        for f in dataclass_fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


#: Counter field names, importable by metric consumers (the admission
#: service pre-creates one monotonic counter per field).
SOLVER_COUNTER_FIELDS = tuple(f.name for f in dataclass_fields(SolverCounters))


@dataclass
class SimplexBasis:
    """An opaque warm-start token: basic column ids + nonbasic bound sides.

    Valid for any solve over the *same* constraint matrix (same rows, same
    columns); variable bounds and right-hand sides may differ between
    solves, which is exactly the branch-and-bound / perturbation re-solve
    use case.

    ``binv`` optionally carries the basis inverse from the solve that
    produced this token.  Re-installing a basis costs an ``O(m^3)``
    factorisation; with ``binv`` attached the next solve skips it (after an
    ``O(m^2)`` validity probe).  Holders that keep many tokens alive (the
    branch-and-bound heap) set ``binv = None`` on all but the most recent
    one to bound memory at a single ``m x m`` matrix.
    """

    basic: np.ndarray
    at_upper: np.ndarray
    binv: Optional[np.ndarray] = None

    def copy(self) -> "SimplexBasis":
        """An independent copy (solves mutate their working basis)."""
        return SimplexBasis(
            self.basic.copy(),
            self.at_upper.copy(),
            None if self.binv is None else self.binv.copy(),
        )


@dataclass
class LpSolution:
    """Result of an LP solve (shared by the simplex and scipy backends)."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    basis: Optional[SimplexBasis] = None
    iterations: int = 0
    #: Iteration/maintenance counters (in-repo simplex only; ``None`` from
    #: ``linprog`` and the dense test oracle).
    counters: Optional[SolverCounters] = None
    #: How a provided warm basis was used: ``"dual_resume"``,
    #: ``"cold_fallback"``, or ``""`` (no warm basis).
    warm_status: str = ""

    @property
    def is_optimal(self) -> bool:
        """Whether an optimal solution is available."""
        return self.status == "optimal" and self.x is not None


class _BoundedSimplex:
    """Revised primal/dual simplex over ``A x = b`` with ``lb <= x <= ub``.

    The caller owns problem construction (slacks, artificials) and phase
    sequencing; this class only iterates from an installed basis under the
    currently installed bounds.
    """

    def __init__(self, a: CsrMatrix, b: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> None:
        self.a = a
        self.b = b
        self.lb = lb
        self.ub = ub
        self.m, self.num_cols = a.shape
        self.max_iter = _MAX_ITER_FACTOR * (self.m + self.num_cols + 10)
        self.iterations = 0
        self.basic: np.ndarray = np.zeros(0, dtype=np.int64)
        self.basic_mask: np.ndarray = np.zeros(self.num_cols, dtype=bool)
        self.at_upper: np.ndarray = np.zeros(self.num_cols, dtype=bool)
        self.binv: np.ndarray = np.zeros((self.m, self.m))
        self.x_basic: np.ndarray = np.zeros(self.m)
        self.counters = SolverCounters()

    # ------------------------------------------------------------ basis install
    def _basis_matvec(self, basic: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``B @ y`` assembled column-by-column from the sparse matrix."""
        out = np.zeros(self.m)
        for k in range(self.m):
            rows, vals = self.a.column(int(basic[k]))
            out[rows] += vals * y[k]
        return out

    def set_basis(
        self,
        basic: np.ndarray,
        at_upper: np.ndarray,
        binv: Optional[np.ndarray] = None,
    ) -> bool:
        """Install a basis, rebuilding ``B^-1`` and the basic values.

        ``binv`` short-circuits the factorisation with a known inverse for
        this exact basis (validated with a cheap probe, then copied so the
        caller's matrix is never mutated by subsequent pivots).  Returns
        ``False`` (leaving the previous state untouched) when the candidate
        basis is out of range, singular or too ill-conditioned.
        """
        basic = np.asarray(basic, dtype=np.int64)
        if len(basic) != self.m or (self.m and (basic.min() < 0 or basic.max() >= self.num_cols)):
            return False
        probe = np.ones(self.m)
        if binv is not None and binv.shape == (self.m, self.m):
            if np.max(np.abs(self._basis_matvec(basic, binv @ probe) - probe)) > 1e-4:
                return False
            binv = binv.copy()
        else:
            b_mat = np.zeros((self.m, self.m))
            singleton = True
            for k in range(self.m):
                rows, vals = self.a.column(int(basic[k]))
                b_mat[rows, k] = vals
                singleton = singleton and len(rows) == 1
            if singleton:
                # Common fast path: a slack/artificial basis is a scaled
                # permutation; its inverse is direct — no O(m^3) factorize.
                diag_rows = b_mat.nonzero()[0] if self.m else np.zeros(0, dtype=np.int64)
                if len(np.unique(diag_rows)) != self.m:
                    return False
                binv = np.zeros((self.m, self.m))
                for k in range(self.m):
                    row = int(np.argmax(np.abs(b_mat[:, k])))
                    binv[k, row] = 1.0 / b_mat[row, k]
            else:
                try:
                    binv = np.linalg.inv(b_mat)
                except np.linalg.LinAlgError:
                    return False
                if not np.all(np.isfinite(binv)):
                    return False
                # O(m^2) conditioning probe instead of a full O(m^3)
                # residual: garbage inverses fail this loudly.
                if self.m and np.max(np.abs(b_mat @ (binv @ probe) - probe)) > 1e-4:
                    return False
        self.basic = basic.copy()
        self.basic_mask = np.zeros(self.num_cols, dtype=bool)
        self.basic_mask[self.basic] = True
        self.at_upper = np.asarray(at_upper, dtype=bool).copy()
        self.at_upper[~np.isfinite(self.ub)] = False
        self.at_upper[self.basic_mask] = False
        self.binv = binv
        self.recompute_basic_values()
        return True

    def _nonbasic_x(self) -> np.ndarray:
        x = np.where(self.at_upper, self.ub, self.lb)
        x[self.basic_mask] = 0.0
        return x

    def recompute_basic_values(self) -> None:
        """Recompute basic variable values from the nonbasic bound rest points."""
        x_nonbasic = self._nonbasic_x()
        self.x_basic = self.binv @ (self.b - self.a.matvec(x_nonbasic))

    def full_x(self) -> np.ndarray:
        """The complete primal point implied by the current basis."""
        x = self._nonbasic_x()
        x[self.basic] = self.x_basic
        return x

    def _refactor(self) -> bool:
        """Rebuild ``B^-1`` from scratch to clear accumulated drift."""
        self.counters.refactorisations += 1
        return self.set_basis(self.basic, self.at_upper)

    # ------------------------------------------------------------------ pricing
    def _price_entering(
        self, c: np.ndarray, y: np.ndarray, movable: np.ndarray, bland: bool
    ):
        """Pick the entering column, or ``None`` at optimality.

        Returns ``(entering, reduced_cost)``: the largest improving reduced
        cost (Dantzig), or under ``bland`` the lowest eligible index (Bland's
        rule, which guarantees termination on degenerate LPs).
        """
        reduced = c - self.a.rmatvec(y)
        reduced[self.basic_mask] = 0.0
        eligible = (
            ~self.basic_mask
            & movable
            & (
                (~self.at_upper & (reduced < -_DUAL_TOL))
                | (self.at_upper & (reduced > _DUAL_TOL))
            )
        )
        if not np.any(eligible):
            return None, 0.0
        if bland:
            entering = int(np.nonzero(eligible)[0][0])
        else:
            entering = int(np.argmax(np.where(eligible, np.abs(reduced), 0.0)))
        return entering, float(reduced[entering])

    # -------------------------------------------------------------- primal loop
    def run(self, c: np.ndarray, phase1: bool = False) -> str:
        """Iterate to optimality for cost ``c`` under the installed bounds."""
        bland = False
        stall = 0
        span = None
        since_refactor = 0
        counters = self.counters
        while self.iterations < self.max_iter:
            self.iterations += 1
            if phase1:
                counters.phase1_iterations += 1
            else:
                counters.primal_iterations += 1
            # Pricing: y = c_B B^-1, then one pass over the reduced costs.
            y = c[self.basic] @ self.binv
            if span is None or since_refactor == 0:
                span = self.ub - self.lb
            movable = span > _FEAS_TOL
            entering, reduced_cost = self._price_entering(c, y, movable, bland)
            if entering is None:
                return "optimal"
            sigma = -1.0 if self.at_upper[entering] else 1.0

            rows, vals = self.a.column(entering)
            alpha = self.binv[:, rows] @ vals if len(rows) else np.zeros(self.m)
            delta = -sigma * alpha  # d x_B / d t as the entering var moves by t

            # Ratio test against the basic variables' bounds (vectorized).
            lb_basic = self.lb[self.basic]
            ub_basic = self.ub[self.basic]
            ratios = np.full(self.m, np.inf)
            inc = delta > _PIVOT_TOL
            ratios[inc] = (ub_basic[inc] - self.x_basic[inc]) / delta[inc]
            dec = delta < -_PIVOT_TOL
            ratios[dec] = (self.x_basic[dec] - lb_basic[dec]) / (-delta[dec])
            ratios = np.maximum(ratios, 0.0)
            row_limit = float(np.min(ratios)) if self.m else np.inf
            flip_limit = span[entering] if np.isfinite(span[entering]) else np.inf
            step = min(row_limit, flip_limit)
            if not np.isfinite(step):
                return "unbounded"

            if abs(reduced_cost) * step <= 1e-12:
                stall += 1
                if stall > 100 + self.m:
                    bland = True
            else:
                stall = 0

            if flip_limit <= row_limit + 1e-12:
                # Bound flip: the entering variable crosses to its other
                # bound before any basic variable hits one.  No pivot.
                self.x_basic += delta * flip_limit
                self.at_upper[entering] = not self.at_upper[entering]
                counters.bound_flips += 1
                continue

            near = np.nonzero(ratios <= step + 1e-9)[0]
            if bland:
                row = int(near[np.argmin(self.basic[near])])
            else:
                row = int(near[np.argmax(np.abs(delta[near]))])
            leaving = int(self.basic[row])

            self.x_basic += delta * step
            # The leaving variable rests on the bound its movement hit.
            self.at_upper[leaving] = bool(delta[row] > 0)
            self.x_basic[row] = (self.ub[entering] - step) if sigma < 0 else (self.lb[entering] + step)
            self.basic_mask[leaving] = False
            self.basic_mask[entering] = True
            self.basic[row] = entering
            self.at_upper[entering] = False

            # Product-form update of B^-1, with periodic refactorisation to
            # bound numerical drift.
            pivot_row = self.binv[row] / alpha[row]
            self.binv -= np.outer(alpha, pivot_row)
            self.binv[row] = pivot_row
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                since_refactor = 0
                if not self._refactor():
                    return "singular"
        return "iteration_limit"

    # ---------------------------------------------------------------- dual loop
    def restore_dual_feasibility(self, c: np.ndarray) -> bool:
        """Flip nonbasic variables so every reduced cost has a legal sign.

        Reduced costs depend only on the basis and ``c`` — not on bounds or
        the RHS — so after a bound/RHS perturbation the incumbent basis is
        dual-feasible up to nonbasic variables resting on the wrong bound.
        Flipping them restores dual feasibility in one vectorized pass.
        Fixed columns (``lb == ub``, notably the artificials) impose no
        sign condition.  Returns ``False`` when a column with a favourable
        reduced cost has no finite opposite bound to flip to (a potential
        unbounded ray — the caller falls back to the primal path, which
        detects actual unboundedness).
        """
        y = c[self.basic] @ self.binv
        reduced = c - self.a.rmatvec(y)
        reduced[self.basic_mask] = 0.0
        movable = (self.ub - self.lb) > _FEAS_TOL
        free = ~self.basic_mask & movable
        need_upper = free & ~self.at_upper & (reduced < -_DUAL_TOL)
        if np.any(need_upper & ~np.isfinite(self.ub)):
            return False
        need_lower = free & self.at_upper & (reduced > _DUAL_TOL)
        if np.any(need_upper) or np.any(need_lower):
            self.at_upper[need_upper] = True
            self.at_upper[need_lower] = False
            self.counters.bound_flips += int(need_upper.sum() + need_lower.sum())
            self.recompute_basic_values()
        return True

    def run_dual(self, c: np.ndarray) -> str:
        """Dual simplex: walk a dual-feasible basis back to primal feasibility.

        Requires :meth:`restore_dual_feasibility` to have succeeded.  The
        leaving row is the largest bound violation; the ratio test is the
        *bound-flipping* (long-step) variant: breakpoints whose reduced cost
        reaches zero are flipped to their other bound for as long as the
        leaving row's violation keeps shrinking, and only the final
        breakpoint enters the basis.  Returns ``"optimal"`` (primal
        feasibility reached — with dual feasibility maintained throughout,
        this is optimality for ``c``), ``"infeasible"`` (a row's violation
        cannot be repaired by any nonbasic movement — a primal
        infeasibility certificate, only issued on a freshly refactorised
        basis), or ``"stall"`` / ``"singular"`` / ``"iteration_limit"``,
        after which the caller must fall back to a cold start.
        """
        counters = self.counters
        since_refactor = 0
        stall = 0
        last_total = np.inf
        while self.iterations < self.max_iter:
            lb_b = self.lb[self.basic]
            ub_b = self.ub[self.basic]
            below = lb_b - self.x_basic
            above = self.x_basic - ub_b
            infeas = np.maximum(np.maximum(below, above), 0.0)
            total = float(infeas.sum())
            if not self.m or infeas.max(initial=0.0) <= _FEAS_TOL:
                return "optimal"
            if total >= last_total - 1e-12:
                stall += 1
                if stall > 100 + self.m:
                    return "stall"
            else:
                stall = 0
            last_total = total
            self.iterations += 1
            counters.dual_iterations += 1

            # Leaving row: the largest bound violation.
            row = int(np.argmax(infeas))
            leaving = int(self.basic[row])
            going_below = below[row] > above[row]
            sigma = -1.0 if going_below else 1.0  # sign of the violation
            target = lb_b[row] if going_below else ub_b[row]
            violation = abs(self.x_basic[row] - target)

            # Pivot row over all columns (the dual ratio test is global).
            rho = self.binv[row]
            alpha_row = self.a.rmatvec(rho)
            y = c[self.basic] @ self.binv
            reduced = c - self.a.rmatvec(y)
            reduced[self.basic_mask] = 0.0
            ar = sigma * alpha_row
            span = self.ub - self.lb
            movable = span > _FEAS_TOL
            free = ~self.basic_mask & movable
            elig_lower = free & ~self.at_upper & (ar > _PIVOT_TOL)
            elig_upper = free & self.at_upper & (ar < -_PIVOT_TOL)
            eligible = elig_lower | elig_upper
            if not np.any(eligible):
                # No movement can repair this row.  Certify infeasibility
                # only from a fresh factorisation; otherwise clear the
                # drift and re-examine.
                if since_refactor == 0:
                    return "infeasible"
                since_refactor = 0
                if not self._refactor():
                    return "singular"
                continue

            idx = np.nonzero(eligible)[0]
            ratios = np.maximum(reduced[idx] / ar[idx], 0.0)
            order = np.argsort(ratios, kind="stable")
            # Bound-flipping walk: passing breakpoint k flips variable k to
            # its other bound, shrinking the row's violation by
            # |ar_k| * span_k.  The breakpoint that would overshoot (or
            # cannot flip: infinite span) enters the basis instead.
            flips = []
            entering = -1
            remaining = violation
            for k in order:
                j = int(idx[k])
                reduction = abs(ar[j]) * span[j]
                if not np.isfinite(reduction) or reduction >= remaining - _FEAS_TOL:
                    entering = j
                    break
                flips.append(j)
                remaining -= reduction
            if entering < 0:
                # Every breakpoint flipped and the row is still violated:
                # the row cannot be repaired (same certificate as above).
                if since_refactor == 0:
                    return "infeasible"
                since_refactor = 0
                if not self._refactor():
                    return "singular"
                continue

            for j in flips:
                to_upper = not self.at_upper[j]
                move = span[j] if to_upper else -span[j]
                rows_j, vals_j = self.a.column(j)
                if len(rows_j):
                    self.x_basic -= (self.binv[:, rows_j] @ vals_j) * move
                self.at_upper[j] = to_upper
            counters.bound_flips += len(flips)

            rows_q, vals_q = self.a.column(entering)
            alpha = self.binv[:, rows_q] @ vals_q if len(rows_q) else np.zeros(self.m)
            if abs(alpha[row]) <= _PIVOT_TOL:
                if since_refactor == 0:
                    return "stall"
                since_refactor = 0
                if not self._refactor():
                    return "singular"
                continue

            # Primal step: drive x_B[row] exactly onto its violated bound.
            direction = -1.0 if self.at_upper[entering] else 1.0
            step = (self.x_basic[row] - target) / (alpha[row] * direction)
            step = max(float(step), 0.0)
            self.x_basic += -alpha * (direction * step)

            entering_value = (
                self.ub[entering] - step if direction < 0 else self.lb[entering] + step
            )
            self.basic_mask[leaving] = False
            self.basic_mask[entering] = True
            self.at_upper[leaving] = not going_below
            self.basic[row] = entering
            self.at_upper[entering] = False
            self.x_basic[row] = entering_value

            pivot_row = self.binv[row] / alpha[row]
            self.binv -= np.outer(alpha, pivot_row)
            self.binv[row] = pivot_row
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                since_refactor = 0
                if not self._refactor():
                    return "singular"
        return "iteration_limit"


def _bounds_only_solution(c: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> LpSolution:
    """Optimum of an LP with no rows: every variable sits at its best bound."""
    pushing_down = c < 0
    if np.any(pushing_down & ~np.isfinite(upper)):
        return LpSolution("unbounded")
    x = lower.copy()
    x[pushing_down] = upper[pushing_down]
    return LpSolution("optimal", x, float(c @ x), counters=SolverCounters())


def solve_lp_simplex(
    c: np.ndarray,
    a_ub,
    b_ub: np.ndarray,
    a_eq,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    warm_basis: Optional[SimplexBasis] = None,
) -> LpSolution:
    """Minimise ``c @ x`` subject to the given constraints and bounds.

    ``a_ub``/``a_eq`` may be :class:`~repro.milp.sparse.CsrMatrix` or dense
    arrays.  ``warm_basis`` is a :class:`SimplexBasis` from a previous solve
    of the same system (bounds and RHS may differ), resumed with the dual
    simplex; a basis the dual simplex cannot resume degrades to a cold
    start, so the returned optimum never depends on it.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    a_ub = as_csr(a_ub, n)
    a_eq = as_csr(a_eq, n)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float).copy()
    upper = np.asarray(upper, dtype=float).copy()
    if np.any(~np.isfinite(lower)):
        raise ValueError("simplex backend requires finite lower bounds")

    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    if m == 0:
        return _bounds_only_solution(c, lower, upper)

    # Equality form: columns are [structural n | slacks m_ub | artificials m].
    # One artificial per row keeps the column layout identical across solves
    # of the same system, so a SimplexBasis stays valid between them; unused
    # artificials are fixed to 0.
    num_struct_slack = n + m_ub
    num_cols = num_struct_slack + m
    residual0 = np.concatenate(
        [
            b_ub - a_ub.matvec(lower) if m_ub else np.zeros(0),
            b_eq - a_eq.matvec(lower) if m_eq else np.zeros(0),
        ]
    )
    art_sign = np.where(residual0 >= 0, 1.0, -1.0)

    # Assemble [A_ub | I_slack | I_art ; A_eq | 0 | I_art] in one vectorized
    # pass: each ub row gains a slack and an artificial entry, each eq row an
    # artificial, so an original entry at flat position p of row i lands at
    # p plus the extras inserted by the preceding rows.
    nnz_ub = int(a_ub.indptr[-1])
    nnz_eq = int(a_eq.indptr[-1])
    data = np.empty(nnz_ub + 2 * m_ub + nnz_eq + m_eq)
    indices = np.empty(len(data), dtype=np.int64)
    indptr = np.empty(m + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(
        np.concatenate([np.diff(a_ub.indptr) + 2, np.diff(a_eq.indptr) + 1]),
        out=indptr[1:],
    )
    if nnz_ub:
        dest = np.arange(nnz_ub) + 2 * a_ub.row_ids
        data[dest] = a_ub.data
        indices[dest] = a_ub.indices
    if m_ub:
        row_ends = indptr[1 : m_ub + 1]
        data[row_ends - 2] = 1.0
        indices[row_ends - 2] = n + np.arange(m_ub)
        data[row_ends - 1] = -1.0
        indices[row_ends - 1] = num_struct_slack + np.arange(m_ub)
    if nnz_eq:
        dest = indptr[m_ub] + np.arange(nnz_eq) + a_eq.row_ids
        data[dest] = a_eq.data
        indices[dest] = a_eq.indices
    if m_eq:
        row_ends = indptr[m_ub + 1 :]
        data[row_ends - 1] = art_sign[m_ub:]
        indices[row_ends - 1] = num_struct_slack + m_ub + np.arange(m_eq)
    a_full = CsrMatrix(data, indices, indptr, (m, num_cols))
    b = np.concatenate([b_ub, b_eq])
    lb = np.concatenate([lower, np.zeros(m_ub), np.zeros(m)])
    ub = np.concatenate([upper, np.full(m_ub, np.inf), np.zeros(m)])

    engine = _BoundedSimplex(a_full, b, lb, ub)
    counters = engine.counters
    c_full = np.concatenate([c, np.zeros(m_ub + m)])

    warm_ready = False
    warm_status = ""
    if (
        warm_basis is not None
        and len(warm_basis.basic) == m
        and len(warm_basis.at_upper) == num_cols
        and engine.set_basis(warm_basis.basic, warm_basis.at_upper, binv=warm_basis.binv)
        and engine.restore_dual_feasibility(c_full)
    ):
        dual_status = engine.run_dual(c_full)
        if dual_status == "infeasible":
            counters.dual_resumes += 1
            return LpSolution(
                "infeasible",
                iterations=engine.iterations,
                counters=counters,
                warm_status="dual_resume",
            )
        if dual_status == "optimal":
            warm_ready = True
            warm_status = "dual_resume"
            counters.dual_resumes += 1

    if not warm_ready:
        if warm_basis is not None:
            warm_status = "cold_fallback"
            counters.cold_fallbacks += 1
        status = _cold_start(engine, residual0, n, num_struct_slack, m_ub, m_eq)
        if status is not None:
            return LpSolution(
                status, iterations=engine.iterations, counters=counters, warm_status=warm_status
            )

    status = engine.run(c_full)
    if status == "optimal":
        x = np.clip(engine.full_x()[:n], lower, upper)
        return LpSolution(
            "optimal",
            x,
            float(c @ x),
            # The engine is discarded after this call, so its inverse can be
            # handed to the basis token without a copy.
            basis=SimplexBasis(engine.basic.copy(), engine.at_upper.copy(), engine.binv),
            iterations=engine.iterations,
            counters=counters,
            warm_status=warm_status,
        )
    if status == "unbounded":
        return LpSolution(
            "unbounded", iterations=engine.iterations, counters=counters, warm_status=warm_status
        )
    return LpSolution(
        "iteration_limit", iterations=engine.iterations, counters=counters, warm_status=warm_status
    )


def _cold_start(
    engine: _BoundedSimplex,
    residual0: np.ndarray,
    n: int,
    num_struct_slack: int,
    m_ub: int,
    m_eq: int,
) -> Optional[str]:
    """Install a feasible starting basis, running phase 1 when needed.

    Returns a terminal status string on failure, ``None`` when the engine is
    ready for phase 2.
    """
    m = m_ub + m_eq
    basic = np.empty(m, dtype=np.int64)
    art_used = np.zeros(m, dtype=bool)
    for i in range(m_ub):
        if residual0[i] >= -1e-9:
            basic[i] = n + i  # the slack starts basic and feasible
        else:
            basic[i] = num_struct_slack + i
            art_used[i] = True
    for k in range(m_eq):
        i = m_ub + k
        basic[i] = num_struct_slack + i
        art_used[i] = True

    if art_used.any():
        engine.ub[num_struct_slack:][art_used] = np.inf
        if not engine.set_basis(basic, np.zeros(engine.num_cols, dtype=bool)):
            return "iteration_limit"
        phase1_cost = np.zeros(engine.num_cols)
        phase1_cost[num_struct_slack:][art_used] = 1.0
        status = engine.run(phase1_cost, phase1=True)
        if status != "optimal":
            return "iteration_limit" if status in ("iteration_limit", "singular") else status
        if float(phase1_cost @ engine.full_x()) > 1e-6:
            return "infeasible"
        engine.ub[num_struct_slack:] = 0.0
    else:
        if not engine.set_basis(basic, np.zeros(engine.num_cols, dtype=bool)):
            return "iteration_limit"
    return None

