"""Edge-case and warm-start tests for the sparse revised simplex.

The happy-path behaviour is covered by ``tests/test_milp_solvers.py`` (and
cross-checked against scipy there).  This module drills into the corners
the vectorized rewrite must get right: degeneracy, infeasibility,
unboundedness, fixed variables, bound handling, and — most importantly —
the guarantee that warm-started solves return the same optimum as cold
solves, no matter how bad the supplied basis is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.milp.simplex import SimplexBasis, solve_lp_simplex
from repro.milp.sparse import CsrMatrix, as_csr
from tests.oracles.dense_simplex import solve_lp_dense

NO_UB = (np.zeros((0, 2)), np.zeros(0))
NO_EQ = (np.zeros((0, 2)), np.zeros(0))


class TestCsrMatrix:
    def test_from_dense_round_trip(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 4.0, 0.0]])
        csr = CsrMatrix.from_dense(dense)
        assert csr.shape == (3, 3)
        assert csr.nnz == 4
        assert np.allclose(csr.toarray(), dense)

    def test_matvec_and_rmatvec_match_dense(self):
        rng = np.random.default_rng(7)
        dense = rng.uniform(-2, 2, (5, 8)) * (rng.random((5, 8)) < 0.4)
        csr = CsrMatrix.from_dense(dense)
        x = rng.uniform(-1, 1, 8)
        y = rng.uniform(-1, 1, 5)
        assert np.allclose(csr.matvec(x), dense @ x)
        assert np.allclose(csr.rmatvec(y), y @ dense)

    def test_column_access(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, -1.0]])
        csr = CsrMatrix.from_dense(dense)
        rows, vals = csr.column(1)
        assert list(rows) == [1, 2]
        assert list(vals) == [2.0, -1.0]
        rows0, vals0 = CsrMatrix.empty(2).column(0)
        assert len(rows0) == 0 and len(vals0) == 0

    def test_from_rows_and_vstack(self):
        top = CsrMatrix.from_rows([([0, 2], [1.0, 2.0])], 3)
        bottom = CsrMatrix.from_rows([([1], [5.0]), ([], [])], 3)
        stacked = CsrMatrix.vstack([top, bottom])
        assert stacked.shape == (3, 3)
        assert np.allclose(
            stacked.toarray(), [[1.0, 0.0, 2.0], [0.0, 5.0, 0.0], [0.0, 0.0, 0.0]]
        )

    def test_size_mimics_ndarray(self):
        csr = CsrMatrix.empty(4)
        assert csr.size == 0
        assert as_csr(np.array([[1.0, 0.0]]), 2).size == 2


class TestSimplexEdgeCases:
    def test_degenerate_lp(self):
        # Redundant constraints create degenerate vertices; the solver must
        # still terminate at the optimum.
        c = np.array([-1.0, -1.0])
        a_ub = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        b_ub = np.array([1.0, 1.0, 2.0])
        sol = solve_lp_simplex(c, a_ub, b_ub, *NO_EQ, np.zeros(2), np.full(2, np.inf))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-1.0)

    def test_infeasible_inequalities(self):
        c = np.array([1.0])
        a_ub = np.array([[1.0], [-1.0]])
        b_ub = np.array([1.0, -3.0])  # x <= 1 and x >= 3
        sol = solve_lp_simplex(
            c, a_ub, b_ub, np.zeros((0, 1)), np.zeros(0), np.zeros(1), np.array([np.inf])
        )
        assert sol.status == "infeasible"

    def test_infeasible_equalities(self):
        c = np.array([0.0, 0.0])
        a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
        b_eq = np.array([1.0, 2.0])  # x+y == 1 and x+y == 2
        sol = solve_lp_simplex(c, *NO_UB, a_eq, b_eq, np.zeros(2), np.full(2, np.inf))
        assert sol.status == "infeasible"

    def test_infeasible_through_bounds(self):
        c = np.array([0.0, 0.0])
        a_eq = np.array([[1.0, 1.0]])
        b_eq = np.array([10.0])  # unreachable with x, y <= 2
        sol = solve_lp_simplex(c, *NO_UB, a_eq, b_eq, np.zeros(2), np.array([2.0, 2.0]))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        c = np.array([-1.0, 0.0])
        a_ub = np.array([[0.0, 1.0]])
        b_ub = np.array([5.0])
        sol = solve_lp_simplex(
            c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0), np.zeros(2), np.full(2, np.inf)
        )
        assert sol.status == "unbounded"

    def test_fixed_variables(self):
        # lb == ub variables must never pivot; the optimum is forced.
        c = np.array([1.0, 1.0])
        a_ub = np.array([[-1.0, -1.0]])
        b_ub = np.array([-3.0])  # x + y >= 3
        lower = np.array([2.0, 0.0])
        upper = np.array([2.0, np.inf])  # x fixed at 2
        sol = solve_lp_simplex(c, a_ub, b_ub, *NO_EQ, lower, upper)
        assert sol.is_optimal
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(3.0)

    def test_negative_lower_bounds(self):
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, -1.0]])
        b_eq = np.array([1.0])
        lower = np.array([-5.0, -5.0])
        upper = np.array([5.0, 5.0])
        sol = solve_lp_simplex(c, *NO_UB, a_eq, b_eq, lower, upper)
        assert sol.is_optimal
        # x - y == 1 with min x + y  ->  x = -4, y = -5.
        assert sol.objective == pytest.approx(-9.0)

    def test_infinite_lower_bound_rejected(self):
        c = np.array([1.0])
        with pytest.raises(ValueError):
            solve_lp_simplex(
                c,
                np.zeros((0, 1)),
                np.zeros(0),
                np.zeros((0, 1)),
                np.zeros(0),
                np.array([-np.inf]),
                np.array([np.inf]),
            )

    def test_accepts_csr_inputs(self):
        c = np.array([-3.0, -2.0])
        a_ub = CsrMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
        sol = solve_lp_simplex(
            c, a_ub, np.array([4.0, 2.0]), CsrMatrix.empty(2), np.zeros(0),
            np.zeros(2), np.full(2, np.inf),
        )
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-10.0)

    def test_matches_dense_reference_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            c = rng.uniform(-4, 4, n)
            a_ub = rng.uniform(-2, 3, (m, n))
            b_ub = rng.uniform(1, 8, m)
            lower = np.zeros(n)
            upper = rng.uniform(1, 6, n)
            sparse = solve_lp_simplex(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
            dense = solve_lp_dense(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
            assert sparse.status == dense.status
            if sparse.is_optimal:
                assert sparse.objective == pytest.approx(dense.objective, rel=1e-6, abs=1e-6)


def _branchy_lp():
    """A small LP whose re-solves with tightened bounds mimic B&B children."""
    c = np.array([-5.0, -4.0, -3.0])
    a_ub = np.array([[2.0, 3.0, 1.0], [4.0, 1.0, 2.0], [3.0, 4.0, 2.0]])
    b_ub = np.array([5.0, 11.0, 8.0])
    lower = np.zeros(3)
    upper = np.full(3, 10.0)
    return c, a_ub, b_ub, np.zeros((0, 3)), np.zeros(0), lower, upper


class TestWarmStart:
    def test_warm_start_returns_basis(self):
        sol = solve_lp_simplex(*_branchy_lp())
        assert sol.is_optimal
        assert sol.basis is not None
        assert isinstance(sol.basis, SimplexBasis)

    def test_warm_equals_cold_after_bound_tightening(self):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _branchy_lp()
        parent = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        for j in range(3):
            for tightened in ("down", "up"):
                lo, up = lower.copy(), upper.copy()
                if tightened == "down":
                    up[j] = 0.0
                else:
                    lo[j] = 1.0
                cold = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lo, up)
                warm = solve_lp_simplex(
                    c, a_ub, b_ub, a_eq, b_eq, lo, up, warm_basis=parent.basis
                )
                assert warm.status == cold.status
                if cold.is_optimal:
                    assert warm.objective == pytest.approx(cold.objective, abs=1e-7)

    def test_warm_start_skips_phase_one_when_feasible(self):
        args = _branchy_lp()
        parent = solve_lp_simplex(*args)
        resolved = solve_lp_simplex(*args, warm_basis=parent.basis)
        assert resolved.is_optimal
        assert resolved.objective == pytest.approx(parent.objective)
        # Re-solving from the optimal basis needs only the optimality check.
        assert resolved.iterations <= parent.iterations

    def test_garbage_warm_basis_degrades_to_cold(self):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _branchy_lp()
        cold = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        num_cols = len(cold.basis.at_upper)
        garbage = [
            SimplexBasis(np.array([0, 0, 0]), np.zeros(num_cols, dtype=bool)),  # singular
            SimplexBasis(np.array([99, 100, 101]), np.zeros(num_cols, dtype=bool)),  # range
            SimplexBasis(np.array([0]), np.zeros(num_cols, dtype=bool)),  # wrong m
            SimplexBasis(np.array([0, 1, 2]), np.zeros(3, dtype=bool)),  # wrong width
        ]
        for basis in garbage:
            warm = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper, warm_basis=basis)
            assert warm.is_optimal
            assert warm.objective == pytest.approx(cold.objective)

    def test_warm_start_on_infeasible_child(self):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = _branchy_lp()
        parent = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        lo = lower.copy()
        lo[:] = 2.0  # 2*2 + 3*2 + 2 > 5: infeasible
        warm = solve_lp_simplex(c, a_ub, b_ub, a_eq, b_eq, lo, upper, warm_basis=parent.basis)
        assert warm.status == "infeasible"
