"""A minimal CSR sparse matrix for the LP/MILP core.

SQPR models are extremely sparse: each constraint row touches a handful of
the thousands of d/x/y/z/p columns (the acyclicity rows have three non-zeros,
the availability rows ``O(num_hosts)``).  Lowering them to dense ``ndarray``
rows makes both memory and per-iteration solver cost quadratic in model
size, which is exactly the bottleneck the fig. 5 scalability experiments
expose.  This module provides the small, dependency-free CSR container the
:mod:`repro.milp.standard_form` lowering and the revised simplex operate on.

Only the operations the solver stack needs are implemented:

* ``matvec`` / ``rmatvec`` — ``A @ x`` and ``y @ A`` via ``np.bincount``
  (no Python-level loops),
* ``column`` — the (rows, values) of one column, backed by a lazily built
  CSC twin, used to price the entering column in the revised simplex,
* ``vstack`` / ``toarray`` / ``tocsr_arrays`` — assembly and export helpers
  (``tocsr_arrays`` feeds ``scipy.sparse.csr_matrix`` without a copy).

``shape`` and ``size`` mimic ``numpy.ndarray`` so existing callers that only
probe dimensions (``form.a_ub.shape``, ``form.a_ub.size``) keep working.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


class CsrMatrix:
    """An immutable sparse matrix in compressed-sparse-row layout."""

    __slots__ = ("data", "indices", "indptr", "shape", "_csc", "_row_ids")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.indptr) != self.shape[0] + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} does not match {self.shape[0]} rows"
            )
        self._csc = None
        self._row_ids = None

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[Sequence[int], Sequence[float]]], num_cols: int) -> "CsrMatrix":
        """Build from per-row ``(column_indices, values)`` pairs."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        cols: List[Sequence[int]] = []
        vals: List[Sequence[float]] = []
        for i, (row_cols, row_vals) in enumerate(rows):
            indptr[i + 1] = indptr[i] + len(row_cols)
            cols.append(row_cols)
            vals.append(row_vals)
        indices = (
            np.concatenate([np.asarray(c, dtype=np.int64) for c in cols])
            if cols and indptr[-1]
            else np.zeros(0, dtype=np.int64)
        )
        data = (
            np.concatenate([np.asarray(v, dtype=float) for v in vals])
            if vals and indptr[-1]
            else np.zeros(0)
        )
        return cls(data, indices, indptr, (len(rows), num_cols))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=float)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = dense != 0.0
        counts = mask.sum(axis=1)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        row_ids, col_ids = np.nonzero(mask)
        return cls(dense[row_ids, col_ids], col_ids, indptr, dense.shape)

    @classmethod
    def empty(cls, num_cols: int) -> "CsrMatrix":
        """A matrix with zero rows (used for absent constraint blocks)."""
        return cls(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), (0, num_cols))

    @staticmethod
    def vstack(blocks: Iterable["CsrMatrix"]) -> "CsrMatrix":
        """Stack matrices with equal column counts vertically."""
        blocks = list(blocks)
        if not blocks:
            raise ValueError("vstack needs at least one block")
        num_cols = blocks[0].shape[1]
        for b in blocks:
            if b.shape[1] != num_cols:
                raise ValueError("vstack requires equal column counts")
        data = np.concatenate([b.data for b in blocks]) if blocks else np.zeros(0)
        indices = np.concatenate([b.indices for b in blocks])
        indptr = [np.zeros(1, dtype=np.int64)]
        offset = 0
        for b in blocks:
            indptr.append(b.indptr[1:] + offset)
            offset += b.indptr[-1]
        return CsrMatrix(
            data, indices, np.concatenate(indptr), (sum(b.shape[0] for b in blocks), num_cols)
        )

    # --------------------------------------------------------------- properties
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return len(self.data)

    @property
    def size(self) -> int:
        """Logical element count ``rows * cols`` (``ndarray``-compatible)."""
        return self.shape[0] * self.shape[1]

    @property
    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry (cached; used by matvec)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_ids

    # --------------------------------------------------------------- operations
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` as a dense vector of length ``rows``."""
        if self.nnz == 0:
            return np.zeros(self.shape[0])
        contrib = self.data * x[self.indices]
        return np.bincount(self.row_ids, weights=contrib, minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``y @ A`` as a dense vector of length ``cols``."""
        if self.nnz == 0:
            return np.zeros(self.shape[1])
        contrib = self.data * y[self.row_ids]
        return np.bincount(self.indices, weights=contrib, minlength=self.shape[1])

    def _build_csc(self) -> None:
        order = np.argsort(self.indices, kind="stable")
        col_rows = self.row_ids[order]
        col_data = self.data[order]
        col_counts = np.bincount(self.indices, minlength=self.shape[1])
        col_indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(col_counts, out=col_indptr[1:])
        self._csc = (col_data, col_rows, col_indptr)

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_indices, values)`` of column ``j``."""
        if self._csc is None:
            self._build_csc()
        col_data, col_rows, col_indptr = self._csc
        start, end = col_indptr[j], col_indptr[j + 1]
        return col_rows[start:end], col_data[start:end]

    def toarray(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        dense = np.zeros(self.shape)
        if self.nnz:
            dense[self.row_ids, self.indices] = self.data
        return dense

    def tocsr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(data, indices, indptr)`` triple (scipy-compatible)."""
        return self.data, self.indices, self.indptr

    def __repr__(self) -> str:
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"


def as_csr(matrix, num_cols: int) -> CsrMatrix:
    """Coerce ``matrix`` (CsrMatrix, dense array, or empty) to CSR."""
    if isinstance(matrix, CsrMatrix):
        return matrix
    arr = np.asarray(matrix, dtype=float)
    if arr.size == 0:
        return CsrMatrix.empty(num_cols)
    return CsrMatrix.from_dense(arr.reshape(-1, num_cols))
