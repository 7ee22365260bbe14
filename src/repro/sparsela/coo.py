"""Minimal sparse-matrix substrate built on numpy (scipy is unavailable).

``SparseCOO`` stores a sparse matrix as coordinate arrays and supports the
handful of kernels the baseline algorithms need: mat-vec, mat-mat against
a skinny dense matrix, transpose products, row/column sums.  Products are
implemented with ``np.bincount`` (vectorised scatter-add), which is fast
enough for the scales in this reproduction (up to a few million nonzeros).
"""
from __future__ import annotations

import numpy as np


class SparseCOO:
    """Sparse ``n_rows x n_cols`` matrix in COO form (duplicate-free)."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]):
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.data)):
            raise ValueError("rows/cols/data length mismatch")
        self.shape = (int(shape[0]), int(shape[1]))
        if len(self.rows) and (self.rows.max() >= self.shape[0]
                               or self.cols.max() >= self.shape[1]):
            raise ValueError("index out of declared shape")

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_edges(cls, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                   n_rows: int, n_cols: int) -> "SparseCOO":
        """Build from an edge list, summing duplicate (u, v) entries."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        key = u * n_cols + v
        uniq, inv = np.unique(key, return_inverse=True)
        data = np.bincount(inv, weights=np.asarray(w, dtype=np.float64))
        return cls(uniq // n_cols, uniq % n_cols, data, (n_rows, n_cols))

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def T(self) -> "SparseCOO":
        return SparseCOO(self.cols, self.rows, self.data,
                         (self.shape[1], self.shape[0]))

    # -- kernels ------------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x."""
        x = np.asarray(x, dtype=np.float64)
        return np.bincount(self.rows, weights=self.data * x[self.cols],
                           minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """x = A^T y."""
        y = np.asarray(y, dtype=np.float64)
        return np.bincount(self.cols, weights=self.data * y[self.rows],
                           minlength=self.shape[1])

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Y = A X for skinny dense X (loops over the few columns of X)."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((self.shape[0], X.shape[1]))
        for j in range(X.shape[1]):
            out[:, j] = self.matvec(X[:, j])
        return out

    def rmatmat(self, Y: np.ndarray) -> np.ndarray:
        """X = A^T Y for skinny dense Y."""
        Y = np.asarray(Y, dtype=np.float64)
        out = np.empty((self.shape[1], Y.shape[1]))
        for j in range(Y.shape[1]):
            out[:, j] = self.rmatvec(Y[:, j])
        return out

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data,
                           minlength=self.shape[0])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.cols, weights=self.data,
                           minlength=self.shape[1])

    def scale_rows(self, s: np.ndarray) -> "SparseCOO":
        """diag(s) @ A."""
        return SparseCOO(self.rows, self.cols,
                         self.data * np.asarray(s)[self.rows], self.shape)

    def scale_cols(self, s: np.ndarray) -> "SparseCOO":
        """A @ diag(s)."""
        return SparseCOO(self.rows, self.cols,
                         self.data * np.asarray(s)[self.cols], self.shape)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.data)
        return out

    def row_norms(self) -> np.ndarray:
        """L2 norm of every row."""
        sq = np.bincount(self.rows, weights=self.data ** 2,
                         minlength=self.shape[0])
        return np.sqrt(sq)


def degree_normalize(a: SparseCOO) -> tuple[SparseCOO, np.ndarray, np.ndarray]:
    """A_n = D_rows^{-1/2} A D_cols^{-1/2} and the two scalings
    D_rows^{-1/2}, D_cols^{-1/2}, which are 0 for an empty row or column.

    On a bi-adjacency A this is the matrix whose SVD the spectral
    baselines share, and its transpose is the reference's Q."""
    su, sv = (np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)
              for d in (a.row_sums(), a.col_sums()))
    return a.scale_rows(su).scale_cols(sv), su, sv
