"""Randomized truncated SVD / symmetric eigensolver over ``SparseCOO``.

Halko–Martinsson–Tropp randomized subspace iteration.  Used by the numpy
baselines (SC / SBC / SCC / LE / PPR sketches) and as the reference
implementation that the distributed Spark SVD is tested against.
"""
from __future__ import annotations

import numpy as np

from .coo import SparseCOO


def _orth(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the columns of Y via reduced QR."""
    q, _ = np.linalg.qr(Y)
    return q


def randomized_svd(a: SparseCOO, rank: int, *, n_iter: int = 7,
                   oversample: int = 8, seed: int = 0
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``rank`` SVD of a sparse matrix: returns (U, s, Vt).

    Subspace iteration on A A^T with re-orthonormalisation each step, then
    a small exact SVD of the projected matrix B = Q^T A.
    """
    n, m = a.shape
    r = min(rank + oversample, min(n, m))
    rng = np.random.default_rng(seed)
    Q = _orth(a.matmat(rng.standard_normal((m, r))))
    for _ in range(n_iter):
        Q = _orth(a.matmat(_orth(a.rmatmat(Q))))
    B = a.rmatmat(Q).T  # r x m
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return U[:, :rank], s[:rank], Vt[:rank]


def eigsh_sym(a: SparseCOO, rank: int, *, n_iter: int = 25,
              oversample: int = 8, seed: int = 0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` eigenpairs of a symmetric sparse matrix:
    :func:`matfree_eigsh` over its matvec."""
    return matfree_eigsh(a.matvec, a.shape[0], rank, n_iter=n_iter,
                         oversample=oversample, seed=seed)


def matfree_eigsh(matvec, n: int, rank: int, *, n_iter: int = 30,
                  oversample: int = 8, seed: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` algebraically-largest eigenpairs of a symmetric n x n
    matrix given only by its matvec (e.g. the modularity matrix
    B = A - d d^T / 2m, never materialised), via randomized subspace
    iteration + Rayleigh–Ritz.

    For matrices whose spectrum may contain negative eigenvalues of large
    magnitude (e.g. modularity matrices) the caller should shift the
    matrix; here we assume the dominant eigenvalues are the wanted ones.
    """
    rng = np.random.default_rng(seed)
    r = min(rank + oversample, n)
    Q = _orth(rng.standard_normal((n, r)))

    def mm(X):
        return np.column_stack([matvec(X[:, j]) for j in range(X.shape[1])])

    for _ in range(n_iter):
        Q = _orth(mm(Q))
    T = Q.T @ mm(Q)
    w, W = np.linalg.eigh((T + T.T) / 2)
    order = np.argsort(w)[::-1]
    w, W = w[order], W[:, order]
    return w[:rank], (Q @ W)[:, :rank]
