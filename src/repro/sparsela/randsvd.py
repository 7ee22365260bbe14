"""Randomized subspace iteration and Rayleigh–Ritz, numpy only.

Halko–Martinsson–Tropp subspace iteration (SIAM Review 2011, Alg. 4.4).
``subspace_eigh`` is the one numpy loop: LE runs it on a symmetric
operator, and ``svd_left`` runs it on A Aᵀ for the reference HOP
embedding, SC, SBC and SCC.  That is the iteration of the
distributed ``linalg.svd_topk`` (Q <- orth(A Aᵀ Q), then Rayleigh–Ritz),
with a numpy start block in place of the hashed one.  ``ritz`` is the one
Rayleigh–Ritz step, which ``svd_topk`` and HOPE+'s stage 1 share.
"""
from __future__ import annotations

import numpy as np

from .coo import SparseCOO

#: Columns the subspace block carries beyond the wanted rank.
OVERSAMPLE = 8


def ritz(m: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` eigenpairs of the symmetric part of ``m``, eigenvalues
    in descending order."""
    w, W = np.linalg.eigh((m + m.T) / 2)
    order = np.argsort(w)[::-1][:rank]
    return w[order], W[:, order]


def subspace_eigh(mm, n: int, rank: int, *, n_iter: int, seed: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` eigenpairs (descending) of a symmetric n x n matrix M
    given only by its block product ``mm(Y) = M Y``.

    The block, min(rank + OVERSAMPLE, n) columns wide, starts from a
    Gaussian drawn from ``seed``; each of the ``n_iter`` steps is
    Q <- qr(M Q), and Rayleigh–Ritz on Qᵀ M Q ends the loop.  The block
    converges to the eigenvalues of largest magnitude, so a caller that
    wants the algebraically largest ones of an indefinite M shifts it.
    """
    r = min(rank + OVERSAMPLE, n)
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, r)))[0]
    for _ in range(n_iter):
        q = np.linalg.qr(mm(q))[0]
    w, W = ritz(q.T @ mm(q), rank)
    return w, q @ W


def svd_left(a: SparseCOO, rank: int, *, n_iter: int, seed: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Top-``rank`` left singular vectors U and singular values s
    (descending) of a sparse A, by :func:`subspace_eigh` on A Aᵀ.

    As in ``svd_topk``, Ritz values at rounding level belong to the null
    space of A, not its range, and are dropped: ``len(s)`` is
    min(rank, numerical rank of A).
    """
    n = a.shape[0]
    w, U = subspace_eigh(lambda y: a.matmat(a.rmatmat(y)), n, rank,
                         n_iter=n_iter, seed=seed)
    keep = w > min(rank + OVERSAMPLE, n) * np.finfo(np.float64).eps * w[0]
    return U[:, keep], np.sqrt(w[keep])
