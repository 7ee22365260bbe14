"""Spectral baselines: SC [55], SBC [31] and SCC [12].

All three take a truncated SVD of the bipartite normalisation
A_n = D_U^{-1/2} A D_V^{-1/2} (``sparsela.degree_normalize``).

* **SC** — classic normalized spectral clustering of the *unipartite view*
  (U ∪ V as one graph): top-k eigenvectors of N = D^{-1/2} A D^{-1/2},
  row-normalised, k-means; U labels are read off the U rows.  N is
  [[0, A_n], [A_nᵀ, 0]], so its top eigenpairs are (σ_i, [u_i; v_i]/√2)
  from the singular triplets of A_n (Dhillon, KDD 2001, §4).
* **SBC** — Kluger's spectral biclustering: top-k left singular vectors
  of A_n, k-means.
* **SCC** — Dhillon's co-clustering: ℓ = ⌈log₂ k⌉ singular vector pairs
  of A_n (skipping the trivial first pair), stacked for both sides as
  Z = D^{-1/2}·[U_ℓ ; V_ℓ], k-means over Z, U labels from the U rows.
"""
from __future__ import annotations

import numpy as np

from ..sparsela import SparseCOO, degree_normalize, lloyd, svd_left
from ..synth_data import BipartiteDataset
from .common import adjacency


def _row_unit(X: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(n, 1e-300)


def _svd_triplets(an: SparseCOO, rank: int, *, n_iter: int, seed: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, s and V = A_nᵀU/σ of ``svd_left``'s top-``rank`` pairs."""
    U, s = svd_left(an, rank, n_iter=n_iter, seed=seed)
    return U, s, an.rmatmat(U) / s[None, :]


def sc_eigenpairs(ds: BipartiteDataset, k: int, *, seed: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues (descending) and unit eigenvectors of N, from the
    SVD of A_n (fewer than k if A_n has rank below k).  At 30 steps the
    values are within 1e-4 of ``eigvalsh`` on the CORA, CiteSeer and
    CORA-F/2 stand-ins (1e-3 to 2e-3 at 15)."""
    an, _, _ = degree_normalize(adjacency(ds))
    U, s, V = _svd_triplets(an, k, n_iter=30, seed=seed)
    return s, np.vstack([U, V]) / np.sqrt(2.0)


def sc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    _, V = sc_eigenpairs(ds, k, seed=seed)
    labels = lloyd(_row_unit(V), k, seed=seed)
    return labels[: ds.n_u]


def sbc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    an, _, _ = degree_normalize(adjacency(ds))
    U, _ = svd_left(an, k, n_iter=7, seed=seed)
    return lloyd(_row_unit(U), k, seed=seed)


def scc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    an, su, sv = degree_normalize(adjacency(ds))
    ell = max(1, int(np.ceil(np.log2(max(k, 2)))))
    U, _, V = _svd_triplets(an, ell + 1, n_iter=7, seed=seed)
    # Skip the trivial leading pair, scale back by D^{-1/2} (Dhillon §4).
    zu = su[:, None] * U[:, 1:]
    zv = sv[:, None] * V[:, 1:]
    Z = np.vstack([zu, zv])
    labels = lloyd(Z, k, seed=seed)
    return labels[: ds.n_u]
