"""Spectral baselines: SC [55], SBC [31] and SCC [12].

* **SC** — classic normalized spectral clustering of the *unipartite view*
  (U ∪ V as one graph): top-k eigenvectors of N = D^{-1/2} A D^{-1/2},
  row-normalised, k-means; U labels are read off the U rows.
* **SBC** — Kluger's spectral biclustering: the bipartite normalisation
  A_n = D_U^{-1/2} A D_V^{-1/2}, top-k left singular vectors, k-means.
* **SCC** — Dhillon's co-clustering: ℓ = ⌈log₂ k⌉ singular vector pairs
  of A_n (skipping the trivial first pair), stacked for both sides as
  Z = D^{-1/2}·[U_ℓ ; V_ℓ], k-means over Z, U labels from the U rows.
"""
from __future__ import annotations

import numpy as np

from ..sparsela import SparseCOO, lloyd, subspace_eigh, svd_left
from ..synth_data import BipartiteDataset
from .common import adjacency, unipartite


def _safe_inv_sqrt(d: np.ndarray) -> np.ndarray:
    return np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1e-300)), 0.0)


def _row_unit(X: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(n, 1e-300)


def sc_eigenpairs(ds: BipartiteDataset, k: int, *, seed: int = 0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenvalues (descending) and eigenvectors of N, from N + I:
    a bipartite N has a ± symmetric spectrum, and subspace iteration finds
    the largest magnitudes.  At 150 steps the values are within 4e-5 of
    ``eigvalsh`` on the CORA and CiteSeer stand-ins (0.016-0.021 at 25)."""
    a = unipartite(ds)
    s = _safe_inv_sqrt(a.row_sums())
    n_mat = a.scale_rows(s).scale_cols(s)
    w, V = subspace_eigh(lambda y: n_mat.matmat(y) + y, n_mat.shape[0], k,
                         n_iter=150, seed=seed)
    return w - 1.0, V


def sc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    _, V = sc_eigenpairs(ds, k, seed=seed)
    labels = lloyd(_row_unit(V), k, seed=seed)
    return labels[: ds.n_u]


def _normalized_biadjacency(ds: BipartiteDataset) -> tuple[SparseCOO, np.ndarray, np.ndarray]:
    a = adjacency(ds)
    su = _safe_inv_sqrt(a.row_sums())
    sv = _safe_inv_sqrt(a.col_sums())
    return a.scale_rows(su).scale_cols(sv), su, sv


def sbc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    an, _, _ = _normalized_biadjacency(ds)
    U, _ = svd_left(an, k, n_iter=7, seed=seed)
    return lloyd(_row_unit(U), k, seed=seed)


def scc_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    an, su, sv = _normalized_biadjacency(ds)
    ell = max(1, int(np.ceil(np.log2(max(k, 2)))))
    U, s = svd_left(an, ell + 1, n_iter=7, seed=seed)
    V = an.rmatmat(U) / s[None, :]
    # Skip the trivial leading pair, scale back by D^{-1/2} (Dhillon §4).
    zu = su[:, None] * U[:, 1:]
    zv = sv[:, None] * V[:, 1:]
    Z = np.vstack([zu, zv])
    labels = lloyd(Z, k, seed=seed)
    return labels[: ds.n_u]
