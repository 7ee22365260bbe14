"""NumPy reference implementations of the paper's math.

Used as the exactness oracle for the distributed Spark path on small
graphs, and by unit tests that verify the paper's lemmas numerically:

* exact HOP matrix H via the closed form of Lemma 3.1 (full dense SVD),
* reference HOPE (Alg. 1) and HOPE+ (Algs. 2-3) on the
  :class:`~repro.sparsela.SparseCOO` substrate.  What Spark computes
  differently (P, Q, the SVD, Λ, the row normalisation) is computed here
  independently; HOPE+'s stages 1-2 are the Spark path's own numpy.
"""
from __future__ import annotations

import numpy as np

from ..sparsela import SparseCOO, degree_normalize, lloyd, svd_left
from .hope import check_rank
from .hopeplus import rounding, stage1, update_rule


# -- graph matrices ---------------------------------------------------------

def build_pq(edges_u: np.ndarray, edges_v: np.ndarray, edges_w: np.ndarray,
             n_u: int, n_v: int) -> tuple[SparseCOO, SparseCOO]:
    """(P, Q) from an edge list.  P is |U| x |V| with p(u,v) = w/deg(u);
    Q is |V| x |U| with Q_{v,u} = w / sqrt(deg(u) deg(v)), the transpose
    of the spectral baselines' A_n."""
    A = SparseCOO.from_edges(edges_u, edges_v, edges_w, n_u, n_v)
    deg_u = A.row_sums()
    P = A.scale_rows(np.where(deg_u > 0, 1.0 / np.maximum(deg_u, 1e-300), 0.0))
    return P, degree_normalize(A)[0].T


def exact_hop_matrix(P: SparseCOO, Q: SparseCOO, alpha: float) -> np.ndarray:
    """Exact H (row-normalised F) via Lemma 3.1 with a *full* dense SVD of
    Q — O(|V|²|U|), tiny graphs only."""
    Qd = Q.to_dense()
    U, s, _ = np.linalg.svd(Qd, full_matrices=False)
    lam = (1.0 - alpha) / (1.0 - alpha * np.minimum(s, 1.0) ** 2)
    F = P.to_dense() @ (U * lam[None, :]) @ U.T
    norms = np.linalg.norm(F, axis=1, keepdims=True)
    return F / np.maximum(norms, 1e-300)


def exact_f_series(P: SparseCOO, Q: SparseCOO, alpha: float,
                   n_terms: int = 200) -> np.ndarray:
    """F by direct summation of Eq. (5) — the independent check that the
    Lemma-3.1 closed form actually equals the infinite series."""
    W = Q.to_dense() @ Q.to_dense().T
    Pd = P.to_dense()
    term = Pd.copy()
    F = np.zeros_like(Pd)
    for lam in range(n_terms):
        F += (1.0 - alpha) * alpha ** lam * term
        term = term @ W
    return F


# -- HOPE reference ---------------------------------------------------------

def hop_embedding_ref(P: SparseCOO, Q: SparseCOO, alpha: float, beta: int,
                      *, seed: int = 0, n_iter: int = 8
                      ) -> tuple[np.ndarray, np.ndarray]:
    """X (unit rows, |U| x len(s)) and the top-β non-zero singular values
    s of Q — numpy mirror of :func:`repro.core.hope.hop_embedding`, whose
    ``svd_topk`` iteration ``svd_left`` runs from another start block."""
    U, s = svd_left(Q, beta, n_iter=n_iter, seed=seed)
    lam = (1.0 - alpha) / (1.0 - alpha * np.minimum(s, 1.0) ** 2)
    X_hat = P.matmat(U * lam[None, :])
    norms = np.linalg.norm(X_hat, axis=1, keepdims=True)
    return X_hat / np.maximum(norms, 1e-300), s


def hope_ref(P: SparseCOO, Q: SparseCOO, k: int, *, alpha: float = 0.3,
             beta: int | None = None, seed: int = 0) -> np.ndarray:
    """HOPE on :func:`hop_embedding_ref`'s X with ``sparsela.lloyd``; like
    :func:`~repro.core.hope.hope`, refuses k above the embedding rank."""
    beta = beta or 5 * k
    X, s = hop_embedding_ref(P, Q, alpha, beta, seed=seed)
    check_rank(k, s, beta)
    return lloyd(X, k, seed=seed)


# -- HOPE+ reference --------------------------------------------------------

def hopeplus_ref(P: SparseCOO, Q: SparseCOO, k: int, *, alpha: float = 0.3,
                 beta: int | None = None, urt: str = "snem", seed: int = 0,
                 t_max: int = 100) -> np.ndarray:
    """HOPE+ on :func:`hop_embedding_ref`'s X, with stages 1 and 2 run by
    the Spark path's own numpy (:func:`~repro.core.hopeplus.stage1`,
    :func:`~repro.core.hopeplus.rounding`) on all rows of X.  Like
    :func:`~repro.core.hopeplus.hopeplus`, refuses an unknown ``urt``
    before the SVD and k above the embedding rank."""
    update_rule(urt)
    beta = beta or 5 * k
    X, s = hop_embedding_ref(P, Q, alpha, beta, seed=seed)
    check_rank(k, s, beta)
    L, _, _ = stage1(X, k)
    return (L @ rounding(L, k, urt=urt, t_max=t_max)).argmax(axis=1)
