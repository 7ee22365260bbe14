"""HOPE+ (Algorithms 2 and 3): two-stage optimisation with FNEM/SNEM rounding.

Stage 1 — approximate the k largest eigenvectors L of H Hᵀ without ever
materialising it: compute the HOP low-rank approximation X (shared with
HOPE), then a k-truncated SVD of X.  Because X is |U| x β with small β,
the SVD reduces to an eigen-decomposition of the β x β Gram Xᵀ X
(driver-side numpy) followed by one distributed skinny product
L = X · V_k · Σ_k⁻¹  (Lemma 4.3).

Stage 2 — round L into a vertex-cluster-membership-indicator matrix C
(Eq. 10) by alternating updates of a k x k rotation T and C (Alg. 3):

* FNEM: T = Φ Ψᵀ from the SVD of Lᵀ C (orthogonal Procrustes, Lemma 4.4)
* SNEM: T = Lᵀ C (Lemma 4.5)

The distributed layout: L stays a skinny DataFrame; C is implicit in
the argmax of the rows of L·T plus the 1/sqrt(|C_j|) column scaling.
Each iteration is one fused pass over L on the shared partition fold
(``linalg.fold_partitions``): with T broadcast, every partition assigns
its rows to argmax_j (L T)_{i,j} and emits its partial Lᵀ C sums and
cluster sizes — O(|U|·k) dataflow, no shuffle, O(k²) driver state.  The
seeding (Lines 6-10 of Alg. 2) is the same pass with T = I; only the
final assignment ``(id, cluster)`` is left as a lazy DataFrame, from the
same ``linalg.argmax_assign`` kernel HOPE's k-means assigns with.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from ..linalg import argmax_assign, fold_partitions, gram, matmul_small
from ..linalg.skinny import colwise_maxabs_value
from .hope import check_rank, hop_embedding


def truncated_svd_of_skinny(x: DataFrame, beta: int, k: int
                            ) -> tuple[DataFrame, np.ndarray]:
    """Top-k left singular vectors L of a skinny matrix X via the Gram
    trick: eigh(XᵀX) -> V, σ²; L = X V_k diag(1/σ_k).

    Each column of L is flipped so its largest-magnitude entry is
    positive: eigenvector signs are arbitrary, but the greedy argmax
    seeding of the rounding stage (Lines 6-10 of Alg. 2) needs the
    Perron-like leading eigenvector of X Xᵀ (a non-negative matrix)
    oriented non-negatively, else the seeding collapses.
    """
    G = gram(x, beta)
    w, V = np.linalg.eigh((G + G.T) / 2)
    order = np.argsort(w)[::-1][:k]
    s = np.sqrt(np.maximum(w[order], 1e-300))
    B = V[:, order] / s[None, :]
    flip = np.sign(colwise_maxabs_value(matmul_small(x, B), k))
    flip[flip == 0] = 1.0
    return matmul_small(x, B * flip[None, :]).localCheckpoint(eager=True), s


def _rounding_step(l_df: DataFrame, t: np.ndarray, k: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One fused pass over L: assign every row to argmax_j (L T)_{i,j}
    (T = I is the greedy seeding), and return the raw per-cluster L-row
    sums S (k x k, column j = Σ_{i∈C_j} L_i) together with the cluster
    sizes.

    This is the whole per-iteration dataflow of Algorithm 3 as a single
    narrow job on the partition fold (no shuffle): T is k x k and
    broadcast, each partition accumulates S in rows 0..k-1 and the sizes
    in row k of a (k+1) x k partial, the driver sums the partials.
    """
    bc = l_df.sparkSession.sparkContext.broadcast(
        np.asarray(t, dtype=np.float64))

    def fold(acc, L):
        cl = (L @ bc.value).argmax(axis=1)
        np.add.at(acc[:k].T, cl, L)   # S[:, j] += L rows with cluster j
        acc[k] += np.bincount(cl, minlength=k)
        return acc

    tot = fold_partitions(l_df, fold, (k + 1, k)).sum(axis=0)
    return tot[:k], tot[k]


def _lt_c_from_raw(s_raw: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Lᵀ C with Eq. 10's 1/sqrt(|C_j|) column normalisation."""
    return s_raw / np.sqrt(np.maximum(sizes, 1.0))[None, :]


def fnem_update(ltc: np.ndarray) -> np.ndarray:
    """FNEM rule (Lemma 4.4): T = Φ Ψᵀ from the SVD of Lᵀ C."""
    Phi, _, PsiT = np.linalg.svd(ltc)
    return Phi @ PsiT


def snem_update(ltc: np.ndarray) -> np.ndarray:
    """SNEM rule (Lemma 4.5): T = Lᵀ C."""
    return ltc


def hopeplus(edges: DataFrame, k: int, *, alpha: float = 0.3,
             beta: int | None = None, urt: str = "snem", t_max: int = 100,
             seed: int = 42, svd_iter: int = 6) -> DataFrame:
    """HOPE+ (Algorithm 2).  ``urt`` selects the rounding rule
    ('fnem' | 'snem').  Returns ``(id, cluster)`` over the u ids.  Raises
    ``ValueError`` when k exceeds the embedding rank min(beta, rank of Q),
    which |U| and |V| both bound."""
    if urt not in ("fnem", "snem"):
        raise ValueError(f"urt must be 'fnem' or 'snem', got {urt!r}")
    beta = beta or 5 * k
    x, sigma = hop_embedding(edges, alpha=alpha, beta=beta, seed=seed,
                             n_iter=svd_iter)
    check_rank(k, sigma, beta)
    l_df, _ = truncated_svd_of_skinny(x, len(sigma), k)

    # Stage 2 (Alg. 3).  Each iteration is one narrow Spark pass that
    # both applies the current rotation T (greedy seeding when T = I)
    # and aggregates the statistics for the next T.  Convergence: C is a
    # deterministic function of T, and T of (S, sizes), so if the
    # aggregated (S, sizes) repeats, C has converged (or entered a
    # 2-cycle of boundary vertices — SNEM can oscillate forever on a
    # handful of rows, at which point iterating has no metric effect).
    update = fnem_update if urt == "fnem" else snem_update
    t = np.eye(k)  # greedy seeding first: L·I is exactly L
    history: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(t_max + 1):
        s_raw, sizes = _rounding_step(l_df, t, k)
        if any(np.allclose(s_raw, s0, rtol=1e-12, atol=1e-12)
               and np.array_equal(sizes, z0) for s0, z0 in history):
            break
        history = (history + [(s_raw, sizes)])[-6:]
        t = update(_lt_c_from_raw(s_raw, sizes))
    return argmax_assign(l_df, t, np.zeros(k))
