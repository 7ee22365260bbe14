"""HOPE (Algorithm 1): low-rank HOP approximation + k-Means.

Pipeline (all distributed, per §3 of the paper):

1. β-truncated SVD of Q (distributed randomized subspace iteration) gives
   the top-β left singular vectors U_Q (a skinny DataFrame on V) and
   singular values Σ.
2. X̂ = P · U_Q · diag((1-α) / (1-α·Σ²))  (Eq. 8, via Lemma 3.1).
3. X = row-L2-normalised X̂ — the low-rank approximation of the HOP
   matrix H with the Theorem-3.2 error bound.
4. k-Means over the rows of X (pyspark.ml, the stock Lloyd's the paper
   also calls [24]).

The embedding steps 1–3 are shared with HOPE+ via :func:`hop_embedding`.
"""
from __future__ import annotations

import numpy as np
import pyspark.sql.functions as F
from pyspark.ml.clustering import KMeans
from pyspark.ml.functions import array_to_vector
from pyspark.sql import DataFrame

from ..linalg import matmul_small, row_normalize, svd_topk
from ..linalg.skinny import spgemm
from .graph import p_edges, q_edges, u_ids, v_ids


def hop_embedding(edges: DataFrame, *, alpha: float = 0.3, beta: int = 32,
                  n_iter: int = 6, seed: int = 42
                  ) -> tuple[DataFrame, np.ndarray]:
    """Rows of X (unit-L2, skinny DataFrame keyed by u) and the top-β
    singular values of Q.  Lines 1–4 of Algorithms 1 and 2."""
    q = q_edges(edges)
    uid = u_ids(edges)
    vid = v_ids(edges)
    # Top-β left singular vectors of Q live on V (Q is |V| x |U|).
    U_q, sigma = svd_topk(q, vid, uid, beta, n_iter=n_iter, seed=seed)
    # Lemma 3.1: eigenvalues of sum_λ (1-α) α^λ (QQ^T)^λ are (1-α)/(1-α σ²).
    lam = (1.0 - alpha) / (1.0 - alpha * np.minimum(sigma, 1.0) ** 2)
    p = p_edges(edges)
    x_hat = spgemm(p, U_q)  # P · U_Q, keyed by u
    x_hat = matmul_small(x_hat, np.diag(lam))
    # Every u of the edge list has a row in P, and every column of P is a
    # row of U_Q, so P · U_Q already has a row for every u.
    x = row_normalize(x_hat)
    return x.localCheckpoint(eager=True), sigma


def check_rank(k: int, sigma: np.ndarray, beta: int) -> None:
    """Refuse k above the embedding rank ``len(sigma)`` = min(beta, |U|):
    fewer dimensions than clusters cannot give k clusters."""
    if k > len(sigma):
        raise ValueError(
            f"k={k} exceeds the embedding rank {len(sigma)} "
            f"(min of beta={beta} and |U|): need k <= rank")


def kmeans_assign(x: DataFrame, k: int, *, seed: int = 0,
                  max_iter: int = 50) -> DataFrame:
    """Cluster skinny-matrix rows with pyspark.ml KMeans -> (id, cluster)."""
    feats = x.select("id", array_to_vector("vec").alias("features"))
    model = KMeans(k=k, seed=seed, maxIter=max_iter, featuresCol="features")
    fitted = model.fit(feats)
    return fitted.transform(feats).select(
        "id", F.col("prediction").cast("int").alias("cluster")
    )


def hope(edges: DataFrame, k: int, *, alpha: float = 0.3,
         beta: int | None = None, seed: int = 42,
         svd_iter: int = 6) -> DataFrame:
    """HOPE (Algorithm 1).  Returns the clustering as ``(id, cluster)``
    over the u ids of ``edges``.  ``beta`` defaults to 5k as in §5.1.
    Raises ``ValueError`` when k exceeds the embedding rank min(beta, |U|)."""
    beta = beta or 5 * k
    x, sigma = hop_embedding(edges, alpha=alpha, beta=beta, seed=seed,
                             n_iter=svd_iter)
    check_rank(k, sigma, beta)
    return kmeans_assign(x, k, seed=seed)
