"""HOPE (Algorithm 1): low-rank HOP approximation + k-Means.

Pipeline (all distributed, per §3 of the paper):

1. β-truncated SVD of Q (distributed randomized subspace iteration) gives
   the top-β left singular vectors U_Q (a skinny DataFrame on V) and
   singular values Σ.
2. X̂ = P · U_Q · diag((1-α) / (1-α·Σ²))  (Eq. 8, via Lemma 3.1).
3. X = row-L2-normalised X̂ — the low-rank approximation of the HOP
   matrix H with the Theorem-3.2 error bound.
4. k-Means over the rows of X: Lloyd's with k-means++ seeding
   (``sparsela.lloyd``, the stock k-Means [24] the paper calls, as in
   ``hope_ref``) on the driver over :func:`hashed_sample` of X (all of X
   up to ``SAMPLE_DOUBLES`` doubles, a hashed uniform sample of its rows
   beyond); then every row goes to its nearest centre on Spark.

The embedding steps 1–3 are shared with HOPE+ via :func:`hop_embedding`.
"""
from __future__ import annotations

import numpy as np
import pyspark.sql.functions as F
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegralType, NumericType

from ..linalg import argmax_assign, matmul_small, row_normalize, svd_topk
from ..linalg.skinny import spgemm
from ..sparsela import lloyd
from .graph import p_edges, q_edges, u_ids, v_ids


def hop_embedding(edges: DataFrame, *, alpha: float = 0.3, beta: int = 32,
                  n_iter: int = 6, seed: int = 42
                  ) -> tuple[DataFrame, np.ndarray]:
    """Rows of X (unit-L2, skinny DataFrame keyed by u) and the top-β
    non-zero singular values of Q.  Lines 1–4 of Algorithms 1 and 2.

    Raises ``ValueError`` if a column ``u``, ``v`` or ``w`` is missing or
    of the wrong type (``u`` and ``v`` integers, ``w`` numeric), or if a
    weight ``w`` is negative, NaN or null.  Edges of weight 0 are
    dropped, so a u whose weights are all 0 gets no row; duplicate
    (u, v) pairs add up, as ``spgemm`` sums them."""
    check_schema(edges)
    w = F.col("w")
    if not edges.where(w.isNull() | F.isnan(w) | (w < 0)).isEmpty():
        raise ValueError("edge weights w must be non-negative numbers; "
                         "found a negative, NaN or null w")
    edges = edges.where(w > 0)
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


def check_schema(edges: DataFrame) -> None:
    """Refuse an edge list without integer ``u``, ``v`` and a numeric
    ``w``; reads ``edges.schema`` only, so it runs no Spark job."""
    types = {f.name: f.dataType for f in edges.schema.fields}
    for col, kind, what in (("u", IntegralType, "an integer"),
                            ("v", IntegralType, "an integer"),
                            ("w", NumericType, "a numeric")):
        if col not in types:
            raise ValueError(f"edges lack column {col!r}; "
                             f"need columns u, v, w, got {list(types)}")
        if not isinstance(types[col], kind):
            raise ValueError(f"edge column {col!r} must be {what} type, "
                             f"got {types[col].simpleString()}")


def check_rank(k: int, sigma: np.ndarray, beta: int) -> None:
    """Refuse k above the embedding rank ``len(sigma)`` = min(beta, rank
    of Q): fewer dimensions than clusters cannot give k clusters."""
    if k > len(sigma):
        raise ValueError(
            f"k={k} exceeds the embedding rank {len(sigma)} "
            f"(min of beta={beta} and the rank of Q): need k <= rank")


#: Doubles of X that HOPE's k-means and HOPE+'s stages 1-2 take to the
#: driver (64 MB): every Table-2 stand-in at sf 1 fits whole (LastFM,
#: 18K x 240, is 4.3M).
SAMPLE_DOUBLES = 2 ** 23


def hashed_sample(x: DataFrame, k: int, width: int, *, seed: int = 0
                  ) -> np.ndarray:
    """The first m = max(k, SAMPLE_DOUBLES // width) rows of a skinny
    matrix ``width`` columns wide, in ``xxhash64(id, seed), id`` order,
    stacked on the driver in one job: all rows when they fit, else a
    uniform hashed sample.  The order, and so every sum over the rows,
    does not depend on the partitioning of ``x``."""
    m = max(k, SAMPLE_DOUBLES // width)
    sample = x.orderBy(F.xxhash64("id", F.lit(seed)), "id").limit(m)
    return np.vstack(sample.toPandas()["vec"].to_numpy())


def kmeans_assign(x: DataFrame, k: int, width: int, *, seed: int = 0
                  ) -> DataFrame:
    """k-Means over the rows of a skinny matrix ``width`` columns wide ->
    ``(id, cluster)``.

    Lloyd's runs on the driver over :func:`hashed_sample` of ``x``, and
    every row of ``x`` goes, lazily, to its nearest centre,
    argmax_j (x·c_j − ½‖c_j‖²).  A centre left without rows takes none.
    """
    xs = hashed_sample(x, k, width, seed=seed)
    labels = lloyd(xs, k, seed=seed)
    sizes = np.bincount(labels, minlength=k)
    centres = np.zeros((k, width))
    np.add.at(centres, labels, xs)
    centres /= np.maximum(sizes, 1)[:, None]
    bias = np.where(sizes > 0, -0.5 * (centres ** 2).sum(axis=1), -np.inf)
    return argmax_assign(x, centres.T, bias)


def hope(edges: DataFrame, k: int, *, alpha: float = 0.3,
         beta: int | None = None, seed: int = 42,
         svd_iter: int = 6) -> DataFrame:
    """HOPE (Algorithm 1).  Returns the clustering as ``(id, cluster)``
    over the u ids of ``edges``.  ``beta`` defaults to 5k as in §5.1.
    Raises ``ValueError`` when k exceeds the embedding rank min(beta, rank
    of Q), which |U| and |V| both bound."""
    beta = beta or 5 * k
    x, sigma = hop_embedding(edges, alpha=alpha, beta=beta, seed=seed,
                             n_iter=svd_iter)
    check_rank(k, sigma, beta)
    return kmeans_assign(x, k, len(sigma), seed=seed)
