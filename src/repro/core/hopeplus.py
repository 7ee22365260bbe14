"""HOPE+ (Algorithms 2 and 3): two-stage optimisation with FNEM/SNEM rounding.

Stage 1 — approximate the k largest eigenvectors L of H Hᵀ without ever
materialising it: compute the HOP low-rank approximation X (shared with
HOPE), then a k-truncated SVD of X.  Because X is |U| x β with small β,
the SVD reduces to an eigen-decomposition of the β x β Gram Xᵀ X
followed by the skinny product L = X · V_k · Σ_k⁻¹  (Lemma 4.3).

Stage 2 — round L into a vertex-cluster-membership-indicator matrix C
(Eq. 10) by alternating updates of a k x k rotation T and C (Alg. 3):

* FNEM: T = Φ Ψᵀ from the SVD of Lᵀ C (orthogonal Procrustes, Lemma 4.4)
* SNEM: T = Lᵀ C (Lemma 4.5)

Both stages are pure numpy: :func:`stage1` maps rows of X to (L, B, σ)
and :func:`rounding` runs Alg. 3 on rows of L and returns T.  The numpy
reference (``core.reference.hopeplus_ref``) runs the same two functions
on all of its own X, so it is the oracle for the embedding only.

The distributed layout: both stages run on the driver over one hashed
sample of the rows of X (``core.hope.hashed_sample``, the sample HOPE's
k-means takes: all of X up to ``SAMPLE_DOUBLES`` doubles).  Each
iteration of Alg. 3 assigns the sampled rows of L to argmax_j (L T)_{i,j}
and sums Lᵀ C and the cluster sizes, O(m·k) flops and no Spark job.  The
only Spark pass after the embedding is the lazy final assignment
``(id, cluster)`` of every row of X, from the ``linalg.argmax_assign``
kernel HOPE's k-means assigns with: L T is X (B T) with the β x k map
B = V_k Σ_k⁻¹ of stage 1.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from ..linalg import argmax_assign
from ..sparsela import ritz
from .hope import check_rank, hashed_sample, hop_embedding


def stage1(xs: np.ndarray, k: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k left singular vectors of the skinny rows ``xs`` of X via the
    Gram trick: eigh(XᵀX) -> V, σ²; B = V_k diag(1/σ_k); L = X B.
    Returns L, B and σ.

    Each column of L, and of B with it, is flipped so its
    largest-magnitude entry is positive: eigenvector signs are arbitrary,
    but the greedy argmax seeding of the rounding stage (Lines 6-10 of
    Alg. 2) needs the Perron-like leading eigenvector of X Xᵀ (a
    non-negative matrix) oriented non-negatively, else the seeding
    collapses.
    """
    w, V = ritz(xs.T @ xs, k)
    s = np.sqrt(np.maximum(w, 1e-300))
    B = V / s[None, :]
    L = xs @ B
    flip = np.sign(L[np.abs(L).argmax(axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    return L * flip, B * flip, s


def truncated_svd_of_skinny(x: DataFrame, beta: int, k: int, *,
                            seed: int = 0
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`stage1` on the driver over ``hashed_sample(x)``: the sampled
    rows of L, B and σ (of the sample, so of X when the sample is all of
    X)."""
    return stage1(hashed_sample(x, k, beta, seed=seed), k)


def _rounding_step(l: np.ndarray, t: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """One step of Algorithm 3: assign every row of L to argmax_j
    (L T)_{i,j} (T = I is the greedy seeding), and return the raw
    per-cluster L-row sums S (k x k, column j = Σ_{i∈C_j} L_i) together
    with the cluster sizes."""
    k = t.shape[1]
    cl = (l @ t).argmax(axis=1)
    return l.T @ np.eye(k)[cl], np.bincount(cl, minlength=k)


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


def update_rule(urt: str):
    """Alg. 3's T update named ``urt``; ``ValueError`` for another name."""
    rules = {"fnem": fnem_update, "snem": snem_update}
    if urt not in rules:
        raise ValueError(f"urt must be one of {sorted(rules)}, got {urt!r}")
    return rules[urt]


def rounding(l: np.ndarray, k: int, *, urt: str, t_max: int
             ) -> np.ndarray:
    """Stage 2 (Alg. 3) on the rows of L: the k x k rotation T whose
    argmax_j (L T)_{i,j} labels them ('fnem' | 'snem' update rule).

    Each iteration both applies the current rotation T (greedy seeding
    when T = I) and aggregates the statistics for the next T.
    Convergence: C is a deterministic function of T, and T of
    (S, sizes), so if the aggregated (S, sizes) repeats, C has converged
    (or entered a cycle of boundary vertices — SNEM can oscillate forever
    on a handful of rows, at which point iterating has no metric effect).
    """
    update = update_rule(urt)
    t = np.eye(k)  # greedy seeding first: L·I is exactly L
    history: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(t_max + 1):
        s_raw, sizes = _rounding_step(l, t)
        if any(np.allclose(s_raw, s0, rtol=1e-12, atol=1e-12)
               and np.array_equal(sizes, z0) for s0, z0 in history):
            break
        history = (history + [(s_raw, sizes)])[-6:]
        t = update(_lt_c_from_raw(s_raw, sizes))
    return t


def hopeplus(edges: DataFrame, k: int, *, alpha: float = 0.3,
             beta: int | None = None, urt: str = "snem", t_max: int = 100,
             seed: int = 42, svd_iter: int = 6) -> DataFrame:
    """HOPE+ (Algorithm 2).  ``urt`` selects the rounding rule
    ('fnem' | 'snem'; any other is refused before the embedding).  Returns
    ``(id, cluster)`` over the u ids.  Raises ``ValueError`` when k
    exceeds the embedding rank min(beta, rank of Q), which |U| and |V|
    both bound."""
    update_rule(urt)
    beta = beta or 5 * k
    x, sigma = hop_embedding(edges, alpha=alpha, beta=beta, seed=seed,
                             n_iter=svd_iter)
    check_rank(k, sigma, beta)
    l, b, _ = truncated_svd_of_skinny(x, len(sigma), k, seed=seed)
    return argmax_assign(x, b @ rounding(l, k, urt=urt, t_max=t_max),
                         np.zeros(k))
