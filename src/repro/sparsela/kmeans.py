"""Dense k-means (Lloyd's algorithm with k-means++ seeding), numpy only.

Shared by the spectral/embedding baselines, the numpy reference
implementation of HOPE and the distributed HOPE, which runs it on the
driver over the rows of X (``core.hope.kmeans_assign``).
"""
from __future__ import annotations

import numpy as np


def kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = X[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def lloyd(X: np.ndarray, k: int, *, n_iter: int = 100, seed: int = 0,
          n_init: int = 3, weights: np.ndarray | None = None) -> np.ndarray:
    """Cluster the rows of ``X`` into ``k`` groups; returns labels.

    Runs ``n_init`` restarts and keeps the assignment with the lowest
    within-cluster sum of squares.  ``weights`` (optional, per-row) makes
    this usable for Birch's weighted-centroid refinement step.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k >= n:
        return np.arange(n) % k
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    best_labels, best_cost = None, np.inf
    x_sq = (X ** 2).sum(axis=1)
    for trial in range(n_init):
        rng = np.random.default_rng(seed + trial)
        C = kmeans_pp_init(X, k, rng)
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(n_iter):
            # distances via the expansion ||x||^2 - 2 x.c + ||c||^2
            d = x_sq[:, None] - 2 * X @ C.T + (C ** 2).sum(axis=1)[None, :]
            new_labels = d.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for j in range(k):
                mask = labels == j
                if mask.any():
                    C[j] = np.average(X[mask], axis=0, weights=w[mask])
                else:  # re-seed empty cluster at the farthest point
                    C[j] = X[d.min(axis=1).argmax()]
        cost = float((w * d[np.arange(n), labels]).sum())
        if cost < best_cost:
            best_cost, best_labels = cost, labels.copy()
    return best_labels
