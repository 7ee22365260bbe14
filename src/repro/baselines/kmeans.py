"""K-Means baseline [24]: Lloyd's directly on the rows of the weighted
bi-adjacency matrix (each u is a |V|-dimensional sparse feature vector).

Distances use the expansion ||x - c||² = ||x||² - 2 x·c + ||c||², so the
sparse matrix is only ever multiplied against the k dense centroids —
O(|E|·k) per iteration, never densified.  A cluster that empties keeps
the origin as its centroid.
"""
from __future__ import annotations

import numpy as np

from ..synth_data import BipartiteDataset
from .common import adjacency, cluster_sums


def kmeans_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0,
                    n_iter: int = 50) -> np.ndarray:
    a = adjacency(ds)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    x_sq = np.bincount(a.rows, weights=a.data ** 2, minlength=n)

    # Start from a uniform random partition, not from k-means++ seeds.
    labels = rng.integers(0, k, n)
    C = cluster_sums(a, labels, k)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    C /= np.maximum(counts, 1.0)[:, None]
    for _ in range(n_iter):
        xc = a.matmat(C.T)  # |U| x k
        d = x_sq[:, None] - 2 * xc + (C ** 2).sum(axis=1)[None, :]
        new_labels = d.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        C = cluster_sums(a, labels, k)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        C /= np.maximum(counts, 1.0)[:, None]
    return labels
