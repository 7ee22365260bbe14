"""LeadingEigenvector (LE) baseline [39]: Newman's recursive modularity
bisection on the unipartite view U ∪ V.

The (generalised) modularity matrix of a group g is never materialised;
its matvec  B_g x = A_g x − d_g (d_g·x)/2m − diag-correction  is applied
matrix-free inside a randomized eigensolver.  The group with the largest
positive leading eigenvalue is split by the sign of the eigenvector,
until k groups exist or no split improves modularity.
"""
from __future__ import annotations

import numpy as np

from ..sparsela import subspace_eigh
from ..synth_data import BipartiteDataset
from .common import unipartite


def le_baseline(ds: BipartiteDataset, k: int, *, seed: int = 0) -> np.ndarray:
    a = unipartite(ds)
    n = a.shape[0]
    d = a.row_sums()
    two_m = d.sum()
    if two_m == 0:
        return np.zeros(ds.n_u, dtype=np.int64)

    labels = np.zeros(n, dtype=np.int64)
    next_label = 1
    # Queue of group ids still eligible for splitting.
    candidates = [0]
    while next_label < k and candidates:
        # Pick the largest candidate group (paper splits greedily).
        candidates.sort(key=lambda g: -(labels == g).sum())
        g = candidates.pop(0)
        idx = np.nonzero(labels == g)[0]
        if len(idx) < 2:
            continue
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        dg = d[idx]
        # Within-group degree of every group member (constant per group).
        in_mask = mask[a.rows] & mask[a.cols]
        a_in = np.bincount(a.rows[in_mask], weights=a.data[in_mask],
                           minlength=n)[idx]
        diag_corr = a_in - dg * dg.sum() / two_m

        # Shift to make the leading algebraic eigenvalue dominant.
        shift = 2.0 * dg.max() + 1.0

        def shifted(y):
            x = np.zeros((n, y.shape[1]))
            x[idx] = y
            ay = a.matmat(x)[idx]
            # Generalised modularity (Newman 2006 Eq. 6): subtract the
            # null model and the diagonal degree-within-group correction.
            ky = dg[:, None] * (dg @ y)[None, :] / two_m
            return ay - ky - diag_corr[:, None] * y + shift * y

        w, V = subspace_eigh(shifted, len(idx), 1, n_iter=40, seed=seed)
        lead = w[0] - shift
        vec = V[:, 0]
        if lead <= 1e-12 or (vec >= 0).all() or (vec <= 0).all():
            continue  # indivisible group
        plus = idx[vec >= 0]
        minus = idx[vec < 0]
        labels[minus] = next_label
        candidates.extend([g, next_label])
        next_label += 1
    return labels[: ds.n_u]
