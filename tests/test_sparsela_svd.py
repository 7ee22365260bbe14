"""Randomized SVD / eigensolvers against exact numpy decompositions."""
import numpy as np
import pytest

from repro.sparsela import SparseCOO, lloyd, subspace_eigh, svd_left


def random_sparse(rng, n, m, nnz):
    return SparseCOO.from_edges(
        rng.integers(0, n, nnz), rng.integers(0, m, nnz),
        rng.standard_normal(nnz), n, m)


class TestRandomizedSVD:
    def test_singular_values_match_dense(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 30, 20, 200)
        _, s = svd_left(a, 5, n_iter=7, seed=1)
        s_exact = np.linalg.svd(a.to_dense(), compute_uv=False)
        np.testing.assert_allclose(s, s_exact[:5], rtol=1e-6)

    def test_left_vectors_orthonormal(self):
        rng = np.random.default_rng(1)
        a = random_sparse(rng, 25, 15, 100)
        U, _ = svd_left(a, 4, n_iter=7, seed=2)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)

    def test_reconstruction_quality(self):
        rng = np.random.default_rng(2)
        # Build an exactly rank-3 matrix.
        L = rng.standard_normal((20, 3))
        R = rng.standard_normal((3, 10))
        dense = L @ R
        rows, cols = np.nonzero(dense)
        a = SparseCOO.from_edges(rows, cols, dense[rows, cols], 20, 10)
        U, s = svd_left(a, 3, n_iter=7, seed=3)
        Vt = a.rmatmat(U).T / s[:, None]
        np.testing.assert_allclose((U * s) @ Vt, dense, atol=1e-8)

    def test_subspace_agreement(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 40, 30, 400)
        U, _ = svd_left(a, 3, n_iter=7, seed=4)
        Ue, se, _ = np.linalg.svd(a.to_dense())
        # Principal angles between the two 3-dim subspaces ~ 0.
        overlap = np.linalg.svd(U.T @ Ue[:, :3], compute_uv=False)
        np.testing.assert_allclose(overlap, np.ones(3), atol=1e-4)

    def test_rank_clamped_to_min_dim(self):
        # A rank-10 request on a 10 x 3, a 3 x 2 and a 3 x 6 matrix (the
        # last two are TestSvdTopk::test_rank_clamped's): the rank is
        # capped by the columns and by the rows, and no zero singular
        # value pads it.
        narrow = random_sparse(np.random.default_rng(4), 10, 3, 20)
        tall = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        wide = np.random.default_rng(4).standard_normal((3, 6))
        for A in (narrow.to_dense(), tall, wide):
            r, c = np.nonzero(A)
            a = SparseCOO.from_edges(r, c, A[r, c], *A.shape)
            U, s = svd_left(a, 10, n_iter=7, seed=5)
            np.testing.assert_allclose(
                s, np.linalg.svd(A, compute_uv=False), rtol=1e-8)
            assert U.shape == (A.shape[0], len(s))


class TestEigsh:
    def test_matches_dense_eigh_psd(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((15, 8))
        dense = B @ B.T  # PSD
        rows, cols = np.nonzero(dense)
        a = SparseCOO.from_edges(rows, cols, dense[rows, cols], 15, 15)
        w, V = subspace_eigh(a.matmat, 15, 4, n_iter=25, seed=6)
        w_exact = np.linalg.eigvalsh(dense)[::-1]
        np.testing.assert_allclose(w, w_exact[:4], rtol=1e-5)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-6)

    def test_eigvector_residual(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((12, 12))
        dense = B @ B.T
        rows, cols = np.nonzero(dense)
        a = SparseCOO.from_edges(rows, cols, dense[rows, cols], 12, 12)
        w, V = subspace_eigh(a.matmat, 12, 2, n_iter=25, seed=7)
        for i in range(2):
            res = dense @ V[:, i] - w[i] * V[:, i]
            assert np.linalg.norm(res) < 1e-4 * max(w[0], 1.0)

    def test_matfree_matches_eigsh(self):
        rng = np.random.default_rng(7)
        B = rng.standard_normal((10, 10))
        dense = B @ B.T

        w, V = subspace_eigh(lambda y: dense @ y, 10, 3, n_iter=30, seed=8)
        w_exact = np.linalg.eigvalsh(dense)[::-1]
        np.testing.assert_allclose(w, w_exact[:3], rtol=1e-5)


class TestLloyd:
    def test_separated_blobs(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(0, 0.05, (30, 2)),
                       rng.normal(5, 0.05, (30, 2)),
                       rng.normal(-5, 0.05, (30, 2))])
        lab = lloyd(X, 3, seed=0)
        # Each blob should be a single pure cluster.
        for blk in range(3):
            seg = lab[blk * 30:(blk + 1) * 30]
            assert len(np.unique(seg)) == 1
        assert len(np.unique(lab)) == 3

    def test_k_geq_n(self):
        X = np.zeros((3, 2))
        lab = lloyd(X, 5, seed=0)
        assert len(lab) == 3

    def test_weighted_centroids(self):
        # A heavy point drags its cluster's centroid; the result must
        # still partition into 2 groups.
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        lab = lloyd(X, 2, seed=0, weights=np.array([100.0, 1, 1, 1]))
        assert lab[0] == lab[1] and lab[2] == lab[3] and lab[0] != lab[2]

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(9)
        X = rng.random((50, 4))
        np.testing.assert_array_equal(lloyd(X, 3, seed=5), lloyd(X, 3, seed=5))
