"""SparseCOO kernels against dense numpy equivalents."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsela import SparseCOO, degree_normalize


def random_sparse(rng, n, m, nnz):
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    data = rng.standard_normal(nnz)
    return SparseCOO.from_edges(rows, cols, data, n, m)


class TestConstruction:
    def test_from_edges_dedups(self):
        a = SparseCOO.from_edges([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], 2, 2)
        assert a.nnz == 2
        dense = a.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SparseCOO(np.array([5]), np.array([0]), np.array([1.0]), (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SparseCOO(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_transpose(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 4, 6, 10)
        np.testing.assert_allclose(a.T.to_dense(), a.to_dense().T)


class TestProducts:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_matvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        a = random_sparse(rng, 7, 5, 12)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(a.matvec(x), a.to_dense() @ x, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_rmatvec_matches_dense(self, seed):
        rng = np.random.default_rng(seed)
        a = random_sparse(rng, 7, 5, 12)
        y = rng.standard_normal(7)
        np.testing.assert_allclose(a.rmatvec(y), a.to_dense().T @ y, atol=1e-12)

    def test_matmat(self):
        rng = np.random.default_rng(1)
        a = random_sparse(rng, 8, 6, 20)
        X = rng.standard_normal((6, 3))
        np.testing.assert_allclose(a.matmat(X), a.to_dense() @ X, atol=1e-12)

    def test_rmatmat(self):
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 8, 6, 20)
        Y = rng.standard_normal((8, 3))
        np.testing.assert_allclose(a.rmatmat(Y), a.to_dense().T @ Y, atol=1e-12)


class TestScalingAndSums:
    def test_row_sums(self):
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 5, 4, 10)
        np.testing.assert_allclose(a.row_sums(), a.to_dense().sum(axis=1))

    def test_col_sums(self):
        rng = np.random.default_rng(4)
        a = random_sparse(rng, 5, 4, 10)
        np.testing.assert_allclose(a.col_sums(), a.to_dense().sum(axis=0))

    def test_scale_rows(self):
        rng = np.random.default_rng(5)
        a = random_sparse(rng, 5, 4, 10)
        s = rng.standard_normal(5)
        np.testing.assert_allclose(a.scale_rows(s).to_dense(),
                                   np.diag(s) @ a.to_dense(), atol=1e-12)

    def test_scale_cols(self):
        rng = np.random.default_rng(6)
        a = random_sparse(rng, 5, 4, 10)
        s = rng.standard_normal(4)
        np.testing.assert_allclose(a.scale_cols(s).to_dense(),
                                   a.to_dense() @ np.diag(s), atol=1e-12)

    def test_degree_normalize(self):
        # Row 2 and column 3 are empty: their scalings are 0, not inf.
        a = SparseCOO.from_edges([0, 0, 1, 3], [0, 1, 1, 2],
                                 [4.0, 1.0, 2.0, 9.0], 4, 4)
        an, su, sv = degree_normalize(a)
        d = a.to_dense()
        rs, cs = d.sum(axis=1), d.sum(axis=0)
        np.testing.assert_allclose(su, [5 ** -0.5, 2 ** -0.5, 0, 1 / 3])
        np.testing.assert_allclose(sv, [0.5, 3 ** -0.5, 1 / 3, 0])
        np.testing.assert_allclose(
            an.to_dense(), d / np.sqrt(np.outer(rs, cs) + (d == 0)),
            atol=1e-15)

    def test_row_norms(self):
        rng = np.random.default_rng(7)
        a = random_sparse(rng, 5, 4, 10)
        np.testing.assert_allclose(
            a.row_norms(), np.linalg.norm(a.to_dense(), axis=1), atol=1e-12)

    def test_empty_matrix(self):
        a = SparseCOO.from_edges([], [], [], 3, 3)
        assert a.nnz == 0
        np.testing.assert_allclose(a.matvec(np.ones(3)), np.zeros(3))
