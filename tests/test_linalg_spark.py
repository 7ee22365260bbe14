"""Distributed skinny-matrix ops vs exact numpy, plus DuckDB-oracle
checks of the spgemm join-aggregate."""
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.linalg import (
    argmax_assign,
    gram,
    matmul_small,
    orthonormalize,
    random_skinny,
    row_normalize,
    spgemm,
    svd_topk,
)
from repro.oracle import assert_equivalent
from repro.sparsela import SparseCOO


def make_skinny(spark, M: np.ndarray):
    return spark.createDataFrame(
        pd.DataFrame({"id": np.arange(M.shape[0]), "vec": list(M)})
    )


def spread_skinny(spark, M: np.ndarray, n_parts: int | None):
    """``make_skinny``, or the same rows dealt round-robin from a single
    partition over ``n_parts`` partitions, so consecutive rows land in
    different partitions (and some stay empty when ``n_parts`` > rows)."""
    df = make_skinny(spark, M)
    return df if n_parts is None else df.coalesce(1).repartition(n_parts)


def collect_skinny(df, n: int, r: int) -> np.ndarray:
    pdf = df.toPandas()
    out = np.zeros((n, r))
    out[pdf["id"].to_numpy()] = np.vstack(pdf["vec"].to_numpy())
    return out


@pytest.fixture(scope="module")
def sparse_case(spark):
    rng = np.random.default_rng(0)
    n, m, nnz = 25, 18, 120
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, m, nnz)
    vals = rng.standard_normal(nnz)
    coo = SparseCOO.from_edges(rows, cols, vals, n, m)
    edges = spark.createDataFrame(
        pd.DataFrame({"r": coo.rows, "c": coo.cols, "v": coo.data})
    ).cache()
    return edges, coo


class TestSpgemm:
    def test_matches_dense(self, spark, sparse_case):
        edges, coo = sparse_case
        rng = np.random.default_rng(1)
        S = rng.standard_normal((coo.shape[1], 4))
        got = collect_skinny(spgemm(edges, make_skinny(spark, S)),
                             coo.shape[0], 4)
        np.testing.assert_allclose(got, coo.to_dense() @ S, atol=1e-10)

    def test_oracle_single_column(self, spark, sparse_case):
        # The spgemm join-aggregate, checked against DuckDB SQL on one
        # column (arrays are not orderable in the oracle, scalars are).
        edges, coo = sparse_case
        rng = np.random.default_rng(2)
        S = rng.standard_normal((coo.shape[1], 3))
        out = spgemm(edges, make_skinny(spark, S))
        got = out.select("id", F.element_at("vec", 1).alias("y"))
        svec = pd.DataFrame({"c": np.arange(coo.shape[1]), "x": S[:, 0]})
        assert_equivalent(
            got,
            """
            SELECT e.r AS id, SUM(e.v * s.x) AS y
            FROM edges e JOIN svec s ON e.c = s.c
            GROUP BY e.r
            """,
            edges=edges,
            svec=svec,
        )

    def test_drops_empty_rows(self, spark):
        edges = spark.createDataFrame(
            pd.DataFrame({"r": [0, 2], "c": [0, 1], "v": [1.0, 2.0]})
        )
        S = np.ones((2, 2))
        out = spgemm(edges, make_skinny(spark, S)).toPandas()
        assert set(out["id"]) == {0, 2}


class TestGram:
    @pytest.mark.parametrize("n_parts", [None, 64])
    def test_gram_matches_dense(self, spark, n_parts):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((40, 5))
        got = gram(spread_skinny(spark, M, n_parts), 5)
        np.testing.assert_allclose(got, M.T @ M, atol=1e-10)

    def test_gram_empty(self, spark):
        empty = spark.createDataFrame([], "id bigint, vec array<double>")
        np.testing.assert_allclose(gram(empty, 3), np.zeros((3, 3)))


class TestSmallOps:
    def test_matmul_small(self, spark):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((20, 3))
        S = rng.standard_normal((3, 7))
        got = collect_skinny(matmul_small(make_skinny(spark, M), S), 20, 7)
        np.testing.assert_allclose(got, M @ S, atol=1e-12)

    def test_argmax_assign(self, spark):
        # Integer entries: rows 0 and 1 tie between columns, and numpy's
        # first maximal column must win, as in HOPE+'s rounding.
        rng = np.random.default_rng(7)
        M = np.vstack([[[1.0, 1.0, 0.0]], [[0.0, 2.0, 2.0]],
                       rng.integers(-3, 4, (30, 3)).astype(float)])
        W = rng.integers(-2, 3, (3, 4)).astype(float)
        W[:, :3] = np.eye(3)
        b = np.array([0.0, 0.0, 0.0, -100.0])
        got = argmax_assign(spread_skinny(spark, M, 7), W, b).toPandas()
        got = got.sort_values("id")["cluster"].to_numpy()
        np.testing.assert_array_equal(got, (M @ W + b).argmax(axis=1))
        assert got[0] == 0 and got[1] == 1

    def test_row_normalize(self, spark):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((15, 4))
        got = collect_skinny(row_normalize(make_skinny(spark, M)), 15, 4)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0,
                                   atol=1e-12)

    def test_row_normalize_zero_row(self, spark):
        M = np.array([[0.0, 0.0], [3.0, 4.0]])
        got = collect_skinny(row_normalize(make_skinny(spark, M)), 2, 2)
        np.testing.assert_allclose(got[0], 0.0)
        np.testing.assert_allclose(got[1], [0.6, 0.8])

    def test_random_skinny_deterministic(self, spark):
        ids = spark.range(10)
        a = collect_skinny(random_skinny(ids, 4, seed=9), 10, 4)
        b = collect_skinny(random_skinny(ids, 4, seed=9), 10, 4)
        np.testing.assert_array_equal(a, b)
        c = collect_skinny(random_skinny(ids, 4, seed=10), 10, 4)
        assert not np.allclose(a, c)

    def test_random_skinny_in_range(self, spark):
        ids = spark.range(50)
        M = collect_skinny(random_skinny(ids, 6, seed=1), 50, 6)
        assert np.abs(M).max() <= 1.0


def with_singular_values(n: int, s: np.ndarray) -> np.ndarray:
    """A random n x len(s) matrix whose singular values are ``s``."""
    rng = np.random.default_rng(11)
    U, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    return U @ np.diag(s) @ V.T


class TestOrthonormalize:
    @pytest.mark.parametrize("M", [
        np.random.default_rng(7).standard_normal((30, 5)),
        with_singular_values(200, np.logspace(0, -6, 8)),
    ], ids=["gaussian", "cond1e6"])
    def test_orthonormal_columns(self, spark, M):
        n, r = M.shape
        Q = collect_skinny(orthonormalize(make_skinny(spark, M), r), n, r)
        np.testing.assert_allclose(Q.T @ Q, np.eye(r), atol=1e-8)

    def test_evaluates_input_once(self, spark):
        # The Grams and the result read one checkpoint of the input, so an
        # input pass (here a tap counting the rows it sees) runs once.
        seen = spark.sparkContext.accumulator(0)

        def tap(batches):
            for pdf in batches:
                seen.add(len(pdf))
                yield pdf

        M = np.random.default_rng(9).standard_normal((30, 5))
        df = make_skinny(spark, M).mapInPandas(
            tap, "id bigint, vec array<double>")
        orthonormalize(df, 5).collect()
        assert seen.value == 30

    def test_preserves_column_space(self, spark):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((20, 3))
        Q = collect_skinny(orthonormalize(make_skinny(spark, M), 3), 20, 3)
        # Projection of M onto span(Q) equals M.
        np.testing.assert_allclose(Q @ (Q.T @ M), M, atol=1e-8)


class TestSvdTopk:
    def test_matches_numpy_svd(self, spark, sparse_case):
        edges, coo = sparse_case
        row_ids = spark.createDataFrame(
            pd.DataFrame({"r": np.arange(coo.shape[0])}))
        col_ids = spark.createDataFrame(
            pd.DataFrame({"c": np.arange(coo.shape[1])}))
        U, s = svd_topk(edges, row_ids, col_ids, 4, seed=3)
        s_exact = np.linalg.svd(coo.to_dense(), compute_uv=False)
        np.testing.assert_allclose(s, s_exact[:4], rtol=1e-5)
        Ud = collect_skinny(U, coo.shape[0], 4)
        # subspace agreement with exact left singular vectors
        Ue = np.linalg.svd(coo.to_dense())[0][:, :4]
        overlap = np.linalg.svd(Ud.T @ Ue, compute_uv=False)
        np.testing.assert_allclose(overlap, 1.0, atol=1e-3)

    def test_rank_clamped(self, spark):
        # A rank-10 request on a 3 x 2 and on a 3 x 6 matrix: the rank is
        # capped by the columns and by the rows, and no zero singular
        # value pads it.
        tall = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        wide = np.random.default_rng(4).standard_normal((3, 6))
        for A in (tall, wide):
            r, c = np.nonzero(A)
            edges = spark.createDataFrame(
                pd.DataFrame({"r": r, "c": c, "v": A[r, c]}))
            row_ids = spark.range(A.shape[0]).select(F.col("id").alias("r"))
            col_ids = spark.range(A.shape[1]).select(F.col("id").alias("c"))
            _, s = svd_topk(edges, row_ids, col_ids, 10, seed=0)
            np.testing.assert_allclose(
                s, np.linalg.svd(A, compute_uv=False), rtol=1e-8)


class TestPickleByValue:
    def test_core_function_loads_without_repro(self, tmp_path):
        # A Python worker may not be able to import repro, so a module-level
        # function of repro.core that a kernel ships there must travel by
        # value.  Load one in a process that cannot import repro.
        from pyspark import cloudpickle

        from repro.core.hopeplus import fnem_update

        (tmp_path / "f.pkl").write_bytes(cloudpickle.dumps(fnem_update))
        code = (
            "import importlib.util, pickle, numpy as np\n"
            "assert importlib.util.find_spec('repro') is None\n"
            "f = pickle.load(open('f.pkl', 'rb'))\n"
            "print(np.round(f(np.diag([2.0, 3.0])), 12).tolist())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[[1.0, 0.0], [0.0, 1.0]]"
