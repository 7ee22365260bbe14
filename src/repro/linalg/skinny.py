"""Distributed skinny-matrix linear algebra over DataFrames.

A *skinny matrix* is a tall-and-narrow dense matrix M in R^{n x r}
(r <= a few hundred) stored as a DataFrame ``(id bigint, vec array<double>)``
— one row per matrix row, keyed by vertex id.  A *sparse matrix* is an
edge-list DataFrame ``(r bigint, c bigint, v double)``.  These two shapes
are all the HOPE/HOPE+ pipeline needs:

* ``spgemm``       — sparse x skinny product (join + scale + Summarizer.sum)
* ``fold_partitions`` — the one reduce kernel: stack each partition's rows
                     into a dense block, fold the blocks into a fixed-size
                     numpy accumulator, return the per-partition partials
                     to the driver.  ``gram`` (M^T M) is its caller.
* ``matmul_small`` — skinny x broadcast small dense matrix (the map kernel,
                     on the same row stacking)
* ``argmax_assign`` — the one assignment kernel, lazy: each row to the
                     argmax of M W + b (HOPE's nearest k-means centre,
                     HOPE+'s argmax of L·T = X·(B T))
* ``orthonormalize`` — CholeskyQR2 on one checkpoint of its input (two
                     Grams + R^-1 for stability, no recomputation)
* ``svd_topk``     — randomized subspace-iteration truncated SVD of a
                     sparse matrix, returning distributed singular vectors

A row missing from a skinny matrix is a zero row: ``spgemm`` keeps only
the ids that have an edge, and every kernel reads an absent row as zero.

The kernels here take only small dense matrices (r x r Grams,
broadcast weights) to the driver.  The one larger driver-side object is
in ``core``: a hashed sample of the rows of X bounded at 64 MB of
doubles (``core.hope.hashed_sample``), on which HOPE's k-means and
HOPE+'s stages 1-2 run.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark import cloudpickle
from pyspark.ml.functions import array_to_vector, vector_to_array
from pyspark.ml.stat import Summarizer
from pyspark.sql import DataFrame

import repro
from ..sparsela import OVERSAMPLE, ritz

# Ship every function of the package that runs on the Python workers (this
# module's helpers) by value, so a worker need not be able to import repro;
# the registration covers all submodules.
cloudpickle.register_pickle_by_value(repro)


def random_skinny(ids: DataFrame, r: int, *, seed: int = 42,
                  id_col: str = "id") -> DataFrame:
    """Deterministic pseudo-random skinny matrix (uniform in [-1, 1]) with
    one row per id in ``ids`` — the range-finder start block for the SVD.

    Entries come from ``xxhash64(id, j, seed)`` so the matrix is fully
    deterministic and computed where the data lives (no driver-side RNG
    materialisation, unlike ``numpy`` + ``createDataFrame``).
    """
    return ids.select(
        F.col(id_col).alias("id"),
        F.expr(
            f"transform(sequence(0, {r - 1}),"
            f" j -> cast(xxhash64({id_col}, j, {seed}) as double)"
            " / 9.223372036854776e18)"
        ).alias("vec"),
    )


def spgemm(edges: DataFrame, skinny: DataFrame) -> DataFrame:
    """Y = A S: sparse ``edges`` ``(r, c, v)`` times a skinny matrix keyed
    by ``c``.  Returns a skinny matrix keyed by the ``r`` ids that have at
    least one edge; the all-zero rows of the other ids are left out."""
    scaled = (
        edges.join(skinny.withColumnRenamed("id", "c"), on="c")
        .select(
            F.col("r").alias("id"),
            array_to_vector(
                F.transform("vec", lambda x: x * F.col("v"))
            ).alias("sv"),
        )
    )
    return (
        scaled.groupBy("id")
        .agg(Summarizer.sum(F.col("sv")).alias("s"))
        .select("id", vector_to_array("s").alias("vec"))
    )


def _rows(pdf: pd.DataFrame) -> np.ndarray:
    """The ``vec`` rows of one Arrow batch stacked into a dense block."""
    return np.vstack(pdf["vec"].to_numpy())


def fold_partitions(skinny: DataFrame, fold, shape: tuple[int, ...]
                    ) -> np.ndarray:
    """Per-partition partials of ``acc = fold(acc, block)`` over the row
    blocks of a skinny matrix, in partition order.

    Each partition starts from ``np.zeros(shape)`` and folds its non-empty
    batches in order; a partition with no rows yields no partial.  The
    result has shape ``(n_partials, *shape)``, so ``.sum(axis=0)`` adds
    within each partition first and then across partitions in order.
    """
    def partial(batches):
        acc, seen = np.zeros(shape), False
        for pdf in batches:
            if len(pdf):
                acc, seen = fold(acc, _rows(pdf)), True
        if seen:
            yield pd.DataFrame({"p": [acc.ravel()]})

    parts = skinny.mapInPandas(partial, "p array<double>").toPandas()
    return np.array(parts["p"].tolist(), dtype=np.float64).reshape(
        len(parts), *shape)


def gram(skinny: DataFrame, r: int) -> np.ndarray:
    """G = M^T M in R^{r x r}, summed on the driver."""
    return fold_partitions(skinny, lambda g, M: g + M.T @ M, (r, r)).sum(axis=0)


def matmul_small(skinny: DataFrame, small: np.ndarray) -> DataFrame:
    """Y = M S for a broadcastable dense ``small`` in R^{r x m}."""
    spark = skinny.sparkSession
    bc = spark.sparkContext.broadcast(np.asarray(small, dtype=np.float64))

    def mult(batches):
        for pdf in batches:
            if len(pdf):
                yield pd.DataFrame({"id": pdf["id"],
                                    "vec": list(_rows(pdf) @ bc.value)})

    return skinny.mapInPandas(mult, "id bigint, vec array<double>")


def argmax_assign(skinny: DataFrame, w: np.ndarray, b: np.ndarray
                  ) -> DataFrame:
    """``(id, cluster)`` with cluster = argmax_j (M W + b)_{i,j} for a
    broadcast W in R^{r x m} and bias b in R^m; ties go to the first
    maximal column, as in numpy."""
    bc = skinny.sparkSession.sparkContext.broadcast(
        (np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)))

    def assign(batches):
        W, bias = bc.value
        for pdf in batches:
            if len(pdf):
                cl = (_rows(pdf) @ W + bias).argmax(axis=1)
                yield pd.DataFrame({"id": pdf["id"],
                                    "cluster": cl.astype(np.int32)})

    return skinny.mapInPandas(assign, "id bigint, cluster int")


def row_normalize(skinny: DataFrame) -> DataFrame:
    """L2-normalise every row; all-zero rows are left as zeros."""
    norm = F.sqrt(
        F.aggregate("vec", F.lit(0.0), lambda acc, x: acc + x * x)
    )
    return skinny.withColumn("_n", norm).select(
        "id",
        F.when(F.col("_n") > 0,
               F.transform("vec", lambda x: x / F.col("_n")))
        .otherwise(F.col("vec"))
        .alias("vec"),
    )


def _chol_inv(G: np.ndarray) -> np.ndarray:
    """R^{-1} for G = R^T R, with a tiny ridge for rank-deficient blocks."""
    r = G.shape[0]
    ridge = max(np.trace(G), 1.0) * 1e-12
    R = np.linalg.cholesky(G + ridge * np.eye(r)).T
    return np.linalg.inv(R)


def orthonormalize(skinny: DataFrame, r: int) -> DataFrame:
    """CholeskyQR2: Q with Q^T Q = I spanning the same column space.

    The input is evaluated once, into a local checkpoint Y; both Cholesky
    steps take their Gram from Y, building Q = Y T with
    T = R_1^-1 R_2^-1, and the returned Q is a lazy map over Y.  The
    second step restores the orthogonality the first loses on an
    ill-conditioned block (Fukaya et al., ScalA 2014).
    """
    y = skinny.localCheckpoint(eager=True)
    t = _chol_inv(gram(y, r))
    t = t @ _chol_inv(gram(matmul_small(y, t), r))
    return matmul_small(y, t)


def svd_topk(edges: DataFrame, row_ids: DataFrame, col_ids: DataFrame,
             rank: int, *, n_iter: int = 6, seed: int = 42
             ) -> tuple[DataFrame, np.ndarray]:
    """Top-``rank`` left singular vectors and singular values of a sparse
    matrix A given as an edge list ``(r, c, v)``.

    Randomized subspace iteration on A A^T: Y <- orth(A (A^T Y)), then
    Rayleigh–Ritz (``sparsela.ritz``) on the Gram of Z = A^T Y.  Returns
    ``(U, s)`` where U is a lazy skinny DataFrame with a row for each row
    id that has an edge (``n_iter`` >= 1) and ``s`` the singular values
    (descending).
    Ritz values at rounding level belong to the null space of A, not its
    range, and are dropped: ``len(s)`` is min(rank, numerical rank of A).
    """
    edges = edges.select("r", "c", "v").localCheckpoint(eager=True)
    edges_t = edges.select(F.col("c").alias("r"), F.col("r").alias("c"), "v")
    id_col = row_ids.columns[0]
    r = min(rank + OVERSAMPLE, col_ids.count())  # cannot exceed |cols|

    Y = orthonormalize(random_skinny(row_ids, r, seed=seed, id_col=id_col), r)
    for _ in range(n_iter):
        Y = orthonormalize(spgemm(edges, spgemm(edges_t, Y)), r)
    w, W = ritz(gram(spgemm(edges_t, Y), r), r)  # of Y^T A A^T Y, PSD
    keep = w > r * np.finfo(np.float64).eps * w[0]
    return matmul_small(Y, W[:, keep][:, :rank]), np.sqrt(w[keep][:rank])
