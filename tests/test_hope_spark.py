"""Distributed HOPE (Algorithm 1) end-to-end and against the numpy
reference implementation."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

import repro.core.hope as hope_mod
from repro.core.hope import hop_embedding, hope, kmeans_assign
from repro.core.reference import build_pq, exact_hop_matrix, hop_embedding_ref
from repro.metrics import accuracy
from repro.synth_data import bipartite_sbm
from repro.tables import labels_from_assignment


@pytest.fixture(scope="module")
def planted(spark):
    ds = bipartite_sbm(n_u=200, n_v=150, n_edges=2500, k=3, noise=0.1, seed=9)
    edges = ds.to_spark(spark).cache()
    P, Q = build_pq(ds.edges["u"].to_numpy(), ds.edges["v"].to_numpy(),
                    ds.edges["w"].to_numpy(), ds.n_u, ds.n_v)
    return ds, edges, P, Q


class TestHopEmbedding:
    def test_rows_unit_norm(self, spark, planted):
        ds, edges, _, _ = planted
        X, _ = hop_embedding(edges, alpha=0.3, beta=9, seed=1)
        pdf = X.toPandas()
        M = np.vstack(pdf["vec"].to_numpy())
        norms = np.linalg.norm(M, axis=1)
        active = norms > 0
        np.testing.assert_allclose(norms[active], 1.0, atol=1e-8)

    def test_covers_all_u(self, spark, planted):
        ds, edges, _, _ = planted
        X, _ = hop_embedding(edges, alpha=0.3, beta=9, seed=1)
        assert X.count() == len(np.unique(ds.edges["u"]))

    def test_sigma_descending_and_bounded(self, spark, planted):
        _, edges, _, _ = planted
        _, s = hop_embedding(edges, alpha=0.3, beta=9, seed=1)
        assert (np.diff(s) <= 1e-9).all()
        assert s[0] <= 1.0 + 1e-6  # sigma_1(Q) <= 1 (Lemma 3.1 proof)

    def test_matches_reference_gram(self, spark, planted):
        # X X^T approximates H H^T the same way the reference does; the
        # two factorizations share the Gram up to randomized-SVD noise.
        ds, edges, P, Q = planted
        X, _ = hop_embedding(edges, alpha=0.3, beta=12, seed=1)
        pdf = X.toPandas().sort_values("id")
        ids = pdf["id"].to_numpy()
        Xs = np.vstack(pdf["vec"].to_numpy())
        Xr, _ = hop_embedding_ref(P, Q, 0.3, 12, seed=1)
        Gs = Xs @ Xs.T
        Gr = Xr[ids] @ Xr[ids].T
        assert np.abs(Gs - Gr).mean() < 0.06

    def test_gram_close_to_exact_h(self, spark, planted):
        ds, edges, P, Q = planted
        beta = 40
        X, _ = hop_embedding(edges, alpha=0.3, beta=beta, seed=1)
        pdf = X.toPandas().sort_values("id")
        ids = pdf["id"].to_numpy()
        Xs = np.vstack(pdf["vec"].to_numpy())
        H = exact_hop_matrix(P, Q, 0.3)
        err = np.abs(Xs @ Xs.T - H[ids] @ H[ids].T).mean()
        # Figure-5 regime: the paper reports epsilon around or below 0.1
        # once beta reaches a few dozen.
        assert err < 0.1

    @pytest.mark.parametrize("w", [-1.0, float("nan"), None],
                             ids=["negative", "nan", "null"])
    def test_bad_weight_raises(self, spark, w):
        edges = spark.createDataFrame(
            [(0, 0, 1.0), (0, 1, 2.0), (1, 1, w)], "u bigint, v bigint, w double")
        with pytest.raises(ValueError, match="non-negative numbers"):
            hop_embedding(edges, beta=2, n_iter=1)

    @pytest.mark.parametrize("col", ["w", "u"],
                             ids=["missing_w", "string_u"])
    def test_bad_schema_raises(self, spark, col):
        edges = spark.createDataFrame(
            [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)], "u bigint, v bigint, w double")
        edges = (edges.drop("w") if col == "w"
                 else edges.withColumn("u", F.col("u").cast("string")))
        sc = spark.sparkContext
        sc.setJobGroup("bad-schema", "test")
        try:
            with pytest.raises(ValueError, match=f"column '{col}'"):
                hop_embedding(edges, beta=2, n_iter=1)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        # The check reads the schema only: no Spark job ran.
        assert list(sc.statusTracker().getJobIdsForGroup("bad-schema")) == []

    def test_zero_weight_edges_dropped(self, spark, planted):
        # u 0 keeps only weight-0 edges, so it gets no row; the rest of X
        # is the embedding of the graph without them.
        ds, _, _, _ = planted
        pdf = ds.edges.copy()
        pdf.loc[pdf["u"] == 0, "w"] = 0.0
        X, _ = hop_embedding(spark.createDataFrame(pdf), beta=9, seed=1)
        ids = X.toPandas()["id"]
        assert 0 not in set(ids)
        assert len(ids) == pdf.loc[pdf["u"] != 0, "u"].nunique()


class TestHopeEndToEnd:
    def test_recovers_planted_clusters(self, spark, planted):
        ds, edges, _, _ = planted
        assign = hope(edges, ds.k, beta=12, seed=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.9

    def test_beta_defaults_to_5k(self, spark, planted):
        ds, edges, _, _ = planted
        assign = hope(edges, ds.k, seed=1)  # beta = 15
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.9

    def test_output_schema(self, spark, planted):
        ds, edges, _, _ = planted
        assign = hope(edges, ds.k, beta=9, seed=1)
        assert set(assign.columns) == {"id", "cluster"}
        clusters = assign.select("cluster").distinct().toPandas()["cluster"]
        assert clusters.between(0, ds.k - 1).all()

    def test_weighted_graph(self, spark):
        ds = bipartite_sbm(n_u=150, n_v=100, n_edges=2000, k=3, noise=0.1,
                           seed=13, weighted=True)
        assign = hope(ds.to_spark(spark), 3, beta=9, seed=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.85

    def test_kmeans_on_a_sample_labels_every_u(self, spark, planted,
                                               monkeypatch):
        # A budget of 12 x 50 doubles: Lloyd's sees 50 of the 200 rows of
        # X (beta = 12), and every u is still assigned a centre.
        ds, edges, _, _ = planted
        monkeypatch.setattr(hope_mod, "SAMPLE_DOUBLES", 12 * 50)
        assign = hope(edges, ds.k, beta=12, seed=1)
        pdf = assign.toPandas()
        assert pdf["id"].is_unique
        assert len(pdf) == len(np.unique(ds.edges["u"]))
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.9

    def test_k_above_embedding_rank_raises(self, spark):
        # 20 U vertices cannot make 25 clusters.
        ds = bipartite_sbm(n_u=20, n_v=15, n_edges=120, k=2, noise=0.1,
                           seed=4)
        with pytest.raises(ValueError, match=r"k=25 exceeds the embedding "
                                             r"rank \d+"):
            hope(ds.to_spark(spark), 25, seed=1, svd_iter=1)
        # Nor can 12 V vertices: Q, |V| x |U|, has rank at most 12.
        ds = bipartite_sbm(n_u=200, n_v=12, n_edges=800, k=2, noise=0.1,
                           seed=4)
        with pytest.raises(ValueError, match=r"k=13 exceeds the embedding "
                                             r"rank \d+"):
            hope(ds.to_spark(spark), 13, seed=1, svd_iter=1)


class TestKmeansAssign:
    def test_separated_rows(self, spark):
        rng = np.random.default_rng(0)
        M = np.vstack([rng.normal(0, 0.01, (20, 3)) + np.eye(3)[i]
                       for i in range(3)])
        df = spark.createDataFrame(
            pd.DataFrame({"id": np.arange(60), "vec": list(M)}))
        out = kmeans_assign(df, 3, 3, seed=0).toPandas().sort_values("id")
        lab = out["cluster"].to_numpy()
        truth = np.repeat([0, 1, 2], 20)
        assert accuracy(truth, lab) == 1.0
