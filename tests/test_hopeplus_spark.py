"""Distributed HOPE+ (Algorithms 2-3) end-to-end, VCMI invariants, and
agreement with the numpy reference."""
import numpy as np
import pytest

import repro.core.hope as hope_mod
import repro.core.hopeplus as hopeplus_mod
from repro.core.hope import hashed_sample, hop_embedding, hope
from repro.core.hopeplus import _rounding_step, hopeplus, truncated_svd_of_skinny
from repro.core.reference import build_pq, hopeplus_ref
from repro.metrics import accuracy, nmi
from repro.synth_data import bipartite_sbm
from repro.tables import labels_from_assignment


@pytest.fixture(scope="module")
def planted(spark):
    ds = bipartite_sbm(n_u=200, n_v=150, n_edges=2500, k=3, noise=0.1, seed=9)
    return ds, ds.to_spark(spark).cache()


@pytest.fixture(scope="module")
def stage1(spark, planted):
    ds, edges = planted
    X, _ = hop_embedding(edges, alpha=0.3, beta=12, seed=1)
    return X, truncated_svd_of_skinny(X, 12, ds.k, seed=1)


class TestStage1:
    def test_l_has_orthonormal_columns(self, stage1):
        # 200 rows of 12 doubles: the sample is all of X, so the sampled L
        # is all of L, and B maps every row of X onto it.
        X, (L, B, _) = stage1
        Xm = np.vstack(X.toPandas()["vec"].to_numpy())
        assert L.shape == (len(Xm), B.shape[1])
        np.testing.assert_allclose(L.T @ L, np.eye(B.shape[1]), atol=1e-6)
        np.testing.assert_allclose((Xm @ B).T @ (Xm @ B), L.T @ L, atol=1e-9)

    def test_singular_values_descending(self, stage1):
        _, (_, _, s) = stage1
        assert (np.diff(s) <= 1e-9).all()

    def test_leading_column_oriented_positive(self, stage1):
        # Perron-like leading eigenvector of X X^T: non-negative after the
        # sign fix.
        _, (L, _, _) = stage1
        assert L[:, 0].sum() > 0


class TestRoundingStep:
    @pytest.mark.parametrize("rotate", [False, True])
    def test_matches_numpy_argmax_sums(self, rotate):
        # Entries are multiples of 1/8, so every product and sum is exact
        # and S must equal the per-cluster sums of the argmax rows exactly.
        rng = np.random.default_rng(12)
        k = 4
        L = rng.integers(-8, 9, (50, k)) / 8
        T = rng.integers(-8, 9, (k, k)) / 8 if rotate else np.eye(k)
        S, sizes = _rounding_step(L, T)
        cl = (L @ T).argmax(axis=1)
        S_np = np.stack([L[cl == j].sum(axis=0) for j in range(k)], axis=1)
        np.testing.assert_array_equal(S, S_np)
        np.testing.assert_array_equal(sizes, np.bincount(cl, minlength=k))


class TestHopePlusEndToEnd:
    @pytest.mark.parametrize("urt", ["snem", "fnem"])
    def test_recovers_planted_clusters(self, spark, planted, urt):
        ds, edges = planted
        assign = hopeplus(edges, ds.k, beta=12, urt=urt, seed=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.9

    @pytest.mark.parametrize("urt", ["snem", "fnem"])
    def test_rounding_on_a_sample_labels_every_u(self, spark, planted, urt,
                                                 monkeypatch):
        # A budget of 12 x 50 doubles: stages 1 and 2 see 50 of the 200
        # rows of X (beta = 12), and the final pass labels every u.
        ds, edges = planted
        monkeypatch.setattr(hope_mod, "SAMPLE_DOUBLES", 12 * 50)
        shapes = []

        def spy(*args, **kwargs):
            xs = hashed_sample(*args, **kwargs)
            shapes.append(xs.shape)
            return xs

        monkeypatch.setattr(hopeplus_mod, "hashed_sample", spy)
        assign = hopeplus(edges, ds.k, beta=12, urt=urt, seed=1)
        assert shapes == [(50, 12)]
        pdf = assign.toPandas()
        assert pdf["id"].is_unique
        assert len(pdf) == len(np.unique(ds.edges["u"]))
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.9

    def test_invalid_urt_raises(self, spark, planted):
        ds, edges = planted
        with pytest.raises(ValueError):
            hopeplus(edges, ds.k, urt="nope")

    def test_k_above_embedding_rank_raises(self, spark):
        ds = bipartite_sbm(n_u=20, n_v=15, n_edges=120, k=2, noise=0.1,
                           seed=4)
        with pytest.raises(ValueError, match=r"k=25 exceeds the embedding "
                                             r"rank \d+"):
            hopeplus(ds.to_spark(spark), 25, seed=1, svd_iter=1)
        # Q, |V| x |U|, has rank at most 12 when |V| = 12.
        ds = bipartite_sbm(n_u=200, n_v=12, n_edges=800, k=2, noise=0.1,
                           seed=4)
        with pytest.raises(ValueError, match=r"k=13 exceeds the embedding "
                                             r"rank \d+"):
            hopeplus(ds.to_spark(spark), 13, seed=1, svd_iter=1)

    def test_labels_independent_of_shuffle_partitions(self, spark, planted):
        ds, edges = planted
        key = "spark.sql.shuffle.partitions"
        before = spark.conf.get(key)
        labels = {}
        methods = {
            "snem": lambda: hopeplus(edges, ds.k, beta=12, urt="snem", seed=1),
            "fnem": lambda: hopeplus(edges, ds.k, beta=12, urt="fnem", seed=1),
            "hope": lambda: hope(edges, ds.k, beta=12, seed=1),
        }
        try:
            for n in ("64", "7"):
                spark.conf.set(key, n)
                for name, run in methods.items():
                    labels[name, n] = labels_from_assignment(run(), ds.n_u)
        finally:
            spark.conf.set(key, before)
        for name in methods:
            np.testing.assert_array_equal(labels[name, "64"], labels[name, "7"])

    def test_output_is_valid_vcmi_assignment(self, spark, planted):
        # Every u gets exactly one cluster in 0..k-1 (the VCMI row
        # constraint of Eq. 10).
        ds, edges = planted
        assign = hopeplus(edges, ds.k, beta=12, urt="snem", seed=1).toPandas()
        assert assign["id"].is_unique
        assert assign["cluster"].between(0, ds.k - 1).all()
        assert len(assign) == len(np.unique(ds.edges["u"]))

    def test_agrees_with_reference(self, spark, planted):
        # Same pipeline in numpy and Spark should land on near-identical
        # partitions (randomized SVD bases differ, partitions align).
        ds, edges = planted
        P, Q = build_pq(ds.edges["u"].to_numpy(), ds.edges["v"].to_numpy(),
                        ds.edges["w"].to_numpy(), ds.n_u, ds.n_v)
        lab_ref = hopeplus_ref(P, Q, ds.k, beta=12, urt="snem", seed=1)
        assign = hopeplus(edges, ds.k, beta=12, urt="snem", seed=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert nmi(lab_ref, lab) > 0.8

    def test_weighted_graph(self, spark):
        ds = bipartite_sbm(n_u=150, n_v=100, n_edges=2000, k=3, noise=0.1,
                           seed=13, weighted=True)
        assign = hopeplus(ds.to_spark(spark), 3, beta=9, urt="snem", seed=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert accuracy(ds.labels_u, lab) > 0.85

    def test_k2_smallest_case(self, spark):
        ds = bipartite_sbm(n_u=80, n_v=60, n_edges=800, k=2, noise=0.1,
                           seed=21)
        for urt in ("snem", "fnem"):
            assign = hopeplus(ds.to_spark(spark), 2, beta=6, urt=urt, seed=1)
            lab = labels_from_assignment(assign, ds.n_u)
            assert accuracy(ds.labels_u, lab) > 0.9

    def test_t_max_one_still_valid(self, spark, planted):
        ds, edges = planted
        assign = hopeplus(edges, ds.k, beta=12, urt="snem", seed=1, t_max=1)
        lab = labels_from_assignment(assign, ds.n_u)
        assert len(np.unique(lab)) <= ds.k
