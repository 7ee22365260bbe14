"""Graph substrate (P, Q, WPG) vs the DuckDB oracle and the paper's
worked example (Figure 3 / Example 2.1)."""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.graph import (
    p_edges,
    q_edges,
    u_ids,
    v_ids,
    wpg_edges,
)
from repro.oracle import assert_equivalent
from repro.synth_data import bipartite_sbm


@pytest.fixture(scope="module")
def small_edges(spark):
    ds = bipartite_sbm(n_u=40, n_v=30, n_edges=300, k=3, seed=11,
                       weighted=True)
    return ds.to_spark(spark).cache(), ds.edges


# The bipartite graph of Figure 2/3: u1..u3 (0-indexed 0..2), v1..v3.
# Edges (all weight 1): u1-v1, u1-v3, u2-v1, u2-v3, u3-v2, u3-v3.
FIG3 = pd.DataFrame({
    "u": [0, 0, 1, 1, 2, 2],
    "v": [0, 2, 0, 2, 1, 2],
    "w": [1.0] * 6,
})


class TestPMatrix:
    def test_p_vs_duckdb(self, spark, small_edges):
        edges, _ = small_edges
        got = p_edges(edges)
        assert_equivalent(
            got,
            """
            SELECT e.u AS r, e.v AS c, e.w / d.deg AS v
            FROM edges e
            JOIN (SELECT u, SUM(w) AS deg FROM edges GROUP BY u) d
              ON e.u = d.u
            """,
            edges=edges,
        )

    def test_p_rows_are_stochastic(self, spark, small_edges):
        edges, _ = small_edges
        sums = p_edges(edges).groupBy("r").agg(F.sum("v").alias("s")).toPandas()
        np.testing.assert_allclose(sums["s"], 1.0, atol=1e-12)

    def test_p_fig3_values(self, spark):
        # Figure 3: p(u1,v1) = p(u1,v3) = 1/2; p(u3,v2) = p(u3,v3) = 1/2.
        e = spark.createDataFrame(FIG3)
        p = {(r.r, r.c): r.v for r in p_edges(e).collect()}
        assert p[(0, 0)] == pytest.approx(0.5)
        assert p[(0, 2)] == pytest.approx(0.5)
        assert p[(2, 1)] == pytest.approx(0.5)
        assert p[(2, 2)] == pytest.approx(0.5)


class TestQMatrix:
    def test_q_vs_duckdb(self, spark, small_edges):
        edges, _ = small_edges
        got = q_edges(edges)
        assert_equivalent(
            got,
            """
            SELECT e.v AS r, e.u AS c,
                   e.w / SQRT(du.deg * dv.deg) AS v
            FROM edges e
            JOIN (SELECT u, SUM(w) AS deg FROM edges GROUP BY u) du
              ON e.u = du.u
            JOIN (SELECT v, SUM(w) AS deg FROM edges GROUP BY v) dv
              ON e.v = dv.v
            """,
            edges=edges,
        )

    def test_q_fig3_example(self, spark):
        # Example 2.1: Q_{3,1} = sqrt(p(v3,u1) p(u1,v3)) = 1/sqrt(6).
        e = spark.createDataFrame(FIG3)
        q = {(r.r, r.c): r.v for r in q_edges(e).collect()}
        assert q[(2, 0)] == pytest.approx(1 / np.sqrt(6))
        # Q_{1,1} = sqrt(p(v1,u1) p(u1,v1)) = sqrt(1/2 * 1/2) = 1/2.
        assert q[(0, 0)] == pytest.approx(0.5)

    def test_q_entries_bounded_by_one(self, spark, small_edges):
        edges, _ = small_edges
        mx = q_edges(edges).agg(F.max("v")).collect()[0][0]
        assert mx <= 1.0 + 1e-12


class TestWPG:
    def test_wpg_fig3_example(self, spark):
        # Example 2.1: w_V(v1, v3) = 1/sqrt(6).
        e = spark.createDataFrame(FIG3)
        w = {(r.vj, r.vl): r.w for r in wpg_edges(e).collect()}
        assert w[(0, 2)] == pytest.approx(1 / np.sqrt(6))
        assert w[(2, 0)] == pytest.approx(1 / np.sqrt(6))

    def test_wpg_symmetric(self, spark, small_edges):
        edges, _ = small_edges
        w = wpg_edges(edges).toPandas()
        m = {(r.vj, r.vl): r.w for r in w.itertuples()}
        for (a, b), val in m.items():
            assert m[(b, a)] == pytest.approx(val)

    def test_wpg_vs_duckdb(self, spark, small_edges):
        edges, _ = small_edges
        got = wpg_edges(edges)
        assert_equivalent(
            got,
            """
            WITH q AS (
              SELECT e.v AS r, e.u AS c,
                     e.w / SQRT(du.deg * dv.deg) AS v
              FROM edges e
              JOIN (SELECT u, SUM(w) AS deg FROM edges GROUP BY u) du
                ON e.u = du.u
              JOIN (SELECT v, SUM(w) AS deg FROM edges GROUP BY v) dv
                ON e.v = dv.v
            )
            SELECT a.r AS vj, b.r AS vl, SUM(a.v * b.v) AS w
            FROM q a JOIN q b ON a.c = b.c
            GROUP BY a.r, b.r
            """,
            edges=edges,
        )


class TestIds:
    def test_u_ids_distinct(self, spark, small_edges):
        edges, pdf = small_edges
        got = u_ids(edges).toPandas()["u"].sort_values().to_numpy()
        want = np.sort(pdf["u"].unique())
        np.testing.assert_array_equal(got, want)

    def test_v_ids_distinct(self, spark, small_edges):
        edges, pdf = small_edges
        got = v_ids(edges).toPandas()["v"].sort_values().to_numpy()
        want = np.sort(pdf["v"].unique())
        np.testing.assert_array_equal(got, want)
