"""Bipartite-graph substrate: the transition matrices P and Q.

The input is an edge-list DataFrame ``(u bigint, v bigint, w double)`` for
the weighted bipartite graph G = (U ∪ V, E).  Per §2.3 of the paper:

* one-hop transition probabilities (Eq. 1):
  p(u, v) = w(u,v) / deg_w(u)    and    p(v, u) = w(u,v) / deg_w(v)
* the Q matrix (|V| x |U|), Eq. (3)-(4):
  Q_{v,u} = sqrt(p(v,u) * p(u,v)) = w(u,v) / sqrt(deg_w(u) * deg_w(v))
* the WPG edge-weight matrix is W_V = Q Q^T (never materialised by
  HOPE/HOPE+, but :func:`wpg_edges` computes it for tests and small runs).

P and Q are each one ``select`` over the edge list, in which every
weighted degree is a window sum over the edges that share its vertex, so
no degree table is built.  Everything is a pure DataFrame/Catalyst
computation; tests verify each piece against the DuckDB oracle, whose SQL
takes the degrees from ``GROUP BY`` subqueries.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Window


def _deg(side: str):
    """deg_w of the row's ``side`` vertex: the sum of w over its edges."""
    return F.sum("w").over(Window.partitionBy(side))


def p_edges(edges: DataFrame) -> DataFrame:
    """Transition matrix P in R^{|U| x |V|} as an edge list ``(r, c, v)``
    with r = u, c = v, v = p(u, v) = w / deg_w(u)  (Eq. 1)."""
    return edges.select(
        F.col("u").alias("r"),
        F.col("v").alias("c"),
        (F.col("w") / _deg("u")).alias("v"),
    )


def q_edges(edges: DataFrame) -> DataFrame:
    """Q matrix in R^{|V| x |U|} as an edge list ``(r, c, v)`` with r = v,
    c = u, v = Q_{v,u} = w / sqrt(deg_w(u) * deg_w(v))  (Eq. 3)."""
    return edges.select(
        F.col("v").alias("r"),
        F.col("u").alias("c"),
        (F.col("w") / F.sqrt(_deg("u") * _deg("v"))).alias("v"),
    )


def wpg_edges(edges: DataFrame) -> DataFrame:
    """Edge weights of the weighted projected graph G_V (Eq. 2/4):
    w_V(v_j, v_l) = (Q Q^T)_{j,l}, returned as ``(vj, vl, w)`` for every
    pair with a common neighbour (both orientations plus the diagonal).

    Quadratic in the worst case — used only by tests and examples; the
    HOPE/HOPE+ algorithms never materialise it (that is the point of the
    paper's factorised formulation).
    """
    q = q_edges(edges)
    q2 = q.select(
        F.col("r").alias("vl"), F.col("c").alias("c"), F.col("v").alias("v2")
    )
    return (
        q.select(F.col("r").alias("vj"), "c", "v")
        .join(q2, on="c")
        .groupBy("vj", "vl")
        .agg(F.sum(F.col("v") * F.col("v2")).alias("w"))
    )


def u_ids(edges: DataFrame) -> DataFrame:
    """Distinct u ids present in the edge list."""
    return edges.select("u").distinct()


def v_ids(edges: DataFrame) -> DataFrame:
    """Distinct v ids present in the edge list."""
    return edges.select("v").distinct()
