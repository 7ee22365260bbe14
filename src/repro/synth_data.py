"""Synthetic bipartite graphs with planted clusters: the stand-ins for the
paper's labelled Table-2 datasets.

``bipartite_sbm`` draws a degree-corrected bipartite SBM as a pandas edge
list ``(u, v, w)`` with ground-truth labels; ``make_dataset`` builds a
named Table-2 stand-in from it at a ``size_factor``.  Generators are
deterministic in ``seed``, so the numpy reference, the DuckDB oracle and
Spark all see the same graph.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class BipartiteDataset:
    """A generated bipartite graph plus ground truth.

    ``edges`` is a pandas DataFrame with integer columns ``u`` (0..n_u-1),
    ``v`` (0..n_v-1) and float ``w``; ``labels_u`` / ``labels_v`` are the
    planted cluster ids of each vertex.  ``to_spark`` materialises the edge
    list as a Spark DataFrame for the distributed algorithms.
    """

    name: str
    edges: pd.DataFrame
    labels_u: np.ndarray
    labels_v: np.ndarray
    k: int

    @property
    def n_u(self) -> int:
        return len(self.labels_u)

    @property
    def n_v(self) -> int:
        return len(self.labels_v)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_spark(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.edges)


def bipartite_sbm(
    *,
    n_u: int,
    n_v: int,
    n_edges: int,
    k: int,
    noise: float = 0.2,
    hub_fraction: float = 0.0,
    weighted: bool = False,
    gamma: float = 2.5,
    s_sub: int = 1,
    t_mem: int = 2,
    seed: int = 0,
    name: str = "synthetic",
) -> BipartiteDataset:
    """Degree-corrected bipartite stochastic block model with planted clusters.

    Substitution for the paper's labelled real graphs (CORA .. MAG): every
    algorithm under test consumes only the weighted edge list and k, and
    this generator exercises the same code paths — skewed (power-law,
    exponent ``gamma``) degrees on both sides, a ``noise`` fraction of
    edges that ignore the planted blocks, optional integer weights, and a
    ``hub_fraction`` of V-vertices wired uniformly across all U-clusters
    (the Figure-1(a) "phone" pathology that defeats low-order projection
    methods but not high-order HOP-based ones).

    U-vertices are assigned to k roughly equal clusters; V-vertices
    likewise (non-hubs).  An intra-block edge picks its endpoints within
    the same cluster id; a noise edge picks endpoints uniformly.  Endpoint
    choice within a group is proportional to a per-vertex power-law
    propensity, giving heavy-tailed degrees.  Duplicate (u, v) pairs are
    merged by summing weights.  Isolated vertices may remain (real
    datasets have them too); all algorithms must tolerate them.

    ``s_sub`` > 1 fragments every cluster's V pool into ``s_sub``
    subtopics and each U vertex samples its intra-cluster edges from only
    ``t_mem`` of them.  Two same-cluster U vertices then rarely share
    *direct* neighbours — the cluster is held together by multi-hop
    bridges through overlapping subtopic memberships.  This is the
    high-order-affinity regime of the paper's Figure 1(b): low-order
    (co-neighbour / direct-cut) methods degrade badly while HOP-based
    methods keep working.  ``s_sub=1`` recovers the plain DC-SBM.
    """
    rng = np.random.default_rng(seed)
    labels_u = rng.permutation(np.arange(n_u) % k)
    labels_v = rng.permutation(np.arange(n_v) % k)
    n_hubs = int(hub_fraction * n_v)
    hub_mask = np.zeros(n_v, dtype=bool)
    if n_hubs:
        hub_idx = rng.choice(n_v, size=n_hubs, replace=False)
        hub_mask[hub_idx] = True

    # Power-law degree propensities (Pareto tail, bounded to keep hubs sane).
    def _prop(n: int) -> np.ndarray:
        p = (1.0 - rng.random(n)) ** (-1.0 / (gamma - 1.0))
        return np.minimum(p, 100.0)

    prop_u = _prop(n_u)
    prop_v = _prop(n_v)

    # Subtopic id of every V vertex within its cluster, and the per-
    # (cluster, subtopic) sampling pools.  s_sub=1 -> one pool/cluster.
    sub_v = rng.integers(0, s_sub, n_v)
    pools: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for c in range(k):
        for s in range(s_sub):
            p = np.where((labels_v == c) & (sub_v == s) & ~hub_mask)[0]
            if len(p) == 0:  # tiny graphs: fall back to the full cluster
                p = np.where(labels_v == c)[0]
            pools[(c, s)] = (p, prop_v[p] / prop_v[p].sum())
    # Each U vertex draws intra edges from t_mem subtopics of its cluster.
    t_mem_eff = min(max(t_mem, 1), s_sub)
    mem = rng.integers(0, s_sub, (n_u, t_mem_eff))

    # How many edges of each kind.
    hub_share = min(0.3, 2.0 * hub_fraction) if n_hubs else 0.0
    n_hub_e = int(n_edges * hub_share)
    n_noise = int((n_edges - n_hub_e) * noise)
    n_intra = n_edges - n_hub_e - n_noise

    u_parts, v_parts = [], []
    # Intra-block edges: u sampled by propensity, v from one of u's
    # subtopic pools within u's cluster.
    if n_intra:
        dist_u_all = prop_u / prop_u.sum()
        uu_i = rng.choice(n_u, size=n_intra, p=dist_u_all)
        ss_i = mem[uu_i, rng.integers(0, t_mem_eff, n_intra)]
        vv_i = np.empty(n_intra, dtype=np.int64)
        cc_i = labels_u[uu_i]
        for (c, s), (p, w) in pools.items():
            m = (cc_i == c) & (ss_i == s)
            if m.any():
                vv_i[m] = rng.choice(p, size=int(m.sum()), p=w)
        u_parts.append(uu_i)
        v_parts.append(vv_i)
    # Noise edges: both endpoints uniform over all vertices.
    if n_noise:
        u_parts.append(rng.integers(0, n_u, n_noise))
        v_parts.append(rng.integers(0, n_v, n_noise))
    # Hub edges: u uniform over U, v uniform over the hub set.
    if n_hub_e:
        u_parts.append(rng.integers(0, n_u, n_hub_e))
        v_parts.append(rng.choice(np.where(hub_mask)[0], size=n_hub_e))

    uu = np.concatenate(u_parts)
    vv = np.concatenate(v_parts)
    if weighted:
        # Zipf-ish positive integer weights (e.g. word counts, play counts).
        ww = np.minimum(1 + rng.geometric(0.4, len(uu)), 20).astype(np.float64)
    else:
        ww = np.ones(len(uu))
    edges = (
        pd.DataFrame({"u": uu.astype(np.int64), "v": vv.astype(np.int64), "w": ww})
        .groupby(["u", "v"], as_index=False)["w"]
        .sum()
    )
    return BipartiteDataset(name=name, edges=edges, labels_u=labels_u,
                            labels_v=labels_v, k=k)


# Registry of stand-ins for Table 2.  The five small datasets match the
# paper's |U| / |V| / |E| / k; the five large ones are scaled down (factor
# recorded in the "scale" field) to laptop scale — see DESIGN.md §4.
# Parameters sit in the fragmented high-noise regime where high-order
# affinities are required for good clustering (the paper's setting):
# heavy-tailed degrees (gamma ~ 2.1), cross-cluster hubs, and subtopic
# fragmentation (s_sub) so direct co-neighbourhoods are unreliable.
TABLE2_SPECS: dict[str, dict] = {
    "CORA":        dict(n_u=2_700,  n_v=1_400,  n_edges=49_200,  k=7,  weighted=False, noise=0.60, hub_fraction=0.06, gamma=2.1, s_sub=24, t_mem=2, scale=1),
    "CiteSeer":    dict(n_u=3_300,  n_v=3_700,  n_edges=105_200, k=6,  weighted=False, noise=0.55, hub_fraction=0.05, gamma=2.1, s_sub=20, t_mem=2, scale=1),
    "Flickr":      dict(n_u=7_600,  n_v=12_000, n_edges=182_500, k=9,  weighted=False, noise=0.60, hub_fraction=0.06, gamma=2.1, s_sub=24, t_mem=2, scale=1),
    "BlogCatalog": dict(n_u=5_200,  n_v=8_200,  n_edges=369_400, k=6,  weighted=False, noise=0.65, hub_fraction=0.06, gamma=2.1, s_sub=20, t_mem=2, scale=1),
    "PubMed":      dict(n_u=19_700, n_v=500,    n_edges=988_000, k=3,  weighted=True,  noise=0.60, hub_fraction=0.04, gamma=2.1, s_sub=8,  t_mem=2, scale=1),
    "CORA-F":      dict(n_u=9_900,  n_v=4_350,  n_edges=565_000, k=70, weighted=False, noise=0.50, hub_fraction=0.03, gamma=2.1, s_sub=4,  t_mem=2, scale=2),
    "LastFM-Asia": dict(n_u=7_600,  n_v=7_800,  n_edges=750_000, k=18, weighted=False, noise=0.55, hub_fraction=0.05, gamma=2.1, s_sub=8,  t_mem=2, scale=4),
    "MIND":        dict(n_u=9_400,  n_v=71_000, n_edges=1_650_000, k=18, weighted=True, noise=0.60, hub_fraction=0.05, gamma=2.1, s_sub=16, t_mem=2, scale=10),
    "LastFM":      dict(n_u=18_000, n_v=8_000,  n_edges=880_000, k=48, weighted=True,  noise=0.55, hub_fraction=0.04, gamma=2.1, s_sub=6,  t_mem=2, scale=20),
    "MAG":         dict(n_u=100_000, n_v=28_000, n_edges=3_000_000, k=8, weighted=True, noise=0.60, hub_fraction=0.05, gamma=2.1, s_sub=24, t_mem=2, scale=350),
}

SMALL_DATASETS = ["CORA", "CiteSeer", "Flickr", "BlogCatalog", "PubMed"]
LARGE_DATASETS = ["CORA-F", "LastFM-Asia", "MIND", "LastFM", "MAG"]


def make_dataset(name: str, *, seed: int = 0, size_factor: float = 1.0) -> BipartiteDataset:
    """Generate the stand-in for a Table-2 dataset by registry name.

    ``size_factor`` < 1 shrinks vertex and edge counts proportionally
    (used by unit tests to keep runtimes small while exercising every
    dataset configuration).
    """
    spec = dict(TABLE2_SPECS[name])
    spec.pop("scale")
    if size_factor != 1.0:
        spec["n_u"] = max(spec["k"] * 4, int(spec["n_u"] * size_factor))
        spec["n_v"] = max(spec["k"] * 2, int(spec["n_v"] * size_factor))
        spec["n_edges"] = max(spec["n_u"] * 4, int(spec["n_edges"] * size_factor))
    return bipartite_sbm(name=name, seed=seed, **spec)
