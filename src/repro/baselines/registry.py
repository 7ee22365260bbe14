"""Registry of the 13 competitor methods and of the three HOPE-family
methods (paper Table 3).

Each ``BASELINES`` entry: display name -> (callable(ds, k, seed=..) ->
labels, category, time-complexity string as printed in Table 3).
"""
from __future__ import annotations

from .birch import birch_baseline
from .bisbm import bisbm_kl_baseline, bisbm_mcmc_baseline
from .girvan_newman import girvan_newman_baseline
from .kmeans import kmeans_baseline
from .kmedoids import kmedoids_baseline
from .le import le_baseline
from .nmf import nmf_baseline
from .ppr import nrp_baseline, ppr_baseline
from .spectral import sbc_baseline, sc_baseline, scc_baseline

BASELINES: dict[str, tuple] = {
    "LE": (le_baseline, "Graph Clustering", "O((|U|+|V|)^2 + |E|)"),
    "Girvan-Newman": (girvan_newman_baseline, "Graph Clustering", "O(|U| * |E|^2)"),
    "SC": (sc_baseline, "Graph Clustering", "O(k * |U|^2)"),
    "NRP": (nrp_baseline, "Graph Clustering", "O(k * (|E| + k|U|) * log|U|)"),
    "PPR": (ppr_baseline, "Graph Clustering", "O(|E|(|U|+|V|) + k|U||V|)"),
    "K-Means": (kmeans_baseline, "Data Clustering", "O(k * |U| * |V|)"),
    "K-Medoids": (kmedoids_baseline, "Data Clustering", "O(k * |U|^2 * |V|)"),
    "Birch": (birch_baseline, "Data Clustering", "O(|V| * |U| log|U|)"),
    "NMF": (nmf_baseline, "Data Clustering", "O((|E|+|U|+|V|) * k)"),
    "SBC": (sbc_baseline, "BGC", "O((|E| + |U|k + |V|k) * k)"),
    "SCC": (scc_baseline, "BGC", "O((|E| + |U|k + |V|k) * log k)"),
    "BiSBM-KL": (bisbm_kl_baseline, "BGC", "O((|U|+|V|) * k^2)"),
    "BiSBM-MCMC": (bisbm_mcmc_baseline, "BGC", "O((|U|+|V|)k + |E| log^2(|U|+|V|))"),
}

#: The three HOPE-family methods, run on Spark by ``repro.tables``:
#: display name -> (HOPE+ rounding rule, None for HOPE; Table-3 complexity).
OUR_METHODS: dict[str, tuple[str | None, str]] = {
    "HOPE": (None, "O((|E| + |U|k) * beta)"),
    "HOPE+ (FNEM)": ("fnem", "O(|E|beta + |U|beta^2 + |U|k^2)"),
    "HOPE+ (SNEM)": ("snem", "O(|E|beta + |U|beta^2 + |U|k)"),
}
