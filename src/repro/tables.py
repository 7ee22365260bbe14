"""Harness shared by the Table-4 / Table-5 jobs.

Runs every method (the 13 numpy baselines + the three Spark HOPE-family
methods) over a list of generated datasets, computes Acc/F1/NMI/ARI and
wall-clock time, and renders the paper-style grid including the average
rank column.  Methods that cannot run at a dataset's scale are recorded
as "-" exactly like the paper's tables.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from .baselines import BASELINES, OUR_METHODS
from .core.hope import hope
from .core.hopeplus import hopeplus
from .metrics import all_metrics
from .synth_data import BipartiteDataset, make_dataset

METRICS = ["acc", "f1", "nmi", "ari"]

#: Methods feasible per dataset, mirroring the paper's dashes: Table 5
#: shows only NMF / NRP / HOPE-family finishing on MIND, LastFM and MAG,
#: and BiSBM-KL failing on CORA-F.  (On our scaled stand-ins some would
#: technically finish, but the point of the table is the paper's
#: feasibility frontier, so the same methods are excluded.)
EXCLUDED: dict[str, set[str]] = {
    "CORA": set(),
    "CiteSeer": set(),
    "Flickr": {"Girvan-Newman"},
    "BlogCatalog": {"Girvan-Newman"},
    "PubMed": {"Girvan-Newman"},
    "CORA-F": {"Girvan-Newman", "BiSBM-KL"},
    "LastFM-Asia": {"Girvan-Newman", "LE"},
    "MIND": set(BASELINES) - {"NMF", "NRP"},
    "LastFM": set(BASELINES) - {"NMF", "NRP"},
    "MAG": set(BASELINES) - {"NMF", "NRP"},
}


def labels_from_assignment(assign_df, n_u: int) -> np.ndarray:
    """(id, cluster) DataFrame -> dense label array over 0..n_u-1
    (vertices absent from the edge list fall into cluster 0)."""
    pdf = assign_df.toPandas()
    lab = np.zeros(n_u, dtype=np.int64)
    ids = pdf["id"].to_numpy()
    ok = (ids >= 0) & (ids < n_u)
    lab[ids[ok]] = pdf["cluster"].to_numpy()[ok]
    return lab


def run_our_method(spark: SparkSession, ds: BipartiteDataset, method: str,
                   *, alpha: float = 0.3, beta: int | None = None,
                   seed: int = 42, svd_iter: int = 5) -> np.ndarray:
    """Run one of ``OUR_METHODS`` (HOPE / HOPE+ (FNEM) / HOPE+ (SNEM)) on
    Spark, return U labels."""
    if method not in OUR_METHODS:
        raise ValueError(method)
    urt, _ = OUR_METHODS[method]
    edges = ds.to_spark(spark).localCheckpoint(eager=True)
    if urt is None:
        assign = hope(edges, ds.k, alpha=alpha, beta=beta, seed=seed,
                      svd_iter=svd_iter)
    else:
        assign = hopeplus(edges, ds.k, alpha=alpha, beta=beta, urt=urt,
                          seed=seed, svd_iter=svd_iter)
    return labels_from_assignment(assign, ds.n_u)


def evaluate_dataset(spark: SparkSession | None, name: str, *,
                     methods: list[str] | None = None, seed: int = 0,
                     n_runs: int = 1, size_factor: float = 1.0,
                     beta_mult: int = 5, verbose: bool = True
                     ) -> dict[str, dict]:
    """All requested methods on one dataset.  Returns
    {method: {"acc":…, "f1":…, "nmi":…, "ari":…, "time": seconds,
    "acc_sd":…, …}}: each metric's mean and standard deviation (``np.std``)
    over ``n_runs`` differently-seeded runs."""
    ds = make_dataset(name, seed=seed, size_factor=size_factor)
    if methods is None:
        methods = [m for m in BASELINES if m not in EXCLUDED.get(name, set())]
        methods += list(OUR_METHODS)
    results: dict[str, dict] = {}
    for m in methods:
        vals = {k: [] for k in METRICS}
        t0 = time.time()
        try:
            for run in range(n_runs):
                if m in OUR_METHODS:
                    if spark is None:
                        raise RuntimeError("Spark session required for " + m)
                    beta = beta_mult * ds.k
                    lab = run_our_method(spark, ds, m, seed=seed + run,
                                         beta=beta)
                else:
                    fn = BASELINES[m][0]
                    lab = fn(ds, ds.k, seed=seed + run)
                got = all_metrics(ds.labels_u, lab)
                for k in METRICS:
                    vals[k].append(got[k])
        except Exception as exc:  # record failures as dashes, keep going
            if verbose:
                print(f"  !! {m} failed on {name}: {exc}")
            results[m] = {"time": float("nan"),
                          **{k: None for k in METRICS},
                          **{f"{k}_sd": None for k in METRICS}}
            continue
        elapsed = (time.time() - t0) / max(n_runs, 1)
        results[m] = {"time": elapsed,
                      **{k: float(np.mean(vals[k])) for k in METRICS},
                      **{f"{k}_sd": float(np.std(vals[k])) for k in METRICS}}
        if verbose:
            r = results[m]
            print(f"  {m:<14s} acc={r['acc']:.3f} f1={r['f1']:.3f} "
                  f"nmi={r['nmi']:.3f} ari={r['ari']:.3f} "
                  f"({elapsed:.1f}s)", flush=True)
    return results


def average_ranks(per_dataset: dict[str, dict[str, dict]],
                  methods: list[str]) -> dict[str, float]:
    """Paper-style average rank: for every dataset x metric, rank the
    methods (1 = best); missing entries get the worst rank."""
    ranks: dict[str, list[float]] = {m: [] for m in methods}
    n = len(methods)
    for res in per_dataset.values():
        for metric in METRICS:
            scored = []
            for m in methods:
                v = res.get(m, {}).get(metric)
                scored.append((m, -np.inf if v is None else v))
            scored.sort(key=lambda t: -t[1])
            for pos, (m, v) in enumerate(scored, start=1):
                ranks[m].append(float(pos) if v != -np.inf else float(n))
    return {m: float(np.mean(v)) if v else float("nan")
            for m, v in ranks.items()}


def render_table(per_dataset: dict[str, dict[str, dict]],
                 methods: list[str], dataset_names: list[str]) -> str:
    """Markdown grid in the shape of the paper's Tables 4/5."""
    ranks = average_ranks(per_dataset, methods)
    hdr = ["Algorithm"]
    for d in dataset_names:
        hdr += [f"{d}:{m}" for m in ("Acc", "F1", "NMI", "ARI")]
    hdr += ["Rank"]
    lines = ["| " + " | ".join(hdr) + " |",
             "|" + "---|" * len(hdr)]
    for m in methods:
        row = [m]
        for d in dataset_names:
            r = per_dataset[d].get(m, {})
            for metric in METRICS:
                v = r.get(metric)
                row.append("-" if v is None else f"{v:.3f}")
        row.append(f"{ranks[m]:.2f}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)
