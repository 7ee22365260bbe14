"""Table 4 — clustering quality on the 5 small/medium datasets.

Runs all 13 competitors plus HOPE / HOPE+ (FNEM) / HOPE+ (SNEM) on the
CORA / CiteSeer / Flickr / BlogCatalog / PubMed stand-ins and prints the
paper-style Acc/F1/NMI/ARI grid with average ranks, plus per-method
runtimes (the Figure-7 measurement).  Results are also dumped to
``results/table4.json`` for EXPERIMENTS.md.

Usage::

    python jobs/table4_quality_small.py [--size-factor F] [--n-runs N]
                                        [--datasets CORA,CiteSeer,...]
"""
import argparse
import json
import pathlib

from _session import get_spark

from repro.baselines import BASELINES, OUR_METHODS
from repro.synth_data import SMALL_DATASETS
from repro.tables import EXCLUDED, evaluate_dataset, render_table


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size-factor", type=float, default=1.0)
    ap.add_argument("--n-runs", type=int, default=1)
    ap.add_argument("--datasets", type=str, default=",".join(SMALL_DATASETS))
    ap.add_argument("--out", type=str, default="results/table4.json")
    args = ap.parse_args()
    datasets = args.datasets.split(",")

    spark = get_spark("table4")
    per = {}
    for name in datasets:
        print(f"== {name} ==", flush=True)
        per[name] = evaluate_dataset(spark, name, seed=0,
                                     n_runs=args.n_runs,
                                     size_factor=args.size_factor)
    methods = [*BASELINES, *OUR_METHODS]
    print()
    print(render_table(per, methods, datasets))
    print("\nRuntimes (s):")
    for name in datasets:
        parts = [f"{m}={per[name][m]['time']:.1f}" for m in per[name]
                 if per[name][m]["time"] == per[name][m]["time"]]
        print(f"  {name}: " + "  ".join(parts))

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(per, indent=2))
    print(f"\nwrote {out}")
    spark.stop()


if __name__ == "__main__":
    main()
