"""Table 5 — clustering quality on the 5 large datasets (scaled stand-ins).

Same grid as Table 4 over CORA-F / LastFM-Asia / MIND / LastFM / MAG.
Methods the paper reports as unable to finish ("-") are excluded per
dataset (see ``repro.tables.EXCLUDED``); the survivors on the three
largest are NMF, NRP and the HOPE family, exactly as in the paper.

Usage::

    python jobs/table5_quality_large.py [--size-factor F] [--n-runs N]
"""
import argparse
import json
import pathlib

from _session import get_spark

from repro.baselines import BASELINES, OUR_METHODS
from repro.synth_data import LARGE_DATASETS
from repro.tables import evaluate_dataset, render_table


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size-factor", type=float, default=1.0)
    ap.add_argument("--n-runs", type=int, default=1)
    ap.add_argument("--datasets", type=str, default=",".join(LARGE_DATASETS))
    ap.add_argument("--out", type=str, default="results/table5.json")
    args = ap.parse_args()
    datasets = args.datasets.split(",")

    spark = get_spark("table5")
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
