"""Tables 4 and 5 — clustering quality on the small and the large datasets.

Runs all 13 competitors plus HOPE / HOPE+ (FNEM) / HOPE+ (SNEM) on the
Table-4 stand-ins (CORA / CiteSeer / Flickr / BlogCatalog / PubMed) or
the Table-5 ones (CORA-F / LastFM-Asia / MIND / LastFM / MAG) and prints
the paper-style Acc/F1/NMI/ARI grid with average ranks, plus per-method
runtimes (the Figure-7 measurement).  Methods the paper reports as
unable to finish ("-") are excluded per dataset (``repro.tables.EXCLUDED``).
Results are also dumped to ``results/table{4,5}.json`` for EXPERIMENTS.md.

Usage::

    python jobs/table_quality.py --table {4,5} [--size-factor F]
                                 [--n-runs N] [--datasets CORA,...]
"""
import argparse
import json
import pathlib

from _session import get_spark

from repro.baselines import BASELINES, OUR_METHODS
from repro.synth_data import LARGE_DATASETS, SMALL_DATASETS
from repro.tables import evaluate_dataset, render_table

DATASETS = {4: SMALL_DATASETS, 5: LARGE_DATASETS}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", type=int, choices=sorted(DATASETS),
                    required=True)
    ap.add_argument("--size-factor", type=float, default=1.0)
    ap.add_argument("--n-runs", type=int, default=1)
    ap.add_argument("--datasets", type=str, default=None)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()
    datasets = (args.datasets or ",".join(DATASETS[args.table])).split(",")
    out = pathlib.Path(args.out or f"results/table{args.table}.json")

    spark = get_spark(f"table{args.table}")
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

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(per, indent=2))
    print(f"\nwrote {out}")
    spark.stop()


if __name__ == "__main__":
    main()
