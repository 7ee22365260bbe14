"""Table harness: per-dataset evaluation, ranks, and rendering."""
import numpy as np
import pytest

from repro.tables import (
    EXCLUDED,
    METRICS,
    average_ranks,
    evaluate_dataset,
    labels_from_assignment,
    render_table,
    run_our_method,
)
from repro.baselines import BASELINES
from repro.metrics import all_metrics
from repro.synth_data import SMALL_DATASETS, TABLE2_SPECS, make_dataset


class TestLabelsFromAssignment:
    def test_fills_missing_with_zero(self, spark):
        import pandas as pd
        df = spark.createDataFrame(
            pd.DataFrame({"id": [0, 2], "cluster": [1, 2]}))
        lab = labels_from_assignment(df, 4)
        np.testing.assert_array_equal(lab, [1, 0, 2, 0])

    def test_ignores_out_of_range_ids(self, spark):
        import pandas as pd
        df = spark.createDataFrame(
            pd.DataFrame({"id": [0, 99], "cluster": [1, 1]}))
        lab = labels_from_assignment(df, 3)
        np.testing.assert_array_equal(lab, [1, 0, 0])


class TestEvaluateDataset:
    def test_baseline_subset_tiny(self):
        res = evaluate_dataset(None, "CORA", methods=["NMF", "SBC"],
                               seed=0, size_factor=0.02, verbose=False)
        assert set(res) == {"NMF", "SBC"}
        for m in res.values():
            for metric in METRICS:
                assert 0.0 <= m[metric] <= 1.0 or metric == "ari"
            assert m["time"] >= 0.0

    def test_records_spread_over_runs(self):
        res = evaluate_dataset(None, "CORA", methods=["NMF", "SBC"],
                               seed=0, n_runs=2, size_factor=0.02,
                               verbose=False)
        ds = make_dataset("CORA", seed=0, size_factor=0.02)
        for m, r in res.items():
            fn = BASELINES[m][0]
            runs = [all_metrics(ds.labels_u, fn(ds, ds.k, seed=s))
                    for s in (0, 1)]
            for metric in METRICS:
                got = [x[metric] for x in runs]
                assert r[metric] == pytest.approx(np.mean(got))
                assert r[f"{metric}_sd"] == pytest.approx(np.std(got))

    def test_our_methods_tiny(self, spark):
        res = evaluate_dataset(spark, "CORA", methods=["HOPE+ (SNEM)"],
                               seed=0, size_factor=0.02, verbose=False)
        assert "HOPE+ (SNEM)" in res
        assert res["HOPE+ (SNEM)"]["acc"] is not None

    def test_spark_required_for_our_methods(self):
        res = evaluate_dataset(None, "CORA", methods=["HOPE"],
                               seed=0, size_factor=0.02, verbose=False)
        # failure is recorded as dashes, not raised
        assert res["HOPE"]["acc"] is None

    def test_run_our_method_rejects_unknown(self, spark):
        ds = make_dataset("CORA", size_factor=0.02)
        with pytest.raises(ValueError):
            run_our_method(spark, ds, "NOPE")


class TestRanks:
    def test_average_ranks_simple(self):
        per = {
            "d1": {
                "A": {"acc": 0.9, "f1": 0.9, "nmi": 0.9, "ari": 0.9},
                "B": {"acc": 0.1, "f1": 0.1, "nmi": 0.1, "ari": 0.1},
            }
        }
        ranks = average_ranks(per, ["A", "B"])
        assert ranks["A"] == 1.0
        assert ranks["B"] == 2.0

    def test_missing_gets_worst_rank(self):
        per = {
            "d1": {
                "A": {"acc": 0.9, "f1": 0.9, "nmi": 0.9, "ari": 0.9},
                "B": {"acc": None, "f1": None, "nmi": None, "ari": None},
            }
        }
        ranks = average_ranks(per, ["A", "B"])
        assert ranks["B"] == 2.0

    def test_render_table_contains_methods_and_dashes(self):
        per = {
            "d1": {
                "A": {"acc": 0.5, "f1": 0.4, "nmi": 0.3, "ari": 0.2,
                      "time": 1.0},
                "B": {"acc": None, "f1": None, "nmi": None, "ari": None,
                      "time": float("nan")},
            }
        }
        txt = render_table(per, ["A", "B"], ["d1"])
        assert "| A |" in txt
        assert "0.500" in txt
        assert "-" in txt


class TestExclusions:
    def test_excluded_covers_all_datasets(self):
        assert set(EXCLUDED) == set(TABLE2_SPECS)

    def test_large_datasets_keep_only_survivors(self):
        for name in ("MIND", "LastFM", "MAG"):
            allowed = set(k for k in EXCLUDED) and None
            from repro.baselines import BASELINES
            left = set(BASELINES) - EXCLUDED[name]
            assert left == {"NMF", "NRP"}

    def test_small_datasets_run_most_methods(self):
        for name in SMALL_DATASETS:
            assert len(EXCLUDED[name]) <= 1
