"""Tests of the layer tracer: jobs go to the innermost open layer, tail and
``under`` hooks open where documented, and every wrapped function is put
back.  Run from the repository root:

    PYTHONPATH=src python -m pytest hopebench -q
"""
import types

import numpy as np
import pytest

from hopebench.layers import COUNT, LAYERS, ROOT, TAIL, Hook, Tracer, pipeline_hooks
from hopebench.probes import SparkProbe


def _one_job(spark, n=4):
    """Exactly one Spark job (an RDD count has no SQL exchange)."""
    return spark.sparkContext.parallelize(range(n), 1).count()


def _fake_pipeline(spark):
    """outer -> load (tail), inner x2, svd -> helper (tail under svd),
    ortho -> helper (transparent there)."""
    m = types.ModuleType("fake_pipeline")

    def load():
        return "edges"

    def helper():
        return None

    def inner():
        _one_job(spark)

    def ortho():
        m.helper()
        _one_job(spark)

    def svd():
        m.ortho()
        m.helper()
        _one_job(spark)
        _one_job(spark)

    def step():
        return None

    def outer():
        m.load()
        _one_job(spark)          # after load returns: still load's tail
        m.inner()
        _one_job(spark)          # outer's own job
        m.inner()
        m.svd()
        m.step()
        m.step()

    for f in (load, helper, inner, ortho, svd, step, outer):
        setattr(m, f.__name__, f)
    return m


def _hooks(m):
    return [Hook("outer", m, "outer"), Hook("load", m, "load", TAIL),
            Hook("inner", m, "inner"), Hook("svd", m, "svd"),
            Hook("ortho", m, "ortho"),
            Hook("ritz", m, "helper", TAIL, under="svd"),
            Hook("outer", m, "step", COUNT)]


def test_jobs_are_charged_to_the_innermost_open_layer(spark):
    m = _fake_pipeline(spark)
    probe = SparkProbe(spark.sparkContext)
    tracer = Tracer(spark.sparkContext, probe, _hooks(m), prefix="t-jobs:")
    with tracer:
        m.outer()
    report = tracer.report(probe.job_stats(tracer.groups()))
    jobs = {name: r["jobs"] for name, r in report.items()}
    assert jobs == {"outer": 1, "load": 1, "inner": 2, "svd": 0,
                    "ortho": 1, "ritz": 2, ROOT: 0}
    calls = {name: r["calls"] for name, r in report.items()}
    # outer's calls are the COUNT hook's: step ran twice.
    assert calls == {"outer": 2, "load": 1, "inner": 2, "svd": 1,
                     "ortho": 1, "ritz": 1, ROOT: 0}
    assert all(r["tasks"] == r["jobs"] for r in report.values())
    self_sum = sum(r["self_s"] for r in report.values())
    root = tracer.spans[0]
    assert self_sum == pytest.approx(root.end - root.start, rel=1e-9)
    assert all(0 <= r["idle_s"] <= r["self_s"] + 1e-9
               for r in report.values())


def test_every_function_is_restored_even_when_the_call_raises(spark):
    m = _fake_pipeline(spark)

    def boom():
        m.inner()
        raise ValueError("boom")

    m.boom = boom
    hooks = _hooks(m) + [Hook("boom", m, "boom")]
    before = {h.attr: vars(m)[h.attr] for h in hooks}
    tracer = Tracer(spark.sparkContext, SparkProbe(spark.sparkContext),
                    hooks, prefix="t-raise:")
    with pytest.raises(ValueError):
        with tracer:
            m.boom()
    assert tracer.restored
    assert all(vars(m)[a] is f for a, f in before.items())


@pytest.mark.parametrize("method", ["HOPE+ (SNEM)", "HOPE"])
def test_traced_pipeline_matches_the_untraced_call(spark, method):
    """On a tiny graph: the traced call runs the same jobs and returns the
    same labels as an untraced one, every job lands in a layer, and the
    pipeline's functions are restored afterwards."""
    from repro.synth_data import bipartite_sbm
    from repro.tables import run_our_method

    ds = bipartite_sbm(n_u=60, n_v=40, n_edges=400, k=3, noise=0.1, seed=3)
    sc = spark.sparkContext
    probe = SparkProbe(sc)

    def run():
        return run_our_method(spark, ds, method, beta=6, seed=5, svd_iter=1)

    sc.setJobGroup("t-untraced", "test")
    try:
        plain = run()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    untraced = probe.job_stats({"t-untraced"}).totals()

    hooks = pipeline_hooks()
    before = [vars(h.owner)[h.attr] for h in hooks]
    tracer = Tracer(sc, probe, hooks, prefix="t-pipe:")
    with tracer:
        traced = run()
    assert tracer.restored
    assert all(vars(h.owner)[h.attr] is f for h, f in zip(hooks, before))

    stats = probe.job_stats(tracer.groups())
    report = tracer.report(stats)
    np.testing.assert_array_equal(traced, plain)
    assert tracer.layers == LAYERS
    assert report[ROOT]["jobs"] == 0
    assert sum(r["jobs"] for r in report.values()) == untraced["jobs"]
    assert (sum(r["shuffle_mb"] for r in report.values()) * 1e6
            == pytest.approx(untraced["shuffle_bytes"], abs=1))
    # Lazy plan builders run no job of their own.
    assert report["graph"]["jobs"] == 0 and report["svd.spgemm"]["jobs"] == 0
    assert report["graph"]["calls"] == 4
    assert report["svd.orthonormalize"]["calls"] == 2   # start + 1 iteration
    assert report["svd.spgemm"]["calls"] == 3           # 2 per iteration + 1
    assert report["svd.ritz"]["jobs"] > 0 and report["collect"]["jobs"] > 0
    if method == "HOPE":
        assert report["kmeans"]["jobs"] > 0 and report["rounding"]["calls"] == 0
    else:
        assert report["kmeans"]["calls"] == 0
        assert report["rounding"]["calls"] >= 2     # seeding + >= 1 update
