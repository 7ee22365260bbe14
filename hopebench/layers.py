"""Per-layer trace of one pipeline call, recorded from outside ``src/``.

The tracer replaces a module or class attribute with a wrapper for the
length of a ``with`` block and puts the original back on exit.  Each
wrapper opens a span named after a layer; spans nest, and a layer's
self time is its spans' time minus the time of the spans nested in them.

Charging rule.  At every span boundary the tracer sets the Spark job
group to the innermost open layer, so every job is charged to the layer
that was innermost when the job was submitted, and every stage to the
job that ran it.  Spark is lazy: a function that only builds a plan
(``q_edges``, ``spgemm``, ``_argmax_assign``, ``KMeansModel.transform``)
runs no job, and its joins and shuffles are charged to the layer whose
action pulls them in.  So ``svd``'s first checkpoint pays for the
``q_edges`` joins, ``svd.orthonormalize`` and ``svd.ritz`` pay for the
``spgemm`` products, and ``collect``'s ``toPandas`` pays for the final
argmax or the k-means transform.  The tracer adds no materialisation,
so a traced call runs exactly the jobs of an untraced one.

Codegen compiles are charged the same way as jobs, by reading Spark's
``CodegenMetrics`` counter at every boundary.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .probes import JobStats, SparkProbe

SPAN, TAIL, COUNT = "span", "tail", "count"

#: Layers in report order.  ``svd.*`` are children of ``svd``.
LAYERS = ["load", "graph", "svd", "svd.spgemm", "svd.orthonormalize",
          "svd.ritz", "embed", "stage1", "rounding", "kmeans", "collect"]
LAYER_METRICS = [("self_s", "s"), ("idle_s", "s"), ("task_s", "s"),
                 ("jobs", "count"), ("tasks", "count"),
                 ("shuffle_mb", "MB"), ("codegen", "count"),
                 ("calls", "count")]
ROOT = "-"


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` as layer ``layer``.

    ``kind`` is SPAN (open while the function runs), TAIL (stays open
    after the function returns, until the next span opens or the parent
    closes) or COUNT (no span; each call adds one to ``layer``'s calls).
    With ``under`` set, the hook opens a span only when that layer is the
    innermost open span, and is transparent otherwise.
    """

    layer: str
    owner: object
    attr: str
    kind: str = SPAN
    under: str | None = None


def pipeline_hooks() -> list[Hook]:
    """The layers of ``repro.tables.run_our_method``, named after modules.

    Each hook patches the name the caller looks up, so ``spgemm`` is
    patched in ``linalg.skinny`` (where ``svd_topk`` finds it) and not in
    ``core.hope``, whose ``P · U_Q`` product stays part of ``embed``.
    """
    from importlib import import_module

    from repro.synth_data import BipartiteDataset

    # import_module, because repro.core re-exports functions named like
    # its submodules (``repro.core.hope`` the function shadows the module).
    hope_mod = import_module("repro.core.hope")
    hopeplus_mod = import_module("repro.core.hopeplus")
    skinny = import_module("repro.linalg.skinny")
    tables = import_module("repro.tables")

    return [
        # run_our_method's localCheckpoint runs after to_spark returns.
        Hook("load", BipartiteDataset, "to_spark", TAIL),
        *(Hook("graph", hope_mod, f)
          for f in ("q_edges", "p_edges", "u_ids", "v_ids")),
        Hook("svd", hope_mod, "svd_topk"),
        Hook("svd.spgemm", skinny, "spgemm"),
        Hook("svd.orthonormalize", skinny, "orthonormalize"),
        # The final Gram, eigh, matmul_small and fill_missing: from the
        # first Gram svd_topk takes itself to its return.
        Hook("svd.ritz", skinny, "gram", TAIL, under="svd"),
        Hook("embed", hope_mod, "hop_embedding"),
        Hook("embed", hopeplus_mod, "hop_embedding"),
        Hook("stage1", hopeplus_mod, "truncated_svd_of_skinny"),
        Hook("rounding", tables, "hopeplus"),
        Hook("rounding", hopeplus_mod, "_rounding_step", COUNT),
        Hook("kmeans", hope_mod, "kmeans_assign"),
        Hook("collect", tables, "labels_from_assignment"),
    ]


@dataclass
class _Span:
    name: str
    tail: bool
    start: float
    end: float | None = None
    children: list[tuple[float, float]] = field(default_factory=list)

    def self_intervals(self) -> list[tuple[float, float]]:
        out, t = [], self.start
        for a, b in sorted(self.children):
            if a > t:
                out.append((t, a))
            t = max(t, b)
        if self.end > t:
            out.append((t, self.end))
        return out


def _overlap(intervals: list[tuple[float, float]],
             busy: list[tuple[float, float]]) -> float:
    """Length of the part of ``intervals`` covered by the union of
    ``busy`` (both lists of (start, end) seconds)."""
    merged: list[list[float]] = []
    for a, b in sorted(busy):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return sum(max(0.0, min(b, y) - max(a, x))
               for a, b in intervals for x, y in merged)


class Tracer:
    """Context manager that installs ``hooks`` for one call.

    On exit every patched attribute is put back, also when the call
    raises; ``restored`` then says whether each one is the original
    object again.
    """

    def __init__(self, sc, probe: SparkProbe, hooks: list[Hook],
                 prefix: str = "trace:"):
        self.sc, self.probe, self.hooks, self.prefix = sc, probe, hooks, prefix
        self.spans: list[_Span] = []
        self.codegen: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[_Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.layers = list(dict.fromkeys(h.layer for h in hooks))
        self._counted = {h.layer for h in hooks if h.kind == COUNT}
        self._last_codegen = 0
        self.restored: bool | None = None
        self.overhead_s = 0.0

    # -- span bookkeeping --------------------------------------------------

    def _innermost(self) -> str:
        return self._stack[-1].name

    def _boundary(self) -> float:
        """Charge codegen since the last boundary to the innermost layer."""
        t0 = time.perf_counter()
        n = self.probe.codegen_count()
        name = self._innermost()
        self.codegen[name] = self.codegen.get(name, 0) + n - self._last_codegen
        self._last_codegen = n
        self.overhead_s += time.perf_counter() - t0
        return time.time()

    def _set_group(self) -> None:
        t0 = time.perf_counter()
        self.sc.setJobGroup(self.prefix + self._innermost(), "hopebench")
        self.overhead_s += time.perf_counter() - t0

    def _pop(self, now: float) -> None:
        span = self._stack.pop()
        span.end = now
        if self._stack:
            self._stack[-1].children.append((span.start, now))

    def _open(self, name: str, tail: bool) -> None:
        now = self._boundary()
        while self._stack[-1].tail:
            self._pop(now)
        span = _Span(name, tail, now)
        self.spans.append(span)
        self._stack.append(span)
        if name not in self._counted:
            self.calls[name] = self.calls.get(name, 0) + 1
        self._set_group()

    def _close(self, span: _Span) -> None:
        now = self._boundary()
        while self._stack[-1] is not span:
            self._pop(now)
        self._pop(now)
        self._set_group()

    def _wrap(self, hook: Hook, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if hook.kind == COUNT:
                tracer.calls[hook.layer] = tracer.calls.get(hook.layer, 0) + 1
                return fn(*args, **kwargs)
            if hook.under is not None and tracer._innermost() != hook.under:
                return fn(*args, **kwargs)
            tracer._open(hook.layer, hook.kind == TAIL)
            span = tracer._stack[-1]
            if hook.kind == TAIL:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for h in self.hooks:
            original = vars(h.owner)[h.attr]
            self._saved.append((h.owner, h.attr, original))
            setattr(h.owner, h.attr, self._wrap(h, original))
        self._last_codegen = self.probe.codegen_count()
        root = _Span(ROOT, False, time.time())
        self.spans.append(root)
        self._stack = [root]
        self._set_group()
        return self

    def __exit__(self, *exc) -> None:
        try:
            now = self._boundary()
            while self._stack:
                self._pop(now)
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self.restored = all(vars(o)[a] is orig
                                for o, a, orig in self._saved)

    # -- report ------------------------------------------------------------

    def groups(self) -> set[str]:
        """The job groups of the traced call: one per layer, and ROOT."""
        return {self.prefix + n for n in self.layers + [ROOT]}

    def report(self, stats: JobStats) -> dict[str, dict[str, float]]:
        """Per layer (and ROOT, the time no layer covers): the metrics of
        LAYER_METRICS, from the spans and the call's ``stats``."""
        out = {}
        for name in self.layers + [ROOT]:
            group = self.prefix + name
            spans = [s for s in self.spans if s.name == name]
            self_iv = [iv for s in spans for iv in s.self_intervals()]
            self_s = sum(b - a for a, b in self_iv)
            stages = [s for s in stats.stages if s.group == group]
            busy = [(s.start_ms / 1e3, s.end_ms / 1e3) for s in stages]
            tot = stats.totals({group})
            out[name] = {
                "self_s": self_s,
                "idle_s": self_s - _overlap(self_iv, busy),
                "task_s": tot["task_s"],
                "jobs": tot["jobs"],
                "tasks": tot["tasks"],
                "shuffle_mb": tot["shuffle_bytes"] / 1e6,
                "codegen": self.codegen.get(name, 0),
                "calls": self.calls.get(name, 0),
            }
        return out
