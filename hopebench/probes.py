"""Counters the benchmark reads around a call: the driver JVM's MXBeans,
Spark's status store, the block manager and ``/proc``.

Nothing here changes what the pipeline does.  Every reader is a query
that runs between calls, never inside a timed call, except the job-group
and codegen reads the tracer makes at layer boundaries.
"""
from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_children_cpu_ticks(root_pid: int) -> int:
    """utime + stime + cutime + cstime summed over ``root_pid`` and every
    live descendant.  A worker that exits is reaped by its parent, whose
    cutime/cstime then carries its CPU, so the sum never loses work."""
    parent: dict[int, int] = {}
    ticks: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                raw = fh.read()
        except OSError:  # the process exited while we listed /proc
            continue
        # Fields after the ")" that closes the command name; ppid is the
        # 2nd, utime..cstime the 12th..15th.
        rest = raw[raw.rfind(")") + 2:].split()
        pid = int(name)
        parent[pid] = int(rest[1])
        ticks[pid] = sum(int(x) for x in rest[11:15])
    total = 0
    for pid, t in ticks.items():
        p = pid
        while p and p != root_pid and p in parent and p != parent[p]:
            p = parent[p]
        if p == root_pid:
            total += t
    return total


def process_tree_cpu_s() -> float:
    """CPU seconds used so far by this process and all its descendants:
    the driver Python, the JVM and Spark's Python workers."""
    return _proc_children_cpu_ticks(os.getpid()) / _CLK_TCK


def host_steal_s() -> float:
    """Host CPU steal time so far, summed over CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return (int(fields[8]) if len(fields) > 8 else 0) / _CLK_TCK


@dataclass(frozen=True)
class Counters:
    """Cumulative counters at one instant; subtract two for a call's cost."""

    cpu_s: float
    steal_s: float
    jit_s: float
    gc_s: float
    codegen: int

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(self.cpu_s - other.cpu_s,
                        self.steal_s - other.steal_s,
                        self.jit_s - other.jit_s,
                        self.gc_s - other.gc_s,
                        self.codegen - other.codegen)


class SparkProbe:
    """Read-only view of one SparkContext's JVM-side counters."""

    def __init__(self, sc):
        self.sc = sc
        jvm = sc._jvm
        mf = jvm.java.lang.management.ManagementFactory
        self._jit = mf.getCompilationMXBean()
        self._gcs = list(mf.getGarbageCollectorMXBeans())
        self._codegen = (jvm.org.apache.spark.metrics.source.CodegenMetrics
                         .METRIC_COMPILATION_TIME())
        self._jsc = sc._jsc.sc()
        self._store = self._jsc.statusStore()
        self._quantiles = getattr(self._store, "stageList$default$4")()
        scala_module = getattr(
            getattr(jvm.com.fasterxml.jackson.module.scala,
                    "DefaultScalaModule$"), "MODULE$")
        self._mapper = jvm.com.fasterxml.jackson.databind.ObjectMapper()
        self._mapper.registerModule(scala_module)

    # -- cheap counters ----------------------------------------------------

    def codegen_count(self) -> int:
        """Catalyst whole-stage / expression codegen compiles so far."""
        return int(self._codegen.getCount())

    def counters(self) -> Counters:
        gc_ms = sum(int(b.getCollectionTime()) for b in self._gcs)
        return Counters(process_tree_cpu_s(), host_steal_s(),
                        int(self._jit.getTotalCompilationTime()) / 1e3,
                        gc_ms / 1e3, self.codegen_count())

    def storage(self) -> tuple[int, int]:
        """(cached RDDs, bytes in memory + on disk) held by the block
        manager right now."""
        infos = self._jsc.getRDDStorageInfo()
        return len(infos), sum(int(i.memSize()) + int(i.diskSize())
                               for i in infos)

    # -- hygiene -----------------------------------------------------------

    def collect_garbage(self, baseline_rdds: int, timeout_s: float
                        ) -> tuple[int, int, bool]:
        """Python ``gc.collect`` and a JVM GC, then wait for Spark's
        ContextCleaner to drop unreferenced checkpoints until the block
        manager holds no more RDDs than ``baseline_rdds``.  Returns the
        storage then, and whether the baseline was reached."""
        gc.collect()
        self.sc._jvm.System.gc()
        deadline = time.monotonic() + timeout_s
        while True:
            n, nbytes = self.storage()
            if n <= baseline_rdds:
                return n, nbytes, True
            if time.monotonic() > deadline:
                return n, nbytes, False
            time.sleep(0.05)
            self.sc._jvm.System.gc()

    # -- status store ------------------------------------------------------

    def _settle(self) -> None:
        """Block until the listener bus has delivered every event, so the
        status store is complete for the jobs that already returned."""
        self._jsc.listenerBus().waitUntilEmpty()

    def job_stats(self, groups: set[str]) -> "JobStats":
        """Jobs whose job group is in ``groups`` and the stages they ran."""
        self._settle()
        jobs = json.loads(self._mapper.writeValueAsString(
            self._store.jobsList(None)))
        jobs = [j for j in jobs if j.get("jobGroup") in groups]
        stages = json.loads(self._mapper.writeValueAsString(
            self._store.stageList(None, False, False, self._quantiles, None)))
        return JobStats.build(jobs, stages)


@dataclass
class StageRun:
    group: str
    tasks: int
    run_ms: int
    shuffle_write_bytes: int
    start_ms: int
    end_ms: int


@dataclass
class JobStats:
    """Jobs per job group, and every stage that actually ran, charged to the
    first job that lists it (later jobs list it as skipped)."""

    jobs_by_group: dict[str, int]
    stages: list[StageRun]

    @classmethod
    def build(cls, jobs: list[dict], stages: list[dict]) -> "JobStats":
        by_group: dict[str, int] = {}
        owner: dict[int, tuple[int, str]] = {}
        submitted = {j["jobId"]: j["submissionTime"] for j in jobs}
        for j in jobs:
            if j["status"] != "SUCCEEDED":
                raise RuntimeError(f"Spark job {j['jobId']} {j['status']}")
            by_group[j["jobGroup"]] = by_group.get(j["jobGroup"], 0) + 1
            for sid in j["stageIds"]:
                if sid not in owner or owner[sid][0] > j["jobId"]:
                    owner[sid] = (j["jobId"], j["jobGroup"])
        ran = []
        for s in stages:
            if s["stageId"] not in owner or s["status"] == "SKIPPED":
                continue
            job_id, group = owner[s["stageId"]]
            if s["submissionTime"] < submitted[job_id]:
                continue  # ran for an earlier job outside these groups
            if s["status"] != "COMPLETE":
                raise RuntimeError(f"stage {s['stageId']} is {s['status']}")
            ran.append(StageRun(group,
                                int(s["numCompleteTasks"]),
                                int(s["executorRunTime"]),
                                int(s["shuffleWriteBytes"]),
                                int(s["submissionTime"]),
                                int(s["completionTime"])))
        # A stage every job skipped never ran; one absent from the store was
        # evicted, which would undercount, so refuse.
        listed = {sid for j in jobs for sid in j["stageIds"]}
        present = {s["stageId"] for s in stages}
        missing = listed - present
        if missing:
            raise RuntimeError(f"stages {sorted(missing)[:5]} are missing "
                               "from the status store")
        return cls(by_group, ran)

    def totals(self, groups: set[str] | None = None) -> dict[str, float]:
        pick = [s for s in self.stages if groups is None or s.group in groups]
        jobs = sum(n for g, n in self.jobs_by_group.items()
                   if groups is None or g in groups)
        return {"jobs": jobs,
                "tasks": sum(s.tasks for s in pick),
                "task_s": sum(s.run_ms for s in pick) / 1e3,
                "shuffle_bytes": sum(s.shuffle_write_bytes for s in pick)}
