"""Experiment driver: build indexes, run workloads, measure both costs.

``build_index`` is the single factory the figure drivers and benchmarks use;
``run_workload`` executes a :class:`~repro.datasets.workload.QueryWorkload`
against one index, charging I/O through the shared accountant and timing CPU
with ``perf_counter``, and reports both raw and scan-normalized costs.

Indexes are built by repeated insertion by default — the construction the
paper timed; the hybrid tree additionally supports ``build="bulk"`` for
quick interactive use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import (
    HBTree,
    KDBTree,
    MTree,
    RTree,
    SRTree,
    SSTree,
    SequentialScan,
    VAFile,
    XTree,
)
from repro.core import POLICY_VAM, HybridTree
from repro.core.splits import POLICY_RR
from repro.datasets.workload import QueryWorkload
from repro.eval.costs import normalized_cpu_cost
from repro.storage.page import sequential_scan_pages

INDEX_KINDS = (
    "hybrid",
    "hybrid-vam",
    "hybrid-rr",
    "hbtree",
    "srtree",
    "sstree",
    "rtree",
    "kdbtree",
    "xtree",
    "mtree",
    "vafile",
    "scan",
)


def build_index(
    kind: str,
    data: np.ndarray,
    build: str = "dynamic",
    **params,
):
    """Construct and populate an index of the given ``kind``.

    ``params`` are forwarded to the index constructor (e.g. ``els_bits``,
    ``expected_query_side``, ``min_fill``, ``page_size``).
    """
    data = np.asarray(data, dtype=np.float32)
    if kind == "scan":
        return SequentialScan.from_points(data, **params)
    if kind.startswith("hybrid"):
        if kind == "hybrid-vam":
            params = {**params, "split_policy": POLICY_VAM, "split_position": "median"}
        elif kind == "hybrid-rr":
            params = {**params, "split_policy": POLICY_RR}
        elif kind != "hybrid":
            raise ValueError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}")
        if build == "bulk":
            return HybridTree.bulk_load(data, **params)
        return HybridTree.from_points(data, **params)
    classes = {
        "hbtree": HBTree,
        "srtree": SRTree,
        "sstree": SSTree,
        "rtree": RTree,
        "kdbtree": KDBTree,
        "xtree": XTree,
        "mtree": MTree,
        "vafile": VAFile,
    }
    if kind not in classes:
        raise ValueError(f"unknown index kind {kind!r}; expected one of {INDEX_KINDS}")
    return classes[kind].from_points(data, **params)


@dataclass
class ExperimentResult:
    """Averaged costs of one (index, workload) pair."""

    kind: str
    num_queries: int
    avg_disk_accesses: float
    avg_cpu_seconds: float
    avg_result_count: float
    scan_pages: int
    scan_cpu_seconds: float

    @property
    def normalized_io(self) -> float:
        return self.avg_disk_accesses / self.scan_pages if self.scan_pages else 0.0

    @property
    def normalized_cpu(self) -> float:
        return normalized_cpu_cost(self.avg_cpu_seconds, self.scan_cpu_seconds)

    def row(self, **extra) -> dict:
        """A flat dict for table rendering, with caller-supplied key columns."""
        return {
            **extra,
            "method": self.kind,
            "io/query": round(self.avg_disk_accesses, 1),
            "norm_io": round(self.normalized_io, 4),
            "cpu_ms": round(self.avg_cpu_seconds * 1e3, 3),
            "norm_cpu": round(self.normalized_cpu, 4),
            "results": round(self.avg_result_count, 1),
        }


def _scan_cpu_per_query(data: np.ndarray, workload: QueryWorkload) -> float:
    """CPU denominator: time an actual linear scan over this data/workload."""
    scan = SequentialScan.from_points(data)
    queries = min(len(workload), 8) or 1
    start = time.perf_counter()
    if workload.kind == "box":
        for box in workload.boxes()[:queries]:
            scan.range_search(box)
    else:
        for center, radius in list(zip(workload.centers, workload.radii))[:queries]:
            scan.distance_range(center, float(radius), workload.metric)
    return (time.perf_counter() - start) / queries


def run_workload(
    index,
    data: np.ndarray,
    workload: QueryWorkload,
    kind: str = "",
    scan_cpu_seconds: float | None = None,
) -> ExperimentResult:
    """Execute every query of ``workload`` against ``index`` cold.

    I/O is measured through the index's accountant (checkpoint per query);
    CPU is wall-clock ``perf_counter`` over the whole batch, matching the
    paper's "average CPU time per query".
    """
    kind = kind or type(index).__name__
    scan_pages = sequential_scan_pages(len(index), data.shape[1])
    if scan_cpu_seconds is None:
        scan_cpu_seconds = _scan_cpu_per_query(data, workload)

    total_weighted = 0.0
    total_results = 0
    start = time.perf_counter()
    if workload.kind == "box":
        for box in workload.boxes():
            index.io.checkpoint()
            total_results += len(index.range_search(box))
            total_weighted += index.io.since_checkpoint().weighted_cost()
    elif workload.kind == "distance":
        for center, radius in zip(workload.centers, workload.radii):
            index.io.checkpoint()
            total_results += len(index.distance_range(center, float(radius), workload.metric))
            total_weighted += index.io.since_checkpoint().weighted_cost()
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    elapsed = time.perf_counter() - start

    n = len(workload)
    return ExperimentResult(
        kind=kind,
        num_queries=n,
        avg_disk_accesses=total_weighted / n,
        avg_cpu_seconds=elapsed / n,
        avg_result_count=total_results / n,
        scan_pages=scan_pages,
        scan_cpu_seconds=scan_cpu_seconds,
    )


def run_workload_batched(
    index,
    data: np.ndarray,
    workload: QueryWorkload,
    kind: str = "",
    scan_cpu_seconds: float | None = None,
):
    """Execute the whole workload through the batch-query API in one pass.

    The index must expose the batch interface (``range_search_many`` /
    ``distance_range_many``): the hybrid tree serves it with the
    shared-traversal engine, baselines through
    :class:`repro.engine.mixins.BatchQueryMixin`.  Returns an
    :class:`ExperimentResult` (averages, comparable with
    :func:`run_workload`) together with the per-query
    :class:`repro.engine.metrics.BatchMetrics`.
    """
    kind = kind or type(index).__name__
    scan_pages = sequential_scan_pages(data.shape[0], data.shape[1])
    if scan_cpu_seconds is None:
        scan_cpu_seconds = _scan_cpu_per_query(data, workload)

    index.io.checkpoint()
    start = time.perf_counter()
    if workload.kind == "box":
        results, metrics = index.range_search_many(
            workload.boxes(), return_metrics=True
        )
    elif workload.kind == "distance":
        results, metrics = index.distance_range_many(
            workload.centers, workload.radii, workload.metric, return_metrics=True
        )
    else:
        raise ValueError(f"unknown workload kind {workload.kind!r}")
    elapsed = time.perf_counter() - start
    total_weighted = index.io.since_checkpoint().weighted_cost()

    n = len(workload)
    return (
        ExperimentResult(
            kind=kind,
            num_queries=n,
            avg_disk_accesses=total_weighted / n,
            avg_cpu_seconds=elapsed / n,
            avg_result_count=sum(len(r) for r in results) / n,
            scan_pages=scan_pages,
            scan_cpu_seconds=scan_cpu_seconds,
        ),
        metrics,
    )


def run_workload_parallel(
    source,
    data: np.ndarray,
    workload: QueryWorkload,
    workers: int = 2,
    mode: str = "thread",
    mmap: bool = True,
    kind: str = "",
    scan_cpu_seconds: float | None = None,
):
    """Execute the workload through a multi-worker parallel engine.

    ``source`` is either a saved hybrid tree file (``HybridTree.save``) —
    each worker reopens it (zero-copy mmap handles by default) — or a live
    index object (hybrid tree or baseline), which thread workers query
    through read-only views.  Either way each partition runs through the
    index's batch methods, so results are bit-identical to
    :func:`run_workload_batched` on the same index.
    ``avg_disk_accesses`` sums every worker's charged reads, so it grows
    with worker count (each worker re-reads the directory for itself)
    while wall-clock CPU shrinks on multicore hosts.  Returns
    ``(ExperimentResult, BatchMetrics)`` like :func:`run_workload_batched`.
    """
    import os

    from repro.engine.parallel import ParallelQueryEngine

    if not kind:
        base = (
            "hybrid"
            if isinstance(source, (str, os.PathLike))
            else type(source).__name__.lower()
        )
        kind = f"{base}[{workers}x{mode}]"
    with ParallelQueryEngine(
        source, workers=workers, mode=mode, mmap=mmap
    ) as engine:
        return run_workload_batched(engine, data, workload, kind, scan_cpu_seconds)
