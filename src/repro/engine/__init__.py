"""High-throughput batch query engine for every index structure.

One traversal serves many queries: nodes are fetched once per batch and
tested against all still-alive queries with vectorized predicates, and
:class:`QuerySession` pins the hot directory levels so a warm serving
process stops re-paying for them.  Results are bit-identical to the
single-query API.  The traversal itself lives in the structure-agnostic
:mod:`repro.engine.kernel` — any index implementing the small ``trav_*``
protocol (the hybrid tree and all paged baselines do) inherits the batch
API from :mod:`repro.engine.mixins` and runs on the same batch, parallel,
and mmap machinery with the same accounting; see
:mod:`repro.engine.metrics` for the per-query latency / page-access
accounting all execution paths share.
"""

from repro.engine.batch import QuerySession
from repro.engine.kernel import (
    ChildBound,
    RectBound,
    kernel_distance_range_many,
    kernel_knn_many,
    kernel_range_search_many,
)
from repro.engine.metrics import BatchMetrics, LoopRecorder, ascii_histogram
from repro.engine.parallel import WORKER_MODES, ParallelQueryEngine
from repro.engine.soa import (
    SOASnapshot,
    active_snapshot,
    compile_snapshot,
    soa_distance_range_many,
    soa_knn_many,
    soa_range_search_many,
)

__all__ = [
    "BatchMetrics",
    "ChildBound",
    "LoopRecorder",
    "ParallelQueryEngine",
    "QuerySession",
    "RectBound",
    "SOASnapshot",
    "WORKER_MODES",
    "active_snapshot",
    "ascii_histogram",
    "compile_snapshot",
    "kernel_distance_range_many",
    "kernel_knn_many",
    "kernel_range_search_many",
    "soa_distance_range_many",
    "soa_knn_many",
    "soa_range_search_many",
]
