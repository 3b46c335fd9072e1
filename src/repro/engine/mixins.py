"""The batch-query surface every index structure shares, and the paged base.

Three mixins supply ``range_search_many`` / ``distance_range_many`` /
``knn_many`` (and the measured ``*_loop`` forms) to the hybrid tree and the
baselines:

- ``LoopQueryMixin`` provides the measured per-query loop as the explicitly
  named ``*_loop`` methods — the instrumented single-query side of every
  batch-vs-loop comparison;
- ``BatchQueryMixin`` aliases the loop as the batch API, for structures with
  no traversable directory (sequential scan, VA-file);
- ``KernelQueryMixin`` serves both the batch API *and* the single-query
  methods from the structure-agnostic traversal kernel
  (:mod:`repro.engine.kernel`), for every paged structure implementing the
  ``trav_*`` protocol — the hybrid tree included.

``PagedIndex`` extends ``KernelQueryMixin`` with the paged substrate the
hybrid tree and the seven paged baselines share: page layout, node
manager, root leaf, introspection, construction by repeated insertion,
point lookup and the default ``trav_*`` fetch members.

The module imports nothing from :mod:`repro.core` or
:mod:`repro.baselines`, so both can inherit from it without an import
cycle.
"""

from __future__ import annotations

import numpy as np

from repro.distances import L2, Metric
from repro.engine.kernel import check_on_timeout
from repro.engine.metrics import LoopRecorder
from repro.engine.soa.kernel import (
    dispatch_distance_range_many,
    dispatch_knn_many,
    dispatch_range_search_many,
)
from repro.geometry.rect import Rect
from repro.resilience import Deadline, PartialResult, QueryTimeoutError
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity
from repro.storage.pagestore import PageStore

__all__ = ["BatchQueryMixin", "KernelQueryMixin", "LoopQueryMixin", "PagedIndex"]


def _loop(calls, deadline, on_timeout, recorder: LoopRecorder | None = None):
    """Run ``calls`` one by one, timing each with ``recorder`` if given.

    ``deadline`` bounds the loop at per-query granularity — the natural
    grain for a loop whose unit of work is a whole query.  With
    ``on_timeout="partial"`` the completed prefix comes back in a
    :class:`~repro.resilience.PartialResult` (queries that ran are marked
    complete); otherwise a :class:`QueryTimeoutError` propagates.
    """
    results = []
    err = None
    try:
        for call in calls:
            if deadline is not None:
                deadline.check()
            if recorder is not None:
                recorder.start_query()
            results.append(call())
            if recorder is not None:
                recorder.end_query()
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    if err is None:
        return results
    n = len(calls)
    completed = np.zeros(n, dtype=bool)
    completed[: len(results)] = True
    results.extend([] for _ in range(n - len(results)))
    return PartialResult(results, completed, err)


def _loop_run(index, label, calls, return_metrics, timeout, on_timeout):
    """Shared loop runner: coerce the deadline, measure on request.

    Module-level so the ``*_loop`` methods stay invokable unbound on any
    object with an ``io`` accountant.  Measured runs cover exactly the
    queries that ran.
    """
    check_on_timeout(on_timeout)
    deadline = Deadline.coerce(timeout)
    if not return_metrics:
        return _loop(calls, deadline, on_timeout)
    recorder = LoopRecorder(label, index.io)
    # Charge both access kinds: a checkpoint of random_reads alone
    # silently drops the sequential reads that dominate seqscan/VA-file.
    reads0 = index.io.random_reads + index.io.sequential_reads
    results = _loop(calls, deadline, on_timeout, recorder)
    charged = (index.io.random_reads + index.io.sequential_reads) - reads0
    return results, recorder.finish(charged_reads=charged)


class LoopQueryMixin:
    """The measured per-query loop, under the explicit ``*_loop`` names.

    With ``return_metrics=True`` the loop measures every query exactly
    (latency via ``perf_counter``, pages via an ``IOStats`` checkpoint) and
    returns a :class:`repro.engine.metrics.BatchMetrics` alongside the
    results — the instrumented single-query side of every batch-vs-loop
    comparison in the benchmarks and the conformance suite.

    ``timeout``/``on_timeout`` bound the loop at per-query granularity —
    see :func:`_loop`.
    """

    def range_search_loop(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        return _loop_run(
            self, "range-loop",
            [lambda q=q: self.range_search(q) for q in queries],
            return_metrics, timeout, on_timeout,
        )

    def distance_range_loop(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        centers = np.asarray(centers)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (len(centers),))
        return _loop_run(
            self, "distance-loop",
            [
                lambda c=c, r=r: self.distance_range(c, float(r), metric)
                for c, r in zip(centers, radii)
            ],
            return_metrics, timeout, on_timeout,
        )

    def knn_loop(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        centers = np.asarray(centers)
        kwargs = (
            {"approximation_factor": approximation_factor}
            if approximation_factor
            else {}
        )
        return _loop_run(
            self, "knn-loop",
            [lambda c=c: self.knn(c, k, metric, **kwargs) for c in centers],
            return_metrics, timeout, on_timeout,
        )


class BatchQueryMixin(LoopQueryMixin):
    """Batch-query API served by the measured loop.

    For structures with no traversable directory (sequential scan, VA-file)
    the loop *is* the batch semantics: every query pays the structure's full
    scan cost, so the batched harness, the CLI and the engine benchmark can
    still drive them through one interface.
    """

    range_search_many = LoopQueryMixin.range_search_loop
    distance_range_many = LoopQueryMixin.distance_range_loop
    knn_many = LoopQueryMixin.knn_loop


class KernelQueryMixin(LoopQueryMixin):
    """Batch *and* single-query API served by the traversal kernel.

    Structures implementing the ``trav_*`` protocol (see
    :mod:`repro.engine.kernel`) inherit this so single-query, batched, and
    parallel execution all flow through the same traversal code with the
    same accounting; the single-query methods are the kernel at batch size
    one (the hybrid tree calls the object kernel directly, never the SOA
    snapshot, and keeps a best-first k-NN).  The ``*_loop`` methods from
    :class:`LoopQueryMixin` remain available as the measured per-query
    baseline.

    The batch methods return bit-identical results to looping the
    single-query methods, charge each visited node one read for the whole
    batch, and take ``timeout=`` (seconds or a
    :class:`~repro.resilience.Deadline`) with ``on_timeout="raise"`` or
    ``"partial"`` (a :class:`~repro.resilience.PartialResult`).

    When a struct-of-arrays snapshot is attached (:meth:`compile_snapshot`)
    the batch methods run on the vectorized SOA kernel instead — results
    are bit-identical either way.  Mutations must call
    :meth:`invalidate_snapshot`; queries then fall back to the object walk
    until the structure is re-compiled.
    """

    def range_search_many(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        return dispatch_range_search_many(
            self, queries, return_metrics, "range-batch", timeout, on_timeout
        )

    def distance_range_many(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        return dispatch_distance_range_many(
            self, centers, radii, metric, return_metrics, "distance-batch",
            timeout, on_timeout,
        )

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        return dispatch_knn_many(
            self, centers, k, metric, approximation_factor, return_metrics,
            "knn-batch", timeout, on_timeout,
        )

    # -- struct-of-arrays snapshot lifecycle ---------------------------
    @property
    def soa_snapshot(self):
        """The attached SOA snapshot, or None."""
        return getattr(self, "_soa_snapshot", None)

    def compile_snapshot(self, force: bool = False):
        """Compile (and attach) a struct-of-arrays snapshot of this index.

        Cached until :meth:`invalidate_snapshot`; ``force=True``
        recompiles unconditionally."""
        from repro.engine.soa import compile_snapshot

        snap = getattr(self, "_soa_snapshot", None)
        if snap is None or force:
            snap = compile_snapshot(self)
            self._soa_snapshot = snap
        return snap

    def invalidate_snapshot(self) -> None:
        """Drop the attached snapshot (call after any mutation)."""
        self._soa_snapshot = None

    def range_search(self, query: Rect) -> list[int]:
        return self.range_search_many([query])[0]

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        return self.distance_range_many([query], radius, metric)[0]

    def knn(
        self,
        query: np.ndarray,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
    ) -> list[tuple[int, float]]:
        return self.knn_many([query], k, metric, approximation_factor)[0]


class PagedIndex(KernelQueryMixin):
    """The paged substrate of every tree-structured index.

    The hybrid tree and the seven paged baselines run on one page layout
    and one :class:`NodeManager`, so every structure pays for its pages
    the same way — the condition the paper's Section 4 comparison rests
    on.  A new tree is a single empty data page.

    Each structure declares what differs as class attributes:

    - ``leaf_type`` — its data-page class, built as
      ``leaf_type(dims, leaf_capacity)``;
    - ``index_capacity_of`` and ``leaf_capacity_of`` — entries per page,
      as ``f(dims, layout)``; leaves default to
      :func:`~repro.storage.page.data_node_capacity`;
    - ``node_manager_type`` — a :class:`NodeManager` subclass for pages
      charged differently (the X-tree's multi-page supernodes).

    and implements ``insert`` and ``trav_children`` (plus ``trav_root``
    when its traversal carries a region).  ``min_fill`` is the
    utilization guarantee as a fraction of capacity, in (0, 0.5]
    (default 0.4); structures with no guarantee (KDB-, hB-tree) pass
    ``None``.
    """

    leaf_capacity_of = staticmethod(data_node_capacity)
    node_manager_type = NodeManager

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float | None = 0.4,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        if min_fill is not None and not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.dims = dims
        self.min_fill = min_fill
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = self.leaf_capacity_of(dims, self.layout)
        self.index_capacity = self.index_capacity_of(dims, self.layout)
        self.nm = self.node_manager_type(store=store, stats=stats)
        self._root_id = self.nm.allocate()
        self.nm.put(
            self._root_id, self.leaf_type(dims, self.leaf_capacity), charge=False
        )
        self._height = 1
        self._count = 0

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (1 = the root is a data page)."""
        return self._height

    @property
    def root_id(self) -> int:
        return self._root_id

    @property
    def io(self) -> IOStats:
        """The I/O accountant shared with the page store."""
        return self.nm.stats

    def pages(self) -> int:
        """Pages occupied by the index."""
        return self.nm.store.allocated_pages

    # -- construction and lookup ----------------------------------------
    @classmethod
    def from_points(cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs):
        """Build by repeated insertion (the construction the paper timed).

        ``kwargs`` are constructor options; ``oids`` default to the row
        numbers."""
        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        ids = oids if oids is not None else range(len(vectors))
        for v, oid in zip(vectors, ids):
            tree.insert(v, int(oid))
        return tree

    def point_search(self, vector: np.ndarray) -> list[int]:
        """Object ids stored at exactly ``vector`` (float32 equality)."""
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    # -- traversal-kernel protocol (repro.engine.kernel) -----------------
    def trav_root(self):
        return self._root_id, None

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, self.leaf_type)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()
