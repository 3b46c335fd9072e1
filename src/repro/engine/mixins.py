"""The batch-query surface every index structure shares.

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

__all__ = ["BatchQueryMixin", "KernelQueryMixin", "LoopQueryMixin"]


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
    one (a structure with a faster dedicated single-query walk, like the
    hybrid tree, overrides them).  The ``*_loop`` methods from
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
