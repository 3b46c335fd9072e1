"""Query sessions: a pinned hot directory in front of the batch API.

Batch execution itself lives on the index: every structure's
``range_search_many`` / ``distance_range_many`` / ``knn_many`` come from
the mixins in :mod:`repro.engine.mixins`, which run one shared traversal
per batch (:mod:`repro.engine.kernel`, or the vectorized
:mod:`repro.engine.soa` kernel when a snapshot is attached) — each node
fetched once per batch, results bit-identical to looping the single-query
methods, ``timeout=`` / ``on_timeout=`` honoured throughout.

:class:`QuerySession` adds buffer management on top: it pins the hot upper
levels of the directory once (charging each page a single read), so every
query executed inside the session revisits the directory for free — the
steady-state accounting of a warm serving process rather than the paper's
cold per-query numbers.  With ``workers > 1`` it fronts a
:class:`~repro.engine.parallel.ParallelQueryEngine` instead.
"""

from __future__ import annotations

from repro.distances import L2, Metric
from repro.engine.kernel import _as_query_matrix
from repro.geometry.rect import Rect
from repro.resilience import QueryAdmissionController

__all__ = ["QuerySession"]


# ----------------------------------------------------------------------
# Sessions: pinned hot directory + the batch API in one place
# ----------------------------------------------------------------------
class QuerySession:
    """A query context that keeps the tree's hot upper levels resident.

    On entry the top ``pin_levels`` levels of the directory are faulted in
    and pinned through :meth:`NodeManager.pin` — each page charged exactly
    once — after which every query served by the session traverses the
    pinned directory for free.  Use as a context manager::

        with QuerySession(tree, pin_levels=2) as session:
            hits = session.knn_many(batch, k=10)

    Closing the session unpins everything, returning the buffer to the
    paper's cold accounting.

    With ``workers > 1`` the batch methods run on a
    :class:`~repro.engine.parallel.ParallelQueryEngine` instead: the
    session reopens ``tree.source_path`` once per worker (``mode`` selects
    threads or fork/spawn processes) and merges partition results
    deterministically.  This requires a tree that came from
    ``save``/``open`` *and has no unsaved changes* — workers read the
    file, so in-memory mutations would silently be invisible to them;
    the constructor refuses rather than risking that.  Single-query
    methods and the pinned directory still use ``tree`` itself.

    ``timeout`` sets a default wall-clock budget (seconds) applied to every
    batch call that doesn't pass its own, with ``on_timeout`` selecting
    raise-vs-partial semantics; ``admission`` attaches a
    :class:`~repro.resilience.QueryAdmissionController` that rejects
    over-budget batches with a typed ``AdmissionError`` before any work
    starts.
    """

    def __init__(
        self,
        tree,
        pin_levels: int = 2,
        charge_pins: bool = True,
        workers: int = 1,
        mode: str = "thread",
        timeout=None,
        on_timeout: str = "raise",
        admission: QueryAdmissionController | None = None,
    ):
        if pin_levels < 0:
            raise ValueError("pin_levels must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tree = tree
        self.timeout = timeout
        self.on_timeout = on_timeout
        self.admission = admission
        self._parallel = None
        if workers > 1:
            from repro.engine.parallel import ParallelQueryEngine

            if tree.source_path is None:
                raise ValueError(
                    "workers > 1 requires a saved tree (save() or open() "
                    "first): worker handles reopen the tree from its file"
                )
            if tree.modified_since_save and getattr(tree, "wal", None) is None:
                # WAL-enabled trees are exempt: every committed mutation is
                # durable in the sidecar log, so workers can reconstruct
                # the live tree's committed state without a save().
                raise ValueError(
                    "tree has unsaved in-memory changes; save() before "
                    "opening a parallel session so workers see them"
                )
            if getattr(tree, "wal", None) is not None and mode == "thread":
                # Thread workers on a WAL tree query pinned snapshot views
                # of the live store — no file reopen, no log replay, and
                # the snapshot stays consistent under concurrent writes.
                source = tree
            else:
                # Process workers (or plain saved trees) reopen the file;
                # a WAL tree's committed log is replayed on each open.
                source = tree.source_path
            self._parallel = ParallelQueryEngine(
                source, workers=workers, mode=mode, stats=tree.io,
                admission=admission,
            )
        from repro.core.nodes import IndexNode

        self._pinned: list[int] = []
        frontier = [tree.root_id]
        for _ in range(min(pin_levels, tree.height)):
            next_frontier: list[int] = []
            for node_id in frontier:
                node = tree.nm.pin(node_id, charge=charge_pins)
                self._pinned.append(node_id)
                if isinstance(node, IndexNode):
                    next_frontier.extend(node.child_ids())
            frontier = next_frontier

    # -- lifecycle -----------------------------------------------------
    @property
    def pinned_pages(self) -> int:
        return len(self._pinned)

    @property
    def workers(self) -> int:
        return self._parallel.workers if self._parallel is not None else 1

    def close(self) -> None:
        # Idempotent: a second close() finds nothing pinned and no engine.
        for node_id in self._pinned:
            self.tree.nm.unpin(node_id)
        self._pinned.clear()
        if self._parallel is not None:
            parallel, self._parallel = self._parallel, None
            parallel.close()

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries -------------------------------------------------------
    def _resolve(self, timeout, on_timeout):
        if timeout is None:
            timeout = self.timeout
        if on_timeout is None:
            on_timeout = self.on_timeout
        return timeout, on_timeout

    def _admit(self, n_queries: int):
        if self.admission is None or self._parallel is not None:
            # Parallel engines run their own admission (same controller,
            # handed over in the constructor) — don't double-count.
            return _NULL_TICKET
        return self.admission.admit(n_queries, self.tree.dims)

    def range_search_many(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str | None = None,
    ):
        timeout, on_timeout = self._resolve(timeout, on_timeout)
        if self._parallel is not None:
            return self._parallel.range_search_many(
                queries, return_metrics, timeout=timeout, on_timeout=on_timeout
            )
        queries = list(queries)
        with self._admit(len(queries)):
            return self.tree.range_search_many(
                queries, return_metrics, timeout, on_timeout
            )

    def distance_range_many(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str | None = None,
    ):
        timeout, on_timeout = self._resolve(timeout, on_timeout)
        if self._parallel is not None:
            return self._parallel.distance_range_many(
                centers, radii, metric, return_metrics,
                timeout=timeout, on_timeout=on_timeout,
            )
        qs = _as_query_matrix(centers, self.tree.dims)
        with self._admit(qs.shape[0]):
            return self.tree.distance_range_many(
                qs, radii, metric, return_metrics, timeout, on_timeout
            )

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str | None = None,
    ):
        timeout, on_timeout = self._resolve(timeout, on_timeout)
        if self._parallel is not None:
            return self._parallel.knn_many(
                centers, k, metric, approximation_factor, return_metrics,
                timeout=timeout, on_timeout=on_timeout,
            )
        qs = _as_query_matrix(centers, self.tree.dims)
        with self._admit(qs.shape[0]):
            return self.tree.knn_many(
                qs, k, metric, approximation_factor, return_metrics,
                timeout, on_timeout,
            )

    def range_search(self, query: Rect) -> list[int]:
        return self.tree.range_search(query)

    def distance_range(self, center, radius: float, metric: Metric = L2):
        return self.tree.distance_range(center, radius, metric)

    def knn(self, center, k: int, metric: Metric = L2, **kwargs):
        return self.tree.knn(center, k, metric, **kwargs)


class _NullTicket:
    """Stand-in admission ticket when no controller is attached."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def release(self) -> None:
        return None


_NULL_TICKET = _NullTicket()
