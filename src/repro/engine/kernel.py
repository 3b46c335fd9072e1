"""Structure-agnostic traversal kernel: one batch engine for every index.

Three generic functions — box range, distance range and k-NN — run one
shared walk (:func:`_walk`) written against a small **traversable-index
protocol**; the hybrid tree and all paged baselines implement it, and
single-query, batched, and N-worker parallel execution flow through this
one code path with the same ``IOStats`` / ``BatchMetrics`` accounting.  A
single query is a batch of one: the hybrid tree's ``range_search``,
``distance_range`` and ``count_range`` are this kernel (only its k-NN and
``nearest_iter`` keep a best-first frontier, which bills fewer pages than
the kernel's bound-ordered descent).  Each directory node is pruned with
one array op over all of its children: ``trav_children`` hands back one
node-level bound, not one object per child.

The protocol (duck-typed; see INTERNALS section 9 for the contract):

``index.dims``
    Feature-space dimensionality.
``index.io``
    The :class:`~repro.storage.iostats.IOStats` accountant queries charge.
``index.trav_root() -> (ref, ctx)``
    Root node reference plus an opaque traversal context (e.g. the node's
    bounding region) threaded down through ``trav_children``.
``index.trav_node(ref, charge=True) -> node``
    Fetch a node, charging through the structure's own ``NodeManager`` (so
    supernodes charge multiple pages, bounded caches stay honest, etc.).
``index.trav_is_leaf(node) -> bool``
``index.trav_leaf_points(node) -> (points_f32, oids)``
    The data page's live entries (row-aligned arrays).
``index.trav_children(node, ctx) -> (child_refs, child_ctxs, bounds)``
    The node's ``m`` children in the structure's canonical visit order:
    their refs, their contexts (a sequence, or ``None`` when no child
    carries one) and **one** node-level bound that prunes every alive
    query against every child in one call: ``box_mask(lows, highs)``,
    ``mindist(qs, metric)`` and ``distance_mask(qs, radii, metric)`` each
    return a ``(q, m)`` array.  :class:`RectBounds` covers rectangle
    geometry as two ``(m, dims)`` arrays; :class:`StackedBounds` stacks
    per-child :class:`ChildBound` predicates for the sphere and kd-path
    geometries.

Optional protocol members:

``trav_dedup`` (class attr, default False)
    True for structures whose directory references a child from several
    places (the hB-tree's path postings): the kernel then charges each page
    once per batch and scans each (leaf, query) pair once, matching the
    structure's single-query de-duplication semantics.
``trav_supports_box`` (class attr, default True)
    False for purely distance-based structures (M-tree): box queries raise
    ``TypeError`` instead of traversing.
``trav_check_metric(metric)``
    Raise if the structure cannot answer queries under ``metric`` (SS-tree
    spheres are Euclidean-only; the M-tree is committed to its build-time
    metric).
``trav_degrade(exc) -> (vectors, oids)``
    Corruption fallback: answer the whole batch from a sequential scan
    (hybrid tree ``on_corruption="scan"``).  Absent, page corruption
    propagates.

Results are **bit-identical** to the structures' pre-kernel recursive query
methods: leaves are scanned with the same per-query numpy kernels in the
same visit order, the batch bound predicates perform the same float
operations row-wise as their scalar forms, and k-NN selection uses the
deterministic ``(distance, oid)`` total order everywhere.

Every kernel accepts a :class:`repro.resilience.Deadline` and checks it at
node-visit granularity: an expired budget raises
:class:`~repro.resilience.QueryTimeoutError` (or, under
``on_timeout="partial"``, returns a
:class:`~repro.resilience.PartialResult` carrying the hits accumulated
before the deadline fired, with honest metrics for the work actually
done).  The deadline is also installed as the ambient
:func:`~repro.resilience.deadline_scope`, so the layers below — the
``NodeManager`` retry loop, the degraded sequential scan — spend from the
same budget.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distances import L2, LpMetric, Metric, WeightedEuclidean, mindist_rect_many
from repro.engine.metrics import BatchMetrics
from repro.geometry.rect import Rect
from repro.resilience import (
    Deadline,
    PartialResult,
    QueryTimeoutError,
    deadline_scope,
)
from repro.storage.errors import PageCorruptionError

__all__ = [
    "ChildBound",
    "RectBounds",
    "StackedBounds",
    "merge_knn",
    "mindist_boxes",
    "kernel_range_search_many",
    "kernel_distance_range_many",
    "kernel_knn_many",
]


def _as_query_matrix(centers, dims: int) -> np.ndarray:
    """Canonicalise a batch of query points exactly like
    ``check_vector`` does per point (float32 precision)."""
    qs = np.asarray(centers, dtype=np.float32).astype(np.float64)
    if qs.ndim == 1:
        qs = qs[None, :]
    if qs.ndim != 2 or qs.shape[1] != dims:
        raise ValueError(
            f"expected (n, {dims}) query points, got shape {qs.shape}"
        )
    if not np.all(np.isfinite(qs)):
        raise ValueError("query vectors must be finite")
    return qs


# ----------------------------------------------------------------------
# Node bounds: the pruning predicates, one object per directory node
# ----------------------------------------------------------------------
def mindist_boxes(
    metric: Metric, qs: np.ndarray, lows: np.ndarray, highs: np.ndarray
) -> np.ndarray:
    """``(q, m)`` lower bounds from each query point to each box.

    Entry ``[i, j]`` is bit-identical to ``metric.mindist_rect(qs[i],
    lows[j], highs[j])``.  The clip-and-reduce metrics (``LpMetric``,
    ``WeightedEuclidean``) broadcast ``np.clip`` over row-wise boxes, so a
    short batch makes one ``mindist_rect_batch`` call per query against all
    boxes; otherwise each box takes one ``mindist_rect_many`` call over all
    queries.  Both forms reduce each row over its last axis, the same
    float operations as the scalar bound.
    """
    out = np.empty((len(qs), len(lows)))
    if isinstance(metric, (LpMetric, WeightedEuclidean)) and len(qs) <= len(lows):
        for i, q in enumerate(qs):
            out[i] = metric.mindist_rect_batch(q[None, :], lows, highs)
    else:
        for j in range(len(lows)):
            out[:, j] = mindist_rect_many(metric, qs, lows[j], highs[j])
    return out


class RectBounds:
    """Node-level bounds for ``m`` children boxed by axis-aligned
    rectangles, held as two ``(m, dims)`` arrays (the hybrid tree's ELS
    boxes, the R-, X- and KDB-tree entries).  Each method takes one query
    per row and returns a ``(q, m)`` array, column ``j`` for child ``j``.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: np.ndarray, highs: np.ndarray):
        self.lows = lows
        self.highs = highs

    @classmethod
    def of_rects(cls, rects) -> "RectBounds":
        dims = rects[0].dims if rects else 0
        lows = np.array([r.low for r in rects]).reshape(len(rects), dims)
        highs = np.array([r.high for r in rects]).reshape(len(rects), dims)
        return cls(lows, highs)

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        # Row-wise Rect.intersects_boxes_mask for every child at once.
        return np.all(
            (lows[:, None, :] <= self.highs) & (self.lows <= highs[:, None, :]),
            axis=2,
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return mindist_boxes(metric, qs, self.lows, self.highs)

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        return self.mindist(qs, metric) <= radii[:, None]


class ChildBound:
    """Vectorized pruning predicates for one child, over all alive queries.

    The per-child form for geometries with no array layout (spheres,
    sphere-and-rect pairs, M-tree routers, hB-tree kd paths); a node's
    children are stacked into node-level form by :class:`StackedBounds`.
    Each method returns one value per query row.
    """

    __slots__ = ()

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Rows whose query box can contain points of this child."""
        raise TypeError(
            f"{type(self).__name__} has no box geometry; the structure "
            "should set trav_supports_box = False"
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        """Lower bound on the distance from each query point to the child."""
        raise NotImplementedError

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        """Rows whose distance-range query can reach this child."""
        return self.mindist(qs, metric) <= radii


class StackedBounds:
    """Node-level bounds stacking per-child :class:`ChildBound` predicates
    column-wise into the ``(q, m)`` form of :class:`RectBounds`."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: list[ChildBound]):
        self.bounds = bounds

    def _stack(self, rows: int, dtype, columns) -> np.ndarray:
        out = np.empty((rows, len(self.bounds)), dtype=dtype)
        for j, column in enumerate(columns):
            out[:, j] = column
        return out

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self._stack(
            len(lows), bool, (b.box_mask(lows, highs) for b in self.bounds)
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return self._stack(
            len(qs), np.float64, (b.mindist(qs, metric) for b in self.bounds)
        )

    def distance_mask(self, qs: np.ndarray, radii: np.ndarray, metric: Metric) -> np.ndarray:
        return self._stack(
            len(qs), bool, (b.distance_mask(qs, radii, metric) for b in self.bounds)
        )


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _reads(io) -> int:
    return io.random_reads + io.sequential_reads


def check_on_timeout(on_timeout: str) -> None:
    """Validate the ``on_timeout`` policy argument at the API boundary."""
    if on_timeout not in ("raise", "partial"):
        raise ValueError('on_timeout must be "raise" or "partial"')


def _wrap_partial(out, err: QueryTimeoutError | None, n: int):
    """Under ``on_timeout="partial"``, envelope a timed-out batch's output.

    Kernel-granularity timeouts are conservative: the traversal stopped
    mid-flight, so *no* query can be certified complete even though the
    accumulated hits per query are real.
    """
    if err is None:
        return out
    return PartialResult(out, np.zeros(n, dtype=bool), err)


def _finish(results, visits, index, start, reads0, return_metrics, label):
    if not return_metrics:
        return results
    wall = time.perf_counter() - start
    metrics = BatchMetrics.from_batch_run(
        label=label,
        node_visits=visits,
        charged_reads=_reads(index.io) - reads0,
        wall_seconds=wall,
    )
    return results, metrics


def _walk(index, n: int, deadline, on_timeout: str, leaf, descend, scan):
    """The shared traversal every kernel runs: one DFS over the protocol
    with an alive set of query rows.

    ``leaf(pts, oids, alive)`` scans a data page for the alive rows;
    ``descend(bounds, alive)`` yields ``(j, sub)`` for each child ``j`` to
    visit with rows ``sub``, in visit order (lazily, so a k-NN walk sees
    the kth distances its earlier siblings tightened); ``scan(vectors,
    oids)`` answers the whole batch from the corruption-degraded scan.
    Dedup structures charge each page once per batch and scan each
    ``(leaf, row)`` pair once.  Returns ``(visits, scan_out, err)``:
    per-row node visits, the degraded answer (``None`` when the walk ran
    or the scan itself timed out) and the partial-mode timeout.
    """
    visits = np.zeros(n, dtype=np.int64)
    dedup = getattr(index, "trav_dedup", False)
    charged: set = set()
    scanned: dict = {}

    def visit(ref, ctx, alive: np.ndarray) -> None:
        if deadline is not None:
            deadline.check()
        node = index.trav_node(ref, charge=ref not in charged)
        if dedup:
            charged.add(ref)
        visits[alive] += 1
        if index.trav_is_leaf(node):
            if dedup:  # drop rows that already scanned this leaf
                done = scanned.setdefault(ref, np.zeros(n, dtype=bool))
                alive = alive[~done[alive]]
                done[alive] = True
            if alive.size:
                pts, oids = index.trav_leaf_points(node)
                if len(pts):
                    leaf(pts, oids, alive)
            return
        refs, ctxs, bounds = index.trav_children(node, ctx)
        for j, sub in descend(bounds, alive):
            visit(refs[j], None if ctxs is None else ctxs[j], sub)

    root_ref, root_ctx = index.trav_root()
    degrade = getattr(index, "trav_degrade", None)
    scan_out = err = None
    try:
        with deadline_scope(deadline):
            try:
                visit(root_ref, root_ctx, np.arange(n))
            except PageCorruptionError as exc:
                # ``on_corruption="scan"`` answers the whole batch from one
                # sequential scan (still under the deadline — see
                # ``HybridTree._scan_entries``).
                if degrade is None:
                    raise
                scan_out = scan(*degrade(exc))
    except QueryTimeoutError as exc:
        if on_timeout != "partial":
            raise
        err = exc
    return visits, scan_out, err


def merge_knn(best_d, best_o, kth, qi, dists, oids, k: int, keep=None) -> None:
    """Fold one leaf's ``(dists, oids)`` into query ``qi``'s best ``k``.

    ``best_d[qi]`` / ``best_o[qi]`` hold the query's best entries sorted by
    the deterministic ``(distance, oid)`` order and ``kth[qi]`` its kth
    distance (inf until it has k).  Only entries at most the kth can enter
    the top k (ties at the kth still can, under the oid order); ``keep``
    is that mask when the caller has already computed it.
    """
    if keep is None:
        keep = dists <= kth[qi]
        if not keep.any():
            return
    d_all = np.concatenate((best_d[qi], dists[keep]))
    o_all = np.concatenate((best_o[qi], oids[keep]))
    top = np.lexsort((o_all, d_all))[:k]
    best_d[qi], best_o[qi] = d_all[top], o_all[top]
    if len(top) >= k:
        kth[qi] = best_d[qi][-1]


def _masked(mask: np.ndarray, alive: np.ndarray):
    """``(j, rows)`` for every child column of ``mask`` some row keeps."""
    return ((j, alive[mask[:, j]]) for j in np.flatnonzero(mask.any(axis=0)))


# ----------------------------------------------------------------------
# Box range queries
# ----------------------------------------------------------------------
def kernel_range_search_many(
    index,
    queries,
    return_metrics: bool = False,
    label: str = "range-batch",
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute many box range queries in one structure-agnostic traversal.

    Returns one oid list per query (bit-identical to looping the index's
    single-query ``range_search``); with ``return_metrics=True`` also a
    :class:`BatchMetrics`.  ``deadline`` bounds the traversal; on expiry
    the call raises :class:`QueryTimeoutError` or — under
    ``on_timeout="partial"`` — returns a :class:`PartialResult`.
    """
    start = time.perf_counter()
    check_on_timeout(on_timeout)
    reads0 = _reads(index.io)
    if not getattr(index, "trav_supports_box", True):
        raise TypeError(
            "this index is distance-based: it has no coordinate geometry "
            "to answer bounding-box (window) queries — use a feature-based "
            "index such as the hybrid tree"
        )
    queries = list(queries)
    n = len(queries)
    if n == 0:
        return _finish([], np.empty(0), index, start, reads0, return_metrics, label)
    for q in queries:
        if q.dims != index.dims:
            raise ValueError("query dimensionality mismatch")
    lows = np.stack([q.low for q in queries])
    highs = np.stack([q.high for q in queries])
    results: list[list[np.ndarray]] = [[] for _ in range(n)]

    def leaf(pts, oids, alive):
        inside = Rect.boxes_contain_points_mask(lows[alive], highs[alive], pts)
        for row, qi in zip(inside, alive):
            if row.any():
                results[qi].append(oids[row])

    def scan(vectors, oids):
        inside = Rect.boxes_contain_points_mask(lows, highs, vectors)
        return [[int(o) for o in oids[row]] for row in inside]

    visits, out, err = _walk(
        index, n, deadline, on_timeout, leaf,
        lambda bounds, alive: _masked(bounds.box_mask(lows[alive], highs[alive]), alive),
        scan,
    )
    if out is None:
        out = [[int(o) for arr in per_query for o in arr] for per_query in results]
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, label
    )


# ----------------------------------------------------------------------
# Distance range queries
# ----------------------------------------------------------------------
def kernel_distance_range_many(
    index,
    centers,
    radii,
    metric: Metric = L2,
    return_metrics: bool = False,
    label: str = "distance-batch",
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute many distance-range queries (one shared metric) in one pass.

    ``radii`` may be a scalar or one radius per query.  Bit-identical to
    looping the index's single-query ``distance_range``.  ``deadline`` /
    ``on_timeout`` behave as in :func:`kernel_range_search_many`.
    """
    start = time.perf_counter()
    check_on_timeout(on_timeout)
    reads0 = _reads(index.io)
    check = getattr(index, "trav_check_metric", None)
    if check is not None:
        check(metric)
    qs = _as_query_matrix(centers, index.dims)
    n = qs.shape[0]
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n,))
    if np.any(radii < 0):
        raise ValueError("radius must be non-negative")
    results: list[list[tuple[int, float]]] = [[] for _ in range(n)]

    def leaf(pts, oids, alive):
        points64 = pts.astype(np.float64)
        for qi in alive:
            dists = metric.distance_batch(points64, qs[qi])
            for i in np.flatnonzero(dists <= radii[qi]):
                results[qi].append((int(oids[i]), float(dists[i])))

    def scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        out = []
        for qi in range(n):
            dists = metric.distance_batch(points64, qs[qi])
            out.append(
                [(int(oids[i]), float(dists[i])) for i in np.flatnonzero(dists <= radii[qi])]
            )
        return out

    visits, out, err = _walk(
        index, n, deadline, on_timeout, leaf,
        lambda bounds, alive: _masked(
            bounds.distance_mask(qs[alive], radii[alive], metric), alive
        ),
        scan,
    )
    return _finish(
        _wrap_partial(results if out is None else out, err, n),
        visits, index, start, reads0, return_metrics, label,
    )


# ----------------------------------------------------------------------
# k-nearest-neighbour queries
# ----------------------------------------------------------------------
def kernel_knn_many(
    index,
    centers,
    k: int,
    metric: Metric = L2,
    approximation_factor: float = 0.0,
    return_metrics: bool = False,
    label: str = "knn-batch",
    deadline: Deadline | None = None,
    on_timeout: str = "raise",
):
    """Execute many k-NN queries in one shared branch-and-bound traversal.

    Children are visited in order of their best lower bound over the alive
    set (a batch analogue of best-first), and each query prunes with its own
    current kth distance under the deterministic ``(distance, oid)`` order —
    so for ``approximation_factor == 0`` every query's result is the exact
    k smallest entries under that total order.  ``deadline`` / ``on_timeout``
    behave as in :func:`kernel_range_search_many`; a partial k-NN result
    holds each query's best candidates found so far.
    """
    start = time.perf_counter()
    check_on_timeout(on_timeout)
    reads0 = _reads(index.io)
    if k < 1:
        raise ValueError("k must be >= 1")
    if approximation_factor < 0:
        raise ValueError("approximation_factor must be >= 0")
    check = getattr(index, "trav_check_metric", None)
    if check is not None:
        check(metric)
    qs = _as_query_matrix(centers, index.dims)
    n = qs.shape[0]
    shrink = 1.0 / (1.0 + approximation_factor)
    # Each query's best (at most k) entries, sorted by (distance, oid);
    # kth[i] caches query i's current kth distance.
    best_d = [np.empty(0) for _ in range(n)]
    best_o = [np.empty(0, dtype=np.int64) for _ in range(n)]
    kth = np.full(n, np.inf)

    def leaf(pts, oids, alive):
        points64 = pts.astype(np.float64)
        for qi in alive:
            dists = metric.distance_batch(points64, qs[qi])
            merge_knn(best_d, best_o, kth, qi, dists, oids, k)

    def descend(bounds, alive):
        lower = bounds.mindist(qs[alive], metric)
        # Children in order of their best bound over the alive set (a
        # stable sort: ties keep trav_children order).
        for j in np.argsort(lower.min(axis=0), kind="stable"):
            # Re-filter against the *current* kth: earlier siblings may have
            # tightened it since the bounds were computed.
            sub = alive[lower[:, j] <= kth[alive] * shrink]
            if sub.size:
                yield j, sub

    def scan(vectors, oids):
        points64 = vectors.astype(np.float64)
        out = []
        for qi in range(n):
            dists = metric.distance_batch(points64, qs[qi])
            order = np.lexsort((oids, dists))[:k]
            out.append([(int(oids[i]), float(dists[i])) for i in order])
        return out

    visits, out, err = _walk(index, n, deadline, on_timeout, leaf, descend, scan)
    if out is None:
        out = [
            [(int(o), float(d)) for o, d in zip(best_o[qi], best_d[qi])]
            for qi in range(n)
        ]
    return _finish(
        _wrap_partial(out, err, n), visits, index, start, reads0, return_metrics, label
    )
