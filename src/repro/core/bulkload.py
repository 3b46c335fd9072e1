"""Top-down bulk loading of a hybrid tree.

Dynamic insertion builds the paper's tree one point at a time; for large
benchmark datasets we also provide the standard top-down alternative: apply
the same split rules (EDA dimension choice, middle position, utilization
bound) recursively over the whole dataset until partitions fit a data page,
producing one global kd split tree whose leaves are data nodes; then chop
that tree into page-sized index nodes level by level.  Every split is clean
(``lsp == rsp``), so a bulk-loaded tree starts with zero overlap — the
paper's structure in its best case; subsequent dynamic inserts and deletes
work on it normally and introduce overlap only where the paper allows it.
"""

from __future__ import annotations

import numpy as np

from repro.core import kdnodes
from repro.core.kdnodes import KDInternal, KDLeaf, KDNode
from repro.core.nodes import MAX_OID, DataNode, IndexNode, OidRangeError
from repro.core.splits import choose_data_split
from repro.geometry.rect import Rect


def _check_oids(oids, n: int) -> np.ndarray:
    """Validate an oid array fits the uint32 slots data pages store.

    ``np.asarray(oids, dtype=np.uint32)`` would silently wrap int64 values
    (``2**32`` becomes ``0``), so lookups and deletes by the original oid
    would miss forever; reject non-integer dtypes and out-of-range values
    with a typed error instead.
    """
    oids = np.asarray(oids)
    if oids.shape != (n,):
        raise ValueError("oids must align with vectors")
    if oids.dtype.kind not in "iu":
        raise OidRangeError(
            f"oids must be an integer array, got dtype {oids.dtype}"
        )
    if n:
        lo, hi = int(oids.min()), int(oids.max())
        if lo < 0 or hi > MAX_OID:
            bad = lo if lo < 0 else hi
            raise OidRangeError(
                f"oid {bad} is outside [0, {MAX_OID}], the uint32 range "
                "data pages store"
            )
    return oids.astype(np.uint32)


def bulk_load_into(tree, vectors: np.ndarray, oids: np.ndarray | None = None) -> int:
    """Populate an *empty* ``HybridTree`` with ``vectors`` in one pass.

    ``oids`` defaults to ``0..n-1``.  The tree's split policy/position and
    min-fill settings are honoured.  Returns the number of entries that had
    to fall back to per-entry :meth:`~repro.core.hybridtree.HybridTree.insert`
    because the split tree was too skewed to pack (0 for every reasonable
    ``min_fill``; see :func:`_pack_level`).
    """
    if len(tree) != 0:
        raise ValueError("bulk_load requires an empty tree")
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.ndim != 2 or vectors.shape[1] != tree.dims:
        raise ValueError(f"expected an (n, {tree.dims}) array")
    n = vectors.shape[0]
    if oids is None:
        oids = np.arange(n, dtype=np.uint32)
    else:
        oids = _check_oids(oids, n)
    if n == 0:
        return 0
    owns = tree._wal_begin()
    try:
        deferred = _bulk_load_inner(tree, vectors, oids, n)
    except BaseException:
        tree._wal_abort(owns)
        raise
    tree._wal_end(owns, "bulk_load")
    return deferred


def _bulk_load_inner(tree, vectors: np.ndarray, oids: np.ndarray, n: int) -> int:
    lows = vectors.min(axis=0).astype(np.float64)
    highs = vectors.max(axis=0).astype(np.float64)
    tree.bounds = tree.bounds.merge(Rect(lows, highs))

    # Root was pre-allocated as an empty data node; recycle its page.
    tree.nm.free(tree._root_id)

    def build_data_level(indices: np.ndarray) -> KDNode:
        if len(indices) <= tree.leaf_capacity:
            node = DataNode(tree.dims, tree.leaf_capacity)
            node.vectors[: len(indices)] = vectors[indices]
            node.oids[: len(indices)] = oids[indices]
            node.count = len(indices)
            node_id = tree.nm.allocate()
            tree.nm.put(node_id, node, charge=False)
            tree.els.set(node_id, node.live_rect())
            return KDLeaf(node_id)
        split = choose_data_split(
            vectors[indices].astype(np.float64),
            tree.min_fill,
            tree.split_policy,
            tree.split_position,
            tree.rr,
        )
        pos = float(np.float32(split.position))
        left = build_data_level(indices[split.left_indices])
        right = build_data_level(indices[split.right_indices])
        return KDInternal(split.dim, pos, pos, left, right)

    kd = build_data_level(np.arange(n))
    deferred: list[tuple[np.ndarray, int]] = []
    level = 1
    while isinstance(kd, KDInternal):
        kd = _pack_level(tree, kd, level, deferred)
        level += 1
    # kd is now a single leaf pointing at the root node.
    tree._root_id = kd.child_id
    tree._height = level
    tree._count = n - len(deferred)
    # Entries _pack_level could not place (pathologically skewed split
    # trees) go through the normal dynamic insert path instead.
    for vector, oid in deferred:
        tree.insert(vector, oid)
    tree.modified_since_save = True
    tree.invalidate_snapshot()
    return len(deferred)


def _collect_and_free(tree, kd: KDNode, deferred: list) -> None:
    """Dismantle an already-packed subtree: free every node under ``kd``
    (dropping its ELS boxes) and collect the raw ``(vector, oid)`` entries
    for per-insert reloading."""

    def dismantle(node_id: int) -> None:
        node = tree.nm.get(node_id, charge=False)
        if isinstance(node, DataNode):
            points = node.points()
            live = node.live_oids()
            for i in range(node.count):
                deferred.append((points[i].copy(), int(live[i])))
        else:
            for child_id in node.child_ids():
                dismantle(child_id)
        tree.nm.free(node_id)
        tree.els.drop(node_id)

    for leaf in kdnodes.iter_leaves(kd):
        dismantle(leaf.child_id)


def _pack_level(tree, kd: KDNode, level: int, deferred: list | None = None) -> KDNode:
    """Chop a kd split tree into page-sized index nodes at ``level``.

    Subtrees with at most ``index_capacity`` leaves become one index node;
    larger subtrees keep their top split and recurse, so the returned tree's
    leaves are the new (level-``level``) nodes and its internals become the
    next level's intranode structure.
    """
    if isinstance(kd, KDLeaf) or kdnodes.count_leaves(kd) <= tree.index_capacity:
        if isinstance(kd, KDLeaf):
            # A lone child cannot form a legal index node; let the caller
            # absorb it (only possible at the very top, handled by the loop).
            return kd
        node = IndexNode(kd, level)
        node_id = tree.nm.allocate()
        tree.nm.put(node_id, node, charge=False)
        lives = [tree.els.get(c) for c in node.child_ids()]
        tree.els.set(node_id, Rect.merge_all([r for r in lives if r is not None]))
        return KDLeaf(node_id)
    assert isinstance(kd, KDInternal)
    if kdnodes.count_leaves(kd.left) < 2 or kdnodes.count_leaves(kd.right) < 2:
        # A lone child next to an over-capacity sibling cannot form a legal
        # index node.  The utilization bound on splits makes leaf counts of
        # siblings comparable, so this needs a pathologically skewed split
        # tree (extreme min_fill on heavily clustered data).  Degrade
        # gracefully: dismantle the lone side, defer its entries to the
        # dynamic insert path, and pack only the bulk side.  (Both sides
        # cannot be lone: the subtree is over capacity, so >= 3 leaves.)
        if kdnodes.count_leaves(kd.left) < 2:
            lone, bulk = kd.left, kd.right
        else:
            lone, bulk = kd.right, kd.left
        assert deferred is not None, "skewed split tree outside bulk_load_into"
        _collect_and_free(tree, lone, deferred)
        return _pack_level(tree, bulk, level, deferred)
    left = _pack_level(tree, kd.left, level, deferred)
    right = _pack_level(tree, kd.right, level, deferred)
    return KDInternal(kd.dim, kd.lsp, kd.rsp, left, right)
