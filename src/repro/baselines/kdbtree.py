"""KDB-tree (Robinson 1981) — pure SP baseline with *forced clean* splits.

The KDB-tree splits every node with a single (dimension, position) cut and
requires the resulting regions to be strictly disjoint.  When an index node
splits, children straddling the cut must themselves be cut — the *downward
cascading splits* — which can create arbitrarily under-full (even empty)
pages: the KDB-tree offers no utilization guarantee (Table 1), and the paper
cites Greene's measurement of its poor performance beyond 4 dimensions.  The
hybrid tree exists precisely to relax this constraint.

Index nodes here keep explicit ``(child_id, region)`` entries for clarity;
the on-disk representation would be the (clean) kd-tree of cuts, so capacity
is charged via :func:`repro.storage.page.kdtree_node_capacity` like the other
1-d-split structures.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import EntryLeaf, check_vector
from repro.engine.kernel import RectBound
from repro.engine.mixins import KernelQueryMixin
from repro.geometry.rect import Rect
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity, kdtree_node_capacity
from repro.storage.pagestore import PageStore


class KDBIndexNode:
    """Index page: disjoint child regions exactly tiling the node region."""

    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[tuple[int, Rect]] = []
        self.level = level

    @property
    def fanout(self) -> int:
        return len(self.entries)


class KDBTree(KernelQueryMixin):
    """Dynamic KDB-tree with honest cascading splits."""

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        bounds: Rect | None = None,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = data_node_capacity(dims, self.layout)
        self.index_capacity = kdtree_node_capacity(dims, self.layout)
        self.bounds = bounds if bounds is not None else Rect.unit(dims)
        self.nm = NodeManager(store=store, stats=stats)
        self._root_id = self.nm.allocate()
        self.nm.put(self._root_id, EntryLeaf(dims, self.leaf_capacity), charge=False)
        self._height = 1
        self._count = 0

    @property
    def io(self) -> IOStats:
        return self.nm.stats

    @property
    def height(self) -> int:
        return self._height

    @property
    def root_id(self) -> int:
        return self._root_id

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        return self.nm.store.allocated_pages

    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "KDBTree":
        vectors = np.asarray(vectors, dtype=np.float32)
        tree = cls(vectors.shape[1], **kwargs)
        ids = oids if oids is not None else range(len(vectors))
        for v, oid in zip(vectors, ids):
            tree.insert(v, int(oid))
        return tree

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, vector: np.ndarray, oid: int) -> None:
        self.invalidate_snapshot()
        v = check_vector(vector, self.dims)
        if not self.bounds.contains_point(v):
            self.bounds = self.bounds.merge_point(v)
        path: list[tuple[int, KDBIndexNode, int]] = []
        node_id, region = self._root_id, self.bounds
        node = self.nm.get(node_id)
        while isinstance(node, KDBIndexNode):
            idx = self._containing_entry(node, v)
            path.append((node_id, node, idx))
            node_id, region = node.entries[idx]
            node = self.nm.get(node_id)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_leaf(path, node_id, node, region, v, oid)
        self._count += 1

    @staticmethod
    def _containing_entry(node: KDBIndexNode, point: np.ndarray) -> int:
        """Disjoint regions: pick the first closed region containing the
        point (shared boundaries may match two; either is correct)."""
        for i, (_, rect) in enumerate(node.entries):
            if rect.contains_point(point):
                return i
        raise RuntimeError("KDB regions failed to cover the point")

    def _split_leaf(self, path, node_id, node, region, vector, oid) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        dim, pos = self._choose_cut_points(points, region)
        left_id, right_id = self._materialise_leaf_cut(node_id, points, oids, dim, pos)
        self._propagate(path, node_id, left_id, right_id, region, dim, pos, level=1)

    def _choose_cut_points(self, points: np.ndarray, region: Rect) -> tuple[int, float]:
        """Max-extent dimension, cut between the two middle distinct values
        (Robinson's point-page split)."""
        extents = points.max(axis=0) - points.min(axis=0)
        for dim in np.argsort(-extents, kind="stable"):
            dim = int(dim)
            values = np.unique(points[:, dim])
            if len(values) < 2:
                continue
            mid = len(values) // 2
            lo = values[mid - 1] if mid > 0 else values[0]
            hi = values[mid] if mid < len(values) else values[-1]
            return dim, float(np.float32((float(lo) + float(hi)) / 2.0))
        # All points identical: cut at the value (right side gets nothing).
        return 0, float(points[0, 0])

    def _materialise_leaf_cut(self, node_id, points, oids, dim, pos) -> tuple[int, int]:
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for p, o in zip(points, oids):
            (left if p[dim] <= pos else right).add(p, int(o))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        return node_id, right_id

    def _propagate(self, path, old_id, left_id, right_id, region, dim, pos, level) -> None:
        left_region = region.clip_below(dim, pos)
        right_region = region.clip_above(dim, pos)
        if not path:
            root = KDBIndexNode(level)
            root.entries = [(left_id, left_region), (right_id, right_region)]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = (left_id, left_region)
        parent.entries.insert(entry_idx + 1, (right_id, right_region))
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index(path, parent_id, parent, self._region_of(path, parent_id))

    def _region_of(self, path, node_id) -> Rect:
        """Region of a node given the remaining ancestor path."""
        if not path:
            return self.bounds
        parent = path[-1][1]
        for child_id, rect in parent.entries:
            if child_id == node_id:
                return rect
        raise KeyError(node_id)

    def _split_index(self, path, node_id, node, region) -> None:
        """Split an index page with a clean cut, cascading into straddlers.

        This is the KDB-tree's defining (and costly) operation: children
        crossing the cut are themselves cut recursively, all the way down.
        """
        dim = int(np.argmax(region.extents))
        # Cut at the median of child boundaries to balance the halves.
        boundaries = sorted(
            {float(r.low[dim]) for _, r in node.entries}
            | {float(r.high[dim]) for _, r in node.entries}
        )
        interior = [b for b in boundaries if region.low[dim] < b < region.high[dim]]
        pos = (
            interior[len(interior) // 2]
            if interior
            else float((region.low[dim] + region.high[dim]) / 2.0)
        )
        left = KDBIndexNode(node.level)
        right = KDBIndexNode(node.level)
        for child_id, rect in node.entries:
            if rect.high[dim] <= pos:
                left.entries.append((child_id, rect))
            elif rect.low[dim] >= pos:
                right.entries.append((child_id, rect))
            else:  # straddler: cascade
                lid, rid = self._cascade_cut(child_id, rect, dim, pos)
                left.entries.append((lid, rect.clip_below(dim, pos)))
                right.entries.append((rid, rect.clip_above(dim, pos)))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate(
            path, node_id, node_id, right_id, region, dim, pos, level=node.level + 1
        )

    def _cascade_cut(self, node_id: int, region: Rect, dim: int, pos: float) -> tuple[int, int]:
        """Cut an arbitrary subtree at ``x_dim = pos``; may create empty or
        under-full pages (the utilization loss the paper charges KDB with)."""
        node = self.nm.get(node_id, charge=False)
        if isinstance(node, EntryLeaf):
            points = node.points().copy()
            oids = node.live_oids().copy()
            return self._materialise_leaf_cut(node_id, points, oids, dim, pos)
        left = KDBIndexNode(node.level)
        right = KDBIndexNode(node.level)
        for child_id, rect in node.entries:
            if rect.high[dim] <= pos:
                left.entries.append((child_id, rect))
            elif rect.low[dim] >= pos:
                right.entries.append((child_id, rect))
            else:
                lid, rid = self._cascade_cut(child_id, rect, dim, pos)
                left.entries.append((lid, rect.clip_below(dim, pos)))
                right.entries.append((rid, rect.clip_above(dim, pos)))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        return node_id, right_id

    # ------------------------------------------------------------------
    # Queries: the traversal kernel (KernelQueryMixin) over the protocol
    # ------------------------------------------------------------------
    def point_search(self, vector: np.ndarray) -> list[int]:
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    def trav_root(self):
        return self._root_id, None

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, EntryLeaf)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, ctx):
        return [(child_id, None, RectBound(rect)) for child_id, rect in node.entries]

    # ------------------------------------------------------------------
    # Structural measurements (Table 1 evidence)
    # ------------------------------------------------------------------
    def utilization_profile(self) -> list[float]:
        """Fill factors of every data page — exhibits the empty/under-full
        pages cascading splits create."""
        fills: list[float] = []

        def visit(node_id: int) -> None:
            node = self.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                fills.append(node.count / node.capacity)
                return
            for child_id, _ in node.entries:
                visit(child_id)

        visit(self._root_id)
        return fills
