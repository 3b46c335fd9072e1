"""SS-tree (White & Jain 1995) — DP-based, distance-based baseline.

Subtrees are bounded by spheres around their centroids; insertion descends to
the closest centroid and splits occur on the dimension of maximal centroid
variance at the coordinate median.  An index entry costs ``4k + 8`` bytes, so
fanout degrades with dimensionality (more slowly than the R-tree's boxes).

Being *distance-based*, the SS-tree is committed to the metric its geometry
encodes: sphere bounds are Euclidean, so distance queries under any other
metric are rejected — exactly the limitation the hybrid tree's feature-based
design avoids (paper Sections 1-2).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import EntryLeaf, check_vector
from repro.distances import LpMetric, Metric
from repro.engine.kernel import ChildBound
from repro.engine.mixins import KernelQueryMixin
from repro.geometry.rect import Rect
from repro.geometry.sphere import Sphere
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity, sstree_node_capacity
from repro.storage.pagestore import PageStore


def _is_euclidean(metric: Metric) -> bool:
    return isinstance(metric, LpMetric) and metric.p == 2.0


class SSEntry:
    """One index entry: child pointer + bounding sphere + subtree weight."""

    __slots__ = ("child_id", "sphere", "weight")

    def __init__(self, child_id: int, sphere: Sphere, weight: int):
        self.child_id = child_id
        self.sphere = sphere
        self.weight = weight


class _SphereBound(ChildBound):
    """Kernel pruning bound for a sphere-bounded subtree (per-row scalar
    geometry: sphere/box tests have no batched form)."""

    __slots__ = ("sphere",)

    def __init__(self, sphere: Sphere):
        self.sphere = sphere

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self.sphere.intersects_rect(Rect(lo, hi)) for lo, hi in zip(lows, highs)),
            dtype=bool,
            count=len(lows),
        )

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return np.fromiter(
            (self.sphere.mindist_point(q) for q in qs),
            dtype=np.float64,
            count=len(qs),
        )


class SSIndexNode:
    __slots__ = ("entries", "level")

    def __init__(self, level: int):
        self.entries: list[SSEntry] = []
        self.level = level

    @property
    def fanout(self) -> int:
        return len(self.entries)


class SSTree(KernelQueryMixin):
    """Dynamic SS-tree; supports Euclidean distance queries and box queries."""

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float = 0.4,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.leaf_capacity = data_node_capacity(dims, self.layout)
        self.index_capacity = sstree_node_capacity(dims, self.layout)
        self.min_fill = min_fill
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

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        return self.nm.store.allocated_pages

    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "SSTree":
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
        path: list[tuple[int, SSIndexNode, int]] = []
        node_id = self._root_id
        node = self.nm.get(node_id)
        while isinstance(node, SSIndexNode):
            idx = min(
                range(node.fanout),
                key=lambda i: float(np.linalg.norm(node.entries[i].sphere.center - v)),
            )
            entry = node.entries[idx]
            self._absorb_point(entry, v)
            self.nm.put(node_id, node)
            path.append((node_id, node, idx))
            node_id = entry.child_id
            node = self.nm.get(node_id)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_leaf(path, node_id, node, v, oid)
        self._count += 1

    @staticmethod
    def _absorb_point(entry: SSEntry, point: np.ndarray) -> None:
        """Update a centroid sphere to cover one more point: the centroid
        moves to the new mean; the radius grows by the shift (a valid bound)
        or to reach the new point."""
        sphere, w = entry.sphere, entry.weight
        new_center = (sphere.center * w + point) / (w + 1)
        shift = float(np.linalg.norm(new_center - sphere.center))
        new_radius = max(
            sphere.radius + shift, float(np.linalg.norm(point - new_center))
        )
        entry.sphere = Sphere(new_center, new_radius)
        entry.weight = w + 1

    def _split_leaf(self, path, node_id, node, vector, oid) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        group_a, group_b = self._variance_partition(points.astype(np.float64))
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for i in group_a:
            left.add(points[i], int(oids[i]))
        for i in group_b:
            right.add(points[i], int(oids[i]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path,
            SSEntry(node_id, Sphere.from_points(left.points()), left.count),
            SSEntry(right_id, Sphere.from_points(right.points()), right.count),
            level=1,
        )

    def _split_index(self, path, node_id, node) -> None:
        centers = np.array([e.sphere.center for e in node.entries])
        group_a, group_b = self._variance_partition(centers)
        left = SSIndexNode(node.level)
        right = SSIndexNode(node.level)
        left.entries = [node.entries[i] for i in group_a]
        right.entries = [node.entries[i] for i in group_b]
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path, self._summarise(node_id, left), self._summarise(right_id, right),
            level=node.level + 1,
        )

    @staticmethod
    def _summarise(node_id: int, node: SSIndexNode) -> SSEntry:
        weights = [e.weight for e in node.entries]
        sphere = Sphere.merge_all([e.sphere for e in node.entries], weights)
        return SSEntry(node_id, sphere, sum(weights))

    def _variance_partition(self, rows: np.ndarray) -> tuple[list[int], list[int]]:
        """White & Jain: split on the max-variance dimension at the median
        coordinate, clamped to the utilization bound."""
        n = rows.shape[0]
        dim = int(np.argmax(rows.var(axis=0)))
        order = np.argsort(rows[:, dim], kind="stable")
        min_count = max(1, int(np.floor(n * self.min_fill)))
        k = int(np.clip(n // 2, min_count, n - min_count))
        return order[:k].tolist(), order[k:].tolist()

    def _propagate_split(self, path, old_entry: SSEntry, new_entry: SSEntry, level: int):
        if not path:
            root = SSIndexNode(level)
            root.entries = [old_entry, new_entry]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = old_entry
        parent.entries.append(new_entry)
        self.nm.put(parent_id, parent)
        if parent.fanout > self.index_capacity:
            self._split_index(path, parent_id, parent)

    # ------------------------------------------------------------------
    # Queries: the traversal kernel (KernelQueryMixin) over the protocol
    # ------------------------------------------------------------------
    def point_search(self, vector: np.ndarray) -> list[int]:
        """Object ids stored at exactly ``vector`` (float32 equality)."""
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    def _require_euclidean(self, metric: Metric) -> None:
        if not _is_euclidean(metric):
            raise ValueError(
                "SS-tree bounding spheres are Euclidean; distance queries under "
                f"{metric!r} are unsupported (use a feature-based index such as "
                "the hybrid tree for arbitrary metrics)"
            )

    def trav_check_metric(self, metric: Metric) -> None:
        self._require_euclidean(metric)

    def trav_root(self):
        return self._root_id, None

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, EntryLeaf)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, ctx):
        return [
            (entry.child_id, None, _SphereBound(entry.sphere))
            for entry in node.entries
        ]
