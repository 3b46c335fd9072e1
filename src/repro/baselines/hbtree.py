"""hB-tree (Lomet & Salzberg, TODS 1990) — the paper's SP competitor.

The holey-brick tree splits nodes by *extracting a subtree* of the intranode
kd-tree whose share of the node's children lies in [1/3, 2/3] — a balance
guarantee no single hyperplane can give.  The extracted region is a
rectangle; what remains is a "holey brick".  The split is *posted* to the
parent as the kd path leading to the extraction, so the remaining host child
appears once per path step in the parent's kd-tree: this is the **storage
redundancy** of Table 1 (an hB split uses up to d <= k dimensions, d
hyperplanes and d kd-tree nodes), and it consumes real parent page budget,
reducing effective fanout exactly the way the published structure pays for
its clean, non-overlapping regions.

Faithfully modelled consequences:

- splits never overlap and never cascade downward (Table 1: no overlap,
  guaranteed utilisation, redundancy present);
- a node may be referenced by several kd leaves of its parent; queries
  de-duplicate page touches, postings are grafted at *every* fragment.

One deliberate simplification: extractions are restricted to
*reference-closed* subtrees (a child's references never split across the two
sides), so a node always has exactly one parent.  The original hB-tree
permits multi-parent nodes; keeping the node graph a tree preserves the
structure's cost profile (clean regions, redundancy, dimension-independent
fanout) while avoiding the notoriously error-prone multi-parent posting
protocol.  Deletion performs plain entry removal without node merging, which
the paper's experiments never exercise.

The paper's footnote 2 excludes the hB-tree from distance-query experiments;
we nevertheless provide ``distance_range``/``knn`` (kd-region lower bounds
remain valid) so users can measure what the paper chose not to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.baselines.common import EntryLeaf, check_vector
from repro.core import kdnodes
from repro.core.kdnodes import KDInternal, KDLeaf, KDNode
from repro.core.splits import choose_data_split
from repro.distances import Metric, mindist_rect_many
from repro.engine.kernel import ChildBound
from repro.engine.mixins import KernelQueryMixin
from repro.geometry.rect import Rect
from repro.storage.iostats import IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import PageLayout, data_node_capacity, kdtree_node_capacity
from repro.storage.pagestore import PageStore


@dataclass(frozen=True)
class _Cut:
    """One step of an extraction path: the split plane and which side the
    extracted region continues on."""

    dim: int
    pos: float
    extracted_right: bool


class HBIndexNode:
    """Index page: a *clean* intranode kd-tree (``lsp == rsp`` everywhere).

    Distinct leaves may reference the same child (path-posting redundancy),
    so ``kd_size`` (what the page budget charges) and ``fanout`` (distinct
    children) differ.
    """

    __slots__ = ("kd_root", "level")

    def __init__(self, kd_root: KDNode, level: int):
        self.kd_root = kd_root
        self.level = level

    @property
    def kd_size(self) -> int:
        """Leaves including duplicates — the page-budget measure."""
        return kdnodes.count_leaves(self.kd_root)

    @property
    def fanout(self) -> int:
        return len(set(kdnodes.child_ids(self.kd_root)))


class _HBBound(ChildBound):
    """Kernel pruning bound for one kd-leaf fragment of an hB index node.

    Box queries test the *path-constraint rect* (±inf outside the kd path's
    clipped dims): the scalar walk never tested the query against the node's
    own region, only against the kd split planes, and a query box outside
    the tree bounds must still traverse.  Distance queries use the true
    clipped region, whose mindist subsumes every internal-edge test.
    """

    __slots__ = ("path_rect", "region")

    def __init__(self, path_rect: Rect, region: Rect):
        self.path_rect = path_rect
        self.region = region

    def box_mask(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self.path_rect.intersects_boxes_mask(lows, highs)

    def mindist(self, qs: np.ndarray, metric: Metric) -> np.ndarray:
        return mindist_rect_many(metric, qs, self.region.low, self.region.high)


class HBTree(KernelQueryMixin):
    """Dynamic hB-tree over a ``dims``-dimensional feature space."""

    # Fragments share pages: the kernel charges each page once per batch
    # and scans each (leaf, query) pair once, like the old per-query
    # ``charged``/``scanned`` sets.
    trav_dedup = True

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
    ) -> "HBTree":
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
        path: list[tuple[int, HBIndexNode, Rect]] = []
        node_id, region = self._root_id, self.bounds
        node = self.nm.get(node_id)
        while isinstance(node, HBIndexNode):
            path.append((node_id, node, region))
            node_id, region = self._descend(node.kd_root, region, v)
            node = self.nm.get(node_id)
        if not node.is_full:
            node.add(v, oid)
            self.nm.put(node_id, node)
        else:
            self._split_leaf(path, node_id, node, v, oid)
        self._count += 1

    @staticmethod
    def _descend(kd: KDNode, region: Rect, point: np.ndarray) -> tuple[int, Rect]:
        """Deterministic routing: clean splits tile the region exactly."""
        while isinstance(kd, KDInternal):
            if point[kd.dim] <= kd.lsp:
                region = region.clip_below(kd.dim, kd.lsp)
                kd = kd.left
            else:
                region = region.clip_above(kd.dim, kd.rsp)
                kd = kd.right
        return kd.child_id, region

    # ------------------------------------------------------------------
    # Splitting and posting
    # ------------------------------------------------------------------
    def _split_leaf(self, path, node_id, node, vector, oid) -> None:
        points = np.vstack([node.points(), np.asarray(vector, dtype=np.float32)])
        oids = np.append(node.live_oids(), np.uint32(oid))
        split = choose_data_split(
            points.astype(np.float64), min_fill=1.0 / 3.0, position_rule="median"
        )
        left = EntryLeaf(self.dims, self.leaf_capacity)
        right = EntryLeaf(self.dims, self.leaf_capacity)
        for i in split.left_indices:
            left.add(points[i], int(oids[i]))
        for i in split.right_indices:
            right.add(points[i], int(oids[i]))
        right_id = self.nm.allocate()
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        pos = float(np.float32(split.position))
        cuts = [_Cut(split.dim, pos, extracted_right=True)]
        self._post(path, host_id=node_id, new_id=right_id, cuts=cuts)

    def _post(self, path, host_id: int, new_id: int, cuts: list[_Cut]) -> None:
        """Install a posting in the parent: at *every* leaf referencing the
        host, graft the (region-simplified) extraction path so points on the
        extracted side now route to ``new_id``."""
        if not path:
            kd = _graft(self.bounds, cuts, host_id, new_id)
            if isinstance(kd, KDLeaf):
                # Degenerate graft (extraction outside the root bounds) —
                # cannot happen for a real split, guard anyway.
                kd = KDInternal(cuts[0].dim, cuts[0].pos, cuts[0].pos,
                                KDLeaf(host_id), KDLeaf(new_id))
            root = HBIndexNode(kd, level=self._height)
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, parent_region = path.pop()
        parent.kd_root = _graft_everywhere(
            parent.kd_root, parent_region, host_id, new_id, cuts
        )
        self.nm.put(parent_id, parent)
        if parent.kd_size > self.index_capacity:
            self._split_index(path, parent_id, parent)

    def _split_index(self, path, node_id: int, node: HBIndexNode) -> None:
        """Extract a reference-closed, [1/3, 2/3]-balanced kd subtree into a
        sibling node and post the extraction path upward."""
        chosen = _choose_extraction(node.kd_root)
        if chosen is None:
            raise RuntimeError(
                "hB-tree index node admits no reference-closed extraction; "
                "this configuration is not reachable from an empty tree"
            )
        cuts, extracted = chosen
        new_node = HBIndexNode(extracted, node.level)
        new_id = self.nm.allocate()
        node.kd_root = _remove_subtree(node.kd_root, extracted)
        self.nm.put(node_id, node)
        self.nm.put(new_id, new_node)
        self._post(path, host_id=node_id, new_id=new_id, cuts=cuts)

    # ------------------------------------------------------------------
    # Deletion (simple removal; see module docstring)
    # ------------------------------------------------------------------
    def delete(self, vector: np.ndarray, oid: int) -> bool:
        self.invalidate_snapshot()
        v = check_vector(vector, self.dims)
        target = np.asarray(v, dtype=np.float32)
        node_id, region = self._root_id, self.bounds
        node = self.nm.get(node_id)
        while isinstance(node, HBIndexNode):
            node_id, region = self._descend(node.kd_root, region, v)
            node = self.nm.get(node_id)
        hits = np.flatnonzero(node.live_oids() == oid)
        for idx in hits:
            if np.array_equal(node.vectors[idx], target):
                last = node.count - 1
                if idx != last:
                    node.vectors[idx] = node.vectors[last]
                    node.oids[idx] = node.oids[last]
                node.count = last
                self.nm.put(node_id, node)
                self._count -= 1
                return True
        return False

    # ------------------------------------------------------------------
    # Queries: the traversal kernel (KernelQueryMixin) over the protocol,
    # with page touches de-duplicated (fragments share pages)
    # ------------------------------------------------------------------
    def point_search(self, vector: np.ndarray) -> list[int]:
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    def trav_root(self):
        return self._root_id, self.bounds

    def trav_node(self, ref: int, charge: bool = True):
        return self.nm.get(ref, charge=charge)

    def trav_is_leaf(self, node) -> bool:
        return isinstance(node, EntryLeaf)

    def trav_leaf_points(self, node):
        return node.points(), node.live_oids()

    def trav_children(self, node, region):
        out = []
        path0 = Rect(np.full(self.dims, -np.inf), np.full(self.dims, np.inf))

        def walk(kd: KDNode, reg: Rect, path: Rect) -> None:
            if isinstance(kd, KDLeaf):
                out.append((kd.child_id, reg, _HBBound(path, reg)))
                return
            walk(
                kd.left,
                reg.clip_below(kd.dim, kd.lsp),
                path.clip_below(kd.dim, kd.lsp),
            )
            walk(
                kd.right,
                reg.clip_above(kd.dim, kd.rsp),
                path.clip_above(kd.dim, kd.rsp),
            )

        walk(node.kd_root, region, path0)
        return out

    # ------------------------------------------------------------------
    # Structural measurements
    # ------------------------------------------------------------------
    def redundancy_ratio(self) -> float:
        """Mean (kd leaves) / (distinct children) over index nodes — 1.0
        means no posting redundancy; the hB-tree exceeds it by design."""
        ratios: list[float] = []
        seen: set[int] = set()

        def visit(node_id: int) -> None:
            if node_id in seen:
                return
            seen.add(node_id)
            node = self.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                return
            ratios.append(node.kd_size / node.fanout)
            for child_id in kdnodes.child_ids(node.kd_root):
                visit(child_id)

        visit(self._root_id)
        return float(np.mean(ratios)) if ratios else 1.0

    def utilization_profile(self) -> list[float]:
        """Fill factors of the data pages (the 1/3 guarantee in action)."""
        fills: list[float] = []
        seen: set[int] = set()

        def visit(node_id: int) -> None:
            if node_id in seen:
                return
            seen.add(node_id)
            node = self.nm.get(node_id, charge=False)
            if isinstance(node, EntryLeaf):
                fills.append(node.count / node.capacity)
                return
            for child_id in kdnodes.child_ids(node.kd_root):
                visit(child_id)

        visit(self._root_id)
        return fills


# ----------------------------------------------------------------------
# Posting helpers (module-level: pure kd-tree surgery)
# ----------------------------------------------------------------------
def _graft(region: Rect, cuts: list[_Cut], host_id: int, new_id: int) -> KDNode:
    """Build the posting subtree for one host fragment.

    Cut planes falling outside the fragment are simplified away: if the
    fragment lies entirely on the extracted side the path just continues; if
    it lies entirely on the host side the whole fragment stays with the host.
    """

    def build(i: int, region: Rect) -> KDNode:
        if i == len(cuts):
            return KDLeaf(new_id)
        cut = cuts[i]
        lo, hi = region.low[cut.dim], region.high[cut.dim]
        if cut.extracted_right:
            if cut.pos <= lo:
                return build(i + 1, region)
            if cut.pos >= hi:
                return KDLeaf(host_id)
            return KDInternal(
                cut.dim, cut.pos, cut.pos,
                KDLeaf(host_id), build(i + 1, region.clip_above(cut.dim, cut.pos)),
            )
        if cut.pos >= hi:
            return build(i + 1, region)
        if cut.pos <= lo:
            return KDLeaf(host_id)
        return KDInternal(
            cut.dim, cut.pos, cut.pos,
            build(i + 1, region.clip_below(cut.dim, cut.pos)), KDLeaf(host_id),
        )

    return build(0, region)


def _graft_everywhere(
    kd: KDNode, region: Rect, host_id: int, new_id: int, cuts: list[_Cut]
) -> KDNode:
    """Replace every leaf referencing ``host_id`` with its grafted posting."""
    if isinstance(kd, KDLeaf):
        if kd.child_id != host_id:
            return kd
        return _graft(region, cuts, host_id, new_id)
    kd.left = _graft_everywhere(
        kd.left, region.clip_below(kd.dim, kd.lsp), host_id, new_id, cuts
    )
    kd.right = _graft_everywhere(
        kd.right, region.clip_above(kd.dim, kd.rsp), host_id, new_id, cuts
    )
    return kd


def _choose_extraction(root: KDNode) -> tuple[list[_Cut], KDNode] | None:
    """Find the extraction subtree: reference-closed (no child's references
    split across the boundary), proper (neither the root nor empty), and as
    close to half the leaves as possible; subject to that, shortest path
    (fewest posted kd nodes).  Returns (cuts along the path, subtree)."""
    total_refs = Counter(kdnodes.child_ids(root))
    total = sum(total_refs.values())
    best: tuple[float, int, list[_Cut], KDNode] | None = None

    def consider(sub: KDNode, cuts: list[_Cut]) -> None:
        nonlocal best
        sub_refs = Counter(kdnodes.child_ids(sub))
        size = sum(sub_refs.values())
        if size == total:
            return
        if any(total_refs[cid] != count for cid, count in sub_refs.items()):
            return  # not reference-closed
        balance = abs(size - total / 2.0)
        key = (balance, len(cuts))
        if best is None or key < (best[0], best[1]):
            best = (balance, len(cuts), list(cuts), sub)

    def walk(node: KDNode, cuts: list[_Cut]) -> None:
        if isinstance(node, KDLeaf):
            consider(node, cuts)
            return
        consider(node, cuts)
        cuts.append(_Cut(node.dim, node.lsp, extracted_right=False))
        walk(node.left, cuts)
        cuts.pop()
        cuts.append(_Cut(node.dim, node.lsp, extracted_right=True))
        walk(node.right, cuts)
        cuts.pop()

    # consider() on the root is skipped via the size == total guard.
    walk(root, [])
    if best is None:
        return None
    return best[2], best[3]


def _remove_subtree(root: KDNode, target: KDNode) -> KDNode:
    """Remove ``target`` (by identity) from the tree, promoting its sibling."""
    if root is target:
        raise ValueError("cannot remove the whole kd-tree")

    def go(node: KDNode) -> KDNode:
        if isinstance(node, KDLeaf):
            return node
        if node.left is target:
            return go(node.right)
        if node.right is target:
            return go(node.left)
        node.left = go(node.left)
        node.right = go(node.right)
        return node

    return go(root)
