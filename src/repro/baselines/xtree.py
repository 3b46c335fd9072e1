"""X-tree (Berchtold, Keim & Kriegel, VLDB 1996) — R-tree with supernodes.

Section 2 of the hybrid-tree paper lists the X-tree among the DP-based,
feature-based structures.  Its idea: when splitting an R-tree directory node
would produce heavily overlapping halves, *don't split* — extend the node
into a multi-page **supernode** scanned sequentially, trading fanout for
overlap-freedom.  At high dimensionality the directory degenerates toward a
supernode chain, i.e. toward the linear scan — which is the behaviour the
hybrid tree's 1-d overlap-bounded splits avoid.

Built as a subclass of our Guttman R-tree: the split path first tries the
quadratic split, then the best single-dimension (topological) split; if both
exceed the overlap threshold the node becomes a supernode.  Supernodes
occupy several pages, and every visit charges that many page reads.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.rtree import RIndexNode, RTree
from repro.geometry.rect import Rect
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.pagestore import PageStore


class SupernodeManager(NodeManager):
    """Node cache that charges multi-page reads/writes for supernodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.page_counts: dict[int, int] = {}

    def _pages_of(self, page_id: int) -> int:
        return self.page_counts.get(page_id, 1)

    def get(self, page_id: int, charge: bool = True):
        node = self._cache.get(page_id)
        if node is not None:
            if charge:
                self.stats.record(AccessKind.RANDOM_READ, self._pages_of(page_id))
            return node
        return super().get(page_id, charge=charge)

    def put(self, page_id: int, node, charge: bool = True) -> None:
        self._cache[page_id] = node
        self._dirty.add(page_id)
        if charge:
            self.stats.record(AccessKind.RANDOM_WRITE, self._pages_of(page_id))

    def free(self, page_id: int) -> None:
        self.page_counts.pop(page_id, None)
        super().free(page_id)


class XTree(RTree):
    """Dynamic X-tree with overlap-bounded splits and supernodes."""

    node_manager_type = SupernodeManager

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        min_fill: float = 0.4,
        max_overlap: float = 0.2,
        max_supernode_pages: int = 8,
        store: PageStore | None = None,
        stats: IOStats | None = None,
    ):
        if not 0.0 <= max_overlap <= 1.0:
            raise ValueError("max_overlap must be in [0, 1]")
        if max_supernode_pages < 1:
            raise ValueError("max_supernode_pages must be >= 1")
        super().__init__(
            dims, page_size=page_size, min_fill=min_fill, store=store, stats=stats
        )
        self.max_overlap = max_overlap
        self.max_supernode_pages = max_supernode_pages

    # ------------------------------------------------------------------
    def _capacity_of(self, node_id: int) -> int:
        return self.index_capacity * self.nm.page_counts.get(node_id, 1)

    def supernode_count(self) -> int:
        return sum(1 for pages in self.nm.page_counts.values() if pages > 1)

    def trav_node_pages(self, ref: int) -> int:
        # Supernodes occupy (and charge) several pages per visit; the SOA
        # kernel uses this to reproduce the object walk's accounting.
        return self.nm.page_counts.get(ref, 1)

    @staticmethod
    def _group_rects(entries, group) -> Rect:
        return Rect.merge_all([entries[i][1] for i in group])

    @staticmethod
    def _overlap_ratio(entries, group_a: list[int], group_b: list[int]) -> float:
        """Fraction of entries whose rect intersects *both* halves' MBRs.

        Volume-based overlap is useless in high dimensions (a single
        disjoint dimension zeroes the product), so, like Berchtold et al.,
        we measure how many objects a query falling in the overlap region
        would have to follow into both subtrees."""
        rect_a = XTree._group_rects(entries, group_a)
        rect_b = XTree._group_rects(entries, group_b)
        inter = rect_a.intersection(rect_b)
        if inter is None:
            return 0.0
        both = sum(1 for _, rect in entries if rect.intersects(inter))
        return both / len(entries)

    def _topological_partition(self, entries) -> tuple[list[int], list[int], float]:
        """Best single-dimension split by centre order (the X-tree's
        split-history-guided fallback, approximated by trying every dim)."""
        n = len(entries)
        min_count = max(1, int(np.floor(n * self.min_fill)))
        centers = np.array([r.center for _, r in entries])
        best: tuple[float, list[int], list[int]] | None = None
        for dim in range(self.dims):
            order = np.argsort(centers[:, dim], kind="stable")
            k = int(np.clip(n // 2, min_count, n - min_count))
            group_a = order[:k].tolist()
            group_b = order[k:].tolist()
            ratio = self._overlap_ratio(entries, group_a, group_b)
            if best is None or ratio < best[0]:
                best = (ratio, group_a, group_b)
        assert best is not None
        ratio, group_a, group_b = best
        return group_a, group_b, ratio

    # ------------------------------------------------------------------
    def _propagate_split(self, path, old_id, old_rect, new_id, new_rect, level):
        if not path:
            root = RIndexNode(level)
            root.entries = [(old_id, old_rect), (new_id, new_rect)]
            new_root_id = self.nm.allocate()
            self.nm.put(new_root_id, root)
            self._root_id = new_root_id
            self._height += 1
            return
        parent_id, parent, entry_idx = path.pop()
        parent.entries[entry_idx] = (old_id, old_rect)
        parent.entries.append((new_id, new_rect))
        self.nm.put(parent_id, parent)
        if parent.fanout > self._capacity_of(parent_id):
            self._split_or_extend(path, parent_id, parent)

    def _split_or_extend(self, path, node_id: int, node: RIndexNode) -> None:
        """The X-tree split decision: split if some partition is clean
        enough, otherwise grow a supernode."""
        rects = [rect for _, rect in node.entries]
        group_a, group_b = self._quadratic_partition(rects)
        ratio_quadratic = self._overlap_ratio(node.entries, group_a, group_b)
        if ratio_quadratic > self.max_overlap:
            topo_a, topo_b, ratio_topo = self._topological_partition(node.entries)
            if ratio_topo < ratio_quadratic:
                group_a, group_b, ratio_quadratic = topo_a, topo_b, ratio_topo
        pages = self.nm.page_counts.get(node_id, 1)
        if ratio_quadratic > self.max_overlap and pages < self.max_supernode_pages:
            # No overlap-free split exists: extend into a supernode.
            self.nm.page_counts[node_id] = pages + 1
            self.nm.put(node_id, node)
            return
        left = RIndexNode(node.level)
        right = RIndexNode(node.level)
        left.entries = [node.entries[i] for i in group_a]
        right.entries = [node.entries[i] for i in group_b]
        right_id = self.nm.allocate()
        self.nm.page_counts.pop(node_id, None)  # halves are plain nodes again
        self.nm.put(node_id, left)
        self.nm.put(right_id, right)
        self._propagate_split(
            path,
            node_id,
            Rect.merge_all([r for _, r in left.entries]),
            right_id,
            Rect.merge_all([r for _, r in right.entries]),
            level=node.level + 1,
        )

    def _split_index(self, path, node_id, node) -> None:
        # Deletion-path reinsertions also route through the X-tree decision.
        self._split_or_extend(path, node_id, node)

    def pages(self) -> int:
        """Allocated pages plus the extra pages of supernodes."""
        extra = sum(p - 1 for p in self.nm.page_counts.values())
        return self.nm.store.allocated_pages + extra
