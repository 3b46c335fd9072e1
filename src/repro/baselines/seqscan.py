"""Sequential scan — the baseline everything is normalized against.

Beyond 10-15 dimensions a linear scan often beats tree indexes [Beyer et al.
1999; Weber et al. 1998], so the paper normalizes every cost against it,
charging its page reads at one tenth of a random access.  This implementation
scans a densely packed heap file with numpy and charges
``ceil(n / tuples_per_page)`` sequential reads per query.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import check_vector
from repro.distances import L2, Metric
from repro.engine.mixins import BatchQueryMixin
from repro.geometry.rect import Rect
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.page import PageLayout, data_node_capacity


class SequentialScan(BatchQueryMixin):
    """Heap-file linear scan supporting the same query API as the trees."""

    def __init__(
        self,
        dims: int,
        *,
        page_size: int = 4096,
        stats: IOStats | None = None,
        initial_capacity: int = 1024,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.layout = PageLayout(page_size=page_size)
        self.tuples_per_page = data_node_capacity(dims, self.layout)
        self.io = stats if stats is not None else IOStats()
        self._vectors = np.empty((initial_capacity, dims), dtype=np.float32)
        self._oids = np.empty(initial_capacity, dtype=np.uint32)
        self._count = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, vectors: np.ndarray, oids: np.ndarray | None = None, **kwargs
    ) -> "SequentialScan":
        vectors = np.asarray(vectors, dtype=np.float32)
        scan = cls(vectors.shape[1], initial_capacity=max(len(vectors), 1), **kwargs)
        scan._vectors[: len(vectors)] = vectors
        if oids is None:
            scan._oids[: len(vectors)] = np.arange(len(vectors), dtype=np.uint32)
        else:
            scan._oids[: len(vectors)] = np.asarray(oids, dtype=np.uint32)
        scan._count = len(vectors)
        return scan

    def insert(self, vector: np.ndarray, oid: int) -> None:
        v = check_vector(vector, self.dims)
        if self._count == len(self._vectors):
            self._vectors = np.resize(self._vectors, (2 * len(self._vectors), self.dims))
            self._oids = np.resize(self._oids, 2 * len(self._oids))
        self._vectors[self._count] = v
        self._oids[self._count] = oid
        self._count += 1

    def delete(self, vector: np.ndarray, oid: int) -> bool:
        v = np.asarray(vector, dtype=np.float32)
        candidates = np.flatnonzero(self._oids[: self._count] == oid)
        for idx in candidates:
            if np.array_equal(self._vectors[idx], v):
                last = self._count - 1
                self._vectors[idx] = self._vectors[last]
                self._oids[idx] = self._oids[last]
                self._count = last
                return True
        return False

    def __len__(self) -> int:
        return self._count

    def pages(self) -> int:
        return -(-self._count // self.tuples_per_page) if self._count else 0

    def _charge_scan(self) -> None:
        self.io.record(AccessKind.SEQUENTIAL_READ, self.pages())

    # ------------------------------------------------------------------
    # Queries (each pays one full scan)
    # ------------------------------------------------------------------
    def range_search(self, query: Rect) -> list[int]:
        self._charge_scan()
        if self._count == 0:
            return []
        mask = query.contains_points_mask(self._vectors[: self._count])
        return [int(o) for o in self._oids[: self._count][mask]]

    def point_search(self, vector: np.ndarray) -> list[int]:
        v32 = np.asarray(vector, dtype=np.float32).astype(np.float64)
        return self.range_search(Rect(v32, v32))

    def distance_range(
        self, query: np.ndarray, radius: float, metric: Metric = L2
    ) -> list[tuple[int, float]]:
        q = check_vector(query, self.dims)
        self._charge_scan()
        if self._count == 0:
            return []
        dists = metric.distance_batch(self._vectors[: self._count].astype(np.float64), q)
        idx = np.flatnonzero(dists <= radius)
        return [(int(self._oids[i]), float(dists[i])) for i in idx]

    def knn(
        self, query: np.ndarray, k: int, metric: Metric = L2, **_ignored
    ) -> list[tuple[int, float]]:
        q = check_vector(query, self.dims)
        if k < 1:
            raise ValueError("k must be >= 1")
        self._charge_scan()
        if self._count == 0:
            return []
        dists = metric.distance_batch(self._vectors[: self._count].astype(np.float64), q)
        k = min(k, self._count)
        # Deterministic (distance, oid) order: argpartition picks an
        # arbitrary subset among tied boundary distances, so sort instead.
        idx = np.lexsort((self._oids[: self._count], dists))[:k]
        return [(int(self._oids[i]), float(dists[i])) for i in idx]

    # Compatibility with the harness's timing helpers.
    def cpu_reference_scan(self, query: np.ndarray, metric: Metric = L2) -> np.ndarray:
        """Distances to every tuple: the CPU-denominator workload."""
        q = check_vector(query, self.dims)
        return metric.distance_batch(self._vectors[: self._count].astype(np.float64), q)
