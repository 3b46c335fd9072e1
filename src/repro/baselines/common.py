"""Shared machinery for the baseline index structures.

The paged substrate every tree-structured index shares (the hybrid tree
included) is :class:`repro.engine.mixins.PagedIndex`; the scan structures
take the batch-query surface from
:class:`repro.engine.mixins.BatchQueryMixin`.

``EntryLeaf`` is the numpy-backed data page of the paged baselines.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect


class EntryLeaf:
    """A data page holding raw ``(vector, oid)`` entries (R/SS/SR-trees).

    Identical storage footprint to the hybrid tree's data nodes — all
    structures pay the same leaf-level cost; only directory organisation
    differs, which is exactly the comparison the paper makes.
    """

    __slots__ = ("vectors", "oids", "count", "level")

    def __init__(self, dims: int, capacity: int):
        self.vectors = np.empty((capacity, dims), dtype=np.float32)
        self.oids = np.empty(capacity, dtype=np.uint32)
        self.count = 0
        self.level = 0

    @property
    def capacity(self) -> int:
        return self.vectors.shape[0]

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    def points(self) -> np.ndarray:
        return self.vectors[: self.count]

    def live_oids(self) -> np.ndarray:
        return self.oids[: self.count]

    def add(self, vector: np.ndarray, oid: int) -> None:
        if self.is_full:
            raise RuntimeError("leaf overflow; caller must split first")
        self.vectors[self.count] = vector
        self.oids[self.count] = oid
        self.count += 1

    def rect(self) -> Rect:
        if self.count == 0:
            raise ValueError("empty leaf has no bounding rect")
        return Rect.from_points(self.points())


def quadratic_partition(
    lows: np.ndarray, highs: np.ndarray, min_fill: float
) -> tuple[list[int], list[int]]:
    """Guttman's quadratic PickSeeds/PickNext bipartition over boxes.

    ``lows``/``highs`` are ``(n, d)`` corner arrays (points are zero-extent
    boxes).  PickSeeds maximizes the dead volume of the pair's cover;
    PickNext repeatedly places the entry with the strongest group
    preference.  Broadcasting keeps the O(n^2) seed scan and the O(n)
    per-pick enlargement scans at numpy speed.  Shared by the R-tree and the
    (R-tree-policy) SR-tree.
    """
    n = lows.shape[0]
    min_count = max(1, int(np.floor(n * min_fill)))
    volumes = np.prod(highs - lows, axis=1)
    pair_low = np.minimum(lows[:, None, :], lows[None, :, :])
    pair_high = np.maximum(highs[:, None, :], highs[None, :, :])
    dead = np.prod(pair_high - pair_low, axis=2) - volumes[:, None] - volumes[None, :]
    np.fill_diagonal(dead, -np.inf)
    seed_a, seed_b = np.unravel_index(int(np.argmax(dead)), dead.shape)

    group_a, group_b = [int(seed_a)], [int(seed_b)]
    low_a, high_a = lows[seed_a].copy(), highs[seed_a].copy()
    low_b, high_b = lows[seed_b].copy(), highs[seed_b].copy()
    remaining = np.array([i for i in range(n) if i not in (seed_a, seed_b)])
    while remaining.size:
        if len(group_a) + remaining.size == min_count:
            group_a.extend(int(i) for i in remaining)
            break
        if len(group_b) + remaining.size == min_count:
            group_b.extend(int(i) for i in remaining)
            break
        vol_a = float(np.prod(high_a - low_a))
        vol_b = float(np.prod(high_b - low_b))
        enl_a = (
            np.prod(
                np.maximum(high_a, highs[remaining]) - np.minimum(low_a, lows[remaining]),
                axis=1,
            )
            - vol_a
        )
        enl_b = (
            np.prod(
                np.maximum(high_b, highs[remaining]) - np.minimum(low_b, lows[remaining]),
                axis=1,
            )
            - vol_b
        )
        pick = int(np.argmax(np.abs(enl_a - enl_b)))
        i = int(remaining[pick])
        d_a, d_b = float(enl_a[pick]), float(enl_b[pick])
        remaining = np.delete(remaining, pick)
        if (d_a, vol_a, len(group_a)) <= (d_b, vol_b, len(group_b)):
            group_a.append(i)
            low_a = np.minimum(low_a, lows[i])
            high_a = np.maximum(high_a, highs[i])
        else:
            group_b.append(i)
            low_b = np.minimum(low_b, lows[i])
            high_b = np.maximum(high_b, highs[i])
    return group_a, group_b


def check_vector(vector: np.ndarray, dims: int) -> np.ndarray:
    """Validate and canonicalise an input vector (float32 precision)."""
    v = np.asarray(vector, dtype=np.float32).astype(np.float64)
    if v.shape != (dims,):
        raise ValueError(f"expected a {dims}-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector must be finite")
    return v
