"""Node-splitting algorithms (paper Sections 3.2 and 3.3).

Three pieces:

- :func:`choose_data_split` — data-node splits: EDA-optimal dimension choice
  (maximum live extent; Section 3.2 proves optimality independent of query
  size and data distribution), split position as close to the middle as the
  utilization constraint allows, always *clean* (``lsp == rsp``).
- :func:`bipartition_intervals` — the 1-d interval bipartitioning that plays
  the role of R-tree bipartitioning for index-node splits: alternately drain
  the by-left-boundary and by-right-boundary sorted lists until utilization
  is met, then place the rest by least elongation.  ``O(n log n)``.
- :func:`choose_index_split` — index-node splits: run the bipartition along
  every candidate dimension, then pick the dimension minimizing the EDA
  increase ``(w_j + r) / (s_j + r)`` (Section 3.3); overlap ``w_j > 0`` is
  accepted exactly when a clean split would violate utilization.

Split choosers accept ``policy="eda"`` (the paper's algorithm),
``policy="vam"`` (the VAMSplit baseline of Figure 5(a,b): maximum-variance
dimension, median position) or ``policy="rr"`` (round-robin dimension choice,
the LSDh-tree's strategy [Henrich 1998], kept to demonstrate why Lemma 1's
implicit dimensionality reduction needs an *informed* dimension choice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect

POLICY_EDA = "eda"
POLICY_VAM = "vam"
POLICY_RR = "rr"
_POLICIES = (POLICY_EDA, POLICY_VAM, POLICY_RR)


class RoundRobin:
    """The ``rr`` policy's state: the dimension the next split tries first.

    Each hybrid tree owns one (and persists ``next`` with its split
    policy), so one tree's splits never depend on another tree's."""

    __slots__ = ("next",)

    def __init__(self, start: int = 0):
        self.next = start

    def order(self, dims: int) -> np.ndarray:
        """Dimensions in trial order, starting one further on each call."""
        start = self.next % dims
        self.next = (start + 1) % dims
        return np.arange(start, start + dims) % dims


_default_rr = RoundRobin()
"""Shared by direct calls of the split choosers that pass no state."""


def reset_round_robin() -> None:
    """Restart the shared round-robin cycling of direct chooser calls."""
    _default_rr.next = 0

POSITION_MIDDLE = "middle"
POSITION_MEDIAN = "median"
_POSITIONS = (POSITION_MIDDLE, POSITION_MEDIAN)


@dataclass(frozen=True)
class DataSplit:
    """Outcome of a data-node split: clean 1-d cut at ``position``."""

    dim: int
    position: float
    left_indices: np.ndarray
    right_indices: np.ndarray


@dataclass(frozen=True)
class IndexSplit:
    """Outcome of an index-node split: possibly overlapping cut.

    ``lsp >= rsp``; ``lsp - rsp`` is the overlap the EDA criterion accepted
    to preserve utilization without cascading splits.
    """

    dim: int
    lsp: float
    rsp: float
    left_ids: list[int]
    right_ids: list[int]

    @property
    def overlap(self) -> float:
        return self.lsp - self.rsp


def _validate_policy(policy: str, position_rule: str) -> None:
    if policy not in _POLICIES:
        raise ValueError(f"unknown split policy {policy!r}; expected one of {_POLICIES}")
    if position_rule not in _POSITIONS:
        raise ValueError(
            f"unknown position rule {position_rule!r}; expected one of {_POSITIONS}"
        )


# ----------------------------------------------------------------------
# Data node splitting (Section 3.2)
# ----------------------------------------------------------------------
def choose_data_split(
    points: np.ndarray,
    min_fill: float,
    policy: str = POLICY_EDA,
    position_rule: str = POSITION_MIDDLE,
    rr: RoundRobin | None = None,
) -> DataSplit:
    """Split ``points`` (the overflowing node's entries) into two halves.

    Dimension order: by decreasing live extent (``eda``) or decreasing
    variance (``vam``).  Position: the live-box middle (``middle``) or the
    median (``median``), shifted just enough to satisfy the utilization
    constraint, and always placed strictly between two distinct coordinate
    values so the cut is geometrically clean.  Dimensions where no clean cut
    satisfies utilization (heavy duplicates) are skipped; if every dimension
    fails, the split degrades to a rank split at the duplicated value (both
    halves then touch the cut plane, which remains correct because the plane
    belongs to both closed regions).  ``rr`` is the round-robin state the
    ``rr`` policy advances (default: one shared by all such calls).
    """
    _validate_policy(policy, position_rule)
    points = np.asarray(points)
    n = points.shape[0]
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    min_count = max(1, int(np.floor(n * min_fill)))
    if 2 * min_count > n:
        min_count = n // 2

    if policy == POLICY_EDA:
        scores = points.max(axis=0) - points.min(axis=0)  # live extents
        dim_order = np.argsort(-scores, kind="stable")
    elif policy == POLICY_VAM:
        scores = points.var(axis=0)
        dim_order = np.argsort(-scores, kind="stable")
    else:  # round-robin: uninformed cycling (LSDh-style)
        dim_order = (rr or _default_rr).order(points.shape[1])

    for dim in dim_order:
        dim = int(dim)
        values = np.sort(points[:, dim], kind="stable")
        if position_rule == POSITION_MIDDLE:
            target_pos = (values[0] + values[-1]) / 2.0
            target_k = int(np.searchsorted(values, target_pos, side="right"))
        else:
            target_k = n // 2
        split_k = _closest_clean_cut(values, target_k, min_count, n - min_count)
        if split_k is None:
            continue
        position = float(values[split_k - 1] + values[split_k]) / 2.0
        column = points[:, dim]
        left = np.flatnonzero(column <= values[split_k - 1])
        right = np.flatnonzero(column > values[split_k - 1])
        return DataSplit(dim, position, left, right)

    # Degenerate fallback: duplicates block every clean cut.  Rank-split on
    # the best-scoring dimension at the duplicated value.
    dim = int(dim_order[0])
    order = np.argsort(points[:, dim], kind="stable")
    k = n // 2
    position = float(points[order[k - 1], dim])
    return DataSplit(dim, position, order[:k], order[k:])


def _closest_clean_cut(
    values: np.ndarray, target_k: int, lo: int, hi: int
) -> int | None:
    """Smallest |k - target_k| with ``lo <= k <= hi`` and a strict value gap
    ``values[k-1] < values[k]`` (so a clean cut can pass between them)."""
    target_k = int(np.clip(target_k, lo, hi))
    n = len(values)
    for delta in range(0, max(target_k - lo, hi - target_k) + 1):
        for k in (target_k - delta, target_k + delta):
            if lo <= k <= hi and 0 < k < n and values[k - 1] < values[k]:
                return k
    return None


# ----------------------------------------------------------------------
# 1-d interval bipartitioning (Section 3.3, "choice of split position")
# ----------------------------------------------------------------------
def bipartition_intervals(
    intervals: np.ndarray, min_per_side: int
) -> tuple[list[int], list[int], float, float]:
    """Partition 1-d segments into two groups minimizing overlap.

    ``intervals`` is an ``(n, 2)`` array of ``(low, high)`` segments — the
    children's regions projected on the candidate split dimension.  Segments
    are drawn alternately from the leftmost-first and rightmost-first sorted
    orders into the left and right group until both reach ``min_per_side``;
    the remainder goes wherever it elongates the group boundary least.

    Returns ``(left_indices, right_indices, lsp, rsp)`` where ``lsp`` is the
    right boundary of the left group and ``rsp`` the left boundary of the
    right group.  A clean cut with a gap is snapped to the gap's midpoint so
    the two regions tile the space (``lsp >= rsp`` always holds on return).
    """
    intervals = np.asarray(intervals, dtype=np.float64)
    n = intervals.shape[0]
    if n < 2:
        raise ValueError("need at least 2 intervals to bipartition")
    if min_per_side < 1 or 2 * min_per_side > n:
        raise ValueError(f"min_per_side {min_per_side} infeasible for {n} intervals")

    by_left = sorted(range(n), key=lambda i: (intervals[i, 0], intervals[i, 1]))
    by_right = sorted(range(n), key=lambda i: (-intervals[i, 1], -intervals[i, 0]))
    assigned = np.full(n, -1, dtype=np.int8)  # -1 free, 0 left, 1 right
    left: list[int] = []
    right: list[int] = []
    li = ri = 0
    while len(left) < min_per_side or len(right) < min_per_side:
        if len(left) < min_per_side:
            while assigned[by_left[li]] != -1:
                li += 1
            assigned[by_left[li]] = 0
            left.append(by_left[li])
        if len(right) < min_per_side:
            while assigned[by_right[ri]] != -1:
                ri += 1
            assigned[by_right[ri]] = 1
            right.append(by_right[ri])

    lsp = max(intervals[i, 1] for i in left)
    rsp = min(intervals[i, 0] for i in right)
    for i in by_left:
        if assigned[i] != -1:
            continue
        lo, hi = intervals[i]
        elong_left = max(0.0, hi - lsp)
        elong_right = max(0.0, rsp - lo)
        go_left = elong_left < elong_right or (
            elong_left == elong_right and len(left) <= len(right)
        )
        if go_left:
            left.append(i)
            lsp = max(lsp, hi)
        else:
            right.append(i)
            rsp = min(rsp, lo)

    if lsp < rsp:  # clean split with a gap: snap to midpoint so regions tile
        lsp = rsp = (lsp + rsp) / 2.0
    return left, right, float(lsp), float(rsp)


# ----------------------------------------------------------------------
# Index node splitting (Section 3.3)
# ----------------------------------------------------------------------
def choose_index_split(
    children: list[tuple[int, Rect]],
    min_fill: float,
    query_side: float,
    policy: str = POLICY_EDA,
    rr: RoundRobin | None = None,
) -> IndexSplit:
    """Split an overflowing index node's children into two groups.

    For every dimension the best bipartition is computed first; the split
    dimension is then the one minimizing ``(w_j + r) / (s_j + r)`` (``eda``)
    or simply the maximum-variance-of-centres dimension (``vam``).  ``s_j``
    is the extent of the hull of the children's regions, so dimensions never
    used for splits below (``w_j == s_j``) cost 1.0 and are implicitly
    eliminated (Lemma 1).  ``rr`` is as in :func:`choose_data_split`.
    """
    _validate_policy(policy, POSITION_MIDDLE)
    n = len(children)
    if n < 2:
        raise ValueError("need at least 2 children to split an index node")
    min_per_side = max(1, int(np.floor(n * min_fill)))
    if 2 * min_per_side > n:
        min_per_side = n // 2

    lows = np.array([rect.low for _, rect in children])
    highs = np.array([rect.high for _, rect in children])
    dims = lows.shape[1]
    hull_extent = highs.max(axis=0) - lows.min(axis=0)

    if policy == POLICY_VAM:
        centers = (lows + highs) / 2.0
        candidate_dims: list[int] = [int(np.argmax(centers.var(axis=0)))]
    elif policy == POLICY_RR:
        candidate_dims = [int((rr or _default_rr).order(dims)[0])]
    else:
        candidate_dims = list(range(dims))

    best: IndexSplit | None = None
    best_cost = np.inf
    for dim in candidate_dims:
        intervals = np.stack([lows[:, dim], highs[:, dim]], axis=1)
        left, right, lsp, rsp = bipartition_intervals(intervals, min_per_side)
        overlap = max(0.0, lsp - rsp)
        denom = hull_extent[dim] + query_side
        cost = (overlap + query_side) / denom if denom > 0 else np.inf
        if cost < best_cost:
            best_cost = cost
            best = IndexSplit(
                dim,
                lsp,
                rsp,
                [children[i][0] for i in left],
                [children[i][0] for i in right],
            )
    assert best is not None
    return best
