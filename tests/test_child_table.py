"""The hybrid tree's compiled child tables match the per-child ELS boxes.

Every query path prunes an index node's children with one array op over
its compiled child table (``HybridTree._child_table``).  The table must
hold, row for row and bit for bit, the box ``ELSTable.effective_rect``
derives for each child — and it must be rebuilt whenever the node, its
region or the ELS table changes.  These tests compare every row of every
index node against that reference:

- for :meth:`ELSTable.effective_rows` directly, over generated regions
  (zero-extent sides included), live boxes (missing ones, and stale ones
  outside a shrunk region) and ``els_bits`` 0, 1, 4 and 16;
- through a tree's lifecycle — inserts with index splits, deletes with
  underflow and reinsertion, bulk load, WAL replay, ``snapshot_view`` and
  a parallel-engine thread view — checking the *cached* tables after each
  step, so a missed invalidation shows as a stale row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HybridTree
from repro.core.els import ELSTable
from repro.core.nodes import IndexNode
from repro.datasets import uniform_dataset
from repro.geometry.rect import Rect

BITS = (0, 1, 4, 16)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# ELSTable.effective_rows against effective_rect
# ----------------------------------------------------------------------
@st.composite
def rows_case(draw):
    dims = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    coord = st.floats(0.0, 1.0, allow_nan=False, width=32)
    lows = np.empty((m, dims))
    highs = np.empty((m, dims))
    for j in range(m):
        for d in range(dims):
            a, b = sorted((draw(coord), draw(coord)))
            if draw(st.booleans()) and draw(st.booleans()):
                b = a  # a zero-extent region side
            lows[j, d], highs[j, d] = a, b
    table = ELSTable(dims, draw(st.sampled_from(BITS)))
    for j in range(m):
        kind = draw(st.sampled_from(("inside", "missing", "outside", "any")))
        if kind == "missing":
            continue
        if kind == "outside":
            # Stale: the live box lies beyond the (shrunk) region.
            low = highs[j] + 0.5
            table.set(j, Rect(low, low + 0.25))
            continue
        pts = np.array(
            [[draw(coord) for _ in range(dims)] for _ in range(2)], dtype=np.float64
        )
        if kind == "inside":
            pts = lows[j] + pts * (highs[j] - lows[j])
        table.set(j, Rect.from_points(pts))
    return table, list(range(m)), lows, highs


@settings(max_examples=300, deadline=None)
@given(rows_case())
def test_effective_rows_match_effective_rect_bitwise(case):
    table, ids, lows, highs = case
    eff_low, eff_high = table.effective_rows(ids, lows, highs)
    for j, node_id in enumerate(ids):
        ref = table.effective_rect(node_id, Rect(lows[j], highs[j]))
        assert _same_bits(eff_low[j], ref.low)
        assert _same_bits(eff_high[j], ref.high)


def test_stale_box_outside_region_falls_back_to_region():
    table = ELSTable(2, 4)
    table.set(0, Rect([0.8, 0.8], [0.9, 0.9]))
    lows, highs = np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]])
    low, high = table.effective_rows([0], lows, highs)
    assert _same_bits(low, lows) and _same_bits(high, highs)


def test_generation_counts_every_change():
    table = ELSTable(2, 4)
    table.set(1, Rect([0.1, 0.1], [0.2, 0.2]))
    table.merge_point(1, np.array([0.3, 0.3]))
    table.drop(1)
    table.drop(7)  # dropping an absent entry still counts
    assert table.generation == 4


# ----------------------------------------------------------------------
# Cached tables through a tree's lifecycle
# ----------------------------------------------------------------------
def check_tables(tree) -> int:
    """Assert every index node's table (cached where still valid) equals
    the per-child reference; returns the number of index nodes seen."""
    seen = 0
    stack = [(tree.root_id, tree.bounds)]
    while stack:
        node_id, region = stack.pop()
        node = tree.nm.get(node_id, charge=False)
        if not isinstance(node, IndexNode):
            continue
        seen += 1
        table = tree._child_table(node, region)
        children = node.children_with_regions(region)
        assert table.ids == [child_id for child_id, _ in children]
        # Region rows are kept only for index-node children.
        assert all((r is None) == (node.level == 1) for r in table.regions)
        for j, (child_id, child_region) in enumerate(children):
            ref = tree.els.effective_rect(child_id, child_region)
            assert _same_bits(table.lows[j], ref.low), (node_id, child_id)
            assert _same_bits(table.highs[j], ref.high), (node_id, child_id)
            if node.level > 1:
                assert _same_bits(table.regions[j].low, child_region.low)
                assert _same_bits(table.regions[j].high, child_region.high)
            stack.append((child_id, child_region))
    return seen


def _grown(bits: int, n: int = 500, seed: int = 3) -> tuple[HybridTree, np.ndarray]:
    data = uniform_dataset(n, 3, seed=seed)
    tree = HybridTree(3, page_size=256, els_bits=bits)
    for oid, v in enumerate(data):
        tree.insert(v, oid)
    return tree, data


@pytest.mark.parametrize("bits", BITS)
def test_tables_follow_inserts_deletes_and_reinserts(bits):
    tree, data = _grown(bits, 300)
    assert tree.height >= 3  # index splits happened
    assert check_tables(tree) > 1
    extra = uniform_dataset(200, 3, seed=4)
    for oid, v in enumerate(extra):
        tree.insert(v, 1000 + oid)
        if oid % 25 == 0:
            check_tables(tree)
    # Deletes drain data pages below min fill: underflow, elimination and
    # reinsertion of the survivors (and of orphaned subtrees).
    for oid in range(0, 300, 2):
        assert tree.delete(data[oid], oid)
        if oid % 20 == 0:
            check_tables(tree)
    tree.validate()
    check_tables(tree)


@pytest.mark.parametrize("bits", BITS)
def test_tables_after_bulk_load_and_rebuild_els(bits):
    data = uniform_dataset(800, 3, seed=5)
    tree = HybridTree.bulk_load(data, page_size=256, els_bits=bits)
    assert check_tables(tree) > 1
    for oid in range(0, 800, 3):
        tree.delete(data[oid], oid)
    check_tables(tree)
    tree.rebuild_els()  # tightens stale boxes: every table must follow
    check_tables(tree)


def test_node_put_drops_its_table():
    tree, _ = _grown(4, 300)
    check_tables(tree)
    root = tree.nm.get(tree.root_id, charge=False)
    assert root.compiled is not None
    tree.nm.put(tree.root_id, root)
    assert root.compiled is None


def test_tables_after_wal_replay(tmp_path):
    data = uniform_dataset(1500, 3, seed=6)
    tree = HybridTree.bulk_load(data, page_size=512)
    path = str(tmp_path / "t.pages")
    tree.save(path)
    tree.close()
    live = HybridTree.open(path, wal=True)
    check_tables(live)
    for i in range(60):
        if i % 4 == 3:
            live.delete(data[i], i)
        else:
            live.insert(np.clip(data[i] * 0.5 + 0.3, 0, 1), 5000 + i)
    check_tables(live)
    live.close()  # no checkpoint: reopening replays the log
    replayed = HybridTree.open(path)
    assert replayed.wal_replayed_transactions == 60
    assert check_tables(replayed) > 1
    replayed.close()


def test_tables_in_snapshot_and_thread_views(tmp_path):
    from repro.engine.parallel import _index_view

    data = uniform_dataset(1500, 3, seed=7)
    tree = HybridTree.bulk_load(data, page_size=512)
    path = str(tmp_path / "t.pages")
    tree.save(path)
    live = HybridTree.open(path, wal=True)
    check_tables(live)
    view = live.snapshot_view()
    for i in range(30):
        live.insert(np.clip(data[i] * 0.5 + 0.3, 0, 1), 6000 + i)
    # The pinned view keeps its own ELS copy and its own nodes.
    assert view.els is not live.els
    check_tables(view)
    check_tables(live)
    view.close()
    live.close()

    # A plain thread view shares the node objects (and the ELS table).
    thread = _index_view(tree)
    check_tables(tree)
    check_tables(thread)
    assert thread.range_search(Rect.unit(3)) == tree.range_search(Rect.unit(3))


def _drop_tables(tree) -> None:
    stack = [tree.root_id]
    while stack:
        node = tree.nm.get(stack.pop(), charge=False)
        if isinstance(node, IndexNode):
            node.compiled = None
            stack.extend(node.child_ids())


def test_thread_views_racing_to_build_tables_agree():
    """Thread views share node objects, so their first queries race to
    build and install the same tables; every answer must still match the
    serial one (a torn or half-installed table would not)."""
    import sys

    from repro.engine.parallel import ParallelQueryEngine

    data = uniform_dataset(3000, 3, seed=8)
    tree = HybridTree.bulk_load(data, page_size=512)
    rng = np.random.default_rng(9)
    lows = rng.random((40, 3)) * 0.8
    boxes = [Rect(lo, lo + 0.2) for lo in lows]
    centers = data[rng.integers(len(data), size=40)].astype(np.float64)
    want_range = [tree.range_search(b) for b in boxes]
    want_knn = [tree.knn(c, 7) for c in centers]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ParallelQueryEngine(tree, workers=4) as engine:
            for _ in range(3):
                _drop_tables(tree)
                assert engine.range_search_many(boxes, timeout=60) == want_range
                _drop_tables(tree)
                assert engine.knn_many(centers, 7, timeout=60) == want_knn
    finally:
        sys.setswitchinterval(old)
    check_tables(tree)
