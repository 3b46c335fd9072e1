"""Pinned per-query page bills of the hybrid tree's single queries.

The paper's cost unit is the page read.  This suite replays one fixed
sequence of box, L1 distance-range and k-NN single queries on a seeded
64-d COLHIST tree (bulk loaded, then grown by inserts and thinned by
deletes so its ELS boxes are partly stale), saved and reopened, and
asserts every query's ``random_reads`` exactly:

- under a buffer pool of one eighth of the pages (the disk-resident
  setting: only real faults are charged), and
- with the unbounded object cache (one charge per node visit — the exact
  set of nodes each query visits).

The expected bills were recorded from the hand-rolled per-query walks the
kernel replaced; any change to which children a query prunes shows here.
"""

import numpy as np
import pytest

from repro.core import HybridTree
from repro.datasets import colhist_dataset
from repro.distances import L1
from repro.geometry.rect import Rect

KINDS = ("box", "box", "l1", "box", "knn", "l1")

BUFFERED_BILLS = [
    3, 14, 28, 5, 10, 14, 3, 6, 35, 8, 14, 21, 0, 4, 11,
    16, 1, 14, 6, 11, 15, 2, 3, 25, 13, 6, 18, 5, 16, 12,
]
UNBUFFERED_BILLS = [
    3, 16, 34, 11, 12, 27, 7, 11, 44, 11, 18, 36, 10, 10, 14,
    22, 23, 41, 10, 17, 22, 5, 25, 40, 18, 10, 42, 7, 23, 20,
]


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    data = colhist_dataset(6000, 64, seed=5)
    tree = HybridTree.bulk_load(data)
    for i, v in enumerate(colhist_dataset(400, 64, seed=6)):
        tree.insert(v, 6000 + i)
    for i in range(0, 6000, 40):
        tree.delete(data[i], i)
    path = tmp_path_factory.mktemp("bills") / "colhist64.pages"
    tree.save(path)
    return data, path, tree.pages()


def _bills(tree, data) -> list[int]:
    rng = np.random.default_rng(9)
    bills = []
    for i in range(30):
        p = data[rng.integers(len(data))].astype(np.float64)
        kind = KINDS[i % len(KINDS)]
        before = tree.io.random_reads
        if kind == "box":
            tree.range_search(Rect(np.maximum(p - 0.03, 0), p + 0.03))
        elif kind == "l1":
            tree.distance_range(p, 0.35, L1)
        else:
            tree.knn(p, 10)
        bills.append(tree.io.random_reads - before)
    return bills


def test_buffered_page_bills_are_pinned(saved):
    data, path, pages = saved
    tree = HybridTree.open(path, buffer_pages=pages // 8)
    assert _bills(tree, data) == BUFFERED_BILLS


def test_unbuffered_page_bills_are_pinned(saved):
    data, path, _ = saved
    tree = HybridTree.open(path)
    assert _bills(tree, data) == UNBUFFERED_BILLS
