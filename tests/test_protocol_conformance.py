"""Protocol conformance: every index behaves identically through the kernel.

The structure-agnostic traversal kernel (:mod:`repro.engine.kernel`) is the
single query engine behind every paged structure's single-query, batched and
parallel execution.  This suite pins down the contract on tie-heavy,
duplicate-heavy data, for every registered index kind:

- exactness against the sequential-scan oracle for box range, distance
  range and k-NN queries (L2 and, where the structure supports it, L1);
- **bit-identical** results between the per-query loop and the batched
  ``*_many`` calls;
- identical results again through ``ParallelQueryEngine`` thread views of
  the live index at 1, 2 and 4 workers;
- deterministic ``(distance, oid)`` k-NN tie-breaking — ties keep the
  smallest oids, in every structure;
- honest ``charged_reads``: the measured loop charges sequential reads too
  (regression — it used to checkpoint only random reads, reporting zero
  for the scan structures);
- metric preconditions: the SS-tree and the M-tree reject metrics their
  geometry cannot bound, in both single and batched form.
"""

import numpy as np
import pytest

from repro.baselines import SequentialScan
from repro.distances import L1, L2
from repro.eval.harness import build_index
from repro.geometry.rect import Rect
from tests.conftest import brute_force_range, random_boxes

N = 900
DIMS = 4

# Every index kind the harness can build, minus the hybrid split-policy
# variants (covered by the hybrid tree's own suites).
KINDS = [
    "hybrid",
    "rtree",
    "xtree",
    "kdbtree",
    "sstree",
    "srtree",
    "mtree",
    "hbtree",
    "vafile",
    "scan",
]
BOX_KINDS = [k for k in KINDS if k != "mtree"]  # M-tree: no box geometry
L1_KINDS = [k for k in KINDS if k not in ("sstree", "mtree")]


@pytest.fixture(scope="module")
def data():
    """Tie-heavy dataset: grid-quantized coordinates (exact distance ties)
    plus outright duplicated rows under distinct oids."""
    rng = np.random.default_rng(7)
    base = np.round(rng.random((N // 2, DIMS)) * 8.0) / 8.0
    dup = base[rng.integers(0, len(base), N - len(base))]
    return np.vstack([base, dup]).astype(np.float32)


@pytest.fixture(scope="module")
def built(data):
    return {kind: build_index(kind, data) for kind in KINDS}


@pytest.fixture(scope="module")
def oracle(data):
    return SequentialScan.from_points(data)


@pytest.fixture(scope="module")
def boxes():
    rng = np.random.default_rng(21)
    return random_boxes(rng, DIMS, 10)


@pytest.fixture(scope="module")
def centers(data):
    rng = np.random.default_rng(22)
    # Query from stored points: duplicates guarantee distance-zero ties.
    return data[rng.integers(0, len(data), 8)].astype(np.float64)


# ----------------------------------------------------------------------
# Exactness against the scan oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BOX_KINDS)
def test_range_exact(kind, built, data, boxes):
    index = built[kind]
    for box in boxes:
        assert set(index.range_search(box)) == brute_force_range(data, box), kind


@pytest.mark.parametrize("kind", KINDS)
def test_distance_range_exact(kind, built, oracle, centers):
    index = built[kind]
    for q in centers:
        expected = sorted(oracle.distance_range(q, 0.4, L2))
        assert sorted(index.distance_range(q, 0.4, L2)) == expected, kind


@pytest.mark.parametrize("kind", L1_KINDS)
def test_distance_range_l1_exact(kind, built, oracle, centers):
    index = built[kind]
    for q in centers:
        expected = sorted(oracle.distance_range(q, 0.6, L1))
        assert sorted(index.distance_range(q, 0.6, L1)) == expected, kind


@pytest.mark.parametrize("kind", KINDS)
def test_knn_ties_deterministic(kind, built, oracle, centers):
    """On tied distances every structure keeps the smallest oids — the
    answer is one deterministic (distance, oid) prefix, not a choice."""
    index = built[kind]
    for q in centers:
        expected = oracle.knn(q, 12, L2)
        got = index.knn(q, 12, L2)
        assert [oid for oid, _ in got] == [oid for oid, _ in expected], kind
        assert np.allclose(
            [d for _, d in got], [d for _, d in expected], atol=1e-9
        ), kind


@pytest.mark.parametrize("kind", L1_KINDS)
def test_knn_l1_ties_deterministic(kind, built, oracle, centers):
    index = built[kind]
    for q in centers:
        expected = oracle.knn(q, 12, L1)
        got = index.knn(q, 12, L1)
        assert [oid for oid, _ in got] == [oid for oid, _ in expected], kind


# ----------------------------------------------------------------------
# Batch-vs-loop bit identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", BOX_KINDS)
def test_batch_range_identical_to_loop(kind, built, boxes):
    index = built[kind]
    assert index.range_search_many(boxes) == [
        index.range_search(b) for b in boxes
    ], kind


@pytest.mark.parametrize("kind", KINDS)
def test_batch_distance_identical_to_loop(kind, built, centers):
    index = built[kind]
    assert index.distance_range_many(centers, 0.4, L2) == [
        index.distance_range(q, 0.4, L2) for q in centers
    ], kind


@pytest.mark.parametrize("kind", KINDS)
def test_batch_knn_identical_to_loop(kind, built, centers):
    index = built[kind]
    assert index.knn_many(centers, 9, L2) == [
        index.knn(q, 9, L2) for q in centers
    ], kind


@pytest.mark.parametrize("kind", [k for k in KINDS if k not in ("vafile", "scan")])
def test_measured_loop_matches_batch_results(kind, built, centers):
    """The instrumented ``*_loop`` methods return the same answers the
    kernel batch does (they are the benchmark's loop side)."""
    index = built[kind]
    loop_results, loop_metrics = index.knn_loop(centers, 9, L2, return_metrics=True)
    batch_results, batch_metrics = index.knn_many(centers, 9, L2, return_metrics=True)
    assert loop_results == batch_results, kind
    assert loop_metrics.num_queries == batch_metrics.num_queries == len(centers)
    # Shared traversal can never charge more pages than the loop.
    assert batch_metrics.charged_reads <= loop_metrics.charged_reads, kind


# ----------------------------------------------------------------------
# Parallel thread views of the live index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_identical_to_serial(kind, workers, built, boxes, centers):
    from repro.engine.parallel import ParallelQueryEngine

    index = built[kind]
    with ParallelQueryEngine(index, workers=workers) as engine:
        if kind != "mtree":
            assert engine.range_search_many(boxes) == index.range_search_many(
                boxes
            ), kind
        assert engine.distance_range_many(
            centers, 0.4, L2
        ) == index.distance_range_many(centers, 0.4, L2), kind
        assert engine.knn_many(centers, 9, L2) == index.knn_many(
            centers, 9, L2
        ), kind


def test_parallel_live_index_rejects_process_modes(built):
    from repro.engine.parallel import ParallelQueryEngine

    with pytest.raises(ValueError, match="thread"):
        ParallelQueryEngine(built["rtree"], workers=2, mode="spawn")


# ----------------------------------------------------------------------
# Deletes (structures that support them) stay conformant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["hybrid", "rtree", "xtree", "hbtree", "scan"])
def test_conformance_after_deletes(kind, data):
    index = build_index(kind, data[:300])
    kept = np.ones(300, dtype=bool)
    for oid in range(0, 300, 3):
        assert index.delete(data[oid], oid), kind
        kept[oid] = False
    remaining = data[:300][kept]
    oid_map = np.flatnonzero(kept)
    box = Rect(np.full(DIMS, 0.2), np.full(DIMS, 0.8))
    expected = {int(oid_map[i]) for i in brute_force_range(remaining, box)}
    assert set(index.range_search(box)) == expected, kind
    assert index.range_search_many([box])[0] == index.range_search(box), kind


# ----------------------------------------------------------------------
# Accounting: the loop charges sequential reads too (regression)
# ----------------------------------------------------------------------
def test_scan_loop_charges_sequential_reads(built, boxes):
    scan = built["scan"]
    scan.io.reset()
    _, metrics = scan.range_search_many(boxes, return_metrics=True)
    assert metrics.charged_reads == scan.pages() * len(boxes)


def test_vafile_loop_charges_sequential_reads(built, centers):
    va = built["vafile"]
    va.io.reset()
    _, metrics = va.knn_many(centers, 5, L2, return_metrics=True)
    # Every query pays at least the full approximation-file scan.
    assert metrics.charged_reads >= va.approximation_pages() * len(centers)


# ----------------------------------------------------------------------
# Metric preconditions survive batching
# ----------------------------------------------------------------------
def test_sstree_rejects_l1_batched(built, centers):
    with pytest.raises(ValueError, match="Euclidean"):
        built["sstree"].distance_range_many(centers, 0.4, L1)
    with pytest.raises(ValueError, match="Euclidean"):
        built["sstree"].knn_many(centers, 3, L1)


def test_mtree_rejects_foreign_metric_batched(built, centers):
    with pytest.raises(ValueError):
        built["mtree"].distance_range_many(centers, 0.4, L1)
    with pytest.raises(ValueError):
        built["mtree"].knn_many(centers, 3, L1)


def test_mtree_rejects_box_queries(built, boxes):
    with pytest.raises(TypeError, match="bounding-box"):
        built["mtree"].range_search(boxes[0])
    with pytest.raises(TypeError, match="bounding-box"):
        built["mtree"].range_search_many(boxes)
