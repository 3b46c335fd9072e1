"""Tests for the paged storage substrate."""

import threading

import numpy as np
import pytest

from repro.storage import (
    DEFAULT_PAGE_SIZE,
    FilePageStore,
    InMemoryPageStore,
    IOStats,
    NodeManager,
    PageLayout,
    data_node_capacity,
    kdtree_node_capacity,
    rtree_node_capacity,
    srtree_node_capacity,
    sstree_node_capacity,
)
from repro.storage.iostats import SEQUENTIAL_SPEEDUP, AccessKind
from repro.storage.page import sequential_scan_pages


class TestPageLayout:
    def test_usable(self):
        assert PageLayout().usable == DEFAULT_PAGE_SIZE - 32

    def test_rejects_tiny_pages(self):
        with pytest.raises(ValueError):
            PageLayout(page_size=16)

    def test_data_capacity_paper_values(self):
        # 4K pages: ~59 16-d entries, ~15 64-d entries (float32 + oid).
        assert data_node_capacity(16) == (4096 - 32) // (16 * 4 + 4)
        assert data_node_capacity(64) == (4096 - 32) // (64 * 4 + 4)
        assert data_node_capacity(64) == 15

    def test_data_capacity_rejects_absurd_dims(self):
        with pytest.raises(ValueError):
            data_node_capacity(10_000)

    def test_kdtree_fanout_dimension_independent(self):
        caps = {kdtree_node_capacity(d) for d in (2, 16, 64, 256)}
        assert len(caps) == 1
        assert caps.pop() > 100  # "high fanout"

    def test_rtree_fanout_shrinks_linearly(self):
        assert rtree_node_capacity(64) < rtree_node_capacity(16) / 2

    def test_srtree_fanout_smallest(self):
        for dims in (16, 32, 64):
            assert srtree_node_capacity(dims) < sstree_node_capacity(dims)
            assert srtree_node_capacity(dims) < rtree_node_capacity(dims)
        assert srtree_node_capacity(64) <= 6  # the paper-era collapse

    def test_sequential_scan_pages(self):
        per_page = data_node_capacity(16)
        assert sequential_scan_pages(per_page, 16) == 1
        assert sequential_scan_pages(per_page + 1, 16) == 2


class TestIOStats:
    def test_record_and_totals(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ, 3)
        io.record(AccessKind.SEQUENTIAL_READ, 10)
        io.record(AccessKind.RANDOM_WRITE)
        assert io.total_accesses == 14
        assert io.random_accesses == 4
        assert io.sequential_accesses == 10

    def test_weighted_cost_sequential_discount(self):
        io = IOStats()
        io.record(AccessKind.SEQUENTIAL_READ, 10)
        assert io.weighted_cost() == pytest.approx(10 / SEQUENTIAL_SPEEDUP)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IOStats().record(AccessKind.RANDOM_READ, -1)

    def test_checkpoint_delta(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ, 5)
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ, 2)
        io.record(AccessKind.SEQUENTIAL_WRITE, 1)
        delta = io.since_checkpoint()
        assert delta.random_reads == 2 and delta.sequential_writes == 1

    def test_since_checkpoint_requires_checkpoint(self):
        with pytest.raises(RuntimeError):
            IOStats().since_checkpoint()

    def test_nested_checkpoints(self):
        io = IOStats()
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ)
        io.checkpoint()
        io.record(AccessKind.RANDOM_READ, 2)
        assert io.since_checkpoint().random_reads == 2
        assert io.since_checkpoint().random_reads == 3

    def test_reset(self):
        io = IOStats()
        io.record(AccessKind.RANDOM_READ)
        io.reset()
        assert io.total_accesses == 0


class TestInMemoryPageStore:
    def test_allocate_read_write(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.write(pid, b"hello")
        assert store.read(pid).startswith(b"hello")
        assert store.stats.random_reads == 1 and store.stats.random_writes == 1

    def test_unallocated_read_raises(self):
        with pytest.raises(KeyError):
            InMemoryPageStore().read(0)

    def test_overflow_rejected(self):
        store = InMemoryPageStore(page_size=8)
        pid = store.allocate()
        with pytest.raises(ValueError):
            store.write(pid, b"123456789")

    def test_free_recycles(self):
        store = InMemoryPageStore()
        a = store.allocate()
        store.free(a)
        assert store.allocate() == a
        assert store.allocated_pages == 1

    def test_ensure_allocated(self):
        store = InMemoryPageStore()
        store.ensure_allocated(5)
        store.write(5, b"x")
        assert store.read(5)[0:1] == b"x"


class TestFilePageStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pages.bin"
        with FilePageStore(path, page_size=64) as store:
            a = store.allocate()
            b = store.allocate()
            store.write(a, b"alpha")
            store.write(b, b"beta")
            store.flush()
        with FilePageStore(path, page_size=64) as store:
            assert store.allocated_pages == 2
            assert store.read(0).startswith(b"alpha")
            assert store.read(1).startswith(b"beta")

    def test_short_page_padded(self, tmp_path):
        with FilePageStore(tmp_path / "p.bin", page_size=32) as store:
            pid = store.allocate()
            store.write(pid, b"x")
            assert len(store.read(pid)) == 32

    def test_concurrent_reads_are_atomic(self, tmp_path):
        """A read's seek and read are one step: another thread seeking in
        between must not make it return the wrong page."""
        with FilePageStore(tmp_path / "p.bin", page_size=32) as store:
            for pid in range(3):
                store.allocate()
                store.write(pid, bytes([pid + 1]) * 32)
            real = store._file
            first_seek, second_seek = threading.Event(), threading.Event()

            class InterleavingFile:
                """The first seek waits (briefly) for another thread's."""

                def seek(self, pos):
                    real.seek(pos)
                    if not first_seek.is_set():
                        first_seek.set()
                        second_seek.wait(0.5)
                    else:
                        second_seek.set()

                def read(self, n):
                    return real.read(n)

            store._file = InterleavingFile()
            got = {}
            reader = threading.Thread(target=lambda: got.setdefault(0, store.read(0)))
            reader.start()
            first_seek.wait(5.0)
            got[1] = store.read(1)
            reader.join()
            store._file = real
            assert got == {0: bytes([1]) * 32, 1: bytes([2]) * 32}


class TestNodeManager:
    def test_get_charges_one_read(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        assert nm.get(pid) == "node"
        assert nm.stats.random_reads == 1

    def test_uncharged_get(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        nm.get(pid, charge=False)
        assert nm.stats.total_accesses == 0

    def test_missing_node_without_codec(self):
        nm = NodeManager()
        pid = nm.allocate()
        with pytest.raises(KeyError):
            nm.get(pid)

    def test_flush_requires_codec(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        with pytest.raises(RuntimeError):
            nm.flush()

    def test_evict_all_guards_dirty(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        with pytest.raises(RuntimeError):
            nm.evict_all()

    def test_free_drops_cache(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "x")
        nm.free(pid)
        assert nm.cached_nodes == 0


class TestHybridNodeCodec:
    def test_data_node_round_trip(self):
        from repro.core.nodes import DataNode
        from repro.storage.serialization import HybridNodeCodec

        rng = np.random.default_rng(0)
        codec = HybridNodeCodec(dims=8, data_capacity=20)
        node = DataNode(8, 20)
        for i in range(13):
            node.add(rng.random(8).astype(np.float32), i * 7)
        decoded = codec.decode(codec.encode(node))
        assert decoded.count == 13
        assert np.array_equal(decoded.points(), node.points())
        assert np.array_equal(decoded.live_oids(), node.live_oids())

    def test_index_node_round_trip(self):
        from repro.core.kdnodes import KDInternal, KDLeaf
        from repro.core.nodes import IndexNode
        from repro.storage.serialization import HybridNodeCodec

        codec = HybridNodeCodec(dims=4, data_capacity=10)
        kd = KDInternal(
            2, 0.75, 0.5, KDLeaf(7), KDInternal(0, 0.25, 0.25, KDLeaf(9), KDLeaf(11))
        )
        node = IndexNode(kd, level=3)
        decoded = codec.decode(codec.encode(node))
        assert decoded.level == 3
        assert decoded.child_ids() == [7, 9, 11]
        assert decoded.kd_root.dim == 2
        assert decoded.kd_root.lsp == pytest.approx(0.75)
        assert decoded.kd_root.rsp == pytest.approx(0.5)

    def test_oversized_node_rejected(self):
        from repro.core.nodes import DataNode
        from repro.storage.serialization import HybridNodeCodec

        codec = HybridNodeCodec(dims=64, data_capacity=64, page_size=4096)
        node = DataNode(64, 64)  # deliberately beyond the 4K budget
        for i in range(64):
            node.add(np.zeros(64, dtype=np.float32), i)
        with pytest.raises(ValueError):
            codec.encode(node)

    def test_unknown_kind_rejected(self):
        from repro.storage.serialization import HybridNodeCodec

        with pytest.raises(ValueError):
            HybridNodeCodec(2, 4).decode(b"\x99\x00\x00\x00")

    def test_full_capacity_nodes_fit_page(self):
        """The capacity model must never admit a node that cannot be packed."""
        from repro.core.kdnodes import KDInternal, KDLeaf
        from repro.core.nodes import DataNode, IndexNode
        from repro.storage.serialization import HybridNodeCodec

        for dims in (2, 16, 64):
            codec = HybridNodeCodec(dims, data_node_capacity(dims))
            full = DataNode(dims, data_node_capacity(dims))
            for i in range(full.capacity):
                full.add(np.zeros(dims, dtype=np.float32), i)
            assert len(codec.encode(full)) <= 4096

        # Balanced kd-tree with the maximum number of leaves.
        cap = kdtree_node_capacity(16)

        def build(lo, hi):
            if hi - lo == 1:
                return KDLeaf(lo)
            mid = (lo + hi) // 2
            return KDInternal(0, 0.5, 0.5, build(lo, mid), build(mid, hi))

        codec = HybridNodeCodec(16, data_node_capacity(16))
        node = IndexNode(build(0, cap), level=1)
        assert len(codec.encode(node)) <= 4096


class TestBoundedNodeManager:
    def _saved_tree(self, tmp_path):
        from repro.core import HybridTree
        from repro.datasets import uniform_dataset
        from repro.geometry.rect import Rect

        data = uniform_dataset(1500, 6, seed=70)
        tree = HybridTree(6)
        for oid, v in enumerate(data):
            tree.insert(v, oid)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        return path, tree, Rect([0.2] * 6, [0.8] * 6)

    def test_requires_codec(self):
        with pytest.raises(ValueError):
            NodeManager(max_cached=4)

    def test_rejects_zero_capacity(self):
        from repro.storage.serialization import HybridNodeCodec

        with pytest.raises(ValueError):
            NodeManager(codec=HybridNodeCodec(2, 8), max_cached=0)

    def test_eviction_bounds_cache(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        reopened = HybridTree.open(path, buffer_pages=8)
        reopened.range_search(box)
        assert reopened.nm.cached_nodes <= 8

    def test_results_identical_under_pressure(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        cold = HybridTree.open(path)
        tight = HybridTree.open(path, buffer_pages=4)
        assert set(tight.range_search(box)) == set(cold.range_search(box))

    def test_warm_hits_are_free(self, tmp_path):
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        buffered = HybridTree.open(path, buffer_pages=10_000)
        buffered.range_search(box)
        buffered.io.reset()
        buffered.range_search(box)
        assert buffered.io.random_reads == 0  # fully cached: no faults

    def test_bounded_miss_respects_charge_flag(self, tmp_path):
        """Regression: ``get(..., charge=False)`` used to charge anyway when
        the bounded cache missed and the page was re-read from the store."""
        from repro.core import HybridTree

        path, tree, box = self._saved_tree(tmp_path)
        small = HybridTree.open(path, buffer_pages=4)
        small.range_search(box)  # fault + evict: root may no longer be cached
        small.nm.evict_all()
        small.io.reset()
        small.nm.get(small.root_id, charge=False)
        assert small.io.total_accesses == 0
        # validate() reads every page uncharged even under a bounded pool.
        small.io.reset()
        small.validate()
        assert small.io.total_accesses == 0

    def test_dirty_eviction_writes_back(self, tmp_path):
        from repro.core import HybridTree
        from repro.geometry.rect import Rect
        import numpy as np

        path, tree, box = self._saved_tree(tmp_path)
        small = HybridTree.open(path, buffer_pages=6)
        v = np.full(6, 0.5, dtype=np.float32)
        small.insert(v, 999_999)
        # Thrash the cache so the dirty page is evicted and re-read.
        small.range_search(Rect.unit(6))
        assert 999_999 in small.point_search(v)


class TestPinning:
    def test_pin_charges_once_then_free(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "node", charge=False)
        nm.stats.reset()
        assert nm.pin(pid) == "node"
        assert nm.stats.random_reads == 1
        nm.get(pid)
        nm.get(pid)
        assert nm.stats.random_reads == 1  # pinned visits are free
        nm.unpin(pid)
        nm.get(pid)
        assert nm.stats.random_reads == 2

    def test_unpin_all(self):
        nm = NodeManager()
        pids = [nm.allocate() for _ in range(3)]
        for pid in pids:
            nm.put(pid, "n", charge=False)
            nm.pin(pid, charge=False)
        assert nm.pinned_nodes == 3
        nm.unpin_all()
        assert nm.pinned_nodes == 0

    def test_free_discards_pin(self):
        nm = NodeManager()
        pid = nm.allocate()
        nm.put(pid, "n", charge=False)
        nm.pin(pid, charge=False)
        nm.free(pid)
        assert nm.pinned_nodes == 0

    def test_pinned_never_evicted_under_pressure(self, tmp_path):
        from repro.core import HybridTree
        from repro.datasets import uniform_dataset
        from repro.geometry.rect import Rect

        data = uniform_dataset(1500, 6, seed=71)
        tree = HybridTree(6)
        for oid, v in enumerate(data):
            tree.insert(v, oid)
        path = str(tmp_path / "t.pages")
        tree.save(path)
        small = HybridTree.open(path, buffer_pages=3)
        small.nm.pin(small.root_id)
        small.range_search(Rect.unit(6))  # way more than 3 pages touched
        assert small.nm.cached_nodes <= 3 + small.nm.pinned_nodes
        small.io.reset()
        small.nm.get(small.root_id)
        assert small.io.random_reads == 0

    def test_evict_all_keeps_pinned(self):
        class StrCodec:
            def encode(self, node):
                return node.encode()

            def decode(self, data):
                return data.rstrip(b"\x00").decode()

        nm = NodeManager(codec=StrCodec())
        pid, other = nm.allocate(), nm.allocate()
        nm.put(pid, "a", charge=False)
        nm.put(other, "b", charge=False)
        nm.flush()
        nm.pin(pid, charge=False)
        nm.evict_all()
        assert nm.cached_nodes == 1
        nm.stats.reset()
        assert nm.get(pid) == "a"
        assert nm.stats.random_reads == 0


class TestPageFraming:
    def test_round_trip(self):
        from repro.storage import frame_page, unframe_page

        page = frame_page(b"hello", 4096, kind=1, level=3, entry_count=42)
        assert len(page) == 4096
        header, payload = unframe_page(page)
        assert payload == b"hello"
        assert (header.kind, header.level, header.entry_count) == (1, 3, 42)

    def test_payload_budget_enforced(self):
        from repro.storage import PAGE_HEADER_SIZE, frame_page

        frame_page(b"x" * (4096 - PAGE_HEADER_SIZE), 4096, kind=1)
        with pytest.raises(ValueError):
            frame_page(b"x" * (4096 - PAGE_HEADER_SIZE + 1), 4096, kind=1)

    def test_empty_payload(self):
        from repro.storage import frame_page, unframe_page

        header, payload = unframe_page(frame_page(b"", 512, kind=3))
        assert payload == b""
        assert header.payload_length == 0

    def test_zero_page_rejected(self):
        from repro.storage import PageCorruptionError, unframe_page

        with pytest.raises(PageCorruptionError):
            unframe_page(b"\x00" * 4096, page_id=9)

    def test_truncated_page_rejected(self):
        from repro.storage import PageCorruptionError, frame_page, unframe_page

        page = frame_page(b"data", 4096, kind=1)
        with pytest.raises(PageCorruptionError):
            unframe_page(page[:16])

    def test_corruption_error_is_a_value_error(self):
        from repro.storage import PageCorruptionError

        err = PageCorruptionError("CRC32 mismatch", page_id=5)
        assert isinstance(err, ValueError)
        assert "page 5" in str(err)


class TestAllocatorHardening:
    def test_double_free_rejected(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.free(pid)
        with pytest.raises(ValueError, match="double free"):
            store.free(pid)

    def test_free_after_recycle_is_legal(self):
        store = InMemoryPageStore()
        pid = store.allocate()
        store.free(pid)
        assert store.allocate() == pid
        store.free(pid)  # freed again only after being re-allocated

    def test_ensure_allocated_jumps_horizon(self):
        store = InMemoryPageStore()
        store.ensure_allocated(10_000_000)  # O(1), not a 10M-iteration loop
        assert store._next_id == 10_000_001
        store.ensure_allocated(5)  # never shrinks
        assert store._next_id == 10_000_001

    def test_set_allocator_state(self):
        store = InMemoryPageStore()
        store.set_allocator_state(10, [2, 7, 99])  # 99 out of range: dropped
        assert store._next_id == 10
        assert set(store.free_page_ids) == {2, 7}
        with pytest.raises(ValueError):
            store.set_allocator_state(10, [3, 3])


class TestOverlayPageStore:
    def test_reads_fall_through_writes_do_not(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            pid = base.allocate()
            base.write(pid, b"disk", charge=False)
            base.flush()
            overlay = OverlayPageStore(base)
            assert overlay.read(pid, charge=False).startswith(b"disk")
            overlay.write(pid, b"memory", charge=False)
            assert overlay.read(pid, charge=False).startswith(b"memory")
            # The file never saw the overlay write.
            assert base.read(pid, charge=False).startswith(b"disk")

    def test_overlay_pages_beyond_base_read_as_zeros(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            overlay = OverlayPageStore(base)
            pid = overlay.allocate()
            assert overlay.read(pid, charge=False) == b"\x00" * 64

    def test_shares_stats_with_base(self, tmp_path):
        from repro.storage import OverlayPageStore

        with FilePageStore(tmp_path / "base.bin", page_size=64) as base:
            overlay = OverlayPageStore(base)
            pid = overlay.allocate()
            overlay.write(pid, b"x")
            overlay.read(pid)
            assert base.stats.random_writes == 1
            assert base.stats.random_reads == 1


class TestChecksummedFileStore:
    def test_checked_read_rejects_raw_bytes(self, tmp_path):
        from repro.storage import PageCorruptionError

        with FilePageStore(tmp_path / "x.bin", 4096, checksums=True) as store:
            pid = store.allocate()
            store.write(pid, b"raw unframed bytes", charge=False)
            with pytest.raises(PageCorruptionError):
                store.read(pid, charge=False)

    def test_checked_read_accepts_framed_page(self, tmp_path):
        from repro.storage import frame_page, unframe_page

        with FilePageStore(tmp_path / "x.bin", 4096, checksums=True) as store:
            pid = store.allocate()
            store.write(pid, frame_page(b"payload", 4096, kind=1), charge=False)
            _, payload = unframe_page(store.read(pid, charge=False))
            assert payload == b"payload"
