"""Page allocators: an in-memory simulated disk and a real file-backed one.

Both stores expose the same interface — ``allocate``/``read``/``write``/
``free`` on fixed-size pages — and both report their accesses to a shared
:class:`~repro.storage.iostats.IOStats`.  Benchmarks use the in-memory store
(identical accounting, no packing cost); persistence tests and the
``HybridTree.save``/``open`` round trip use the file store, which lays pages
out contiguously in a single file exactly like a 1999 database heap file.

:class:`OverlayPageStore` adds copy-on-write on top of a file store: a
reopened tree reads through to the saved file but buffers every write in
memory, so the published save stays byte-identical until the next
``save()`` republishes atomically — a crash mid-session can never corrupt
the on-disk tree.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable

from repro.storage.errors import PageCorruptionError, ReadOnlyStoreError
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE, unframe_page


class PageStore(ABC):
    """Abstract fixed-size page allocator with access accounting."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, stats: IOStats | None = None):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self._next_id = 0
        self._free_list: list[int] = []
        self._free_set: set[int] = set()

    def allocate(self) -> int:
        """Reserve a fresh page id (recycling freed pages first)."""
        if self._free_list:
            page_id = self._free_list.pop()
            self._free_set.discard(page_id)
            return page_id
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def free(self, page_id: int) -> None:
        """Return a page to the allocator.

        Freeing the same id twice is rejected: a double free would put the
        id on the free list twice, and two later ``allocate()`` calls would
        hand the same page to different nodes — silent cross-linked
        corruption, the worst failure mode an allocator can have.
        """
        self._validate_id(page_id)
        if page_id in self._free_set:
            raise ValueError(f"double free of page {page_id}")
        self._free_set.add(page_id)
        self._free_list.append(page_id)

    def ensure_allocated(self, page_id: int) -> None:
        """Extend the allocation horizon so ``page_id`` is addressable.

        Used when mirroring a tree with stable page ids into a fresh store.
        """
        self._next_id = max(self._next_id, page_id + 1)

    def set_allocator_state(self, next_id: int, free_ids: Iterable[int]) -> None:
        """Restore persisted allocator state (used by ``HybridTree.open``).

        ``free_ids`` outside ``[0, next_id)`` are dropped: they refer to
        pages past the end of the saved file and are simply unallocated.
        """
        if next_id < 0:
            raise ValueError("next_id must be non-negative")
        self._next_id = next_id
        kept = [pid for pid in free_ids if 0 <= pid < next_id]
        self._free_set = set(kept)
        if len(self._free_set) != len(kept):
            raise ValueError("free list contains duplicate page ids")
        self._free_list = kept

    @property
    def free_page_ids(self) -> list[int]:
        """The freed-but-not-reused page ids (persisted by ``save``)."""
        return list(self._free_list)

    @property
    def allocated_pages(self) -> int:
        """Pages currently in use (allocated minus freed)."""
        return self._next_id - len(self._free_list)

    def _validate_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._next_id:
            raise KeyError(f"page id {page_id} was never allocated")

    @abstractmethod
    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> bytes:
        """Return the page's contents, charging one access of ``kind``.

        ``charge=False`` performs the read without recording it — the hook
        maintenance traversals (``validate``, ``rebuild_els``, statistics)
        use so they never pollute query-cost measurements, even when a
        bounded buffer pool forces a genuine page fault.
        """

    @abstractmethod
    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        """Store ``data`` (at most ``page_size`` bytes), charging one access."""


class InMemoryPageStore(PageStore):
    """Simulated disk: pages live in a dict, accesses are only counted."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, stats: IOStats | None = None):
        super().__init__(page_size, stats)
        self._pages: dict[int, bytes] = {}

    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> bytes:
        self._validate_id(page_id)
        if charge:
            self.stats.record(kind)
        return self._pages.get(page_id, b"\x00" * self.page_size).ljust(
            self.page_size, b"\x00"
        )

    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        self._validate_id(page_id)
        if len(data) > self.page_size:
            raise ValueError(f"page overflow: {len(data)} > {self.page_size} bytes")
        if charge:
            self.stats.record(kind)
        self._pages[page_id] = data


class FilePageStore(PageStore):
    """Real file-backed pages: page ``i`` occupies bytes ``[i*P, (i+1)*P)``.

    With ``checksums=True`` every :meth:`read` verifies the page's frame
    (magic + format version + whole-page CRC32, see
    :func:`repro.storage.page.unframe_page`) and raises
    :class:`PageCorruptionError` on any mismatch — the mode
    ``HybridTree.save``/``open`` run in.  The default leaves pages opaque
    for callers that store raw bytes.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        page_size: int = DEFAULT_PAGE_SIZE,
        stats: IOStats | None = None,
        checksums: bool = False,
    ):
        super().__init__(page_size, stats)
        self.path = os.fspath(path)
        self.checksums = checksums
        # "r+b" keeps existing content; create the file if absent.
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        # Seek + read/write must be one step: snapshot views and parallel
        # query views on different threads share one store.
        self._io_lock = threading.Lock()
        size = os.path.getsize(self.path)
        self._next_id = size // page_size

    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> bytes:
        self._validate_id(page_id)
        if charge:
            self.stats.record(kind)
        with self._io_lock:
            self._file.seek(page_id * self.page_size)
            data = self._file.read(self.page_size)
        data = data.ljust(self.page_size, b"\x00")
        if self.checksums:
            unframe_page(data, page_id)
        return data

    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        self._validate_id(page_id)
        if len(data) > self.page_size:
            raise ValueError(f"page overflow: {len(data)} > {self.page_size} bytes")
        if charge:
            self.stats.record(kind)
        with self._io_lock:
            self._file.seek(page_id * self.page_size)
            self._file.write(data.ljust(self.page_size, b"\x00"))

    def flush(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FilePageStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class OverlayPageStore(PageStore):
    """Copy-on-write view over a base store: reads fall through, writes
    land in a private in-memory overlay.

    ``HybridTree.open`` wraps its :class:`FilePageStore` in an overlay so
    that dirty-node write-back from a bounded buffer pool (and any other
    mid-session mutation) never touches the published save file; the file
    changes only through ``save()``'s atomic rename.  Access accounting is
    identical to writing through: every charged overlay access records
    against the shared :class:`IOStats`.
    """

    def __init__(self, base: PageStore):
        super().__init__(base.page_size, base.stats)
        self.base = base
        self._pages: dict[int, bytes] = {}
        self._next_id = base._next_id

    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> bytes:
        self._validate_id(page_id)
        if charge:
            self.stats.record(kind)
        page = self._pages.get(page_id)
        if page is not None:
            return page.ljust(self.page_size, b"\x00")
        if page_id < self.base._next_id:
            return self.base.read(page_id, charge=False)
        return b"\x00" * self.page_size

    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        self._validate_id(page_id)
        if len(data) > self.page_size:
            raise ValueError(f"page overflow: {len(data)} > {self.page_size} bytes")
        if charge:
            self.stats.record(kind)
        self._pages[page_id] = data

    def close(self) -> None:
        close = getattr(self.base, "close", None)
        if close is not None:
            close()


class VersionedOverlayStore(OverlayPageStore):
    """Copy-on-write overlay with pinnable page-version snapshots.

    The write-ahead-log path opens its tree over this store: committed
    pages land in the overlay exactly like :class:`OverlayPageStore`, but a
    reader may first :meth:`pin_snapshot` — from then on, every overwrite
    of a page preserves that page's *pre-write* image for the pinned
    snapshot, so a :class:`SnapshotPageStore` view keeps reading the exact
    store state of pin time while the writer mutates underneath it.  This
    is MVCC in its smallest form: versions are materialised lazily (only
    pages actually overwritten while a pin is live cost a copy) and freed
    when the last snapshot over them unpins.

    All snapshot bookkeeping is lock-protected, so reader threads may pull
    pages from their snapshots while the writer commits.
    """

    def __init__(self, base: PageStore):
        super().__init__(base)
        self._lock = threading.Lock()
        self._snapshots: dict[int, dict[int, bytes | None]] = {}
        self._next_token = 0

    def pin_snapshot(self) -> int:
        """Freeze the current committed state; returns the snapshot token."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
            self._snapshots[token] = {}
            return token

    def unpin_snapshot(self, token: int) -> None:
        """Release a snapshot and the page versions it kept alive."""
        with self._lock:
            self._snapshots.pop(token, None)

    @property
    def pinned_snapshots(self) -> int:
        return len(self._snapshots)

    @property
    def preserved_pages(self) -> int:
        """Pre-write page images currently kept alive for snapshots."""
        return sum(len(pages) for pages in self._snapshots.values())

    def write(
        self,
        page_id: int,
        data: bytes,
        kind: AccessKind = AccessKind.RANDOM_WRITE,
        charge: bool = True,
    ) -> None:
        with self._lock:
            for pages in self._snapshots.values():
                if page_id not in pages:
                    # None marks "read through to the base store": the page
                    # had no overlay version when the snapshot was pinned.
                    pages[page_id] = self._pages.get(page_id)
            super().write(page_id, data, kind, charge)

    def snapshot_read(self, token: int, page_id: int) -> bytes:
        """The page as it stood when ``token`` was pinned (uncharged)."""
        with self._lock:
            pages = self._snapshots.get(token)
            if pages is None:
                raise KeyError(f"snapshot {token} is not pinned")
            if page_id in pages:
                page = pages[page_id]
            else:
                page = self._pages.get(page_id)
        if page is not None:
            return page.ljust(self.page_size, b"\x00")
        if page_id < self.base._next_id:
            return self.base.read(page_id, charge=False)
        return b"\x00" * self.page_size


class SnapshotPageStore(PageStore):
    """A read-only view of one pinned snapshot of a
    :class:`VersionedOverlayStore`.

    Carries its own :class:`IOStats` (so concurrent readers' charges merge
    honestly, like parallel-engine workers) and a frozen allocation
    horizon; writes raise :class:`ReadOnlyStoreError`.  Closing the view
    unpins the snapshot.
    """

    def __init__(
        self,
        owner: VersionedOverlayStore,
        token: int | None = None,
        stats: IOStats | None = None,
    ):
        super().__init__(owner.page_size, stats if stats is not None else IOStats())
        self.owner = owner
        self.token = token if token is not None else owner.pin_snapshot()
        self._next_id = owner._next_id
        self._closed = False

    def read(
        self,
        page_id: int,
        kind: AccessKind = AccessKind.RANDOM_READ,
        charge: bool = True,
    ) -> bytes:
        self._validate_id(page_id)
        if charge:
            self.stats.record(kind)
        return self.owner.snapshot_read(self.token, page_id)

    def write(self, page_id: int, data: bytes, kind=AccessKind.RANDOM_WRITE,
              charge: bool = True) -> None:
        raise ReadOnlyStoreError(
            "snapshot views are read-only; mutate through the owning tree"
        )

    def free(self, page_id: int) -> None:
        raise ReadOnlyStoreError("snapshot views are read-only")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.owner.unpin_snapshot(self.token)
