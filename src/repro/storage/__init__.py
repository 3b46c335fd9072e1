"""Paged storage substrate.

The hybrid-tree paper reports *disk accesses per query* on 4096-byte pages as
its primary performance metric.  This subpackage provides the simulated disk
that makes those numbers meaningful in a pure-Python reproduction:

- :mod:`repro.storage.page` -- page-size constants and byte-budget helpers.
- :mod:`repro.storage.iostats` -- the I/O accountant distinguishing random
  from sequential page accesses (the paper charges sequential accesses at one
  tenth of a random access).
- :mod:`repro.storage.pagestore` -- page allocators: an in-memory store used
  by the benchmarks and a real file-backed store used to test persistence.
- :mod:`repro.storage.mmapstore` -- read-only zero-copy store over a saved
  tree file (mmap views, verify-once-at-open CRC).
- :mod:`repro.storage.nodemanager` -- the node cache every index runs through;
  it charges one page access per node visit and, when file-backed, round-trips
  nodes through ``struct``-packed pages (optionally as a bounded LRU buffer,
  ``max_cached``).
- :mod:`repro.storage.serialization` -- byte-level node codecs; every page
  is framed with a header and whole-page CRC32 (:mod:`repro.storage.page`).
- :mod:`repro.storage.errors` -- the typed storage exception hierarchy
  (corruption, transient faults, simulated crashes).
- :mod:`repro.storage.faults` -- a seeded fault-injecting store decorator.
- :mod:`repro.storage.superblock` -- the single-file saved-tree commit
  record (blob pages + trailing superblock).
- :mod:`repro.storage.recovery` -- fsck (:func:`verify`) and data-page
  salvage for saved tree files.
- :mod:`repro.storage.wal` -- the write-ahead log: CRC-framed, LSN-stamped
  mutation records with group-commit fsync, checkpointing, and replay.
"""

from repro.storage.errors import (
    CrashError,
    PageCorruptionError,
    ReadOnlyStoreError,
    RecoveryError,
    StorageError,
    TransientStorageError,
)
from repro.storage.faults import FaultInjectingPageStore
from repro.storage.iostats import AccessKind, IOStats
from repro.storage.nodemanager import NodeManager
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_SIZE,
    PageHeader,
    PageLayout,
    data_node_capacity,
    frame_page,
    kdtree_node_capacity,
    rtree_node_capacity,
    srtree_node_capacity,
    sstree_node_capacity,
    unframe_page,
)
from repro.storage.mmapstore import MmapPageStore
from repro.storage.pagestore import (
    FilePageStore,
    InMemoryPageStore,
    OverlayPageStore,
    PageStore,
    SnapshotPageStore,
    VersionedOverlayStore,
)
from repro.storage.wal import WriteAheadLog

__all__ = [
    "AccessKind",
    "CrashError",
    "DEFAULT_PAGE_SIZE",
    "FaultInjectingPageStore",
    "FilePageStore",
    "InMemoryPageStore",
    "IOStats",
    "MmapPageStore",
    "NodeManager",
    "OverlayPageStore",
    "PAGE_HEADER_SIZE",
    "PageCorruptionError",
    "PageHeader",
    "PageLayout",
    "PageStore",
    "ReadOnlyStoreError",
    "RecoveryError",
    "SnapshotPageStore",
    "StorageError",
    "TransientStorageError",
    "VersionedOverlayStore",
    "WriteAheadLog",
    "data_node_capacity",
    "frame_page",
    "kdtree_node_capacity",
    "rtree_node_capacity",
    "srtree_node_capacity",
    "sstree_node_capacity",
    "unframe_page",
]
