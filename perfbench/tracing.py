"""Span tracing around the public entry points of each layer of ``repro``.

The wrappers are installed at run time from this file; nothing in the
program changes.  A span records its name, start, end, parent span and the
client call it belongs to, and stays in memory until the run ends.  Worker
processes forked by the parallel engine inherit the wrappers; they append
each finished top-level span tree to a per-process spill file, which the
parent reads back once the workers have stopped.  Worker spans are joined to
the parent's client calls by time containment (``perf_counter_ns`` is
``CLOCK_MONOTONIC``, shared by every process on the host).
"""

from __future__ import annotations

import bisect
import json
import math
import os
import time
from statistics import median

# Roots of spans that serve a query, and of spans that apply a write.
QUERY_ROOTS = frozenset(
    {"core.range", "core.distance", "core.knn", "core.batch", "engine.parallel.call"}
)
WRITE_ROOTS = frozenset({"core.insert", "core.delete", "core.checkpoint"})


class Tracer:
    """In-memory span recorder.  Span = ``[name, start_ns, end_ns, parent,
    call, attrs]``; ``parent`` indexes ``spans`` (-1 for a root)."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def wrap(self, fn, name: str, attrs=None):
        tracer = self

        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                # First span in a forked worker: the inherited spans and
                # open stack belong to the parent.
                tracer._pid = pid
                tracer.spans = []
                tracer._stack = []
            stack = tracer._stack
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, tracer.call, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    rec[5] = attrs(args, out)
                return out
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                if not stack and pid != tracer.owner_pid:
                    tracer._spill(pid)

        traced.__wrapped__ = fn
        return traced

    def _spill(self, pid: int) -> None:
        with open(os.path.join(self.spill_dir, f"worker-{pid}.jsonl"), "a") as f:
            f.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, attrs))
        else:
            new = self.wrap(raw, name, attrs)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- collection -----------------------------------------------------
    def collect(self) -> list[tuple]:
        """All spans of the run as ``(pid, name, start, end, parent, call,
        attrs)`` with global parent indices; worker spans included and given
        the call id of the parent's root span whose interval contains them."""
        out = [(self.owner_pid, *s) for s in self.spans]
        roots = [(s[1], s[2], s[4]) for s in self.spans if s[3] < 0]
        starts = [r[0] for r in roots]

        def call_at(start: int, end: int) -> int:
            i = bisect.bisect_right(starts, start) - 1
            return roots[i][2] if i >= 0 and end <= roots[i][1] else -1

        for fname in sorted(os.listdir(self.spill_dir)):
            if not (fname.startswith("worker-") and fname.endswith(".jsonl")):
                continue
            pid = int(fname[len("worker-") : -len(".jsonl")])
            with open(os.path.join(self.spill_dir, fname)) as f:
                for line in f:
                    base = len(out)
                    for name, start, end, parent, _, attrs in json.loads(line):
                        out.append((
                            pid, name, start, end, parent + base if parent >= 0 else -1,
                            call_at(start, end), attrs,
                        ))
        return out


def _batch_attrs(args, out):
    res, metrics = out if isinstance(out, tuple) else (out, None)
    visits = int(metrics.pages.sum()) if metrics is not None else 0
    return {"n": len(res), "visits": visits}


def _tree_batch_attrs(args, out):
    attrs = _batch_attrs(args, out)
    attrs["soa"] = args[0].soa_snapshot is not None
    return attrs


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call before any fork)."""
    import repro.engine.kernel as object_kernel
    import repro.engine.soa.kernel as soa_kernel
    import repro.storage.wal as wal
    from repro.core.hybridtree import HybridTree
    from repro.engine.parallel import ParallelQueryEngine
    from repro.storage.mmapstore import MmapPageStore
    from repro.storage.nodemanager import NodeManager
    from repro.storage.pagestore import FilePageStore
    from repro.storage.serialization import HybridNodeCodec

    p = tracer.patch
    for attr, name in (
        ("bulk_load", "core.bulk_load"),
        ("open", "core.open"),
        ("save", "core.save"),
        ("checkpoint", "core.checkpoint"),
        ("insert", "core.insert"),
        ("delete", "core.delete"),
        ("range_search", "core.range"),
        ("distance_range", "core.distance"),
        ("knn", "core.knn"),
        ("compile_snapshot", "engine.soa.compile"),
    ):
        p(HybridTree, attr, name)
    for attr in ("range_search_many", "distance_range_many", "knn_many"):
        p(HybridTree, attr, "core.batch", _tree_batch_attrs)
        p(ParallelQueryEngine, attr, "engine.parallel.call", _batch_attrs)
    for kind in ("range_search_many", "distance_range_many", "knn_many"):
        p(soa_kernel, f"soa_{kind}", "engine.soa.kernel", _batch_attrs)
        p(object_kernel, f"kernel_{kind}", "engine.kernel.walk", _batch_attrs)
    p(NodeManager, "get", "storage.nodemanager.get")
    p(NodeManager, "allocate", "storage.nodemanager.allocate")
    p(FilePageStore, "read", "storage.pagestore.read")
    p(MmapPageStore, "__init__", "storage.mmapstore.open")
    p(HybridNodeCodec, "decode", "storage.serialization.decode")
    p(HybridNodeCodec, "encode", "storage.serialization.encode")
    p(wal.WriteAheadLog, "commit", "storage.wal.commit")
    p(wal.WriteAheadLog, "append_page", "storage.wal.append_page")
    p(wal, "usable_scan", "storage.wal.scan")
    p(wal, "apply_scan", "storage.wal.replay")


# ----------------------------------------------------------------------
# Summariser
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    values = sorted(values)
    return float(values[max(0, min(len(values) - 1, math.ceil(q * len(values)) - 1))])


def summarise(spans: list[tuple], ctx: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time from a run's spans.

    ``ctx`` carries the client-side facts: the measured window
    (``measure``: ns pair; reopens after its start are recovery samples),
    query and write counts, measured call time (``busy_s``), and the WAL and
    engine counters read from the program's public attributes.
    Returns ``(metrics, self_seconds_by_layer)``.
    """
    n = len(spans)
    children: list[list[int]] = [[] for _ in range(n)]
    root = list(range(n))
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)
            root[i] = root[s[4]]  # parents precede children in the list
    m0, m1 = ctx["measure"]

    def dur(i):
        return spans[i][3] - spans[i][2]

    def in_window(i, lo, hi):
        return lo <= spans[i][2] and spans[i][3] <= hi

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[1], []).append(i)

    def named(name, lo=None, hi=None):
        return [i for i in by_name.get(name, ()) if lo is None or in_window(i, lo, hi)]

    def root_in(i, roots):
        return spans[root[i]][1] in roots

    def ms(idx):
        return [dur(i) / 1e6 for i in idx]

    queries = max(ctx["queries"], 1)
    met: dict[str, float] = {}

    # engine.parallel: parent call vs the worker-side partitions inside it.
    calls = named("engine.parallel.call", m0, m1)
    owner = ctx["owner"]
    parts = sorted(
        (spans[i][2], spans[i][3])
        for i in named("core.batch", m0, m1)
        if spans[i][0] != owner
    )
    overheads, imbalances = [], []
    for c in calls:
        inside = [e - s for s, e in parts if s >= spans[c][2] and e <= spans[c][3]]
        if inside:
            slowest = max(inside)
            overheads.append((dur(c) - slowest) / dur(c))
            imbalances.append(slowest / (sum(inside) / len(inside)))
    met["engine.parallel.call_ms_p50"] = percentile(ms(calls), 0.5)
    met["engine.parallel.overhead_frac"] = median(overheads) if overheads else 0.0
    met["engine.parallel.imbalance"] = median(imbalances) if imbalances else 0.0
    met["engine.parallel.restarts"] = ctx.get("restarts", 0)

    # engine.soa / engine.kernel: busy time and node visits per query.
    kernels = (("engine.soa", "engine.soa.kernel"), ("engine.kernel", "engine.kernel.walk"))
    for layer, name in kernels:
        idx = named(name, m0, m1)
        nq = sum(spans[i][6]["n"] for i in idx if spans[i][6])
        met[f"{layer}.busy_ms_per_query"] = sum(ms(idx)) / nq if nq else 0.0
        met[f"{layer}.node_visits_per_query"] = (
            sum(spans[i][6]["visits"] for i in idx if spans[i][6]) / nq if nq else 0.0
        )
    met["engine.soa.compile_s"] = percentile(ms(named("engine.soa.compile")), 0.5) / 1e3
    batches = [i for i in named("core.batch", m0, m1) if spans[i][6]]
    met["engine.soa.served_frac"] = (
        sum(1 for i in batches if spans[i][6]["soa"]) / len(batches) if batches else 0.0
    )

    # core: single-query walks, writes, bulk load, checkpoints.
    singles = []
    for kind in ("range", "distance", "knn"):
        idx = named(f"core.{kind}", m0, m1)
        singles += idx
        met[f"core.{kind}_ms_p50"] = percentile(ms(idx), 0.5)
    total = sum(dur(i) for i in singles)
    storage_child = sum(
        dur(c) for i in singles for c in children[i] if spans[c][1].startswith("storage.")
    )
    met["core.walk_self_frac"] = (total - storage_child) / total if total else 0.0
    for kind in ("insert", "delete"):
        idx = named(f"core.{kind}", m0, m1)
        met[f"core.{kind}_ms_p50"] = percentile(ms(idx), 0.5)
        met[f"core.{kind}_ms_p95"] = percentile(ms(idx), 0.95)
    inserts = named("core.insert", m0, m1)
    splits = sum(
        1
        for i in named("storage.nodemanager.allocate", m0, m1)
        if spans[root[i]][1] == "core.insert"
    )
    met["core.splits_per_1k_inserts"] = 1000.0 * splits / len(inserts) if inserts else 0.0
    met["core.bulk_load_s"] = percentile(ms(named("core.bulk_load")), 0.5) / 1e3
    met["core.checkpoint_s"] = percentile(ms(named("core.checkpoint")), 0.5) / 1e3

    # storage: node manager, page store, mmap store, codec, WAL.
    gets = [i for i in named("storage.nodemanager.get", m0, m1) if root_in(i, QUERY_ROOTS)]
    misses = sum(
        1
        for i in gets
        if any(spans[c][1] == "storage.serialization.decode" for c in children[i])
    )
    met["storage.nodemanager.gets_per_query"] = len(gets) / queries
    met["storage.nodemanager.hit_rate"] = 1.0 - misses / len(gets) if gets else 0.0
    met["storage.nodemanager.retries"] = ctx.get("retries", 0)
    reads = [i for i in named("storage.pagestore.read", m0, m1) if root_in(i, QUERY_ROOTS)]
    met["storage.pagestore.reads_per_query"] = len(reads) / queries
    met["storage.pagestore.read_us"] = percentile(ms(reads), 0.5) * 1e3
    opens = named("storage.mmapstore.open")
    met["storage.mmapstore.open_verify_s"] = percentile(ms(opens), 0.5) / 1e3
    decodes = [
        i for i in named("storage.serialization.decode", m0, m1) if root_in(i, QUERY_ROOTS)
    ]
    met["storage.serialization.decodes_per_query"] = len(decodes) / queries
    met["storage.serialization.decode_us"] = percentile(ms(decodes), 0.5) * 1e3
    encodes = [
        i for i in named("storage.serialization.encode", m0, m1) if root_in(i, WRITE_ROOTS)
    ]
    met["storage.serialization.encode_us"] = percentile(ms(encodes), 0.5) * 1e3
    commits = named("storage.wal.commit", m0, m1)
    met["storage.wal.commit_ms_p50"] = percentile(ms(commits), 0.5)
    met["storage.wal.commit_ms_p95"] = percentile(ms(commits), 0.95)
    met["storage.wal.fsyncs_per_commit"] = (
        ctx["wal_syncs"] / ctx["wal_commits"] if ctx.get("wal_commits") else 0.0
    )
    met["storage.wal.pages_per_commit"] = (
        len(named("storage.wal.append_page", m0, m1)) / len(commits) if commits else 0.0
    )
    met["storage.wal.log_bytes_per_user_byte"] = (
        ctx["wal_bytes"] / ctx["user_bytes_written"] if ctx.get("user_bytes_written") else 0.0
    )
    replays = [
        sum(
            dur(c)
            for c in children[i]
            if spans[c][1] in ("storage.wal.scan", "storage.wal.replay")
        )
        for i in named("core.open", m0, float("inf"))
    ]
    met["storage.wal.replay_s"] = percentile(replays, 0.5) / 1e9

    # Self time per layer inside the client's calls, every process.
    self_s: dict[str, float] = {}
    covered = 0
    for i in range(n):
        if not (in_window(i, m0, m1) and root_in(i, QUERY_ROOTS | WRITE_ROOTS)):
            continue
        d = dur(i) - sum(dur(c) for c in children[i])
        layer = layer_of(spans[i][1])
        self_s[layer] = self_s.get(layer, 0.0) + d / 1e9
        if spans[i][4] < 0 and spans[i][0] == owner:
            covered += dur(i)
    self_s["client"] = max(ctx["busy_s"] - covered / 1e9, 0.0)
    return met, self_s
