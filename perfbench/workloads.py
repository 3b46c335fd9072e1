"""The three benchmark workloads, each a closed loop with one client.

Every workload generates its inputs from the seed, sets the index up
``SETUP_REPS`` times (the median is ``setup_s``), runs client calls back to
back until ``seconds`` of call time and ``MIN_CALLS`` calls have been
measured, and checks every answer against the oracle outside the timed
region.  Recovery (reopen) time is sampled about a dozen times spread over
the run, between calls, so that its median sees the same host conditions
as the calls do.

- ``fourier-serve``: the production read path.  Batches of box range
  queries and k-NN go to a fork-mode ``ParallelQueryEngine`` over an
  mmap-opened save file carrying a compiled SOA snapshot.
- ``colhist-disk``: the paper's disk-resident setting.  One query per
  call (box, L1 distance range, k-NN) on a tree reopened without a
  snapshot, with a node cache of an eighth of its pages.
- ``fourier-ingest``: durable writes beside reads.  WAL-logged inserts and
  deletes with periodic checkpoints and small query batches between write
  bursts; the handle is then abandoned and every acknowledged write is
  checked after reopening.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gen
from tracing import percentile

SETUP_REPS = 3
# Calls needed for a p95 with ten samples beyond it.
MIN_CALLS = 200
K = 10


def _pss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class MemorySampler:
    """Peak proportional set size of this process plus its live children
    (proportional, so pages the forked workers share count once)."""

    every_s = 1.0

    def __init__(self):
        self.peak_mb = 0.0
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now < self._next:
            return
        self._next = now + self.every_s
        total = _pss_mb(os.getpid())
        total += sum(_pss_mb(p.pid) for p in multiprocessing.active_children())
        self.peak_mb = max(self.peak_mb, total)


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    ctx: dict = field(default_factory=dict)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= 20:
            print(f"# FAILED {what}", flush=True)


class Loop:
    """Closed-loop bookkeeping: time spent inside calls and the stop rule."""

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.busy = 0.0
        self.wall_cap = time.perf_counter() + 2 * seconds + 20

    def more(self, samples: int) -> bool:
        """Go on until ``seconds`` of call time and ``MIN_CALLS`` latency
        samples, within a wall-clock cap."""
        if time.perf_counter() > self.wall_cap:
            return False
        return self.busy < self.seconds or samples < MIN_CALLS

    def timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.call += 1
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        self.busy += dt
        return out, dt


def _remove(*paths: str) -> None:
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def _time_reopen(open_fn) -> float:
    t = time.perf_counter()
    tree = open_fn()
    dt = time.perf_counter() - t
    tree.close()
    return dt


def _check_box(out: Outcome, what: str, got, want: np.ndarray) -> None:
    out.attempted += 1
    if not np.array_equal(np.sort(np.asarray(got, dtype=np.int64)), want):
        out.fail(f"{what}: {len(got)} oids, oracle {len(want)}")


def _check_pairs(out: Outcome, what: str, got, want_oids, want_dists, ordered: bool) -> None:
    """``got`` is a list of ``(oid, distance)``; range answers compare as
    sets, k-NN answers in the exact ``(distance, oid)`` order."""
    out.attempted += 1
    oids = np.asarray([o for o, _ in got], dtype=np.int64)
    dists = np.asarray([d for _, d in got], dtype=np.float64)
    if not ordered:
        order = np.argsort(oids, kind="stable")
        oids, dists = oids[order], dists[order]
    if not (np.array_equal(oids, want_oids) and np.array_equal(dists, want_dists)):
        out.fail(f"{what}: {len(got)} answers differ from the oracle")


def _query_metrics(out: Outcome, latencies: list[float], queries: int, busy_q: float) -> None:
    out.metrics["query_qps"] = queries / busy_q
    out.metrics["query_p50_ms"] = percentile(latencies, 0.5) * 1e3
    out.metrics["query_p95_ms"] = percentile(latencies, 0.95) * 1e3
    out.info["query_calls"] = len(latencies)


# ----------------------------------------------------------------------
# fourier-serve
# ----------------------------------------------------------------------
SERVE_POINTS = 200_000
SERVE_DIMS = 16
SERVE_SELECTIVITY = 0.0007
# One cycle: three box batches then one k-NN batch.  At equal batch sizes
# k-NN takes ~93% of the time; this mix keeps each kind under ~3/4.
SERVE_CYCLE = (("box", 64), ("box", 64), ("box", 64), ("knn", 32))
# Distinct queries per run: the pool mean is what varies between seeds.
SERVE_BOX_POOL = 1024
SERVE_KNN_POOL = 256
SERVE_REOPEN_EVERY = 40  # calls


def serve_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    data, fam = gen.fourier_points(SERVE_POINTS, SERVE_DIMS, seed)
    box_c = gen.sample_centers(data, fam, SERVE_BOX_POOL, rng)
    lows, highs, box_ans = gen.box_queries(data, box_c, SERVE_SELECTIVITY)
    knn_c = gen.sample_centers(data, fam, SERVE_KNN_POOL, rng)
    return {
        "data": data,
        "lows": lows,
        "highs": highs,
        "box_ans": box_ans,
        "knn_c": knn_c,
        "knn_ans": gen.knn_answers(data, knn_c, K),
    }


def fourier_serve(inp: dict, seconds: float, workdir: str, tracer=None) -> Outcome:
    from repro import HybridTree, Rect
    from repro.engine.parallel import ParallelQueryEngine

    out = Outcome()
    mem = MemorySampler()
    data = inp["data"]
    path = os.path.join(workdir, "serve.ht")
    workers = len(os.sched_getaffinity(0))
    boxes = [Rect(lo, hi) for lo, hi in zip(inp["lows"], inp["highs"])]
    setups = []
    engine = None
    for _ in range(SETUP_REPS):
        if engine is not None:
            engine.close()
        _remove(path)
        # Each timed phase starts from a collected heap, so garbage left by
        # the benchmark itself never lands a full collection inside it.
        gc.collect()
        t = time.perf_counter()
        tree = HybridTree.bulk_load(data)
        tree.compile_snapshot()
        tree.save(path)
        engine = ParallelQueryEngine(path, workers=workers, mode="fork", mmap=True)
        # Workers open the file in their own main loop: the first answered
        # query is the moment the service is up.
        engine.knn_many(inp["knn_c"][:1], K)
        setups.append(time.perf_counter() - t)
        pages = tree.pages()
        del tree
    mem.sample(force=True)
    gc.collect()
    try:
        loop = Loop(seconds, tracer)
        lat, queries, reopen = [], 0, []
        box_pos = knn_pos = 0
        reads0 = None
        cycle = 0
        warmup = len(SERVE_CYCLE)
        while cycle < warmup or loop.more(len(lat)):
            if cycle == warmup:
                loop.busy = 0.0
                lat, queries = [], 0
                reads0 = engine.io.random_reads
                measure0 = time.perf_counter_ns()
            kind, size = SERVE_CYCLE[cycle % len(SERVE_CYCLE)]
            cycle += 1
            if kind == "box":
                sel = [(box_pos + j) % SERVE_BOX_POOL for j in range(size)]
                box_pos += size
                try:
                    res, dt = loop.timed(engine.range_search_many, [boxes[i] for i in sel])
                except Exception as exc:  # a typed error fails the whole call
                    out.attempted += size
                    out.fail(f"box batch raised {exc!r}", size)
                    continue
                for i, r in zip(sel, res):
                    _check_box(out, f"box query {i}", r, inp["box_ans"][i])
            else:
                sel = [(knn_pos + j) % SERVE_KNN_POOL for j in range(size)]
                knn_pos += size
                try:
                    res, dt = loop.timed(engine.knn_many, inp["knn_c"][sel], K)
                except Exception as exc:
                    out.attempted += size
                    out.fail(f"knn batch raised {exc!r}", size)
                    continue
                for i, r in zip(sel, res):
                    want = inp["knn_ans"][i]
                    _check_pairs(out, f"knn query {i}", r, want[0], want[1], ordered=True)
            lat.append(dt)
            queries += size
            if len(lat) % SERVE_REOPEN_EVERY == 0:
                reopen.append(_time_reopen(lambda: HybridTree.open(path, mmap=True)))
            mem.sample()
        measure1 = time.perf_counter_ns()
        reads = engine.io.random_reads - reads0
        restarts = engine.restarts_performed
        mem.sample(force=True)
    finally:
        engine.close()
    _query_metrics(out, lat, queries, loop.busy)
    out.metrics["ops_s"] = queries / loop.busy
    out.metrics["page_reads_per_query"] = reads / queries
    out.metrics["disk_bytes_per_user_byte"] = os.path.getsize(path) / data.nbytes
    out.metrics["recovery_s"] = float(np.median(reopen))
    out.metrics["setup_s"] = float(np.median(setups))
    out.metrics["peak_rss_mb"] = mem.peak_mb
    out.info.update(
        points=len(data), dims=data.shape[1], tree_pages=pages, cache_pages="all (mmap)",
        workers=workers, queries=queries, fsync_policy="none (read-only)",
    )
    out.ctx = {
        "measure": (measure0, measure1), "queries": queries, "busy_s": loop.busy,
        "restarts": restarts, "retries": 0,
    }
    return out


# ----------------------------------------------------------------------
# colhist-disk
# ----------------------------------------------------------------------
DISK_POINTS = 70_000
DISK_SELECTIVITY = 0.002
# A run makes about 200 box calls and 50 each of L1 and k-NN.
DISK_BOX_POOL = 192
DISK_POOL = 64  # L1 and k-NN
DISK_CACHE_SHARE = 8  # node cache = pages // 8
# Box queries are ~5x cheaper than L1 range and k-NN and have a tight,
# single mode.  With two thirds of the calls on boxes the median is the
# upper quartile of the box latencies and p95 lies in the L1/k-NN tail;
# neither falls on the sparse gap between the two modes.
DISK_CYCLE = ("box", "box", "l1", "box", "box", "knn")
DISK_WARMUP = 8
DISK_REOPEN_EVERY = 25  # calls


def disk_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    data, theme = gen.colhist_points(DISK_POINTS, seed)
    box_c = gen.sample_centers(data, theme, DISK_BOX_POOL, rng)
    lows, highs, box_ans = gen.box_queries(data, box_c, DISK_SELECTIVITY)
    l1_c = gen.sample_centers(data, theme, DISK_POOL, rng)
    radii, l1_ans = gen.l1_queries(data, l1_c, DISK_SELECTIVITY)
    knn_c = gen.sample_centers(data, theme, DISK_POOL, rng)
    return {
        "data": data, "lows": lows, "highs": highs, "box_ans": box_ans,
        "l1_c": l1_c, "radii": radii, "l1_ans": l1_ans,
        "knn_c": knn_c, "knn_ans": gen.knn_answers(data, knn_c, K),
    }


def colhist_disk(inp: dict, seconds: float, workdir: str, tracer=None) -> Outcome:
    from repro import L1, HybridTree, Rect

    out = Outcome()
    mem = MemorySampler()
    data = inp["data"]
    path = os.path.join(workdir, "disk.ht")
    boxes = [Rect(lo, hi) for lo, hi in zip(inp["lows"], inp["highs"])]
    setups = []
    tree = None
    for _ in range(SETUP_REPS):
        if tree is not None:
            tree.close()
        _remove(path)
        gc.collect()
        t = time.perf_counter()
        built = HybridTree.bulk_load(data)
        built.save(path)
        pages = built.pages()
        del built
        tree = HybridTree.open(path, buffer_pages=pages // DISK_CACHE_SHARE)
        setups.append(time.perf_counter() - t)
    mem.sample(force=True)
    gc.collect()
    loop = Loop(seconds, tracer)
    lat, reads, reopen = [], 0, []
    pos = {"box": 0, "l1": 0, "knn": 0}
    step = 0
    try:
        while step < DISK_WARMUP or loop.more(len(lat)):
            if step == DISK_WARMUP:
                loop.busy = 0.0
                lat, reads = [], 0
                measure0 = time.perf_counter_ns()
            kind = DISK_CYCLE[step % len(DISK_CYCLE)]
            step += 1
            i = pos[kind] % (DISK_BOX_POOL if kind == "box" else DISK_POOL)
            pos[kind] += 1
            r0 = tree.io.random_reads
            try:
                if kind == "box":
                    res, dt = loop.timed(tree.range_search, boxes[i])
                elif kind == "l1":
                    res, dt = loop.timed(tree.distance_range, inp["l1_c"][i], inp["radii"][i], L1)
                else:
                    res, dt = loop.timed(tree.knn, inp["knn_c"][i], K)
            except Exception as exc:
                out.attempted += 1
                out.fail(f"{kind} query {i} raised {exc!r}")
                continue
            reads += tree.io.random_reads - r0
            lat.append(dt)
            if kind == "box":
                _check_box(out, f"box query {i}", res, inp["box_ans"][i])
            elif kind == "l1":
                want = inp["l1_ans"][i]
                _check_pairs(out, f"l1 query {i}", res, want[0], want[1], ordered=False)
            else:
                want = inp["knn_ans"][i]
                _check_pairs(out, f"knn query {i}", res, want[0], want[1], ordered=True)
            if len(lat) % DISK_REOPEN_EVERY == 0:
                reopen.append(_time_reopen(
                    lambda: HybridTree.open(path, buffer_pages=pages // DISK_CACHE_SHARE)
                ))
            mem.sample()
        measure1 = time.perf_counter_ns()
        retries = tree.nm.retries_performed
        mem.sample(force=True)
    finally:
        tree.close()
    queries = len(lat)
    _query_metrics(out, lat, queries, loop.busy)
    out.metrics["ops_s"] = queries / loop.busy
    out.metrics["page_reads_per_query"] = reads / queries
    out.metrics["disk_bytes_per_user_byte"] = os.path.getsize(path) / data.nbytes
    out.metrics["recovery_s"] = float(np.median(reopen))
    out.metrics["setup_s"] = float(np.median(setups))
    out.metrics["peak_rss_mb"] = mem.peak_mb
    out.info.update(
        points=len(data), dims=data.shape[1], tree_pages=pages,
        cache_pages=pages // DISK_CACHE_SHARE, queries=queries,
        fsync_policy="none (read-only)",
    )
    out.ctx = {
        "measure": (measure0, measure1), "queries": queries, "busy_s": loop.busy,
        "restarts": 0, "retries": retries,
    }
    return out


# ----------------------------------------------------------------------
# fourier-ingest
# ----------------------------------------------------------------------
INGEST_BASE = 100_000
INGEST_FRESH = 40_000
INGEST_DIMS = 16
INGEST_SELECTIVITY = 0.0007
INSERT_SHARE = 0.8  # ~4 inserts per delete
BURST = 25  # writes between query calls
CHECKPOINT_EVERY = 400  # commits
# Recovery is sampled, and the run ends, this many commits past a
# checkpoint, so every reopen replays the same amount of log.
TAIL_COMMITS = 200
# Query calls cycle box, box, k-NN: the median falls inside the box-batch
# latencies and p95 inside the k-NN ones, never on the gap between them.
# On the object kernel a call costs about as much as a write burst.
INGEST_QUERY_CYCLE = ("box", "box", "knn")
INGEST_BOX_BATCH = 2
INGEST_KNN_BATCH = 1
INGEST_BOX_POOL = 256
INGEST_KNN_POOL = 128


def ingest_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    data, fam = gen.fourier_points(INGEST_BASE + INGEST_FRESH, INGEST_DIMS, seed)
    base, base_fam = data[:INGEST_BASE], fam[:INGEST_BASE]
    box_c = gen.sample_centers(base, base_fam, INGEST_BOX_POOL, rng)
    lows, highs, _ = gen.box_queries(base, box_c, INGEST_SELECTIVITY)
    # Write sequence: True = insert the next fresh point, False = delete a
    # uniformly chosen live point (the victim is drawn when it happens).
    ops = rng.random(INGEST_FRESH * 2) < INSERT_SHARE
    return {
        "data": data, "lows": lows, "highs": highs,
        "knn_c": gen.sample_centers(base, base_fam, INGEST_KNN_POOL, rng),
        "ops": ops, "victim_seed": int(rng.integers(2**32)),
    }


class LiveSet:
    """The generator-side shadow of which oids are live."""

    def __init__(self, n: int, capacity: int):
        self.oids = np.empty(capacity, dtype=np.int64)
        self.oids[:n] = np.arange(n)
        self.pos = np.full(capacity, -1, dtype=np.int64)
        self.pos[:n] = np.arange(n)
        self.n = n

    def add(self, oid: int) -> None:
        self.oids[self.n] = oid
        self.pos[oid] = self.n
        self.n += 1

    def remove(self, oid: int) -> None:
        i = self.pos[oid]
        last = self.oids[self.n - 1]
        self.oids[i] = last
        self.pos[last] = i
        self.pos[oid] = -1
        self.n -= 1

    def live(self) -> np.ndarray:
        return self.oids[: self.n]


def fourier_ingest(inp: dict, seconds: float, workdir: str, tracer=None) -> Outcome:
    from repro import HybridTree, Rect

    out = Outcome()
    mem = MemorySampler()
    data = inp["data"]
    dims = data.shape[1]
    path = os.path.join(workdir, "ingest.ht")
    wal_path = path + ".wal"
    boxes = [Rect(lo, hi) for lo, hi in zip(inp["lows"], inp["highs"])]
    setups = []
    tree = None
    for _ in range(SETUP_REPS):
        if tree is not None:
            tree.close()
        _remove(path, wal_path)
        gc.collect()
        t = time.perf_counter()
        built = HybridTree.bulk_load(data[:INGEST_BASE])
        built.save(path)
        del built
        tree = HybridTree.open(path, wal=True)
        setups.append(time.perf_counter() - t)
    mem.sample(force=True)
    gc.collect()

    live = LiveSet(INGEST_BASE, len(data))
    victims = np.random.default_rng(inp["victim_seed"])
    loop = Loop(seconds, tracer)
    write_lat, query_lat = [], []
    queries = reads = 0
    busy_q = 0.0
    next_fresh = INGEST_BASE
    inserted: list[int] = []
    commits = checkpoints = 0
    wal_bytes = 0
    reopen: list[float] = []
    op_i = box_pos = knn_pos = 0

    def write_one() -> bool:
        nonlocal next_fresh, op_i
        if op_i >= len(inp["ops"]) or next_fresh >= len(data):
            return False
        is_insert = bool(inp["ops"][op_i])
        op_i += 1
        if is_insert:
            oid = next_fresh
            next_fresh += 1
        else:
            oid = int(live.live()[victims.integers(live.n)])
        vec = data[oid]

        def apply() -> bool:
            nonlocal commits, checkpoints, wal_bytes
            if is_insert:
                tree.insert(vec, oid)
                ok = True
            else:
                ok = tree.delete(vec, oid)
            commits += 1
            # Checkpoint time is charged to the write that triggers it.
            if commits % CHECKPOINT_EVERY == 0:
                wal_bytes += tree.wal.size_bytes
                tree.checkpoint()
                checkpoints += 1
            return ok

        out.attempted += 1
        what = f"{'insert' if is_insert else 'delete'} of oid {oid}"
        try:
            ok, dt = loop.timed(apply)
        except Exception as exc:
            out.fail(f"{what} raised {exc!r}")
            return True
        write_lat.append(dt)
        if commits % CHECKPOINT_EVERY == TAIL_COMMITS:
            reopen.append(_time_reopen(lambda: HybridTree.open(path)))
        if not ok:
            out.fail(f"{what}: reported absent")
        elif is_insert:
            live.add(oid)
            inserted.append(oid)
        else:
            live.remove(oid)
        return True

    def query_batch(kind: str) -> None:
        nonlocal queries, reads, busy_q, box_pos, knn_pos
        if kind == "box":
            sel = [(box_pos + j) % INGEST_BOX_POOL for j in range(INGEST_BOX_BATCH)]
            box_pos += INGEST_BOX_BATCH
            args = (tree.range_search_many, [boxes[i] for i in sel], True)
        else:
            sel = [(knn_pos + j) % INGEST_KNN_POOL for j in range(INGEST_KNN_BATCH)]
            knn_pos += INGEST_KNN_BATCH
            args = (lambda c: tree.knn_many(c, K, return_metrics=True), inp["knn_c"][sel])
        r0 = tree.io.random_reads
        try:
            (res, _), dt = loop.timed(*args)
        except Exception as exc:
            out.attempted += len(sel)
            out.fail(f"{kind} batch raised {exc!r}", len(sel))
            return
        reads += tree.io.random_reads - r0
        queries += len(sel)
        busy_q += dt
        query_lat.append(dt)
        # Oracle over the shadow live set, outside the timed region.
        oids = live.live()
        pts = data[oids]
        if kind == "box":
            for i, r in zip(sel, res):
                want = np.sort(oids[gen.points_in_box(pts, inp["lows"][i], inp["highs"][i])])
                _check_box(out, f"box query {i}", r, want)
        else:
            wants = gen.knn_answers(pts, inp["knn_c"][sel], K, oids=oids)
            for i, r, want in zip(sel, res, wants):
                _check_pairs(out, f"knn query {i}", r, want[0], want[1], ordered=True)

    query_batch("box")  # warm the node cache before measuring
    query_batch("knn")
    loop.busy = busy_q = 0.0
    queries = reads = 0
    query_lat.clear()
    measure0 = time.perf_counter_ns()
    exhausted = False
    while loop.more(len(query_lat)) and not exhausted:
        for _ in range(BURST):
            if not write_one():
                exhausted = True
                break
        query_batch(INGEST_QUERY_CYCLE[len(query_lat) % len(INGEST_QUERY_CYCLE)])
        mem.sample()
    while not exhausted and commits % CHECKPOINT_EVERY != TAIL_COMMITS:
        exhausted = not write_one()
    measure1 = time.perf_counter_ns()
    mem.sample(force=True)
    if exhausted:
        print("# note: write sequence exhausted before the run time", file=sys.stderr)

    user_bytes = live.n * dims * 4
    disk_bytes = os.path.getsize(path) + os.path.getsize(wal_path)
    wal_bytes += tree.wal.size_bytes
    wal_commits, wal_syncs = tree.wal.commit_count, tree.wal.sync_count
    retries = tree.nm.retries_performed
    # Abandon the handle: no close(), no checkpoint().  Only what the log
    # made durable may be seen by the reopen below.
    abandoned = tree
    tree = None

    t = time.perf_counter()
    reopened = HybridTree.open(path)
    reopen.append(time.perf_counter() - t)
    _check_durability(out, reopened, live, inserted, data)
    reopened.close()
    abandoned.close()

    writes = len(write_lat)
    _query_metrics(out, query_lat, queries, busy_q)
    out.metrics["ops_s"] = (queries + writes) / loop.busy
    out.metrics["page_reads_per_query"] = reads / queries
    out.metrics["disk_bytes_per_user_byte"] = disk_bytes / user_bytes
    out.metrics["recovery_s"] = float(np.median(reopen))
    out.metrics["setup_s"] = float(np.median(setups))
    out.metrics["peak_rss_mb"] = mem.peak_mb
    write_busy = loop.busy - busy_q
    out.info.update(
        points=INGEST_BASE, dims=dims, live_points=live.n, writes=writes,
        inserts=len(inserted), deletes=writes - len(inserted), checkpoints=checkpoints,
        write_ops_s=writes / write_busy,
        write_p50_ms=percentile(write_lat, 0.5) * 1e3,
        write_p95_ms=percentile(write_lat, 0.95) * 1e3,
        queries=queries,
        fsync_policy="one fsync per commit (single writer)",
        checkpoint_every=CHECKPOINT_EVERY, tail_commits=TAIL_COMMITS,
    )
    out.ctx = {
        "measure": (measure0, measure1), "queries": queries, "busy_s": loop.busy,
        "restarts": 0, "retries": retries, "wal_commits": wal_commits,
        "wal_syncs": wal_syncs, "wal_bytes": wal_bytes, "user_bytes_written": writes * dims * 4,
    }
    return out


def _check_durability(out: Outcome, tree, live: LiveSet, inserted: list[int], data) -> None:
    """Every acknowledged insert is present with its vector, every
    acknowledged delete is gone, and nothing else is there."""
    from repro import Rect

    want = np.sort(live.live())
    out.attempted += 1
    got = np.sort(np.asarray(tree.range_search(Rect(tree.bounds.low, tree.bounds.high))))
    if len(tree) != live.n or not np.array_equal(got, want):
        out.fail(
            f"durability: reopened tree holds {len(got)} oids (len {len(tree)}), "
            f"{live.n} acknowledged live"
        )
    points = [Rect(data[o].astype(np.float64), data[o].astype(np.float64)) for o in inserted]
    hits = tree.range_search_many(points)
    lost = sum(1 for o, h in zip(inserted, hits) if live.pos[o] >= 0 and o not in h)
    out.attempted += len(inserted)
    if lost:
        out.fail(f"durability: {lost} acknowledged inserts not found at their vectors", lost)
