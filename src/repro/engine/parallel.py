"""Multi-worker parallel execution of batch queries over any index.

The shared-traversal kernel (:mod:`repro.engine.kernel`) already amortises
page fetches across a batch; this module parallelises across *workers*.  A
query batch is split into ``workers`` contiguous partitions
(``np.array_split`` order), each worker runs the index's own batch methods
(``range_search_many`` / ``distance_range_many`` / ``knn_many``) over its
partition against its **own** read handle, and the partition outputs are
concatenated back — so the merged result list is positionally identical to
the serial call.

Worker isolation is what makes this safe without locks: nothing in the
query path is shared between workers except immutable data.

The ``source`` can be either of:

- a **saved hybrid-tree file** (``str`` / ``PathLike``): every worker opens
  its own :meth:`HybridTree.open` handle;
- a **live index object** (the hybrid tree or any baseline exposing the
  batch-query API): every worker gets a shallow *query view* of the index —
  same pages and nodes, but its own copy of the node cache and a private
  :class:`IOStats` so the per-worker charges can be merged honestly.
  Views never write and never touch the source's cache, so thread-mode
  sharing is safe; process modes are rejected for live indexes
  because a view cannot be shipped to another process without copying the
  whole structure.

One supervisor drives two kinds of worker.  Both run the same task loop
(:func:`_serve`): take a call-id-tagged partition from a private task
queue, answer it on the worker's own handle, reply with the answer (or
the exception).

- ``mode="thread"``: each worker is a daemon thread owning its handle or
  view (private :class:`IOStats`), closed when the thread exits.  Python
  threads interleave under the GIL, but the numpy predicate kernels
  release it, so scans overlap on multicore hosts.
- ``mode="fork"`` / ``"spawn"`` (saved-file sources only): each worker is
  a process reopening the tree in its main loop.  With ``mmap=True`` (the
  default) every worker maps the same file, so the OS page cache holds
  **one** copy of the data no matter how many workers run — resident
  memory does not multiply.

The two kinds differ only inside the worker classes: a thread worker gets
the call's shared :class:`~repro.resilience.Deadline` (with its
:class:`~repro.resilience.CancelToken`), a process worker the remaining
seconds; thread workers reply on one in-process queue, each process
worker on its own pipe (so a process killed mid-reply can corrupt nothing
but the pipe discarded with it); a thread "dies" when a
:class:`SimulatedWorkerDeath` ends its loop, a process when it exits; and
reclaiming a worker terminates a process, but cancels a thread's call and
abandons the thread.

Supervision (the runtime failure story; see INTERNALS "Failure
semantics"):

- every batch call takes ``timeout=`` / ``on_timeout=``.  The deadline is
  shipped to every partition, so in-worker kernels cut themselves off
  cooperatively.  A worker that blows through the deadline anyway (a
  wedged process, a non-cooperative stall) is caught by the parent's
  wall-clock guard after a short grace period and reclaimed.
- a worker found dead is respawned and its partition retried up to
  ``worker_restarts`` times; exhaustion surfaces as a typed
  :class:`~repro.resilience.WorkerCrashError` naming the partition.
  Results are tagged with a per-call id, so stragglers from an abandoned
  call can never be mistaken for current answers.
- the first failing partition reclaims its siblings and propagates with
  the partition label attached (``exc.partition``) — no leaked workers, no
  swallowed sibling exceptions.
- every reclaimed worker is **replaced, not reused**: a fresh worker with
  a fresh handle takes its partition slot.  An abandoned thread finishes
  its current task on its own handle — its late answer carries a stale
  call id and its page charges never reach a later call — then exits and
  closes that handle.
- ``on_timeout="partial"``: finished partitions come back complete,
  interrupted ones contribute whatever they salvaged, and the merged
  :class:`~repro.resilience.PartialResult` carries an exact per-partition
  completion mask.
- an optional :class:`~repro.resilience.QueryAdmissionController` bounds
  in-flight batches before any partitioning happens.
- :meth:`close` is idempotent, and crash-safe: every worker gets a bounded
  join (process workers are then terminated, then killed, if wedged), and
  thread workers close their handles and snapshot-view pins as they exit.

Chaos hooks: :meth:`inject_faults` arms one-shot
:class:`~repro.storage.faults.WorkerFault` plans (hang / die / raise) that
ride inside partition payloads — the chaos test matrix drives every
supervision path through them.

Determinism contract (tested in ``tests/test_mmap_parallel.py``):

- results of ``range_search_many`` / ``distance_range_many`` /
  ``knn_many`` are **bit-identical** to the serial batch call (and hence to
  the single-query loop) for every worker count and mode — including after
  a crashed partition is retried on a respawned worker;
- per-query node-visit counts are partition-independent for range and
  distance queries (the alive-set predicates are evaluated row-wise);
  for k-NN they are not — the shared traversal orders children by the best
  bound *over the alive set*, so a query's visit attribution depends on
  its batch companions (the same caveat the serial batch engine documents
  versus the single-query loop);
- ``charged_reads`` is the sum over workers.  It exceeds the serial batch
  figure because every worker re-reads the directory levels for itself:
  parallelism buys wall time with duplicated (cheap, cached) page reads,
  and the accounting reports that honestly rather than pretending the
  batch sharing still spans partitions.  A partition abandoned to a hang
  or a crash contributes zero visits — the parent has no trustworthy
  numbers for work it discarded, and refuses to invent them.

The merged :class:`BatchMetrics` attributes the *whole-call* wall time
(including partition/merge overhead) over the concatenated visit counts,
exactly as the serial engine attributes its own wall time.
"""

from __future__ import annotations

import copy
import multiprocessing
import multiprocessing.connection as mp_connection
import os
import queue as queue_mod
import threading
import time

import numpy as np

from repro.distances import L2, Metric
from repro.engine.kernel import _as_query_matrix, check_on_timeout
from repro.engine.metrics import BatchMetrics
from repro.resilience import (
    CancelToken,
    Deadline,
    PartialResult,
    QueryAdmissionController,
    QueryTimeoutError,
    WorkerCrashError,
)
from repro.storage.faults import SimulatedWorkerDeath, WorkerFault, apply_worker_fault
from repro.storage.iostats import IOStats

__all__ = ["ParallelQueryEngine", "WORKER_MODES"]

WORKER_MODES = ("thread", "fork", "spawn")

# How long past the deadline the parent waits for a worker to cut itself
# off cooperatively before declaring it wedged and reclaiming it.
_PARTITION_GRACE = 0.25

# Poll tick for the supervision loop: reply waits and liveness checks run
# at this cadence.
_TICK = 0.02


def _open_worker_tree(path: str, mmap: bool):
    from repro.core.hybridtree import HybridTree

    return HybridTree.open(path, mmap=mmap)


def _index_view(index):
    """A read-only query view of a live index for one worker thread.

    Shallow copy sharing the pages, with a private accountant
    (`IOStats`) so each worker's charges merge cleanly.  Paged structures
    route all I/O through ``index.nm`` (and expose ``io`` as a property of
    it), so the view gets :meth:`NodeManager.read_only_view`, which never
    touches the source's cache; scan structures (seqscan, VA-file) hold
    ``io`` directly.

    A WAL-enabled hybrid tree (``open(..., wal=True)``) gets a *pinned
    snapshot view* instead (:meth:`HybridTree.snapshot_view`): the worker
    keeps answering from the committed state at the time it was created
    (engine construction, or its respawn after a death or a reclaim),
    bit-identically, even while a writer thread mutates the source tree
    underneath.  The worker owns these views and closes (unpins) them.
    """
    if getattr(index, "wal", None) is not None and hasattr(index, "snapshot_view"):
        return index.snapshot_view()
    view = copy.copy(index)
    nm = getattr(index, "nm", None)
    if nm is not None:
        view.nm = nm.read_only_view()
    else:
        view.io = IOStats()
    return view


def _close_view(tree, owned: bool) -> None:
    """Close a worker handle/view if (and only if) the engine owns it."""
    if owned:
        tree.close()
        return
    # Live-index views share the source's store: never close it.  Pinned
    # snapshot views are the exception — closing them releases the page
    # versions the pin kept alive without touching the shared store.
    from repro.storage.pagestore import SnapshotPageStore

    store = getattr(getattr(tree, "nm", None), "store", None)
    if isinstance(store, SnapshotPageStore):
        tree.close()


def _payload_n(kind: str, payload: dict) -> int:
    """How many queries a partition payload carries."""
    return len(payload["queries" if kind == "range" else "centers"])


def _run_partition(
    tree,
    kind: str,
    payload: dict,
    deadline=None,
    on_timeout: str = "raise",
    fault: WorkerFault | None = None,
    in_process: bool = False,
):
    """Run one partition through ``tree``'s own batch-query methods.

    Returns ``(results, visits, charged_reads, io_delta, completed)`` —
    everything the parent needs to merge, all picklable for the process
    modes.  ``completed`` is the per-query completion mask (all-True
    unless the partition timed out under ``on_timeout="partial"``).
    """
    if fault is not None:
        apply_worker_fault(fault, deadline, in_process)
    io = tree.io
    before = (
        io.random_reads,
        io.random_writes,
        io.sequential_reads,
        io.sequential_writes,
    )
    if kind == "range":
        results, metrics = tree.range_search_many(
            payload["queries"], True, deadline, on_timeout
        )
    elif kind == "distance":
        results, metrics = tree.distance_range_many(
            payload["centers"], payload["radii"], payload["metric"], True,
            deadline, on_timeout,
        )
    elif kind == "knn":
        results, metrics = tree.knn_many(
            payload["centers"],
            payload["k"],
            payload["metric"],
            payload["approximation_factor"],
            True,
            deadline,
            on_timeout,
        )
    else:  # pragma: no cover - internal dispatch
        raise ValueError(f"unknown query kind {kind!r}")
    delta = (
        io.random_reads - before[0],
        io.random_writes - before[1],
        io.sequential_reads - before[2],
        io.sequential_writes - before[3],
    )
    if isinstance(results, PartialResult):
        completed = np.asarray(results.completed, dtype=bool)
        results = list(results.results)
    else:
        completed = np.ones(len(results), dtype=bool)
    visits = np.asarray(metrics.pages, dtype=np.int64)
    return results, visits, metrics.charged_reads, delta, completed


def _serve(tree, task_q, reply, in_process: bool) -> None:
    """The task loop every worker runs on its own handle.

    Answers ``(call_id, partition, kind, payload, deadline, on_timeout,
    fault)`` tasks until it receives ``None``; a process worker receives
    the deadline as remaining seconds and rebuilds it.  Every answer goes
    to ``reply`` tagged with the call id, so the parent can discard
    stragglers from abandoned calls.  Failures are shipped back as
    exception objects; only a death (an injected ``os._exit`` in a
    process, a :class:`SimulatedWorkerDeath` ending a thread's loop)
    leaves the parent without an answer, which is exactly the condition
    its liveness check exists for.
    """
    while True:
        msg = task_q.get()
        if msg is None:
            return
        call_id, part_idx, kind, payload, deadline, on_timeout, fault = msg
        try:
            if in_process and deadline is not None:
                deadline = Deadline(deadline)
            out = _run_partition(
                tree, kind, payload, deadline, on_timeout, fault, in_process
            )
            reply((call_id, part_idx, True, out))
        except SimulatedWorkerDeath:
            raise
        except BaseException as exc:  # noqa: BLE001 - transported to parent
            try:
                reply((call_id, part_idx, False, exc))
            except Exception:
                reply((call_id, part_idx, False, RuntimeError(repr(exc))))


def _supervised_worker_main(path: str, mmap: bool, task_q, reply_end) -> None:
    """Main of a worker process: open a handle once (caches stay warm
    across batches), then serve tasks."""
    _serve(_open_worker_tree(path, mmap), task_q, reply_end.send, in_process=True)


class _ThreadWorker:
    """One supervised worker thread owning its handle or view.

    Thread workers post their replies to the engine's in-process queue.
    """

    __slots__ = ("thread", "task_q", "replies", "token")

    def __init__(self, engine: "ParallelQueryEngine"):
        if engine._owns_trees:
            tree = _open_worker_tree(engine.path, engine.mmap)
        else:
            tree = _index_view(engine._source)
        self.replies = engine._replies
        self.task_q = queue_mod.Queue()
        self.token: CancelToken | None = None
        self.thread = threading.Thread(
            target=self._main, args=(tree, engine._owns_trees),
            name="repro-query", daemon=True,
        )
        self.thread.start()

    def _main(self, tree, owned: bool) -> None:
        try:
            _serve(tree, self.task_q, self.replies.put, in_process=False)
        except SimulatedWorkerDeath:
            pass  # the thread's end is the death the supervisor observes
        finally:
            _close_view(tree, owned)

    @staticmethod
    def next_reply(workers, timeout: float):
        """The next reply any thread worker posted, or None."""
        try:
            return workers[0].replies.get(timeout=timeout)
        except queue_mod.Empty:
            return None

    def send(self, call_id, part_idx, kind, payload, deadline, on_timeout, fault):
        self.token = deadline.token if deadline is not None else None
        self.task_q.put(
            (call_id, part_idx, kind, payload, deadline, on_timeout, fault)
        )

    def alive(self) -> bool:
        return self.thread.is_alive()

    def reclaim(self) -> None:
        """Cancel the current call and abandon the thread: it exits after
        its current task, whose answer carries a stale call id."""
        if self.token is not None:
            self.token.cancel("partition reclaimed by the supervisor")
        self.task_q.put(None)

    def stop(self) -> None:
        self.task_q.put(None)
        self.thread.join(timeout=1.0)


class _ProcWorker:
    """One supervised worker process with a private task queue and a
    private reply pipe.

    Nothing is shared between processes: a worker killed mid-reply can
    only corrupt its own pipe, which is discarded with it (a queue shared
    by all workers would keep a dead writer's lock held forever).
    """

    __slots__ = ("proc", "task_q", "replies")

    def __init__(self, engine: "ParallelQueryEngine"):
        ctx = engine._ctx
        self.task_q = ctx.Queue()
        self.replies, reply_end = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_supervised_worker_main,
            args=(engine.path, engine.mmap, self.task_q, reply_end),
            daemon=True,
        )
        self.proc.start()
        reply_end.close()  # the child holds its own copy

    @staticmethod
    def next_reply(workers, timeout: float):
        """The next reply any of ``workers`` sent, or None."""
        ready = mp_connection.wait([w.replies for w in workers], timeout)
        for worker in workers:
            if worker.replies in ready:
                try:
                    return worker.replies.recv()
                except (EOFError, OSError):
                    # Exited before (or while) replying: let it finish
                    # dying so the liveness check sees it.
                    worker.proc.join(timeout)
        return None

    def send(self, call_id, part_idx, kind, payload, deadline, on_timeout, fault):
        remaining = None
        if deadline is not None and deadline.timeout is not None:
            remaining = deadline.remaining()
        self.task_q.put(
            (call_id, part_idx, kind, payload, remaining, on_timeout, fault)
        )

    def alive(self) -> bool:
        return self.proc.is_alive()

    def reclaim(self) -> None:
        """Terminate (then kill) the process and release its channels."""
        try:
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=1.0)
            if self.proc.is_alive():  # pragma: no cover - last resort
                self.proc.kill()
                self.proc.join(timeout=1.0)
        finally:
            self.task_q.close()
            self.replies.close()
            # Release the process object's pipes/sentinel eagerly.
            if not self.proc.is_alive():
                self.proc.close()

    def stop(self) -> None:
        """Bounded shutdown: ask politely, then reclaim."""
        if self.proc.is_alive():
            self.task_q.put(None)
            self.proc.join(timeout=1.0)
        self.reclaim()


def _annotate(exc: BaseException, label: str) -> BaseException:
    """Attach the partition label to a propagating worker error."""
    if getattr(exc, "partition", None) is None:
        try:
            exc.partition = label
        except Exception:  # pragma: no cover - exotic exception slots
            pass
    return exc


class ParallelQueryEngine:
    """Partition query batches across ``workers`` read handles on an index.

    Parameters
    ----------
    source:
        Either a tree file produced by :meth:`HybridTree.save` (every
        worker opens its own handle; ``QuerySession(workers=...)`` wires
        one up from ``tree.source_path``), or a **live index object** —
        the hybrid tree or any baseline exposing the batch-query API —
        in which case every worker queries a read-only view of it
        (thread mode only).
    workers:
        Number of partitions / concurrent handles (>= 1).
    mode:
        ``"thread"`` (default), ``"fork"`` or ``"spawn"`` — see the module
        docstring.  ``"fork"`` is unavailable on platforms without it;
        only ``"thread"`` works with a live index source.
    mmap:
        Reopen handles with ``HybridTree.open(mmap=True)`` (zero-copy
        reads, one shared OS page-cache copy).  Default True; the file
        pays one fsck per handle at open.  Ignored for live sources.
    stats:
        Merged accountant; every worker's I/O delta is added to it after
        each call, so ``engine.io`` totals match what the workers charged.
    admission:
        Optional :class:`~repro.resilience.QueryAdmissionController`; each
        batch call reserves capacity before partitioning and releases it
        on every exit path.
    worker_restarts:
        How many times a partition lost to a dead worker is retried on a
        respawned worker before :class:`WorkerCrashError` (a thread worker
        dies by a simulated death).
    """

    def __init__(
        self,
        source,
        workers: int = 2,
        mode: str = "thread",
        mmap: bool = True,
        stats: IOStats | None = None,
        admission: QueryAdmissionController | None = None,
        worker_restarts: int = 2,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in WORKER_MODES:
            raise ValueError(f"mode must be one of {WORKER_MODES}")
        if mode != "thread" and mode not in multiprocessing.get_all_start_methods():
            raise ValueError(f"start method {mode!r} unavailable on this platform")
        if worker_restarts < 0:
            raise ValueError("worker_restarts must be >= 0")
        self.workers = workers
        self.mode = mode
        self.mmap = mmap
        self.io = stats if stats is not None else IOStats()
        self.admission = admission
        self.worker_restarts = worker_restarts
        self.restarts_performed = 0
        self._closed = False
        self._pending_faults: dict[int, WorkerFault] = {}
        self._call_counter = 0
        self._source = None
        if isinstance(source, (str, os.PathLike)):
            from repro.storage import superblock as superblock_io

            self.path = os.fspath(source)
            self._owns_trees = True
            manifest, _ = superblock_io.read_superblock(self.path)
            self.dims = int(manifest["dims"])
        else:
            if mode != "thread":
                raise ValueError(
                    "a live index can only be parallelised with mode='thread'; "
                    "process workers need a saved tree file to reopen"
                )
            self.path = None
            self._owns_trees = False
            self._source = source
            self.dims = int(source.dims)
        if mode == "thread":
            self._kind = _ThreadWorker
            self._replies = queue_mod.Queue()  # shared by all thread workers
        else:
            self._kind = _ProcWorker
            self._ctx = multiprocessing.get_context(mode)
        self._workers: list = []
        try:
            for _ in range(workers):
                self._workers.append(self._kind(self))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def inject_faults(self, faults) -> None:
        """Arm one-shot :class:`WorkerFault` plans for the *next* batch call.

        ``faults`` maps partition index → fault (or is a sequence aligned
        with partition order; ``None`` entries mean no fault).  The plans
        ride inside the partition payloads, so they exercise the real
        supervision paths — in-worker timeouts, parent-side hang
        reclamation, death/respawn/retry — rather than test-only seams.
        """
        if not isinstance(faults, dict):
            faults = {
                i: f for i, f in enumerate(faults) if f is not None
            }
        for fault in faults.values():
            if not isinstance(fault, WorkerFault):
                raise TypeError("faults must be WorkerFault instances")
        self._pending_faults = dict(faults)

    def _take_faults(self) -> dict[int, WorkerFault]:
        faults, self._pending_faults = self._pending_faults, {}
        return faults

    # ------------------------------------------------------------------
    # Worker lifecycle helpers
    # ------------------------------------------------------------------
    def _respawn(self, i: int, reclaim: bool) -> None:
        """Replace worker ``i`` — reclaimed if it is still running, reaped
        if it already died.  A fresh task queue comes with the fresh
        worker, so a task the old one never consumed cannot be replayed
        by its successor."""
        worker = self._workers[i]
        if reclaim:
            worker.reclaim()
        else:
            worker.stop()
        self._workers[i] = self._kind(self)
        self.restarts_performed += 1

    # ------------------------------------------------------------------
    # Dispatch / merge
    # ------------------------------------------------------------------
    def _label(self, kind: str, i: int, total: int) -> str:
        return f"{kind} partition {i + 1}/{total}"

    def _supervise(self, tasks, deadline, on_timeout):
        """Run one call's partitions on the workers and collect the answers.

        Returns ``(outs, timeout_err)``: ``outs[i]`` is the partition
        tuple or ``None`` for a partition given up to the deadline;
        ``timeout_err`` is the error explaining any ``None``.  Liveness is
        polled on every tick without a reply: a dead worker is
        respawned and its partition retried within the restart budget; a
        worker still running past deadline + grace is reclaimed and —
        under ``"partial"`` — its partition reported incomplete.  The
        first failing partition reclaims its siblings and propagates
        annotated.
        """
        total = len(tasks)
        self._call_counter += 1
        call_id = self._call_counter
        outs = [None] * total
        attempts = [1] * total
        timeout_err: QueryTimeoutError | None = None

        def send(i):
            if not self._workers[i].alive():
                # Died while idle (or failed to initialise): give the
                # partition a live worker before dispatching to it.
                self._respawn(i, reclaim=False)
            kind, payload, fault = tasks[i]
            self._workers[i].send(
                call_id, i, kind, payload, deadline, on_timeout, fault
            )

        for i in range(total):
            send(i)
        pending = set(range(total))
        abandon_at = None
        if deadline is not None and deadline.timeout is not None:
            abandon_at = deadline.expires_at + _PARTITION_GRACE

        def fail_siblings(exc):
            """First-error propagation: reclaim every sibling partition's
            worker (its in-flight work is discarded) and raise."""
            for j in pending:
                self._respawn(j, reclaim=True)
            pending.clear()
            raise exc

        while pending:
            msg = self._kind.next_reply([self._workers[i] for i in pending], _TICK)
            if msg is not None:
                msg_call, i, ok, val = msg
                if msg_call != call_id or i not in pending:
                    continue  # straggler from an abandoned call
                kind, payload, fault = tasks[i]
                pending.discard(i)
                if ok:
                    outs[i] = val
                elif isinstance(val, QueryTimeoutError) and on_timeout == "partial":
                    timeout_err = timeout_err or val
                else:
                    fail_siblings(_annotate(val, self._label(kind, i, total)))
                continue
            # No result this tick: check for dead workers ...
            for i in sorted(pending):
                if self._workers[i].alive():
                    continue
                kind, payload, fault = tasks[i]
                self._respawn(i, reclaim=False)
                if attempts[i] > self.worker_restarts:
                    pending.discard(i)
                    label = self._label(kind, i, total)
                    fail_siblings(
                        _annotate(
                            WorkerCrashError(
                                f"worker for {label} died {attempts[i]} times; "
                                "retry budget exhausted",
                                partition=label,
                                attempts=attempts[i],
                            ),
                            label,
                        )
                    )
                attempts[i] += 1
                if fault is not None and not fault.sticky:
                    tasks[i] = (kind, payload, None)
                send(i)
            # ... and for wedged ones past the wall-clock guard.
            if abandon_at is not None and pending and time.perf_counter() > abandon_at:
                timeout_err = timeout_err or QueryTimeoutError(
                    f"deadline of {deadline.timeout:.6g}s exceeded; "
                    f"{len(pending)} partition(s) reclaimed past the "
                    f"{_PARTITION_GRACE:.2g}s grace period",
                    timeout=deadline.timeout,
                    elapsed=deadline.elapsed(),
                )
                for i in list(pending):
                    self._respawn(i, reclaim=True)
                pending.clear()
        if timeout_err is not None and on_timeout != "partial":
            raise timeout_err
        return outs, timeout_err

    def _run(
        self, kind: str, n: int, payloads, label: str, return_metrics: bool,
        timeout, on_timeout: str,
    ):
        if self._closed:
            raise RuntimeError("engine is closed")
        check_on_timeout(on_timeout)
        start = time.perf_counter()
        token = CancelToken()
        deadline = Deadline.coerce(timeout, token)
        faults = self._take_faults()
        ticket = (
            self.admission.admit(n, self.dims)
            if self.admission is not None
            else None
        )
        try:
            if n == 0:
                outs, timeout_err = [], None
            else:
                tasks = [
                    (kind, payload, faults.get(i))
                    for i, payload in enumerate(payloads)
                ]
                outs, timeout_err = self._supervise(tasks, deadline, on_timeout)
        finally:
            if ticket is not None:
                ticket.release()
        results: list = []
        completed_parts: list[np.ndarray] = []
        visit_parts: list[np.ndarray] = []
        charged = 0
        for i, part in enumerate(outs):
            if part is None:
                # Abandoned/terminated partition: placeholders, honest
                # all-incomplete mask, zero visits (the worker's numbers
                # died with it).
                pn = _payload_n(kind, payloads[i])
                results.extend([] for _ in range(pn))
                completed_parts.append(np.zeros(pn, dtype=bool))
                visit_parts.append(np.zeros(pn, dtype=np.int64))
                continue
            res, vis, chg, delta, comp = part
            results.extend(res)
            visit_parts.append(np.asarray(vis, dtype=np.int64))
            completed_parts.append(np.asarray(comp, dtype=bool))
            charged += chg
            dr, dw, sr, sw = delta
            self.io.random_reads += dr
            self.io.random_writes += dw
            self.io.sequential_reads += sr
            self.io.sequential_writes += sw
        visits = (
            np.concatenate(visit_parts) if visit_parts else np.empty(0, dtype=np.int64)
        )
        completed = (
            np.concatenate(completed_parts)
            if completed_parts
            else np.ones(0, dtype=bool)
        )
        if timeout_err is not None or not completed.all():
            err = timeout_err or QueryTimeoutError(
                "partition(s) interrupted by the deadline",
                timeout=deadline.timeout if deadline is not None else None,
            )
            results = PartialResult(results, completed, err)
        if not return_metrics:
            return results
        metrics = BatchMetrics.from_batch_run(
            label=label,
            node_visits=visits,
            charged_reads=charged,
            wall_seconds=time.perf_counter() - start,
        )
        return results, metrics

    def _partitions(self, n: int) -> list[np.ndarray]:
        """Contiguous index partitions: concatenation restores input order."""
        parts = min(self.workers, n) if n else 0
        return [p for p in np.array_split(np.arange(n), parts)] if parts else []

    # ------------------------------------------------------------------
    # The batch query API (mirrors the index batch-method signatures)
    # ------------------------------------------------------------------
    def range_search_many(
        self, queries, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        queries = list(queries)
        for q in queries:
            if q.dims != self.dims:
                raise ValueError("query dimensionality mismatch")
        payloads = [
            {"queries": [queries[i] for i in part]}
            for part in self._partitions(len(queries))
        ]
        return self._run(
            "range",
            len(queries),
            payloads,
            f"range-batch[{self.workers}x{self.mode}]",
            return_metrics,
            timeout,
            on_timeout,
        )

    def distance_range_many(
        self, centers, radii, metric: Metric = L2, return_metrics: bool = False,
        timeout=None, on_timeout: str = "raise",
    ):
        qs = _as_query_matrix(centers, self.dims)
        n = qs.shape[0]
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n,))
        if np.any(radii < 0):
            raise ValueError("radius must be non-negative")
        payloads = [
            {"centers": qs[part], "radii": radii[part], "metric": metric}
            for part in self._partitions(n)
        ]
        return self._run(
            "distance",
            n,
            payloads,
            f"distance-batch[{self.workers}x{self.mode}]",
            return_metrics,
            timeout,
            on_timeout,
        )

    def knn_many(
        self,
        centers,
        k: int,
        metric: Metric = L2,
        approximation_factor: float = 0.0,
        return_metrics: bool = False,
        timeout=None,
        on_timeout: str = "raise",
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if approximation_factor < 0:
            raise ValueError("approximation_factor must be >= 0")
        qs = _as_query_matrix(centers, self.dims)
        payloads = [
            {
                "centers": qs[part],
                "k": k,
                "metric": metric,
                "approximation_factor": approximation_factor,
            }
            for part in self._partitions(qs.shape[0])
        ]
        return self._run(
            "knn",
            qs.shape[0],
            payloads,
            f"knn-batch[{self.workers}x{self.mode}]",
            return_metrics,
            timeout,
            on_timeout,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the engine down; safe to call twice, safe after crashes.

        Every worker is asked to stop with a bounded join: a thread worker
        closes its handle / pinned snapshot view as it exits, a process
        worker still running after the join is terminated — a wedged pool
        can never hang ``close()``.  Workers abandoned earlier exit on
        their own after their current task.
        """
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ParallelQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
