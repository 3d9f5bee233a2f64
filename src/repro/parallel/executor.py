"""The shard executor: per-shard tasks on worker processes.

:class:`ShardExecutor` is the one place the parallel subsystem touches
the OS. It maps a picklable function over per-shard
:class:`~repro.flows.table.FlowTable` payloads, either

* **serially in-process** — for ``workers=1``, on platforms whose
  Python lacks the ``fork`` start method (the spawn path would pay a
  full interpreter boot per pool) or POSIX shared memory, and for any
  fan-out whose segment cannot be staged (``/dev/shm`` pressure; warned
  once, counted in ``repro_ipc_frames_fallback_total``). Tables are
  passed through directly: no codec, no copy, zero overhead over a
  plain loop; or
* on a lazily created :class:`~concurrent.futures.ProcessPoolExecutor`
  (fork context), shipping each shard as a ``(segment, offset, rows)``
  descriptor into a pooled shared-memory segment
  (:mod:`repro.flows.shmem`) — the rows never cross the pipe; workers
  map them in place.

:attr:`ipc_stats` counts the payload bytes that actually went through
the pool's pipe (descriptors only), which is how the e2e benchmark
reports bytes copied per flow.

Segment lifecycle: one pooled segment per executor, recycled between
map calls (refcount-gated via :meth:`~repro.flows.shmem.RowBuffer`),
grown geometrically when a fan-out needs more room, and unlinked on
:meth:`close` — with the shmem module's ``atexit`` backstop covering
SIGINT and worker-crash unwinds, so ``/dev/shm`` never leaks.

The pool is created on first parallel use and reused across calls —
the mining self-tuning loop amortises one startup over all its passes.
Task functions must be module-level (picklable) and receive a
zero-copy view of their shard.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.flows import shmem
from repro.flows.table import FlowTable
from repro.obs import metrics as obs_metrics, trace as obs_trace

__all__ = ["IpcStats", "ShardExecutor"]

logger = logging.getLogger(__name__)

_IPC_TASKS = obs_metrics.counter(
    "repro_ipc_tasks_total",
    "Shard tasks dispatched through the executor.",
)
_FALLBACKS = obs_metrics.counter(
    "repro_ipc_frames_fallback_total",
    "Table fan-outs that ran in the parent's in-process loop because "
    "their rows could not be staged in shared memory (allocation or "
    "write failed, or the platform has none).",
)

#: Smallest pooled segment; grown geometrically as fan-outs demand.
_MIN_SEGMENT_BYTES = 1 << 20

#: Approximate pickled size of one ``RowSlice`` descriptor — what the
#: shm path pushes through the pipe per shard instead of the rows.
_DESCRIPTOR_BYTES = 96


def _worker_init() -> None:
    """Pool-worker initializer: leave interrupts to the parent.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group — workers included. Ignoring it in the workers keeps the
    pool usable while the parent unwinds (e.g. the `repro stream`
    interrupt path triages open alarms through this executor); worker
    lifetime stays under the parent's control via ``shutdown``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_slice_task(
    packed: tuple[Callable[..., Any], shmem.RowSlice, tuple],
) -> Any:
    """Worker-side trampoline: map the slice, call the task.

    The table handed to ``fn`` is a read-only view straight into the
    shared segment — zero row bytes crossed the pool.
    """
    fn, descriptor, extra = packed
    return fn(shmem.attach_slice(descriptor), *extra)


def _run_item_task(packed: tuple[Callable[..., Any], tuple]) -> Any:
    """Worker-side trampoline for non-table tasks (planner scans)."""
    fn, args = packed
    return fn(*args)


def _run_metered_task(
    packed: tuple[Callable[..., Any], Any, tuple[str, str] | None],
) -> tuple[Any, dict, list[tuple]]:
    """Metric- and span-capturing wrapper around any worker trampoline.

    Only used while the parent has obs metrics enabled: installs a
    fresh private registry for the duration of the task so whatever
    the task's code path increments (mining candidates, recount
    passes, ...) lands in a per-task delta, then restores the
    worker's previous registry and ships ``(result, delta, spans)``
    back for :meth:`ShardExecutor._pool_map` to fold into the parent
    registry — the same associative merge the window accumulators
    use, so any worker count and completion order reproduce the
    serial counts.

    ``context`` is the parent's ambient ``(trace_id, span_id)`` at
    dispatch: the task body runs inside an ``exec.task`` child span
    of the dispatching span, and every span it opens (captured into a
    fresh worker-side log — a forked worker inherits the parent's
    history, which must not ship twice) travels back packed for
    :func:`repro.obs.trace.adopt`, keeping worker pid/tid so the
    Chrome trace export lays workers out as their own lanes.
    """
    fn, item, context = packed
    local = obs_metrics.MetricsRegistry()
    previous = obs_metrics.install(local)
    handle = obs_trace.capture(context)
    try:
        with obs_trace.span("exec.task"):
            result = fn(item)
    finally:
        obs_metrics.install(previous)
        shipped = obs_trace.drain(handle)
    return result, local.snapshot(), shipped


@dataclass
class IpcStats:
    """Cumulative accounting of what crossed the worker-pool pipe."""

    #: Tasks dispatched (shards mapped), across all calls.
    tasks: int = 0
    #: Payload bytes actually copied through the pool pipe:
    #: ~:data:`_DESCRIPTOR_BYTES` per staged shard; the in-process
    #: loop pays nothing.
    copied_bytes: int = 0
    #: Payload bytes placed in shared memory instead of the pipe.
    shared_bytes: int = 0

    def copied_per_task(self) -> float:
        """Mean payload bytes copied through the pipe per task."""
        return self.copied_bytes / self.tasks if self.tasks else 0.0


class ShardExecutor:
    """Runs per-shard table tasks, serially or on a process pool."""

    def __init__(
        self,
        workers: int = 1,
        use_processes: bool | None = None,
    ) -> None:
        """``workers`` is the parallelism degree.

        ``use_processes`` overrides the default policy (processes iff
        ``workers > 1`` and ``fork`` is available) — tests force the
        pool path on single-core boxes with ``True``.
        """
        if workers < 1:
            raise ReproError(f"workers must be >= 1: {workers!r}")
        self.workers = workers
        forks = "fork" in multiprocessing.get_all_start_methods()
        if use_processes is None:
            use_processes = workers > 1 and forks
        self._use_processes = use_processes
        self._pool: ProcessPoolExecutor | None = None
        # shm descriptors require fork workers: only a forked worker
        # inherits the parent's resource tracker, keeping segment
        # ownership unambiguous (see repro.flows.shmem._attach).
        self._shm_ok = forks and shmem.shared_memory_available()
        self._segment: shmem.RowBuffer | None = None
        self.ipc_stats = IpcStats()
        self._fallback_warned = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def uses_processes(self) -> bool:
        """True when tasks go to worker processes."""
        return self._use_processes

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
            # ``workers`` is the *sharding* degree (it fixes the task
            # split and therefore the bytes of every result); the pool
            # is capped at the machine's core count. Oversubscribing a
            # small box just makes runnable workers preempt each other
            # — the same shard tasks drain faster through fewer
            # processes, and results are identical by construction.
            self._pool_size = min(self.workers, os.cpu_count() or 1)
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_size,
                mp_context=context,
                initializer=_worker_init,
            )
        return self._pool

    def _pool_map(self, fn, packed) -> list:
        """``pool.map`` with tasks batched one pipe message per worker.

        With fewer processes than tasks (small box, capped pool) the
        default chunksize of 1 pays one queue round trip per task;
        batching keeps result order and shrinks dispatch latency to
        one trip per worker."""
        pool = self._ensure_pool()
        registry = obs_metrics.active()
        if registry is not None:
            # Fold worker-side metric deltas and child spans into the
            # parent alongside the results (counter addition is
            # associative and commutative, so completion order cannot
            # matter; spans carry their own identity and timestamps,
            # so adoption order cannot either).
            context = obs_trace.task_context()
            packed = [(fn, item, context) for item in packed]
            fn = _run_metered_task
        chunksize = max(1, -(-len(packed) // self._pool_size))
        replies = list(pool.map(fn, packed, chunksize=chunksize))
        if registry is None:
            return replies
        results = []
        for result, delta, shipped in replies:
            if delta:
                registry.merge(delta)
            if shipped:
                obs_trace.adopt(shipped)
            results.append(result)
        return results

    def _count_tasks(self, count: int) -> None:
        self.ipc_stats.tasks += count
        if obs_metrics.enabled():
            _IPC_TASKS.inc(count)

    def _note_fallback(self) -> None:
        """Record a fan-out that could not be staged in shared memory.

        Warn once per executor — under sustained ``/dev/shm``
        pressure every fan-out falls back, and one warning plus a
        counter tells the story without flooding the log.
        """
        _FALLBACKS.inc()
        if not self._fallback_warned:
            self._fallback_warned = True
            logger.warning(
                "shared-memory staging failed (likely /dev/shm "
                "pressure); running this fan-out in-process — "
                "throughput only, results are unaffected"
            )
        else:
            logger.debug("shm staging failed again; in-process fan-out")

    def _segment_for(self, needed: int) -> shmem.RowBuffer:
        """The pooled segment, recycled or regrown to hold ``needed``."""
        segment = self._segment
        if segment is not None and not segment.refs \
                and segment.capacity >= needed:
            segment.rewind()
            return segment
        if segment is not None and not segment.refs:
            segment.close()
        capacity = max(needed, _MIN_SEGMENT_BYTES)
        capacity = 1 << (capacity - 1).bit_length()
        self._segment = shmem.RowBuffer(capacity)
        return self._segment

    def close(self) -> None:
        """Shut the worker pool down, unlink the segment (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._segment is not None:
            self._segment.close()
            self._segment = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mapping -----------------------------------------------------------

    def map_tables(
        self,
        fn: Callable[..., Any],
        tables: Sequence[FlowTable],
        extras: Sequence[tuple] | None = None,
    ) -> list[Any]:
        """``[fn(table, *extra) for table, extra in zip(tables, extras)]``.

        ``extras`` supplies per-shard positional arguments (defaults to
        none); results come back in shard order. On the process path
        each table travels as a shared-memory descriptor and ``fn``
        must be a module-level function; the in-process loop passes
        the tables through untouched.
        """
        if extras is None:
            extras = [()] * len(tables)
        if len(extras) != len(tables):
            raise ReproError(
                f"{len(extras)} extras for {len(tables)} shards"
            )
        self._count_tasks(len(tables))
        if self._use_processes:
            staged = self._stage_shm(fn, tables, extras)
            if staged is not None:
                segment, packed = staged
                try:
                    return self._pool_map(_run_slice_task, packed)
                finally:
                    segment.release()
            self._note_fallback()
        # workers=1, and the fallback: hand the caller's tables to the
        # task directly — no copies.
        return [
            fn(table, *extra) for table, extra in zip(tables, extras)
        ]

    def _stage_shm(
        self,
        fn: Callable[..., Any],
        tables: Sequence[FlowTable],
        extras: Sequence[tuple],
    ) -> tuple[shmem.RowBuffer, list[tuple]] | None:
        """Write the shards into the pooled segment; ``None`` on ENOSPC.

        Returns the acquired segment plus the packed descriptor tasks.
        Only segment allocation/write failures (``/dev/shm`` pressure,
        or a platform without fork + shm) fall back — a task function's
        own ``OSError`` must never cause the fan-out to silently re-run
        in-process.
        """
        if not self._shm_ok:
            return None
        try:
            needed = sum(
                shmem.block_bytes(len(table)) for table in tables
            )
            segment = self._segment_for(needed)
        except (OSError, MemoryError):
            return None
        segment.acquire()
        try:
            packed = [
                (fn, segment.write(table), tuple(extra))
                for table, extra in zip(tables, extras)
            ]
        except (OSError, MemoryError):
            segment.release()
            return None
        except BaseException:
            segment.release()
            raise
        stats = self.ipc_stats
        stats.shared_bytes += needed
        stats.copied_bytes += _DESCRIPTOR_BYTES * len(tables)
        return segment, packed

    # Kept only because benchmarks/e2e/spans.py::ENTRY_POINTS names
    # these three as rows the tracer patches in this class's own
    # ``__dict__``; nothing under ``src/`` calls them.

    def map_table_groups(self, fn, groups, extras=None) -> list[Any]:
        tables = [FlowTable.concat(list(group)) for group in groups]
        return self.map_tables(fn, tables, extras)

    def map_masked(self, fn, table, masks, extras=None) -> list[Any]:
        tables = [table.select(mask) for mask in masks]
        return self.map_tables(fn, tables, extras)

    def map_broadcast(self, fn, tables, extras) -> list[Any]:
        return [fn(list(tables), *extra) for extra in extras]

    def map_items(
        self,
        fn: Callable[..., Any],
        items: Sequence[tuple],
    ) -> list[Any]:
        """``[fn(*item) for item in items]`` on the workers.

        For tasks whose payloads are not tables — the archive query
        planner ships ``(path, window, filter)`` tuples and lets each
        worker open the partition mmap directly, so zero rows cross
        the pool inbound.
        """
        self._count_tasks(len(items))
        if not self._use_processes:
            return [fn(*item) for item in items]
        pool = self._ensure_pool()
        return list(
            self._pool_map(_run_item_task, [(fn, tuple(i)) for i in items])
        )
