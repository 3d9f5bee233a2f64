"""The UDP listener daemon and its ``SourceSpec(kind="udp")`` adapter.

:class:`FlowCollector` is the first mile of a live deployment: routers
export NetFlow v5/v9/IPFIX datagrams at a loopback-default host/port,
and one dedicated listener process parses them
(:mod:`repro.collector.decode`), tracks per-exporter sequence/loss
state (:mod:`repro.collector.exporters`) and stages their records for
one decode per :class:`~repro.flows.table.FlowTable` chunk
(:mod:`repro.collector.batcher`). Decoded chunks cross to the stream
engine's process over a pipe.

Backpressure contract — the socket is never stalled:

* the listener keeps the kernel buffer drained even while the engine
  is busy sealing windows, and it does so in its own process: socket,
  decode and batching never hold the engine's interpreter lock. It
  takes up to 512 datagrams per wake-up, one ``recvfrom`` each, and
  writes chunks to the pipe without blocking, so one event loop
  serves both. Each pass of that loop sleeps until a socket or pipe
  event or its earliest deadline: the open batch's age flush
  (:attr:`~repro.collector.batcher.ChunkBatcher.deadline`), the
  once-a-second housekeeping pass, the ``idle_seconds`` stop. While
  the open batch will age-flush anyway the socket rests out of the
  wait, as long as its buffer allows (:meth:`FlowCollector._serve`);
* at most ``queue_chunks`` decoded chunks wait for the engine. Past
  that, *newly arrived datagrams are dropped and counted*
  (``repro_collector_datagrams_dropped_total``) before any decode
  work is spent on them, and a flushed batch drops its rows with a
  count rather than block;
* kernel-level loss (socket buffer overflow) shows up in the
  per-exporter sequence accounting, so the drop story is honest end
  to end: counted at the queue, inferred at the wire.

The counters live in one shared anonymous mapping that both processes
read and the listener writes as it counts, so they are live in the
engine's process (``/status``, the ``repro_collector_*`` families it
mirrors them into) and survive the listener's death; so does the
listener's CPU time. Every chunk carries the arrival time of its first
row, and the engine's process observes each batch's age as it takes it.

Determinism caveat: UDP arrival order is not replayable — two runs of
the same capture may interleave exporters differently. All
determinism claims therefore live at the *window* level, where the
:class:`~repro.stream.window.WindowRing` routes rows by timestamp
(see ARCHITECTURE.md "Collector contract").
"""

from __future__ import annotations

import fcntl
import gc
import json
import logging
import math
import mmap
import os
import select
import signal
import socket
import struct
import sys
import threading
import time
import traceback
import weakref
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.collector.batcher import MAX_BATCH_SECONDS, ChunkBatcher
from repro.collector.decode import decode_datagram, parse_header
from repro.collector.exporters import ExporterTable
from repro.errors import CodecError, CollectorError, SpecError
from repro.flows.table import FLOW_DTYPE, FlowTable
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics

__all__ = [
    "FlowCollector",
    "UdpSource",
    "read_recorded_datagrams",
    "send_datagrams",
]

logger = logging.getLogger(__name__)

# Declared at import so /metrics renders HELP/TYPE and zero-samples
# for every collector series even before the first datagram arrives.
_DATAGRAMS = obs_metrics.counter(
    "repro_collector_datagrams_total",
    "Datagrams received by the UDP collector",
)
_FLOWS = obs_metrics.counter(
    "repro_collector_flows_total",
    "Flow rows decoded from collector datagrams",
)
_MALFORMED = obs_metrics.counter(
    "repro_collector_malformed_total",
    "Undecodable datagrams plus truncated/invalid records",
)
_DGRAM_DROPPED = obs_metrics.counter(
    "repro_collector_datagrams_dropped_total",
    "Datagrams dropped because the chunk queue was full",
)
_FLOW_DROPPED = obs_metrics.counter(
    "repro_collector_flows_dropped_total",
    "Decoded flow rows dropped at flush on a full chunk queue",
)
_SEQ_LOST = obs_metrics.counter(
    "repro_collector_sequence_lost_total",
    "Flows/packets lost upstream, inferred from sequence gaps",
)
_TMPL_MISS = obs_metrics.counter(
    "repro_collector_template_miss_total",
    "Data sets buffered because their template had not arrived",
)
_TMPL_DROPPED = obs_metrics.counter(
    "repro_collector_template_dropped_total",
    "Buffered data sets dropped by bound or expiry sweep",
)
_EXPORTERS = obs_metrics.gauge(
    "repro_collector_exporters",
    "Exporter streams (address+domain) currently tracked",
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "repro_collector_queue_depth",
    "Flow-table chunks waiting in the collector queue",
)
_TIME_CLAMPED = obs_metrics.counter(
    "repro_collector_time_clamped_total",
    "Flow rows whose end preceded their start on the wire (sysUptime "
    "wrap), kept with zero duration",
)
_CPU = obs_metrics.counter(
    "repro_collector_cpu_seconds_total",
    "CPU seconds spent by the listener process",
)
_WAKEUPS = obs_metrics.counter(
    "repro_collector_wakeups_total",
    "Wake-ups of the listener process's event loop",
)
_BATCH_AGE = obs_metrics.histogram(
    "repro_collector_batch_age_seconds",
    "Seconds from a chunk's first row reaching the listener to the "
    "engine taking the chunk",
)

#: Slots of the shared counter block, one int64 each. The counters,
#: ``cpu_ns`` (``time.process_time_ns()`` at each housekeeping pass and
#: at exit) and ``wakeups`` (one per return of the event loop's wait)
#: are written by the listener process; ``taken`` by the engine's.
_SLOTS = (
    "datagrams", "flows", "malformed", "datagrams_dropped",
    "flows_dropped", "sequence_lost", "template_misses",
    "template_drops", "time_clamped", "exporters", "cpu_ns",
    "wakeups", "enqueued", "taken",
)
_SLOT_CLAMPED = _SLOTS.index("time_clamped")
_SLOT_EXPORTERS = _SLOTS.index("exporters")
_SLOT_CPU = _SLOTS.index("cpu_ns")
_SLOT_WAKEUPS = _SLOTS.index("wakeups")
_SLOT_ENQUEUED = _SLOTS.index("enqueued")
_SLOT_TAKEN = _SLOTS.index("taken")
#: The ``repro_collector_*`` counter each slot is mirrored into.
_MIRRORED = (
    (_SLOTS.index("datagrams"), _DATAGRAMS),
    (_SLOTS.index("flows"), _FLOWS),
    (_SLOTS.index("malformed"), _MALFORMED),
    (_SLOTS.index("datagrams_dropped"), _DGRAM_DROPPED),
    (_SLOTS.index("flows_dropped"), _FLOW_DROPPED),
    (_SLOTS.index("sequence_lost"), _SEQ_LOST),
    (_SLOTS.index("template_misses"), _TMPL_MISS),
    (_SLOTS.index("template_drops"), _TMPL_DROPPED),
    (_SLOT_CLAMPED, _TIME_CLAMPED),
    (_SLOT_WAKEUPS, _WAKEUPS),
)

#: One message on the chunk pipe: (size, kind, oldest). A chunk is
#: ``size`` ``FLOW_DTYPE`` rows, ``kind`` indexes its flush reason and
#: ``oldest`` is the ``time.monotonic()`` (one clock system-wide) its
#: first row arrived at; a snapshot is ``size`` bytes of JSON.
_HEADER = struct.Struct("<qqd")
_REASONS = ("size", "age", "final")
_SNAPSHOT = -1
#: Bytes the chunk pipe buffers where the kernel lets it be resized.
_PIPE_BYTES = 1 << 20
#: Buffers per ``writev`` call (well below any ``IOV_MAX``).
_WRITEV_MAX = 64
#: How long the engine waits for a chunk before it refreshes the
#: mirrored metrics anyway, and how long ``close()`` waits for the
#: listener process to finish before it kills it.
_MIRROR_SECONDS = 1.0
_EXIT_SECONDS = 5.0
#: Seconds between the listener's housekeeping passes (exporter sweep,
#: exporter count, CPU time and exporter table out to the engine).
_HOUSEKEEPING_SECONDS = 1.0

#: Datagrams drained per socket-readable wakeup before the loop
#: yields to flush/sweep housekeeping.
_RECV_BURST = 512
_MAX_DATAGRAM = 65535
#: Socket buffer bytes the kernel charges for one datagram of an
#: Ethernet MTU, the size NetFlow exporters keep to: a 1,464-byte v5
#: datagram on loopback is charged 2,304 (Linux, x86-64).
_DATAGRAM_CHARGE = 2304


class _Count:
    """A counter kept in the collector's shared block: the listener
    process writes it as it counts, the engine's process reads it."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = _SLOTS.index(name)

    def __get__(self, collector, owner=None):
        if collector is None:
            return self
        return collector._counts[self._slot]

    def __set__(self, collector, value: int) -> None:
        collector._counts[self._slot] = value


class FlowCollector:
    """Bind a UDP socket and stream decoded ``FlowTable`` chunks.

    The socket is bound eagerly in the constructor — the chosen port
    (``port=0`` binds ephemeral) must be reportable before the
    pipeline spends time training a detector, and the kernel buffers
    early datagrams meanwhile. Bind failures raise
    :class:`~repro.errors.CollectorError` (CLI exit code 7).

    The constructor then forks the listener process (``os.fork``:
    POSIX only), so build the collector before starting threads, as
    the stream session does. The listener holds only the descriptors
    it serves (:meth:`_listener_main`). It waits on a control pipe
    until :meth:`start` sends the chunk size, and leaves the moment
    the engine's end of that pipe closes, so a collector built and
    never started leaves no process behind. It leaves only through
    ``os._exit``: no handle it inherited is flushed there. One
    finalizer (:func:`_release`) frees what the collector holds: run
    by :meth:`close`, or when a collector dropped unclosed is collected.
    """

    datagrams = _Count()
    flows = _Count()
    malformed = _Count()
    datagrams_dropped = _Count()
    flows_dropped = _Count()
    sequence_lost = _Count()
    template_misses = _Count()
    template_drops = _Count()

    def __init__(
        self,
        listen: str = "127.0.0.1",
        port: int = 0,
        *,
        boot_time: float = 0.0,
        queue_chunks: int = 64,
        max_batch_seconds: float = MAX_BATCH_SECONDS,
        idle_seconds: float | None = None,
        max_flows: int | None = None,
        rcvbuf: int = 1 << 22,
        template_pending: int = 32,
        template_expiry: float = 300.0,
        exporter_idle: float = 900.0,
    ) -> None:
        self.listen = listen
        self.boot_time = boot_time
        self.idle_seconds = idle_seconds
        self.max_flows = max_flows
        self.max_batch_seconds = max_batch_seconds
        #: Decoded chunks that may wait for the engine (0: no bound).
        self.queue_chunks = queue_chunks
        self._batcher: ChunkBatcher | None = None
        self.exporters = ExporterTable(
            max_pending_sets=template_pending,
            pending_expiry=template_expiry,
            idle_expiry=exporter_idle,
        )
        self._block = mmap.mmap(-1, 8 * len(_SLOTS))
        self._counts = memoryview(self._block).cast("q")
        #: Engine side: the counts already added to the metric
        #: families, and the exporter table the listener sent last.
        self._mirrored = [0] * len(_SLOTS)
        self._mirror_lock = threading.Lock()
        self._reported: list[dict[str, Any]] | None = None
        self.chunks_emitted = 0
        #: Listener side: pipe writes not yet taken by the pipe.
        self._outbox: list[Any] = []
        self._stop = False
        self._started = False
        self._torn = False
        self._pid: int | None = None
        self._exit_status: int | None = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, int(rcvbuf)
                )
                sock.bind((listen, int(port)))
            except OSError:
                sock.close()
                raise
        except OSError as exc:
            raise CollectorError(
                f"cannot bind udp://{listen}:{port}: {exc}"
            ) from exc
        sock.setblocking(False)
        self._sock = sock
        # Cached: snapshots must still report the port after close().
        self._port = sock.getsockname()[1]
        self._fork()

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> str:
        return f"udp://{self.listen}:{self.port}"

    # -- the listener process ----------------------------------------------

    def _fork(self) -> None:
        control, control_end = os.pipe()
        chunks, chunk_end = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):
            try:
                fcntl.fcntl(chunk_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except OSError:
                pass  # a smaller pipe only costs more wake-ups
        try:
            pid = os.fork()
        except OSError as exc:
            for fd in (control, control_end, chunks, chunk_end):
                os.close(fd)
            self._sock.close()
            raise CollectorError(
                f"cannot start the collector process: {exc}"
            ) from exc
        if pid == 0:
            self._listener_main(control, chunk_end)
        self._pid = pid
        os.close(control)
        os.close(chunk_end)
        #: What the collector still holds here: its pipe ends and the
        #: unreaped listener. An entry leaves once released, so none
        #: is closed twice and no reaped pid is signalled or waited on.
        self._held = {"control": control_end, "chunks": chunks, "pid": pid}
        self._release = weakref.finalize(self, _release, self._held, self._sock)
        self._poll = select.poll()
        self._poll.register(chunks, select.POLLIN)

    def _listener_main(self, control: int, chunk_end: int) -> None:
        """The listener process: wait for start, serve, ``os._exit``.
        It holds what an exec'd child given ``pass_fds`` would: 0, 1,
        2, its socket and its ends of the two pipes."""
        status = 1
        try:
            # The engine's process decides when to shut down.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            keep = sorted({0, 1, 2, self._sock.fileno(), control, chunk_end})
            for low, high in zip(keep, keep[1:] + [os.sysconf("SC_OPEN_MAX")]):
                os.closerange(low + 1, high)
            # The inherited heap is never collected here: keeping the
            # collector off it keeps its pages shared.
            gc.freeze()
            self._control, self._out = control, chunk_end
            command = os.read(control, 8)
            if len(command) == 8:
                self._batcher = ChunkBatcher(
                    self._enqueue,
                    chunk_rows=struct.unpack("<q", command)[0],
                    max_batch_seconds=self.max_batch_seconds,
                    boot_time=self.boot_time,
                )
                os.set_blocking(chunk_end, False)
                self._serve()
            status = 0
        except BrokenPipeError:
            pass  # the engine's process is gone
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            self._counts[_SLOT_CPU] = time.process_time_ns()
            os._exit(status)

    def _serve(self) -> None:
        """Each pass sleeps until the socket or a pipe is ready or the
        earliest deadline passes, then does what is due.

        While the open batch will age-flush anyway
        (:meth:`ChunkBatcher.rest_until`), the socket rests out of the
        wait and the pass that ends the rest drains what queued: a few
        wake-ups per batch, not one per datagram. A rest lasts at most
        a fifth of the age bound, and half the time the socket buffer
        takes to fill at the highest arrival rate seen, charging each
        datagram as one of an MTU: the 8 MB the default ``rcvbuf``
        reads back where ``rmem_max`` allows holds ~3,600, the ~416 KB
        of a stock ``rmem_max`` (212,992) ~180. A drain that stopped
        at ``_RECV_BURST`` left datagrams queued: no rest follows it.
        The control pipe stays in the wait, so a stop ends a rest.
        """
        batcher = self._batcher
        assert batcher is not None
        housekeeping = time.monotonic() + _HOUSEKEEPING_SECONDS
        quiet_until = math.inf  # the idle stop, once datagrams arrive
        sock = self._sock.fileno()
        room = self._sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF
        ) // _DATAGRAM_CHARGE
        peak = 0.0  # the highest arrival rate seen, datagrams/s
        waiter = select.poll()
        waiter.register(sock, select.POLLIN)
        waiter.register(self._control, select.POLLIN)
        writing = resting = False
        rest_end = math.inf
        last = time.monotonic()
        try:
            while not self._stop:
                due = min(housekeeping, quiet_until, rest_end)
                if batcher.deadline is not None:
                    due = min(due, batcher.deadline)
                events = waiter.poll(
                    1000.0 * max(0.0, due - time.monotonic())
                )
                self._counts[_SLOT_WAKEUPS] += 1
                ready = {fd for fd, _ in events}
                now = time.monotonic()
                got = self._drain_socket(now) \
                    if resting or sock in ready else 0
                if self._control in ready:
                    break  # the engine closed its end: stop or close
                if got:
                    if self.idle_seconds is not None:
                        quiet_until = now + self.idle_seconds
                elif now >= quiet_until:
                    break
                batcher.poll()
                if self.max_flows is not None \
                        and self.flows >= self.max_flows:
                    break
                if now >= housekeeping:
                    housekeeping = now + _HOUSEKEEPING_SECONDS
                    _, expired = self.exporters.sweep(now)
                    if expired:
                        self.template_drops += expired
                    self._counts[_SLOT_EXPORTERS] = len(self.exporters)
                    self._counts[_SLOT_CPU] = time.process_time_ns()
                    if not self._outbox:
                        # Behind an engine that is not reading, the
                        # next second's table will do.
                        self._post_exporters()
                self._pump()
                if writing != bool(self._outbox):
                    # Wake up when the pipe takes more, not before.
                    writing = not writing
                    if writing:
                        waiter.register(self._out, select.POLLOUT)
                    else:
                        waiter.unregister(self._out)
                if got >= _RECV_BURST:
                    unread_for = 0.0
                else:
                    if got and now > last:
                        peak = max(peak, got / (now - last))
                    unread_for = room / (2.0 * peak) if peak else math.inf
                last = now
                rest = batcher.rest_until(unread_for)
                if resting != (rest is not None):
                    resting = not resting
                    if resting:
                        waiter.unregister(sock)
                    else:
                        waiter.register(sock, select.POLLIN)
                rest_end = math.inf if rest is None else rest
        finally:
            batcher.flush("final")
            self._post_exporters()
            os.set_blocking(self._out, True)
            self._pump()

    def _drain_socket(self, now: float) -> int:
        """Receive up to ``_RECV_BURST`` datagrams, one ``recvfrom``
        each; how many arrived."""
        got = 0
        while got < _RECV_BURST:
            try:
                data, address = self._sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                break
            except OSError:
                # Socket closed under us during shutdown.
                self._stop = True
                break
            got += 1
            self.datagrams += 1
            if self._backlogged():
                # Backpressure: shed load before spending decode
                # cycles; never block the socket.
                self.datagrams_dropped += 1
                continue
            self._on_datagram(data, address[0], now)
        return got

    def _on_datagram(self, data: bytes, address: str, now: float) -> None:
        """Header arithmetic and accounting only; the record bytes are
        staged and decoded once per chunk."""
        try:
            header = parse_header(data)
            before = len(self.exporters)
            state = self.exporters.get(
                address, header.version, header.domain
            )
            if len(self.exporters) != before:
                self._counts[_SLOT_EXPORTERS] = len(self.exporters)
            decoded = decode_datagram(
                data, self.boot_time, state.templates, now, header
            )
        except CodecError as exc:
            self.malformed += 1
            logger.debug(
                "malformed datagram from %s (%d bytes): %s",
                address, len(data), exc,
            )
            return
        lost = state.note(decoded, now)
        if lost:
            self.sequence_lost += lost
        if decoded.malformed:
            self.malformed += decoded.malformed
        if decoded.buffered_sets:
            self.template_misses += decoded.buffered_sets
        if decoded.dropped_sets:
            self.template_drops += decoded.dropped_sets
        if decoded.flows:
            self.flows += decoded.flows
            assert self._batcher is not None
            self._batcher.add(decoded.regions)

    def _backlogged(self) -> bool:
        """Whether ``queue_chunks`` chunks already wait for the engine."""
        waiting = self._counts[_SLOT_ENQUEUED] - self._counts[_SLOT_TAKEN]
        return 0 < self.queue_chunks <= waiting

    def _enqueue(self, table: FlowTable, reason: str, oldest: float) -> None:
        assert self._batcher is not None
        self._counts[_SLOT_CLAMPED] = self._batcher.time_clamped
        if self._backlogged():
            self.flows_dropped += len(table)
            return
        self._outbox += (
            _HEADER.pack(len(table), _REASONS.index(reason), oldest),
            memoryview(table._data).cast("B"),
        )
        self._counts[_SLOT_ENQUEUED] += 1
        self._pump()

    def _post_exporters(self) -> None:
        """Queue the exporter table for the engine's :meth:`snapshot`."""
        body = json.dumps(self.exporters.snapshot()).encode()
        self._outbox += (_HEADER.pack(len(body), _SNAPSHOT, 0.0), body)

    def _pump(self) -> None:
        """Hand the pipe what it takes of the outbox: without waiting
        while serving, all of it once the pipe blocks again."""
        outbox = self._outbox
        while outbox:
            try:
                written = os.writev(self._out, outbox[:_WRITEV_MAX])
            except BlockingIOError:
                return
            while written:
                head = outbox[0]
                if written < len(head):
                    outbox[0] = memoryview(head)[written:]
                    break
                written -= len(head)
                del outbox[0]

    # -- engine side -------------------------------------------------------

    def start(self, chunk_rows: int = 8192) -> None:
        """Send the listener process its chunk size (idempotent)."""
        if self._started or "control" not in self._held:
            return
        self._started = True
        try:
            os.write(self._held["control"], struct.pack("<q", int(chunk_rows)))
        except OSError as exc:
            raise CollectorError(
                f"collector process {self._pid} is gone: {exc}"
            ) from exc

    def close(self) -> None:
        """Stop, reap the listener process and release the socket.

        A consumer that left :meth:`chunks` early still gets the
        listener's final counters: the chunks it left in the pipe are
        read and dropped until the process ends, and :func:`_release`
        kills it if it has not ended within a few seconds (at once
        after a read cut off mid-message).
        """
        if "control" in self._held:
            os.close(self._held.pop("control"))
        deadline = time.monotonic() + _EXIT_SECONDS
        try:
            while not self._torn \
                    and self._next_chunk(deadline) is not None:
                pass
        except CollectorError:
            pass  # the consumer is leaving; the status is kept
        self._release()
        self._mirror()

    def _next_chunk(
        self, deadline: float = float("inf")
    ) -> tuple[FlowTable, str] | None:
        """The next chunk on the pipe, or ``None`` once the listener
        process has ended (or ``deadline`` passed first). Exporter
        tables on the way are kept for :meth:`snapshot`. A listener
        that did not end cleanly raises :class:`CollectorError`."""
        if "pid" not in self._held:
            return None
        header = bytearray(_HEADER.size)
        while True:
            while not self._poll.poll(1000.0 * max(0.0, min(
                _MIRROR_SECONDS, deadline - time.monotonic()
            ))):
                if time.monotonic() >= deadline:
                    return None
                self._mirror()
            self._torn = True  # until one whole message is read
            if not self._read_into(memoryview(header)):
                self._reap()
                if self._exit_status:
                    raise self._failure()
                return None
            size, kind, oldest = _HEADER.unpack(header)
            body = (
                bytearray(size) if kind == _SNAPSHOT
                else np.empty(size, FLOW_DTYPE)
            )
            self._read_into(memoryview(body).cast("B"), whole=True)
            self._torn = False
            if kind == _SNAPSHOT:
                self._reported = json.loads(body)
                continue
            self._counts[_SLOT_TAKEN] += 1
            _BATCH_AGE.observe(time.monotonic() - oldest)
            self._mirror()
            return FlowTable(body), _REASONS[kind]

    def _read_into(self, view: memoryview, whole: bool = False) -> bool:
        """Fill ``view`` from the pipe; ``False`` at its end. A message
        cut short (``whole``, or after its first byte) raises."""
        got = 0
        while got < len(view):
            count = os.readv(self._held["chunks"], [view[got:]])
            if not count:
                if got or whole:
                    self._reap()
                    raise self._failure()
                return False
            got += count
        return True

    def _reap(self) -> None:
        """Reap the listener, which closed its end of the chunk pipe."""
        self._exit_status = _reap_listener(self._held, _EXIT_SECONDS)

    def _failure(self) -> CollectorError:
        code = os.waitstatus_to_exitcode(self._exit_status or 0)
        ended = (
            f"was killed by signal {-code}" if code < 0
            else f"exited with status {code}"
        )
        return CollectorError(
            f"collector process {self._pid} {ended} mid-stream"
        )

    def _mirror(self) -> None:
        """Bring this process's ``repro_collector_*`` series up to the
        shared counters: the engine's process serves ``/metrics``."""
        counts = self._counts
        with self._mirror_lock:
            for slot, family in _MIRRORED:
                delta = counts[slot] - self._mirrored[slot]
                if delta:
                    family.inc(delta)
                    self._mirrored[slot] += delta
            cpu_ns = counts[_SLOT_CPU] - self._mirrored[_SLOT_CPU]
            if cpu_ns:
                _CPU.inc(cpu_ns / 1e9)
                self._mirrored[_SLOT_CPU] += cpu_ns
            _EXPORTERS.set(counts[_SLOT_EXPORTERS])
            _QUEUE_DEPTH.set(counts[_SLOT_ENQUEUED] - counts[_SLOT_TAKEN])

    def chunks(self, chunk_rows: int = 8192) -> Iterator[FlowTable]:
        """Consume the collector as a chunk stream (starts it).

        Each yielded table is wrapped in a ``collector.chunk`` journal
        event made the ambient causal parent for the duration of the
        yield — the contextvar survives into the engine's
        ``process()`` call, so every ``chunk.ingest`` event links back
        to the datagram batch that caused it. A listener process that
        dies mid-stream raises :class:`~repro.errors.CollectorError`;
        the counters it reached are kept.
        """
        self.start(chunk_rows)
        obs_events.emit(
            "collector.start", listen=self.listen, port=self.port
        )
        seq = 0
        try:
            while (item := self._next_chunk()) is not None:
                table, reason = item
                seq += 1
                self.chunks_emitted = seq
                event = obs_events.emit(
                    "collector.chunk",
                    seq=seq, rows=len(table), reason=reason,
                )
                with obs_events.causal(event):
                    yield table
        finally:
            self.close()
            obs_events.emit("collector.stop", **self.counters())

    # -- reporting ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Scalar counter snapshot (journal events, summaries)."""
        return {
            "datagrams": self.datagrams,
            "flows": self.flows,
            "malformed": self.malformed,
            "datagrams_dropped": self.datagrams_dropped,
            "flows_dropped": self.flows_dropped,
            "sequence_lost": self.sequence_lost,
            "template_misses": self.template_misses,
            "template_drops": self.template_drops,
            "time_clamped": self._counts[_SLOT_CLAMPED],
            "chunks": self.chunks_emitted,
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state for ``/status`` and ``RunResult.payload``."""
        state = dict(self.counters())
        state["listen"] = self.listen
        state["port"] = self.port
        state["queue_depth"] = (
            self._counts[_SLOT_ENQUEUED] - self._counts[_SLOT_TAKEN]
        )
        # The listener's CPU as of its last housekeeping pass or exit.
        state["cpu_s"] = self._counts[_SLOT_CPU] / 1e9
        state["wakeups"] = self._counts[_SLOT_WAKEUPS]
        state["exporters"] = (
            self.exporters.snapshot() if self._reported is None
            else self._reported
        )
        return state


def _reap_listener(held: dict[str, int], seconds: float) -> int | None:
    """Wait for the listener in ``held`` to exit, killing it after
    ``seconds``; its wait status (``None``: reaped before). Its pid
    leaves ``held`` as it is reaped."""
    if "pid" not in held:
        return None
    pid, deadline = held["pid"], time.monotonic() + seconds
    try:
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                _, status = os.waitpid(pid, 0)
                break
            time.sleep(0.001)
    except ChildProcessError:
        status = 0  # reaped by someone else; nothing to report
    del held["pid"]
    return status


def _release(held: dict[str, int], sock: socket.socket) -> None:
    """A collector's finalizer, also run by ``close()``: close the pipe
    ends it still holds and its socket, then reap its listener, killed
    at once if still running (a dropped collector's has no reader)."""
    for end in ("control", "chunks"):
        if end in held:
            os.close(held.pop(end))
    sock.close()
    _reap_listener(held, 0.0)


# -- session-facade registration ----------------------------------------------


class UdpSource:
    """``udp`` source: a live NetFlow v5/v9/IPFIX collector, unbounded.

    Options (``[source.options]``): ``listen`` (default 127.0.0.1),
    ``port`` (default 0 = ephemeral; the bound port lands in the run
    summary and payload), ``boot_time`` (sys-uptime anchor for
    timestamp reconstruction), ``queue_chunks`` (0: no bound),
    ``max_batch_seconds`` (default
    :data:`~repro.collector.batcher.MAX_BATCH_SECONDS`; 0 flushes on
    every wake-up), ``idle_seconds`` (stop after this much quiet
    following the first datagram — replay/CI mode; default: listen
    forever), ``max_flows`` (stop after decoding this many rows — test
    mode), ``rcvbuf``, ``template_pending``, ``template_expiry``,
    ``exporter_idle``. A value that does not convert, or falls outside
    its range (:attr:`_RANGES`; floats finite), raises
    :class:`~repro.errors.SpecError` naming ``source.options.<key>``.
    """

    kind = "udp"
    bounded = False

    #: Each option's type; an option left out keeps
    #: :class:`FlowCollector`'s default.
    _OPTIONS = {
        "listen": str, "port": int, "boot_time": float,
        "queue_chunks": int, "max_batch_seconds": float,
        "idle_seconds": float, "max_flows": int, "rcvbuf": int,
        "template_pending": int, "template_expiry": float,
        "exporter_idle": float,
    }
    #: ``(least, greatest)`` legal value of each option with a range
    #: (``None``: unbounded). Every float option must also be finite.
    _RANGES = {
        "port": (0, 65535), "queue_chunks": (0, None),
        "max_batch_seconds": (0.0, None), "idle_seconds": (0.0, None),
        "template_expiry": (0.0, None), "rcvbuf": (1, None),
    }

    def __init__(self, spec) -> None:
        self.spec = spec
        options = {}
        for key, value in spec.options.items():
            if key not in self._OPTIONS:
                raise SpecError(
                    f"unknown udp option {key!r}; expected "
                    f"{', '.join(self._OPTIONS)}",
                    field=f"source.options.{key}",
                )
            options[key] = None if value is None \
                else self._coerce(key, value)
        self.collector = FlowCollector(**options)

    @classmethod
    def _coerce(cls, key: str, value: Any) -> Any:
        """``value`` as option ``key``'s type, inside its range, or a
        :class:`SpecError` naming the option."""
        kind = cls._OPTIONS[key]
        least, most = cls._RANGES.get(key, (None, None))
        try:
            coerced = kind(value)
        except (TypeError, ValueError, OverflowError):
            legal = False
        else:
            legal = (kind is not float or math.isfinite(coerced)) \
                and (least is None or coerced >= least) \
                and (most is None or coerced <= most)
        if not legal:
            expected = {int: "an integer", float: "a finite number"}.get(
                kind, "a string"
            )
            if least is not None:
                expected += f" >= {least}" if most is None \
                    else f" in {least}..{most}"
            raise SpecError(
                f"udp option {key!r} must be {expected}, got {value!r}",
                field=f"source.options.{key}",
            )
        return coerced

    @property
    def port(self) -> int:
        return self.collector.port

    @property
    def stream_origin(self) -> float | None:
        """Window-grid anchor for the stream engine.

        A non-zero ``[source] origin`` anchors window index 0 there —
        set it to the same instant a file-based replay of the capture
        would use and the two paths produce identical window indices
        and alarm ids. The default (0.0) means *auto*: the ring floors
        the first flow's timestamp to the window grid, which keeps a
        live wall-clock deployment from sealing decades of empty
        windows between the epoch and now.
        """
        return self.spec.origin or None

    def trace(self):
        raise SpecError(
            "source kind 'udp' is unbounded; it cannot back modes "
            "that need the whole trace",
            field="source.kind",
        )

    def chunks(self, chunk_rows: int) -> Iterator[FlowTable]:
        return self.collector.chunks(chunk_rows)

    def stats(self) -> dict[str, Any]:
        return self.collector.snapshot()

    def close(self) -> None:
        self.collector.close()

    def describe(self) -> str:
        return self.collector.address


from repro.api.registry import sources as _sources  # noqa: E402

_sources.register("udp", UdpSource)


# -- replay helpers (tests, CI smoke, benchmark) ------------------------------


def read_recorded_datagrams(
    path: str | Path,
) -> tuple[float, list[bytes]]:
    """Raw export packets from an ``.rpv5`` container, undecoded.

    The container is literally a boot-time header plus length-prefixed
    v5 export packets (:func:`repro.flows.flowio.write_binary`), so a
    recorded trace doubles as a datagram capture: replaying these
    bytes over loopback exercises the collector with exactly what a
    router would have sent. The walk is
    :func:`repro.flows.flowio.iter_packets`, which refuses a damaged
    container with :class:`~repro.errors.CodecError`.
    """
    # flowio decodes through this package: import it at call time.
    from repro.flows.flowio import iter_packets

    boot_time, packets = iter_packets(path)
    return boot_time, list(packets)


def send_datagrams(
    packets: Iterable[bytes] | Sequence[bytes],
    port: int,
    host: str = "127.0.0.1",
    pace_every: int = 64,
    pace_seconds: float = 0.001,
) -> int:
    """Blast datagrams at a collector over loopback; returns the count.

    A short pause every ``pace_every`` packets keeps a fast sender
    from overrunning the kernel socket buffer in tests — loss would
    be *accounted* (sequence gaps), but equivalence tests need zero.
    """
    sent = 0
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for packet in packets:
            sock.sendto(packet, (host, port))
            sent += 1
            if pace_every and sent % pace_every == 0:
                time.sleep(pace_seconds)
    return sent
