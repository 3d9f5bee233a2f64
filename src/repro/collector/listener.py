"""The UDP listener daemon and its ``SourceSpec(kind="udp")`` adapter.

:class:`FlowCollector` is the first mile of a live deployment: routers
export NetFlow v5/v9/IPFIX datagrams at a loopback-default host/port,
a selectors-driven listener thread parses them
(:mod:`repro.collector.decode`), tracks per-exporter sequence/loss
state (:mod:`repro.collector.exporters`) and stages their records for
one decode per :class:`~repro.flows.table.FlowTable` chunk
(:mod:`repro.collector.batcher`) on a bounded queue that the stream
engine drains.

Backpressure contract — the socket is never stalled:

* the listener thread keeps the kernel buffer drained even while the
  engine is busy sealing windows (that is why it is a thread and not
  an inline generator). It takes a burst of datagrams per system
  call where the platform has ``recvmmsg`` (:class:`_BurstReceiver`):
  listener and engine share one interpreter lock, and a receive call
  per datagram is a lock hand-off per datagram;
* when the chunk queue is full, *newly arrived datagrams are dropped
  and counted* (``repro_collector_datagrams_dropped_total``) before
  any decode work is spent on them, and a flushed batch that finds
  the queue full drops its rows with a count rather than block;
* kernel-level loss (socket buffer overflow) shows up in the
  per-exporter sequence accounting, so the drop story is honest end
  to end: counted at the queue, inferred at the wire.

Determinism caveat: UDP arrival order is not replayable — two runs of
the same capture may interleave exporters differently. All
determinism claims therefore live at the *window* level, where the
:class:`~repro.stream.window.WindowRing` routes rows by timestamp
(see ARCHITECTURE.md "Collector contract").
"""

from __future__ import annotations

import ctypes
import errno
import logging
import mmap
import os
import queue
import selectors
import socket
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.collector.batcher import ChunkBatcher
from repro.collector.decode import decode_datagram, parse_header
from repro.collector.exporters import ExporterTable
from repro.errors import CodecError, CollectorError, SpecError
from repro.flows.table import FlowTable
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

_EOF = object()

#: Datagrams drained per socket-readable wakeup before the loop
#: yields to flush/sweep housekeeping, and per receive call.
_RECV_BURST = 512
_BURST_SLOTS = 64
_MAX_DATAGRAM = 65535


class _IoVec(ctypes.Structure):
    _fields_ = [("base", ctypes.c_void_p), ("len", ctypes.c_size_t)]


class _MsgHdr(ctypes.Structure):
    _fields_ = [
        ("name", ctypes.c_void_p),
        ("namelen", ctypes.c_uint32),
        ("iov", ctypes.POINTER(_IoVec)),
        ("iovlen", ctypes.c_size_t),
        ("control", ctypes.c_void_p),
        ("controllen", ctypes.c_size_t),
        ("flags", ctypes.c_int),
    ]


class _MMsgHdr(ctypes.Structure):
    _fields_ = [("hdr", _MsgHdr), ("len", ctypes.c_uint)]


def _find_recvmmsg():
    """The C library's ``recvmmsg``, or ``None`` where there is none."""
    try:
        function = ctypes.CDLL(None, use_errno=True).recvmmsg
    except (OSError, AttributeError, TypeError):
        return None
    function.argtypes = [
        ctypes.c_int, ctypes.POINTER(_MMsgHdr), ctypes.c_uint,
        ctypes.c_int, ctypes.c_void_p,
    ]
    function.restype = ctypes.c_int
    return function


_recvmmsg = _find_recvmmsg()
_SOCKADDR_IN = 16


class _BurstReceiver:
    """Up to ``_BURST_SLOTS`` datagrams of an IPv4 socket per system
    call, through ``recvmmsg(2)``.

    ``socket.recvfrom`` releases the interpreter lock once per
    datagram. With the engine waiting for that lock on another core,
    every release wakes it and every wake-up is a cross-core hand-off:
    the same pipeline then runs a quarter slower than with all its
    threads on one core, and which of the two a run gets is the
    scheduler's choice. One call per burst makes the listener's cost
    the same wherever its thread runs. The slots are one anonymous
    mapping, so only the pages datagrams land on become resident.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._data = mmap.mmap(-1, _BURST_SLOTS * _MAX_DATAGRAM)
        self._names = bytearray(_BURST_SLOTS * _SOCKADDR_IN)
        self._view = memoryview(self._data)
        data = ctypes.addressof(ctypes.c_char.from_buffer(self._data))
        names = ctypes.addressof(ctypes.c_char.from_buffer(self._names))
        self._iov = (_IoVec * _BURST_SLOTS)()
        self._messages = (_MMsgHdr * _BURST_SLOTS)()
        iov = ctypes.addressof(self._iov)
        for slot, message in enumerate(self._messages):
            self._iov[slot].base = data + slot * _MAX_DATAGRAM
            self._iov[slot].len = _MAX_DATAGRAM
            message.hdr.name = names + slot * _SOCKADDR_IN
            message.hdr.namelen = _SOCKADDR_IN
            message.hdr.iov = ctypes.cast(
                iov + slot * ctypes.sizeof(_IoVec), ctypes.POINTER(_IoVec)
            )
            message.hdr.iovlen = 1

    def receive(self) -> list[tuple[bytes, str]]:
        """(payload, source address) of the datagrams waiting, oldest
        first; empty when there are none. ``OSError`` on a closed
        socket, as ``recvfrom`` raises it."""
        count = _recvmmsg(
            self._sock.fileno(), self._messages, _BURST_SLOTS, 0, None
        )
        if count < 0:
            code = ctypes.get_errno()
            if code in (errno.EAGAIN, errno.EWOULDBLOCK, errno.EINTR):
                return []
            raise OSError(code, os.strerror(code))
        view, names, messages = self._view, self._names, self._messages
        burst = []
        for slot in range(count):
            start = slot * _MAX_DATAGRAM
            name = slot * _SOCKADDR_IN
            burst.append((
                bytes(view[start:start + messages[slot].len]),
                # sockaddr_in: family, port, then the four address bytes.
                socket.inet_ntoa(names[name + 4:name + 8]),
            ))
        return burst


class FlowCollector:
    """Bind a UDP socket and stream decoded ``FlowTable`` chunks.

    The socket is bound eagerly in the constructor — the chosen port
    (``port=0`` binds ephemeral) must be reportable before the
    pipeline spends time training a detector, and the kernel buffers
    early datagrams meanwhile. Bind failures raise
    :class:`~repro.errors.CollectorError` (CLI exit code 7).
    """

    def __init__(
        self,
        listen: str = "127.0.0.1",
        port: int = 0,
        *,
        boot_time: float = 0.0,
        queue_chunks: int = 64,
        max_batch_seconds: float = 0.25,
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
        self._queue: queue.Queue = queue.Queue(maxsize=queue_chunks)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._batcher: ChunkBatcher | None = None
        self.exporters = ExporterTable(
            max_pending_sets=template_pending,
            pending_expiry=template_expiry,
            idle_expiry=exporter_idle,
        )
        # Listener-thread counters; single-writer, torn reads are
        # impossible for Python ints, so snapshots need no lock.
        self.datagrams = 0
        self.flows = 0
        self.malformed = 0
        self.datagrams_dropped = 0
        self.flows_dropped = 0
        self.sequence_lost = 0
        self.template_misses = 0
        self.template_drops = 0
        self.chunks_emitted = 0
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, int(rcvbuf)
            )
            sock.bind((listen, int(port)))
        except OSError as exc:
            raise CollectorError(
                f"cannot bind udp://{listen}:{port}: {exc}"
            ) from exc
        sock.setblocking(False)
        self._sock = sock
        self._receive = (
            _BurstReceiver(sock).receive if _recvmmsg is not None
            else self._recvfrom_burst
        )
        # Cached: snapshots must still report the port after close().
        self._port = sock.getsockname()[1]

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> str:
        return f"udp://{self.listen}:{self.port}"

    # -- listener thread ---------------------------------------------------

    def start(self, chunk_rows: int = 8192) -> None:
        """Start the listener thread (idempotent)."""
        if self._thread is not None:
            return
        self._batcher = ChunkBatcher(
            self._enqueue,
            chunk_rows=chunk_rows,
            max_batch_seconds=self.max_batch_seconds,
            boot_time=self.boot_time,
        )
        self._thread = threading.Thread(
            target=self._serve, name="repro-collector", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Ask the listener to flush and finish."""
        self._stop.set()

    def close(self) -> None:
        """Stop, join and release the socket."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        if self._sock.fileno() != -1:
            self._sock.close()

    def _serve(self) -> None:
        batcher = self._batcher
        assert batcher is not None
        tick = min(self.max_batch_seconds, 0.1)
        idle_since: float | None = None
        last_sweep = time.monotonic()
        selector = selectors.DefaultSelector()
        selector.register(self._sock, selectors.EVENT_READ)
        try:
            while not self._stop.is_set():
                ready = selector.select(timeout=tick)
                now = time.monotonic()
                got_any = False
                if ready:
                    got_any = self._drain_socket(batcher, now)
                if got_any:
                    idle_since = None
                elif self.datagrams and self.idle_seconds is not None:
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= self.idle_seconds:
                        break
                batcher.poll(now)
                if self.max_flows is not None \
                        and self.flows >= self.max_flows:
                    break
                if now - last_sweep >= 1.0:
                    last_sweep = now
                    dropped_exp, expired = self.exporters.sweep(now)
                    if expired:
                        self.template_drops += expired
                        _TMPL_DROPPED.inc(expired)
                    if dropped_exp or expired:
                        _EXPORTERS.set(len(self.exporters))
        finally:
            selector.unregister(self._sock)
            selector.close()
            batcher.flush("final")
            self._put_eof()

    def _recvfrom_burst(self) -> list[tuple[bytes, str]]:
        """:meth:`_BurstReceiver.receive` where there is no
        ``recvmmsg``: one ``recvfrom`` per datagram."""
        burst: list[tuple[bytes, str]] = []
        try:
            while len(burst) < _BURST_SLOTS:
                data, addr = self._sock.recvfrom(_MAX_DATAGRAM)
                burst.append((data, addr[0]))
        except BlockingIOError:
            pass
        return burst

    def _drain_socket(self, batcher: ChunkBatcher, now: float) -> bool:
        got_any = False
        for _ in range(_RECV_BURST // _BURST_SLOTS):
            try:
                burst = self._receive()
            except OSError:
                # Socket closed under us during shutdown.
                self._stop.set()
                break
            for data, address in burst:
                got_any = True
                self.datagrams += 1
                _DATAGRAMS.inc()
                if self._queue.full():
                    # Backpressure: shed load before spending decode
                    # cycles; never block the socket.
                    self.datagrams_dropped += 1
                    _DGRAM_DROPPED.inc()
                    continue
                self._on_datagram(data, address, now)
            if len(burst) < _BURST_SLOTS:
                break
        return got_any

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
                _EXPORTERS.set(len(self.exporters))
            decoded = decode_datagram(
                data, self.boot_time, state.templates, now, header
            )
        except CodecError as exc:
            self.malformed += 1
            _MALFORMED.inc()
            logger.debug(
                "malformed datagram from %s (%d bytes): %s",
                address, len(data), exc,
            )
            return
        lost = state.note(decoded, now)
        if lost:
            self.sequence_lost += lost
            _SEQ_LOST.inc(lost)
        if decoded.malformed:
            self.malformed += decoded.malformed
            _MALFORMED.inc(decoded.malformed)
        if decoded.buffered_sets:
            self.template_misses += decoded.buffered_sets
            _TMPL_MISS.inc(decoded.buffered_sets)
        if decoded.dropped_sets:
            self.template_drops += decoded.dropped_sets
            _TMPL_DROPPED.inc(decoded.dropped_sets)
        if decoded.flows:
            self.flows += decoded.flows
            _FLOWS.inc(decoded.flows)
            assert self._batcher is not None
            self._batcher.add(decoded.regions)

    def _enqueue(self, table: FlowTable, reason: str) -> bool:
        try:
            self._queue.put_nowait((table, reason))
        except queue.Full:
            self.flows_dropped += len(table)
            _FLOW_DROPPED.inc(len(table))
            return False
        _QUEUE_DEPTH.set(self._queue.qsize())
        return True

    def _put_eof(self) -> None:
        while True:
            try:
                self._queue.put_nowait(_EOF)
                return
            except queue.Full:
                # Make room: dropping one pending chunk is honest
                # (counted) and guarantees shutdown always lands.
                try:
                    table, _ = self._queue.get_nowait()
                    self.flows_dropped += len(table)
                    _FLOW_DROPPED.inc(len(table))
                except queue.Empty:
                    continue

    # -- consumer side -----------------------------------------------------

    def chunks(self, chunk_rows: int = 8192) -> Iterator[FlowTable]:
        """Consume the collector as a chunk stream (starts it).

        Each yielded table is wrapped in a ``collector.chunk`` journal
        event made the ambient causal parent for the duration of the
        yield — the contextvar survives into the engine's
        ``process()`` call, so every ``chunk.ingest`` event links back
        to the datagram batch that caused it.
        """
        self.start(chunk_rows)
        obs_events.emit(
            "collector.start", listen=self.listen, port=self.port
        )
        seq = 0
        try:
            while True:
                item = self._queue.get()
                if item is _EOF:
                    break
                table, reason = item
                _QUEUE_DEPTH.set(self._queue.qsize())
                seq += 1
                self.chunks_emitted = seq
                event = obs_events.emit(
                    "collector.chunk",
                    seq=seq, rows=len(table), reason=reason,
                )
                with obs_events.causal(event):
                    yield table
        finally:
            obs_events.emit("collector.stop", **self.counters())
            self.close()

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
            "time_clamped": (
                self._batcher.time_clamped if self._batcher else 0
            ),
            "chunks": self.chunks_emitted,
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state for ``/status`` and ``RunResult.payload``."""
        state = dict(self.counters())
        state["listen"] = self.listen
        state["port"] = self.port
        state["queue_depth"] = self._queue.qsize()
        state["exporters"] = self.exporters.snapshot()
        return state


# -- session-facade registration ----------------------------------------------


class UdpSource:
    """``udp`` source: a live NetFlow v5/v9/IPFIX collector, unbounded.

    Options (``[source.options]``): ``listen`` (default 127.0.0.1),
    ``port`` (default 0 = ephemeral; the bound port lands in the run
    summary and payload), ``boot_time`` (sys-uptime anchor for
    timestamp reconstruction), ``queue_chunks``, ``max_batch_seconds``,
    ``idle_seconds`` (stop after this much quiet following the first
    datagram — replay/CI mode; default: listen forever), ``max_flows``
    (stop after decoding this many rows — test mode), ``rcvbuf``,
    ``template_pending``, ``template_expiry``, ``exporter_idle``.
    """

    kind = "udp"
    bounded = False

    _KNOWN = (
        "listen", "port", "boot_time", "queue_chunks",
        "max_batch_seconds", "idle_seconds", "max_flows", "rcvbuf",
        "template_pending", "template_expiry", "exporter_idle",
    )

    def __init__(self, spec) -> None:
        self.spec = spec
        for key in spec.options:
            if key not in self._KNOWN:
                raise SpecError(
                    f"unknown udp option {key!r}; expected "
                    f"{', '.join(self._KNOWN)}",
                    field=f"source.options.{key}",
                )
        options = spec.options
        idle = options.get("idle_seconds")
        limit = options.get("max_flows")
        self.collector = FlowCollector(
            listen=str(options.get("listen", "127.0.0.1")),
            port=int(options.get("port", 0)),
            boot_time=float(options.get("boot_time", 0.0)),
            queue_chunks=int(options.get("queue_chunks", 64)),
            max_batch_seconds=float(
                options.get("max_batch_seconds", 0.25)
            ),
            idle_seconds=None if idle is None else float(idle),
            max_flows=None if limit is None else int(limit),
            rcvbuf=int(options.get("rcvbuf", 1 << 22)),
            template_pending=int(options.get("template_pending", 32)),
            template_expiry=float(
                options.get("template_expiry", 300.0)
            ),
            exporter_idle=float(options.get("exporter_idle", 900.0)),
        )

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
