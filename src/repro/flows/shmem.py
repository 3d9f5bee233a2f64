"""Zero-copy row buffers over POSIX shared memory.

This module is the buffer plane shared by every place the system moves
raw :data:`~repro.flows.table.FLOW_DTYPE` rows between address spaces
without a serialisation step:

* **shm segments** — the :class:`~repro.parallel.executor.ShardExecutor`
  writes per-shard row slices into one pooled
  :class:`multiprocessing.shared_memory.SharedMemory` segment and ships
  only ``(segment, offset, rows)`` descriptors through the worker
  pool's pipe; workers map the slice in place.
* **mmap'd archive partitions** — :mod:`repro.archive.layout` reuses
  the same 32-byte versioned header (different magic, identical
  layout), so a partition file and an shm slice validate through one
  codepath.

Every row block — on disk or in a segment — starts with the same
header: magic (4 bytes), flow schema version, reserved flags, row
count, padded to 32 bytes, little-endian like the payload. The schema
version is checked on every attach, so rows written by a different
``FLOW_DTYPE`` revision fail with a :class:`~repro.errors.CodecError`
instead of being silently misparsed.

Segment lifecycle: segments are **parent-owned**. The creating process
registers each live segment in a module registry and unlinks it on
:meth:`RowBuffer.close`, with an ``atexit`` backstop so SIGINT
(KeyboardInterrupt unwinds → normal interpreter exit) and worker
crashes (the parent survives and closes) never leak ``/dev/shm``
entries. If the parent is killed outright (SIGKILL), the
``multiprocessing`` resource tracker — which every create registers
with — unlinks the names as the last line of defence. Workers only
ever *attach*, which is safe exactly because shm IPC requires the
``fork`` start method: forked workers share the parent's tracker (see
:func:`_attach`).

Reuse is refcount-gated: :meth:`RowBuffer.acquire` marks descriptors
as outstanding and :meth:`RowBuffer.rewind` refuses to recycle the
segment while any remain — the executor acquires around each map call
and releases when all results are in.
"""

from __future__ import annotations

import atexit
import logging
import os
import secrets
import struct
from typing import NamedTuple

import numpy as np

from repro.errors import CodecError, FlowError
from repro.flows.table import FLOW_DTYPE, FLOW_SCHEMA_VERSION, FlowTable
from repro.obs import metrics as obs_metrics

logger = logging.getLogger(__name__)

_SEGMENTS_LIVE = obs_metrics.gauge(
    "repro_shm_segments_live",
    "Parent-owned shared-memory segments currently linked.",
)
_BYTES_STAGED = obs_metrics.counter(
    "repro_shm_bytes_staged_total",
    "Row-block bytes (headers + rows) staged into shared segments.",
)

__all__ = [
    "ROW_HEADER_SIZE",
    "SEGMENT_MAGIC",
    "RowSlice",
    "RowBuffer",
    "pack_row_header",
    "unpack_row_header",
    "block_bytes",
    "shared_memory_available",
    "attach_slice",
    "detach_slices",
    "close_all",
]

#: Row-block header: magic, schema version, flags (reserved), row
#: count, padded to 32 bytes. Little-endian like the payload. This is
#: byte-for-byte the archive partition header modulo the magic.
_ROW_HEADER = struct.Struct("<4sHHQ16x")
ROW_HEADER_SIZE = _ROW_HEADER.size

#: Magic of a shared-memory row block (archive partitions use
#: ``b"RPAR"`` with the identical header layout).
SEGMENT_MAGIC = b"RPSM"


def pack_row_header(rows: int, magic: bytes = SEGMENT_MAGIC) -> bytes:
    """The 32-byte header preceding ``rows`` raw ``FLOW_DTYPE`` rows."""
    return _ROW_HEADER.pack(magic, FLOW_SCHEMA_VERSION, 0, rows)


def unpack_row_header(
    header: bytes,
    magic: bytes = SEGMENT_MAGIC,
    source: object = "",
) -> int:
    """Validate a row-block header; returns the row count.

    Raises :class:`~repro.errors.CodecError` on a short header, a bad
    magic, or a flow-schema-version mismatch — rows laid out by a
    different ``FLOW_DTYPE`` revision must never be misparsed.
    """
    where = f"{source}: " if source else ""
    if len(header) < ROW_HEADER_SIZE:
        raise CodecError(f"{where}truncated row-block header")
    found, version, _flags, rows = _ROW_HEADER.unpack_from(header)
    if found != magic:
        raise CodecError(f"{where}bad row-block magic {found!r}")
    if version != FLOW_SCHEMA_VERSION:
        raise CodecError(
            f"{where}row block carries flow schema version {version}; "
            f"this build reads version {FLOW_SCHEMA_VERSION}"
        )
    return int(rows)


def block_bytes(rows: int) -> int:
    """Bytes one row block occupies: header + raw rows."""
    return ROW_HEADER_SIZE + rows * FLOW_DTYPE.itemsize


class RowSlice(NamedTuple):
    """Descriptor of one row block inside a shared segment.

    This — not the rows — is what crosses the worker pool's pipe:
    a few dozen pickled bytes regardless of the shard size.
    """

    segment: str
    offset: int
    rows: int


# -- availability ------------------------------------------------------------

_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """Whether POSIX shared memory works here (probed once, cached).

    Creates and immediately unlinks a one-page segment; any failure
    (no ``/dev/shm``, permissions, missing ``_posixshmem``) reports
    ``False`` and the executor runs table fan-outs in-process.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


# -- parent-owned segments ---------------------------------------------------

#: Live parent-owned buffers by segment name, for the atexit backstop.
_LIVE: dict[str, "RowBuffer"] = {}


def _cleanup_live() -> None:
    for buffer in list(_LIVE.values()):
        buffer.close()


atexit.register(_cleanup_live)


def close_all() -> None:
    """Unlink every live parent-owned segment (crash-path backstop)."""
    _cleanup_live()


class RowBuffer:
    """One parent-owned shared-memory segment of appended row blocks.

    ``write`` appends ``[header | rows]`` blocks at the cursor and
    returns :class:`RowSlice` descriptors; ``view`` maps any block of
    any segment back into a read-only :class:`FlowTable` without
    copying. The owner recycles the segment across fan-outs with
    :meth:`rewind` once no descriptors are outstanding, and
    :meth:`close` unlinks it.
    """

    def __init__(self, capacity: int) -> None:
        from multiprocessing import shared_memory

        if capacity < ROW_HEADER_SIZE:
            raise FlowError(
                f"segment capacity must be >= {ROW_HEADER_SIZE}: "
                f"{capacity!r}"
            )
        # A recognizable name (instead of the stdlib's ``psm_*``) so a
        # leaked segment in /dev/shm points straight back here — the
        # CI smoke and the leak tests grep for the prefix.
        while True:
            name = f"repro-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                self._shm = shared_memory.SharedMemory(
                    name=name, create=True, size=capacity
                )
                break
            except FileExistsError:  # pragma: no cover - 2^32 odds
                continue
        self.capacity = self._shm.size
        self._cursor = 0
        self._refs = 0
        _LIVE[self.name] = self
        logger.debug(
            "created shm segment %s (%d bytes)", self.name, self.capacity
        )
        if obs_metrics.enabled():
            _SEGMENTS_LIVE.set(len(_LIVE))

    @property
    def name(self) -> str:
        """The segment's name in the shared-memory namespace."""
        return self._shm.name

    @property
    def cursor(self) -> int:
        """Bytes written so far (next block's offset)."""
        return self._cursor

    @property
    def refs(self) -> int:
        """Outstanding descriptor acquisitions."""
        return self._refs

    @property
    def closed(self) -> bool:
        return self._shm is None

    # -- writing -----------------------------------------------------------

    def _reserve(self, rows: int) -> tuple[int, np.ndarray | None]:
        """Append a block header; returns the offset and payload view."""
        if self._shm is None:
            raise FlowError("row buffer is closed")
        needed = block_bytes(rows)
        if self._cursor + needed > self.capacity:
            raise FlowError(
                f"segment {self.name} full: {needed} bytes needed at "
                f"offset {self._cursor}, capacity {self.capacity}"
            )
        offset = self._cursor
        self._shm.buf[offset:offset + ROW_HEADER_SIZE] = \
            pack_row_header(rows)
        dest = None
        if rows:
            dest = np.frombuffer(
                self._shm.buf,
                dtype=FLOW_DTYPE,
                count=rows,
                offset=offset + ROW_HEADER_SIZE,
            )
        self._cursor = offset + needed
        if obs_metrics.enabled():
            _BYTES_STAGED.inc(needed)
        return offset, dest

    def write(self, table: FlowTable) -> RowSlice:
        """Append one table as a row block; returns its descriptor."""
        rows = len(table)
        offset, dest = self._reserve(rows)
        if dest is not None:
            np.copyto(dest, table._data, casting="no")
            del dest  # drop the buffer export before any close()
        return RowSlice(self.name, offset, rows)

    # -- lifecycle ---------------------------------------------------------

    def acquire(self) -> None:
        """Mark this segment's descriptors as in flight."""
        self._refs += 1

    def release(self) -> None:
        """Drop one in-flight acquisition."""
        if self._refs <= 0:
            raise FlowError("release() without matching acquire()")
        self._refs -= 1

    def rewind(self) -> None:
        """Recycle the segment for the next fan-out.

        Refuses while descriptors are outstanding — recycling under a
        live reader would hand it someone else's rows.
        """
        if self._refs:
            raise FlowError(
                f"segment {self.name} still has {self._refs} "
                f"outstanding acquisitions"
            )
        self._cursor = 0

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent, crash-tolerant)."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        _LIVE.pop(shm.name, None)
        logger.debug("closed shm segment %s", shm.name)
        if obs_metrics.enabled():
            _SEGMENTS_LIVE.set(len(_LIVE))
        try:
            shm.close()
        except BufferError:
            # A live numpy view still exports the mapping; leave the
            # map to the GC but still remove the name below.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "RowBuffer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- worker-side attach ------------------------------------------------------

#: Attached segments by name; one mapping per segment per process, kept
#: for the process lifetime (segments are recycled across fan-outs, so
#: re-attaching per task would dominate small shards).
_ATTACHED: dict[str, object] = {}


def _attach(name: str):
    segment = _ATTACHED.get(name)
    if segment is None:
        from multiprocessing import shared_memory

        # NOTE on the resource tracker: attaching registers the name
        # with this process's tracker. That is only safe because shm
        # IPC is gated on the ``fork`` start method — forked workers
        # inherit the *parent's* tracker, so their registrations
        # dedupe into the creator's entry instead of spawning a
        # second tracker that would unlink the segment when the
        # worker exits (the Python 3.8+ spawn-context sharp edge).
        segment = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = segment
    return segment


def attach_slice(descriptor: RowSlice) -> FlowTable:
    """Map one descriptor's rows as a read-only :class:`FlowTable`.

    Validates the block header (magic + schema version + row count
    against the descriptor) before exposing any rows. The returned
    table aliases the shared segment — zero bytes are copied.
    """
    segment = _attach(descriptor.segment)
    header = bytes(
        segment.buf[
            descriptor.offset:descriptor.offset + ROW_HEADER_SIZE
        ]
    )
    rows = unpack_row_header(header, source=descriptor.segment)
    if rows != descriptor.rows:
        raise CodecError(
            f"{descriptor.segment}: descriptor says {descriptor.rows} "
            f"rows at offset {descriptor.offset}, header says {rows}"
        )
    data = np.frombuffer(
        segment.buf,
        dtype=FLOW_DTYPE,
        count=rows,
        offset=descriptor.offset + ROW_HEADER_SIZE,
    )
    data.flags.writeable = False
    return FlowTable(data)


def detach_slices() -> None:
    """Drop this process's attachment cache (tests / pool teardown)."""
    for segment in _ATTACHED.values():
        try:
            segment.close()
        except BufferError:
            pass
    _ATTACHED.clear()
