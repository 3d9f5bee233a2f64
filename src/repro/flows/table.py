"""Columnar flow storage: the :class:`FlowTable`.

The hot path of the pipeline — decode, filter, window queries, feature
extraction, transaction encoding — historically moved one
:class:`~repro.flows.record.FlowRecord` object at a time, which caps
throughput far below the millions-of-flows-per-interval regime of the
paper's GEANT deployment. A :class:`FlowTable` keeps the same flow set
as a numpy structured array (one contiguous column per NetFlow field),
so every layer above it can operate with vectorized kernels instead of
per-record Python loops.

Design contract:

* a table is *logically immutable*: every operation (`select`,
  `sorted_by_start`, `in_query_order`, `concat`) returns a new table
  (or the table itself, when nothing would change) and never mutates
  column data in place, so slices and copies can share buffers safely;
* the record API stays available through **lazy materialization**:
  ``table.record(i)`` / ``table.records(lo, hi)`` build
  :class:`FlowRecord` objects on demand and cache them per row, so the
  record path pays the object cost at most once per table;
* row order is meaningful (insertion/time order); all operations are
  order-preserving or use stable sorts, matching the semantics of the
  record-based containers they replace.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import FlowError
from repro.flows.record import FlowFeature, FlowRecord

__all__ = ["FLOW_DTYPE", "FLOW_SCHEMA_VERSION", "FlowTable"]

#: Version of the on-disk/on-wire ``FLOW_DTYPE`` layout. Bump whenever
#: a column is added, removed, resized or reordered; every archive
#: partition header (:mod:`repro.archive.layout`) carries it so stale
#: bytes fail with a clear :class:`~repro.errors.CodecError` instead of
#: silently misparsing.
FLOW_SCHEMA_VERSION = 1

#: Column layout of a flow table; mirrors :class:`FlowRecord` fields.
FLOW_DTYPE = np.dtype(
    [
        ("src_ip", "<u4"),
        ("dst_ip", "<u4"),
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("proto", "<u2"),
        ("tcp_flags", "<u2"),
        ("router", "<u4"),
        ("sampling_rate", "<u4"),
        ("packets", "<i8"),
        ("bytes", "<i8"),
        ("start", "<f8"),
        ("end", "<f8"),
    ]
)

_COLUMN_NAMES = tuple(FLOW_DTYPE.names)

#: One row as opaque bytes. numpy gathers and copies structured rows
#: field by field; over this same-size view the same operation is one
#: byte move per row, several times faster, and bit-identical.
_ROW_BYTES = np.dtype((np.void, FLOW_DTYPE.itemsize))

#: The keys that order rows of equal ``start``, most significant first.
_TIE_KEYS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")

_FEATURE_TO_COLUMN = {
    FlowFeature.SRC_IP: "src_ip",
    FlowFeature.DST_IP: "dst_ip",
    FlowFeature.SRC_PORT: "src_port",
    FlowFeature.DST_PORT: "dst_port",
    FlowFeature.PROTO: "proto",
}

#: Inclusive per-column bounds checked by :meth:`FlowTable.from_columns`.
_COLUMN_BOUNDS = {
    "src_ip": (0, 0xFFFFFFFF),
    "dst_ip": (0, 0xFFFFFFFF),
    "src_port": (0, 0xFFFF),
    "dst_port": (0, 0xFFFF),
    "proto": (0, 0xFF),
    "tcp_flags": (0, 0xFF),
    "router": (0, 0xFFFFFFFF),
    "sampling_rate": (1, 0xFFFFFFFF),
}


class FlowTable:
    """A flow set stored column-wise in a numpy structured array."""

    __slots__ = ("_data", "_rows")

    def __init__(self, data: np.ndarray) -> None:
        if data.dtype != FLOW_DTYPE:
            raise FlowError(
                f"flow table needs dtype {FLOW_DTYPE}, got {data.dtype}"
            )
        if data.ndim != 1:
            raise FlowError("flow table data must be one-dimensional")
        self._data = data
        #: Per-row FlowRecord cache, allocated on first materialization.
        self._rows: list[FlowRecord | None] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "FlowTable":
        """A table with zero rows."""
        return cls(np.empty(0, dtype=FLOW_DTYPE))

    @classmethod
    def from_records(
        cls,
        records: Iterable[FlowRecord],
        cache_records: bool = True,
    ) -> "FlowTable":
        """Build a table from flow records (order preserved).

        With ``cache_records`` (the default) the input objects seed the
        materialization cache, so the record view costs nothing extra;
        pass False on ingest paths that should drop the objects.
        """
        if isinstance(records, FlowTable):
            return records
        materialized = (
            records if isinstance(records, (list, tuple)) else list(records)
        )
        data = np.empty(len(materialized), dtype=FLOW_DTYPE)
        for index, flow in enumerate(materialized):
            data[index] = (
                flow.src_ip,
                flow.dst_ip,
                flow.src_port,
                flow.dst_port,
                flow.proto,
                flow.tcp_flags,
                flow.router,
                flow.sampling_rate,
                flow.packets,
                flow.bytes,
                flow.start,
                flow.end,
            )
        table = cls(data)
        if cache_records and materialized:
            table._rows = list(materialized)
        return table

    @classmethod
    def from_columns(
        cls,
        *,
        src_ip: Sequence[int] | np.ndarray,
        dst_ip: Sequence[int] | np.ndarray,
        src_port: Sequence[int] | np.ndarray,
        dst_port: Sequence[int] | np.ndarray,
        proto: Sequence[int] | np.ndarray,
        packets: Sequence[int] | np.ndarray | None = None,
        bytes: Sequence[int] | np.ndarray | None = None,
        start: Sequence[float] | np.ndarray | None = None,
        end: Sequence[float] | np.ndarray | None = None,
        tcp_flags: Sequence[int] | np.ndarray | None = None,
        router: Sequence[int] | np.ndarray | None = None,
        sampling_rate: Sequence[int] | np.ndarray | None = None,
        validate: bool = True,
    ) -> "FlowTable":
        """Build a table from parallel column arrays.

        Optional columns default to the :class:`FlowRecord` defaults.
        With ``validate`` (the default) every column is range-checked
        before the lossy cast into the packed dtype, so malformed input
        raises :class:`FlowError` instead of silently wrapping.
        """
        columns = {
            "src_ip": src_ip,
            "dst_ip": dst_ip,
            "src_port": src_port,
            "dst_port": dst_port,
            "proto": proto,
            "tcp_flags": tcp_flags,
            "router": router,
            "sampling_rate": sampling_rate,
            "packets": packets,
            "bytes": bytes,
            "start": start,
            "end": end,
        }
        length = len(np.asarray(src_ip))
        defaults = {
            "packets": 1,
            "bytes": 64,
            "start": 0.0,
            "end": 0.0,
            "tcp_flags": 0,
            "router": 0,
            "sampling_rate": 1,
        }
        data = np.empty(length, dtype=FLOW_DTYPE)
        for name in _COLUMN_NAMES:
            column = columns[name]
            if column is None:
                data[name] = defaults[name]
                continue
            array = np.asarray(column)
            if array.shape != (length,):
                raise FlowError(
                    f"column {name!r} has shape {array.shape}; "
                    f"expected ({length},)"
                )
            if validate and name in _COLUMN_BOUNDS and length:
                low, high = _COLUMN_BOUNDS[name]
                if array.min() < low or array.max() > high:
                    raise FlowError(
                        f"column {name!r} has values outside [{low}, {high}]"
                    )
            data[name] = array
        if validate and length:
            if data["packets"].min() < 0 or data["bytes"].min() < 0:
                raise FlowError("negative packet/byte counters")
            if bool((data["end"] < data["start"]).any()):
                raise FlowError("flow ends before it starts")
        return cls(data)

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """Concatenate tables, preserving order."""
        tables = [t for t in tables if len(t)]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]
        return cls(
            np.concatenate([t._data.view(_ROW_BYTES) for t in tables])
            .view(FLOW_DTYPE)
        )

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(len(self._data))

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.to_records())

    def __getitem__(
        self, index: "int | slice | np.ndarray"
    ) -> "FlowRecord | list[FlowRecord] | FlowTable":
        """Int → record; slice → list of records; array → sub-table."""
        if isinstance(index, (int, np.integer)):
            return self.record(int(index))
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step == 1:
                return self.records(lo, hi)
            return self.to_records()[index]
        return self.select(index)

    def __repr__(self) -> str:
        return f"FlowTable({len(self)} flows)"

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Raw column array (shared buffer — do not mutate)."""
        if name not in _COLUMN_NAMES:
            raise FlowError(f"unknown flow column {name!r}")
        return self._data[name]

    @property
    def src_ip(self) -> np.ndarray:
        return self._data["src_ip"]

    @property
    def dst_ip(self) -> np.ndarray:
        return self._data["dst_ip"]

    @property
    def src_port(self) -> np.ndarray:
        return self._data["src_port"]

    @property
    def dst_port(self) -> np.ndarray:
        return self._data["dst_port"]

    @property
    def proto(self) -> np.ndarray:
        return self._data["proto"]

    @property
    def tcp_flags(self) -> np.ndarray:
        return self._data["tcp_flags"]

    @property
    def router(self) -> np.ndarray:
        return self._data["router"]

    @property
    def sampling_rate(self) -> np.ndarray:
        return self._data["sampling_rate"]

    @property
    def packets(self) -> np.ndarray:
        return self._data["packets"]

    @property
    def bytes(self) -> np.ndarray:
        return self._data["bytes"]

    @property
    def start(self) -> np.ndarray:
        return self._data["start"]

    @property
    def end(self) -> np.ndarray:
        return self._data["end"]

    @property
    def duration(self) -> np.ndarray:
        """Per-row flow duration in seconds (computed, not stored)."""
        return self._data["end"] - self._data["start"]

    def feature_column(self, feature: FlowFeature) -> np.ndarray:
        """Column backing one of the five mining features."""
        return self._data[_FEATURE_TO_COLUMN[feature]]

    # -- derived tables ----------------------------------------------------

    def select(self, selector: "np.ndarray | slice") -> "FlowTable":
        """New table of the rows picked by a mask, index array or slice."""
        if isinstance(selector, slice):
            return FlowTable(self._data[selector])
        selector = np.asarray(selector)
        if selector.dtype == bool and selector.shape != (len(self),):
            raise FlowError(
                f"mask of length {selector.shape} against "
                f"{len(self)}-row table"
            )
        return FlowTable(
            self._data.view(_ROW_BYTES)[selector].view(FLOW_DTYPE)
        )

    def copy(self) -> "FlowTable":
        """New table owning a copy of the rows: for keeping rows of a
        buffer its producer may reuse."""
        return FlowTable(self._data.view(_ROW_BYTES).copy().view(FLOW_DTYPE))

    def sorted_by_start(self) -> "FlowTable":
        """New table stably sorted by flow start time."""
        starts = self._data["start"]
        if len(starts) < 2 or bool((starts[:-1] <= starts[1:]).all()):
            return self
        order = np.argsort(starts, kind="stable")
        table = self.select(order)
        if self._rows is not None:
            table._rows = [self._rows[i] for i in order.tolist()]
        return table

    def in_query_order(self) -> "FlowTable":
        """The table in canonical query order: ``(start, 5-tuple)``.

        The permutation of ``np.lexsort((proto, dst_port, src_port,
        dst_ip, src_ip, start))``, computed cheaply: ``start`` is the
        primary key, so one stable sort on it settles every row except
        those inside runs of equal ``start`` — the only place the
        5-tuple is consulted.

        Rows whose ``start`` is already non-decreasing (a sealed
        partition or window read back) are checked without sorting:
        each adjacent pair of tied rows is compared on the 5-tuple, one
        key at a time. When no pair is out of order the table is
        returned as is; otherwise the tied rows are sorted as above.
        """
        starts = self._data["start"]
        count = len(starts)
        if count < 2:
            return self
        if bool((starts[:-1] <= starts[1:]).all()):
            if self._ties_in_order(starts):
                return self
            order = np.arange(count)
        else:
            order = np.argsort(starts, kind="stable")
            starts = starts[order]
        tied = starts[1:] == starts[:-1]
        if tied.any():
            in_run = np.zeros(count, dtype=bool)
            in_run[1:] = tied
            in_run[:-1] |= tied
            positions = np.flatnonzero(in_run)
            rows = self._data[order[positions]]
            order[positions] = order[positions][np.lexsort(
                tuple(rows[name] for name in reversed(_TIE_KEYS))
                + (rows["start"],)
            )]
        if bool((order[1:] > order[:-1]).all()):
            return self
        return self.select(order)

    def _ties_in_order(self, starts: np.ndarray) -> bool:
        """Is every adjacent pair of rows with equal ``starts`` already
        in 5-tuple order? (stable: an equal 5-tuple is in order)"""
        left = (starts[1:] == starts[:-1]).nonzero()[0]
        for name in _TIE_KEYS:
            if not len(left):
                break
            column = self._data[name]
            first, second = column[left], column[left + 1]
            if bool((first > second).any()):
                return False
            left = left[first == second]
        return True

    def heaviest_first(self, limit: int | None = None) -> "FlowTable":
        """The ``limit`` heaviest rows (all by default): most packets
        first, earlier ``start`` and then table order breaking ties —
        the drill-down and evidence order."""
        order = np.lexsort((self.start, -self.packets))
        return self.select(order if limit is None else order[:limit])

    # -- aggregates --------------------------------------------------------

    def total_packets(self) -> int:
        """Sum of the packet counters."""
        return int(self._data["packets"].sum()) if len(self) else 0

    def total_bytes(self) -> int:
        """Sum of the byte counters."""
        return int(self._data["bytes"].sum()) if len(self) else 0

    # -- lazy record materialization ---------------------------------------

    def record(self, index: int) -> FlowRecord:
        """Materialize (and cache) the record at ``index``."""
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"row {index} outside table of {length}")
        if self._rows is None:
            self._rows = [None] * length
        cached = self._rows[index]
        if cached is None:
            row = self._data[index]
            cached = FlowRecord(
                src_ip=int(row["src_ip"]),
                dst_ip=int(row["dst_ip"]),
                src_port=int(row["src_port"]),
                dst_port=int(row["dst_port"]),
                proto=int(row["proto"]),
                packets=int(row["packets"]),
                bytes=int(row["bytes"]),
                start=float(row["start"]),
                end=float(row["end"]),
                tcp_flags=int(row["tcp_flags"]),
                router=int(row["router"]),
                sampling_rate=int(row["sampling_rate"]),
            )
            self._rows[index] = cached
        return cached

    def _build_records(self, start: int, stop: int) -> list[FlowRecord]:
        """Materialize rows ``[start, stop)`` without touching the cache."""
        sub = self._data[start:stop]
        columns = [sub[name].tolist() for name in _COLUMN_NAMES]
        built = []
        for values in zip(*columns):
            (src_ip, dst_ip, src_port, dst_port, proto, tcp_flags,
             router, sampling_rate, packets, bytes_, first, last) = values
            built.append(
                FlowRecord(
                    src_ip=src_ip,
                    dst_ip=dst_ip,
                    src_port=src_port,
                    dst_port=dst_port,
                    proto=proto,
                    packets=packets,
                    bytes=bytes_,
                    start=first,
                    end=last,
                    tcp_flags=tcp_flags,
                    router=router,
                    sampling_rate=sampling_rate,
                )
            )
        return built

    def records(
        self, start: int = 0, stop: int | None = None
    ) -> list[FlowRecord]:
        """Materialize the records of rows ``[start, stop)``.

        Materialized records are kept on the table, so repeated record
        views are free.
        """
        length = len(self)
        if stop is None:
            stop = length
        start = max(0, min(start, length))
        stop = max(start, min(stop, length))
        if self._rows is None:
            self._rows = [None] * length
        rows = self._rows
        if any(rows[i] is None for i in range(start, stop)):
            for offset, record in enumerate(self._build_records(start, stop)):
                index = start + offset
                if rows[index] is None:
                    rows[index] = record
        return rows[start:stop]

    def to_records(self) -> list[FlowRecord]:
        """The whole table as flow records (cached after the first call)."""
        return self.records(0, len(self))
