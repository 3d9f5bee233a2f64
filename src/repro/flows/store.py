"""A time-partitioned flow store modelled on NfDump.

NfDump rotates capture files every few minutes and answers queries of the
form "all flows in [t0, t1) matching <filter>". :class:`FlowStore`
reproduces that interface in-process: flows are partitioned into
fixed-width time slices (default 5 minutes, like the GEANT deployment),
each slice held as a columnar :class:`~repro.flows.table.FlowTable`
chunk, and queries combine a time range with an optional nfdump-style
filter expression compiled to a vectorized mask.

The store is the "NfDump backend" box of the paper's Figure 1; the
extraction engine and the operator console only talk to it through
:meth:`FlowStore.query` / :meth:`FlowStore.query_table` and the
statistics methods. ``query_table`` is the hot path: it answers a
window+filter query as a table slice without materializing a single
:class:`FlowRecord`; ``query`` is the backward-compatible record view
of the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import StoreError
from repro.flows.aggregate import ranked_from_histogram, table_histogram
from repro.flows.filter import FilterNode, compile_mask
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS, FlowTrace, TraceStats

__all__ = ["SliceInfo", "FlowStore"]


@dataclass(frozen=True, slots=True)
class SliceInfo:
    """Metadata describing one rotation slice (one "capture file")."""

    index: int
    start: float
    end: float
    flows: int
    packets: int
    bytes: int


class _Slice:
    """One rotation slice: consolidated table chunks + pending inserts."""

    __slots__ = ("chunks", "pending")

    def __init__(self) -> None:
        self.chunks: list[FlowTable] = []
        self.pending: list[FlowRecord] = []

    def __len__(self) -> int:
        return sum(len(c) for c in self.chunks) + len(self.pending)

    def table(self) -> FlowTable:
        """Consolidate pending records and chunks into one table."""
        if self.pending:
            self.chunks.append(FlowTable.from_records(self.pending))
            self.pending = []
        if len(self.chunks) > 1:
            self.chunks = [FlowTable.concat(self.chunks)]
        return self.chunks[0] if self.chunks else FlowTable.empty()


class FlowStore:
    """In-process, time-partitioned flow archive with nfdump-style queries.

    Parameters
    ----------
    slice_seconds:
        Rotation interval; flows are partitioned by start time into
        ``[origin + k*slice_seconds, origin + (k+1)*slice_seconds)``.
    origin:
        Timestamp of the left edge of slice 0. Defaults to the first
        inserted flow's start time floored to the slice width.
    """

    def __init__(
        self,
        slice_seconds: float = DEFAULT_BIN_SECONDS,
        origin: float | None = None,
    ) -> None:
        if slice_seconds <= 0:
            raise StoreError(
                f"slice_seconds must be positive: {slice_seconds!r}"
            )
        self.slice_seconds = float(slice_seconds)
        self._origin = origin
        self._slices: dict[int, _Slice] = {}
        self._total_flows = 0
        #: Per-slice count of rows already handed to :meth:`spill_to`.
        self._spilled_rows: dict[int, int] = {}

    # -- insertion -------------------------------------------------------

    def _fix_origin(self, first_start: float) -> None:
        if self._origin is None:
            self._origin = math.floor(
                first_start / self.slice_seconds
            ) * self.slice_seconds

    def insert(self, flow: FlowRecord) -> None:
        """Insert a single flow record."""
        self._fix_origin(flow.start)
        index = self._slice_index(flow.start)
        self._slices.setdefault(index, _Slice()).pending.append(flow)
        self._total_flows += 1

    def insert_many(self, flows: Iterable[FlowRecord]) -> int:
        """Insert many flows; returns the number inserted."""
        count = 0
        for flow in flows:
            self.insert(flow)
            count += 1
        return count

    def set_origin(self, origin: float) -> None:
        """Pin slice 0's left edge before any insert has fixed it.

        Lets a caller that partitions rows itself (the streaming
        window ring) agree with the store on slice geometry up front.
        """
        if self._origin is not None and self._origin != origin:
            raise StoreError(
                f"origin already fixed at {self._origin}; "
                f"cannot move it to {origin}"
            )
        self._origin = float(origin)

    def insert_partitioned(
        self, chunks: Iterable[tuple[int, FlowTable]]
    ) -> int:
        """Bulk-insert chunks already partitioned by slice index.

        The caller asserts every row of ``chunk`` starts inside slice
        ``index`` relative to this store's origin (which must already
        be fixed) — no re-partitioning happens. This is the zero-copy
        ingest path of the streaming ring, which has routed rows by
        window anyway. Returns the number of rows inserted.
        """
        if self._origin is None:
            raise StoreError(
                "origin must be fixed before a partitioned insert"
            )
        inserted = 0
        for index, chunk in chunks:
            if not len(chunk):
                continue
            self._slices.setdefault(int(index), _Slice()).chunks.append(
                chunk
            )
            inserted += len(chunk)
        self._total_flows += inserted
        return inserted

    def insert_table(self, table: FlowTable) -> int:
        """Bulk-insert a columnar chunk, partitioning rows by slice.

        This is the vectorized ingest path: slice assignment happens
        with one floor-divide over the start column instead of one
        Python call per flow. Returns the number of rows inserted.
        """
        if not len(table):
            return 0
        self._fix_origin(float(table.start[0]))
        indices = np.floor(
            (table.start - self.origin) / self.slice_seconds
        ).astype(np.int64)
        for index in np.unique(indices):
            chunk = table.select(indices == index)
            self._slices.setdefault(int(index), _Slice()).chunks.append(chunk)
        self._total_flows += len(table)
        return len(table)

    @classmethod
    def from_trace(
        cls, trace: FlowTrace, slice_seconds: float | None = None
    ) -> "FlowStore":
        """Build a store holding all flows of ``trace``."""
        store = cls(
            slice_seconds=slice_seconds or trace.bin_seconds,
            origin=trace.origin,
        )
        store.insert_table(trace.table)
        return store

    # -- geometry ----------------------------------------------------------

    @property
    def origin(self) -> float:
        """Left edge of slice 0 (0.0 until the first insert fixes it)."""
        return self._origin if self._origin is not None else 0.0

    def _slice_index(self, timestamp: float) -> int:
        return int(math.floor((timestamp - self.origin) / self.slice_seconds))

    def slice_interval(self, index: int) -> tuple[float, float]:
        """``[start, end)`` of slice ``index``."""
        start = self.origin + index * self.slice_seconds
        return (start, start + self.slice_seconds)

    def slices(self) -> list[SliceInfo]:
        """Metadata for every populated slice, ordered by time."""
        infos = []
        for index in sorted(self._slices):
            table = self._slices[index].table()
            start, end = self.slice_interval(index)
            infos.append(
                SliceInfo(
                    index=index,
                    start=start,
                    end=end,
                    flows=len(table),
                    packets=table.total_packets(),
                    bytes=table.total_bytes(),
                )
            )
        return infos

    def __len__(self) -> int:
        return self._total_flows

    # -- queries ------------------------------------------------------------

    def _window_tables(self, start: float, end: float) -> list[FlowTable]:
        """Per-slice tables time-masked to ``[start, end)``, slice order."""
        if end < start:
            raise StoreError(f"inverted interval [{start}, {end})")
        if self._origin is None or not self._slices:
            return []
        first = self._slice_index(start)
        last = self._slice_index(end)
        if (self.origin + last * self.slice_seconds) == end:
            last -= 1  # half-open interval: skip the slice starting at end
        selected = []
        for index in range(first, last + 1):
            entry = self._slices.get(index)
            if entry is None:
                continue
            table = entry.table()
            starts = table.start
            mask = (starts >= start) & (starts < end)
            if mask.all():
                selected.append(table)
            elif mask.any():
                selected.append(table.select(mask))
        return selected

    def query_table(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> FlowTable:
        """Columnar query: rows starting in ``[start, end)`` matching
        ``flow_filter``, ordered by ``(start, 5-tuple)``.

        This is the nfdump equivalent of
        ``nfdump -R <files covering range> '<filter>'`` with no
        per-record Python work: the filter runs as a boolean mask and
        the result stays a table slice.
        """
        table = FlowTable.concat(self._window_tables(start, end))
        if flow_filter is not None and len(table):
            table = table.select(compile_mask(flow_filter)(table))
        return table.in_query_order()

    def slice_table(self, index: int) -> FlowTable:
        """Slice ``index``'s rows, consolidated, in insertion order."""
        entry = self._slices.get(index)
        return entry.table() if entry is not None else FlowTable.empty()

    def order_slice(self, index: int) -> FlowTable:
        """Slice ``index``'s rows in canonical query order, kept.

        The slice's consolidated table is replaced by its
        :meth:`~repro.flows.table.FlowTable.in_query_order` form, so
        window queries over it afterwards find the rows already
        ordered and sort nothing (the streaming ring seals each window
        through here). No flag records this: rows inserted later make
        the next query sort again, as before. A slice that has handed
        rows to :meth:`spill_to` is returned ordered but left in
        insertion order, which that method's bookkeeping counts in.
        """
        entry = self._slices.get(index)
        if entry is None:
            return FlowTable.empty()
        table = entry.table().in_query_order()
        if not self._spilled_rows.get(index):
            entry.chunks = [table]
        return table

    def query(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> list[FlowRecord]:
        """All flows starting in ``[start, end)`` matching ``flow_filter``.

        Record-based view of :meth:`query_table` (same rows, same
        order), kept for callers that still consume ``FlowRecord``.
        """
        return self.query_table(start, end, flow_filter).to_records()

    def count(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> TraceStats:
        """Aggregate counters over a query without materialising flows.

        A degenerate interval (``end < start``) yields empty stats, as
        it always has — only :meth:`query` treats it as an error.
        """
        if end < start:
            return TraceStats(
                flows=0, packets=0, bytes=0, start=start, end=start
            )
        tables = self._window_tables(start, end)
        if flow_filter is not None:
            mask_of = compile_mask(flow_filter)
            tables = [t.select(mask_of(t)) for t in tables]
            tables = [t for t in tables if len(t)]
        flows = sum(len(t) for t in tables)
        if flows == 0:
            return TraceStats(
                flows=0, packets=0, bytes=0, start=start, end=start
            )
        return TraceStats(
            flows=flows,
            packets=sum(t.total_packets() for t in tables),
            bytes=sum(t.total_bytes() for t in tables),
            start=min(float(t.start.min()) for t in tables),
            end=max(float(t.end.max()) for t in tables),
        )

    def top_feature_values(
        self,
        start: float,
        end: float,
        feature: FlowFeature,
        n: int = 10,
        by_packets: bool = False,
        flow_filter: str | FilterNode | None = None,
    ) -> list[tuple[int, int]]:
        """Top-``n`` values of one flow feature, nfdump's ``-s``
        statistics mode: the feature column counted through
        :func:`~repro.flows.aggregate.table_histogram`, ranked by
        weight with the string tie-break of
        :func:`~repro.flows.aggregate.ranked_from_histogram`.
        """
        if n <= 0:
            raise StoreError(f"n must be positive: {n!r}")
        if end < start:
            return []
        values, counts = table_histogram(
            self.query_table(start, end, flow_filter),
            feature, ("packets" if by_packets else "flows",),
        )
        return ranked_from_histogram(values, counts, n)

    def to_trace(
        self,
        start: float | None = None,
        end: float | None = None,
        bin_seconds: float | None = None,
    ) -> FlowTrace:
        """Materialise (a window of) the store as a :class:`FlowTrace`."""
        if not self._slices:
            return FlowTrace(
                bin_seconds=bin_seconds or self.slice_seconds,
                origin=self.origin,
            )
        indices = sorted(self._slices)
        lo = self.slice_interval(indices[0])[0] if start is None else start
        hi = self.slice_interval(indices[-1])[1] if end is None else end
        return FlowTrace(
            self.query_table(lo, hi),
            bin_seconds=bin_seconds or self.slice_seconds,
            origin=self.origin,
        )

    # -- persistence -------------------------------------------------------

    def spill_to(
        self,
        archive,
        before: float | None = None,
        expire: bool = False,
    ) -> int:
        """Persist whole slices into an on-disk archive.

        ``archive`` is an :class:`~repro.archive.writer.ArchiveWriter`
        (any object with ``ingest_table``/``flush``). With ``before``,
        only slices ending at or before that timestamp spill — the
        shape of a rotation policy: old slices go to disk, the live
        edge stays in RAM. With ``expire``, spilled slices are dropped
        from memory afterwards (the archive becomes their only copy).
        Returns the number of rows spilled.

        The store remembers, per slice, how many rows it has already
        handed over: repeated calls — the shape of a periodic
        ``spill_to(archive, before=watermark)`` rotation — never
        re-archive a row, and late rows arriving for an
        already-spilled slice are picked up by the next call (slice
        rows accumulate in insertion order, so "the first *n* rows
        are archived" stays true across appends). ``expire`` therefore
        only ever drops rows the archive holds. Slices spill in time
        order, rows in insertion order, so archive queries stay
        byte-identical to in-memory ones.
        """
        spilled = 0
        spilled_through: float | None = None
        for index in sorted(self._slices):
            end = self.slice_interval(index)[1]
            if before is not None and end > before:
                continue
            done = self._spilled_rows.get(index, 0)
            table = self._slices[index].table()
            if len(table) > done:
                archive.ingest_table(table.select(slice(done, None)))
                spilled += len(table) - done
                self._spilled_rows[index] = len(table)
            spilled_through = (
                end if spilled_through is None
                else max(spilled_through, end)
            )
        archive.flush()
        if expire and spilled_through is not None:
            self.expire_before(spilled_through)
        return spilled

    # -- retention ---------------------------------------------------------

    def expire_before(self, timestamp: float) -> int:
        """Drop whole slices ending at or before ``timestamp``.

        Mirrors NfDump's disk-budget expiry. Returns the number of flow
        records removed.
        """
        removed = 0
        for index in list(self._slices):
            if self.slice_interval(index)[1] <= timestamp:
                removed += len(self._slices.pop(index))
                # If the slice ever reappears (late rows), it holds
                # only *new* rows — the spill bookkeeping must restart
                # from zero or those rows would never reach the
                # archive.
                self._spilled_rows.pop(index, None)
        self._total_flows -= removed
        return removed
