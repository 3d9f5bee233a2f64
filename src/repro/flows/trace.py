"""Flow-trace container with time binning, backed by a columnar core.

Detectors in the paper operate on fixed time bins (5-minute intervals in
the GEANT deployment); the extraction step then pulls all flows of the
alarmed bin(s). :class:`FlowTrace` holds an ordered collection of flows
plus the bin geometry and provides slicing, binning and summary
statistics.

Since the columnar refactor the trace stores its flows as a
:class:`~repro.flows.table.FlowTable` sorted by start time. Window and
bin queries come in two flavours: the historical record-based API
(:meth:`between`, :meth:`bin`, iteration — which lazily materializes
:class:`FlowRecord` objects and caches them) and the columnar API
(:meth:`between_table`, :meth:`bin_table`, :meth:`filter`,
:meth:`query_table`) that stays vectorized end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import StoreError
from repro.flows.filter import FilterNode, compile_mask
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable

__all__ = ["TraceStats", "FlowTrace", "DEFAULT_BIN_SECONDS"]

#: The paper's deployment uses 5-minute NetFlow bins.
DEFAULT_BIN_SECONDS = 300.0


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Aggregate counters for a trace or a slice of one."""

    flows: int
    packets: int
    bytes: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Covered wall-clock span in seconds."""
        return max(0.0, self.end - self.start)


class FlowTrace:
    """An ordered, time-binned collection of flows.

    Rows are kept sorted by start time; all queries are by flow *start*
    time, matching how NfDump assigns flows to capture files.
    """

    def __init__(
        self,
        flows: Iterable[FlowRecord] | FlowTable = (),
        bin_seconds: float = DEFAULT_BIN_SECONDS,
        origin: float | None = None,
    ) -> None:
        if bin_seconds <= 0:
            raise StoreError(f"bin_seconds must be positive: {bin_seconds!r}")
        table = flows if isinstance(flows, FlowTable) \
            else FlowTable.from_records(flows)
        self._table = table.sorted_by_start()
        self.bin_seconds = float(bin_seconds)
        if origin is None:
            origin = float(self._table.start[0]) if len(self._table) else 0.0
        #: Timestamp of the left edge of bin 0.
        self.origin = float(origin)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: FlowTable,
        bin_seconds: float = DEFAULT_BIN_SECONDS,
        origin: float | None = None,
    ) -> "FlowTrace":
        """Build a trace over an existing table (no copy if sorted)."""
        return cls(table, bin_seconds=bin_seconds, origin=origin)

    def extend(self, flows: Iterable[FlowRecord] | FlowTable) -> None:
        """Merge more flows into the trace, keeping order."""
        added = flows if isinstance(flows, FlowTable) \
            else FlowTable.from_records(flows)
        if not len(added):
            return
        merged = FlowTable.concat([self._table, added])
        self._table = merged.sorted_by_start()

    def copy(self) -> "FlowTrace":
        """Shallow copy (tables are never mutated, so this is cheap)."""
        clone = FlowTrace(bin_seconds=self.bin_seconds, origin=self.origin)
        clone._table = self._table
        return clone

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._table.to_records())

    def __getitem__(self, index: int) -> FlowRecord:
        return self._table[index]

    def __bool__(self) -> bool:
        return bool(self._table)

    @property
    def table(self) -> FlowTable:
        """The columnar view of the trace (sorted by start time)."""
        return self._table

    # -- time geometry -------------------------------------------------------

    @property
    def span(self) -> tuple[float, float]:
        """``(first_start, last_start)`` or ``(origin, origin)`` if empty."""
        if not len(self._table):
            return (self.origin, self.origin)
        starts = self._table.start
        return (float(starts[0]), float(starts[-1]))

    @property
    def bin_count(self) -> int:
        """Number of bins from ``origin`` through the last flow start."""
        if not len(self._table):
            return 0
        last = float(self._table.start[-1])
        if last < self.origin:
            return 0
        return int((last - self.origin) // self.bin_seconds) + 1

    def bin_index(self, timestamp: float) -> int:
        """Bin number containing ``timestamp`` (may be negative)."""
        return int((timestamp - self.origin) // self.bin_seconds)

    def bin_interval(self, index: int) -> tuple[float, float]:
        """``[start, end)`` interval of bin ``index``."""
        start = self.origin + index * self.bin_seconds
        return (start, start + self.bin_seconds)

    # -- queries -------------------------------------------------------------

    def _window_bounds(self, start: float, end: float) -> tuple[int, int]:
        if end < start:
            raise StoreError(f"inverted interval [{start}, {end})")
        starts = self._table.start
        lo = int(np.searchsorted(starts, start, side="left"))
        hi = int(np.searchsorted(starts, end, side="left"))
        return lo, hi

    def between(self, start: float, end: float) -> list[FlowRecord]:
        """Flows whose start time lies in ``[start, end)``."""
        lo, hi = self._window_bounds(start, end)
        return self._table.records(lo, hi)

    def between_table(self, start: float, end: float) -> FlowTable:
        """Columnar window query: rows starting in ``[start, end)``."""
        lo, hi = self._window_bounds(start, end)
        return self._table.select(slice(lo, hi))

    def query_table(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> FlowTable:
        """Window+filter query: rows starting in ``[start, end)`` that
        match ``flow_filter``, ordered by ``(start, 5-tuple)``.

        The in-memory form of ``nfdump -R <files> '<filter>'``: the
        window is a bisection of the start-sorted table, the filter a
        vectorized mask, and no :class:`FlowRecord` is materialized.
        """
        table = self.between_table(start, end)
        if flow_filter is not None and len(table):
            table = table.select(compile_mask(flow_filter)(table))
        return table.in_query_order()

    @property
    def slice_seconds(self) -> float:
        """The grid width a :class:`~repro.system.backend.FlowBackend`
        pads and baselines alarm windows by (``bin_seconds``)."""
        return self.bin_seconds

    def bin_table(self, index: int) -> FlowTable:
        """Columnar slice of bin ``index``."""
        start, end = self.bin_interval(index)
        return self.between_table(start, end)

    def bin_tables(self) -> Iterator[tuple[int, FlowTable]]:
        """Iterate ``(bin_index, table)`` over all non-negative bins."""
        for index in range(self.bin_count):
            yield index, self.bin_table(index)

    def where(
        self, predicate: Callable[[FlowRecord], bool]
    ) -> "FlowTrace":
        """New trace holding only flows satisfying ``predicate``."""
        records = self._table.to_records()
        if records:
            mask = np.fromiter(
                (predicate(f) for f in records), dtype=bool,
                count=len(records),
            )
            selected = self._table.select(mask)
        else:
            selected = self._table
        return FlowTrace(
            selected, bin_seconds=self.bin_seconds, origin=self.origin
        )

    def filter(self, expression) -> "FlowTrace":
        """New trace of the rows matching an nfdump-style expression.

        The columnar counterpart of :meth:`where`: the expression is
        compiled to a vectorized mask, no records are materialized.
        """
        mask = compile_mask(expression)(self._table)
        return FlowTrace(
            self._table.select(mask),
            bin_seconds=self.bin_seconds,
            origin=self.origin,
        )

    # -- statistics ------------------------------------------------------------

    def stats(
        self, start: float | None = None, end: float | None = None
    ) -> TraceStats:
        """Aggregate counters over the whole trace or a sub-interval."""
        if start is None and end is None:
            selected = self._table
        else:
            span = self.span
            lo = span[0] if start is None else start
            hi = span[1] + 1.0 if end is None else end
            selected = self.between_table(lo, hi)
        if len(selected):
            first = float(selected.start.min())
            last = float(selected.end.max())
        else:
            first = last = self.origin
        return TraceStats(
            flows=len(selected),
            packets=selected.total_packets(),
            bytes=selected.total_bytes(),
            start=first,
            end=last,
        )

    def __repr__(self) -> str:
        lo, hi = self.span
        return (
            f"FlowTrace({len(self)} flows, bins of {self.bin_seconds:.0f}s, "
            f"span [{lo:.0f}, {hi:.0f}])"
        )
