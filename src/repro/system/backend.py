"""Flow backend facade — the "NfDump" box of Figure 1.

The GUI "integrates with a back-end that stores flow records and that is
based on the popular open-source tool NfDump". :class:`FlowBackend`
turns alarms into the window queries the extraction system needs:

* pull the flows of an alarm interval (plus padding bins);
* pull a pre-alarm baseline window for the popular-value filter;
* drill down into the raw flows matching an extracted itemset.

The backend is agnostic about where the rows live. ``store`` is any
object with a grid width ``slice_seconds`` and ``query_table(start,
end)`` returning the window's rows in ``(start, 5-tuple)`` order: a
bounded :class:`~repro.flows.trace.FlowTrace`, the stream's live
:class:`~repro.stream.window.WindowRing`, or an on-disk
:class:`~repro.archive.reader.ArchiveReader`. All three answer a
window with the same bytes, so triage runs unchanged against a trace,
a live ring or a persistent archive (the restart-recovery path:
:meth:`FlowBackend.from_archive`). Ad-hoc nfdump-style queries go to
the store itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.detect.base import Alarm
from repro.errors import StoreError
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.mining.items import Itemset

if TYPE_CHECKING:
    from repro.archive.reader import ArchiveReader
    from repro.stream.window import WindowRing

__all__ = ["BackendWindows", "FlowBackend"]


@dataclass(frozen=True, slots=True)
class BackendWindows:
    """Time windows the backend derives from an alarm."""

    interval: tuple[float, float]
    baseline: tuple[float, float]


class FlowBackend:
    """Query facade over the flow archive for one deployment."""

    def __init__(
        self,
        store: "FlowTrace | WindowRing | ArchiveReader",
        baseline_bins: int = 3,
        pad_bins: int = 0,
    ) -> None:
        if baseline_bins < 0 or pad_bins < 0:
            raise StoreError("baseline_bins and pad_bins must be >= 0")
        self.store = store
        self.baseline_bins = baseline_bins
        self.pad_bins = pad_bins

    @classmethod
    def from_trace(cls, trace: FlowTrace, **kwargs: int) -> "FlowBackend":
        """Build a backend over an in-memory trace."""
        return cls(trace, **kwargs)

    @classmethod
    def from_archive(
        cls, root_or_reader, **kwargs: int
    ) -> "FlowBackend":
        """Build a backend over a persistent on-disk archive.

        Accepts an archive directory path or an existing
        :class:`~repro.archive.reader.ArchiveReader`. Alarm, baseline
        and ad-hoc windows are then answered by zone-map-pruned mmap
        scans — the durable triage path that survives a process
        restart.
        """
        from repro.archive.reader import ArchiveReader

        reader = (
            root_or_reader
            if isinstance(root_or_reader, ArchiveReader)
            else ArchiveReader(root_or_reader)
        )
        return cls(reader, **kwargs)

    # -- alarm-driven windows ------------------------------------------------

    def windows_for(self, alarm: Alarm) -> BackendWindows:
        """Interval (padded) and baseline windows for one alarm."""
        width = self.store.slice_seconds
        start = alarm.start - self.pad_bins * width
        end = alarm.end + self.pad_bins * width
        baseline_start = start - self.baseline_bins * width
        return BackendWindows(
            interval=(start, end),
            baseline=(baseline_start, start),
        )

    def alarm_table(self, alarm: Alarm) -> FlowTable:
        """All flows of the (padded) alarm interval."""
        start, end = self.windows_for(alarm).interval
        return self.store.query_table(start, end)

    def baseline_table(self, alarm: Alarm) -> FlowTable:
        """Flows of the pre-alarm baseline window (may be empty)."""
        start, end = self.windows_for(alarm).baseline
        if end <= start:
            return FlowTable.empty()
        return self.store.query_table(start, end)

    # -- drill-down ---------------------------------------------------------

    def itemset_flows(
        self,
        itemset: Itemset,
        start: float,
        end: float,
        limit: int | None = None,
    ) -> list[FlowRecord]:
        """Raw flows matching an extracted itemset in a window.

        This is the GUI's "investigate the flows of any returned
        itemset" action. Flows come back heaviest (packets) first. The
        intersection runs as a mask over the window's table; only the
        reported flows are materialized.
        """
        if limit is not None and limit < 1:
            raise StoreError(f"limit must be >= 1: {limit!r}")
        window = self.store.query_table(start, end)
        matched = window.select(itemset.mask(window))
        return matched.heaviest_first(limit).to_records()
