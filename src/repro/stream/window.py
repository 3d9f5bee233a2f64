"""The bounded window ring: rotation slices, watermark, lateness.

:class:`WindowRing` is the streaming counterpart of NfDump's rotating
capture directory. Incoming :class:`~repro.flows.table.FlowTable`
chunks are routed by flow start time into fixed-width windows (the
rotation slices of its archive), a *watermark* tracks stream
progress, and windows close — permanently — once the watermark passes
their right edge.

The contract, which the test suite pins down:

* **Watermark** = max flow start time seen so far minus the lateness
  horizon. It is monotone: a chunk of old flows never moves it back.
* **Lateness horizon** ``lateness_seconds``: out-of-order rows are
  admitted as long as their window is still open. A window
  ``[s, s+W)`` closes when the watermark reaches ``s+W``, i.e. after
  the stream has progressed ``lateness_seconds`` past the window edge.
  ``lateness_seconds=None`` means an unbounded horizon — windows close
  only on :meth:`flush` (forensic replay of unordered archives).
* **Late rows** targeting a closed window are dropped and counted,
  never silently re-opened — a closed window's results are final.
* Windows close **in index order**, including empty ones, so a
  downstream consumer sees exactly the bin sequence a batch run over
  the same data would see.
* **Retention**: only the most recent ``retain_windows`` sealed
  windows stay in memory for triage (:meth:`query_table`); older ones
  expire like NfDump's disk budget.
* **Persistence**: with an ``archive``
  (:class:`~repro.archive.writer.ArchiveWriter`), every closed
  non-empty window is written to disk as one sealed, sorted partition
  *before* retention can evict it — the ring's eviction becomes
  tiering instead of loss, and a restarted process can triage
  against the archived windows.
* **One count per window**: the seal's one histogram pass
  (:meth:`~repro.detect.features.WindowCounts.from_table`) is both the
  archived partition's index and the detectors' input
  (:meth:`take_counts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.archive.index import FeatureIndex
from repro.detect.features import WindowCounts
from repro.errors import StoreError
from repro.flows.aggregate import distinct_values
from repro.flows.table import FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS

__all__ = ["ClosedWindow", "IngestResult", "WindowRing"]


@dataclass(frozen=True, slots=True)
class ClosedWindow:
    """One window the ring has sealed."""

    index: int
    start: float
    end: float
    flows: int


@dataclass(frozen=True, slots=True)
class IngestResult:
    """Outcome of routing one chunk into the ring.

    ``routed`` lists ``(window_index, rows)`` sub-chunks in window
    order, as the ring keeps them.
    """

    admitted: int
    late_dropped: int
    routed: tuple[tuple[int, FlowTable], ...]


class WindowRing:
    """Bounded ring of time-sliced windows: the live flow back-end."""

    def __init__(
        self,
        window_seconds: float = DEFAULT_BIN_SECONDS,
        origin: float | None = None,
        lateness_seconds: float | None = 0.0,
        retain_windows: int = 16,
        archive=None,
        weights: tuple[str, ...] | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise StoreError(
                f"window_seconds must be positive: {window_seconds!r}"
            )
        if lateness_seconds is not None and lateness_seconds < 0:
            raise StoreError(
                f"lateness_seconds must be >= 0: {lateness_seconds!r}"
            )
        if retain_windows < 1:
            raise StoreError(
                f"retain_windows must be >= 1: {retain_windows!r}"
            )
        self.window_seconds = float(window_seconds)
        self.lateness_seconds = lateness_seconds
        self.retain_windows = retain_windows
        #: Optional :class:`~repro.archive.writer.ArchiveWriter`;
        #: closed windows persist through it. Its rotation width must
        #: equal the ring's so window index == archive slice index.
        self.archive = archive
        #: The weightings the detectors read (a seal sums bytes only
        #: when one is ``"bytes"``); ``None``: no detectors.
        self.weights = weights
        self._counts: dict[int, WindowCounts] = {}
        if archive is not None and \
                archive.slice_seconds != float(window_seconds):
            raise StoreError(
                f"archive rotates every {archive.slice_seconds}s but the "
                f"ring closes {window_seconds}s windows; they must match"
            )
        if archive is not None and origin is None:
            # Reopening an archive whose grid is already fixed: the
            # ring must land windows on the same slice boundaries.
            origin = archive.origin
        self._origin = origin
        #: Row chunks per retained window, in arrival order; a sealed
        #: window holds one table.
        self._windows: dict[int, list[FlowTable]] = {}
        if archive is not None and origin is not None:
            archive.set_origin(float(origin))
        self._max_event = -math.inf
        self._next_to_close = 0
        self._max_populated = -1
        self._flows = 0
        self._late_dropped = 0

    # -- geometry ----------------------------------------------------------

    @property
    def origin(self) -> float | None:
        """Left edge of window 0; ``None`` until the first row fixes it."""
        return self._origin

    def interval(self, index: int) -> tuple[float, float]:
        """``[start, end)`` of window ``index``."""
        if self._origin is None:
            raise StoreError("ring origin not fixed yet (no rows ingested)")
        start = self._origin + index * self.window_seconds
        return (start, start + self.window_seconds)

    @property
    def slice_seconds(self) -> float:
        """The grid width a :class:`~repro.system.backend.FlowBackend`
        pads and baselines alarm windows by (``window_seconds``)."""
        return self.window_seconds

    @property
    def watermark(self) -> float:
        """Stream progress: max start time seen minus the lateness horizon.

        ``-inf`` before any row arrives, and forever with an unbounded
        lateness horizon (windows then close only on :meth:`flush`).
        """
        if self.lateness_seconds is None:
            return -math.inf
        return self._max_event - self.lateness_seconds

    @property
    def watermark_lag_seconds(self) -> float:
        """Event-time distance from the stream head to the close
        frontier — how far the next window due to seal trails the
        newest row seen. 0 before the origin is fixed; grows while a
        window fills, drops by ``window_seconds`` at each seal. The
        live gauge behind ``repro_stream_watermark_lag_seconds``.
        """
        if self._origin is None or self._max_event == -math.inf:
            return 0.0
        frontier = self.interval(self._next_to_close)[1]
        return max(0.0, self._max_event - frontier)

    @property
    def closed_through(self) -> int:
        """Number of windows closed so far (windows ``0..n-1``)."""
        return self._next_to_close

    @property
    def flows_ingested(self) -> int:
        return self._flows

    @property
    def late_dropped(self) -> int:
        return self._late_dropped

    # -- ingest ------------------------------------------------------------

    def _fix_origin(self, first_seen: float) -> None:
        if self._origin is None:
            self._origin = (
                math.floor(first_seen / self.window_seconds)
                * self.window_seconds
            )
            if self.archive is not None:
                self.archive.set_origin(self._origin)

    def _window_indices(self, starts: np.ndarray) -> np.ndarray:
        """The window index of each start time."""
        return np.floor(
            (starts - self._origin) / self.window_seconds
        ).astype(np.int64)

    def ingest(self, chunk: FlowTable) -> IngestResult:
        """Route one chunk's rows into their windows.

        Rows whose window has already closed (or that precede window 0)
        are dropped as late; everything else is kept, one sub-chunk per
        window. The watermark only ever advances.
        """
        if not len(chunk):
            return IngestResult(admitted=0, late_dropped=0, routed=())
        starts = chunk.start
        bounds = np.array((starts.min(), starts.max()))
        self._fix_origin(float(bounds[0]))
        self._max_event = max(self._max_event, float(bounds[1]))
        first, last = self._window_indices(bounds).tolist()
        late = 0
        if first == last >= self._next_to_close \
                and np.isfinite(bounds).all():
            # The whole chunk lies in one open window (the index is
            # monotone in a finite ``start``): one copy, no per-window
            # masks.
            pieces = [(first, chunk.copy())]
        else:
            indices = self._window_indices(starts)
            live = indices >= self._next_to_close
            late = int(len(chunk) - int(live.sum()))
            if late:
                chunk = chunk.select(live)
                indices = indices[live]
            pieces = [
                (index, chunk.select(indices == index))
                for index in distinct_values(indices).tolist()
            ]
        self._late_dropped += late
        routed: list[tuple[int, FlowTable]] = []
        for index, rows in pieces:
            routed.append((index, rows))
            self._windows.setdefault(index, []).append(rows)
            self._max_populated = max(self._max_populated, index)
        self._flows += len(chunk)
        return IngestResult(
            admitted=len(chunk),
            late_dropped=late,
            routed=tuple(routed),
        )

    # -- closing -----------------------------------------------------------

    def _seal(self, index: int) -> ClosedWindow:
        start, end = self.interval(index)
        # The window's full row set, kept as one table. With an archive
        # it is put in query order once, for its partition, and the
        # ring keeps that order: triage's queries over this window sort
        # nothing.
        table = FlowTable.concat(self._windows.get(index, ()))
        if self.archive is not None:
            table = table.in_query_order()
        if len(table):
            self._windows[index] = [table]
        if len(table) and (self.archive is not None
                           or self.weights is not None):
            # The window's one histogram pass: its partition index and
            # its detectors read the same arrays.
            counts = WindowCounts.from_table(table, self.weights or ())
            if self.archive is not None:
                # Written before retention can evict the rows: the
                # window's result is final (late rows can never reopen
                # it), so its durable copy is, too.
                self.archive.write_partition(
                    table, slice_index=index, sealed=True,
                    features=FeatureIndex({
                        name: entry[:3]
                        for name, entry in counts.columns.items()
                    }),
                )
            if self.weights is not None:
                self._counts[index] = counts
        window = ClosedWindow(
            index=index, start=start, end=end, flows=len(table)
        )
        self._next_to_close = index + 1
        # Retention: windows seal one at a time, in index order, so
        # each seal evicts the one window that falls out of the ring.
        self._windows.pop(index - self.retain_windows, None)
        return window

    def close_due(self) -> list[ClosedWindow]:
        """Seal every window the watermark has passed, in index order."""
        if self._origin is None:
            return []
        closed: list[ClosedWindow] = []
        while self.interval(self._next_to_close)[1] <= self.watermark:
            closed.append(self._seal(self._next_to_close))
        return closed

    def flush(self) -> list[ClosedWindow]:
        """Seal everything through the last populated window.

        End-of-stream: ignores the lateness horizon so a finite replay
        terminates with the same window coverage as a batch run.
        """
        closed: list[ClosedWindow] = []
        while self._next_to_close <= self._max_populated:
            closed.append(self._seal(self._next_to_close))
        return closed

    def take_counts(self, index: int) -> WindowCounts:
        """Hand over (and forget) sealed window ``index``'s counts: all
        zero for an empty window, or on a ring without ``weights``."""
        return self._counts.pop(index, None) or WindowCounts()

    # -- queries -----------------------------------------------------------

    def query_table(self, start: float, end: float) -> FlowTable:
        """Retained rows starting in ``[start, end)``, ordered by
        ``(start, 5-tuple)`` — triage's alarm and baseline windows.

        Each overlapping window is time-masked in index order; a sealed
        window the mask keeps whole comes back as is, so a window
        already in query order (sealed with an archive) sorts nothing.
        """
        if end < start:
            raise StoreError(f"inverted interval [{start}, {end})")
        selected = []
        for index in sorted(self._windows):
            lo, hi = self.interval(index)
            if hi <= start or lo >= end:
                continue
            table = FlowTable.concat(self._windows[index])
            starts = table.start
            mask = (starts >= start) & (starts < end)
            if mask.all():
                selected.append(table)
            elif mask.any():
                selected.append(table.select(mask))
        return FlowTable.concat(selected).in_query_order()
