"""The streaming runtime loop: ingest → watermark → detect → triage.

:class:`StreamEngine` is the online counterpart of the batch
``detect`` + ``extract`` workflow, shaped like the paper's deployment:
detectors continuously feed an alarm database whose open alarms are
triaged against a rotating flow archive while ingest continues.

Per chunk the engine (1) routes rows through the
:class:`~repro.stream.window.WindowRing`, (2) seals windows the
watermark has passed — the ring counts each sealed window once — and
fires the detectors on those counts, inserting their alarms into the
:class:`~repro.system.alarmdb.AlarmDatabase` (optionally deduplicated
against streaming re-fires), and (3) drives
:meth:`~repro.system.pipeline.ExtractionSystem.process_open_alarms`
against the live ring so Table-1 triage reports stream out while flows
keep arriving.

This is a supported *compatibility entry point*: the declarative
facade (:mod:`repro.api`) composes it for ``mode = "stream"`` and is
byte-identical to driving it directly — prefer ``repro.api.session()``
/ ``Session.from_config`` for new code.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.detect.base import Alarm, Detector
from repro.flows.table import FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS
from repro.obs import events as obs_events, metrics as obs_metrics
from repro.stream.incremental import StreamingDetector
from repro.stream.window import ClosedWindow, WindowRing
from repro.system.alarmdb import AlarmDatabase, AlarmStatus
from repro.system.backend import FlowBackend
from repro.system.config import SystemConfig
from repro.system.pipeline import ExtractionSystem, TriageResult

__all__ = ["WindowResult", "StreamStats", "StreamEngine"]

logger = logging.getLogger(__name__)

# Stream-plane instruments (no-op until obs metrics are enabled;
# recorded per chunk / per window, never per flow row).
_FLOWS = obs_metrics.counter(
    "repro_flows_ingested_total",
    "Flows admitted into the streaming window ring.",
)
_CHUNKS = obs_metrics.counter(
    "repro_stream_chunks_total",
    "Chunks processed by the stream engine.",
)
_LATE_DROPPED = obs_metrics.counter(
    "repro_stream_late_dropped_total",
    "Flows dropped for arriving behind the lateness horizon.",
)
_WINDOWS_CLOSED = obs_metrics.counter(
    "repro_stream_windows_closed_total",
    "Windows sealed by the watermark.",
)
_ALARMS = obs_metrics.counter(
    "repro_stream_alarms_total",
    "Alarms inserted as new rows in the alarm database.",
)
_ALARMS_MERGED = obs_metrics.counter(
    "repro_stream_alarms_merged_total",
    "Alarm re-fires deduplicated into already-stored alarms.",
)
_TRIAGED = obs_metrics.counter(
    "repro_stream_triaged_total",
    "Open alarms triaged against the live ring.",
)
_AUTO_CLOSED = obs_metrics.counter(
    "repro_stream_alarms_auto_closed_total",
    "Alarms auto-resolved as decayed (no re-fire within the "
    "configured window horizon).",
)
_WATERMARK_LAG = obs_metrics.gauge(
    "repro_stream_watermark_lag_seconds",
    "Event-time distance between the stream head and the close "
    "frontier of the next window due to seal.",
)
_SEAL_SECONDS = obs_metrics.histogram(
    "repro_stream_window_seal_seconds",
    "Window close latency: detector close, alarm insert and live "
    "triage for one sealed window.",
    # Seals take single to low tens of milliseconds without triage and
    # tens with it: steps of <= 1.5x resolve a p50 from 2 to 150 ms,
    # where the default latency buckets hold it in one or two.
    buckets=(
        0.001, 0.002, 0.003, 0.004, 0.006, 0.008, 0.011, 0.015, 0.02,
        0.027, 0.036, 0.048, 0.064, 0.085, 0.115, 0.15, 0.2, 0.3, 0.5,
        1.0, 2.5, 5.0,
    ),
)


@dataclass
class WindowResult:
    """Everything one sealed window produced."""

    window: ClosedWindow
    alarms: list[Alarm] = field(default_factory=list)
    #: Alarm ids merged into already-stored alarms by dedup.
    merged: list[str] = field(default_factory=list)
    triage: list[TriageResult] = field(default_factory=list)
    #: Alarm ids auto-resolved as decayed when this window sealed.
    auto_closed: list[str] = field(default_factory=list)


@dataclass
class StreamStats:
    """Counters accumulated over one engine run."""

    chunks: int = 0
    flows: int = 0
    late_dropped: int = 0
    windows_closed: int = 0
    alarms: int = 0
    alarms_merged: int = 0
    triaged: int = 0
    auto_closed: int = 0


class StreamEngine:
    """Continuous ingest, incremental detection and live triage."""

    def __init__(
        self,
        detectors: Iterable[Detector],
        window_seconds: float = DEFAULT_BIN_SECONDS,
        origin: float | None = None,
        lateness_seconds: float | None = 0.0,
        retain_windows: int = 16,
        alarmdb: AlarmDatabase | None = None,
        dedup_window: float | None = None,
        triage: bool = False,
        auto_close_windows: int | None = None,
        config: SystemConfig | None = None,
        on_window: Callable[[WindowResult], None] | None = None,
        workers: int = 1,
        archive=None,
    ) -> None:
        """``archive`` (an :class:`~repro.archive.writer.ArchiveWriter`)
        makes the deployment durable: every closed window persists as a
        sealed on-disk partition, so alarms stored in a file-backed
        ``alarmdb`` can be triaged by a *later process* against the
        archive (``ExtractionSystem.from_archive``) even after this
        engine — and its in-RAM ring — is gone.

        ``auto_close_windows`` is the lifecycle decay horizon: when a
        window seals, open/acked alarms whose interval last grew more
        than that many windows ago (dedup merges extend ``end`` on
        every re-fire) are resolved with verdict ``decayed``.

        ``workers`` is deprecated and has no effect: windows are
        counted and live triage mines in this process."""
        self.detectors = [StreamingDetector(d) for d in detectors]
        weights = None
        if self.detectors:
            weights = tuple(w for d in self.detectors for w in d.weightings)
        self.ring = WindowRing(
            window_seconds=window_seconds,
            origin=origin,
            lateness_seconds=lateness_seconds,
            retain_windows=retain_windows,
            archive=archive,
            weights=weights,
        )
        self.alarmdb = alarmdb or AlarmDatabase()
        self.dedup_window = dedup_window
        if auto_close_windows is not None and auto_close_windows < 1:
            raise ValueError(
                f"auto_close_windows must be >= 1: {auto_close_windows!r}"
            )
        self.auto_close_windows = auto_close_windows
        self.config = config or SystemConfig()
        self.system: ExtractionSystem | None = None
        if triage:
            self.system = ExtractionSystem(
                FlowBackend(
                    store=self.ring,
                    baseline_bins=self.config.baseline_bins,
                    pad_bins=self.config.pad_bins,
                ),
                alarmdb=self.alarmdb,
                config=self.config,
                workers=workers,
            )
        self.on_window = on_window
        self.stats = StreamStats()
        #: Journal bookkeeping (provenance plane): ``chunk.ingest``
        #: event ids by open-window index, consumed at seal so each
        #: ``window.seal`` event names its source chunks.
        self._window_chunks: dict[int, list[int]] = {}

    # -- the loop ----------------------------------------------------------

    def process(self, chunk: FlowTable) -> list[WindowResult]:
        """Ingest one chunk; returns results of any windows it sealed."""
        ingest = self.ring.ingest(chunk)
        self.stats.chunks += 1
        self.stats.flows += ingest.admitted
        self.stats.late_dropped += ingest.late_dropped
        if obs_metrics.enabled():
            _CHUNKS.inc()
            _FLOWS.inc(ingest.admitted)
            if ingest.late_dropped:
                _LATE_DROPPED.inc(ingest.late_dropped)
            _WATERMARK_LAG.set(self.ring.watermark_lag_seconds)
        if obs_events.enabled():
            routed_windows = sorted(
                index for index, _ in ingest.routed
            )
            chunk_event = obs_events.emit(
                "chunk.ingest",
                seq=self.stats.chunks,
                rows=ingest.admitted,
                late=ingest.late_dropped or None,
                windows=routed_windows or None,
            )
            for index in routed_windows:
                self._window_chunks.setdefault(index, []).append(
                    chunk_event
                )
        return [self._seal(window) for window in self.ring.close_due()]

    def finish(self) -> list[WindowResult]:
        """End of stream: seal every remaining window."""
        return [self._seal(window) for window in self.ring.flush()]

    def run(self, source: Iterable[FlowTable]) -> list[WindowResult]:
        """Drain a chunk source through the engine, then flush."""
        results: list[WindowResult] = []
        for chunk in source:
            results.extend(self.process(chunk))
        results.extend(self.finish())
        return results

    def close(self) -> None:
        """Release resources held for triage (idempotent)."""
        if self.system is not None:
            self.system.close()

    # -- window sealing ----------------------------------------------------

    def _seal(self, window: ClosedWindow) -> WindowResult:
        metered = obs_metrics.enabled()
        started = time.perf_counter() if metered else 0.0
        result = WindowResult(window=window)
        # Held only for this seal: nothing the result keeps refers to it.
        counts = self.ring.take_counts(window.index)
        seal_event = None
        if obs_events.enabled():
            seal_event = obs_events.emit(
                "window.seal",
                index=window.index,
                start=window.start,
                end=window.end,
                flows=window.flows,
                chunks=self._window_chunks.pop(window.index, None),
            )
        else:
            self._window_chunks.pop(window.index, None)
        with obs_events.causal(seal_event):
            for detector in self.detectors:
                alarms = list(detector.close(
                    window.index, window.start, window.end, counts
                ))
                verdict_event = None
                if obs_events.enabled():
                    # The verdict precedes the inserts causally: each
                    # alarm.* journal row parents to it.
                    verdict_event = obs_events.emit(
                        "detector.verdict",
                        detector=detector.name,
                        window=window.index,
                        alarms=len(alarms),
                    )
                with obs_events.causal(verdict_event):
                    for alarm in alarms:
                        stored_id = self.alarmdb.insert(
                            alarm, dedup_window=self.dedup_window
                        )
                        if stored_id == alarm.alarm_id:
                            result.alarms.append(alarm)
                            self.stats.alarms += 1
                        else:
                            result.merged.append(stored_id)
                            self.stats.alarms_merged += 1
        self.stats.windows_closed += 1
        if self.auto_close_windows is not None:
            horizon = (
                self.auto_close_windows * self.ring.window_seconds
            )
            result.auto_closed = self.alarmdb.auto_close(
                before=window.end - horizon,
                note=(
                    f"no re-fire within {self.auto_close_windows} "
                    f"windows"
                ),
            )
            self.stats.auto_closed += len(result.auto_closed)
        if self.system is not None \
                and self.alarmdb.count(AlarmStatus.OPEN):
            result.triage = self.system.process_open_alarms(
                skip_errors=True
            )
            self.stats.triaged += len(result.triage)
        if metered:
            _WINDOWS_CLOSED.inc()
            if result.alarms:
                _ALARMS.inc(len(result.alarms))
            if result.merged:
                _ALARMS_MERGED.inc(len(result.merged))
            if result.triage:
                _TRIAGED.inc(len(result.triage))
            if result.auto_closed:
                _AUTO_CLOSED.inc(len(result.auto_closed))
            _SEAL_SECONDS.observe(time.perf_counter() - started)
        logger.debug(
            "sealed window %d [%s, %s): %d alarms, %d merged, "
            "%d triaged",
            window.index,
            window.start,
            window.end,
            len(result.alarms),
            len(result.merged),
            len(result.triage),
        )
        if self.on_window is not None:
            self.on_window(result)
        return result
