"""The assembled anomaly-extraction system (Figure 1).

Wires the pieces of the paper's architecture together::

    detector --> alarm DB --> extraction engine <--> flow backend
                                    |
                                    v
                             operator console

:class:`ExtractionSystem` owns a flow backend, an alarm database and an
extractor. Detectors push alarms in; the operator (or the automated
triage loop of :meth:`process_open_alarms`) pulls reports and verdicts
out. This is the object the examples and the Figure-1 benchmark drive.

This is a supported *compatibility entry point*: the declarative
facade (:mod:`repro.api`) composes it for the ``batch`` and ``triage``
modes and is byte-identical to driving it directly — prefer
``repro.api.session()`` / ``Session.from_config`` for new code (see
ARCHITECTURE.md, "Public API contract").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detect.base import Alarm, Detector
from repro.errors import AlarmDatabaseError, ExtractionError, ReproError
from repro.extraction.extractor import AnomalyExtractor, ExtractionReport
from repro.extraction.validate import ValidationVerdict, validate_report
from repro.flows.trace import FlowTrace
from repro.system.alarmdb import AlarmDatabase, AlarmStatus
from repro.system.backend import FlowBackend
from repro.system.config import SystemConfig

__all__ = ["TriageResult", "ExtractionSystem"]


@dataclass
class TriageResult:
    """Everything produced for one alarm by the automated triage loop."""

    alarm: Alarm
    report: ExtractionReport
    verdict: ValidationVerdict


class ExtractionSystem:
    """Backend + alarm DB + extractor, assembled per Figure 1."""

    def __init__(
        self,
        backend: FlowBackend,
        alarmdb: AlarmDatabase | None = None,
        config: SystemConfig | None = None,
        workers: int = 1,
    ) -> None:
        """``workers`` is deprecated and has no effect: extraction
        mines in this process."""
        self.config = config or SystemConfig()
        self.backend = backend
        self.alarmdb = alarmdb or AlarmDatabase()
        self.extractor = AnomalyExtractor(
            self.config.extraction, workers=workers
        )

    @classmethod
    def from_trace(
        cls,
        trace: FlowTrace,
        config: SystemConfig | None = None,
        workers: int = 1,
    ) -> "ExtractionSystem":
        """Build a system over an in-memory trace archive."""
        config = config or SystemConfig()
        backend = FlowBackend(
            store=trace,
            baseline_bins=config.baseline_bins,
            pad_bins=config.pad_bins,
        )
        return cls(backend, config=config, workers=workers)

    @classmethod
    def from_archive(
        cls,
        root_or_reader,
        alarmdb: AlarmDatabase | None = None,
        config: SystemConfig | None = None,
        workers: int = 1,
    ) -> "ExtractionSystem":
        """Build a system over a persistent on-disk flow archive.

        This is the restart-recovery assembly: point it at the archive
        directory (or an :class:`~repro.archive.reader.ArchiveReader`)
        a previous process wrote and the file-backed alarm DB it
        filled, and :meth:`process_open_alarms` resumes triage exactly
        where the dead process stopped — alarm and baseline windows
        are answered by pruned mmap scans over the archived
        partitions.
        """
        config = config or SystemConfig()
        backend = FlowBackend.from_archive(
            root_or_reader,
            baseline_bins=config.baseline_bins,
            pad_bins=config.pad_bins,
        )
        return cls(backend, alarmdb=alarmdb, config=config,
                   workers=workers)

    def close(self) -> None:
        """Release what the extractor holds (idempotent)."""
        self.extractor.close()

    # -- alarm ingestion ------------------------------------------------------

    def ingest(self, alarms: list[Alarm]) -> int:
        """Store detector alarms in the alarm DB. Returns the count."""
        return self.alarmdb.insert_many(alarms)

    def run_detector(
        self, detector: Detector, trace: FlowTrace
    ) -> list[Alarm]:
        """Run a trained detector over ``trace`` and ingest its alarms."""
        alarms = detector.detect(trace)
        self.ingest(alarms)
        return alarms

    # -- extraction ------------------------------------------------------------

    def extract(self, alarm: Alarm | str) -> ExtractionReport:
        """Extract anomalous flows for an alarm (by object or id).

        Queries the backend for the alarm and baseline windows, runs the
        extractor and advances the alarm's triage state.
        """
        if isinstance(alarm, str):
            alarm = self.alarmdb.get(alarm)
        report = self._extract(alarm)
        self._record_status(alarm, AlarmStatus.EXTRACTED)
        return report

    def _extract(self, alarm: Alarm) -> ExtractionReport:
        """The report for one alarm; records nothing."""
        interval_table = self.backend.alarm_table(alarm)
        if not interval_table:
            raise ExtractionError(
                f"no flows stored for alarm {alarm.alarm_id!r} interval "
                f"[{alarm.start}, {alarm.end})"
            )
        baseline_table = self.backend.baseline_table(alarm)
        return self.extractor.extract(
            alarm, interval_table, baseline_table
        )

    def validate(self, alarm: Alarm | str) -> TriageResult:
        """Extract and validate one alarm, recording the verdict.

        Extraction and validation run before anything is written;
        ``extracted`` and the verdict then commit as one transaction,
        so an alarm is either still ``open`` or carries its verdict —
        a crash between the two cannot strand it ``extracted``,
        a state :meth:`process_open_alarms` never picks up again.
        """
        if isinstance(alarm, str):
            alarm = self.alarmdb.get(alarm)
        report = self._extract(alarm)
        verdict = validate_report(
            report, sample_size=self.config.evidence_sample_size
        )
        with self.alarmdb.transaction():
            self._record_status(alarm, AlarmStatus.EXTRACTED)
            self._record_status(
                alarm,
                AlarmStatus.VALIDATED if verdict.useful
                else AlarmStatus.DISMISSED,
                verdict.summary(),
            )
        return TriageResult(alarm=alarm, report=report, verdict=verdict)

    def _record_status(
        self, alarm: Alarm, status: str, verdict: str = ""
    ) -> None:
        """Advance the alarm's triage state in the alarm DB.

        An alarm triaged ad hoc (never ingested) is unknown to the DB
        and stays untracked. Any other failure — a locked database, a
        full disk — propagates: swallowed, the alarm would stay open
        and be re-mined at every later seal.
        """
        try:
            self.alarmdb.set_status(alarm.alarm_id, status, verdict)
        except AlarmDatabaseError:
            pass

    def process_open_alarms(
        self, skip_errors: bool = False
    ) -> list[TriageResult]:
        """Triage every open alarm in the DB, oldest first.

        With ``skip_errors`` an alarm whose extraction fails (e.g. its
        flows are not archived yet, or already expired) is left open and
        skipped instead of aborting the loop — the behaviour a streaming
        deployment wants, where triage runs continuously against a
        rotating archive and simply retries on the next pass.
        """
        results = []
        for alarm in self.alarmdb.list_alarms(status=AlarmStatus.OPEN):
            try:
                results.append(self.validate(alarm))
            except ReproError:
                if not skip_errors:
                    raise
        return results
