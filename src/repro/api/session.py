"""The declarative session facade: one entry point over every mode.

Where PRs 1–4 each grew their own entry point (``ExtractionSystem``,
``StreamEngine``, ``FlowBackend.from_archive``) with incompatible
constructor signatures, a :class:`Session` is built
from five orthogonal specs and *dispatches* — batch or windowed
stream, live ring or archive-resume — from the spec alone, never from
which class the caller happened to construct::

    from repro import api

    result = (
        api.session()
        .source("rpv5", path="trace.rpv5")
        .detect("netreflex", train_bins=8)
        .stream(triage=True)
        .archive("spool/")
        .run()
    )

or, declaratively, from a TOML file::

    result = api.Session.from_config("config.toml").run()

Every mode returns the same :class:`RunResult` (alarms, triage
reports, window results, stats, timings), and the legacy constructors
remain supported as the compatibility layer underneath — the facade
composes them, it does not fork their logic, so Session-driven runs
are byte-identical to the legacy paths (asserted by
``tests/test_api.py``).
"""

from __future__ import annotations

import contextlib
import logging
import math
import tomllib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.api.registry import detectors, miners, sources
from repro.api.specs import (
    DetectorSpec,
    ExecutionSpec,
    MiningSpec,
    SessionSpec,
    SinkSpec,
    SourceSpec,
)
from repro.archive.reader import lazy_reader
from repro.detect.base import Alarm, Detector, MetadataItem
from repro.errors import (
    AlarmDatabaseError,
    DetectorError,
    MiningError,
    ReproError,
    SpecError,
)
from repro.extraction.extractor import AnomalyExtractor, ExtractionConfig
from repro.extraction.summarize import table_rows
from repro.extraction.validate import validate_report
from repro.flows.addresses import ip_to_int
from repro.flows.flowio import (
    DEFAULT_CHUNK_ROWS as FILE_CHUNK_ROWS,
    read_binary_table,
    write_binary,
)
from repro.flows.record import FlowFeature
from repro.flows.trace import FlowTrace
from repro.obs import (
    events as obs_events,
    metrics as obs_metrics,
    trace as obs_trace,
)
from repro.stream import ReplayDriver, StreamEngine
from repro.system.alarmdb import AlarmDatabase
from repro.system.backend import FlowBackend
from repro.system.config import SystemConfig
from repro.system.console import render_table, verdict_view
from repro.system.pipeline import ExtractionSystem, TriageResult

__all__ = [
    "RunResult",
    "Session",
    "SessionBuilder",
    "session",
    "parse_hint",
    "load_spec",
]

logger = logging.getLogger(__name__)

#: Modes that run on an archive source's reader.
_ARCHIVE_MODES = ("triage", "compact", "stats", "ls")


# -- public result type -------------------------------------------------------


@dataclass
class RunResult:
    """Uniform outcome of ``Session.run()`` across every mode.

    ``stats`` holds the mode's scalar counters (insertion-ordered, the
    order :meth:`summary` renders them in); ``timings`` maps phase
    names to wall seconds; ``payload`` carries mode-specific objects
    (query tables, synth ground truths, archive statistics...).
    """

    mode: str
    alarms: list[Alarm] = field(default_factory=list)
    triage: list[TriageResult] = field(default_factory=list)
    #: Per-window results for stream runs, ``None`` otherwise.
    windows: list | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    payload: dict[str, Any] = field(default_factory=dict)
    interrupted: bool = False

    def summary(self) -> str:
        """One stable machine-greppable line (CI gates on it)."""
        state = "interrupted" if self.interrupted else "ok"
        parts = []
        for key, value in self.stats.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:g}")
            elif isinstance(value, (int, str)):
                parts.append(f"{key}={value}")
        detail = f": {' '.join(parts)}" if parts else ""
        return f"session {self.mode} {state}{detail}"


# -- helpers ------------------------------------------------------------------


def parse_hint(text: str) -> MetadataItem:
    """Parse one ``feature=value`` meta-data hint."""
    name, sep, raw = text.partition("=")
    if not sep or not raw.strip():
        raise SpecError(
            f"hint must look like feature=value: {text!r}",
            field="execution.hints",
        )
    try:
        feature = FlowFeature(name.strip())
    except ValueError:
        raise SpecError(
            f"unknown hint feature {name.strip()!r}: {text!r}",
            field="execution.hints",
        ) from None
    try:
        if feature in (FlowFeature.SRC_IP, FlowFeature.DST_IP):
            value = ip_to_int(raw.strip())
        else:
            value = int(raw.strip())
    except (ValueError, ReproError):
        raise SpecError(
            f"bad hint value for {feature.value}: {text!r}",
            field="execution.hints",
        ) from None
    return MetadataItem(feature=feature, value=value)


def load_spec(config: str | Path | Mapping[str, Any]) -> SessionSpec:
    """Load a :class:`SessionSpec` from a TOML path or a mapping."""
    if isinstance(config, Mapping):
        return SessionSpec.from_dict(config)
    path = Path(config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read config file: {exc}") from None
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{path}: invalid TOML: {exc}") from None
    return SessionSpec.from_dict(data)


def _read_back(
    db: AlarmDatabase, results: list[TriageResult]
) -> tuple[dict[str, tuple[str, str]], int]:
    """The (status, verdict) each triaged alarm settled at in the DB,
    and how many alarms remain open."""
    statuses = {
        t.alarm.alarm_id: db.status_of(t.alarm.alarm_id) for t in results
    }
    return statuses, db.count("open")


def _feature(name: str, field_path: str) -> FlowFeature:
    try:
        return FlowFeature(name)
    except ValueError:
        raise SpecError(
            f"unknown flow feature {name!r}; expected one of "
            f"{', '.join(f.value for f in FlowFeature)}",
            field=field_path,
        ) from None


# -- the session --------------------------------------------------------------


class Session:
    """An executable, validated session over one :class:`SessionSpec`."""

    def __init__(
        self,
        spec: SessionSpec,
        on_window: Callable | None = None,
        on_start: Callable[[dict], None] | None = None,
        on_serve: Callable[[int], None] | None = None,
    ) -> None:
        """``on_window`` is forwarded to the stream engine (called with
        each :class:`~repro.stream.runtime.WindowResult` as windows
        seal); ``on_start`` fires once per run with a context dict
        before the main loop (the CLI's "trained ... streaming ..."
        banner); ``on_serve`` fires with the bound port once the
        telemetry endpoint or operator console is listening
        (``sink.metrics_port``/``sink.serve_port`` specs)."""
        if not isinstance(spec, SessionSpec):
            raise SpecError(
                f"expected a SessionSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.on_window = on_window
        self.on_start = on_start
        self.on_serve = on_serve

    @classmethod
    def from_config(
        cls,
        config: str | Path | Mapping[str, Any],
        on_window: Callable | None = None,
        on_start: Callable[[dict], None] | None = None,
        on_serve: Callable[[int], None] | None = None,
    ) -> "Session":
        """Build a session from a TOML file path or a parsed mapping."""
        return cls(load_spec(config), on_window=on_window,
                   on_start=on_start, on_serve=on_serve)

    def to_toml(self) -> str:
        """This session's spec as a TOML document."""
        return self.spec.to_toml()

    # -- dispatch ----------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the spec'd mode and return its :class:`RunResult`."""
        mode = self.spec.execution.mode
        runner = getattr(self, f"_run_{mode}", None)
        if runner is None:  # pragma: no cover - specs validate mode
            raise SpecError(f"unknown mode {mode!r}",
                            field="execution.mode")
        sink = self.spec.sink
        execution = self.spec.execution
        if sink.metrics_port is not None or sink.serve_port is not None:
            # Sticky for the process: the spec asked for telemetry, so
            # every instrumented layer this run touches records.
            obs_metrics.enable()
        if sink.span_log is not None:
            obs_trace.configure(sink.span_log)
        journal = contextlib.nullcontext()
        if sink.events_path is not None \
                or execution.flight_recorder is not None:
            journal = obs_events.journaled(
                sink.events_path, execution.flight_recorder,
                mode=mode, workers=execution.workers,
            )
        logger.debug("running session mode %s", mode)
        with journal as run, \
                obs_trace.span(f"session.{mode}") as total:
            result: RunResult = runner()
            if run is not None:
                run.outcome = "interrupted" if result.interrupted else "ok"
                result.payload.setdefault("run_id", run.journal.run)
                if sink.events_path is not None:
                    result.payload.setdefault(
                        "events_path", sink.events_path
                    )
        result.timings.setdefault("total", total.seconds)
        return result

    @contextlib.contextmanager
    def _serving(
        self,
        payload: dict[str, Any],
        status: Callable[[], dict[str, Any]],
        **console: Any,
    ) -> Iterator[None]:
        """Serve telemetry while the block runs: the operator console
        over ``console`` (``alarms``/``windows``/``archive``) for
        ``sink.serve_port``, which wins when both are set, else the
        ``/metrics`` + ``/status`` endpoint for ``sink.metrics_port``.
        The bound port goes to ``payload`` and ``on_serve``; without
        either port no socket is ever opened."""
        sink = self.spec.sink
        if sink.serve_port is None and sink.metrics_port is None:
            yield
            return
        obs_metrics.enable()
        if sink.serve_port is not None:
            from repro.obs.console import ConsoleServer

            server = ConsoleServer(
                port=sink.serve_port, status=status,
                dashboard=sink.dashboard, **console,
            ).start()
            payload["serve_port"] = server.port
        else:
            from repro.obs.serve import MetricsServer

            server = MetricsServer(
                port=sink.metrics_port, status=status
            ).start()
        payload["metrics_port"] = server.port
        if self.on_serve is not None:
            self.on_serve(server.port)
        try:
            yield
        finally:
            server.stop()

    # -- shared assembly ---------------------------------------------------

    def _source(self):
        """The spec's flow source, checked against what the mode needs:
        a bounded source, except to stream or synth; an archive, to
        triage or manage one; a scenario, to synth. A source refused
        here is closed first (a collector owns a socket and a
        process)."""
        mode = self.spec.execution.mode
        kind = self.spec.source.kind
        source = sources.get(kind, field="source.kind")(self.spec.source)
        if mode in _ARCHIVE_MODES and not hasattr(source, "reader"):
            problem = (
                f"mode {mode!r} operates on an archive source, not "
                f"{kind!r}"
            )
        elif mode not in ("stream", "synth") and not source.bounded:
            problem = (
                f"mode {mode!r} needs a bounded source, but {kind!r} "
                f"is unbounded"
            )
        elif mode == "synth" and not hasattr(source, "labeled"):
            problem = "synth mode needs a scenario source"
        else:
            return source
        if hasattr(source, "close"):
            source.close()
        raise SpecError(problem, field="source.kind")

    def _detector(self) -> Detector:
        spec = self.spec.detector
        factory = detectors.get(spec.name, field="detector.name")
        try:
            return factory(**spec.options)
        except TypeError as exc:
            raise SpecError(str(exc), field="detector.options") from None
        except DetectorError as exc:
            raise SpecError(str(exc), field="detector.options") from exc

    def _extraction_config(self) -> ExtractionConfig:
        spec = self.spec.mining
        # Validates the engine name through the registry (which shares
        # storage with mining.ENGINES, so plugins work too).
        miners.get(spec.engine, field="mining.engine")
        base = ExtractionConfig()
        try:
            mining = replace(base.mining, engine=spec.engine,
                             **spec.options)
        except TypeError as exc:
            raise SpecError(str(exc), field="mining.options") from None
        except MiningError as exc:
            raise SpecError(str(exc), field="mining.options") from exc
        try:
            return replace(base, mining=mining, **spec.extraction)
        except TypeError as exc:
            raise SpecError(str(exc), field="mining.extraction") from None
        except ReproError as exc:
            raise SpecError(str(exc), field="mining.extraction") from exc

    def _system_config(self) -> SystemConfig:
        return SystemConfig(
            extraction=self._extraction_config(),
            anonymize=self.spec.execution.anonymize,
        )

    def _alarmdb(self) -> AlarmDatabase:
        return AlarmDatabase(self.spec.sink.alarmdb or ":memory:")

    def _trained(
        self,
        trace: FlowTrace | None,
        timings: dict[str, float],
        **context: Any,
    ) -> tuple[Detector, FlowTrace, FlowTrace | None, float | None]:
        """The training step: ``(detector, training, tail, origin)``.

        Trains on ``detector.train_path`` when set (all of ``trace`` is
        then the tail), else on the leading ``train_bins`` of ``trace``
        (``None`` for an unbounded source); then ``on_start`` sees the
        run context, ``context`` included."""
        mode = self.spec.execution.mode
        path = self.spec.detector.train_path
        train_bins = self.spec.detector.train_bins
        if path is not None:
            if not Path(path).is_file():
                raise SpecError(f"no such file: {path!r}",
                                field="detector.train_path")
            # The training file is its own artifact: it shares the live
            # source's bin width but not its grid anchor — a collector
            # source anchored at the capture's split point must not
            # re-anchor (and thereby empty) the training bins.
            training = FlowTrace(
                read_binary_table(path),
                bin_seconds=self.spec.source.bin_seconds,
            )
            tail = trace
            origin = trace.origin if trace is not None else None
            train_source = path
        elif trace is None:
            raise SpecError(
                "streaming an unbounded source needs a separate "
                "training trace (detector.train_path)",
                field="detector.train_path",
            )
        else:
            origin = trace.origin + train_bins * trace.bin_seconds
            # The trace is sorted by start: both sides are slices of it.
            training, tail = (
                FlowTrace(
                    trace.between_table(lo, hi),
                    bin_seconds=trace.bin_seconds,
                    origin=trace.origin,
                )
                for lo, hi in ((-math.inf, origin), (origin, math.inf))
            )
            if not training or not tail:
                raise SpecError(
                    f"trace too short for {train_bins} training bins",
                    field="detector.train_bins",
                )
            train_source = f"{train_bins} bins"
        detector = self._detector()
        with obs_trace.span(f"{mode}.train", timings, "train"):
            detector.train(training)
        if self.on_start is not None:
            self.on_start({
                "mode": mode,
                "detector": detector.name,
                "train_source": train_source,
                "train_flows": len(training),
                "flows": len(tail) if tail is not None else None,
                **context,
            })
        return detector, training, tail, origin

    def _write_reports(self, results: list[TriageResult]) -> list[str]:
        """Render triage reports into ``sink.report_dir`` (one file
        per alarm); returns the written paths."""
        report_dir = self.spec.sink.report_dir
        if report_dir is None or not results:
            return []
        anonymize = self.spec.execution.anonymize
        directory = Path(report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for result in results:
            safe_id = result.alarm.alarm_id.replace("/", "_")
            path = directory / f"{safe_id}.txt"
            path.write_text(
                result.alarm.describe(anonymize) + "\n\n"
                + render_table(table_rows(result.report,
                                          anonymize=anonymize))
                + "\n\n"
                + verdict_view(result.verdict, anonymize=anonymize)
                + "\n"
            )
            written.append(str(path))
        return written

    # -- batch -------------------------------------------------------------

    def _run_batch(self) -> RunResult:
        execution = self.spec.execution
        source = self._source()
        timings: dict[str, float] = {}
        with obs_trace.span("batch.load", timings, "load"):
            trace = source.trace()
        detector, training, tail, _ = self._trained(trace, timings)
        with obs_trace.span("batch.detect", timings, "detect"):
            alarms = detector.detect(tail)
        triage: list[TriageResult] = []
        statuses: dict[str, tuple[str, str]] = {}
        open_count = len(alarms)
        # Detection-only runs skip the backend/DB assembly entirely.
        if execution.triage or self.spec.sink.alarmdb:
            config = self._system_config()
            db = self._alarmdb()
            try:
                system = ExtractionSystem(
                    FlowBackend(
                        store=trace,
                        baseline_bins=config.baseline_bins,
                        pad_bins=config.pad_bins,
                    ),
                    alarmdb=db,
                    config=config,
                    workers=execution.workers,
                )
                try:
                    system.ingest(alarms)
                    if execution.triage:
                        with obs_trace.span("batch.triage", timings,
                                            "triage"):
                            triage = system.process_open_alarms(
                                skip_errors=True
                            )
                finally:
                    system.close()
                statuses, open_count = _read_back(db, triage)
            finally:
                db.close()
        reports = self._write_reports(triage)
        return RunResult(
            mode="batch",
            alarms=list(alarms),
            triage=triage,
            stats={
                "flows": len(tail),
                "trained": len(training),
                "alarms": len(alarms),
                "triaged": len(triage),
                "open": open_count,
            },
            timings=timings,
            payload={"reports": reports, "statuses": statuses},
        )

    # -- ad-hoc extraction -------------------------------------------------

    def _run_extract(self) -> RunResult:
        execution = self.spec.execution
        if execution.start is None or execution.end is None:
            raise SpecError(
                "extract mode needs an explicit [start, end) window",
                field="execution.start"
                if execution.start is None else "execution.end",
            )
        source = self._source()
        trace = source.trace()
        # Id/detector kept from the historical CLI so rendered ad-hoc
        # reports stay bit-identical across versions.
        alarm = Alarm(
            alarm_id="cli-alarm",
            detector="cli",
            start=execution.start,
            end=execution.end,
            score=1.0,
            metadata=[parse_hint(h) for h in execution.hints],
        )
        interval = trace.between_table(alarm.start, alarm.end)
        if not interval:
            raise SpecError(
                f"no flows in the requested window "
                f"[{alarm.start}, {alarm.end})",
                field="execution.start",
            )
        config = self._system_config()
        baseline = trace.between_table(
            alarm.start - config.baseline_bins * trace.bin_seconds,
            alarm.start,
        )
        extractor = AnomalyExtractor(
            config.extraction, workers=execution.workers
        )
        timings: dict[str, float] = {}
        with obs_trace.span("extract.extract", timings, "extract"):
            try:
                report = extractor.extract(alarm, interval, baseline)
            finally:
                extractor.close()
        verdict = validate_report(report)
        result = TriageResult(alarm=alarm, report=report, verdict=verdict)
        reports = self._write_reports([result])
        return RunResult(
            mode="extract",
            alarms=[alarm],
            triage=[result],
            stats={
                "flows": len(interval),
                "itemsets": len(report.itemsets),
                "useful": int(report.useful),
            },
            timings=timings,
            payload={"report": report, "verdict": verdict,
                     "reports": reports},
        )

    # -- stream ------------------------------------------------------------

    def _run_stream(self) -> RunResult:
        source = self._source()
        try:
            return self._stream(source)
        finally:
            # Also when training or sink set-up fails before the engine
            # runs: a collector source owns a socket and a process.
            if hasattr(source, "close"):
                source.close()

    def _stream(self, source) -> RunResult:
        execution = self.spec.execution
        sink = self.spec.sink
        timings: dict[str, float] = {}
        context: dict[str, Any] = {}
        if hasattr(source, "port"):
            # A collector source: surface where it listens (the CLI
            # prints this flushed so CI can discover an ephemeral port
            # before replaying datagrams).
            context = {"listen": source.describe(), "port": source.port}
        trace = source.trace() if source.bounded else None
        window_seconds = execution.window_seconds or (
            trace.bin_seconds if trace is not None
            else self.spec.source.bin_seconds
        )
        detector, _, tail, origin = self._trained(
            trace, timings, window_seconds=window_seconds, **context
        )
        if trace is None:
            # Most unbounded sources let the ring anchor its grid on
            # the first flow seen; a source that declares an explicit
            # grid (the UDP collector: epoch-aligned, matching what a
            # file replay of the same capture would use) wins.
            origin = getattr(source, "stream_origin", None)
        archive_writer = None
        if sink.archive:
            from repro.archive import ArchiveWriter

            writer_options: dict[str, Any] = {
                "slice_seconds": window_seconds,
            }
            if origin is not None:
                writer_options["origin"] = origin
            archive_writer = ArchiveWriter(sink.archive, **writer_options)
        db = self._alarmdb()
        # Collect sealed windows through the callback seam: unlike the
        # engine.run() return value, this survives an interrupt, so
        # RunResult.windows is complete even on a partial run.
        windows: list = []
        user_on_window = self.on_window

        def collect_window(result) -> None:
            windows.append(result)
            if user_on_window is not None:
                user_on_window(result)

        engine = StreamEngine(
            [detector],
            workers=execution.workers,
            window_seconds=window_seconds,
            origin=origin,
            lateness_seconds=execution.lateness_seconds,
            retain_windows=execution.retain_windows,
            dedup_window=execution.dedup_window,
            triage=execution.triage,
            auto_close_windows=execution.auto_close_windows,
            config=self._system_config(),
            on_window=collect_window,
            alarmdb=db,
            archive=archive_writer,
        )
        interrupted = False
        replay_stats = None
        payload: dict[str, Any] = {}

        def windows_payload() -> list[dict[str, Any]]:
            return [
                {
                    "index": w.window.index,
                    "start": w.window.start,
                    "end": w.window.end,
                    "flows": w.window.flows,
                    "alarms": [a.alarm_id for a in w.alarms],
                    "merged": list(w.merged),
                    "auto_closed": list(
                        getattr(w, "auto_closed", ())
                    ),
                }
                for w in list(windows)
            ]

        def stream_status() -> dict[str, Any]:
            status: dict[str, Any] = {
                "mode": "stream",
                "stats": asdict(engine.stats),
                "windows": len(windows),
            }
            if hasattr(source, "stats"):
                status["collector"] = source.stats()
            return status

        with self._serving(
            payload, stream_status, alarms=db, windows=windows_payload,
            archive=lazy_reader(sink.archive),
        ), obs_trace.span("stream.run", timings, "stream"):
            try:
                try:
                    if tail is not None:
                        driver = ReplayDriver(
                            tail.table,
                            speedup=execution.speedup,
                            chunk_rows=execution.chunk_rows,
                        )
                        _, replay_stats = driver.replay(engine)
                    else:
                        engine.run(source.chunks(execution.chunk_rows))
                except KeyboardInterrupt:
                    # A paced replay is routinely cut short from the
                    # keyboard; seal what the watermark allows and
                    # return a clean partial result even if sealing
                    # itself fails (e.g. an archive write cut short by
                    # the same interrupt).
                    interrupted = True
                    try:
                        engine.finish()
                    except Exception as exc:
                        payload["flush_error"] = str(exc)
            finally:
                engine.close()
                if hasattr(source, "close"):
                    source.close()
        engine_stats = engine.stats
        stats: dict[str, Any] = {
            "flows": engine_stats.flows,
            "windows": engine_stats.windows_closed,
            "alarms": engine_stats.alarms,
            "merged": engine_stats.alarms_merged,
            "triaged": engine_stats.triaged,
            "late_dropped": engine_stats.late_dropped,
        }
        if execution.auto_close_windows is not None:
            stats["auto_closed"] = getattr(
                engine_stats, "auto_closed", 0
            )
        if replay_stats is not None and not interrupted:
            stats["wall"] = round(replay_stats.wall_seconds, 2)
            stats["rate"] = round(replay_stats.flows_per_second)
            stats["speedup"] = round(replay_stats.achieved_speedup)
        if hasattr(source, "stats"):
            collector_stats = source.stats()
            stats["port"] = collector_stats["port"]
            stats["malformed"] = collector_stats["malformed"]
            stats["dropped"] = (
                collector_stats["datagrams_dropped"]
                + collector_stats["flows_dropped"]
            )
            stats["seq_lost"] = collector_stats["sequence_lost"]
            stats["exporters"] = len(collector_stats["exporters"])
            payload["collector"] = collector_stats
        if sink.archive:
            from repro.archive import ArchiveReader

            payload["archived"] = ArchiveReader(sink.archive).stats()
            payload["archive_dir"] = sink.archive
        triage = [t for w in windows for t in w.triage]
        payload["reports"] = self._write_reports(triage)
        alarms = [a for w in windows for a in w.alarms]
        try:
            stats["open"] = db.count("open")
        finally:
            db.close()
        return RunResult(
            mode="stream",
            alarms=alarms,
            triage=triage,
            windows=windows,
            stats=stats,
            timings=timings,
            payload=payload,
            interrupted=interrupted,
        )

    # -- archive-resume triage ---------------------------------------------

    def _run_triage(self) -> RunResult:
        execution = self.spec.execution
        source = self._source()
        path = self.spec.sink.alarmdb
        if not path:
            raise SpecError(
                "triage mode resumes from a file-backed alarm DB",
                field="sink.alarmdb",
            )
        if not Path(path).exists():
            raise AlarmDatabaseError(f"no alarm DB at {path!r}")
        reader = source.reader()
        db = AlarmDatabase(path)
        timings: dict[str, float] = {}
        payload: dict[str, Any] = {"archive_dir": source.describe()}
        with self._serving(
            payload,
            lambda: {"mode": "triage", "archive": source.describe()},
            alarms=db,
            archive=lambda: reader,
        ):
            try:
                system = ExtractionSystem.from_archive(
                    reader,
                    alarmdb=db,
                    config=self._system_config(),
                    workers=execution.workers,
                )
                open_before = db.count("open")
                with obs_trace.span("triage.process", timings, "triage"):
                    try:
                        results = system.process_open_alarms(
                            skip_errors=True
                        )
                    finally:
                        system.close()
                payload["statuses"], open_count = _read_back(db, results)
            finally:
                db.close()
        payload["reports"] = self._write_reports(results)
        return RunResult(
            mode="triage",
            triage=results,
            stats={
                "open_before": open_before,
                "triaged": len(results),
                "open": open_count,
            },
            timings=timings,
            payload=payload,
        )

    # -- ad-hoc query --------------------------------------------------------

    def _run_query(self) -> RunResult:
        execution = self.spec.execution
        source = self._source()
        reader = None
        if hasattr(source, "reader"):
            store = reader = source.reader()
            span = reader.stats().span
        else:
            store = source.trace()
            span = store.span if len(store) else None
        if span is None:
            return RunResult(mode="query", stats={"matched": 0},
                             payload={"flows": None})
        # The spec refuses an inverted window; a bound defaulted from
        # the data span never inverts the other one.
        start, end = execution.start, execution.end
        if start is None:
            start = span[0] if end is None else min(span[0], end)
        if end is None:
            end = max(span[1] + 1.0, start)
        # Archive aggregates (--stats, --top) go through the planner:
        # counts answer from zone-map sums, rankings from feature-index
        # sidecars — no flow rows are materialised when the pushdown
        # applies.
        payload: dict[str, Any] = {}
        timings: dict[str, float] = {}
        with obs_trace.span("query.run", timings, "query"):
            if execution.stats and reader is not None:
                counts = reader.count(start, end, execution.filter)
                matched = counts.flows
                payload.update({"flows": None, "stats": counts})
            elif execution.top and reader is not None:
                matched = reader.count(start, end, execution.filter).flows
                feature = _feature(execution.top, "execution.top")
                payload.update({
                    "flows": None,
                    "top_feature": feature,
                    "top": reader.top_feature_values(
                        start, end, feature,
                        n=execution.limit,
                        flow_filter=execution.filter,
                    ),
                })
            else:
                flows = store.query_table(start, end, execution.filter)
                matched = len(flows)
                payload["flows"] = flows
                if execution.stats:
                    # A trace's counters come from the filtered rows.
                    payload.update({
                        "flows": None,
                        "stats": FlowTrace(flows, origin=start).stats(),
                    })
                elif execution.top:
                    from repro.flows.aggregate import top_n

                    feature = _feature(execution.top, "execution.top")
                    payload["top_feature"] = feature
                    payload["top"] = top_n(
                        flows, feature, n=execution.limit
                    )
        payload["scan"] = reader.last_scan \
            if reader is not None and payload["flows"] is not None else None
        if execution.explain and reader is not None:
            payload["plan"] = reader.last_plan
        return RunResult(
            mode="query",
            stats={"matched": matched},
            timings=timings,
            payload=payload,
        )

    # -- synth ---------------------------------------------------------------

    def _run_synth(self) -> RunResult:
        source = self._source()
        out = self.spec.sink.trace_out
        if not out:
            raise SpecError(
                "synth mode needs an output trace path",
                field="sink.trace_out",
            )
        timings: dict[str, float] = {}
        with obs_trace.span("synth.render", timings, "synth"):
            labeled = source.labeled()
            packets = write_binary(
                labeled.trace.table, out, boot_time=0.0,
                sampling_rate=source.sampling_rate,
            )
        return RunResult(
            mode="synth",
            stats={"flows": len(labeled.trace), "packets": packets},
            timings=timings,
            payload={"truths": labeled.truths, "out": out},
        )

    # -- archive management --------------------------------------------------

    def _run_ingest(self) -> RunResult:
        from repro.archive import ArchiveReader, ArchiveWriter

        sink = self.spec.sink
        if not sink.archive:
            raise SpecError(
                "ingest mode needs an archive directory sink",
                field="sink.archive",
            )
        source = self._source()
        options = dict(sink.archive_options)
        timings: dict[str, float] = {}
        with obs_trace.span("ingest.load", timings, "ingest"):
            with ArchiveWriter(sink.archive, options.pop("window", None),
                               **options) as writer:
                rows = writer.ingest_chunks(
                    source.chunks(FILE_CHUNK_ROWS)
                )
        stats = ArchiveReader(sink.archive).stats()
        return RunResult(
            mode="ingest",
            stats={
                "flows": rows,
                "partitions": stats.partitions,
                "slices": stats.slices,
            },
            timings=timings,
            payload={"archived": stats, "archive_dir": sink.archive},
        )

    def _run_compact(self) -> RunResult:
        from repro.archive import compact_archive

        # No reader first: compaction is the one migration of the old
        # formats that a reader refuses.
        source = self._source()
        timings: dict[str, float] = {}
        with obs_trace.span("compact.run", timings, "compact"):
            result = compact_archive(source.path)
        return RunResult(
            mode="compact",
            stats={
                "groups": result.groups,
                "partitions_before": result.partitions_before,
                "partitions_after": result.partitions_after,
                "rows_compacted": result.rows_compacted,
            },
            timings=timings,
            payload={"result": result},
        )

    def _run_stats(self) -> RunResult:
        source = self._source()
        reader = source.reader()
        stats = reader.stats()
        return RunResult(
            mode="stats",
            stats={"partitions": stats.partitions, "flows": stats.rows},
            payload={"archived": stats, "reader": reader},
        )

    def _run_ls(self) -> RunResult:
        source = self._source()
        reader = source.reader()
        partitions = reader.partitions()
        return RunResult(
            mode="ls",
            stats={"partitions": len(partitions)},
            payload={"partitions": partitions},
        )


# -- the fluent builder -------------------------------------------------------


class SessionBuilder:
    """Fluent construction of a :class:`SessionSpec` / :class:`Session`.

    Every method returns the builder; ``build()`` freezes the spec into
    a :class:`Session` and ``run()`` is ``build().run()``. Source and
    mode methods *replace* the corresponding spec wholesale, so the
    last call wins — the same semantics a TOML section has.
    """

    def __init__(self) -> None:
        self._source: SourceSpec | None = None
        self._detector = DetectorSpec()
        self._mining = MiningSpec()
        self._execution = ExecutionSpec()
        self._sink = SinkSpec()
        self._on_window: Callable | None = None
        self._on_start: Callable[[dict], None] | None = None

    # -- source ------------------------------------------------------------

    def source(self, kind: str, path: str | None = None,
               bin_seconds: float | None = None,
               origin: float | None = None,
               **options: Any) -> "SessionBuilder":
        """Select the flow source by registry kind; ``options`` are the
        kind's own."""
        self._source = SourceSpec(
            kind=kind, path=path, options=options,
            **_given(bin_seconds=bin_seconds, origin=origin),
        )
        return self

    def table(self, table: Any, **options: Any) -> "SessionBuilder":
        """Use an in-memory :class:`FlowTable`/:class:`FlowTrace`."""
        self.source("table", **options)
        self._source = replace(self._source, table=table)
        return self

    def scenario(self, **options: Any) -> "SessionBuilder":
        """Use a synthetic scenario source (see
        :mod:`repro.synth.presets` for the options)."""
        self._source = SourceSpec(kind="scenario", options=options)
        return self

    # -- detector / mining ---------------------------------------------------

    def detect(self, name: str | None = None,
               train_bins: int | None = None,
               train_path: str | None = None,
               **options: Any) -> "SessionBuilder":
        """Select the detector by registry name; ``options`` are the
        detector's config overrides."""
        self._detector = DetectorSpec(**_given(
            name=name, train_bins=train_bins, train_path=train_path,
        ), options=options)
        return self

    def mine(self, engine: str | None = None,
             extraction: Mapping[str, Any] | None = None,
             **options: Any) -> "SessionBuilder":
        """Select the mining engine by registry name; ``options`` are
        the extended-Apriori overrides."""
        self._mining = MiningSpec(
            **_given(engine=engine), options=options,
            extraction=dict(extraction or {}),
        )
        return self

    # -- execution modes -----------------------------------------------------
    #
    # Every mode verb forwards its keywords to ExecutionSpec fields (the
    # one place a default lives); a keyword left at ``None`` keeps the
    # field's current value, the spec default unless an earlier call
    # set it.

    def mode(self, mode: str, **fields: Any) -> "SessionBuilder":
        """Select an execution mode and set ``ExecutionSpec`` fields
        (``ls``, ``stats``, ``compact`` and any mode without a
        dedicated builder verb)."""
        try:
            self._execution = replace(self._execution, mode=mode,
                                      **_given(**fields))
        except TypeError as exc:
            raise SpecError(str(exc), field="execution") from None
        return self

    def batch(self, workers: int | None = None,
              triage: bool | None = None, **fields: Any) -> "SessionBuilder":
        """Bounded batch detection (``workers`` is deprecated and has
        no effect)."""
        return self.mode("batch", workers=workers, triage=triage, **fields)

    def stream(self, window_seconds: float | None = None, *,
               auto_close: int | None = None,
               **fields: Any) -> "SessionBuilder":
        """Windowed-stream execution: ``lateness_seconds``,
        ``retain_windows``, ``dedup_window``, ``speedup``,
        ``chunk_rows``, ``triage`` (``workers`` is deprecated and has
        no effect: windows are counted and triage mines in-process).

        ``auto_close`` resolves open/acked alarms as ``decayed`` once
        no re-fire has extended them for that many sealed windows."""
        return self.mode("stream", window_seconds=window_seconds,
                         auto_close_windows=auto_close, **fields)

    def extract(self, start: float, end: float,
                hints: tuple | list | None = None,
                workers: int | None = None,
                anonymize: bool | None = None,
                **fields: Any) -> "SessionBuilder":
        """Ad-hoc extraction of one ``[start, end)`` window."""
        return self.mode("extract", start=start, end=end, hints=hints,
                         workers=workers, anonymize=anonymize, **fields)

    def triage(self, workers: int | None = None,
               anonymize: bool | None = None,
               **fields: Any) -> "SessionBuilder":
        """Archive-resume triage of open alarms."""
        return self.mode("triage", workers=workers, anonymize=anonymize,
                         **fields)

    def query(self, start: float | None = None,
              end: float | None = None,
              filter: str | None = None,  # noqa: A002 - mirrors nfdump
              top: str | None = None, limit: int | None = None,
              stats: bool | None = None, explain: bool | None = None,
              workers: int | None = None,
              **fields: Any) -> "SessionBuilder":
        """nfdump-style filtered query / top-N / aggregate stats.

        ``stats=True`` answers with counters only (planner pushdown —
        no rows are materialised when sidecars cover the window);
        ``explain=True`` attaches the planner's decision record;
        ``workers`` is deprecated and has no effect.
        """
        return self.mode("query", start=start, end=end, filter=filter,
                         top=top, limit=limit, stats=stats,
                         explain=explain, workers=workers, **fields)

    def synth(self, out: str) -> "SessionBuilder":
        """Render the scenario source to an ``.rpv5`` trace."""
        self._sink = replace(self._sink, trace_out=out)
        return self.mode("synth")

    def ingest(self, archive: str, **options: Any) -> "SessionBuilder":
        """Bulk-load the source into an archive directory."""
        self._sink = replace(self._sink, archive=archive,
                             archive_options=options)
        return self.mode("ingest")

    # -- sinks ---------------------------------------------------------------

    def archive(self, path: str, **options: Any) -> "SessionBuilder":
        """Persist flows into an on-disk archive directory."""
        self._sink = replace(self._sink, archive=path,
                             archive_options=options)
        return self

    def alarmdb(self, path: str) -> "SessionBuilder":
        """Store alarms in a file-backed sqlite DB."""
        self._sink = replace(self._sink, alarmdb=path)
        return self

    def reports(self, directory: str) -> "SessionBuilder":
        """Write rendered Table-1 triage reports into a directory."""
        self._sink = replace(self._sink, report_dir=directory)
        return self

    def events(
        self,
        directory: str,
        *,
        flight_recorder: int | None = None,
        span_log: int | None = None,
    ) -> "SessionBuilder":
        """Journal the run's provenance events into ``directory``.

        ``flight_recorder`` keeps the last N events for a crash dump;
        ``span_log`` resizes the span history backing ``/status`` and
        the Chrome trace export (default 512)."""
        self._sink = replace(self._sink, events_path=directory,
                             span_log=span_log)
        if flight_recorder is not None:
            self._execution = replace(
                self._execution, flight_recorder=flight_recorder
            )
        return self

    def serve(
        self,
        port: int = 0,
        *,
        console: bool = False,
        dashboard: bool | None = None,
    ) -> "SessionBuilder":
        """Serve live telemetry on a loopback port during stream/triage
        runs (``0`` picks an ephemeral port, reported in
        ``RunResult.payload["metrics_port"]``). ``console=True``
        upgrades the endpoint to the full operator console —
        ``/api/alarms`` (+ lifecycle actions), ``/api/windows``,
        ``/api/archive/query`` and, unless ``dashboard=False``, the
        live dashboard page at ``/``."""
        if console:
            self._sink = replace(self._sink, serve_port=port,
                                 **_given(dashboard=dashboard))
        else:
            self._sink = replace(self._sink, metrics_port=port)
        return self

    # -- callbacks / finalization -------------------------------------------

    def on_window(self, callback: Callable) -> "SessionBuilder":
        """Observe each sealed stream window."""
        self._on_window = callback
        return self

    def on_start(self, callback: Callable[[dict], None]) -> "SessionBuilder":
        """Observe the run context before the main loop."""
        self._on_start = callback
        return self

    def spec(self) -> SessionSpec:
        """The assembled (validated) spec."""
        if self._source is None:
            raise SpecError("a source is required", field="source")
        return SessionSpec(
            source=self._source,
            detector=self._detector,
            mining=self._mining,
            execution=self._execution,
            sink=self._sink,
        )

    def build(self) -> Session:
        """Freeze into an executable :class:`Session`."""
        return Session(self.spec(), on_window=self._on_window,
                       on_start=self._on_start)

    def run(self) -> RunResult:
        """``build().run()``."""
        return self.build().run()


def _given(**fields: Any) -> dict[str, Any]:
    """The keywords a caller actually set (``None`` = left alone)."""
    return {name: value for name, value in fields.items()
            if value is not None}


def session() -> SessionBuilder:
    """Start a fluent session builder."""
    return SessionBuilder()
