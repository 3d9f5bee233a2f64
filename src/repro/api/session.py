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

import logging
import math
import tomllib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api.registry import detectors, miners, sources
from repro.api.specs import (
    DetectorSpec,
    ExecutionSpec,
    MiningSpec,
    SessionSpec,
    SinkSpec,
    SourceSpec,
)
from repro.detect.base import Alarm, Detector, MetadataItem
from repro.errors import DetectorError, MiningError, ReproError, SpecError
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
from repro.flows.store import FlowStore
from repro.flows.trace import FlowTrace
from repro.obs import (
    events as obs_events,
    metrics as obs_metrics,
    trace as obs_trace,
)
from repro.stream import ReplayDriver, StreamEngine, streaming_adapter
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
        operator console is listening (``sink.serve_port`` specs)."""
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
        journal = None
        previous_journal = None
        if sink.events_path is not None \
                or execution.flight_recorder is not None:
            journal = obs_events.EventJournal(
                sink.events_path,
                recorder_events=(
                    execution.flight_recorder
                    or obs_events.DEFAULT_RECORDER_EVENTS
                ),
            )
            previous_journal = obs_events.install(journal)
        logger.debug("running session mode %s", mode)
        root = None
        if journal is not None:
            root = journal.emit(
                "run.start", mode=mode, workers=execution.workers
            )
        try:
            with obs_events.causal(root), \
                    obs_trace.span(f"session.{mode}") as total:
                result: RunResult = runner()
        except BaseException as exc:
            # The black box: a dying run dumps its last-N events
            # before the exception propagates, so the operator can
            # read what the pipeline was doing when it went down.
            if journal is not None:
                journal.emit(
                    "run.end", parent=root,
                    outcome=type(exc).__name__,
                )
                journal.dump_recorder(
                    reason=f"{type(exc).__name__}: {exc}"
                )
                obs_events.install(previous_journal)
                journal.close()
            raise
        if journal is not None:
            journal.emit(
                "run.end", parent=root,
                outcome="interrupted" if result.interrupted else "ok",
            )
            obs_events.install(previous_journal)
            journal.close()
            result.payload.setdefault("run_id", journal.run)
            if sink.events_path is not None:
                result.payload.setdefault(
                    "events_path", sink.events_path
                )
        result.timings.setdefault("total", total.seconds)
        return result

    def _serve_metrics(
        self, status: Callable[[], dict[str, Any]]
    ):
        """Start the /metrics + /status endpoint when the spec asks.

        Returns the started server or ``None``; without a
        ``sink.metrics_port`` no socket is ever opened.
        """
        port = self.spec.sink.metrics_port
        if port is None:
            return None
        from repro.obs.serve import MetricsServer

        obs_metrics.enable()
        return MetricsServer(port=port, status=status).start()

    def _serve_console(
        self,
        status: Callable[[], dict[str, Any]],
        alarms: AlarmDatabase | None = None,
        windows: Callable[[], list[dict[str, Any]]] | None = None,
        archive: Callable[[], Any] | None = None,
    ):
        """Start the operator console when ``sink.serve_port`` asks.

        Specs that only set ``metrics_port`` fall back to the bare
        telemetry endpoint via :meth:`_serve_metrics` — the console is
        a strict superset, so ``serve_port`` wins when both are set.
        """
        port = self.spec.sink.serve_port
        if port is None:
            return self._serve_metrics(status)
        from repro.obs.console import ConsoleServer

        obs_metrics.enable()
        server = ConsoleServer(
            port=port,
            status=status,
            alarms=alarms,
            windows=windows,
            archive=archive,
            dashboard=self.spec.sink.dashboard,
        ).start()
        if self.on_serve is not None:
            self.on_serve(server.port)
        return server

    def _archive_reader_factory(
        self, directory: str | None
    ) -> Callable[[], Any] | None:
        """Lazy, cached archive reader for the console's query surface.

        The reader is built on first request (the directory may not
        exist until the stream seals its first window) and kept with
        ``auto_refresh`` on so later polls see new partitions.
        """
        if not directory:
            return None
        cache: list[Any] = []

        def reader():
            if not cache:
                from repro.archive import ArchiveReader

                try:
                    cache.append(ArchiveReader(directory))
                except Exception:
                    return None
            return cache[0]

        return reader

    # -- shared assembly ---------------------------------------------------

    def _source(self):
        factory = sources.get(self.spec.source.kind, field="source.kind")
        return factory(self.spec.source)

    def _bounded_source(self, mode: str):
        source = self._source()
        if not source.bounded:
            raise SpecError(
                f"mode {mode!r} needs a bounded source, but "
                f"{self.spec.source.kind!r} is unbounded",
                field="source.kind",
            )
        return source

    def _archive_source(self, mode: str):
        source = self._source()
        if not hasattr(source, "reader"):
            raise SpecError(
                f"mode {mode!r} operates on an archive source, not "
                f"{self.spec.source.kind!r}",
                field="source.kind",
            )
        return source

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

    def _split_trace(
        self, trace: FlowTrace
    ) -> tuple[FlowTrace, FlowTrace, float]:
        """(training, tail, split) by the spec's ``train_bins``."""
        train_bins = self.spec.detector.train_bins
        split = trace.origin + train_bins * trace.bin_seconds
        # The trace is sorted by start: both sides are slices of it.
        training, tail = (
            FlowTrace(
                trace.between_table(lo, hi),
                bin_seconds=trace.bin_seconds,
                origin=trace.origin,
            )
            for lo, hi in ((-math.inf, split), (split, math.inf))
        )
        if not training or not tail:
            raise SpecError(
                f"trace too short for {train_bins} training bins",
                field="detector.train_bins",
            )
        return training, tail, split

    def _training_trace(self) -> FlowTrace | None:
        """The external training trace, when ``train_path`` is set."""
        path = self.spec.detector.train_path
        if path is None:
            return None
        # The training file is its own artifact: it shares the live
        # source's bin width but not its grid anchor — a collector
        # source anchored at the capture's split point must not
        # re-anchor (and thereby empty) the training bins.
        return FlowTrace(
            read_binary_table(path),
            bin_seconds=self.spec.source.bin_seconds,
        )

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
        source = self._bounded_source("batch")
        timings: dict[str, float] = {}
        with obs_trace.span("batch.load", timings, "load"):
            trace = source.trace()
        external = self._training_trace()
        if external is not None:
            training, tail = external, trace
        else:
            training, tail, _ = self._split_trace(trace)
        detector = self._detector()
        with obs_trace.span("batch.train", timings, "train"):
            detector.train(training)
        if self.on_start is not None:
            self.on_start({
                "mode": "batch",
                "detector": detector.name,
                "train_flows": len(training),
                "flows": len(tail),
            })
        with obs_trace.span("batch.detect", timings, "detect"):
            alarms = detector.detect(tail)
        triage: list[TriageResult] = []
        statuses: dict[str, tuple[str, str]] = {}
        open_count = len(alarms)
        # Detection-only runs skip the store/DB assembly entirely — the
        # legacy `detect` path never paid for a FlowStore it didn't use.
        if execution.triage or self.spec.sink.alarmdb:
            config = self._system_config()
            db = self._alarmdb()
            try:
                system = ExtractionSystem(
                    FlowBackend(
                        store=FlowStore.from_trace(trace),
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
                statuses = {
                    t.alarm.alarm_id: db.status_of(t.alarm.alarm_id)
                    for t in triage
                }
                open_count = db.count("open")
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
        source = self._bounded_source("extract")
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
        execution = self.spec.execution
        sink = self.spec.sink
        source = self._source()
        timings: dict[str, float] = {}
        external = self._training_trace()
        if source.bounded:
            trace = source.trace()
            if external is not None:
                training: FlowTrace = external
                tail = trace.table
                origin: float | None = trace.origin
            else:
                training, live, origin = self._split_trace(trace)
                tail = live.table
            window_seconds = execution.window_seconds or trace.bin_seconds
        else:
            if external is None:
                raise SpecError(
                    "streaming an unbounded source needs a separate "
                    "training trace (detector.train_path)",
                    field="detector.train_path",
                )
            training = external
            tail = None
            # Most unbounded sources let the ring anchor its grid on
            # the first flow seen; a source that declares an explicit
            # grid (the UDP collector: epoch-aligned, matching what a
            # file replay of the same capture would use) wins.
            origin = getattr(source, "stream_origin", None)
            window_seconds = (
                execution.window_seconds or self.spec.source.bin_seconds
            )
        detector = self._detector()
        with obs_trace.span("stream.train", timings, "train"):
            detector.train(training)
        if self.on_start is not None:
            context = {
                "mode": "stream",
                "detector": detector.name,
                "train_source": (
                    self.spec.detector.train_path
                    if external is not None
                    else f"{self.spec.detector.train_bins} bins"
                ),
                "train_flows": len(training),
                "flows": len(tail) if tail is not None else None,
                "window_seconds": window_seconds,
            }
            if hasattr(source, "port"):
                # A collector source: surface where it listens (the
                # CLI prints this flushed so CI can discover an
                # ephemeral port before replaying datagrams).
                context["listen"] = source.describe()
                context["port"] = source.port
            self.on_start(context)
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

        engine_options = dict(
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
        engine = StreamEngine(
            [streaming_adapter(detector)],
            workers=execution.workers,
            **engine_options,
        )
        interrupted = False
        flush_error: str | None = None
        replay_stats = None
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

        server = self._serve_console(
            stream_status,
            alarms=db,
            windows=windows_payload,
            archive=self._archive_reader_factory(sink.archive),
        )
        with obs_trace.span("stream.run", timings, "stream"):
            try:
                try:
                    if tail is not None:
                        driver = ReplayDriver(
                            tail,
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
                        flush_error = str(exc)
            finally:
                engine.close()
                if hasattr(source, "close"):
                    source.close()
                if server is not None:
                    server.stop()
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
        payload: dict[str, Any] = {}
        if hasattr(source, "stats"):
            payload["collector"] = collector_stats
        if server is not None:
            payload["metrics_port"] = server.port
            if sink.serve_port is not None:
                payload["serve_port"] = server.port
        if flush_error is not None:
            payload["flush_error"] = flush_error
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
        source = self._archive_source("triage")
        if not self.spec.sink.alarmdb:
            raise SpecError(
                "triage mode resumes from a file-backed alarm DB",
                field="sink.alarmdb",
            )
        reader = source.reader()
        db = AlarmDatabase(self.spec.sink.alarmdb)
        timings: dict[str, float] = {}
        server = self._serve_console(
            lambda: {
                "mode": "triage",
                "archive": source.describe(),
            },
            alarms=db,
            archive=lambda: reader,
        )
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
            stats = {
                "open_before": open_before,
                "triaged": len(results),
                "open": db.count("open"),
            }
            statuses = {
                t.alarm.alarm_id: db.status_of(t.alarm.alarm_id)
                for t in results
            }
        finally:
            db.close()
            if server is not None:
                server.stop()
        reports = self._write_reports(results)
        payload: dict[str, Any] = {
            "archive_dir": source.describe(),
            "reports": reports,
            "statuses": statuses,
        }
        if server is not None:
            payload["metrics_port"] = server.port
            if self.spec.sink.serve_port is not None:
                payload["serve_port"] = server.port
        return RunResult(
            mode="triage",
            triage=results,
            stats=stats,
            timings=timings,
            payload=payload,
        )

    # -- ad-hoc query --------------------------------------------------------

    def _run_query(self) -> RunResult:
        execution = self.spec.execution
        source = self._bounded_source("query")
        scan = None
        reader = None
        if hasattr(source, "reader"):
            reader = source.reader()
            store = reader
            archive_stats = reader.stats()
            span = archive_stats.span
        else:
            trace = source.trace()
            store = FlowStore.from_trace(trace)
            span = trace.span if len(trace) else None
        if span is None:
            return RunResult(mode="query", stats={"matched": 0},
                             payload={"flows": None})
        start = execution.start if execution.start is not None else span[0]
        end = execution.end if execution.end is not None else span[1] + 1.0
        # Aggregate surfaces (--stats, archive --top) go through the
        # planner: counts answer from zone-map sums, rankings from
        # feature-index sidecars — no flow rows are materialised when
        # the pushdown applies.
        payload: dict[str, Any] = {}
        timings: dict[str, float] = {}
        with obs_trace.span("query.run", timings, "query"):
            if execution.stats:
                counts = store.count(start, end, execution.filter)
                matched = counts.flows
                payload.update({"flows": None, "stats": counts})
            elif execution.top and reader is not None:
                matched = store.count(start, end, execution.filter).flows
                feature = _feature(execution.top, "execution.top")
                payload.update({
                    "flows": None,
                    "top_feature": feature,
                    "top": store.top_feature_values(
                        start, end, feature,
                        n=execution.limit,
                        flow_filter=execution.filter,
                    ),
                })
            else:
                flows = store.query_table(start, end, execution.filter)
                matched = len(flows)
                payload["flows"] = flows
                if execution.top:
                    from repro.flows.aggregate import top_n

                    feature = _feature(execution.top, "execution.top")
                    payload["top_feature"] = feature
                    payload["top"] = top_n(
                        flows, feature, n=execution.limit
                    )
        if hasattr(store, "last_scan"):
            scan = store.last_scan
        payload["scan"] = scan if payload.get("flows") is not None \
            else None
        if execution.explain and hasattr(store, "last_plan"):
            payload["plan"] = store.last_plan
        return RunResult(
            mode="query",
            stats={"matched": matched},
            timings=timings,
            payload=payload,
        )

    # -- synth ---------------------------------------------------------------

    def _run_synth(self) -> RunResult:
        source = self._source()
        if not hasattr(source, "labeled"):
            raise SpecError(
                "synth mode needs a scenario source",
                field="source.kind",
            )
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
                labeled.trace, out, boot_time=0.0,
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
        from repro.parallel.partition import PartitionSpec

        sink = self.spec.sink
        if not sink.archive:
            raise SpecError(
                "ingest mode needs an archive directory sink",
                field="sink.archive",
            )
        source = self._bounded_source("ingest")
        options = dict(sink.archive_options)
        known = {"window", "shards", "key", "seed", "spill_rows"}
        for key in options:
            if key not in known:
                raise SpecError(
                    f"unknown archive option {key!r}; expected "
                    f"{', '.join(sorted(known))}",
                    field=f"sink.archive_options.{key}",
                )
        shards = options.get("shards", 1)
        partition = None
        if shards > 1:
            partition = PartitionSpec(
                shards=shards,
                key=options.get("key", "src_ip"),
                seed=options.get("seed", 0),
            )
        writer_options: dict[str, Any] = {
            "slice_seconds": options.get("window"),
            "shard_spec": partition,
        }
        if "spill_rows" in options:
            writer_options["spill_rows"] = options["spill_rows"]
        timings: dict[str, float] = {}
        with obs_trace.span("ingest.load", timings, "ingest"):
            with ArchiveWriter(sink.archive,
                               **writer_options) as writer:
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
                "shards": stats.shards,
            },
            timings=timings,
            payload={"archived": stats, "archive_dir": sink.archive},
        )

    def _run_compact(self) -> RunResult:
        from repro.archive import compact_archive

        source = self._archive_source("compact")
        reader = source.reader()
        timings: dict[str, float] = {}
        with obs_trace.span("compact.run", timings, "compact"):
            result = compact_archive(source.describe(), reader=reader)
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
        source = self._archive_source("stats")
        reader = source.reader()
        stats = reader.stats()
        return RunResult(
            mode="stats",
            stats={"partitions": stats.partitions, "flows": stats.rows},
            payload={"archived": stats, "reader": reader},
        )

    def _run_ls(self) -> RunResult:
        source = self._archive_source("ls")
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
               **options: Any) -> "SessionBuilder":
        """Select the flow source by registry kind."""
        fixed = {
            key: options.pop(key)
            for key in ("bin_seconds", "origin")
            if key in options
        }
        self._source = SourceSpec(kind=kind, path=path,
                                  options=options, **fixed)
        return self

    def table(self, table: Any, **options: Any) -> "SessionBuilder":
        """Use an in-memory :class:`FlowTable`/:class:`FlowTrace`."""
        fixed = {
            key: options.pop(key)
            for key in ("bin_seconds", "origin")
            if key in options
        }
        self._source = SourceSpec(kind="table", table=table,
                                  options=options, **fixed)
        return self

    def scenario(self, **options: Any) -> "SessionBuilder":
        """Use a synthetic scenario source (see
        :mod:`repro.synth.presets` for the options)."""
        self._source = SourceSpec(kind="scenario", options=options)
        return self

    # -- detector / mining ---------------------------------------------------

    def detect(self, name: str = "netreflex", train_bins: int = 8,
               train_path: str | None = None,
               **options: Any) -> "SessionBuilder":
        """Select the detector by registry name."""
        self._detector = DetectorSpec(
            name=name, train_bins=train_bins, train_path=train_path,
            options=options,
        )
        return self

    def mine(self, engine: str = "apriori",
             extraction: Mapping[str, Any] | None = None,
             **options: Any) -> "SessionBuilder":
        """Select the mining engine by registry name."""
        self._mining = MiningSpec(
            engine=engine, options=options,
            extraction=dict(extraction or {}),
        )
        return self

    # -- execution modes -----------------------------------------------------

    def _mode(self, mode: str, **fields: Any) -> "SessionBuilder":
        self._execution = replace(self._execution, mode=mode, **fields)
        return self

    def mode(self, mode: str, **fields: Any) -> "SessionBuilder":
        """Select an execution mode generically (``ls``, ``stats``,
        ``compact`` and any mode without a dedicated builder verb)."""
        try:
            return self._mode(mode, **fields)
        except TypeError as exc:
            raise SpecError(str(exc), field="execution") from None

    def batch(self, workers: int = 1,
              triage: bool = False) -> "SessionBuilder":
        """Bounded batch detection (``workers`` is deprecated and has
        no effect)."""
        return self._mode("batch", workers=workers, triage=triage)

    def stream(
        self,
        window_seconds: float | None = None,
        *,
        workers: int = 1,
        lateness_seconds: float = 0.0,
        retain_windows: int = 16,
        dedup_window: float | None = None,
        speedup: float | None = None,
        chunk_rows: int = 8192,
        triage: bool = False,
        auto_close: int | None = None,
    ) -> "SessionBuilder":
        """Windowed-stream execution (``workers`` is deprecated and
        has no effect: windows are counted and triage mines in-process).

        ``auto_close`` resolves open/acked alarms as ``decayed`` once
        no re-fire has extended them for that many sealed windows."""
        return self._mode(
            "stream",
            window_seconds=window_seconds,
            workers=workers,
            lateness_seconds=lateness_seconds,
            retain_windows=retain_windows,
            dedup_window=dedup_window,
            auto_close_windows=auto_close,
            speedup=speedup,
            chunk_rows=chunk_rows,
            triage=triage,
        )

    def extract(self, start: float, end: float,
                hints: tuple | list = (), workers: int = 1,
                anonymize: bool = False) -> "SessionBuilder":
        """Ad-hoc extraction of one ``[start, end)`` window."""
        return self._mode("extract", start=start, end=end,
                          hints=tuple(hints), workers=workers,
                          anonymize=anonymize)

    def triage(self, workers: int = 1,
               anonymize: bool = False) -> "SessionBuilder":
        """Archive-resume triage of open alarms."""
        return self._mode("triage", workers=workers,
                          anonymize=anonymize)

    def query(self, start: float | None = None,
              end: float | None = None,
              filter: str | None = None,  # noqa: A002 - mirrors nfdump
              top: str | None = None, limit: int = 10,
              stats: bool = False, explain: bool = False,
              workers: int = 1) -> "SessionBuilder":
        """nfdump-style filtered query / top-N / aggregate stats.

        ``stats=True`` answers with counters only (planner pushdown —
        no rows are materialised when sidecars cover the window);
        ``explain=True`` attaches the planner's decision record;
        ``workers`` is deprecated and has no effect.
        """
        return self._mode("query", start=start, end=end, filter=filter,
                          top=top, limit=limit, stats=stats,
                          explain=explain, workers=workers)

    def synth(self, out: str) -> "SessionBuilder":
        """Render the scenario source to an ``.rpv5`` trace."""
        self._sink = replace(self._sink, trace_out=out)
        return self._mode("synth")

    def ingest(self, archive: str, **options: Any) -> "SessionBuilder":
        """Bulk-load the source into an archive directory."""
        self._sink = replace(self._sink, archive=archive,
                             archive_options=options)
        return self._mode("ingest")

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
        dashboard: bool = True,
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
                                 dashboard=dashboard)
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


def session() -> SessionBuilder:
    """Start a fluent session builder."""
    return SessionBuilder()
