"""Typed, declarative session specs — the public configuration surface.

A session is five orthogonal specs:

``SourceSpec``
    *Where the flows come from*: a recorded ``.rpv5`` trace, a CSV
    file, an in-memory table, a synthetic scenario, a persistent
    archive directory, or a live-tailed CSV log.
``DetectorSpec``
    *Which detector watches them*, by registry name, plus its training
    geometry and config options.
``MiningSpec``
    *How triage mines*: the frequent-itemset engine by registry name
    plus extended-Apriori and extraction-pipeline overrides.
``ExecutionSpec``
    *How the run executes*: batch vs. windowed stream (vs. the utility
    modes behind the CLI subcommands), worker count, window geometry,
    lateness, retention, replay pacing, and the mode's parameters.
``SinkSpec``
    *Where results land*: sqlite alarm DB, on-disk archive spill,
    report directory, synth trace output.

All five compose into a :class:`SessionSpec`, which round-trips
through TOML (``SessionSpec.from_dict`` / ``to_dict`` / ``to_toml``)
and is what :class:`repro.api.Session` executes. Every validation
failure raises :class:`repro.errors.SpecError` naming the offending
field with its dotted path (``execution.workers``), so a bad config
points at the exact line to fix.

Field ``metadata`` carries the CLI flag name and help text; the CLI's
shared parent parsers are *generated* from these dataclasses, so help
text and defaults cannot drift between subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.errors import SpecError
from repro.flows.trace import DEFAULT_BIN_SECONDS

__all__ = [
    "SourceSpec",
    "DetectorSpec",
    "MiningSpec",
    "ExecutionSpec",
    "SinkSpec",
    "SessionSpec",
    "EXECUTION_MODES",
]

#: Execution modes dispatchable through ``Session.run()``. ``batch``
#: and ``stream`` are the two detection loops; ``triage`` is
#: archive-resume; the rest back the CLI's
#: utility subcommands so every command routes through the facade.
EXECUTION_MODES = (
    "batch",
    "stream",
    "triage",
    "extract",
    "query",
    "synth",
    "ingest",
    "compact",
    "stats",
    "ls",
)


def _require(condition: bool, field_path: str, message: str) -> None:
    if not condition:
        raise SpecError(message, field=field_path)


def _coerce_float(spec: Any, section: str, *names: str) -> None:
    """Normalize int-valued float fields (TOML writes ``300`` not
    ``300.0``) and reject non-numeric values, in place on a frozen
    dataclass."""
    for name in names:
        value = getattr(spec, name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(
                f"expected a number, got {value!r}",
                field=f"{section}.{name}",
            )
        object.__setattr__(spec, name, float(value))


def _check_int(spec: Any, section: str, name: str, minimum: int) -> None:
    value = getattr(spec, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"expected an integer, got {value!r}", field=f"{section}.{name}"
        )
    _require(value >= minimum, f"{section}.{name}",
             f"must be >= {minimum}: {value}")


def _check_mapping(spec: Any, section: str, name: str) -> None:
    value = getattr(spec, name)
    if not isinstance(value, Mapping):
        raise SpecError(
            f"expected a table/mapping, got {value!r}",
            field=f"{section}.{name}",
        )
    object.__setattr__(spec, name, dict(value))


@dataclass(frozen=True)
class SourceSpec:
    """Where the session's flows come from (``[source]``)."""

    #: Registry name: ``rpv5``, ``csv``, ``table``, ``scenario``,
    #: ``archive``, ``tail`` — or any plugin-registered kind.
    kind: str
    #: File path (``rpv5``/``csv``/``tail``) or directory (``archive``).
    path: str | None = None
    #: Bin width the loaded trace is organised in.
    bin_seconds: float = DEFAULT_BIN_SECONDS
    #: Epoch of bin 0 for loaded traces.
    origin: float = 0.0
    #: Kind-specific options (e.g. the ``scenario`` generator knobs,
    #: ``tail`` polling).
    options: dict = field(default_factory=dict)
    #: In-memory table/trace for ``kind="table"`` — builder-only, never
    #: serialized, excluded from equality.
    table: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require(bool(self.kind) and isinstance(self.kind, str),
                 "source.kind", f"must be a non-empty string: {self.kind!r}")
        _coerce_float(self, "source", "bin_seconds", "origin")
        _require(self.bin_seconds > 0, "source.bin_seconds",
                 f"must be positive: {self.bin_seconds!r}")
        _check_mapping(self, "source", "options")


@dataclass(frozen=True)
class DetectorSpec:
    """Which detector watches the flows (``[detector]``)."""

    #: Registry name: ``netreflex``, ``pca``, ``kl`` or a plugin name.
    name: str = "netreflex"
    #: Leading bins of the source used as the training window.
    train_bins: int = field(default=8, metadata={
        "flag": "--train-bins",
        "help": "leading bins used as the training window",
    })
    #: Separate training trace (``.rpv5``) for unbounded sources.
    train_path: str | None = None
    #: Detector-config overrides forwarded to the registered factory.
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name) and isinstance(self.name, str),
                 "detector.name", f"must be a non-empty string: {self.name!r}")
        _check_int(self, "detector", "train_bins", 1)
        _check_mapping(self, "detector", "options")


@dataclass(frozen=True)
class MiningSpec:
    """How triage mines frequent itemsets (``[mining]``)."""

    #: Registry name: the built-in ``apriori`` or a plugin.
    engine: str = "apriori"
    #: Extended-Apriori overrides (thresholds, target band, floors...).
    options: dict = field(default_factory=dict)
    #: Extraction-pipeline overrides (``top_k``, ``dominance``...).
    extraction: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.engine) and isinstance(self.engine, str),
                 "mining.engine",
                 f"must be a non-empty string: {self.engine!r}")
        _check_mapping(self, "mining", "options")
        _check_mapping(self, "mining", "extraction")


@dataclass(frozen=True)
class ExecutionSpec:
    """How the session executes (``[execution]``)."""

    #: One of :data:`EXECUTION_MODES`.
    mode: str = "batch"
    #: Deprecated, no effect: every pass runs in the calling process.
    #: Still validated (>= 1) so existing configs keep loading.
    workers: int = field(default=1, metadata={
        "flag": "--workers",
        "help": "deprecated, no effect: every pass runs in this "
                "process (must still be >= 1)",
        "cli_type": "positive",
    })
    #: Stream window width; ``None`` = the source's bin width.
    window_seconds: float | None = field(default=None, metadata={
        "flag": "--window",
        "metavar": "SECONDS",
        "help": "window width in seconds (default: the trace bin width)",
    })
    lateness_seconds: float = field(default=0.0, metadata={
        "flag": "--lateness",
        "metavar": "SECONDS",
        "help": "lateness horizon in seconds",
    })
    retain_windows: int = field(default=16, metadata={
        "flag": "--retain-windows",
        "help": "windows kept in the live archive ring",
    })
    dedup_window: float | None = field(default=None, metadata={
        "flag": "--dedup-window",
        "metavar": "SECONDS",
        "help": "suppress re-fired alarms within this many seconds "
                "(default: off)",
    })
    #: Replay pacing over recorded time; ``None`` = max rate.
    speedup: float | None = field(default=None, metadata={
        "flag": "--speedup",
        "help": "replay speedup over recorded time; 0 = max rate",
    })
    chunk_rows: int = field(default=8192, metadata={
        "flag": "--chunk-rows",
        "help": "flows per ingested chunk",
    })
    #: Triage open alarms (batch: after detection; stream: as windows
    #: close against the live ring).
    triage: bool = field(default=False, metadata={
        "flag": "--triage",
        "help": "triage open alarms against the flow store",
    })
    #: Window of interest for ``extract``/``query`` modes.
    start: float | None = None
    end: float | None = None
    #: nfdump-style filter expression (``query`` mode).
    filter: str | None = None
    #: Feature whose top-N values to report (``query`` mode).
    top: str | None = None
    #: Row/value limit for ``query`` output.
    limit: int = 10
    #: ``query`` mode: answer with aggregate counters only (planner
    #: pushdown — no flow rows are materialised).
    stats: bool = False
    #: ``query`` mode: include the planner's decision record.
    explain: bool = False
    #: Meta-data hints ``feature=value`` for ``extract`` mode.
    hints: tuple = ()
    #: Render report IPs anonymized (``X.191.64.165`` style).
    anonymize: bool = field(default=False, metadata={
        "flag": "--anonymize",
        "help": "anonymize IPs in rendered reports",
    })
    #: Stream lifecycle decay: auto-resolve open/acked alarms with
    #: verdict ``decayed`` once no re-fire has touched them for this
    #: many sealed windows. ``None`` (default) never auto-closes.
    auto_close_windows: int | None = field(default=None, metadata={
        "flag": "--auto-close",
        "metavar": "WINDOWS",
        "help": "auto-resolve alarms not re-fired within this many "
                "windows (verdict 'decayed'; default: off)",
    })
    #: Crash black box: keep the last N provenance events in memory
    #: and dump them as one JSON file when the run dies on an
    #: exception (or ``repro serve`` catches SIGTERM). ``None``
    #: (default) records only if ``sink.events_path`` is set, at the
    #: journal's default depth.
    flight_recorder: int | None = field(default=None, metadata={
        "flag": "--flight-recorder",
        "metavar": "EVENTS",
        "help": "keep the last N provenance events and dump them on "
                "crash/SIGTERM (default: journal default when "
                "sink.events_path is set, else off)",
    })

    def __post_init__(self) -> None:
        _require(self.mode in EXECUTION_MODES, "execution.mode",
                 f"unknown mode {self.mode!r}; expected one of "
                 f"{', '.join(EXECUTION_MODES)}")
        _check_int(self, "execution", "workers", 1)
        _check_int(self, "execution", "retain_windows", 1)
        _check_int(self, "execution", "chunk_rows", 1)
        _check_int(self, "execution", "limit", 1)
        _coerce_float(self, "execution", "window_seconds",
                      "lateness_seconds", "dedup_window", "speedup",
                      "start", "end")
        _require(self.start is None or self.end is None
                 or self.end >= self.start, "execution.end",
                 f"window end {self.end!r} precedes start {self.start!r}")
        _require(self.window_seconds is None or self.window_seconds > 0,
                 "execution.window_seconds",
                 f"must be positive: {self.window_seconds!r}")
        _require(self.lateness_seconds >= 0, "execution.lateness_seconds",
                 f"must be >= 0: {self.lateness_seconds!r}")
        if self.speedup == 0:  # documented sentinel: 0 = max rate
            object.__setattr__(self, "speedup", None)
        _require(self.speedup is None or self.speedup > 0,
                 "execution.speedup",
                 f"must be positive: {self.speedup!r}")
        if self.auto_close_windows is not None:
            _check_int(self, "execution", "auto_close_windows", 1)
        if self.flight_recorder is not None:
            _check_int(self, "execution", "flight_recorder", 1)
        if not isinstance(self.hints, (list, tuple)):
            raise SpecError(
                f"expected a list of 'feature=value' strings: "
                f"{self.hints!r}",
                field="execution.hints",
            )
        object.__setattr__(self, "hints", tuple(self.hints))


@dataclass(frozen=True)
class SinkSpec:
    """Where the session's results land (``[sink]``)."""

    #: sqlite alarm DB file; ``None`` = in-memory (dies with the run).
    alarmdb: str | None = field(default=None, metadata={
        "flag": "--alarmdb",
        "metavar": "PATH",
        "help": "sqlite alarm DB file (default: in-memory; a file "
                "survives the process for later triage)",
    })
    #: On-disk archive directory: stream persists closed windows here;
    #: ``ingest`` bulk-loads into it.
    archive: str | None = field(default=None, metadata={
        "flag": "--archive",
        "metavar": "DIR",
        "help": "persist flows into this on-disk archive directory",
    })
    #: Directory for rendered Table-1 triage reports (one file/alarm).
    report_dir: str | None = None
    #: Output ``.rpv5`` path for ``synth`` mode.
    trace_out: str | None = None
    #: Archive geometry for ``ingest`` only: ``window`` (rotation
    #: seconds) and ``spill_rows``.
    archive_options: dict = field(default_factory=dict)
    #: TCP port for the live telemetry endpoint: ``Session.run()``
    #: enables obs metrics and serves ``/metrics`` (Prometheus text)
    #: and ``/status`` (JSON) on loopback for stream/triage runs.
    #: ``0`` binds an ephemeral port (reported in the run's stats);
    #: ``None`` (default) serves nothing and opens no socket.
    metrics_port: int | None = field(default=None, metadata={
        "flag": "--metrics-port",
        "metavar": "PORT",
        "help": "serve live /metrics (Prometheus) and /status (JSON) "
                "on this loopback port during the run (0 = ephemeral)",
    })
    #: TCP port for the full operator console: everything
    #: ``metrics_port`` serves plus the ``/api/*`` JSON surface
    #: (alarms + lifecycle actions, windows, archive queries) and the
    #: live dashboard page. Supersedes ``metrics_port`` when both are
    #: set. ``0`` binds an ephemeral port; ``None`` (default) off.
    serve_port: int | None = field(default=None, metadata={
        "flag": "--serve-port",
        "metavar": "PORT",
        "help": "serve the operator console (/metrics, /status, "
                "/api/*, dashboard) on this loopback port "
                "(0 = ephemeral)",
    })
    #: Serve the embedded dashboard page at ``/`` on the console port.
    dashboard: bool = True
    #: Directory for the structured provenance journal: every pipeline
    #: lifecycle step (chunk → window → verdict → alarm → archive)
    #: appends one causally-linked JSON line, rotated by
    #: size. ``repro obs lineage`` and the console's
    #: ``/api/events/stream`` (SSE) read it. ``None`` (default) off.
    events_path: str | None = field(default=None, metadata={
        "flag": "--events",
        "metavar": "DIR",
        "help": "write the structured provenance event journal "
                "(rotated JSONL) into this directory",
    })
    #: Span-log bound (``repro.obs.trace`` history depth) for this
    #: run; ``None`` keeps the process default (512).
    span_log: int | None = field(default=None, metadata={
        "flag": "--span-log",
        "metavar": "SPANS",
        "help": "bound of the in-memory span log backing /status and "
                "the Chrome trace export (default: 512)",
    })

    def __post_init__(self) -> None:
        _check_mapping(self, "sink", "archive_options")
        for key in self.archive_options:
            _require(key in ("spill_rows", "window"),
                     f"sink.archive_options.{key}",
                     f"unknown archive option {key!r}; expected "
                     f"spill_rows, window")
        if self.span_log is not None:
            _check_int(self, "sink", "span_log", 1)
        for name in ("metrics_port", "serve_port"):
            value = getattr(self, name)
            if value is not None:
                _require(
                    isinstance(value, int)
                    and not isinstance(value, bool)
                    and 0 <= value <= 65535,
                    f"sink.{name}",
                    f"must be a TCP port (0-65535): {value!r}",
                )


@dataclass(frozen=True)
class SessionSpec:
    """The five orthogonal specs of one declarative session."""

    source: SourceSpec
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    mining: MiningSpec = field(default_factory=MiningSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    sink: SinkSpec = field(default_factory=SinkSpec)

    def __post_init__(self) -> None:
        _require(not self.sink.archive_options
                 or self.execution.mode == "ingest",
                 "sink.archive_options",
                 f"archive options apply to ingest mode only, not "
                 f"{self.execution.mode!r}")

    # -- mapping round-trip -------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionSpec":
        """Build a spec from a parsed-TOML-style nested mapping.

        Unknown sections and keys raise :class:`SpecError` naming the
        offending field.
        """
        if not isinstance(data, Mapping):
            raise SpecError(
                f"expected a mapping of sections, got {data!r}"
            )
        known = {f.name: f.type for f in fields(cls)}
        sections = {}
        for section, mapping in data.items():
            if section not in known:
                raise SpecError(
                    f"unknown section [{section}]; expected "
                    f"{', '.join(sorted(known))}",
                    field=section,
                )
            if not isinstance(mapping, Mapping):
                raise SpecError(
                    f"section [{section}] must be a table, got {mapping!r}",
                    field=section,
                )
            sections[section] = mapping
        if "source" not in sections:
            raise SpecError("a [source] section is required",
                            field="source")
        built = {}
        for section, spec_cls in _SECTION_CLASSES.items():
            if section not in sections:
                continue
            built[section] = _spec_from_mapping(
                spec_cls, section, sections[section]
            )
        return cls(**built)

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """Nested-mapping form; inverse of :meth:`from_dict`.

        ``None`` fields are omitted (TOML has no null); in-memory table
        sources cannot be serialized.
        """
        if self.source.table is not None:
            raise SpecError(
                "in-memory table sources cannot be serialized to a "
                "config; write the table to a trace file instead",
                field="source.table",
            )
        return {
            section: _spec_to_mapping(getattr(self, section))
            for section in _SECTION_CLASSES
        }

    def to_toml(self) -> str:
        """Render the spec as a TOML document (round-trips exactly)."""
        from repro.api._toml import dumps

        return dumps(self.to_dict())

    def with_overrides(self, **sections: Mapping[str, Any]) -> "SessionSpec":
        """A copy with per-section field overrides applied, e.g.
        ``spec.with_overrides(execution={"triage": True})``."""
        updates = {}
        for section, mapping in sections.items():
            if section not in _SECTION_CLASSES:
                raise SpecError(
                    f"unknown section [{section}]", field=section
                )
            current = getattr(self, section)
            known = {f.name for f in fields(current)}
            for key in mapping:
                if key not in known:
                    raise SpecError(
                        f"unknown {section} key {key!r}",
                        field=f"{section}.{key}",
                    )
            updates[section] = replace(current, **dict(mapping))
        return replace(self, **updates)


_SECTION_CLASSES = {
    "source": SourceSpec,
    "detector": DetectorSpec,
    "mining": MiningSpec,
    "execution": ExecutionSpec,
    "sink": SinkSpec,
}


def _spec_from_mapping(spec_cls, section: str, mapping: Mapping) -> Any:
    known = {
        f.name for f in fields(spec_cls) if f.name != "table"
    }
    kwargs = {}
    for key, value in mapping.items():
        if key not in known:
            raise SpecError(
                f"unknown {section} key {key!r}; expected "
                f"{', '.join(sorted(known))}",
                field=f"{section}.{key}",
            )
        kwargs[key] = value
    try:
        return spec_cls(**kwargs)
    except TypeError as exc:
        raise SpecError(str(exc), field=section) from None


def _spec_to_mapping(spec: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(spec):
        if f.name == "table":
            continue
        value = getattr(spec, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            if not value:  # empty tables add nothing; keep TOML tidy
                continue
            value = dict(value)
        out[f.name] = value
    return out
