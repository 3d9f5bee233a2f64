"""Command-line interface — a thin shell over :mod:`repro.api`.

Every mode subcommand is a *preset* plus flags over spec fields: the
preset fixes a few fields (``detect`` is ``source.kind = "rpv5"``,
``execution.mode = "batch"``), each flag's argparse ``dest`` names the
field it sets (``--start`` → ``execution.start``, ``--seed`` →
``source.options.seed``), and the parsed namespace *is* the spec —
flags → :class:`~repro.api.SessionSpec` → ``Session.run()`` →
renderer, one path for all of them. The subcommands mirror the
deployment workflow::

    python -m repro.cli synth   --out trace.rpv5 --bins 6 --seed 7 \\
        --anomaly port-scan --anomaly udp-flood
    python -m repro.cli query   trace.rpv5 --filter 'dst port 445' --top dstIP
    python -m repro.cli detect  trace.rpv5 --train-bins 8
    python -m repro.cli extract trace.rpv5 --start 1200 --end 1500 \\
        --hint dstIP=10.9.0.4 --hint srcPort=55548
    python -m repro.cli stream  trace.rpv5 --train-bins 8 --speedup 60 \\
        --triage --archive spool/ --alarmdb alarms.db
    python -m repro.cli archive ingest trace.rpv5 --dir spool/
    python -m repro.cli archive triage --dir spool/ --alarmdb alarms.db
    python -m repro.cli run     config.toml --set execution.triage=true
    python -m repro.cli serve   config.toml --port 9108 --linger 300
    python -m repro.cli alarms  ls --alarmdb alarms.db --status open
    python -m repro.cli alarms  ack a-17 --alarmdb alarms.db --note ok
    python -m repro.cli alarms  audit a-17 --alarmdb alarms.db

``run`` is the declarative face: a TOML file with ``[source]``,
``[detector]``, ``[mining]``, ``[execution]`` and ``[sink]`` sections
(see ``examples/configs/``) executes through the same path, with
``--set section.key=value`` for ad-hoc overrides; ``serve``,
``obs dump`` and ``obs trace`` load their config the same way.

Flags that are spec fields with their own help (``--workers``,
``--archive``, ``--alarmdb``, the window geometry) are *generated* from
the spec dataclasses' field metadata via parent parsers, and every flag
group is declared once, so help text and defaults cannot drift between
subcommands. Defaults live in the spec: a flag left unset leaves its
field at the spec default.

Exit codes map the :mod:`repro.errors` hierarchy: ``2`` bad spec or
configuration, ``3`` unknown registry name, ``4`` filter errors,
``5`` codec/schema errors, ``6`` archive errors, ``7`` collector
socket bind/permission failures, ``1`` any other library error,
``130`` interrupted.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tomllib
from dataclasses import fields
from typing import Any, Callable, Sequence

from repro import api
from repro.api.specs import _SECTION_CLASSES
from repro.errors import (
    ArchiveError,
    CodecError,
    CollectorError,
    ConfigurationError,
    FilterError,
    RegistryError,
    ReproError,
    SpecError,
)
from repro.extraction.summarize import table_rows
from repro.flows.record import FlowFeature, format_feature_value
from repro.synth.presets import ANOMALY_NAMES
from repro.system.alarmdb import AlarmStatus
from repro.system.console import (
    flow_drilldown_view,
    render_table,
    verdict_view,
)

__all__ = ["main", "build_parser", "EXIT_CODES"]

#: Most-specific-first mapping of library errors to exit codes.
EXIT_CODES: tuple[tuple[type[ReproError], int], ...] = (
    (RegistryError, 3),
    (SpecError, 2),
    (ConfigurationError, 2),
    (FilterError, 4),
    (CodecError, 5),
    (ArchiveError, 6),
    (CollectorError, 7),
)

#: Each mode subcommand's fixed spec fields; its flags set the rest.
PRESETS: dict[str, dict[str, str]] = {
    "synth": {"source.kind": "scenario", "execution.mode": "synth"},
    "query": {"source.kind": "rpv5", "execution.mode": "query"},
    "detect": {"source.kind": "rpv5", "execution.mode": "batch"},
    "extract": {"source.kind": "rpv5", "execution.mode": "extract"},
    "stream": {"source.kind": "rpv5", "execution.mode": "stream"},
    "archive ingest": {"source.kind": "rpv5", "execution.mode": "ingest"},
    **{
        f"archive {mode}": {"source.kind": "archive", "execution.mode": mode}
        for mode in ("ls", "query", "compact", "stats", "triage")
    },
}


def exit_code_for(exc: ReproError) -> int:
    """The CLI exit code for a library error (1 when unmapped)."""
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def _configure_logging(level_name: str) -> None:
    """Attach one stderr handler to the ``repro`` logger hierarchy.

    The library itself never configures handlers (it only emits);
    the CLI is where a human opted into seeing the log stream.
    """
    logger = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level_name.upper()))


def _positive(name: str) -> Callable[[str], int]:
    """argparse type for a positive-int flag; its errors name ``name``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= 1: {value}"
            )
        return value

    return parse


# -- parent parsers: each flag group declared once ------------------------------


def _spec_parent(section: str, names: Sequence[str]) -> argparse.ArgumentParser:
    """A parent parser whose flags come from spec dataclass fields.

    Flag spelling and help text derive from the field definitions in
    :mod:`repro.api.specs` — single source of truth; an unset flag
    parses to ``None``, which leaves the field at its spec default.
    """
    by_name = {f.name: f for f in fields(_SECTION_CLASSES[section])}
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        f = by_name[name]
        meta = f.metadata
        flag = meta.get("flag", "--" + f.name.replace("_", "-"))
        kwargs: dict[str, Any] = {
            "dest": f"{section}.{f.name}",
            "help": meta.get("help"),
        }
        annotation = str(f.type)
        if meta.get("cli_type") == "positive":
            kwargs["type"] = _positive(f.name)
        elif annotation.startswith("bool"):
            kwargs["action"] = "store_true"
        elif "float" in annotation:
            kwargs["type"] = float
        elif "int" in annotation:
            kwargs["type"] = int
        if "metavar" in meta and "action" not in kwargs:
            kwargs["metavar"] = meta["metavar"]
        parent.add_argument(flag, **kwargs)
    return parent


def _parent(*flags: str, **kwargs: Any) -> argparse.ArgumentParser:
    """A parent parser declaring one argument."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _archive_dir(dest: str) -> argparse.ArgumentParser:
    return _parent("--dir", dest=dest, required=True,
                   help="archive directory")


def _flag_metavars(parser: argparse.ArgumentParser) -> None:
    """Name each value after its flag (``--spill-rows SPILL_ROWS``),
    not after the dotted spec field its dest is."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                _flag_metavars(child)
        elif ("." in action.dest and action.option_strings
              and action.metavar is None and action.choices is None):
            action.metavar = (
                action.option_strings[-1].lstrip("-").replace("-", "_")
                .upper()
            )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    workers = _spec_parent("execution", ["workers"])
    geometry = _spec_parent("execution", [
        "window_seconds", "lateness_seconds", "speedup", "chunk_rows",
        "retain_windows", "dedup_window",
    ])
    triage_flag = _spec_parent("execution", ["triage"])
    anonymize = _spec_parent("execution", ["anonymize"])
    train = _spec_parent("detector", ["train_bins"])
    sinks = _spec_parent("sink", ["archive", "alarmdb"])
    serve = _spec_parent("sink", ["metrics_port", "serve_port"])
    trace = _parent("source.path", metavar="trace", help=".rpv5 trace path")
    detector = _parent(
        "--detector", dest="detector.name",
        help="detector registry name "
             f"({', '.join(api.detectors.names())})",
    )
    query_flags = argparse.ArgumentParser(add_help=False)
    query_flags.add_argument(
        "--filter", dest="execution.filter",
        help="filter expression, e.g. 'dst port 445'",
    )
    query_flags.add_argument("--start", dest="execution.start", type=float)
    query_flags.add_argument("--end", dest="execution.end", type=float)
    query_flags.add_argument(
        "--top", dest="execution.top",
        help="top-N values of a feature "
             "(srcIP/dstIP/srcPort/dstPort/proto)",
    )
    query_flags.add_argument("-n", dest="execution.limit", type=int)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("config", help="session config (TOML)")
    config.add_argument(
        "--set", action="append", default=[], dest="overrides",
        metavar="SECTION.KEY=VALUE",
        help="override any spec field, e.g. --set source.path=t.rpv5 "
             "(repeatable; values parse as TOML, else strings)",
    )
    workers_override = _parent(
        "--workers", dest="execution.workers", type=_positive("workers"),
        help="override [execution] workers (deprecated, no effect)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anomaly extraction via frequent itemset mining "
        "(SIGCOMM'10 reproduction)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of the repro.* log stream on stderr "
             "(default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def preset(subparsers, name: str, help: str, *parents,
               key: str | None = None) -> argparse.ArgumentParser:
        mode = subparsers.add_parser(name, help=help, parents=parents)
        mode.set_defaults(**PRESETS[key or name])
        return mode

    synth = preset(sub, "synth", "generate a labelled trace")
    synth.add_argument("--out", dest="sink.trace_out", required=True,
                       help="output .rpv5 path")
    synth.add_argument("--bins", dest="source.options.bins", type=int,
                       default=6)
    synth.add_argument("--fps", dest="source.options.fps", type=float,
                       default=25.0, help="background flows per second")
    synth.add_argument("--seed", dest="source.options.seed", type=int,
                       default=0)
    synth.add_argument("--sampling", dest="source.options.sampling",
                       type=int, default=1, help="1/N packet sampling")
    synth.add_argument(
        "--anomaly", dest="source.options.anomalies", action="append",
        default=[], choices=ANOMALY_NAMES,
        help="inject an anomaly into the second-to-last bin (repeatable)",
    )

    preset(sub, "query", "nfdump-style query over a trace",
           trace, query_flags)
    preset(sub, "detect", "run a trained detector over a trace",
           train, workers, trace, detector)

    extract = preset(sub, "extract", "extract flows for a window",
                     workers, anonymize, trace)
    extract.add_argument("--start", dest="execution.start", type=float,
                         required=True)
    extract.add_argument("--end", dest="execution.end", type=float,
                         required=True)
    extract.add_argument(
        "--hint", dest="execution.hints", action="append", default=[],
        help="meta-data hint feature=value, e.g. dstIP=10.9.0.4",
    )

    preset(sub, "stream", "online detection over a replayed trace",
           train, workers, geometry, triage_flag, sinks, serve, trace,
           detector)

    run = sub.add_parser(
        "run", help="run a declarative session from a TOML config",
        parents=[config, workers_override],
    )
    run.add_argument(
        "--port", dest="source.options.port", type=int,
        help="override [source.options] port for collector (udp) "
             "sources; 0 binds an ephemeral port, reported in the "
             "summary line",
    )

    archive = sub.add_parser(
        "archive", help="manage a persistent on-disk flow archive"
    )
    asub = archive.add_subparsers(dest="archive_command", required=True)
    source_dir = _archive_dir("source.path")

    a_ingest = preset(asub, "ingest", "bulk-load a trace into the archive",
                      trace, _archive_dir("sink.archive"),
                      key="archive ingest")
    a_ingest.add_argument("--window", dest="sink.archive_options.window",
                          type=float,
                          help="rotation width in seconds (default: "
                               "300 for a new archive; an existing "
                               "archive keeps its width)")
    a_ingest.add_argument("--spill-rows",
                          dest="sink.archive_options.spill_rows", type=int,
                          help="buffered rows per partition before a "
                               "spill (default: 65536)")

    preset(asub, "ls", "list the archive's partitions", source_dir,
           key="archive ls")
    a_query = preset(asub, "query",
                     "pruned nfdump-style query over the archive",
                     workers, source_dir, query_flags, key="archive query")
    a_query.add_argument("--stats", dest="execution.stats",
                         action="store_true",
                         help="aggregate counters only (planner "
                              "pushdown; no rows materialised)")
    a_query.add_argument("--explain", dest="execution.explain",
                         action="store_true",
                         help="print the planner's decision record")
    preset(asub, "compact", "merge rotation spills into sealed partitions",
           source_dir, key="archive compact")
    preset(asub, "stats", "archive-wide statistics", source_dir,
           key="archive stats")
    a_triage = preset(
        asub, "triage",
        "triage open alarms in an alarm DB against the archive "
        "(the restart-recovery path)",
        workers, anonymize, serve, source_dir, key="archive triage",
    )
    a_triage.add_argument("--alarmdb", dest="sink.alarmdb", required=True,
                          help="sqlite alarm DB file")

    obs = sub.add_parser(
        "obs", help="telemetry utilities over the repro.obs plane"
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    o_dump = osub.add_parser(
        "dump",
        help="run a session config with metrics enabled and print "
             "the Prometheus exposition to stdout (summary goes to "
             "stderr)",
        parents=[config],
    )
    o_dump.add_argument(
        "--json", action="store_true",
        help="print the /status JSON payload instead of the "
             "Prometheus exposition",
    )

    o_lineage = osub.add_parser(
        "lineage",
        help="reconstruct one alarm's provenance chain (verdict -> "
             "window -> chunks -> archive partitions) "
             "from an event journal",
    )
    o_lineage.add_argument("alarm_id", help="alarm id to walk back")
    o_lineage.add_argument(
        "--events", required=True, metavar="DIR",
        help="event journal directory (sink.events of the run)")
    o_lineage.add_argument(
        "--run", default=None, metavar="RUN_ID",
        help="journal run id (default: the only run in the "
             "directory; required when several runs share it)")
    o_lineage.add_argument(
        "--json", action="store_true",
        help="print the lineage document as JSON instead of the "
             "greppable rendering")

    o_trace = osub.add_parser(
        "trace",
        help="run a session config with span tracing and print the "
             "span log to stdout (summary goes to stderr)",
        parents=[config],
    )
    o_trace.add_argument(
        "--chrome", action="store_true",
        help="print Chrome trace-event JSON (load it in Perfetto or "
             "chrome://tracing) instead of the plain span table",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="long-running operational mode: run a stream/triage "
             "config with the operator console (/metrics, /status, "
             "/api/*, dashboard) on one loopback port",
        parents=[config, workers_override],
    )
    serve_cmd.add_argument(
        "--port", dest="sink.serve_port", type=int, default=0,
        help="console TCP port (default: 0, ephemeral; overrides "
             "sink.serve_port)")
    serve_cmd.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="after the run ends, keep serving the file-backed alarm "
             "DB and archive for this many seconds (0 = exit with "
             "the run; requires sink.alarmdb)")

    alarms = sub.add_parser(
        "alarms",
        help="inspect and drive the alarm lifecycle in a sqlite "
             "alarm DB (the offline face of the console's /api/alarms)",
    )
    lsub = alarms.add_subparsers(dest="alarms_command", required=True)

    def _alarm_db_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--alarmdb", required=True,
                       help="sqlite alarm DB file")

    l_ls = lsub.add_parser("ls", help="list alarms")
    _alarm_db_arg(l_ls)
    l_ls.add_argument("--status", default=None,
                      choices=list(AlarmStatus.ALL),
                      help="only alarms in this lifecycle state")
    l_ls.add_argument("--detector", default=None,
                      help="only alarms from this detector")
    l_ls.add_argument("--start", type=float, default=None)
    l_ls.add_argument("--end", type=float, default=None)
    l_ls.add_argument("--limit", type=int, default=None,
                      help="page size (default: all)")
    l_ls.add_argument("--offset", type=int, default=0)

    for action, help_text in (
        ("ack", "acknowledge an alarm (open -> acked)"),
        ("assign", "assign an alarm to an operator"),
        ("escalate", "escalate an alarm"),
        ("resolve", "resolve an alarm with a verdict"),
        ("dismiss", "dismiss an alarm as not actionable"),
    ):
        l_act = lsub.add_parser(action, help=help_text)
        _alarm_db_arg(l_act)
        l_act.add_argument("alarm_id", help="alarm id to act on")
        l_act.add_argument("--actor", default="cli",
                           help="who acted (journaled; default: cli)")
        l_act.add_argument("--note", default="",
                           help="free-text note for the audit trail")
        if action == "assign":
            l_act.add_argument("--to", required=True, dest="assignee",
                               help="operator to assign the alarm to")
        if action == "resolve":
            l_act.add_argument("--verdict", default="resolved",
                               help="closing verdict text")

    l_audit = lsub.add_parser(
        "audit", help="print an alarm's append-only audit trail"
    )
    _alarm_db_arg(l_audit)
    l_audit.add_argument("alarm_id", help="alarm id to audit")
    _flag_metavars(parser)
    return parser


# -- rendering helpers (shared by subcommands and `repro run`) ---------------


def _top_table(
    pairs: list[tuple[int, int]], feature: FlowFeature
) -> str:
    rows = [("value", "flows")]
    for value, count in pairs:
        rows.append((format_feature_value(feature, value), str(count)))
    return render_table(rows)


def _triage_status(triaged, statuses=None) -> tuple[str, str]:
    """(status, verdict text) a triage result settled at in the DB.

    ``statuses`` is the ``RunResult.payload["statuses"]`` mapping read
    back from the alarm DB (authoritative); the derivation below is
    the fallback for the live stream callback, where the DB is still
    mid-run.
    """
    if statuses and triaged.alarm.alarm_id in statuses:
        return statuses[triaged.alarm.alarm_id]
    status = (
        AlarmStatus.VALIDATED if triaged.verdict.useful
        else AlarmStatus.DISMISSED
    )
    return status, triaged.verdict.summary()


def _render_synth(spec: api.SessionSpec, result: api.RunResult) -> None:
    print(
        f"wrote {result.stats['flows']} flows "
        f"({result.stats['packets']} NetFlow v5 packets) "
        f"to {result.payload['out']}"
    )
    for truth in result.payload["truths"]:
        print(f"  injected {truth.anomaly_id}: {truth.kind.value}, "
              f"bin [{truth.start:.0f}, {truth.end:.0f})")


def _render_query(spec: api.SessionSpec, result: api.RunResult) -> None:
    flows = result.payload.get("flows")
    scan = result.payload.get("scan")
    if scan is not None:
        print(
            f"{result.stats['matched']} flows match "
            f"(scanned {scan.scanned}/{scan.partitions} partitions, "
            f"pruned {scan.pruned_time} by time, "
            f"{scan.pruned_filter} by zone map)"
        )
    else:
        print(f"{result.stats['matched']} flows match")
    plan = result.payload.get("plan")
    if plan is not None:
        print(plan.render())
    counts = result.payload.get("stats")
    if counts is not None:
        print(render_table([
            ("flows", "packets", "bytes", "start", "end"),
            (str(counts.flows), str(counts.packets), str(counts.bytes),
             f"{counts.start:g}", f"{counts.end:g}"),
        ]))
        return
    execution = spec.execution
    if execution.top:
        print(_top_table(result.payload["top"],
                         result.payload["top_feature"]))
    elif flows is not None:
        print(flow_drilldown_view(flows.to_records(),
                                  limit=execution.limit))


def _render_batch(spec: api.SessionSpec, result: api.RunResult) -> None:
    if not result.alarms:
        print("no alarms")
        return
    for alarm in result.alarms:
        print(alarm.describe(spec.execution.anonymize))
    statuses = result.payload.get("statuses")
    for triaged in result.triage:
        status, verdict = _triage_status(triaged, statuses)
        print(f"  triage {triaged.alarm.alarm_id} -> {status}: {verdict}")


def _render_extract(spec: api.SessionSpec, result: api.RunResult) -> None:
    anonymize = spec.execution.anonymize
    report = result.payload["report"]
    print(render_table(table_rows(report, anonymize=anonymize)))
    print()
    print(verdict_view(result.payload["verdict"], anonymize=anonymize))


def _render_stream(spec: api.SessionSpec, result: api.RunResult) -> None:
    stats = result.stats
    if "flush_error" in result.payload:
        print(f"(flush after interrupt failed: "
              f"{result.payload['flush_error']})", file=sys.stderr)
    prefix = "interrupted after" if result.interrupted else "streamed"
    # Replay timing exists only for bounded sources; a tailed stream
    # summarises without it.
    timing = (
        f" in {stats['wall']:.2f}s ({stats['rate']:,.0f} flows/s, "
        f"{stats['speedup']:,.0f}x recorded time)"
        if "wall" in stats
        else ""
    )
    print(
        f"{prefix} {stats['flows']} flows{timing}; "
        f"{stats['windows']} windows, {stats['alarms']} alarms, "
        f"{stats['merged']} merged, {stats['triaged']} triaged, "
        f"{stats['late_dropped']} late-dropped"
    )
    archived = result.payload.get("archived")
    if archived is not None:
        print(
            f"archived {archived.rows} flows in {archived.partitions} "
            f"partitions ({archived.payload_bytes:,} bytes) to "
            f"{result.payload['archive_dir']}"
        )


def _render_triage(spec: api.SessionSpec, result: api.RunResult) -> None:
    anonymize = spec.execution.anonymize
    statuses = result.payload.get("statuses")
    for triaged in result.triage:
        status, verdict = _triage_status(triaged, statuses)
        print(f"{triaged.alarm.alarm_id} -> {status}: {verdict}")
        print(render_table(
            table_rows(triaged.report, anonymize=anonymize)
        ))
    print(
        f"triaged {result.stats['triaged']}/"
        f"{result.stats['open_before']} open alarms against "
        f"{result.payload['archive_dir']}; "
        f"{result.stats['open']} remain open"
    )


def _render_ingest(spec: api.SessionSpec, result: api.RunResult) -> None:
    stats = result.stats
    print(
        f"ingested {stats['flows']} flows into {stats['partitions']} "
        f"partitions ({stats['slices']} slices) under "
        f"{result.payload['archive_dir']}"
    )


def _render_ls(spec: api.SessionSpec, result: api.RunResult) -> None:
    rows = [("partition", "slice", "flows", "window", "sealed")]
    for part in result.payload["partitions"]:
        zone = part.zone
        rows.append((
            part.path.name,
            str(part.key.slice_index),
            str(zone.rows),
            f"[{zone.min_start:.0f}, {zone.max_start:.0f}]",
            "yes" if zone.sealed else "no",
        ))
    print(render_table(rows))
    print(f"{result.stats['partitions']} partitions")


def _render_compact(spec: api.SessionSpec, result: api.RunResult) -> None:
    stats = result.stats
    print(
        f"compacted {stats['groups']} groups: "
        f"{stats['partitions_before']} -> {stats['partitions_after']} "
        f"partitions, {stats['rows_compacted']} rows rewritten"
    )


def _render_stats(spec: api.SessionSpec, result: api.RunResult) -> None:
    stats = result.payload["archived"]
    reader = result.payload["reader"]
    span = (
        f"[{stats.span[0]:.0f}, {stats.span[1]:.0f}]"
        if stats.span
        else "-"
    )
    rows = [
        ("partitions", str(stats.partitions)),
        ("sealed", str(stats.sealed)),
        ("slices", str(stats.slices)),
        ("flows", str(stats.rows)),
        ("payload bytes", f"{stats.payload_bytes:,}"),
        ("start span", span),
        ("quarantined", str(stats.quarantined)),
        ("rotation", f"{reader.slice_seconds:.0f}s"),
    ]
    print(render_table([("metric", "value")] + rows))


_RENDERERS = {
    "synth": _render_synth,
    "query": _render_query,
    "batch": _render_batch,
    "extract": _render_extract,
    "stream": _render_stream,
    "triage": _render_triage,
    "ingest": _render_ingest,
    "ls": _render_ls,
    "compact": _render_compact,
    "stats": _render_stats,
}


def _stream_callbacks():
    """(on_start, on_window) printers for live stream progress."""

    def on_start(context: dict) -> None:
        flows = context["flows"]
        if "listen" in context:
            streaming = f"collecting on {context['listen']}"
        elif flows is not None:
            streaming = f"streaming {flows} flows"
        else:
            streaming = "tailing live"
        print(
            f"trained {context['detector']} on "
            f"{context['train_source']} "
            f"({context['train_flows']} flows); {streaming} in "
            f"{context['window_seconds']:.0f}s windows",
            # Flushed: CI discovers an ephemeral collector port from
            # this line while the process keeps running.
            flush=True,
        )

    def on_window(result) -> None:
        w = result.window
        print(
            f"window {w.index} [{w.start:.0f}, {w.end:.0f}) "
            f"{w.flows} flows"
        )
        for alarm in result.alarms:
            print(f"  ALARM {alarm.describe()}")
        for merged_id in result.merged:
            print(f"  merged re-fire into {merged_id}")
        for triaged in result.triage:
            status, verdict = _triage_status(triaged)
            print(f"  triage {triaged.alarm.alarm_id} -> {status}: "
                  f"{verdict}")

    return on_start, on_window


def _finish(
    spec: api.SessionSpec,
    result: api.RunResult,
    summary: bool = False,
) -> int:
    """Render a run and map it to an exit code."""
    _RENDERERS[result.mode](spec, result)
    if summary:
        print(result.summary())
    return 130 if result.interrupted else 0


# -- the one session path -----------------------------------------------------


def _parse_set(item: str) -> tuple[str, str, Any]:
    """One ``--set SECTION.KEY=VALUE`` item; the value parses as TOML,
    else stays a string."""
    target, sep, raw = item.partition("=")
    section, dot, key = target.partition(".")
    if not sep or not dot or not section or not key:
        raise SpecError(
            f"--set needs SECTION.KEY=VALUE, got {item!r}"
        )
    try:
        value = tomllib.loads(f"v = {raw}")["v"]
    except tomllib.TOMLDecodeError:
        value = raw
    return section, key.strip(), value


def _session_spec(args: argparse.Namespace) -> api.SessionSpec:
    """argv -> spec, mechanically: every dotted dest is a spec field.

    The base is the config file plus ``--set`` items, or else the
    preset; flags apply last (``None`` = unset). A three-part dest
    (``source.options.seed``) sets one key of an options table."""
    spec = api.load_spec(args.config).to_dict() if "config" in args else {}
    for item in getattr(args, "overrides", ()):
        section, key, value = _parse_set(item)
        spec.setdefault(section, {})[key] = value
    for dest, value in vars(args).items():
        if "." not in dest or value is None:
            continue
        section, _, name = dest.partition(".")
        name, _, key = name.partition(".")
        table = spec.setdefault(section, {})
        table[name] = {**table.get(name, {}), key: value} if key else value
    return api.SessionSpec.from_dict(spec)


def _run(spec: api.SessionSpec, **callbacks: Any) -> api.RunResult:
    """Run ``spec``, printing live progress on stream runs."""
    if spec.execution.mode == "stream":
        callbacks["on_start"], callbacks["on_window"] = _stream_callbacks()
    return api.Session(spec, **callbacks).run()


def _cmd_session(args: argparse.Namespace) -> int:
    """Every mode subcommand, and ``run`` (which adds the summary)."""
    spec = _session_spec(args)
    return _finish(spec, _run(spec), summary="config" in args)


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "lineage":
        return _obs_lineage(args)

    from repro.obs import metrics as obs_metrics, trace as obs_trace
    from repro.obs.serve import render_prometheus, status_payload

    spec = _session_spec(args)
    obs_metrics.enable()
    result = api.Session(spec).run()
    print(result.summary(), file=sys.stderr)
    # The stdout artifact is machine-readable — pipeable straight into
    # promtool / jq / grep without the run's human-facing rendering.
    if args.obs_command == "trace" and args.chrome:
        json.dump(obs_trace.chrome_trace(), sys.stdout)
        sys.stdout.write("\n")
    elif args.obs_command == "trace":
        for record in obs_trace.records():
            tail = (
                f" parent={record.parent_id}"
                if record.parent_id else ""
            )
            print(
                f"{record.name} {record.seconds:.6f}s "
                f"trace={record.trace_id} span={record.span_id}"
                + tail
            )
    elif args.json:
        json.dump(
            status_payload(lambda: {
                "mode": result.mode,
                "stats": result.stats,
            }),
            sys.stdout,
            default=str,
        )
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_prometheus())
    return 130 if result.interrupted else 0


def _obs_lineage(args: argparse.Namespace) -> int:
    from repro.obs import events as obs_events

    chain = obs_events.lineage(
        obs_events.read_journal(args.events, run=args.run),
        args.alarm_id,
    )
    if args.json:
        json.dump(chain, sys.stdout, default=str)
        sys.stdout.write("\n")
        return 0

    # Greppable rendering: every line is "<label>: key=value ...",
    # the first line carries the alarm id — `repro obs lineage X |
    # grep window` style pipelines are the intended consumer.
    def line(label: str, record: dict[str, Any] | None) -> str:
        if record is None:
            return f"  {label}: (not in journal)"
        fields = " ".join(
            f"{key}={record[key]}"
            for key in record
            if key not in ("id", "ts", "run", "parent", "kind")
        )
        return f"  {label}: id={record['id']} {fields}".rstrip()

    print(f"alarm {chain['alarm_id']} run={chain['run']}")
    print(line("anchor", chain["anchor"]))
    for record in chain["transitions"]:
        print(line("transition", record))
    print(line("verdict", chain["verdict"]))
    print(line("window", chain["window"]))
    for record in chain["chunks"]:
        print(line("chunk", record))
    for record in chain["partitions"]:
        print(line("partition", record))
    print(line("run.start", chain["run_start"]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    spec = _session_spec(args)
    if spec.execution.mode not in ("stream", "triage"):
        raise SpecError(
            f"repro serve drives a live stream/triage session, not "
            f"mode {spec.execution.mode!r}",
            field="execution.mode",
        )
    if args.linger and not spec.sink.alarmdb:
        raise SpecError(
            "--linger re-serves the alarm DB after the run, so it "
            "needs a file-backed sink.alarmdb",
            field="sink.alarmdb",
        )
    bound: list[int] = []

    def on_serve(port: int) -> None:
        bound.append(port)
        # Flushed eagerly: a supervisor (or the CI smoke job) tails
        # this line for the bound port while the run is still going.
        print(f"console on http://127.0.0.1:{port}/ "
              f"(/metrics /status /api/alarms /api/windows "
              f"/api/archive/query /api/events/stream)", flush=True)

    # A supervisor stops `repro serve` with SIGTERM; route it through
    # the same graceful path as ctrl-C so the run winds down cleanly
    # (stream drains, journal gets its run.end, linger dumps the
    # flight recorder and closes the alarm DB) instead of dying
    # mid-write under the default handler.
    import signal

    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - embedded, non-main thread
        previous_term = None
    try:
        try:
            result = _run(spec, on_serve=on_serve)
            code = _finish(spec, result, summary=True)
            if args.linger and not result.interrupted:
                code = _linger(spec, bound[0], args.linger)
        except KeyboardInterrupt:
            # A phase outside the stream loop's own interrupt
            # handling (training, archive attach) took the signal;
            # Session.run already dumped the flight recorder and
            # closed the journal on its way out.
            code = 130
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
    return code


def _linger(spec: api.SessionSpec, port: int, seconds: float) -> int:
    """Keep the console up on the run's alarm DB after the run ends.

    A bounded replay can drain in milliseconds — too fast for an
    operator (or a CI probe) to ever see the console. Linger re-binds
    the same port over the file-backed alarm DB and archive so the
    lifecycle surface stays actionable until SIGINT or the deadline.
    """
    import time

    from repro.archive.reader import lazy_reader
    from repro.obs import events as obs_events
    from repro.obs.console import ConsoleServer
    from repro.system.alarmdb import AlarmDatabase

    db = AlarmDatabase(spec.sink.alarmdb)
    try:
        # The run's journal closed with the run; linger opens its own
        # (distinct run id — reusing the run's would collide with its
        # segment names in a shared directory) so console lifecycle
        # moves keep emitting, the SSE stream stays live, and a
        # SIGTERM during linger still has a flight recorder to dump.
        with obs_events.journaled(
            spec.sink.events_path, spec.execution.flight_recorder,
            run=f"{obs_events.run_id()}-linger", mode="linger",
        ):
            server = ConsoleServer(
                port=port,
                status=lambda: {"mode": "linger"},
                alarms=db,
                archive=lazy_reader(spec.sink.archive),
                dashboard=spec.sink.dashboard,
            ).start()
            try:
                deadline = time.monotonic() + seconds
                print(f"lingering on http://127.0.0.1:{server.port}/ "
                      f"for {seconds:g}s (ctrl-C to stop)", flush=True)
                while time.monotonic() < deadline:
                    time.sleep(
                        min(0.2, max(0.0, deadline - time.monotonic()))
                    )
            finally:
                server.stop()
    except KeyboardInterrupt:
        # SIGINT, or SIGTERM rerouted by _cmd_serve: the journal
        # dumped its flight recorder on the way out.
        return 130
    finally:
        db.close()
    return 0


def _cmd_alarms(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import AlarmDatabaseError
    from repro.system.alarmdb import AlarmDatabase

    if not Path(args.alarmdb).exists():
        raise AlarmDatabaseError(
            f"no alarm DB at {args.alarmdb!r}"
        )
    db = AlarmDatabase(args.alarmdb)
    try:
        if args.alarms_command == "ls":
            rows, total = db.rows(
                status=args.status, start=args.start, end=args.end,
                detector=args.detector, limit=args.limit,
                offset=args.offset,
            )
            table = [("alarm", "detector", "window", "score",
                      "status", "assignee", "verdict")]
            for row in rows:
                table.append((
                    row["alarm_id"], row["detector"],
                    f"[{row['start']:.0f}, {row['end']:.0f})",
                    f"{row['score']:.1f}", row["status"],
                    row["assignee"], row["verdict"],
                ))
            print(render_table(table))
            counts = db.counts_by_status()
            summary = ", ".join(
                f"{status}={count}"
                for status, count in counts.items() if count
            )
            print(f"{len(rows)} of {total} alarms ({summary or 'none'})")
        elif args.alarms_command == "audit":
            trail = db.audit_trail(args.alarm_id)
            if not trail:
                raise AlarmDatabaseError(
                    f"no audit trail for alarm {args.alarm_id!r}"
                )
            table = [("seq", "ts", "actor", "action",
                      "transition", "note")]
            for entry in trail:
                table.append((
                    str(entry.seq), f"{entry.ts:.0f}", entry.actor,
                    entry.action,
                    f"{entry.from_status or '-'} -> {entry.to_status}",
                    entry.note,
                ))
            print(render_table(table))
        else:
            new_status = db.transition(
                args.alarm_id,
                args.alarms_command,
                actor=args.actor,
                note=args.note,
                assignee=getattr(args, "assignee", None),
                verdict=getattr(args, "verdict", None),
            )
            print(f"{args.alarm_id} -> {new_status}")
    finally:
        db.close()
    return 0


#: The non-mode commands; every other subcommand is a spec preset.
_COMMANDS = {
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "alarms": _cmd_alarms,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return _COMMANDS.get(args.command, _cmd_session)(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except BrokenPipeError:
        # Downstream closed early (`repro alarms ls | head`): not an
        # error. Detach stdout so interpreter teardown can't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
