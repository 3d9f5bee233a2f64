"""Metric tables and the per-layer numbers of a traced run.

Layer names are the packages under ``src/repro``. ``L.busy_s_per_mflow``
is the summed *self* time (see :mod:`spans`) of the spans around layer
``L``'s public entry points inside the measured phase, per million
flows; ``api.unattributed_*`` is the part of ``Session.run`` no span
covers. ``BENCHMARK.json`` lists exactly these names.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import spans as sp

#: (name, unit, better) — what a user of the system sees.
END_TO_END = (
    ("flows_per_s", "flows/s", "higher"),
    ("result_latency_p50_ms", "ms", "lower"),
    ("cpu_s_per_mflow", "s/Mflow", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Span name -> per-layer busy metric.
_BUSY = {
    "collector.decode_v5": "collector.decode_v5.busy_s_per_mflow",
    "collector.decode_tmpl": "collector.decode_tmpl.busy_s_per_mflow",
    "collector.batcher": "collector.batcher.busy_s_per_mflow",
    "stream.process": "stream.engine.busy_s_per_mflow",
    "stream.ring": "stream.ring.busy_s_per_mflow",
    "stream.accumulate": "stream.accumulate.busy_s_per_mflow",
    "detect.close": "detect.close.busy_s_per_mflow",
    "system.triage": "system.triage.busy_s_per_mflow",
    "system.backend": "system.backend.busy_s_per_mflow",
    "system.alarmdb": "system.alarmdb.busy_s_per_mflow",
    "extraction.extract": "extraction.busy_s_per_mflow",
    "mining.encode": "mining.encode.busy_s_per_mflow",
    "mining.mine": "mining.mine.busy_s_per_mflow",
    "parallel.map": "parallel.map.busy_s_per_mflow",
    "archive.write": "archive.write.busy_s_per_mflow",
    "archive.ingest": "archive.ingest.busy_s_per_mflow",
    "archive.scan": "archive.read.busy_s_per_mflow",
    "archive.pushdown": "archive.read.busy_s_per_mflow",
    "obs.journal": "obs.journal.busy_s_per_mflow",
    "api.run": "api.unattributed_s_per_mflow",
}

_COUNTS = (
    # (metric, better)
    ("collector.queue_wait_share", "ratio", "lower"),
    ("collector.queue_depth_max", "count", "lower"),
    ("collector.batch_rows_p50", "count", "higher"),
    ("collector.datagrams", "count", "higher"),
    ("collector.flows", "count", "higher"),
    ("collector.template_miss", "count", "lower"),
    ("collector.dropped", "count", "lower"),
    ("collector.sequence_lost", "count", "lower"),
    ("collector.malformed", "count", "lower"),
    ("stream.process_ms_p50", "ms", "lower"),
    ("stream.seal_ms_mean", "ms", "lower"),
    ("stream.chunks", "count", "lower"),
    ("stream.windows_closed", "count", "higher"),
    ("stream.late_dropped", "count", "lower"),
    ("detect.train_s", "s", "lower"),
    ("detect.close_ms_p50", "ms", "lower"),
    ("system.triage_ms_p50", "ms", "lower"),
    ("system.alarmdb_ops", "count", "lower"),
    ("extraction.useful_report_share", "ratio", "higher"),
    ("mining.mine_ms_p50", "ms", "lower"),
    ("mining.runs", "count", "lower"),
    ("mining.iterations", "count", "lower"),
    ("mining.candidates", "count", "lower"),
    ("mining.passes", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.copied_bytes_per_flow", "B/flow", "lower"),
    ("parallel.shm_bytes_staged", "B", "lower"),
    ("parallel.frames_fallbacks", "count", "lower"),
    ("archive.seal_ms_p50", "ms", "lower"),
    ("archive.ingest_flows_per_s", "flows/s", "higher"),
    ("archive.bytes_written_per_flow", "B/flow", "lower"),
    ("archive.scan_ms_p50", "ms", "lower"),
    ("archive.pushdown_ms_p50", "ms", "lower"),
    ("archive.pruned_share", "ratio", "higher"),
    ("archive.payload_bytes_read_per_query", "B", "lower"),
    ("obs.journal_events", "count", "lower"),
    ("obs.journal_bytes_per_flow", "B/flow", "lower"),
    ("api.unattributed_share", "ratio", "lower"),
    ("bench.cpu_busy_share", "ratio", "higher"),
    ("bench.sender_late_ms_p90", "ms", "lower"),
    ("bench.result_latency_p90_ms", "ms", "lower"),
    ("bench.latency_samples", "count", "higher"),
    ("bench.wall_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.fixture_build_s", "s", "lower"),
)

#: (name, unit, better) — single layers, from the traced run.
PER_LAYER = tuple(
    (name, "s/Mflow", "lower") for name in dict.fromkeys(_BUSY.values())
) + _COUNTS


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _counter(snapshot: dict, name: str) -> float:
    return sum(
        value for (metric, _), value
        in snapshot.get("counters", {}).items() if metric == name
    )


def _histogram(snapshot: dict, name: str) -> tuple[float, int]:
    """(sum, count) of one of the program's histograms."""
    for (metric, _), packed in snapshot.get("histograms", {}).items():
        if metric == name:
            return packed[2], packed[3]
    return 0.0, 0


def layer_metrics(run, recorder: sp.Recorder, snapshot: dict) -> dict:
    """Every :data:`PER_LAYER` value of one traced run, measured phase
    only (``snapshot`` is the program's metrics at its end; 0 where the
    workload does not touch the layer). Seconds here are raw, not
    speed-normalised: ``bench.calib_ms``, the witness's mean spin, says
    what machine they were taken on. The parent, which also ran the
    untraced twin, fills in ``bench.trace_overhead_pct``."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    mflows = run.flows / 1e6
    wall = run.t1 - run.t0
    for span, seconds in recorder.self_times(run.t0, run.t1).items():
        if span in _BUSY:
            out[_BUSY[span]] += sum(seconds) / mflows
    out["api.unattributed_share"] = (
        out["api.unattributed_s_per_mflow"] * mflows / wall
    )
    facts = run.facts
    collector = facts.get("collector")
    if collector:
        out["collector.queue_wait_share"] = facts["queue_wait_s"] / wall
        out["collector.queue_depth_max"] = facts["queue_depth_max"]
        out["collector.batch_rows_p50"] = facts["batch_rows_p50"]
        out["collector.datagrams"] = collector["datagrams"]
        out["collector.flows"] = collector["flows"]
        out["collector.template_miss"] = collector["template_misses"]
        out["collector.dropped"] = (
            collector["datagrams_dropped"] + collector["flows_dropped"]
        )
        out["collector.sequence_lost"] = collector["sequence_lost"]
        out["collector.malformed"] = collector["malformed"]
        out["bench.sender_late_ms_p90"] = facts["sender_late_ms_p90"]
    for metric, span in (
        ("stream.process_ms_p50", "stream.process"),
        ("detect.close_ms_p50", "detect.close"),
        ("system.triage_ms_p50", "system.triage"),
        ("mining.mine_ms_p50", "mining.mine"),
        ("archive.seal_ms_p50", "archive.write"),
    ):
        out[metric] = sp.median_ms(recorder.durations(span, run.t0))
    before = run.facts["counters_before"]

    def counted(name: str) -> float:
        return _counter(snapshot, name) - _counter(before, name)

    seal_s, seals = (
        after - earlier for after, earlier in zip(
            _histogram(snapshot, "repro_stream_window_seal_seconds"),
            _histogram(before, "repro_stream_window_seal_seconds"),
        )
    )
    if seals:
        out["stream.seal_ms_mean"] = seal_s / seals * 1000.0
    out["stream.chunks"] = counted("repro_stream_chunks_total")
    out["stream.windows_closed"] = facts.get("windows_closed", 0)
    out["stream.late_dropped"] = facts.get("late_dropped", 0)
    out["detect.train_s"] = sum(recorder.durations("detect.train"))
    out["system.alarmdb_ops"] = len(
        recorder.durations("system.alarmdb", run.t0)
    )
    if facts.get("triaged"):
        out["extraction.useful_report_share"] = (
            facts["useful_reports"] / facts["triaged"]
        )
    for metric, counter in (
        ("mining.runs", "repro_mining_runs_total"),
        ("mining.iterations", "repro_mining_iterations_total"),
        ("mining.candidates", "repro_mining_candidates_total"),
        ("mining.passes", "repro_mining_passes_total"),
        ("parallel.tasks", "repro_ipc_tasks_total"),
        ("parallel.shm_bytes_staged", "repro_shm_bytes_staged_total"),
        ("parallel.frames_fallbacks", "repro_ipc_frames_fallback_total"),
    ):
        out[metric] = counted(counter)
    out["parallel.copied_bytes_per_flow"] = (
        facts.get("ipc_copied_bytes", 0) / run.flows
    )
    archive = run.workdir / "archive"
    if archive.exists():
        out["archive.bytes_written_per_flow"] = (
            _tree_bytes(archive) / run.flows
        )
    if "ingest_s" in facts:
        out["archive.ingest_flows_per_s"] = run.flows / facts["ingest_s"]
        for key in ("scan_ms_p50", "pushdown_ms_p50", "pruned_share",
                    "payload_bytes_read_per_query"):
            out[f"archive.{key}"] = facts[key]
    events = run.workdir / "events"
    if events.exists():
        out["obs.journal_events"] = sum(
            len(path.read_bytes().splitlines())
            for path in events.glob("*.jsonl")
        )
        out["obs.journal_bytes_per_flow"] = (
            _tree_bytes(events) / run.flows
        )
    out["bench.cpu_busy_share"] = (run.cpu1 - run.cpu0) / wall
    if len(run.latencies) >= 100:  # ten samples beyond the percentile
        out["bench.result_latency_p90_ms"] = (
            statistics.quantiles(run.latencies, n=10)[-1] * 1000.0
        )
    out["bench.latency_samples"] = len(run.latencies)
    out["bench.wall_s"] = wall
    out["bench.calib_ms"] = run.witness.spin_ms(run.t0, run.t1)
    out["bench.fixture_build_s"] = run.fixture.build_seconds
    return out
