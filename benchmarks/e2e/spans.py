"""Benchmark-owned spans around the public entry points of each layer.

The traced run measures every layer *from outside*: :func:`instrument`
replaces the entry points listed in :data:`ENTRY_POINTS` with wrappers
that record ``(name, start, end, parent)`` on a per-thread span list;
nothing under ``src/`` changes and nothing is written until the run
has ended (:meth:`Recorder.write_chrome_trace`).

Self time of a span = its duration minus the part covered by child
spans on the same thread, so the self times of one thread's spans add
up to the wall time its root spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import threading
import time
from pathlib import Path
from typing import Callable

#: (span name, dotted class, method).
ENTRY_POINTS = (
    ("api.run", "repro.api.session.Session", "run"),
    ("collector.batcher", "repro.collector.batcher.ChunkBatcher", "add"),
    ("collector.batcher", "repro.collector.batcher.ChunkBatcher", "poll"),
    ("collector.batcher", "repro.collector.batcher.ChunkBatcher", "flush"),
    ("stream.process", "repro.stream.runtime.StreamEngine", "process"),
    ("stream.process", "repro.stream.runtime.StreamEngine", "finish"),
    ("stream.ring", "repro.stream.window.WindowRing", "ingest"),
    ("stream.ring", "repro.stream.window.WindowRing", "close_due"),
    ("stream.ring", "repro.stream.window.WindowRing", "flush"),
    ("stream.accumulate",
     "repro.stream.incremental.StreamingDetector", "observe"),
    ("detect.close", "repro.stream.incremental.StreamingDetector", "close"),
    ("detect.train", "repro.detect.netreflex.NetReflexDetector", "train"),
    ("system.triage", "repro.system.pipeline.ExtractionSystem", "validate"),
    ("system.backend", "repro.system.backend.FlowBackend", "alarm_table"),
    ("system.backend", "repro.system.backend.FlowBackend", "baseline_table"),
    *(
        ("system.alarmdb", "repro.system.alarmdb.AlarmDatabase", method)
        for method in (
            "insert", "insert_many", "set_status", "auto_close", "get",
            "status_of", "list_alarms", "count", "close",
        )
    ),
    ("extraction.extract",
     "repro.extraction.extractor.AnomalyExtractor", "extract"),
    ("mining.encode",
     "repro.mining.transactions.TransactionSet", "from_table"),
    ("mining.mine", "repro.mining.extended.ExtendedApriori", "mine"),
    ("mining.mine", "repro.parallel.mining.ShardedApriori", "mine"),
    *(
        ("parallel.map", "repro.parallel.executor.ShardExecutor", method)
        for method in (
            "map_tables", "map_table_groups", "map_masked",
            "map_broadcast", "map_items",
        )
    ),
    ("archive.write", "repro.archive.writer.ArchiveWriter",
     "write_partition"),
    ("archive.ingest", "repro.archive.writer.ArchiveWriter",
     "ingest_chunks"),
    ("archive.ingest", "repro.archive.writer.ArchiveWriter", "close"),
    ("archive.scan", "repro.archive.reader.ArchiveReader", "query_table"),
    ("archive.pushdown", "repro.archive.reader.ArchiveReader", "count"),
    ("archive.pushdown", "repro.archive.reader.ArchiveReader",
     "top_feature_values"),
    ("obs.journal", "repro.obs.events.EventJournal", "emit"),
    ("obs.journal", "repro.obs.events.EventJournal", "flush"),
    ("obs.journal", "repro.obs.events.EventJournal", "close"),
)


class Recorder:
    """In-memory span store: one append-only list per thread."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread id -> [[name, start, end, parent_index], ...]
        self.threads: dict[int, list[list]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> tuple[list[list], list[int]]:
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads[threading.get_ident()] = local.spans
            return local.spans, local.stack

    def begin(self, name: str) -> list:
        spans, stack = self._state()
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` recorded as one span per call."""
        begin, end = self.begin, self.end

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(span)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: object, attribute: str, replacement) -> None:
        self._restore.append(
            (owner, attribute, owner.__dict__[attribute])
        )
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def self_times(
        self, since: float = -math.inf, until: float = math.inf
    ) -> dict[str, list[float]]:
        """Span name -> self time of each of its spans (seconds),
        counting only the part inside ``[since, until]``."""
        out: dict[str, list[float]] = {}
        for spans in self.threads.values():
            for name, values in self_times(spans, since, until).items():
                out.setdefault(name, []).extend(values)
        return out

    def durations(self, name: str, since: float = -math.inf) -> list[float]:
        """Durations of the spans called ``name`` begun after ``since``."""
        return [
            span[2] - span[1]
            for spans in self.threads.values()
            for span in spans
            if span[0] == name and span[1] >= since
        ]

    def write_chrome_trace(self, path: Path) -> None:
        """Dump every span as Chrome ``trace_event`` complete events."""
        events = []
        for thread, spans in self.threads.items():
            for index, (name, start, end, parent) in enumerate(spans):
                events.append({
                    "name": name, "ph": "X", "pid": 1, "tid": thread,
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "args": {
                        "trace_id": self.trace_id,
                        "span": index, "parent": parent,
                    },
                })
        path.write_text(json.dumps({"traceEvents": events}))


def self_times(
    spans: list[list],
    since: float = -math.inf,
    until: float = math.inf,
) -> dict[str, list[float]]:
    """Self times of one thread's spans, grouped by name.

    ``spans`` rows are ``[name, start, end, parent_index]`` with
    children fully nested in their parent; every span is clipped to
    ``[since, until]`` first, so nesting survives the clip.
    """
    lengths = [
        max(0.0, min(end, until) - max(start, since))
        for _, start, end, _ in spans
    ]
    covered = [0.0] * len(spans)
    for length, (_, _, _, parent) in zip(lengths, spans):
        if parent >= 0:
            covered[parent] += length
    out: dict[str, list[float]] = {}
    for length, child_time, span in zip(lengths, covered, spans):
        out.setdefault(span[0], []).append(length - child_time)
    return out


def _resolve(dotted: str):
    module_name, _, attribute = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), attribute)


def instrument(recorder: Recorder) -> None:
    """Wrap every entry point; :meth:`Recorder.restore` undoes it."""
    for name, dotted, attribute in ENTRY_POINTS:
        owner = _resolve(dotted)
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(
                recorder.wrap(name, original.__func__)
            )
        else:
            replacement = recorder.wrap(name, original)
        recorder.patch(owner, attribute, replacement)
    # The listener calls decode_datagram through its own module global;
    # the span name splits by wire version (byte 1 of the header).
    import repro.collector.listener as listener

    decode = listener.decode_datagram
    begin, end = recorder.begin, recorder.end

    def traced_decode(data, *args, **kwargs):
        span = begin(
            "collector.decode_v5" if data[1:2] == b"\x05"
            else "collector.decode_tmpl"
        )
        try:
            return decode(data, *args, **kwargs)
        finally:
            end(span)

    recorder.patch(listener, "decode_datagram", traced_decode)


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0
