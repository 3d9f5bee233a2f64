"""Lightweight span timing: ``with trace.span("detect.window"):``.

Spans are wall-clock phase timers feeding a bounded in-memory log.
They are deliberately *not* gated on the metrics registry: a span
fires once per pipeline phase (load / train / detect / a window
seal), so one ``perf_counter`` pair and a deque append are free at
that granularity, and the session facade needs the durations
unconditionally — ``RunResult.timings`` is fed straight from spans
via the ``timings=/key=`` hooks, replacing the hand-rolled
``perf_counter`` blocks it used to carry (keys byte-identical,
equivalence-tested).

Every span also carries causal identity: a 16-hex ``trace_id``
shared by a whole causally-linked tree, its own 16-hex ``span_id``,
and its parent's span id (from an ambient ``contextvars`` context, so
nesting needs no plumbing). :func:`chrome_trace` renders the whole log
— one lane per recording thread — as Chrome trace-event JSON loadable
in Perfetto.

The log is a process-global deque bounded at 512 records by default;
:func:`configure` resizes it (``SinkSpec.span_log`` is the spec-level
knob). Old spans fall off, memory stays bounded on long-running
stream sessions, and the serve endpoint's ``/status`` JSON reports
the recent tail.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from contextvars import ContextVar
from typing import Any, Iterable, MutableMapping

__all__ = [
    "Span",
    "SpanRecord",
    "chrome_trace",
    "clear",
    "configure",
    "log_limit",
    "records",
    "span",
    "spans",
]

#: Default bound of the completed-span history.
DEFAULT_LOG_LIMIT = 512

_LOG_LIMIT = DEFAULT_LOG_LIMIT
_LOG: "deque[SpanRecord]" = deque(maxlen=_LOG_LIMIT)
_LOCK = threading.Lock()

#: Ambient span context: ``(trace_id, span_id)`` of the innermost
#: open span, or ``None`` outside any span.
_CONTEXT: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_span_context", default=None
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanRecord:
    """One completed span: timing plus causal identity."""

    __slots__ = (
        "name", "seconds", "start", "trace_id", "span_id",
        "parent_id", "pid", "tid",
    )

    def __init__(
        self,
        name: str,
        seconds: float,
        start: float,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        pid: int,
        tid: int,
    ) -> None:
        self.name = name
        self.seconds = seconds
        self.start = start
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "start": self.start,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        return out


class Span:
    """One timed phase; use via the :func:`span` context manager.

    ``seconds`` is valid after ``__exit__`` (and keeps the partial
    elapsed time mid-flight via :meth:`elapsed`). When ``timings``
    is given, the duration is also written into that mapping under
    ``key`` (default: the span name) — the seam the session facade
    uses to keep ``RunResult.timings`` unchanged. On entry the span
    joins the ambient trace (inheriting ``trace_id`` and parenting to
    the innermost open span) or starts a fresh trace at top level.
    """

    __slots__ = (
        "name", "seconds", "trace_id", "span_id", "parent_id",
        "_timings", "_key", "_started", "_wall", "_token",
    )

    def __init__(
        self,
        name: str,
        timings: MutableMapping[str, float] | None = None,
        key: str | None = None,
    ) -> None:
        self.name = name
        self.seconds = 0.0
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None
        self._timings = timings
        self._key = key if key is not None else name
        self._started = 0.0
        self._wall = 0.0
        self._token = None

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def __enter__(self) -> "Span":
        ambient = _CONTEXT.get()
        if ambient is None:
            self.trace_id = _new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = ambient
        self.span_id = _new_id()
        self._token = _CONTEXT.set((self.trace_id, self.span_id))
        self._wall = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._started
        if self._token is not None:
            _CONTEXT.reset(self._token)
            self._token = None
        record = SpanRecord(
            self.name,
            self.seconds,
            self._wall,
            self.trace_id,
            self.span_id,
            self.parent_id,
            os.getpid(),
            threading.get_ident(),
        )
        with _LOCK:
            _LOG.append(record)
        if self._timings is not None:
            self._timings[self._key] = self.seconds
        return False


def span(
    name: str,
    timings: MutableMapping[str, float] | None = None,
    key: str | None = None,
) -> Span:
    """A context manager timing one named phase into the span log."""
    return Span(name, timings=timings, key=key)


def spans() -> list[tuple[str, float]]:
    """The recent span tail, oldest first: ``[(name, seconds), ...]``."""
    with _LOCK:
        return [(record.name, record.seconds) for record in _LOG]


def records() -> list[SpanRecord]:
    """The recent span tail with full causal identity, oldest first."""
    with _LOCK:
        return list(_LOG)


def clear() -> None:
    """Drop recorded spans (test isolation)."""
    with _LOCK:
        _LOG.clear()


def configure(limit: int | None = None) -> int:
    """Resize the span-log bound (``None`` keeps it); returns it.

    Shrinking keeps the newest records. The default (512) is
    unchanged unless a spec (``SinkSpec.span_log``) says otherwise.
    """
    global _LOG, _LOG_LIMIT
    if limit is not None:
        if limit < 1:
            raise ValueError(f"span log limit must be >= 1: {limit!r}")
        with _LOCK:
            if limit != _LOG_LIMIT:
                _LOG_LIMIT = limit
                _LOG = deque(_LOG, maxlen=limit)
    return _LOG_LIMIT


def log_limit() -> int:
    """The current span-log bound."""
    return _LOG_LIMIT


# -- Chrome trace-event export ----------------------------------------------


def chrome_trace(
    source: Iterable[SpanRecord] | None = None,
) -> dict[str, Any]:
    """The span log as a Chrome trace-event document (Perfetto-ready).

    Complete spans render as ``ph: "X"`` duration events with
    microsecond wall-clock timestamps; spans keep their recording
    pid/tid, so Perfetto lays each thread out as its own lane. Causal
    identity rides in ``args``.
    """
    if source is None:
        source = records()
    events = []
    for record in sorted(source, key=lambda r: r.start):
        args: dict[str, Any] = {
            "trace_id": record.trace_id,
            "span_id": record.span_id,
        }
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        events.append({
            "name": record.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(record.start * 1e6, 3),
            "dur": round(record.seconds * 1e6, 3),
            "pid": record.pid,
            "tid": record.tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
