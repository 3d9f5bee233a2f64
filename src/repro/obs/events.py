"""The provenance plane: an append-only structured event journal.

Where :mod:`repro.obs.metrics` answers *how much* and
:mod:`repro.obs.trace` answers *how long*, this module answers **why**:
every causally significant pipeline step — chunk ingested, window
sealed, detector verdict, alarm
inserted/merged/transitioned, archive partition sealed/quarantined,
planner query — lands as one JSON line in a rotated journal, and
``repro obs lineage <alarm-id>`` walks the links back from an alarm to
the chunks that caused it.

Design constraints, in order:

1. **No-op by default.** Exactly like the metrics plane: hot layers
   call :func:`emit` through a module-global that is ``None`` until a
   journal is installed, so an un-journaled run pays one global load
   and a ``None`` check per *lifecycle step* (chunk/window grained,
   never per flow row) — inside the bench-guarded <= 2% obs budget.
2. **Crash safety by construction.** Records append as complete JSON
   lines, batched to disk on a small bound (every
   ``flush_events`` records or ``flush_seconds`` of wall clock,
   whichever first — serialization stays off the hot path, which is
   what keeps the journal inside the bench-guarded obs budget); a
   crash can tear at most the final line, and :func:`read_journal`
   tolerates (via ``errors='skip'`` semantics) a torn tail, while the
   flight recorder dump re-serializes the in-memory ring so even
   unflushed records survive any crash Python gets to observe.
   Rotation renames nothing: the active segment simply closes and the
   next opens, so no window exists in which events can vanish.
3. **Deterministic causal content.** Event ids and timestamps are
   execution accidents; everything else is pipeline truth. The
   canonical form (:func:`canonical_lines`) strips ``id``/``ts``/
   ``parent`` (and the ``exec.*`` execution-detail kinds that journals
   of earlier builds carry), and is byte-identical for any ``workers``
   setting of the same spec — test-asserted, the same discipline as
   the sharding contract.

The journal doubles as the live tail for the console's
``GET /api/events/stream`` (SSE): a bounded in-memory deque of recent
records plus a condition variable lets handler threads block for the
next event, and :meth:`EventJournal.events_since` replays any resume
gap from disk so ``Last-Event-ID`` reconnects lose nothing.

A second bounded buffer — the **flight recorder** — keeps the last N
events regardless of rotation and dumps them as one JSON document on
crash or SIGTERM (:meth:`EventJournal.dump_recorder`), the black box
an operator reads when the process is already gone.

Import discipline: stdlib + :mod:`repro.errors` only — the hot layers
(stream engines, alarm DB, archive) import this module at module
scope, exactly as they do ``obs.metrics``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import time
import types
import uuid
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "EventJournal",
    "active",
    "canonical_lines",
    "causal",
    "current_parent",
    "disable",
    "emit",
    "enabled",
    "install",
    "journaled",
    "lineage",
    "read_journal",
    "run_id",
    "uptime_seconds",
]

#: Default rotation threshold for one journal segment.
DEFAULT_ROTATE_BYTES = 4 * 1024 * 1024

#: Default size of the in-memory tail backing the SSE stream.
DEFAULT_TAIL_EVENTS = 4096

#: Records kept by the flight recorder when none is configured.
DEFAULT_RECORDER_EVENTS = 256

#: Write-batching bounds: pending records are serialized and flushed
#: to the active segment once either bound is hit. Small enough that
#: an external tailer lags by well under a second, large enough that
#: the hot path never pays JSON + I/O per event.
DEFAULT_FLUSH_EVENTS = 32
DEFAULT_FLUSH_SECONDS = 0.5

#: Process start (wall clock) — uptime reference for /status.
_STARTED = time.time()

#: Lazily minted per-process run id: distinguishes scrapes/journals
#: from restarted sessions even when no journal is installed.
_RUN_ID: str | None = None
_RUN_ID_LOCK = threading.Lock()

#: The installed journal, or ``None`` when the provenance plane is
#: off. The single global every :func:`emit` checks.
_JOURNAL: "EventJournal | None" = None

#: Causal context: the event id new emissions parent to by default.
_PARENT: ContextVar[int | None] = ContextVar(
    "repro_event_parent", default=None
)


def run_id() -> str:
    """This process's run id (minted once, stable for the process)."""
    global _RUN_ID
    if _RUN_ID is None:
        with _RUN_ID_LOCK:
            if _RUN_ID is None:
                _RUN_ID = uuid.uuid4().hex[:12]
    return _RUN_ID


def uptime_seconds() -> float:
    """Seconds since this process imported the obs plane."""
    return time.time() - _STARTED


class EventJournal:
    """Rotated JSONL journal + live tail + flight recorder.

    Parameters
    ----------
    directory:
        Where segments land (created if missing). ``None`` keeps the
        journal memory-only: the live tail and flight recorder work,
        nothing persists (and lineage needs the tail to suffice).
    run:
        Run id stamped on every record; default: the process run id.
    rotate_bytes:
        Close the active segment once it exceeds this many bytes; the
        next event opens the next segment. Segments are never deleted
        — rotation bounds the *file* size (tail-follower friendly),
        not the history.
    tail_events:
        In-memory record tail backing ``events_since``/``wait`` (the
        SSE surface). Resumes older than the tail replay from disk.
    recorder_events:
        Flight-recorder depth (last N events kept for crash dumps).
    flush_events / flush_seconds:
        Write-batching bounds: pending records are serialized and
        flushed once ``flush_events`` accumulate or the oldest
        pending record is ``flush_seconds`` old, whichever first.
        ``flush_events=1`` restores write-through behavior.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        run: str | None = None,
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        tail_events: int = DEFAULT_TAIL_EVENTS,
        recorder_events: int = DEFAULT_RECORDER_EVENTS,
        flush_events: int = DEFAULT_FLUSH_EVENTS,
        flush_seconds: float = DEFAULT_FLUSH_SECONDS,
    ) -> None:
        if rotate_bytes < 1:
            raise ReproError(
                f"rotate_bytes must be >= 1: {rotate_bytes!r}"
            )
        if tail_events < 1 or recorder_events < 1:
            raise ReproError(
                "tail_events and recorder_events must be >= 1"
            )
        if flush_events < 1 or flush_seconds <= 0:
            raise ReproError(
                "flush_events must be >= 1 and flush_seconds > 0"
            )
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.run = run or run_id()
        self.rotate_bytes = rotate_bytes
        self._cond = threading.Condition()
        self._next_id = 1
        self._segment_seq = 0
        self._segment_bytes = 0
        self._stream: io.TextIOBase | None = None
        self._tail: list[dict[str, Any]] = []
        self._tail_limit = tail_events
        self._recorder: list[dict[str, Any]] = []
        self._recorder_limit = recorder_events
        self._pending: list[dict[str, Any]] = []
        self._flush_events = flush_events
        self._flush_seconds = flush_seconds
        self._oldest_pending_ts = 0.0
        self._closed = False

    # -- segment plumbing --------------------------------------------------

    def _segment_path(self, seq: int) -> Path:
        assert self.directory is not None
        return self.directory / f"events-{self.run}-{seq:05d}.jsonl"

    def segments(self) -> list[Path]:
        """This run's segment files, oldest first."""
        if self.directory is None:
            return []
        return sorted(
            self.directory.glob(f"events-{self.run}-*.jsonl")
        )

    def _write_line(self, line: str) -> None:
        """Append one record line, rotating first when due."""
        if self.directory is None:
            return
        encoded = len(line) + 1
        if (
            self._stream is not None
            and self._segment_bytes + encoded > self.rotate_bytes
            and self._segment_bytes > 0
        ):
            # Close-then-open, never rename: a tailing reader (or a
            # crash) always sees complete segments under final names.
            self._stream.flush()
            os.fsync(self._stream.fileno())
            self._stream.close()
            self._stream = None
        if self._stream is None:
            self._segment_seq += 1
            self._segment_bytes = 0
            self._stream = open(
                self._segment_path(self._segment_seq),
                "a",
                encoding="utf-8",
            )
        self._stream.write(line + "\n")
        self._segment_bytes += encoded

    def _flush_locked(self) -> None:
        """Serialize + write every pending record; caller holds lock.

        JSON encoding and I/O happen here, not in :meth:`emit` — the
        hot path only snapshots dicts, and this batch point hands the
        crash risk to the OS buffer (fsync is paid on rotate/close).
        """
        if not self._pending:
            return
        for record in self._pending:
            self._write_line(
                json.dumps(
                    record, separators=(",", ":"), default=str
                )
            )
        self._pending.clear()
        if self._stream is not None:
            self._stream.flush()

    def flush(self) -> None:
        """Force pending records to disk (a no-op when memory-only)."""
        with self._cond:
            self._flush_locked()

    # -- the write path ----------------------------------------------------

    def emit(
        self,
        kind: str,
        parent: int | None = None,
        **fields: Any,
    ) -> int:
        """Append one event; returns its monotonic id.

        ``parent`` defaults to the ambient causal context (see
        :func:`causal`). Extra ``fields`` are stored flat, sorted by
        name so identical content serializes identically.
        """
        if parent is None:
            parent = _PARENT.get()
        with self._cond:
            if self._closed:
                raise ReproError("event journal is closed")
            event_id = self._next_id
            self._next_id += 1
            record: dict[str, Any] = {
                "id": event_id,
                "ts": round(time.time(), 6),
                "run": self.run,
                "kind": kind,
            }
            if parent is not None:
                record["parent"] = parent
            for name in sorted(fields):
                value = fields[name]
                if value is not None:
                    record[name] = value
            if self.directory is not None:
                if not self._pending:
                    self._oldest_pending_ts = record["ts"]
                self._pending.append(record)
                # run.* / alarm.* write through: they are rare, they
                # gate audits, and an idle linger may never emit the
                # next event that would age the batch out.
                if (
                    len(self._pending) >= self._flush_events
                    or record["ts"] - self._oldest_pending_ts
                    >= self._flush_seconds
                    or kind.startswith(("run.", "alarm."))
                ):
                    self._flush_locked()
            self._tail.append(record)
            if len(self._tail) > self._tail_limit:
                del self._tail[: len(self._tail) - self._tail_limit]
            self._recorder.append(record)
            if len(self._recorder) > self._recorder_limit:
                del self._recorder[
                    : len(self._recorder) - self._recorder_limit
                ]
            self._cond.notify_all()
        return event_id

    @property
    def last_id(self) -> int:
        """Id of the most recent event (0 before the first)."""
        with self._cond:
            return self._next_id - 1

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        with self._cond:
            self._closed = True
            self._flush_locked()
            if self._stream is not None:
                self._stream.flush()
                os.fsync(self._stream.fileno())
                self._stream.close()
                self._stream = None
            self._cond.notify_all()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the read path -----------------------------------------------------

    def read(self) -> list[dict[str, Any]]:
        """Every persisted record of this run, id order.

        Memory-only journals answer from the tail instead (bounded —
        old events may have fallen off).
        """
        if self.directory is None:
            with self._cond:
                return list(self._tail)
        self.flush()
        return list(read_journal(self.directory, run=self.run))

    def events_since(self, last_id: int) -> list[dict[str, Any]]:
        """All records with ``id > last_id`` — no gaps, no duplicates.

        Served from the in-memory tail when it still covers the
        resume point, else replayed from disk (so an SSE client with
        a stale ``Last-Event-ID`` still catches up completely).
        """
        with self._cond:
            if last_id >= self._next_id - 1:
                return []
            tail = list(self._tail)
        if tail and tail[0]["id"] <= last_id + 1:
            return [r for r in tail if r["id"] > last_id]
        if self.directory is None:
            return [r for r in tail if r["id"] > last_id]
        return [
            r for r in self.read() if r["id"] > last_id
        ]

    def wait(self, last_id: int, timeout: float) -> bool:
        """Block until an event with ``id > last_id`` exists.

        Returns ``False`` on timeout or once the journal is closed —
        SSE handler threads use the ``False`` beats to poll their
        client's liveness and their server's shutdown flag.
        """
        with self._cond:
            if self._next_id - 1 > last_id:
                return True
            if self._closed:
                return False
            self._cond.wait(timeout)
            return self._next_id - 1 > last_id

    # -- the flight recorder ----------------------------------------------

    def recorder_tail(self) -> list[dict[str, Any]]:
        """The flight recorder's current contents, oldest first."""
        with self._cond:
            return list(self._recorder)

    def dump_recorder(
        self, reason: str, path: str | os.PathLike | None = None
    ) -> Path | None:
        """Write the black box: last-N events + why, as one JSON file.

        Default location: ``flight-<run>.json`` beside the segments.
        Returns the written path, or ``None`` for a memory-only
        journal with no explicit ``path``. Never raises — this runs
        on crash/signal paths where a second failure must not mask
        the first.
        """
        if path is None:
            if self.directory is None:
                return None
            path = self.directory / f"flight-{self.run}.json"
        target = Path(path)
        document = {
            "run": self.run,
            "reason": reason,
            "dumped_ts": round(time.time(), 6),
            "events": self.recorder_tail(),
        }
        try:
            # Best effort: land any write-batched records too, so the
            # segments on disk agree with the black box.
            self.flush()
        except OSError:
            pass
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(target.name + ".tmp")
            tmp.write_text(
                json.dumps(document, indent=2, default=str) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, target)
        except OSError:
            return None
        return target


def read_journal(
    directory: str | os.PathLike,
    run: str | None = None,
) -> Iterator[dict[str, Any]]:
    """Parse every journal segment under ``directory``, id order.

    ``run`` narrows to one run's segments; default reads all runs
    (segment names sort run-major, seq-minor). A torn final line — a
    crashed writer's half-record — is skipped, not fatal; any other
    malformed line raises :class:`~repro.errors.ReproError` because a
    corrupt journal must not silently shorten an audit trail.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ReproError(f"no event journal at {root}")
    pattern = f"events-{run}-*.jsonl" if run else "events-*.jsonl"
    segments = sorted(root.glob(pattern))
    if not segments:
        raise ReproError(
            f"no journal segments under {root}"
            + (f" for run {run!r}" if run else "")
        )
    last = segments[-1]
    for segment in segments:
        lines = segment.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except ValueError:
                if segment == last and number == len(lines) - 1:
                    return  # torn tail from a crashed writer
                raise ReproError(
                    f"corrupt journal line {segment.name}:{number + 1}"
                )


def canonical_lines(
    records: Iterable[dict[str, Any]],
) -> list[str]:
    """The deterministic causal content of a journal.

    Strips execution accidents (``id``/``ts``/``parent``, the
    ``workers`` count) and re-serializes with sorted keys —
    byte-identical across worker counts for the same spec, the
    property the determinism test pins. ``window.seal``'s ``chunks``
    field holds event *ids*, so it is rewritten to the referenced
    chunks' stable ``seq`` numbers.
    """
    materialized = list(records)
    by_id = {record["id"]: record for record in materialized}
    out: list[str] = []
    for record in materialized:
        if record.get("kind", "").startswith("exec."):
            # Shard fan-out detail written by earlier builds: its
            # shape tracked the worker count.
            continue
        content = {
            key: value
            for key, value in record.items()
            if key not in ("id", "ts", "parent", "run", "workers")
        }
        if record.get("kind") == "window.seal" and "chunks" in content:
            content["chunks"] = sorted(
                by_id[ref]["seq"]
                for ref in content["chunks"]
                if ref in by_id and "seq" in by_id[ref]
            )
        out.append(
            json.dumps(content, separators=(",", ":"),
                       sort_keys=True, default=str)
        )
    return out


# -- lineage reconstruction -------------------------------------------------


def lineage(
    records: Iterable[dict[str, Any]], alarm_id: str
) -> dict[str, Any]:
    """Reconstruct one alarm's provenance chain from journal records.

    Walks ``parent`` links up from the alarm's insert/merge events
    (verdict → window seal → run start) and joins sideways on the
    window index for the source chunks and archive partitions of
    that window. Lifecycle transitions join on
    ``alarm_id``. Raises :class:`~repro.errors.ReproError` when the
    alarm never appears in the journal.
    """
    by_id: dict[int, dict[str, Any]] = {}
    alarm_events: list[dict[str, Any]] = []
    for record in records:
        by_id[record["id"]] = record
        if record.get("alarm_id") == alarm_id:
            alarm_events.append(record)
    if not alarm_events:
        raise ReproError(
            f"alarm {alarm_id!r} does not appear in the journal"
        )

    def ancestors(record: dict[str, Any]) -> list[dict[str, Any]]:
        chain: list[dict[str, Any]] = []
        seen: set[int] = set()
        current = record
        while True:
            parent = current.get("parent")
            if parent is None or parent in seen:
                return chain
            seen.add(parent)
            current = by_id.get(parent)
            if current is None:
                return chain
            chain.append(current)

    anchor = next(
        (
            r for r in alarm_events
            if r["kind"] in ("alarm.insert", "alarm.merge")
        ),
        alarm_events[0],
    )
    chain = ancestors(anchor)
    verdict = next(
        (r for r in chain if r["kind"] == "detector.verdict"), None
    )
    window = next(
        (r for r in chain if r["kind"] == "window.seal"), None
    )
    start = next((r for r in chain if r["kind"] == "run.start"), None)
    chunks: list[dict[str, Any]] = []
    partitions: list[dict[str, Any]] = []
    if window is not None:
        for chunk_id in window.get("chunks", ()):
            chunk = by_id.get(chunk_id)
            if chunk is not None:
                chunks.append(chunk)
        index = window.get("index")
        for record in by_id.values():
            if (
                record["kind"] == "archive.partition"
                and record.get("slice") == index
            ):
                partitions.append(record)
    return {
        "alarm_id": alarm_id,
        "run": anchor.get("run"),
        "anchor": anchor,
        "transitions": [
            r for r in alarm_events if r is not anchor
        ],
        "verdict": verdict,
        "window": window,
        "chunks": chunks,
        "partitions": sorted(partitions, key=lambda r: r["id"]),
        "run_start": start,
    }


# -- module-level switchboard ----------------------------------------------


def active() -> EventJournal | None:
    """The installed journal, or ``None`` when provenance is off."""
    return _JOURNAL


def enabled() -> bool:
    return _JOURNAL is not None


def install(journal: EventJournal | None) -> EventJournal | None:
    """Swap the active journal, returning the previous one."""
    global _JOURNAL
    previous = _JOURNAL
    _JOURNAL = journal
    return previous


def disable() -> None:
    """Back to the no-op default (does not close the journal)."""
    global _JOURNAL
    _JOURNAL = None


def emit(
    kind: str, parent: int | None = None, **fields: Any
) -> int | None:
    """Record one event on the active journal; no-op when disabled."""
    journal = _JOURNAL
    if journal is None:
        return None
    return journal.emit(kind, parent=parent, **fields)


def current_parent() -> int | None:
    """The ambient causal parent (event id), if any."""
    return _PARENT.get()


@contextlib.contextmanager
def causal(event_id: int | None):
    """Make ``event_id`` the default parent for nested emissions.

    ``None`` is accepted (and is a no-op context) so call sites can
    pass :func:`emit`'s return value straight through whether or not
    a journal is installed.
    """
    token = _PARENT.set(event_id)
    try:
        yield
    finally:
        _PARENT.reset(token)


@contextlib.contextmanager
def journaled(
    directory: str | os.PathLike | None,
    recorder_events: int | None = None,
    run: str | None = None,
    **start: Any,
) -> Iterator[types.SimpleNamespace]:
    """One run's journal lifecycle around a ``with`` block: install a
    fresh journal, emit ``run.start`` (the causal parent of the block's
    events), and on the way out emit ``run.end``, restore the previous
    journal and close this one. A block that raises ends with its
    exception's type as outcome and dumps the flight recorder; one that
    completes ends with the yielded handle's ``outcome`` (default
    ``"ok"``). ``handle.journal`` is the installed journal."""
    journal = EventJournal(
        directory, run=run,
        recorder_events=recorder_events or DEFAULT_RECORDER_EVENTS,
    )
    previous = install(journal)
    root = journal.emit("run.start", **start)
    handle = types.SimpleNamespace(journal=journal, outcome="ok")
    try:
        with causal(root):
            yield handle
    except BaseException as exc:
        # The black box: a dying run dumps its last-N events before
        # the exception propagates, so the operator can read what the
        # pipeline was doing when it went down.
        journal.emit("run.end", parent=root, outcome=type(exc).__name__)
        journal.dump_recorder(reason=f"{type(exc).__name__}: {exc}")
        raise
    else:
        journal.emit("run.end", parent=root, outcome=handle.outcome)
    finally:
        install(previous)
        journal.close()
