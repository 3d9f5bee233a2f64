"""Unbounded flow sources for the streaming engine.

A *source* is any iterable of :class:`~repro.flows.table.FlowTable`
chunks; the engine consumes chunks one at a time and never needs the
whole stream in memory. The helpers here adapt an in-memory table and
a CSV file another process keeps appending to into that common chunk
protocol; a recorded ``.rpv5`` trace streams through
:func:`~repro.flows.flowio.iter_binary_tables`.

Chunks carry no ordering contract: the :class:`~repro.stream.window.WindowRing`
routes every row by its start time and handles out-of-order and late
arrivals. Sources that *are* time-ordered (recorded traces) simply let
the watermark advance faster.
"""

from __future__ import annotations

import csv
import io
import time
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import CodecError
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "table_chunks",
    "tail_csv_chunks",
]

#: Default rows per streamed chunk. Smaller than the file readers'
#: 65536 on purpose: a streaming engine trades a little per-chunk
#: overhead for lower watermark latency.
DEFAULT_CHUNK_ROWS = 8_192


def table_chunks(
    flows: FlowTable | FlowTrace,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[FlowTable]:
    """Slice an in-memory table (or trace) into row chunks."""
    if chunk_rows <= 0:
        raise CodecError(f"chunk_rows must be positive: {chunk_rows!r}")
    table = flows.table if isinstance(flows, FlowTrace) else flows
    for offset in range(0, len(table), chunk_rows):
        yield table.select(slice(offset, offset + chunk_rows))


def tail_csv_chunks(
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    poll_seconds: float = 0.2,
    idle_polls: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[FlowTable]:
    """Tail a growing CSV flow log, yielding chunks as rows appear.

    The file must carry the standard :data:`~repro.flows.flowio.CSV_FIELDS`
    header. Only complete lines are consumed; a partially written last
    line is left for the next poll, so a concurrent appender never
    produces a torn row. ``idle_polls`` bounds how many consecutive
    empty polls to tolerate before the tail ends (``None`` tails
    forever — the live-deployment mode).
    """
    from repro.flows.flowio import read_csv_table

    if chunk_rows <= 0:
        raise CodecError(f"chunk_rows must be positive: {chunk_rows!r}")
    if poll_seconds <= 0:
        raise CodecError(f"poll_seconds must be positive: {poll_seconds!r}")
    path = Path(path)
    position = 0
    header: str | None = None
    pending = ""
    idle = 0
    while True:
        size = path.stat().st_size if path.exists() else 0
        if size < position:
            # Truncated/rotated file: start over from the top.
            position = 0
            header = None
            pending = ""
        grew = size > position
        if grew:
            with open(path, "r", newline="") as handle:
                handle.seek(position)
                data = pending + handle.read(size - position)
                position = size
            lines = data.splitlines(keepends=True)
            if lines and not lines[-1].endswith("\n"):
                pending = lines.pop()
            else:
                pending = ""
            rows: list[str] = []
            for line in lines:
                if header is None:
                    header = line
                    continue
                if line.strip():
                    rows.append(line)
            for offset in range(0, len(rows), chunk_rows):
                batch = rows[offset:offset + chunk_rows]
                if header is None:
                    raise CodecError(f"{path}: data before CSV header")
                chunk = read_csv_table(
                    io.StringIO(header + "".join(batch))
                )
                if len(chunk):
                    idle = 0
                    yield chunk
        if not grew:
            idle += 1
            if idle_polls is not None and idle >= idle_polls:
                return
            sleep(poll_seconds)


def _csv_header_line() -> str:
    """The canonical CSV header line (for tests and writers)."""
    from repro.flows.flowio import CSV_FIELDS

    buffer = io.StringIO()
    csv.writer(buffer).writerow(CSV_FIELDS)
    return buffer.getvalue()


# -- session-facade registration ---------------------------------------------

class TailSource:
    """``tail`` source: follow a growing CSV flow log, unbounded.

    Options: ``poll_seconds`` (default 0.2), ``idle_polls`` (stop after
    this many consecutive empty polls; default: tail forever).
    """

    kind = "tail"
    bounded = False

    _KNOWN = ("poll_seconds", "idle_polls")

    def __init__(self, spec) -> None:
        from repro.errors import SpecError

        self.spec = spec
        if not spec.path:
            raise SpecError("source kind 'tail' requires a path",
                            field="source.path")
        for key in spec.options:
            if key not in self._KNOWN:
                raise SpecError(
                    f"unknown tail option {key!r}; expected "
                    f"{', '.join(self._KNOWN)}",
                    field=f"source.options.{key}",
                )
        self.path = spec.path
        self.poll_seconds = float(spec.options.get("poll_seconds", 0.2))
        idle = spec.options.get("idle_polls")
        self.idle_polls = None if idle is None else int(idle)

    def trace(self):
        from repro.errors import SpecError

        raise SpecError(
            "source kind 'tail' is unbounded; it cannot back modes "
            "that need the whole trace",
            field="source.kind",
        )

    def chunks(self, chunk_rows: int) -> Iterator[FlowTable]:
        return tail_csv_chunks(
            self.path,
            chunk_rows=chunk_rows,
            poll_seconds=self.poll_seconds,
            idle_polls=self.idle_polls,
        )

    def describe(self) -> str:
        return f"tail {self.path}"


from repro.api.registry import sources as _sources  # noqa: E402

_sources.register("tail", TailSource)
