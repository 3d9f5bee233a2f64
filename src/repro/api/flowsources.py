"""Built-in flow sources for the session facade.

A *source* adapts one "where the flows live" shape to the two access
patterns execution modes need: a bounded :class:`~repro.flows.trace.FlowTrace`
(batch detection, extraction, queries) and an unbounded iterator of
:class:`~repro.flows.table.FlowTable` chunks (streaming, archive
ingest). :class:`FlowSource` is the protocol; factories are looked up
by :attr:`SourceSpec.kind <repro.api.specs.SourceSpec.kind>` in
:data:`repro.api.registry.sources`.

The file-backed and in-memory kinds (``rpv5``, ``csv``, ``table``)
live here; the subsystem-owned kinds register themselves where they
belong — ``scenario`` in :mod:`repro.synth.presets`, ``archive`` in
:mod:`repro.archive.reader`, ``tail`` in :mod:`repro.stream.sources` —
the same mechanism third-party sources use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.api.registry import sources
from repro.errors import SpecError
from repro.flows.flowio import (
    iter_binary_tables,
    iter_csv_tables,
    read_binary_table,
    read_csv_table,
)
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace

__all__ = ["FlowSource", "require_path"]


class FlowSource:
    """Base class/protocol for session flow sources.

    Subclasses implement :meth:`trace` for bounded sources and/or
    :meth:`chunks`; ``bounded`` tells the facade which execution plans
    are available (a stream over a bounded source replays it, an
    unbounded source is consumed live).
    """

    kind = "abstract"
    bounded = True

    def __init__(self, spec) -> None:
        self.spec = spec

    def trace(self) -> FlowTrace:
        """The whole source as a bounded trace."""
        raise SpecError(
            f"source kind {self.kind!r} is unbounded; it cannot back "
            f"mode(s) that need the whole trace",
            field="source.kind",
        )

    def chunks(self, chunk_rows: int) -> Iterator[FlowTable]:
        """The source as a chunk stream (default: slice the trace)."""
        from repro.stream.sources import table_chunks

        return table_chunks(self.trace(), chunk_rows=chunk_rows)

    def describe(self) -> str:
        """Short human-readable origin (for messages)."""
        return self.spec.path or self.kind


def require_path(spec, kind: str) -> str:
    """The spec's path to an existing file, or a :class:`SpecError`
    naming the field."""
    if not spec.path:
        raise SpecError(
            f"source kind {kind!r} requires a path", field="source.path"
        )
    if not Path(spec.path).is_file():
        raise SpecError(f"no such file: {spec.path!r}",
                        field="source.path")
    return spec.path


class _FileSource(FlowSource):
    """A flow file: ``read`` loads it whole, ``iterate`` in chunks."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.path = require_path(spec, self.kind)

    def trace(self) -> FlowTrace:
        return FlowTrace(
            self.read(self.path),
            bin_seconds=self.spec.bin_seconds,
            origin=self.spec.origin,
        )

    def chunks(self, chunk_rows: int) -> Iterator[FlowTable]:
        return self.iterate(self.path, chunk_rows=chunk_rows)


class _Rpv5Source(_FileSource):
    """A recorded NetFlow-v5 binary trace (``.rpv5``)."""

    kind = "rpv5"
    read = staticmethod(read_binary_table)
    iterate = staticmethod(iter_binary_tables)


class _CsvSource(_FileSource):
    """A CSV flow log with the standard header."""

    kind = "csv"
    read = staticmethod(read_csv_table)
    iterate = staticmethod(iter_csv_tables)


class _TableSource(FlowSource):
    """An in-memory :class:`FlowTable`/:class:`FlowTrace` (builder-only)."""

    kind = "table"

    def __init__(self, spec) -> None:
        super().__init__(spec)
        if spec.table is None:
            raise SpecError(
                "source kind 'table' needs an in-memory table; build "
                "the session with session().table(...)",
                field="source.table",
            )

    def trace(self) -> FlowTrace:
        table = self.spec.table
        if isinstance(table, FlowTrace):
            return table
        return FlowTrace(
            table,
            bin_seconds=self.spec.bin_seconds,
            origin=self.spec.origin,
        )

    def describe(self) -> str:
        return "in-memory table"


sources.register("rpv5", _Rpv5Source)
sources.register("csv", _CsvSource)
sources.register("table", _TableSource)
