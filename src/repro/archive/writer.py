"""Appending partitions to an archive.

:class:`ArchiveWriter` is the single write path of the archive. It
owns the directory's geometry (rotation width + origin, persisted in
the manifest on first fix), allocates per-slice sequence numbers
(restart-safe: initialised from the files already on disk) and emits
partitions crash-safely in **one index pass and two atomic writes**:
the rows are factorised once
(:meth:`~repro.archive.index.FeatureIndex.from_table`, which the zone
map is read off; the streaming ring hands in the index it counted at
the seal), the payload goes to a temporary name, is fsynced and
linked, the ``.idx`` sidecar follows the same way, and the directory
is fsynced once after both. A partition is servable exactly when both
files exist under their final names and the sidecar's checksum holds;
any interruption leaves either nothing or a quarantinable leftover,
never a half-readable partition.

Two write paths:

* :meth:`write_partition` — one table, one known slice, one file.
  Used by the streaming ring (a sealed window is exactly one slice)
  and by compaction.
* :meth:`ingest_table` / :meth:`ingest_chunks` — arbitrary tables,
  partitioned by start time with one vectorized floor-divide,
  buffered per slice and spilled whenever a buffer reaches
  ``spill_rows`` — so an unbounded chunk stream ingests with bounded
  memory. :meth:`flush` (or :meth:`close`, or the context manager
  exit) spills the remainder.

**Written in order.** Every caller hands :meth:`write_partition` rows
in start order (the ring's sealed window, compaction's merge, a spill
put in query order here), and the sidecar's ``sorted`` flag is derived
from the rows, never taken on trust — it is what lets a reader bisect.

Every partition this writer emits is named ``part<slice>-h0-<seq>``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.archive.index import FeatureIndex, ZoneMap, encode_index
from repro.archive.layout import (
    ArchiveLayout,
    PartitionKey,
    atomic_write,
    pack_partition_header,
    sidecar_path,
)
from repro.errors import ArchiveError
from repro.flows.table import FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS
from repro.obs import events as obs_events, metrics as obs_metrics

__all__ = ["DEFAULT_SPILL_ROWS", "ArchiveWriter"]

_PARTITIONS_WRITTEN = obs_metrics.counter(
    "repro_archive_partitions_written_total",
    "Partition files written (spills and sealed alike).",
)
_PARTITIONS_SEALED = obs_metrics.counter(
    "repro_archive_partitions_sealed_total",
    "Partitions written with the sealed flag (complete slices).",
)
_ROWS_ARCHIVED = obs_metrics.counter(
    "repro_archive_rows_total",
    "Flow rows persisted into partition files.",
)

#: Buffered rows per slice before an automatic spill.
DEFAULT_SPILL_ROWS = 65_536


class ArchiveWriter:
    """Writes time-partitioned flow files."""

    def __init__(
        self,
        root: str | Path,
        slice_seconds: float | None = None,
        origin: float | None = None,
        spill_rows: int = DEFAULT_SPILL_ROWS,
    ) -> None:
        """``slice_seconds=None`` (the default) adopts an existing
        archive's rotation width, or :data:`DEFAULT_BIN_SECONDS` for a
        fresh directory; an *explicit* width must match the manifest
        exactly — reopening an archive under a different grid is an
        error, never a silent regrid."""
        if slice_seconds is not None and slice_seconds <= 0:
            raise ArchiveError(
                f"slice_seconds must be positive: {slice_seconds!r}"
            )
        if spill_rows < 1:
            raise ArchiveError(
                f"spill_rows must be >= 1: {spill_rows!r}"
            )
        self.layout = ArchiveLayout(root)
        self.layout.ensure_root()
        self.spill_rows = spill_rows
        existing = self.layout.read_manifest()
        if existing is not None:
            manifest_width, manifest_origin = existing
            if slice_seconds is not None and \
                    slice_seconds != manifest_width:
                raise ArchiveError(
                    f"archive {root} rotates every {manifest_width}s; "
                    f"cannot reopen it with slice_seconds={slice_seconds}"
                )
            slice_seconds = manifest_width
            if origin is not None and origin != manifest_origin:
                raise ArchiveError(
                    f"archive {root} has origin {manifest_origin}; "
                    f"cannot reopen it with origin={origin}"
                )
            origin = manifest_origin
        elif slice_seconds is None:
            slice_seconds = DEFAULT_BIN_SECONDS
        self.slice_seconds = float(slice_seconds)
        self._origin = origin
        if origin is not None:
            self.layout.write_manifest(self.slice_seconds, origin)
        # The last sequence number of each slice on disk.
        self._seq: dict[int, int] = {}
        for key, _path in self.layout.partition_files():
            self._seq[key.slice_index] = max(
                self._seq.get(key.slice_index, -1), key.seq
            )
        self._buffers: dict[int, list[FlowTable]] = {}
        self._buffered_rows: dict[int, int] = {}

    # -- geometry ----------------------------------------------------------

    @property
    def origin(self) -> float | None:
        """Left edge of slice 0; ``None`` until the first row fixes it."""
        return self._origin

    def set_origin(self, origin: float) -> None:
        """Pin slice 0's left edge (idempotent for the same value)."""
        if self._origin is not None:
            if self._origin != origin:
                raise ArchiveError(
                    f"archive origin already fixed at {self._origin}; "
                    f"cannot move it to {origin}"
                )
            return
        self._origin = float(origin)
        self.layout.write_manifest(self.slice_seconds, self._origin)

    def _fix_origin(self, first_start: float) -> None:
        if self._origin is None:
            self.set_origin(
                math.floor(first_start / self.slice_seconds)
                * self.slice_seconds
            )

    def slice_interval(self, index: int) -> tuple[float, float]:
        """``[start, end)`` of slice ``index``."""
        if self._origin is None:
            raise ArchiveError("archive origin not fixed yet")
        start = self._origin + index * self.slice_seconds
        return (start, start + self.slice_seconds)

    # -- the low-level write -----------------------------------------------

    def write_partition(
        self,
        table: FlowTable,
        slice_index: int,
        sealed: bool = False,
        replaces: tuple[str, ...] = (),
        features: FeatureIndex | None = None,
    ) -> Path | None:
        """Write one table as one partition file of ``slice_index``.

        The caller asserts every row starts inside the slice (the
        rotation invariant readers prune by); a violating row raises.
        ``features``: the table's index if the caller already counted
        it (the ring's seal). Empty tables write nothing, return ``None``.
        """
        if not len(table):
            return None
        self._fix_origin(float(table.start.min()))
        # Validate with the *routing* expression (the same floor-divide
        # every ingest path uses), not recomputed interval bounds: the
        # two grids disagree by one ulp near boundaries for fractional
        # widths, and a row must archive under exactly the slice it
        # routes to.
        indices = np.floor(
            (table.start - self._origin) / self.slice_seconds
        ).astype(np.int64)
        if int(indices.min()) != slice_index \
                or int(indices.max()) != slice_index:
            lo, hi = self.slice_interval(slice_index)
            raise ArchiveError(
                f"rows outside slice {slice_index} [{lo}, {hi}): "
                f"starts route to slices "
                f"[{int(indices.min())}, {int(indices.max())}]"
            )
        seq = self._seq.get(slice_index, -1) + 1
        self._seq[slice_index] = seq
        key = PartitionKey(slice_index=slice_index, seq=seq)
        if features is None:
            features = FeatureIndex.from_table(table)
        zone = ZoneMap.from_table(
            table,
            features,
            sealed=sealed,
            replaces=replaces,
        )
        data = np.ascontiguousarray(table._data)
        path = self.layout.partition_path(key)
        # Data first, sidecar second: a crash between the two leaves a
        # data file without a sidecar, which readers quarantine — never
        # a servable partition with unchecked bytes. Exclusive create:
        # a name collision (two writers racing one directory) is a
        # loud error, never a silent overwrite.
        atomic_write(
            path,
            pack_partition_header(len(table)) + data.tobytes(),
            exclusive=True,
        )
        atomic_write(sidecar_path(path), encode_index(zone, features))
        # Both names are linked; make the links themselves durable
        # before anything ordered after this partition (the alarm row
        # of the window it seals) can be.
        self.layout.sync_directory()
        if obs_metrics.enabled():
            _PARTITIONS_WRITTEN.inc()
            if sealed:
                _PARTITIONS_SEALED.inc()
            _ROWS_ARCHIVED.inc(len(table))
        if obs_events.enabled():
            obs_events.emit(
                "archive.partition",
                slice=slice_index,
                seq=seq,
                rows=len(table),
                sealed=sealed or None,
                path=path.name,
            )
        return path

    # -- buffered ingest ----------------------------------------------------

    def _route(self, table: FlowTable) -> None:
        """Partition one table into the per-slice buffers."""
        indices = np.floor(
            (table.start - self._origin) / self.slice_seconds
        ).astype(np.int64)
        for slice_index in np.unique(indices).tolist():
            rows = table.select(indices == slice_index)
            self._buffers.setdefault(slice_index, []).append(rows)
            self._buffered_rows[slice_index] = (
                self._buffered_rows.get(slice_index, 0) + len(rows)
            )

    def ingest_table(self, table: FlowTable) -> int:
        """Buffer one table's rows by slice; spill full buffers.

        Returns the number of rows ingested. Rows become *servable*
        when their buffer spills — call :meth:`flush` to make
        everything durable.
        """
        if not len(table):
            return 0
        self._fix_origin(float(table.start.min()))
        self._route(table)
        for slice_index in [
            index
            for index, rows in self._buffered_rows.items()
            if rows >= self.spill_rows
        ]:
            self._spill(slice_index)
        return len(table)

    def ingest_chunks(self, chunks: Iterable[FlowTable]) -> int:
        """Drain a chunk source through :meth:`ingest_table`."""
        total = 0
        for chunk in chunks:
            total += self.ingest_table(chunk)
        return total

    def _spill(self, slice_index: int) -> None:
        parts = self._buffers.pop(slice_index, [])
        self._buffered_rows.pop(slice_index, None)
        if not parts:
            return
        # Chunks arrive in any order; a partition leaves in query
        # order (stable: equal rows keep their arrival order).
        self.write_partition(
            FlowTable.concat(parts).in_query_order(),
            slice_index=slice_index,
        )

    def flush(self) -> int:
        """Spill every buffered row; returns how many were written."""
        pending = sum(self._buffered_rows.values())
        for slice_index in sorted(self._buffers):
            self._spill(slice_index)
        return pending

    def close(self) -> None:
        """Flush and retire the writer (idempotent)."""
        self.flush()

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
