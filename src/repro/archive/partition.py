"""One on-disk partition: header-checked, indexed, mmap-served.

A :class:`Partition` binds a data file to its parsed ``.idx`` sidecar
(:class:`~repro.archive.index.ZoneMap` +
:class:`~repro.archive.index.FeatureIndex`) and serves the payload as
a **zero-copy** :class:`~repro.flows.table.FlowTable`: a read-only
plain-array view of an ``np.memmap`` of the file at the 32-byte
header offset —
opening a partition does not read, decode or copy the payload, and a
partition that prunes out of a query costs nothing at all.

Integrity is checked *before* a partition is served, from metadata
alone (sidecar checksum, header fields, file sizes — never a payload
scan):

* bad magic or a foreign schema version →
  :class:`~repro.errors.CodecError` (well-formed, not ours to parse);
* a torn or checksum-failing ``.idx``, a truncated or inflated
  payload, row-count disagreement with the sidecar →
  :class:`~repro.errors.ArchiveError` (the reader quarantines the
  partition and keeps serving the rest of the archive).

There is one partition format: the feature index is decoded with the
zone map and is never absent. Files in the formats older builds wrote
are :mod:`repro.archive.compaction`'s to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.archive.index import FeatureIndex, ZoneMap, decode_index
from repro.archive.layout import (
    PARTITION_HEADER_SIZE,
    PartitionKey,
    sidecar_path,
    unpack_partition_header,
)
from repro.errors import ArchiveError
from repro.flows.table import FLOW_DTYPE, FlowTable

__all__ = ["Partition", "checked_rows", "load_partition", "open_rows"]


def open_rows(path: str | Path, rows: int) -> FlowTable:
    """Read-only mmap of one partition's payload (zero-copy), from its
    path and row count.

    The table holds a plain ``ndarray`` view of the ``np.memmap``: the
    same pages, still read-only, but a column read or a derived mask
    does not run ``memmap``'s Python-level ``__getitem__`` and
    ``__array_finalize__``. The view's ``base`` chain ends at the
    ``np.memmap`` of ``path``, which keeps the mapping open.
    """
    return FlowTable(np.memmap(
        path,
        dtype=FLOW_DTYPE,
        mode="r",
        offset=PARTITION_HEADER_SIZE,
        shape=(rows,),
    ).view(np.ndarray))


@dataclass
class Partition:
    """A servable partition: identity, file, index, lazy table."""

    key: PartitionKey
    path: Path
    zone: ZoneMap
    features: FeatureIndex = field(repr=False)
    _table: FlowTable | None = field(default=None, repr=False)

    @property
    def rows(self) -> int:
        return self.zone.rows

    @property
    def payload_bytes(self) -> int:
        return self.zone.rows * FLOW_DTYPE.itemsize

    def table(self) -> FlowTable:
        """The partition's rows as a zero-copy mmap-backed table.

        The mapping is opened read-only (``mode="r"``) and cached on
        the partition; every caller shares the same pages. Mutating
        the returned table's columns is impossible — the OS enforces
        the archive's immutability contract.
        """
        if self._table is None:
            self._table = open_rows(self.path, self.zone.rows)
        return self._table


def checked_rows(path: Path, sidecar_rows: int | None = None) -> int:
    """The row count in a partition file's 32-byte header, once the
    header (magic, schema version), the sidecar's count when one is
    given, and the exact file size that count implies all agree."""
    with open(path, "rb") as handle:
        header = handle.read(PARTITION_HEADER_SIZE)
    rows = unpack_partition_header(header, source=path)
    if sidecar_rows is not None and rows != sidecar_rows:
        raise ArchiveError(
            f"{path}: header says {rows} rows, sidecar says {sidecar_rows}"
        )
    expected = PARTITION_HEADER_SIZE + rows * FLOW_DTYPE.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ArchiveError(
            f"{path}: file is {actual} bytes; {expected} expected "
            f"for {rows} rows — truncated or inflated partition"
        )
    return rows


def load_partition(key: PartitionKey, path: Path) -> Partition:
    """Validate one partition file and bind it to its sidecar.

    Checks are metadata-only: the sidecar's checksum, then
    :func:`checked_rows`. Raises :class:`~repro.errors.CodecError`
    for foreign bytes, :class:`~repro.errors.ArchiveError` for torn
    ones and :class:`FileNotFoundError` when the partition has no
    sidecar at all (a writer mid-write, or a crash leftover).
    """
    zone, features = decode_index(
        sidecar_path(path).read_bytes(), source=path
    )
    checked_rows(path, zone.rows)
    return Partition(key=key, path=path, zone=zone, features=features)
