"""Compaction: merge rotation spills into sorted, sealed partitions.

A live archive accumulates many small partitions per rotation slice —
one per ingest spill, one per streamed window. Each carries its own
file, sidecar and zone map, so query cost (and directory churn) grows
with write count, not data size. Compaction restores the invariant an
NfDump spool enjoys naturally — *one file per capture interval* — by
merging every slice's partitions into a single ``h0`` partition whose
rows are stably sorted by start time, marked **sealed**: immutable,
never compacted again, the terminal state of archived data. A slice an
older build split into hash shards (several ``h`` numbers) merges the
same way, so one pass migrates a sharded archive.

Compaction is crash-safe without locks: the merged partition is
written (atomically, under a fresh sequence number) with a
``replaces`` provenance list naming its inputs *before* any input is
deleted. A crash in between leaves both on disk; readers resolve the
duplication by dropping any live partition named in another's
``replaces`` list, so queries never double-count. Re-running
compaction completes the cleanup.

Merging preserves query semantics exactly: rows of a slice concatenate
in ``(shard, seq)`` order (= the order a reader scans them) and sort
stably by start, so the canonical ``(start, 5-tuple)`` query order —
including tie resolution — is byte-identical before and after
compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.archive.layout import remove_partition
from repro.archive.partition import Partition
from repro.archive.reader import ArchiveReader
from repro.archive.writer import ArchiveWriter
from repro.flows.table import FlowTable

__all__ = ["CompactionResult", "compact_archive"]


@dataclass(frozen=True, slots=True)
class CompactionResult:
    """What one compaction pass did."""

    groups: int
    partitions_before: int
    partitions_after: int
    rows_compacted: int
    bytes_compacted: int


def _groups(partitions: list[Partition]) -> dict[int, list[Partition]]:
    grouped: dict[int, list[Partition]] = {}
    for partition in partitions:
        grouped.setdefault(partition.key.slice_index, []).append(partition)
    return grouped


def compact_archive(
    root: str | Path,
    reader: ArchiveReader | None = None,
) -> CompactionResult:
    """Merge every slice that holds several or unsealed partitions.

    A group is left alone only when it is already terminal: exactly
    one partition, sealed, with an ``.idx`` sidecar (a legacy group is
    rewritten into the current format and every old name, both JSON
    sidecars included, unlinked). Returns counters; an empty archive
    (or one already fully compacted) is a no-op.
    """
    reader = reader or ArchiveReader(root)
    reader.refresh()
    writer = ArchiveWriter(root)
    # Recovery sweep: a crash between a previous pass's write and its
    # deletes leaves superseded inputs on disk. Readers already ignore
    # them (provenance wins); finishing the interrupted deletes here is
    # what makes "re-running compaction completes the cleanup" true.
    superseded = {
        name
        for partition in reader.partitions()
        for name in partition.zone.replaces
    }
    for _key, path in reader.layout.partition_files():
        if path.name in superseded:
            remove_partition(path)
    grouped = _groups(reader.partitions())
    groups = 0
    merged_rows = 0
    merged_bytes = 0
    before = sum(len(group) for group in grouped.values())
    for slice_index, group in sorted(grouped.items()):
        if len(group) == 1 and group[0].zone.sealed \
                and not group[0].legacy:
            continue
        groups += 1
        group.sort(key=lambda p: p.key)
        merged = FlowTable.concat([p.table() for p in group])
        merged = merged.sorted_by_start()
        writer.write_partition(
            merged,
            slice_index=slice_index,
            sealed=True,
            replaces=tuple(p.path.name for p in group),
        )
        merged_rows += len(merged)
        merged_bytes += sum(p.payload_bytes for p in group)
        for partition in group:
            # The sealed replacement is durable; now the inputs (and
            # their sidecars) can go. Partition tables are mmap views
            # over these files — drop our references first so the
            # mapping is not the only thing keeping deleted inodes
            # alive longer than needed.
            remove_partition(partition.path)
    reader.refresh()
    return CompactionResult(
        groups=groups,
        partitions_before=before,
        partitions_after=len(reader.partitions()),
        rows_compacted=merged_rows,
        bytes_compacted=merged_bytes,
    )
