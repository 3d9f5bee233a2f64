"""Persistent mmap'd columnar flow archive.

The durable leg of the deployment loop. The paper's system triages
open alarms against a *rotating on-disk NfDump archive*; this package
gives the reproduction the same substrate: closed stream windows,
spilled store slices and bulk-ingested traces persist as
time-partitioned files holding raw
little-endian :data:`~repro.flows.table.FLOW_DTYPE` rows — so a
memory-mapped partition *is* a :class:`~repro.flows.table.FlowTable`,
with no decode step between disk and the columnar hot path.

``layout``
    The directory contract: manifest (geometry + schema version),
    partition naming ``part<slice>-h0-<seq>.flows`` (+ ``.idx``), the
    32-byte versioned header, crash-safe atomic writes and the
    directory fsync, quarantine.
``index``
    The partition index — per-column value histograms (feature index)
    and, read off them, the zone map (time bounds, per-column min/max
    and value dictionaries, counter sums) — built in one pass, stored
    as one checksummed binary ``.idx`` sidecar; plus the sound
    partition-pruning logic over the nfdump filter AST.
``partition``
    One validated partition served as a read-only zero-copy
    ``np.memmap`` view.
``writer``
    :class:`ArchiveWriter` — buffered, vectorized ingest and the
    low-level partition write (one index pass, two atomic writes, one
    directory fsync).
``planner``
    Push-down arithmetic (histogram merging, ranking), the window cut
    and the :class:`~repro.archive.planner.QueryPlan`.
``reader``
    :class:`ArchiveReader` — zone-map-pruned window+filter queries,
    byte-identical to :meth:`~repro.flows.trace.FlowTrace.query_table`
    over the same rows, behind the same ``query_table`` /
    ``slice_seconds`` surface that lets
    :class:`~repro.system.backend.FlowBackend` (and the whole triage
    pipeline) run archive-backed.
``compaction``
    Merging small rotation spills into sorted, sealed partitions with
    crash-safe provenance — and the one migration of the formats older
    builds wrote, which every reader refuses.

``repro archive`` is the CLI (ingest / ls / query / compact / stats /
triage); ``--archive`` on ``repro stream`` persists closed windows so
detection survives process restarts.
"""

from repro.archive.compaction import CompactionResult, compact_archive
from repro.archive.index import MAX_DICT_VALUES, ColumnZone, ZoneMap
from repro.archive.layout import (
    ArchiveLayout,
    PartitionKey,
    parse_partition_name,
    partition_file_name,
)
from repro.archive.partition import Partition, load_partition
from repro.archive.reader import ArchiveReader, ArchiveStats, ScanStats
from repro.archive.writer import DEFAULT_SPILL_ROWS, ArchiveWriter

__all__ = [
    "ArchiveLayout",
    "PartitionKey",
    "partition_file_name",
    "parse_partition_name",
    "MAX_DICT_VALUES",
    "ColumnZone",
    "ZoneMap",
    "Partition",
    "load_partition",
    "DEFAULT_SPILL_ROWS",
    "ArchiveWriter",
    "ArchiveReader",
    "ArchiveStats",
    "ScanStats",
    "CompactionResult",
    "compact_archive",
]
