"""Sharded multi-core execution over the columnar flow substrate.

The scale-out seam of the system: every heavy pass — frequent-itemset
mining, per-window feature computation, detection sweeps — decomposes
into *shard → merge* with an explicit contract (ARCHITECTURE.md,
"Sharding contract"), so the same code runs serially, on a local
process pool, or (later) on a distributed backend, with byte-identical
results.

``partition``
    Stable, seedable hash partitioning of any
    :class:`~repro.flows.table.FlowTable` by a configurable key
    (default ``src_ip``), plus shard-aware CSV/binary/archive readers
    that fan chunked ingest straight into per-shard tables (a
    shard-aware archive serves each shard's partition files directly).
``executor``
    :class:`ShardExecutor` — per-shard tasks on a lazily created
    process pool (tables travel as shared-memory descriptors, never as
    pickled records), with a zero-overhead in-process loop for
    ``workers=1``, platforms without ``fork`` and fan-outs whose
    segment cannot be staged.
``mining``
    SON-style two-pass partitioned mining — the serial kernel per
    shard at scaled support, exact global recount — and
    :class:`ShardedApriori`, the drop-in self-tuning envelope over
    shards.
``detect``
    Parallel feature matrices and multi-window detection sweeps:
    workers evaluate disjoint bin ranges, results merge in timestamp
    order through the batch scoring path.

The stream engine (:mod:`repro.stream`) accumulates windows in-process
at any worker count — fanning a window out lost to the serial loop on
every workload measured (ROADMAP item 3(a)) — and reaches this layer
only through live triage's sharded extractor.

Callers normally reach this layer through the declarative facade: any
:mod:`repro.api` spec with ``execution.workers > 1`` dispatches its
heavy passes here (``parallel_detect``, the sharded extractor, archive
scan fan-out) — the worker count is the only knob, results are
byte-identical by the sharding contract.
"""

from repro.parallel.detect import (
    bin_spans,
    parallel_detect,
    parallel_feature_matrix,
)
from repro.parallel.executor import ShardExecutor
from repro.parallel.mining import (
    ShardedApriori,
    count_signatures,
    mine_partitioned,
    scaled_threshold,
)
from repro.parallel.partition import (
    PARTITION_KEYS,
    PartitionSpec,
    partition_chunks,
    partition_table,
    read_archive_sharded,
    read_binary_sharded,
    read_csv_sharded,
    shard_ids,
    stable_hash64,
)

__all__ = [
    "PARTITION_KEYS",
    "PartitionSpec",
    "stable_hash64",
    "shard_ids",
    "partition_table",
    "partition_chunks",
    "read_csv_sharded",
    "read_binary_sharded",
    "read_archive_sharded",
    "ShardExecutor",
    "scaled_threshold",
    "count_signatures",
    "mine_partitioned",
    "ShardedApriori",
    "bin_spans",
    "parallel_feature_matrix",
    "parallel_detect",
]
