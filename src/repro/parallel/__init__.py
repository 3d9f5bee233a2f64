"""The archive's shard layout: stable, seedable hash placement.

``repro archive ingest --shards N`` splits every slice's rows with
:func:`shard_ids` and records the :class:`PartitionSpec` in each
partition's sidecar (ARCHITECTURE.md, "One process at every worker
count; the archive's shard layout").

Every pass — triage mining, batch detection, archive scans — runs in
the calling process at any ``workers`` value: the fork pool, its
shared-memory staging and the SON two-pass each lost to the serial
path on 2 vCPUs (ROADMAP item 7). ``executor`` and ``mining`` hold
only the two stubs the e2e tracer still patches by name.
"""

from repro.parallel.partition import (
    PARTITION_KEYS,
    PartitionSpec,
    shard_ids,
    stable_hash64,
)

__all__ = [
    "PARTITION_KEYS",
    "PartitionSpec",
    "stable_hash64",
    "shard_ids",
]
