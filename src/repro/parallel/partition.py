"""Hash placement of flow rows into shards: the archive's shard layout.

The placement contract (see ARCHITECTURE.md):

* a row's shard is a pure function of one **partition key** column
  (default ``src_ip``, the paper's srcaddr) and a **seed** — never of
  row order, chunk boundaries or shard-count history — so re-ingesting
  the same trace, in any order, lands every flow on the same shard;
* the hash is a fixed 64-bit avalanche mix (the splitmix64 finalizer),
  stable across processes, platforms and Python versions — unlike
  ``hash()``, which is salted per interpreter.

:class:`~repro.archive.writer.ArchiveWriter` splits rows with
:func:`shard_ids` when it writes shard-aware partitions; the seed
exists so operators can reshuffle placement without touching the key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FlowError
from repro.flows.table import FlowTable

__all__ = [
    "PARTITION_KEYS",
    "PartitionSpec",
    "stable_hash64",
    "shard_ids",
]

#: Columns a table may be partitioned on (any discrete flow feature).
PARTITION_KEYS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "router",
)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def stable_hash64(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer over integer values.

    Deterministic for a given ``(value, seed)`` on every platform; the
    seed perturbs placement without correlating nearby key values.
    """
    x = np.asarray(values).astype(np.uint64, copy=True)
    x += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a flow set into shards.

    ``shards`` is the partition count, ``key`` the flow column whose
    value decides a row's shard, and ``seed`` perturbs the placement
    hash.
    """

    shards: int = 1
    key: str = "src_ip"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FlowError(f"shards must be >= 1: {self.shards!r}")
        if self.key not in PARTITION_KEYS:
            raise FlowError(
                f"unknown partition key {self.key!r}; expected one of "
                f"{PARTITION_KEYS}"
            )


def shard_ids(table: FlowTable, spec: PartitionSpec) -> np.ndarray:
    """Per-row shard assignment in ``[0, spec.shards)``."""
    if spec.shards == 1:
        return np.zeros(len(table), dtype=np.int64)
    hashed = stable_hash64(table.column(spec.key), seed=spec.seed)
    return (hashed % np.uint64(spec.shards)).astype(np.int64)
