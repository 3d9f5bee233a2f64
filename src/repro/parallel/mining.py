"""Partitioned frequent-itemset mining: the SON two-pass over shards.

The scheme is the partition algorithm of Savasere/Omiecinski/Navathe
(SON), as popularised for map-reduce mining:

1. **Local pass** — every shard is mined independently at *scaled*
   thresholds (:func:`scaled_threshold`): a shard holding weight
   ``w_i`` of the global weight ``W`` uses
   ``max(1, floor(min_support * w_i / W))``. Any itemset frequent
   globally must be locally frequent in at least one shard (if it
   missed every scaled threshold, summing the per-shard deficits
   bounds its global support strictly below the global threshold), so
   the union of local results is a complete candidate set. Dual
   flow/packet thresholds scale per measure, and an OR of
   anti-monotone measures stays anti-monotone, so the argument holds
   for the extended Apriori unchanged.
2. **Global pass** — the candidate union is recounted *exactly* over
   every shard with vectorized masks and filtered at the unscaled
   thresholds. Counts are integers, so the result is byte-identical
   to single-process mining — same itemsets, same supports, same sort
   order — for any shard count and any row order.

The local pass *is* the serial kernel
(:func:`~repro.mining.apriori.mine_apriori` over the shard's own
:class:`~repro.mining.transactions.TransactionSet`) at the scaled
thresholds; only the global recount is specific to sharding.
:class:`ShardedApriori` plugs the two-pass into the self-tuning
envelope of :class:`~repro.mining.extended.ExtendedApriori` so the
threshold search visits the same trajectory as the serial miner — the
equivalence suite asserts the whole
:class:`~repro.mining.extended.MiningOutcome` matches.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import MiningError
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.mining.apriori import (
    EXACT_FLOAT_LIMIT,
    check_thresholds,
    group_sum,
    mine_apriori,
)
from repro.mining.extended import ExtendedApriori, ExtendedAprioriConfig
from repro.obs import metrics as obs_metrics
from repro.mining.items import Item, Itemset, ItemsetSupport
from repro.mining.transactions import TransactionSet
from repro.parallel.executor import ShardExecutor
from repro.parallel.partition import PartitionSpec, partition_table

__all__ = [
    "Signature",
    "scaled_threshold",
    "count_signatures",
    "mine_partitioned",
    "ShardedApriori",
]

_FEATURE_RANK = {feature: i for i, feature in enumerate(FLOW_FEATURES)}

#: A picklable itemset identity: ``((feature_rank, value), ...)``
#: ordered by feature rank — the currency of the shard protocol.
Signature = tuple[tuple[int, int], ...]


def scaled_threshold(
    global_min: int, shard_weight: int, total_weight: int
) -> int:
    """The SON local threshold for one shard and one support measure.

    ``max(1, floor(global_min * shard_weight / total_weight))`` — the
    largest per-shard threshold that still guarantees completeness of
    the local candidate pass (ARCHITECTURE.md, "Sharding contract").
    """
    if global_min < 1:
        raise MiningError(f"global_min must be >= 1: {global_min!r}")
    if total_weight <= 0:
        return 1
    return max(1, (global_min * shard_weight) // total_weight)


def _signature_itemset(signature: Signature) -> Itemset:
    """Decode a shard-protocol signature into an :class:`Itemset`."""
    return Itemset(
        Item(FLOW_FEATURES[rank], value) for rank, value in signature
    )


def _supports(
    counted: Iterable[tuple[Signature, int, int, int]],
) -> list[ItemsetSupport]:
    """Build the final support list in :func:`mine_apriori` order."""
    results = [
        ItemsetSupport(
            itemset=_signature_itemset(signature),
            flows=flows,
            packets=packets,
            bytes=bytes_,
        )
        for signature, flows, packets, bytes_ in counted
    ]
    results.sort(key=lambda s: (-s.flows, -s.packets, s.itemset.items))
    return results


def count_signatures(
    table: FlowTable, signatures: Sequence[Signature]
) -> np.ndarray:
    """Exact ``(flows, packets, bytes)`` of each signature in a table.

    The global-pass kernel. Signatures are grouped by their feature
    subset and each subset is counted with one dense-code group-by —
    the same machinery as the local pass — so the cost is a handful of
    ``np.unique`` passes over the table (at most one chain per feature
    subset, ≤ 31), independent of how many candidates a subset holds.
    Each signature then resolves to its group by binary search.
    Returns a ``(len(signatures), 3)`` int64 array.
    """
    counts = np.zeros((len(signatures), 3), dtype=np.int64)
    if not len(table) or not signatures:
        return counts
    by_subset: dict[tuple[int, ...], list[int]] = {}
    for index, signature in enumerate(signatures):
        ranks = tuple(rank for rank, _ in signature)
        by_subset.setdefault(ranks, []).append(index)

    packets = table.packets
    bytes_ = table.bytes
    exact_float = (
        table.total_packets() < EXACT_FLOAT_LIMIT
        and table.total_bytes() < EXACT_FLOAT_LIMIT
    )
    #: rank -> (distinct values, per-row dense codes), shared across
    #: every subset touching that feature.
    column_codes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def codes_for(rank: int) -> tuple[np.ndarray, np.ndarray]:
        cached = column_codes.get(rank)
        if cached is None:
            distinct, inverse = np.unique(
                table.feature_column(FLOW_FEATURES[rank]),
                return_inverse=True,
            )
            cached = column_codes[rank] = (
                distinct.astype(np.int64),
                inverse.astype(np.int64),
            )
        return cached

    for ranks, members in by_subset.items():
        # Chain the subset's columns into one dense group code, and
        # track every member signature's would-be code alongside.
        distinct, group = codes_for(ranks[0])
        positions = np.searchsorted(
            distinct, [signatures[m][0][1] for m in members]
        ).astype(np.int64)
        valid = (positions < len(distinct)) & (
            distinct[np.minimum(positions, len(distinct) - 1)]
            == [signatures[m][0][1] for m in members]
        )
        group_count = len(distinct)
        for depth, rank in enumerate(ranks[1:], start=1):
            col_distinct, col_codes = codes_for(rank)
            base = len(col_distinct)
            packed = group * base + col_codes
            uniq, inverse = np.unique(packed, return_inverse=True)
            col_values = np.asarray(
                [signatures[m][depth][1] for m in members],
                dtype=np.int64,
            )
            col_positions = np.searchsorted(col_distinct, col_values)
            col_hit = (col_positions < base) & (
                col_distinct[np.minimum(col_positions, base - 1)]
                == col_values
            )
            keys = positions * base + np.minimum(col_positions, base - 1)
            positions = np.searchsorted(uniq, keys).astype(np.int64)
            valid &= col_hit & (positions < len(uniq)) & (
                uniq[np.minimum(positions, len(uniq) - 1)] == keys
            )
            group = inverse.astype(np.int64)
            group_count = len(uniq)
        flows = np.bincount(group, minlength=group_count)
        packet_sums = group_sum(group, packets, group_count, exact_float)
        byte_sums = group_sum(group, bytes_, group_count, exact_float)
        safe = np.minimum(positions, group_count - 1)
        for offset, member in enumerate(members):
            if valid[offset]:
                position = int(safe[offset])
                counts[member] = (
                    int(flows[position]),
                    int(packet_sums[position]),
                    int(byte_sums[position]),
                )
    return counts


_SHARD_CANDIDATES = obs_metrics.counter(
    "repro_mining_shard_candidates_total",
    "Candidate itemsets produced by per-shard local mining passes. "
    "Recorded inside worker tasks and folded back as deltas.",
)
_RECOUNT_PASSES = obs_metrics.counter(
    "repro_mining_recount_passes_total",
    "Per-shard global recount passes of the SON two-pass protocol. "
    "Recorded inside worker tasks and folded back as deltas.",
)


def _local_mine_task(
    table: FlowTable,
    min_flows: int | None,
    min_packets: int | None,
    features: tuple[FlowFeature, ...],
    max_size: int,
) -> list[Signature]:
    """Worker task of the local pass: one shard's candidate itemsets."""
    candidates = [
        tuple(
            (_FEATURE_RANK[item.feature], item.value)
            for item in support.itemset.items
        )
        for support in mine_apriori(
            TransactionSet.from_table(table, features),
            min_flows, min_packets, max_size,
        )
    ]
    if candidates:
        _SHARD_CANDIDATES.inc(len(candidates))
    return candidates


def _count_task(
    table: FlowTable, signatures: Sequence[Signature]
) -> np.ndarray:
    """Worker task of the global pass: exact counts over one shard."""
    _RECOUNT_PASSES.inc()
    return count_signatures(table, signatures)


def mine_partitioned(
    shards: Sequence[FlowTable],
    min_flows: int | None,
    min_packets: int | None = None,
    *,
    max_size: int | None = None,
    features: tuple[FlowFeature, ...] = FLOW_FEATURES,
    executor: ShardExecutor | None = None,
) -> list[ItemsetSupport]:
    """SON two-pass mining over pre-partitioned shards.

    Equivalent to mining the concatenation of ``shards`` in one
    process — byte-identical itemsets, supports and order — while
    every per-shard pass runs through ``executor`` (serial by
    default).
    """
    check_thresholds(min_flows, min_packets)
    TransactionSet._check_features(features)
    if max_size is None:
        max_size = len(features)
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1: {max_size!r}")
    if executor is None:
        executor = ShardExecutor(1)

    total_flows = sum(len(shard) for shard in shards)
    if not total_flows:
        return []
    total_packets = sum(shard.total_packets() for shard in shards)

    # Local pass: scaled thresholds per shard and measure.
    extras = []
    for shard in shards:
        local_flows = (
            None
            if min_flows is None
            else scaled_threshold(min_flows, len(shard), total_flows)
        )
        local_packets = (
            None
            if min_packets is None
            else scaled_threshold(
                min_packets, shard.total_packets(), total_packets
            )
        )
        extras.append((local_flows, local_packets, features, max_size))
    local = executor.map_tables(_local_mine_task, shards, extras)

    # Candidate union, deduplicated and canonically ordered so the
    # global pass is deterministic regardless of shard arrival order.
    candidates = sorted({sig for shard_result in local for sig in shard_result})
    if not candidates:
        return []

    # Global pass: exact recount of every candidate over every shard.
    counted = executor.map_tables(
        _count_task, shards, [(candidates,)] * len(shards)
    )
    totals = np.sum(counted, axis=0)

    frequent: list[tuple[Signature, int, int, int]] = []
    for signature, (flows, packets, bytes_) in zip(candidates, totals):
        keep = (min_flows is not None and flows >= min_flows) or (
            min_packets is not None and packets >= min_packets
        )
        if keep:
            frequent.append(
                (signature, int(flows), int(packets), int(bytes_))
            )
    return _supports(frequent)


class _ShardCollection:
    """Duck-typed stand-in for a ``TransactionSet`` over shards.

    Carries exactly what the self-tuning envelope touches: global
    totals, threshold conversion and truthiness.
    """

    def __init__(
        self,
        shards: Sequence[FlowTable],
        features: tuple[FlowFeature, ...],
    ) -> None:
        self.shards = list(shards)
        self.features = features
        self.total_flows = sum(len(shard) for shard in self.shards)
        self.total_packets = sum(
            shard.total_packets() for shard in self.shards
        )

    def __bool__(self) -> bool:
        return self.total_flows > 0

    def absolute_thresholds(self, *args, **kwargs):
        """Same conversion as a transaction set over the same flows."""
        return TransactionSet.absolute_thresholds(self, *args, **kwargs)


class ShardedApriori(ExtendedApriori):
    """The extended Apriori envelope over hash-partitioned shards.

    Same configuration, same self-tuning trajectory and byte-identical
    :class:`~repro.mining.extended.MiningOutcome` as the serial
    :class:`~repro.mining.extended.ExtendedApriori`; only the frequent-
    itemset engine is swapped for :func:`mine_partitioned`. A columnar
    input is hash-partitioned by ``partition``; record-path inputs fall
    back to the serial engine unchanged.
    """

    def __init__(
        self,
        config: ExtendedAprioriConfig | None = None,
        *,
        partition: PartitionSpec | None = None,
        executor: ShardExecutor | None = None,
    ) -> None:
        super().__init__(config)
        if partition is None:
            partition = PartitionSpec(
                shards=executor.workers if executor is not None else 1
            )
        if executor is None:
            executor = ShardExecutor(partition.shards)
        self.partition = partition
        self.executor = executor

    def mine(
        self,
        flows: "Iterable[FlowRecord] | FlowTable | TransactionSet",
    ):
        if isinstance(flows, FlowTable):
            return self.mine_shards(
                partition_table(flows, self.partition)
            )
        return super().mine(flows)

    def mine_shards(self, shards: Sequence[FlowTable]):
        """Self-tuned mining over already-partitioned shards."""
        return self._mine_transactions(
            _ShardCollection(shards, self.config.features)
        )

    def _frequent(self, transactions, min_flows, min_packets):
        if isinstance(transactions, _ShardCollection):
            return mine_partitioned(
                transactions.shards,
                min_flows,
                min_packets,
                features=self.config.features,
                executor=self.executor,
            )
        return super()._frequent(transactions, min_flows, min_packets)
