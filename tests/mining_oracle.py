"""The per-flow transaction encoder and per-transaction Apriori, kept
as the test oracle.

Both were production code until the columnar
:class:`~repro.mining.transactions.TransactionSet` and the group-by
kernel of :mod:`repro.mining.apriori` replaced them: the record-
interning loop was ``TransactionSet.from_flows`` and the level-wise
candidate join + per-transaction counting was ``mine_apriori``. They
moved here unchanged (only the class and function names differ), so
the columnar path can be checked for equal ids, transactions, totals,
itemsets, supports and order against plain Python integers and dicts.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.errors import MiningError
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    feature_value,
)
from repro.mining.apriori import check_thresholds
from repro.mining.extended import ExtendedApriori
from repro.mining.items import Item, Itemset, ItemsetSupport
from repro.mining.transactions import TransactionSet


class Transaction(NamedTuple):
    """One encoded transaction: sorted item ids plus weights."""

    item_ids: tuple[int, ...]
    packets: int
    bytes: int


def columnar_transactions(transactions: TransactionSet) -> list[Transaction]:
    """The per-flow transactions a columnar set encodes, read row by
    row out of its code columns; the columns are in id order, so every
    row comes out sorted."""
    rows = zip(*(
        (column.offset + column.codes).tolist()
        for column in transactions.columns
    ))
    return [
        Transaction(item_ids, packets, bytes_)
        for item_ids, packets, bytes_ in zip(
            rows,
            transactions.packets.tolist(),
            transactions.bytes.tolist(),
        )
    ]


class OracleTransactionSet:
    """Transactions as a list of per-flow id tuples plus an intern
    table, built by walking the records one by one."""

    def __init__(
        self,
        transactions: list[Transaction],
        id_to_item: list[Item],
        features: tuple[FlowFeature, ...],
    ) -> None:
        self._transactions = transactions
        self._id_to_item = id_to_item
        self.features = features
        self.total_flows = len(transactions)
        self.total_packets = sum(t.packets for t in transactions)
        self.total_bytes = sum(t.bytes for t in transactions)

    @classmethod
    def from_flows(
        cls,
        flows: Iterable[FlowRecord],
        features: tuple[FlowFeature, ...] = FLOW_FEATURES,
    ) -> "OracleTransactionSet":
        """Encode flows over the chosen features (default: all five)."""
        intern: dict[tuple[FlowFeature, int], int] = {}
        pending: list[tuple[tuple[tuple[FlowFeature, int], ...], int, int]] = []
        for flow in flows:
            keys = tuple(
                (feature, feature_value(flow, feature))
                for feature in features
            )
            pending.append((keys, flow.packets, flow.bytes))
            for key in keys:
                if key not in intern:
                    intern[key] = 0  # placeholder; ids assigned after sort

        # Assign ids in (feature order, value) order so id order == item
        # order; Apriori's prefix join depends on this.
        feature_rank = {feature: i for i, feature in enumerate(FLOW_FEATURES)}
        ordered_keys = sorted(
            intern, key=lambda fv: (feature_rank[fv[0]], fv[1])
        )
        for item_id, key in enumerate(ordered_keys):
            intern[key] = item_id
        id_to_item = [Item(feature, value) for feature, value in ordered_keys]

        transactions = [
            Transaction(
                item_ids=tuple(sorted(intern[key] for key in keys)),
                packets=packets,
                bytes=bytes_,
            )
            for keys, packets, bytes_ in pending
        ]
        return cls(transactions, id_to_item, tuple(features))

    def __len__(self) -> int:
        return self.total_flows

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def __bool__(self) -> bool:
        return bool(self._transactions)

    @property
    def item_count(self) -> int:
        return len(self._id_to_item)

    def item(self, item_id: int) -> Item:
        return self._id_to_item[item_id]

    def feature_of(self, item_id: int) -> FlowFeature:
        return self._id_to_item[item_id].feature

    def decode(self, item_ids: Sequence[int]) -> Itemset:
        return Itemset(self._id_to_item[item_id] for item_id in item_ids)

    def absolute_thresholds(self, *args, **kwargs):
        """The threshold arithmetic reads only the two totals."""
        return TransactionSet.absolute_thresholds(self, *args, **kwargs)


def _is_frequent(
    counts: list[int], min_flows: int | None, min_packets: int | None
) -> bool:
    if min_flows is not None and counts[0] >= min_flows:
        return True
    if min_packets is not None and counts[1] >= min_packets:
        return True
    return False


def _generate_candidates(
    frequent: list[tuple[int, ...]],
    frequent_set: set[tuple[int, ...]],
    transactions,
) -> list[tuple[int, ...]]:
    """Join ``L_{k-1}`` with itself, with both Apriori pruning rules.

    ``frequent`` must be sorted; two (k-1)-itemsets sharing their first
    k-2 items join into a k-candidate. Candidates with two items of one
    feature, or with an infrequent (k-1)-subset, are dropped.
    """
    candidates = []
    n = len(frequent)
    for i in range(n):
        base = frequent[i]
        prefix = base[:-1]
        for j in range(i + 1, n):
            other = frequent[j]
            if other[:-1] != prefix:
                break  # sorted order: no further joins share the prefix
            last_a, last_b = base[-1], other[-1]
            if transactions.feature_of(last_a) is \
                    transactions.feature_of(last_b):
                continue
            candidate = base + (last_b,)
            # Subset pruning: every (k-1)-subset must be frequent. The
            # two generating subsets are; check the rest.
            if all(
                candidate[:m] + candidate[m + 1 :] in frequent_set
                for m in range(len(candidate) - 2)
            ):
                candidates.append(candidate)
    return candidates


def oracle_apriori(
    transactions,
    min_flows: int | None,
    min_packets: int | None = None,
    max_size: int | None = None,
) -> list[ItemsetSupport]:
    """All frequent itemsets of ``transactions``, one transaction and
    one ``combinations(ids, k)`` at a time.

    ``transactions`` is an :class:`OracleTransactionSet`.
    """
    check_thresholds(min_flows, min_packets)
    if max_size is None:
        max_size = len(transactions.features)
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1: {max_size!r}")
    if not transactions:
        return []

    # L1: single scan over all transactions.
    item_counts: dict[int, list[int]] = {}
    for transaction in transactions:
        for item_id in transaction.item_ids:
            counts = item_counts.get(item_id)
            if counts is None:
                counts = [0, 0, 0]
                item_counts[item_id] = counts
            counts[0] += 1
            counts[1] += transaction.packets
            counts[2] += transaction.bytes

    results: list[ItemsetSupport] = []
    frequent: list[tuple[int, ...]] = []
    for item_id in sorted(item_counts):
        counts = item_counts[item_id]
        if _is_frequent(counts, min_flows, min_packets):
            frequent.append((item_id,))
            results.append(
                ItemsetSupport(
                    itemset=transactions.decode((item_id,)),
                    flows=counts[0],
                    packets=counts[1],
                    bytes=counts[2],
                )
            )

    size = 2
    frequent_set = set(frequent)
    while frequent and size <= max_size:
        candidates = _generate_candidates(
            frequent, frequent_set, transactions
        )
        if not candidates:
            break
        counting: dict[tuple[int, ...], list[int]] = {
            candidate: [0, 0, 0] for candidate in candidates
        }
        for transaction in transactions:
            ids = transaction.item_ids
            if len(ids) < size:
                continue
            for subset in combinations(ids, size):
                counts = counting.get(subset)
                if counts is not None:
                    counts[0] += 1
                    counts[1] += transaction.packets
                    counts[2] += transaction.bytes

        frequent = []
        for candidate in candidates:
            counts = counting[candidate]
            if _is_frequent(counts, min_flows, min_packets):
                frequent.append(candidate)
                results.append(
                    ItemsetSupport(
                        itemset=transactions.decode(candidate),
                        flows=counts[0],
                        packets=counts[1],
                        bytes=counts[2],
                    )
                )
        frequent.sort()
        frequent_set = set(frequent)
        size += 1

    results.sort(key=lambda s: (-s.flows, -s.packets, s.itemset.items))
    return results


class OracleApriori(ExtendedApriori):
    """The self-tuning envelope over the oracle's encoding, with
    :func:`oracle_apriori` behind its ``_frequent`` seam: what every
    ``MiningOutcome`` must equal."""

    def mine(self, flows):
        return self._mine_transactions(
            OracleTransactionSet.from_flows(
                list(flows), features=self.config.features
            )
        )

    def _frequent(self, transactions, min_flows, min_packets):
        return oracle_apriori(transactions, min_flows, min_packets)
