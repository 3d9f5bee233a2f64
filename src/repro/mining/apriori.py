"""The Apriori frequent-itemset algorithm with dual (flow/packet) support.

This is the algorithm of the paper: level-wise over flow transactions,
counting every itemset's support simultaneously in

* **flows** — the number of transactions containing the itemset, and
* **packets** — the summed packet counts of those transactions,

so that an itemset is *frequent* when it passes **either** threshold
(the extension of [5]; pass ``min_packets=None`` to recover the classic
flow-support-only Apriori of [1]). Both measures are anti-monotone, and
so is their disjunction, so Apriori pruning remains sound.

:func:`mine_apriori` runs the levels as group-bys over the code columns
of a :class:`~repro.mining.transactions.TransactionSet`, with the
pruning applied to *rows* instead of candidates. A flow holds exactly
one item per feature, so the k-itemsets over one feature subset are the
value combinations occurring in those columns; the subset
``prefix + (last,)`` is counted only over the rows whose prefix
combination and whose last item both survived their own levels. That
is exact: a frequent k-itemset has a frequent prefix and a frequent
last item, so every row supporting it is still live, and supports are
integer sums filtered at the thresholds as given. No Python runs per
flow; the per-transaction formulation this replaced is the test oracle
(``tests/mining_oracle.py``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.errors import MiningError
from repro.mining.items import ItemsetSupport
from repro.mining.transactions import TransactionSet

__all__ = [
    "EXACT_FLOAT_LIMIT",
    "check_thresholds",
    "group_sum",
    "mine_apriori",
]

#: Weighted group sums stay exact in float64 while every partial sum
#: is an integer below 2**53; above that the slow int64 path is used.
EXACT_FLOAT_LIMIT = 2**53


def check_thresholds(
    min_flows: int | None, min_packets: int | None
) -> None:
    """Reject a threshold pair no engine can mine at."""
    if min_flows is None and min_packets is None:
        raise MiningError(
            "at least one of min_flows/min_packets must be set"
        )
    if min_flows is not None and min_flows < 1:
        raise MiningError(f"min_flows must be >= 1: {min_flows!r}")
    if min_packets is not None and min_packets < 1:
        raise MiningError(f"min_packets must be >= 1: {min_packets!r}")


def group_sum(
    codes: np.ndarray, weights: np.ndarray, size: int, exact_float: bool
) -> np.ndarray:
    """Exact int64 per-group sums of ``weights`` grouped by ``codes``."""
    if exact_float:
        return np.bincount(
            codes, weights=weights, minlength=size
        ).astype(np.int64)
    sums = np.zeros(size, dtype=np.int64)
    np.add.at(sums, codes, weights)
    return sums


def mine_apriori(
    transactions: TransactionSet,
    min_flows: int | None,
    min_packets: int | None = None,
    max_size: int | None = None,
) -> list[ItemsetSupport]:
    """Mine all frequent itemsets of ``transactions``.

    Parameters
    ----------
    min_flows:
        Absolute flow-support threshold, or ``None`` to disable the
        flow measure.
    min_packets:
        Absolute packet-support threshold, or ``None`` to disable the
        packet measure (classic Apriori).
    max_size:
        Optional cap on itemset length (defaults to the number of
        features).

    Returns
    -------
    list[ItemsetSupport]
        All frequent itemsets with exact flow, packet and byte supports,
        sorted by decreasing flow support, then packet support.
    """
    check_thresholds(min_flows, min_packets)
    if max_size is None:
        max_size = len(transactions.features)
    if max_size < 1:
        raise MiningError(f"max_size must be >= 1: {max_size!r}")
    if not transactions:
        return []

    columns = transactions.columns
    packets, bytes_ = transactions.packets, transactions.bytes
    exact_float = (
        transactions.total_packets < EXACT_FLOAT_LIMIT
        and transactions.total_bytes < EXACT_FLOAT_LIMIT
    )
    #: (item ids, flows, packets, bytes) of every frequent group found.
    found: list[tuple[np.ndarray, ...]] = []

    def count(rows, codes, size):
        """Count the groups ``codes`` (dense, below ``size``) puts the
        rows ``rows`` in. Returns the frequent groups, the rows in
        them, those rows' codes renumbered over the frequent groups
        only, and the (flows, packets, bytes) supports — bytes summed
        over the surviving rows alone — or ``None`` when no group is
        frequent."""
        flows = np.bincount(codes, minlength=size)
        packet_sums = group_sum(codes, packets[rows], size, exact_float)
        keep = np.zeros(size, dtype=bool)
        if min_flows is not None:
            keep |= flows >= min_flows
        if min_packets is not None:
            keep |= packet_sums >= min_packets
        kept = np.flatnonzero(keep)
        if not len(kept):
            return None
        renumber = np.full(size, -1, dtype=np.int64)
        renumber[kept] = np.arange(len(kept))
        codes = renumber[codes]
        alive = codes >= 0
        rows, codes = rows[alive], codes[alive]
        byte_sums = group_sum(codes, bytes_[rows], len(kept), exact_float)
        return kept, rows, codes, (flows[kept], packet_sums[kept], byte_sums)

    #: column index -> (per-row code of its frequent item or -1, ids).
    singles: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    #: feature subset of the current size -> (live rows, codes, ids).
    level: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    every_row = np.arange(len(transactions))
    for index, column in enumerate(columns):
        hit = count(every_row, column.codes, len(column.values))
        if hit is None:
            continue
        kept, rows, codes, supports = hit
        ids = (column.offset + kept)[:, None]
        by_row = np.full(len(transactions), -1, dtype=np.int64)
        by_row[rows] = codes
        singles[index] = (by_row, ids)
        level[(index,)] = (rows, codes, ids)
        found.append((ids, *supports))

    for size in range(2, min(max_size, len(columns)) + 1):
        previous, level = level, {}
        for subset in combinations(range(len(columns)), size):
            prefix, last = subset[:-1], subset[-1]
            if prefix not in previous or last not in singles:
                continue
            rows, codes, prefix_ids = previous[prefix]
            by_row, last_ids = singles[last]
            last_codes = by_row[rows]
            both = last_codes >= 0
            base = len(last_ids)
            # Factorised by sort: memory is bounded by the live rows,
            # not by groups(prefix) x groups(last).
            groups, codes = np.unique(
                codes[both] * base + last_codes[both], return_inverse=True
            )
            hit = count(rows[both], codes, len(groups))
            if hit is None:
                continue
            kept, rows, codes, supports = hit
            groups = groups[kept]
            ids = np.concatenate(
                [prefix_ids[groups // base], last_ids[groups % base]],
                axis=1,
            )
            level[subset] = (rows, codes, ids)
            found.append((ids, *supports))

    mined = [
        row
        for block in found
        for row in zip(*(array.tolist() for array in block))
    ]
    # Ids are in item order, so sorting id lists is sorting itemsets.
    mined.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return [
        ItemsetSupport(transactions.decode(ids), *supports)
        for ids, *supports in mined
    ]
