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
pruning applied to *patterns* instead of candidates. Level 1 counts
each code column over the rows. The rows then collapse into their
distinct patterns of frequent level-1 items — one mixed-radix key per
row, one sort, run lengths as flow weights and ``np.add.reduceat``
packet and byte sums — and every further level counts patterns, not
rows. That is exact: rows with equal frequent items support the same
itemsets, since an itemset of two or more items holding an infrequent
item cannot be frequent. A flow holds exactly one item per feature, so
the k-itemsets over one feature subset are the value combinations
occurring in those columns; the subset ``prefix + (last,)`` is counted
only over the patterns whose prefix combination and whose last item
both survived their own levels. That is exact too: a frequent
k-itemset has a frequent prefix and a frequent last item, so every
pattern supporting it is still live, and supports are integer sums
filtered at the thresholds as given. No Python runs per flow; the
per-transaction formulation this replaced is the test oracle
(``tests/mining_oracle.py``).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.errors import MiningError
from repro.flows.aggregate import factorise
from repro.mining.items import Item, Itemset, ItemsetSupport
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
    exact_float = (
        transactions.total_packets < EXACT_FLOAT_LIMIT
        and transactions.total_bytes < EXACT_FLOAT_LIMIT
    )
    #: (item ids, flows, packets, bytes) of every frequent group found.
    found: list[tuple[np.ndarray, ...]] = []
    #: item id -> its Item, for every frequent item (the only ids a
    #: frequent itemset can hold).
    items: dict[int, Item] = {}

    def frequent(codes, size, flows, packets, bytes_):
        """Group the units — rows or patterns — by ``codes`` (dense,
        below ``size``), each unit weighing ``flows`` transactions
        (``None``: one each), ``packets`` and ``bytes_``. Returns the
        frequent groups and their (flows, packets, bytes) supports, or
        ``None`` when no group is frequent."""
        if flows is None:
            flow_sums = np.bincount(codes, minlength=size)
        else:
            flow_sums = group_sum(codes, flows, size, exact_float)
        packet_sums = group_sum(codes, packets, size, exact_float)
        keep = np.zeros(size, dtype=bool)
        if min_flows is not None:
            keep |= flow_sums >= min_flows
        if min_packets is not None:
            keep |= packet_sums >= min_packets
        kept = np.flatnonzero(keep)
        if not len(kept):
            return None
        byte_sums = group_sum(codes, bytes_, size, exact_float)
        return kept, (flow_sums[kept], packet_sums[kept], byte_sums[kept])

    # Level 1 on the rows. ``digits`` holds, per column with a frequent
    # item, each row's frequent code + 1 (0: none) in the narrowest
    # unsigned dtype, and its radix; ``ids_of`` the frequent item ids.
    digits: dict[int, tuple[np.ndarray, int]] = {}
    ids_of: dict[int, np.ndarray] = {}
    for index, column in enumerate(columns):
        hit = frequent(
            column.codes, len(column.values),
            None, transactions.packets, transactions.bytes,
        )
        if hit is None:
            continue
        kept, supports = hit
        ids = column.offset + kept
        for item_id, value in zip(
            ids.tolist(), column.values[kept].tolist()
        ):
            items[item_id] = Item(column.feature, value)
        digit_of = np.zeros(
            len(column.values), dtype=np.min_scalar_type(len(kept))
        )
        digit_of[kept] = np.arange(1, len(kept) + 1)
        digits[index] = (digit_of[column.codes], len(kept) + 1)
        ids_of[index] = ids[:, None]
        found.append((ids_of[index], *supports))

    if max_size > 1 and len(digits) > 1:
        # Rows with equal frequent items support the same itemsets:
        # every further level counts the distinct patterns, weighted.
        pattern_codes, weights = _collapse(
            digits, transactions.packets, transactions.bytes
        )
        del digits
        #: column index -> (per-pattern code or -1, frequent item ids).
        singles = {
            index: (codes, ids_of[index])
            for index, codes in pattern_codes.items()
        }
        #: feature subset of the current size -> (live patterns,
        #: their codes, ids).
        level: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
        for index, (codes, ids) in singles.items():
            live = np.flatnonzero(codes >= 0)
            level[(index,)] = (live, codes[live], ids)

        for size in range(2, min(max_size, len(columns)) + 1):
            previous, level = level, {}
            for subset in combinations(range(len(columns)), size):
                prefix, last = subset[:-1], subset[-1]
                if prefix not in previous or last not in singles:
                    continue
                units, codes, prefix_ids = previous[prefix]
                by_unit, last_ids = singles[last]
                last_codes = by_unit[units]
                both = last_codes >= 0
                units = units[both]
                base = len(last_ids)
                # Factorised by sort: memory is bounded by the live
                # patterns, not by groups(prefix) x groups(last).
                groups, codes = factorise(
                    codes[both] * base + last_codes[both]
                )
                hit = frequent(
                    codes, len(groups),
                    *(weight[units] for weight in weights),
                )
                if hit is None:
                    continue
                kept, supports = hit
                renumber = np.full(len(groups), -1, dtype=np.int64)
                renumber[kept] = np.arange(len(kept))
                codes = renumber[codes]
                alive = codes >= 0
                groups = groups[kept]
                ids = np.concatenate(
                    [prefix_ids[groups // base], last_ids[groups % base]],
                    axis=1,
                )
                level[subset] = (units[alive], codes[alive], ids)
                found.append((ids, *supports))

    mined = [
        row
        for block in found
        for row in zip(*(array.tolist() for array in block))
    ]
    # Ids are in item order, so sorting id lists is sorting itemsets;
    # each id list holds one id per feature, so it decodes as is.
    mined.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return [
        ItemsetSupport(
            Itemset._from_sorted(tuple(items[i] for i in ids)), *supports
        )
        for ids, *supports in mined
    ]


#: A mixed-radix pattern key is re-densified before its radix product
#: passes this bound, so it never overflows int64.
_KEY_LIMIT = 2**62


def _collapse(
    digits: dict[int, tuple[np.ndarray, int]],
    packets: np.ndarray,
    bytes_: np.ndarray,
) -> tuple[dict[int, np.ndarray], tuple[np.ndarray, ...]]:
    """Collapse rows into their distinct patterns of frequent level-1
    items.

    ``digits`` maps column index to each row's frequent code + 1 (0:
    no frequent item) and that digit's radix. Returns, per column, each
    pattern's code (-1: none) and the per-pattern (flows, packets,
    bytes) weights: run lengths and ``np.add.reduceat`` sums of one
    sort of a mixed-radix key over the digits.
    """
    key = np.zeros(len(packets), dtype=np.int64)
    radix = 1
    for digit, base in digits.values():
        if radix * base > _KEY_LIMIT:
            # Rank the key: the radix becomes the number of distinct
            # partial patterns seen so far, at most the row count.
            values, key = factorise(key)
            radix = len(values)
        key *= base
        key += digit
        radix *= base
    order = np.argsort(key)
    ordered = key[order]
    heads = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    first = order[heads]
    weights = (
        np.diff(heads, append=len(ordered)),
        np.add.reduceat(packets[order], heads),
        np.add.reduceat(bytes_[order], heads),
    )
    return {
        index: digit[first].astype(np.int64) - 1
        for index, (digit, _) in digits.items()
    }, weights
