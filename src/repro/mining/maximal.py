"""Closed and maximal itemset reduction.

A frequent-itemset run over flow data returns heavily redundant results:
every subset of a frequent itemset is frequent too. The extraction step
reports *maximal* itemsets (no frequent proper superset) so operators
see one row per phenomenon, and uses *closed* itemsets (no superset with
identical support) when exact supports of the collapsed subsets matter.

Both reductions enumerate each itemset's proper subsets — an itemset
holds at most one item per feature, so at most 2^5 - 2 of them — as
hashable ``(feature index, value)`` keys; an itemset is then absorbed
exactly when its own key is among the keys of some larger itemset.
That holds for any input list, downward-closed or not. The
every-pair comparison this replaced is the test oracle
(``tests/mining_oracle.py``).
"""

from __future__ import annotations

from itertools import combinations

from repro.mining.items import ItemsetSupport

__all__ = ["maximal_itemsets", "closed_itemsets"]

_Key = tuple[tuple[int, int], ...]


def _key(support: ItemsetSupport) -> _Key:
    """The itemset as ``(feature index, value)`` pairs in item order:
    plain ints hash faster than items."""
    return tuple(item._key() for item in support.itemset.items)


def _cover(covered: set[_Key], key: _Key) -> None:
    """Add every non-empty proper subset of ``key`` to ``covered``."""
    for size in range(1, len(key)):
        covered.update(combinations(key, size))


def maximal_itemsets(
    supports: list[ItemsetSupport],
) -> list[ItemsetSupport]:
    """Keep only itemsets without a frequent proper superset.

    Input order is preserved among survivors.
    """
    keys = [_key(support) for support in supports]
    covered: set[_Key] = set()
    for key in keys:
        _cover(covered, key)
    return [
        support
        for support, key in zip(supports, keys)
        if key not in covered
    ]


def closed_itemsets(
    supports: list[ItemsetSupport],
) -> list[ItemsetSupport]:
    """Keep itemsets with no proper superset of identical dual support.

    Closure is taken on both measures: a superset absorbs a subset only
    when flow *and* packet supports match exactly (it then covers the
    same transactions).
    """
    keys = [_key(support) for support in supports]
    #: (flows, packets) -> proper subsets of the itemsets with them.
    covered: dict[tuple[int, int], set[_Key]] = {}
    for support, key in zip(supports, keys):
        _cover(
            covered.setdefault((support.flows, support.packets), set()),
            key,
        )
    return [
        support
        for support, key in zip(supports, keys)
        if key not in covered[(support.flows, support.packets)]
    ]
