"""Items and itemsets over flow features.

The mining model of the paper: a flow is a transaction containing one
item per flow feature — ``srcIP=a``, ``dstIP=b``, ``srcPort=p``,
``dstPort=q``, ``proto=r`` — and an *itemset* is a combination of such
items (at most one per feature). Table 1 of the paper prints itemsets as
rows with a ``*`` wildcard for absent features; :meth:`Itemset.render_row`
reproduces that format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import MiningError
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    feature_value,
    format_feature_value,
)
from repro.flows.table import FlowTable

__all__ = ["Item", "Itemset", "ItemsetSupport", "itemset_from_signature"]

_FEATURE_ORDER = {feature: index for index, feature in enumerate(FLOW_FEATURES)}


@dataclass(frozen=True, slots=True, order=False)
class Item:
    """One (feature, value) pair."""

    feature: FlowFeature
    value: int

    def _key(self) -> tuple[int, int]:
        return (_FEATURE_ORDER[self.feature], self.value)

    def __lt__(self, other: "Item") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Item") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Item") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Item") -> bool:
        return self._key() >= other._key()

    def render(self, anonymize: bool = False) -> str:
        """``feature=value`` text form."""
        return (
            f"{self.feature.value}="
            f"{format_feature_value(self.feature, self.value, anonymize)}"
        )

    def matches(self, flow: FlowRecord) -> bool:
        """True when the flow carries this feature value."""
        return feature_value(flow, self.feature) == self.value

    def mask(self, table: FlowTable) -> np.ndarray:
        """Boolean mask of the table rows carrying this feature value."""
        return table.feature_column(self.feature) == self.value


class Itemset:
    """An immutable set of items with at most one item per feature."""

    __slots__ = ("_items", "_by_feature", "_hash")

    def __init__(self, items: Iterable[Item]) -> None:
        ordered = tuple(sorted(set(items)))
        if not ordered:
            raise MiningError("an itemset needs at least one item")
        by_feature: dict[FlowFeature, int] = {}
        for item in ordered:
            if item.feature in by_feature:
                raise MiningError(
                    f"duplicate feature {item.feature.value} in itemset"
                )
            by_feature[item.feature] = item.value
        self._items = ordered
        self._by_feature = by_feature
        self._hash = hash(ordered)

    @classmethod
    def _from_sorted(cls, items: tuple[Item, ...]) -> "Itemset":
        """An itemset of ``items`` as given, unchecked: the caller
        guarantees a non-empty tuple in item order with one item per
        feature (the mining kernel's id lists are so by construction)."""
        itemset = object.__new__(cls)
        itemset._items = items
        itemset._by_feature = {item.feature: item.value for item in items}
        itemset._hash = hash(items)
        return itemset

    # -- container protocol ------------------------------------------------

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Item) -> bool:
        return self._by_feature.get(item.feature) == item.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Itemset):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Itemset({{{', '.join(i.render() for i in self._items)}}})"

    # -- set relations ------------------------------------------------------

    @property
    def items(self) -> tuple[Item, ...]:
        """The items, sorted by feature order then value."""
        return self._items

    def value_of(self, feature: FlowFeature) -> int | None:
        """Value of ``feature`` in the itemset, or ``None`` (wildcard)."""
        return self._by_feature.get(feature)

    def issubset(self, other: "Itemset") -> bool:
        """True when every item of self appears in ``other``."""
        if len(self) > len(other):
            return False
        return all(item in other for item in self._items)

    def union(self, other: "Itemset") -> "Itemset":
        """Union of two itemsets (features must not conflict)."""
        return Itemset(self._items + other._items)

    def compatible_with(self, other: "Itemset") -> bool:
        """True when the two itemsets agree on every shared feature."""
        for feature, value in self._by_feature.items():
            other_value = other.value_of(feature)
            if other_value is not None and other_value != value:
                return False
        return True

    # -- flow matching ---------------------------------------------------------

    def matches(self, flow: FlowRecord) -> bool:
        """True when the flow carries every item of the itemset."""
        return all(
            feature_value(flow, feature) == value
            for feature, value in self._by_feature.items()
        )

    def mask(self, table: FlowTable) -> np.ndarray:
        """Boolean mask of the table rows carrying every item.

        The columnar equivalent of :meth:`matches`; candidate filtering
        and flow-set intersection in the extraction layer run on these
        masks and row-index arrays instead of per-flow loops.
        """
        result = np.ones(len(table), dtype=bool)
        for feature, value in self._by_feature.items():
            result &= table.feature_column(feature) == value
        return result

    # -- rendering ---------------------------------------------------------------

    def render(self, anonymize: bool = False) -> str:
        """``{srcIP=..., dstPort=...}`` text form."""
        return "{" + ", ".join(
            item.render(anonymize) for item in self._items
        ) + "}"

    def render_row(
        self,
        features: tuple[FlowFeature, ...] = FLOW_FEATURES,
        anonymize: bool = False,
    ) -> tuple[str, ...]:
        """Row of per-feature cells with ``*`` wildcards (Table 1 style)."""
        cells = []
        for feature in features:
            value = self.value_of(feature)
            if value is None:
                cells.append("*")
            else:
                cells.append(
                    format_feature_value(feature, value, anonymize)
                )
        return tuple(cells)


@dataclass(frozen=True, slots=True)
class ItemsetSupport:
    """An itemset with its dual support counts.

    ``flows`` is the classic transaction support; ``packets`` the
    packet-weighted support introduced by the extended Apriori ([5]).
    """

    itemset: Itemset
    flows: int
    packets: int
    bytes: int = 0

    def __post_init__(self) -> None:
        if self.flows < 0 or self.packets < 0 or self.bytes < 0:
            raise MiningError("support counts must be non-negative")

    def flow_share(self, total_flows: int) -> float:
        """Relative flow support."""
        return self.flows / total_flows if total_flows else 0.0

    def packet_share(self, total_packets: int) -> float:
        """Relative packet support."""
        return self.packets / total_packets if total_packets else 0.0

    def render(self, anonymize: bool = False) -> str:
        """One-line summary with both supports."""
        return (
            f"{self.itemset.render(anonymize)} "
            f"[{self.flows} flows, {self.packets} packets]"
        )


def itemset_from_signature(
    signature_items: Mapping[FlowFeature, int]
) -> Itemset:
    """Build an :class:`Itemset` from a ground-truth signature mapping."""
    return Itemset(
        Item(feature, value) for feature, value in signature_items.items()
    )
