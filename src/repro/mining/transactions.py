"""Flow → transaction encoding for the mining engines.

Every flow is a transaction of (feature, value) items, interned to
dense integer ids ordered by (feature, value). A
:class:`TransactionSet` holds that encoding *column-wise*: one
factorisation per feature (:class:`ItemColumn`: the ascending distinct
``values`` and one dense ``code`` per flow) beside the table's packet
and byte columns. An item's id is its column's ``offset`` plus its
code, so ids sort items consistently across the whole set. Each
factorisation is one argsort of the feature column — numpy's radix
sort for the 2-byte port and protocol columns — and a cumulative sum
over the sorted run heads
(:func:`repro.flows.aggregate.factorise`).

The mining engine (:func:`repro.mining.apriori.mine_apriori`)
group-counts the code columns directly; no per-flow transaction is
ever built.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import MiningError
from repro.flows.aggregate import factorise
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.mining.items import Item, Itemset

__all__ = ["ItemColumn", "TransactionSet"]


class ItemColumn(NamedTuple):
    """One feature's items: id ``offset + code`` is ``values[code]``."""

    feature: FlowFeature
    offset: int
    values: np.ndarray
    codes: np.ndarray


class TransactionSet:
    """Column-encoded transactions with the item intern table.

    Build with :meth:`from_table` (or :meth:`from_flows` for records).
    The mining engines report supports in *flows* (number of
    transactions containing the itemset) and *packets* (sum of the
    packet weights of those transactions).
    """

    def __init__(
        self,
        features: tuple[FlowFeature, ...],
        columns: tuple[ItemColumn, ...],
        table: FlowTable,
    ) -> None:
        self.features = features
        #: One :class:`ItemColumn` per feature, in ``FLOW_FEATURES``
        #: order (the id order), whatever order ``features`` came in.
        self.columns = columns
        self.packets = table.packets
        self.bytes = table.bytes
        self.total_flows = len(table)
        self.total_packets = table.total_packets()
        self.total_bytes = table.total_bytes()

    # -- construction ------------------------------------------------------

    @staticmethod
    def _check_features(features: tuple[FlowFeature, ...]) -> None:
        if not features:
            raise MiningError("at least one feature is required")
        seen = set()
        for feature in features:
            if feature in seen:
                raise MiningError(f"duplicate feature {feature.value}")
            seen.add(feature)

    @classmethod
    def from_flows(
        cls,
        flows: Iterable[FlowRecord] | FlowTable,
        features: tuple[FlowFeature, ...] = FLOW_FEATURES,
    ) -> "TransactionSet":
        """Encode flow records: :meth:`from_table` over their table."""
        return cls.from_table(FlowTable.from_records(flows), features)

    @classmethod
    def from_table(
        cls,
        table: FlowTable,
        features: tuple[FlowFeature, ...] = FLOW_FEATURES,
    ) -> "TransactionSet":
        """Encode a flow table over the chosen features (default: all
        five): one sort factorisation per feature column
        (:func:`~repro.flows.aggregate.factorise`), nothing per flow."""
        cls._check_features(features)
        columns = []
        offset = 0
        for feature in sorted(features, key=FLOW_FEATURES.index):
            values, codes = factorise(table.feature_column(feature))
            columns.append(ItemColumn(feature, offset, values, codes))
            offset += len(values)
        return cls(tuple(features), tuple(columns), table)

    # -- access ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.total_flows

    def __bool__(self) -> bool:
        return self.total_flows > 0

    @property
    def item_count(self) -> int:
        """Number of distinct items."""
        last = self.columns[-1]
        return last.offset + len(last.values)

    def _column_of(self, item_id: int) -> ItemColumn:
        if not 0 <= item_id < self.item_count:
            raise IndexError(f"item id {item_id!r} out of range")
        return next(
            c for c in reversed(self.columns) if c.offset <= item_id
        )

    def item(self, item_id: int) -> Item:
        """Decode an item id."""
        column = self._column_of(item_id)
        return Item(
            column.feature, int(column.values[item_id - column.offset])
        )

    def feature_of(self, item_id: int) -> FlowFeature:
        """Feature of an item id."""
        return self._column_of(item_id).feature

    def decode(self, item_ids: Sequence[int]) -> Itemset:
        """Decode a tuple of item ids into an :class:`Itemset`."""
        return Itemset(self.item(item_id) for item_id in item_ids)

    # -- thresholds --------------------------------------------------------------

    def absolute_thresholds(
        self,
        min_flow_share: float | None,
        min_packet_share: float | None,
        floor_flows: int = 1,
        floor_packets: int = 1,
    ) -> tuple[int | None, int | None]:
        """Convert relative supports to absolute counts.

        ``None`` disables the corresponding measure. Floors keep the
        thresholds meaningful on tiny candidate sets.
        """
        min_flows: int | None = None
        min_packets: int | None = None
        if min_flow_share is not None:
            if not 0 < min_flow_share <= 1:
                raise MiningError(
                    f"min_flow_share must lie in (0, 1]: {min_flow_share!r}"
                )
            min_flows = max(
                floor_flows, int(round(min_flow_share * self.total_flows))
            )
        if min_packet_share is not None:
            if not 0 < min_packet_share <= 1:
                raise MiningError(
                    f"min_packet_share must lie in (0, 1]: "
                    f"{min_packet_share!r}"
                )
            min_packets = max(
                floor_packets,
                int(round(min_packet_share * self.total_packets)),
            )
        return min_flows, min_packets
