"""Query planning over an archive: pushdown, the cut, the plan.

This module is the brain behind
:class:`~repro.archive.reader.ArchiveReader`'s aggregate queries:

* **Pushdown** — ``count`` answers from zone-map sums and
  ``top_feature_values`` from merged
  :class:`~repro.archive.index.FeatureIndex` histograms whenever the
  query's window covers the candidate partitions and no row-level
  filter applies. Histogram merging
  (:func:`~repro.flows.aggregate.merge_histograms`) is integer
  addition over sorted value arrays, so the pushed-down ranking is
  byte-identical to scanning the rows (the equivalence suite asserts
  it).
* **The cut** — when payloads *must* be read, :func:`window_rows`
  takes a partition's rows in the query's window and filter (by
  bisection when the partition is sorted), and :func:`count_rows` /
  :func:`histogram_rows` reduce them to a tiny aggregate.
* :class:`PartitionCatalogue` — every servable partition's zone-map
  bounds and sums as arrays, so the time cut, the covered test and
  the stats pushdown are a few vectorised operations whatever the
  archive's partition count.
* :class:`QueryPlan` — what the last query decided, partition by
  partition class: pruned, answered from sidecars, or scanned.
  ``repro archive query --explain`` renders it.

The planner is an *optimizer*, never an oracle: every pushdown path
has a row-scan twin producing identical bytes, taken when a filter
applies or the window cuts a partition. Every servable partition
carries its feature index, so the index itself never decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.archive.index import ZONE_COLUMNS, ZoneMap
from repro.flows.aggregate import value_histogram
from repro.flows.filter import FilterNode
from repro.flows.record import FLOW_FEATURES, FlowFeature
from repro.flows.table import FlowTable

__all__ = ["PartitionCatalogue", "QueryPlan", "feature_column"]

#: ``ZONE_COLUMNS`` leads with the five mining features, in
#: :data:`~repro.flows.record.FLOW_FEATURES` order.
_COLUMN_OF_FEATURE: dict[FlowFeature, str] = dict(
    zip(FLOW_FEATURES, ZONE_COLUMNS)
)


def feature_column(feature: FlowFeature) -> str:
    """Table column backing one mining feature (always indexed)."""
    return _COLUMN_OF_FEATURE[feature]


# -- the catalogue -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PartitionCatalogue:
    """Zone-map bounds and sums of an archive's partitions, one array
    entry per partition in canonical scan order.

    Built once per directory rescan. Every test it answers reads zone
    bounds, never file names, so it is sound for any partition the
    reader admits, whatever its slice.
    """

    min_start: np.ndarray
    max_start: np.ndarray
    max_end: np.ndarray
    #: ``(rows, sum_packets, sum_bytes)`` per partition, int64 like
    #: the row sums a zone map stores; a total over partitions would
    #: wrap only past 2**63 packets or bytes.
    sums: np.ndarray

    @classmethod
    def of(cls, zones: Sequence[ZoneMap]) -> "PartitionCatalogue":
        def column(name: str) -> np.ndarray:
            return np.fromiter(
                (getattr(zone, name) for zone in zones),
                np.float64,
                len(zones),
            )

        return cls(
            min_start=column("min_start"),
            max_start=column("max_start"),
            max_end=column("max_end"),
            sums=np.array(
                [(z.rows, z.sum_packets, z.sum_bytes) for z in zones],
                dtype=np.int64,
            ).reshape(len(zones), 3),
        )

    @property
    def rows(self) -> np.ndarray:
        return self.sums[:, 0]

    def overlapping(self, start: float, end: float) -> np.ndarray:
        """Positions of the partitions a row starting in ``[start,
        end)`` may come from (:meth:`ZoneMap.overlaps_window`)."""
        return ((self.max_start >= start) & (self.min_start < end)) \
            .nonzero()[0]

    def covered(
        self, positions: np.ndarray, start: float, end: float
    ) -> np.ndarray:
        """Per position: do all its rows start inside ``[start, end)``?
        (:meth:`ZoneMap.covered_by_window`)"""
        return (self.min_start[positions] >= start) \
            & (self.max_start[positions] < end)

    def totals(
        self, positions: np.ndarray
    ) -> tuple[int, int, int, float, float] | None:
        """``(flows, packets, bytes, lo, hi)`` of whole partitions,
        from their zone maps alone: :func:`count_rows`' answer."""
        if not len(positions):
            return None
        flows, packets, total_bytes = self.sums[positions].sum(0).tolist()
        return (
            flows,
            packets,
            total_bytes,
            min(self.min_start[positions].tolist()),
            max(self.max_end[positions].tolist()),
        )


# -- the window cut ------------------------------------------------------------

def window_rows(
    table: FlowTable,
    start: float,
    end: float,
    node: FilterNode | None,
    ordered: bool,
) -> FlowTable:
    """The rows of one partition ``table`` that start in ``[start,
    end)`` and pass ``node``, in table order — the one cut behind row
    queries, counts and histograms.

    ``ordered`` is the partition's ``zone.sorted``: the window is then
    two bisections and a zero-copy slice (the whole table, when the
    window covers it) and the filter mask runs over that slice only.
    A partition written out of order pays a predicate over every row.
    """
    if ordered:
        lo, hi = np.searchsorted(table.start, (start, end))
        table = table.select(slice(lo, hi))
        if node is None:
            return table
        mask = node.mask(table)
    else:
        starts = table.start
        mask = (starts >= start) & (starts < end)
        if node is not None:
            mask &= node.mask(table)
    return table if mask.all() else table.select(mask)


def count_rows(
    table: FlowTable,
    start: float,
    end: float,
    node: FilterNode | None,
    ordered: bool,
) -> tuple[int, int, int, float, float] | None:
    """``(flows, packets, bytes, lo, hi)`` of one table's matching rows."""
    selected = window_rows(table, start, end, node, ordered)
    if not len(selected):
        return None
    return (
        len(selected),
        selected.total_packets(),
        selected.total_bytes(),
        float(selected.start.min()),
        float(selected.end.max()),
    )


def histogram_rows(
    table: FlowTable,
    start: float,
    end: float,
    node: FilterNode | None,
    ordered: bool,
    column: str,
    by_packets: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, counts)`` of one table's matching rows."""
    selected = window_rows(table, start, end, node, ordered)
    values, *counts = value_histogram(
        selected.column(column),
        *((selected.packets,) if by_packets else ()),
    )
    return values, counts[-1]


# -- the plan ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QueryPlan:
    """What the planner decided for one query — ``--explain``'s body."""

    #: Which query surface ran: ``rows`` / ``count`` / ``top``.
    query: str
    partitions: int
    pruned_time: int
    pruned_filter: int
    #: Partitions answered entirely from sidecar metadata.
    sidecar_answered: int
    #: Partitions whose payload was actually read.
    scanned: int
    payload_bytes_read: int
    #: ``zone-map-stats`` / ``feature-index`` when an aggregate was
    #: answered without payload reads; ``None`` for row scans.
    pushdown: str | None = None

    @property
    def pruned(self) -> int:
        return self.pruned_time + self.pruned_filter

    def render(self) -> str:
        """Human-readable plan, one decision per line."""
        lines = [
            f"plan: {self.query}",
            f"  partitions:      {self.partitions}",
            f"  pruned:          {self.pruned} "
            f"({self.pruned_time} by time, "
            f"{self.pruned_filter} by zone map)",
            f"  sidecar answers: {self.sidecar_answered}",
            f"  payload scans:   {self.scanned} "
            f"({self.payload_bytes_read:,} bytes read)",
        ]
        if self.pushdown:
            lines.append(f"  pushdown:        {self.pushdown}")
        return "\n".join(lines)
