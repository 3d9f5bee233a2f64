"""Query planning over an archive: pushdown, fan-out, the plan.

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
* **Parallel scans** — when payloads *must* be read and the reader
  holds a :class:`~repro.parallel.executor.ShardExecutor`, per-
  partition scan tasks fan out as ``(path, rows, window, filter,
  sorted)`` tuples: each worker opens the partition's mmap directly,
  takes the query's rows through :func:`window_rows` — the one cut,
  in-process or not — and returns a tiny aggregate, so zero row bytes
  cross the pool in either direction.
* :class:`QueryPlan` — what the last query decided, partition by
  partition class: pruned, answered from sidecars, or scanned.
  ``repro archive query --explain`` renders it.

The planner is an *optimizer*, never an oracle: every pushdown path
has a row-scan fallback producing identical bytes. Every partition
written since the ``.idx`` sidecar carries its feature index; only a
legacy partition whose optional ``.fidx.json`` is missing or
unreadable disqualifies the pushdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.archive.index import ZONE_COLUMNS
from repro.archive.partition import open_rows
from repro.flows.aggregate import value_histogram
from repro.flows.filter import FilterNode
from repro.flows.record import FLOW_FEATURES, FlowFeature
from repro.flows.table import FlowTable

__all__ = ["QueryPlan", "feature_column"]

#: ``ZONE_COLUMNS`` leads with the five mining features, in
#: :data:`~repro.flows.record.FLOW_FEATURES` order.
_COLUMN_OF_FEATURE: dict[FlowFeature, str] = dict(
    zip(FLOW_FEATURES, ZONE_COLUMNS)
)


def feature_column(feature: FlowFeature) -> str:
    """Table column backing one mining feature (always indexed)."""
    return _COLUMN_OF_FEATURE[feature]


# -- the window cut and the worker-side scan tasks -----------------------------

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


def scan_count_task(
    path: str,
    rows: int,
    start: float,
    end: float,
    node: FilterNode | None,
    ordered: bool,
) -> tuple[int, int, int, float, float] | None:
    """Aggregate one partition: ``(flows, packets, bytes, lo, hi)``.

    Runs on a worker: opens the partition mmap directly (no rows cross
    the pool inbound) and returns five numbers (none cross outbound).
    """
    return count_rows(open_rows(path, rows), start, end, node, ordered)


def scan_histogram_task(
    path: str,
    rows: int,
    start: float,
    end: float,
    node: FilterNode | None,
    ordered: bool,
    column: str,
    by_packets: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """One partition's ``(values, counts)`` histogram after the cut.

    The worker reduction behind the top-N fallback: whole rows stay in
    the worker; only the (much smaller) histogram returns.
    """
    return histogram_rows(
        open_rows(path, rows), start, end, node, ordered, column, by_packets
    )


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
    #: Scan tasks fanned out over the executor (0 = in-process).
    parallel_tasks: int = 0

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
        if self.parallel_tasks:
            lines.append(
                f"  parallel tasks:  {self.parallel_tasks} "
                f"(workers mmap partitions directly)"
            )
        return "\n".join(lines)
