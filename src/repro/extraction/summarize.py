"""Itemset summarization: union exploration and tabular rows.

The demo GUI "selects flows with a large support in terms of flows or
packets and tries all possible combinations of their union":
:func:`explore_unions` merges compatible extracted itemsets and measures
the merged itemsets' support, surfacing phenomena that only become
visible once two partial views are combined (e.g. a scanner whose probe
flows were split across two meta-data hints).

:func:`table_rows` renders extraction results in the exact shape of the
paper's Table 1 — one row per itemset, ``*`` wildcards, and a support
column — for the operator console and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.extraction.extractor import ExtractionReport
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.mining.items import Itemset, ItemsetSupport

__all__ = ["UnionFinding", "explore_unions", "table_rows", "format_count"]


@dataclass(frozen=True, slots=True)
class UnionFinding:
    """A merged itemset and the share of its parents' support it keeps."""

    union: Itemset
    left: Itemset
    right: Itemset
    support: ItemsetSupport
    retention: float


def explore_unions(
    supports: list[ItemsetSupport],
    flows: "list[FlowRecord] | FlowTable",
    min_retention: float = 0.5,
    max_pairs: int = 200,
) -> list[UnionFinding]:
    """Try unions of all compatible itemset pairs and measure them.

    A union is reported when it retains at least ``min_retention`` of
    the *smaller* parent's flow support — i.e. the two parents largely
    describe the same flows and merge into one stronger phenomenon.
    ``max_pairs`` caps the quadratic pair exploration. Records are
    tabulated once, here; each union counts via one mask.
    """
    flows = FlowTable.from_records(flows)
    findings = []
    pairs = 0
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if pairs >= max_pairs:
                return findings
            pairs += 1
            left = supports[i].itemset
            right = supports[j].itemset
            if not left.compatible_with(right):
                continue
            union = left.union(right)
            if union == left or union == right:
                continue
            mask = union.mask(flows)
            matched_flows = int(mask.sum())
            smaller = min(supports[i].flows, supports[j].flows)
            retention = matched_flows / smaller if smaller else 0.0
            if matched_flows and retention >= min_retention:
                findings.append(
                    UnionFinding(
                        union=union,
                        left=left,
                        right=right,
                        support=ItemsetSupport(
                            itemset=union,
                            flows=matched_flows,
                            packets=int(flows.packets[mask].sum()),
                            bytes=int(flows.bytes[mask].sum()),
                        ),
                        retention=retention,
                    )
                )
    findings.sort(key=lambda f: -f.support.flows)
    return findings


def format_count(value: int) -> str:
    """Render a support count the way the paper's Table 1 does.

    >>> format_count(312590)
    '312.59K'
    >>> format_count(420)
    '420'
    """
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M"
    if value >= 1_000:
        return f"{value / 1_000:.2f}K"
    return str(value)


def table_rows(
    report: ExtractionReport,
    features: tuple[FlowFeature, ...] = FLOW_FEATURES,
    anonymize: bool = False,
) -> list[tuple[str, ...]]:
    """Table-1-style rows for a report: feature cells, #flows, #packets.

    The header row is included first.
    """
    header = tuple(f.value for f in features) + ("#flows", "#packets")
    rows = [header]
    for extracted in report.itemsets:
        support = extracted.scored.support
        cells = support.itemset.render_row(features, anonymize)
        rows.append(
            cells
            + (format_count(support.flows), format_count(support.packets))
        )
    return rows
