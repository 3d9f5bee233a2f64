"""False-positive itemset filters.

Raw frequent itemsets over flow traffic are dominated by two kinds of
noise the paper's system deals with before showing anything to an
operator:

* **Redundancy** — every sub-combination of a real phenomenon is itself
  frequent ({srcIP,dstIP}, {srcIP}, {dstIP}, ...). The *dominance
  filter* keeps one representative per phenomenon: an itemset is dropped
  when a kept itemset related to it by inclusion explains (almost) all
  of its support.
* **Popular values** — {dstPort=80}, {proto=TCP} and friends are
  frequent in *any* interval. The *baseline filter* compares each
  itemset's support share in the alarm interval against a reference
  (pre-alarm) window and keeps only itemsets whose share grew by a
  meaningful factor. The paper notes such false positives "can be
  trivially filtered out by an administrator"; the deployed system does
  it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExtractionError
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.mining.items import ItemsetSupport

__all__ = [
    "BaselineStats",
    "dominance_filter",
    "decompose_parents",
    "baseline_shares",
    "baseline_filter",
]


def dominance_filter(
    supports: list[ItemsetSupport],
    dominance: float = 1.25,
) -> list[ItemsetSupport]:
    """Collapse inclusion-related itemsets onto their most *specific*
    high-support representative.

    Itemsets are visited in the caller's ranking order (best first).
    For a later candidate ``C`` against an already-kept itemset ``K``:

    * ``K ⊆ C`` with ``K``'s support within ``dominance ×`` of ``C``'s
      on both measures — ``C`` refines ``K`` while keeping its mass, so
      ``C`` **replaces** ``K`` (Table 1 reports
      ``{srcIP, dstIP, srcPort, proto}``, never ``{proto=TCP}``);
    * ``C ⊆ K`` with ``C``'s support within ``dominance ×`` of ``K``'s —
      the kept, more specific ``K`` already explains ``C``: drop ``C``;
    * ``C`` has flow support 1 and some kept ``K ⊆ C`` — ``C`` is a raw
      flow already covered by a kept pattern (the per-flow refinements
      of a point-to-point flood): drop ``C``. Single-flow itemsets with
      no kept parent survive; for heavily sampled point-to-point floods
      they can be the only evidence.

    Anything else survives: a subset whose support meaningfully exceeds
    its refinements' covers other traffic and is a separate (possibly
    umbrella) phenomenon — :func:`decompose_parents` handles those.
    """
    if dominance < 1.0:
        raise ExtractionError(f"dominance must be >= 1: {dominance!r}")
    kept: list[ItemsetSupport] = []
    for candidate in supports:
        skip = False
        replace_index: int | None = None
        for index, existing in enumerate(kept):
            if existing.itemset.issubset(candidate.itemset):
                refines = (
                    existing.flows <= dominance * candidate.flows
                    and existing.packets <= dominance * candidate.packets
                )
                if refines:
                    replace_index = index
                    break
                if candidate.flows == 1:
                    skip = True  # raw flow under a kept pattern
                    break
            elif candidate.itemset.issubset(existing.itemset):
                explained = (
                    candidate.flows <= dominance * existing.flows
                    and candidate.packets <= dominance * existing.packets
                )
                if explained:
                    skip = True
                    break
        if replace_index is not None:
            kept[replace_index] = candidate
        elif not skip:
            kept.append(candidate)
    return kept


def _parent_coverage(
    parent: ItemsetSupport,
    refinements: list,
    flows: FlowTable,
) -> tuple[int, int, int, int]:
    """Exact (parent_flows, parent_packets, covered_flows,
    covered_packets) of a parent against its refinements."""
    parent_mask = parent.itemset.mask(flows)
    parent_flows = int(parent_mask.sum())
    if parent_flows == 0:
        return 0, 0, 0, 0
    packets = flows.packets
    parent_packets = int(packets[parent_mask].sum())
    union = np.zeros(len(flows), dtype=bool)
    for refinement in refinements:
        union |= refinement.mask(flows)
    covered = parent_mask & union
    return (
        parent_flows,
        parent_packets,
        int(covered.sum()),
        int(packets[covered].sum()),
    )


def decompose_parents(
    supports: list[ItemsetSupport],
    flows: "list[FlowRecord] | FlowTable",
    coverage: float = 0.95,
) -> list[ItemsetSupport]:
    """Drop umbrella itemsets explained by their kept refinements.

    After greedy dominance filtering, a general itemset like
    ``{dstIP=victim}`` can survive because no *single* refinement
    explains it — yet the union of refinements (two scanners plus two
    DDoS in the paper's Table 1) does. For each itemset that has proper
    refinements in the collection, this pass counts — exactly, against
    the candidate flows — how much of its flow and packet support the
    refinements jointly cover, and drops it when both measures are
    covered at least ``coverage``. Overlapping refinements are not
    double-counted.

    Only refinements with flow support of at least 2 count as covering
    structure: single-flow refinements are raw flows, and a parent
    pattern must never be dissolved into a flow listing (the
    point-to-point-flood case).
    """
    if not 0 < coverage <= 1:
        raise ExtractionError(f"coverage must lie in (0, 1]: {coverage!r}")
    flows = FlowTable.from_records(flows)
    kept = list(supports)
    dropped = True
    while dropped:
        dropped = False
        for index, parent in enumerate(kept):
            refinements = [
                other.itemset
                for other in kept
                if other is not parent
                and other.flows >= 2
                and parent.itemset.issubset(other.itemset)
                and len(other.itemset) > len(parent.itemset)
            ]
            if not refinements:
                continue
            (parent_flows, parent_packets, covered_flows,
             covered_packets) = _parent_coverage(parent, refinements, flows)
            if parent_flows == 0:
                continue
            flow_cover = covered_flows / parent_flows
            packet_cover = (
                covered_packets / parent_packets if parent_packets else 1.0
            )
            if flow_cover >= coverage and packet_cover >= coverage:
                del kept[index]
                dropped = True
                break
    return kept


@dataclass(frozen=True, slots=True)
class BaselineStats:
    """Support shares of one itemset in the baseline window."""

    flow_share: float
    packet_share: float


def baseline_shares(
    supports: list[ItemsetSupport],
    baseline_flows: "list[FlowRecord] | FlowTable",
) -> dict[int, BaselineStats]:
    """Measure each itemset's share in the baseline window.

    Returns a mapping from the index of the itemset in ``supports`` to
    its baseline stats; each itemset counts via one boolean mask.
    """
    baseline_flows = FlowTable.from_records(baseline_flows)
    stats: dict[int, BaselineStats] = {}
    total_flows = len(baseline_flows)
    total_packets = baseline_flows.total_packets()
    packets = baseline_flows.packets
    for index, support in enumerate(supports):
        mask = support.itemset.mask(baseline_flows)
        matched_flows = int(mask.sum())
        matched_packets = int(packets[mask].sum())
        stats[index] = BaselineStats(
            flow_share=matched_flows / total_flows if total_flows else 0.0,
            packet_share=(
                matched_packets / total_packets if total_packets else 0.0
            ),
        )
    return stats


def baseline_filter(
    supports: list[ItemsetSupport],
    baseline_flows: "list[FlowRecord] | FlowTable",
    total_flows: int,
    total_packets: int,
    min_lift: float = 3.0,
    stats: dict[int, BaselineStats] | None = None,
) -> list[ItemsetSupport]:
    """Drop itemsets whose support share is normal for this network.

    An itemset survives when, on at least one measure, its share in the
    alarm window is at least ``min_lift`` times its share in the
    baseline window (never-seen-before itemsets trivially survive).
    With no baseline flows available the filter is a no-op — the
    operator then plays the administrator role of [1]. ``stats`` are
    the ``supports``' :func:`baseline_shares` when the caller already
    holds them; they are measured here otherwise.
    """
    if min_lift <= 1.0:
        raise ExtractionError(f"min_lift must exceed 1: {min_lift!r}")
    if not baseline_flows:
        return list(supports)
    if stats is None:
        stats = baseline_shares(supports, baseline_flows)
    kept = []
    for index, support in enumerate(supports):
        flow_share = support.flow_share(total_flows)
        packet_share = support.packet_share(total_packets)
        base = stats[index]
        flow_lift = (
            flow_share / base.flow_share if base.flow_share > 0 else None
        )
        packet_lift = (
            packet_share / base.packet_share
            if base.packet_share > 0
            else None
        )
        novel = base.flow_share == 0 and base.packet_share == 0
        lifted = (
            (flow_lift is not None and flow_lift >= min_lift)
            or (packet_lift is not None and packet_lift >= min_lift)
        )
        if novel or lifted:
            kept.append(support)
    return kept
