"""Candidate-flow selection from alarm meta-data.

Step 1 of the paper's technique: "a detector raises an alarm for a time
interval and identifies related meta-data, such as affected IP addresses
or port numbers: this provides a set of candidate anomalous flows."

The candidate set is the **union** of flows matching any meta-data hint
within the alarm interval — deliberately generous, because the hints may
be incomplete: in Table 1 the detector implicated a single scanner, yet
the union over ``dstIP`` pulled in the second scanner's and both DDoS
streams' flows, letting the mining step surface them.

When an alarm carries no usable meta-data (or the union is too small to
mine), selection widens to the whole interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExtractionError
from repro.detect.base import Alarm
from repro.flows.filter import (
    Direction,
    FilterNode,
    IpMatch,
    MatchAny,
    Or,
    PortMatch,
    ProtoMatch,
)
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable

__all__ = ["CandidateSelection", "metadata_filter", "select_candidates"]

_DIRECTION_BY_FEATURE = {
    FlowFeature.SRC_IP: Direction.SRC,
    FlowFeature.DST_IP: Direction.DST,
    FlowFeature.SRC_PORT: Direction.SRC,
    FlowFeature.DST_PORT: Direction.DST,
}


@dataclass
class CandidateSelection:
    """The candidate flows plus how they were selected.

    ``flows`` is always a :class:`FlowTable`: a selection built by
    hand from a record list is tabulated once, here.
    """

    flows: FlowTable
    filter_node: FilterNode | None
    used_metadata: bool
    interval_flow_count: int

    def __post_init__(self) -> None:
        self.flows = FlowTable.from_records(self.flows)

    @property
    def reduction(self) -> float:
        """Fraction of interval flows eliminated by the pre-filter."""
        if self.interval_flow_count == 0:
            return 0.0
        return 1.0 - len(self.flows) / self.interval_flow_count


def metadata_filter(alarm: Alarm) -> FilterNode | None:
    """Build the union filter over an alarm's meta-data hints.

    Each hint becomes a directional primitive (``src ip A``,
    ``dst port N``, ``proto P``); the union ORs them together. Returns
    ``None`` when the alarm has no hints.
    """
    primitives: list[FilterNode] = []
    for item in alarm.metadata:
        if item.feature is FlowFeature.PROTO:
            primitives.append(ProtoMatch(item.value))
        elif item.feature in (FlowFeature.SRC_IP, FlowFeature.DST_IP):
            primitives.append(
                IpMatch(
                    _DIRECTION_BY_FEATURE[item.feature],
                    frozenset([item.value]),
                )
            )
        elif item.feature in (FlowFeature.SRC_PORT, FlowFeature.DST_PORT):
            primitives.append(
                PortMatch(
                    _DIRECTION_BY_FEATURE[item.feature],
                    frozenset([item.value]),
                )
            )
        else:  # pragma: no cover - exhaustive over FlowFeature
            raise ExtractionError(f"unhandled feature {item.feature!r}")
    if not primitives:
        return None
    if len(primitives) == 1:
        return primitives[0]
    return Or(tuple(primitives))


def select_candidates(
    interval_flows: "list[FlowRecord] | FlowTable",
    alarm: Alarm,
    min_candidates: int = 50,
    use_metadata: bool = True,
) -> CandidateSelection:
    """Select candidate anomalous flows for one alarm.

    ``interval_flows`` are the flows of the alarm interval (the caller
    queries the store); records are tabulated once, here, and the
    union filter runs as a mask. With usable meta-data, the union
    filter is applied; if it matches fewer than ``min_candidates``
    flows — the hints may be stale or wrong — selection falls back to
    the whole interval, mirroring the GUI's "tune the extraction
    parameters" loop.
    """
    if min_candidates < 0:
        raise ExtractionError(
            f"min_candidates must be non-negative: {min_candidates!r}"
        )
    interval_flows = FlowTable.from_records(interval_flows)
    node = metadata_filter(alarm) if use_metadata else None
    if node is not None:
        matched = interval_flows.select(node.mask(interval_flows))
        if len(matched) >= min_candidates:
            return CandidateSelection(
                flows=matched,
                filter_node=node,
                used_metadata=True,
                interval_flow_count=len(interval_flows),
            )
    return CandidateSelection(
        flows=interval_flows,
        filter_node=MatchAny(),
        used_metadata=False,
        interval_flow_count=len(interval_flows),
    )
