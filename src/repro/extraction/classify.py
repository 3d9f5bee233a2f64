"""Heuristic classification of extracted itemsets.

Once an itemset and its matching flows are in hand, a security engineer
recognises the anomaly class at a glance: a fixed source sweeping
destination ports is a port scan; thousands of sources hammering one
``(dstIP, dstPort)`` with bare SYNs is a DDoS; one source-destination
pair moving millions of UDP packets is a point-to-point flood. This
module encodes those glances as explicit rules over the itemset shape
and the matched flows' cardinalities, flags and volume profile, so the
console can annotate Table-1-style rows the way the paper's narrative
does ("the 3rd and 4th were two simultaneous DDoS on port 80").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.aggregate import distinct_counts
from repro.flows.record import FlowFeature, FlowRecord, Protocol, TcpFlags
from repro.flows.table import FlowTable
from repro.mining.items import Itemset
from repro.taxonomy import AnomalyKind

__all__ = ["Classification", "classify_itemset"]

#: Minimum fraction of matched TCP flows that must be bare-SYN for the
#: SYN-flood rules.
_SYN_FRACTION = 0.8
#: Packets per flow above which a point-to-point stream counts as a flood.
_FLOOD_PACKETS_PER_FLOW = 1_000
#: Bytes per flow above which a transfer counts as an alpha flow.
_ALPHA_BYTES_PER_FLOW = 1_000_000
#: Distinct values needed to call a feature "swept" by a scan.
_SWEEP_CARDINALITY = 50


@dataclass(frozen=True, slots=True)
class Classification:
    """A class guess with its supporting rationale."""

    kind: AnomalyKind
    confidence: float
    rationale: str


def _syn_fraction(flows: FlowTable) -> float:
    tcp = flows.proto == int(Protocol.TCP)
    tcp_count = int(tcp.sum())
    if tcp_count == 0:
        return 0.0
    tcp_flags = flows.tcp_flags
    bare_syn = (
        tcp
        & ((tcp_flags & np.uint16(TcpFlags.SYN)) != 0)
        & ((tcp_flags & np.uint16(TcpFlags.ACK)) == 0)
    )
    return int(bare_syn.sum()) / tcp_count


def classify_itemset(
    itemset: Itemset, flows: "list[FlowRecord] | FlowTable"
) -> Classification:
    """Guess the anomaly class of ``itemset`` from its matched flows.

    The rules fire in specificity order; the first match wins. An empty
    flow set yields UNKNOWN at zero confidence. Records are tabulated
    once, here; the cardinalities, volume profile and SYN fraction are
    column reductions.
    """
    flows = FlowTable.from_records(flows)
    if not flows:
        return Classification(
            AnomalyKind.UNKNOWN, 0.0, "no matching flows to classify"
        )
    counts = distinct_counts(flows)
    flow_count = len(flows)
    packets_per_flow = flows.total_packets() / flow_count
    bytes_per_flow = flows.total_bytes() / flow_count
    syn_fraction = _syn_fraction(flows)

    has_src_ip = itemset.value_of(FlowFeature.SRC_IP) is not None
    has_dst_ip = itemset.value_of(FlowFeature.DST_IP) is not None
    has_dst_port = itemset.value_of(FlowFeature.DST_PORT) is not None
    src_port_value = itemset.value_of(FlowFeature.SRC_PORT)
    proto_value = itemset.value_of(FlowFeature.PROTO)

    sweeps_dst_ports = (
        counts[FlowFeature.DST_PORT] >= _SWEEP_CARDINALITY
        and not has_dst_port
    )
    sweeps_dst_ips = (
        counts[FlowFeature.DST_IP] >= _SWEEP_CARDINALITY and not has_dst_ip
    )
    many_sources = (
        counts[FlowFeature.SRC_IP] >= _SWEEP_CARDINALITY and not has_src_ip
    )

    # Port scan: fixed source and target, destination ports swept,
    # tiny probe flows.
    if has_src_ip and has_dst_ip and sweeps_dst_ports \
            and packets_per_flow <= 5:
        return Classification(
            AnomalyKind.PORT_SCAN,
            0.9,
            f"one src/dst pair probing {counts[FlowFeature.DST_PORT]} "
            f"distinct ports with {packets_per_flow:.1f} packets/flow",
        )

    # Network scan: fixed source and service port, destinations swept.
    if has_src_ip and has_dst_port and sweeps_dst_ips \
            and packets_per_flow <= 5:
        return Classification(
            AnomalyKind.NETWORK_SCAN,
            0.9,
            f"one source probing {counts[FlowFeature.DST_IP]} distinct "
            f"hosts on a fixed port",
        )

    # Reflector: one victim, fixed *source* service port, many sources.
    if has_dst_ip and src_port_value is not None and many_sources \
            and proto_value == int(Protocol.UDP):
        return Classification(
            AnomalyKind.REFLECTOR,
            0.8,
            f"{counts[FlowFeature.SRC_IP]} sources answering from service "
            f"port {src_port_value} toward one victim",
        )

    # SYN flood / DDoS: one (dstIP, dstPort), many sources, bare SYNs.
    if has_dst_ip and has_dst_port and many_sources \
            and syn_fraction >= _SYN_FRACTION:
        return Classification(
            AnomalyKind.SYN_FLOOD,
            0.9,
            f"{counts[FlowFeature.SRC_IP]} sources sending "
            f"{syn_fraction:.0%} bare-SYN flows to one service",
        )

    # Point-to-point UDP flood: one src/dst pair, huge packet rate.
    if has_src_ip and has_dst_ip \
            and proto_value == int(Protocol.UDP) \
            and packets_per_flow >= _FLOOD_PACKETS_PER_FLOW:
        return Classification(
            AnomalyKind.UDP_FLOOD,
            0.9,
            f"point-to-point UDP stream at {packets_per_flow:.0f} "
            f"packets/flow over {flow_count} flows",
        )

    # Alpha flow: few flows, enormous byte volume, complete TCP sessions.
    if has_src_ip and has_dst_ip and flow_count <= 20 \
            and bytes_per_flow >= _ALPHA_BYTES_PER_FLOW:
        return Classification(
            AnomalyKind.ALPHA_FLOW,
            0.7,
            f"{flow_count} flows moving {bytes_per_flow / 1e6:.1f} "
            f"MB/flow between one host pair",
        )

    # Flash crowd: one service, many sources, full sessions (not SYN-only).
    if has_dst_ip and has_dst_port and many_sources \
            and syn_fraction < _SYN_FRACTION and packets_per_flow > 3:
        return Classification(
            AnomalyKind.FLASH_CROWD,
            0.6,
            f"{counts[FlowFeature.SRC_IP]} clients with complete sessions "
            f"toward one service",
        )

    return Classification(
        AnomalyKind.UNKNOWN,
        0.3,
        "no rule matched the itemset's traffic shape",
    )
