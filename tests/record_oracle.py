"""The per-flow bodies the table bodies replaced, kept as references.

Until the one-flow-collection refactor every operation between a trace
and a report carried a vectorised body and a per-flow Python body,
selected by ``isinstance(flows, FlowTable)``. The per-flow bodies are
gone from ``src/repro``; each one that is the only independent check of
its vectorised twin lives on here, unchanged apart from its name, so
the property suites (``test_table_equivalence.py``,
``test_columnar_triage.py``, ``test_flowtable.py``) still compare the
product code against a loop a reader can verify by eye.

Everything here takes ``FlowRecord`` iterables and touches one record
at a time; nothing imports the functions it checks.
"""

from __future__ import annotations

import struct
from collections import Counter

from repro.detect.entropy import sample_entropy
from repro.detect.features import BinFeatures
from repro.extraction.filtering import BaselineStats
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    Protocol,
    TcpFlags,
    feature_value,
)

_WEIGHTS = {
    "flows": lambda flow: 1,
    "packets": lambda flow: flow.packets,
    "bytes": lambda flow: flow.bytes,
}


# -- flows.aggregate ----------------------------------------------------------


def feature_histogram(flows, feature, weight="flows") -> Counter:
    weigh = _WEIGHTS[weight]
    histogram: Counter = Counter()
    for flow in flows:
        histogram[feature_value(flow, feature)] += weigh(flow)
    return histogram


def all_feature_histograms(flows, weight="flows"):
    weigh = _WEIGHTS[weight]
    histograms = {feature: Counter() for feature in FLOW_FEATURES}
    for flow in flows:
        amount = weigh(flow)
        histograms[FlowFeature.SRC_IP][flow.src_ip] += amount
        histograms[FlowFeature.DST_IP][flow.dst_ip] += amount
        histograms[FlowFeature.SRC_PORT][flow.src_port] += amount
        histograms[FlowFeature.DST_PORT][flow.dst_port] += amount
        histograms[FlowFeature.PROTO][flow.proto] += amount
    return histograms


def top_n(flows, feature, n=10, weight="flows"):
    histogram = feature_histogram(flows, feature, weight)
    return sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def ranked_from_histogram(values, counts, n):
    """The store ranking as the full sort it used to be: every
    ``(value, count)`` pair ordered by count descending, ties by the
    value's string form, then the first ``n``."""
    return sorted(
        zip(values.tolist(), counts.tolist()),
        key=lambda kv: (-kv[1], str(kv[0])),
    )[:n]


def distinct_counts(flows):
    seen = {feature: set() for feature in FLOW_FEATURES}
    for flow in flows:
        seen[FlowFeature.SRC_IP].add(flow.src_ip)
        seen[FlowFeature.DST_IP].add(flow.dst_ip)
        seen[FlowFeature.SRC_PORT].add(flow.src_port)
        seen[FlowFeature.DST_PORT].add(flow.dst_port)
        seen[FlowFeature.PROTO].add(flow.proto)
    return {feature: len(values) for feature, values in seen.items()}


# -- flows.aggregate.ranked_from_histogram ------------------------------------


def top_talkers(flows, key, n=10, weight=None):
    """nfdump ``-s`` over the flows of a window: totals per
    ``key(flow)``, heaviest first, ties by the key's string form."""
    totals: dict[object, int] = {}
    for flow in flows:
        amount = 1 if weight is None else weight(flow)
        group = key(flow)
        totals[group] = totals.get(group, 0) + amount
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[:n]


# -- detect.features ----------------------------------------------------------


def compute_bin_features(flows) -> BinFeatures:
    histograms = all_feature_histograms(flows)
    entropies = {
        feature: sample_entropy(histograms[feature])
        for feature in FLOW_FEATURES
        if feature is not FlowFeature.PROTO
    }
    return BinFeatures(
        flows=len(flows),
        packets=sum(f.packets for f in flows),
        bytes=sum(f.bytes for f in flows),
        entropy_src_ip=entropies[FlowFeature.SRC_IP],
        entropy_dst_ip=entropies[FlowFeature.DST_IP],
        entropy_src_port=entropies[FlowFeature.SRC_PORT],
        entropy_dst_port=entropies[FlowFeature.DST_PORT],
    )


# -- extraction ---------------------------------------------------------------


def parent_coverage(parent, refinements, flows):
    """``filtering._parent_coverage``: (parent_flows, parent_packets,
    covered_flows, covered_packets)."""
    covered_flows = covered_packets = 0
    parent_flows = parent_packets = 0
    for flow in flows:
        if not parent.itemset.matches(flow):
            continue
        parent_flows += 1
        parent_packets += flow.packets
        if any(r.matches(flow) for r in refinements):
            covered_flows += 1
            covered_packets += flow.packets
    return parent_flows, parent_packets, covered_flows, covered_packets


def baseline_shares(supports, baseline_flows):
    stats: dict[int, BaselineStats] = {}
    total_flows = len(baseline_flows)
    total_packets = sum(f.packets for f in baseline_flows)
    for index, support in enumerate(supports):
        matched_flows = 0
        matched_packets = 0
        for flow in baseline_flows:
            if support.itemset.matches(flow):
                matched_flows += 1
                matched_packets += flow.packets
        stats[index] = BaselineStats(
            flow_share=matched_flows / total_flows if total_flows else 0.0,
            packet_share=(
                matched_packets / total_packets if total_packets else 0.0
            ),
        )
    return stats


def syn_fraction(flows) -> float:
    """``classify._syn_fraction``: bare-SYN share of the TCP flows."""
    tcp_records = [f for f in flows if f.proto == Protocol.TCP]
    if not tcp_records:
        return 0.0
    bare_syn = sum(
        1
        for f in tcp_records
        if f.tcp_flags & TcpFlags.SYN and not f.tcp_flags & TcpFlags.ACK
    )
    return bare_syn / len(tcp_records)


def volume_per_flow(flows) -> tuple[float, float]:
    """``classify_itemset``'s packets and bytes per flow."""
    return (
        sum(f.packets for f in flows) / len(flows),
        sum(f.bytes for f in flows) / len(flows),
    )


# -- flows.netflow_v5 / flows.flowio -----------------------------------------

_V5_HEADER = struct.Struct("!HHIIIIBBH")
_V5_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")


def decode_v5_packet(data: bytes, boot_time: float = 0.0):
    """The v5 packet decoder's body before it ran on the record dtype:
    one ``struct`` unpack and one ``FlowRecord`` per record.
    Returns ``(sampling interval, records)``; a body shorter than the
    header's count raises ``struct.error``."""
    _, count, _, _, _, _, _, _, sampling = _V5_HEADER.unpack_from(data, 0)
    interval = sampling & 0x3FFF
    if sampling >> 14 == 0 or interval == 0:
        interval = 1
    flows = []
    for index in range(count):
        (
            src_ip, dst_ip, _nexthop, input_if, _output_if, packets, octets,
            first_ms, last_ms, src_port, dst_port, _pad1, tcp_flags, proto,
            _tos, _src_as, _dst_as, _src_mask, _dst_mask, _pad2,
        ) = _V5_RECORD.unpack_from(data, _V5_HEADER.size + index * 48)
        flows.append(
            FlowRecord(
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                proto=proto,
                packets=packets,
                bytes=octets,
                start=boot_time + first_ms / 1000.0,
                end=boot_time + last_ms / 1000.0,
                tcp_flags=tcp_flags,
                router=input_if,
                sampling_rate=interval,
            )
        )
    return interval, flows


def encode_v5_packet(
    flows,
    boot_time: float = 0.0,
    export_time: float | None = None,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_rate: int = 1,
) -> bytes:
    """``netflow_v5.encode_packet``'s body before it wrote record
    columns: one ``struct`` pack per ``FlowRecord``. Raises
    ``ValueError`` for what the product refuses with ``CodecError``."""
    flows = list(flows)
    if not 1 <= len(flows) <= 30:
        raise ValueError(f"{len(flows)} records per packet")
    if not 1 <= sampling_rate <= 0x3FFF:
        raise ValueError(f"sampling rate {sampling_rate}")
    if export_time is None:
        export_time = max(flow.end for flow in flows)
    unix_secs = int(export_time)
    unix_nsecs = int(round((export_time - unix_secs) * 1e9))
    sys_uptime = max(0, int(round((export_time - boot_time) * 1000.0)))
    sampling = (0x1 << 14) | sampling_rate if sampling_rate > 1 else 0
    parts = [_V5_HEADER.pack(
        5, len(flows), sys_uptime & 0xFFFFFFFF, unix_secs, unix_nsecs,
        flow_sequence & 0xFFFFFFFF, 0, engine_id & 0xFF, sampling,
    )]
    for flow in flows:
        first_ms = round((flow.start - boot_time) * 1000.0)
        last_ms = round((flow.end - boot_time) * 1000.0)
        if first_ms < 0 or last_ms < 0:
            raise ValueError("flow starts before router boot time")
        if max(first_ms, last_ms, flow.packets, flow.bytes) > 0xFFFFFFFF:
            raise ValueError("field overflows 32 bits")
        parts.append(_V5_RECORD.pack(
            flow.src_ip, flow.dst_ip, 0, flow.router & 0xFFFF, 0,
            flow.packets, flow.bytes, first_ms, last_ms,
            flow.src_port, flow.dst_port, 0, flow.tcp_flags & 0xFF,
            flow.proto, 0, 0, 0, 0, 0, 0,
        ))
    return b"".join(parts)


def rpv5_bytes(flows, boot_time: float = 0.0, sampling_rate: int = 1):
    """``flowio.write_binary``'s file before it wrote record columns:
    30-flow packets through the loop above, cumulative sequence."""
    flows = list(flows)
    packets = [
        encode_v5_packet(
            flows[first:first + 30], boot_time, flow_sequence=first,
            sampling_rate=sampling_rate,
        )
        for first in range(0, len(flows), 30)
    ]
    return struct.pack("!4sdI", b"RPV5", boot_time, len(packets)) + b"".join(
        struct.pack("!I", len(packet)) + packet for packet in packets
    )


def rpv5_packets(path):
    """``(boot_time, packet bytes)`` of every packet in a container:
    file header, then length-prefixed packets."""
    data = open(path, "rb").read()
    _magic, boot_time, packet_count = struct.unpack_from("!4sdI", data, 0)
    offset = struct.calcsize("!4sdI")
    for _ in range(packet_count):
        (length,) = struct.unpack_from("!I", data, offset)
        yield boot_time, data[offset + 4:offset + 4 + length]
        offset += 4 + length


def read_rpv5(path) -> list[FlowRecord]:
    """The record view of an ``.rpv5`` file as a walk over the
    container, each packet through the decode loop above."""
    return [
        flow
        for boot_time, packet in rpv5_packets(path)
        for flow in decode_v5_packet(packet, boot_time)[1]
    ]
