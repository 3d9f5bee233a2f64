"""NetFlow v5 export-packet codec.

The paper's deployment collects NetFlow from GEANT routers into an NfDump
backend. This module implements the on-the-wire NetFlow v5 format so the
substrate can round-trip traces through the same representation a real
collector would see: a 24-byte header followed by up to 30 fixed 48-byte
records per export packet.

Only fields the pipeline consumes are surfaced on :class:`FlowRecord`;
the remaining v5 fields (AS numbers, next-hop, interfaces, ToS) are
encoded as zeros and preserved on decode where present.

Reference layout (RFC-less, Cisco-documented):

Header (24 bytes, network order)::

    version(2) count(2) sys_uptime(4) unix_secs(4) unix_nsecs(4)
    flow_sequence(4) engine_type(1) engine_id(1) sampling(2)

Record (48 bytes)::

    srcaddr(4) dstaddr(4) nexthop(4) input(2) output(2)
    dPkts(4) dOctets(4) first(4) last(4)
    srcport(2) dstport(2) pad1(1) tcp_flags(1) prot(1) tos(1)
    src_as(2) dst_as(2) src_mask(1) dst_mask(1) pad2(2)

Decoding has one declaration of that record, :data:`V5_RECORD_DTYPE`,
and one column program over it, :func:`decode_records`: the ``.rpv5``
file readers run it once per chunk, :func:`decode_packet` once per
packet, and the collector compiles its ``V5_PLAN`` from the same
dtype.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import CodecError, FlowError
from repro.flows.record import FlowRecord
from repro.flows.table import FLOW_DTYPE, FlowTable

__all__ = [
    "NETFLOW_V5_VERSION",
    "HEADER_SIZE",
    "RECORD_SIZE",
    "MAX_RECORDS_PER_PACKET",
    "V5_RECORD_DTYPE",
    "V5Header",
    "encode_packet",
    "decode_header",
    "decode_records",
    "decode_packet",
    "decode_packet_tolerant",
    "encode_stream",
    "decode_stream",
]

NETFLOW_V5_VERSION = 5
HEADER_SIZE = 24
RECORD_SIZE = 48
MAX_RECORDS_PER_PACKET = 30

_HEADER = struct.Struct("!HHIIIIBBH")
_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")

#: The 48-byte record as a big-endian numpy view, fields in the order
#: ``_RECORD`` packs them.
V5_RECORD_DTYPE = np.dtype([
    ("src_ip", ">u4"),
    ("dst_ip", ">u4"),
    ("nexthop", ">u4"),
    ("input", ">u2"),
    ("output", ">u2"),
    ("packets", ">u4"),
    ("octets", ">u4"),
    ("first", ">u4"),
    ("last", ">u4"),
    ("src_port", ">u2"),
    ("dst_port", ">u2"),
    ("pad1", "u1"),
    ("tcp_flags", "u1"),
    ("proto", "u1"),
    ("tos", "u1"),
    ("src_as", ">u2"),
    ("dst_as", ">u2"),
    ("src_mask", "u1"),
    ("dst_mask", "u1"),
    ("pad2", ">u2"),
])
assert V5_RECORD_DTYPE.itemsize == _RECORD.size == RECORD_SIZE

# Sampling header: top 2 bits = mode (01 = packet interval sampling),
# low 14 bits = interval.
_SAMPLING_MODE_PACKET = 0x1
_SAMPLING_INTERVAL_MASK = 0x3FFF


@dataclass(frozen=True, slots=True)
class V5Header:
    """Decoded NetFlow v5 packet header."""

    count: int
    sys_uptime_ms: int
    unix_secs: int
    unix_nsecs: int
    flow_sequence: int
    engine_type: int = 0
    engine_id: int = 0
    sampling_interval: int = 1

    @property
    def export_time(self) -> float:
        """Export timestamp as a float of UNIX seconds."""
        return self.unix_secs + self.unix_nsecs / 1e9


def _uptime_pair(flow: FlowRecord, boot_time: float) -> tuple[int, int]:
    """Translate absolute flow times into sys-uptime milliseconds."""
    first_ms = round((flow.start - boot_time) * 1000.0)
    last_ms = round((flow.end - boot_time) * 1000.0)
    if first_ms < 0 or last_ms < 0:
        raise CodecError(
            f"flow starts before router boot time ({flow.start} < {boot_time})"
        )
    if first_ms > 0xFFFFFFFF or last_ms > 0xFFFFFFFF:
        raise CodecError("flow timestamps overflow 32-bit sys-uptime")
    return first_ms, last_ms


def encode_packet(
    flows: Sequence[FlowRecord],
    boot_time: float = 0.0,
    export_time: float | None = None,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_rate: int = 1,
) -> bytes:
    """Encode up to 30 flows as one NetFlow v5 export packet.

    ``boot_time`` anchors the sys-uptime clock; flow start/end must not
    precede it. ``sampling_rate`` is stored in the v5 sampling header
    (mode = packet sampling) when greater than 1.
    """
    if len(flows) == 0:
        raise CodecError("cannot encode an empty export packet")
    if len(flows) > MAX_RECORDS_PER_PACKET:
        raise CodecError(
            f"{len(flows)} records exceed NetFlow v5 packet limit "
            f"of {MAX_RECORDS_PER_PACKET}"
        )
    if not 1 <= sampling_rate <= _SAMPLING_INTERVAL_MASK:
        raise CodecError(f"sampling rate {sampling_rate} not encodable")
    if export_time is None:
        export_time = max(flow.end for flow in flows)
    unix_secs = int(export_time)
    unix_nsecs = int(round((export_time - unix_secs) * 1e9))
    sys_uptime = max(0, int(round((export_time - boot_time) * 1000.0)))
    sampling = 0
    if sampling_rate > 1:
        sampling = (_SAMPLING_MODE_PACKET << 14) | sampling_rate

    parts = [
        _HEADER.pack(
            NETFLOW_V5_VERSION,
            len(flows),
            sys_uptime & 0xFFFFFFFF,
            unix_secs,
            unix_nsecs,
            flow_sequence & 0xFFFFFFFF,
            0,
            engine_id & 0xFF,
            sampling,
        )
    ]
    for flow in flows:
        first_ms, last_ms = _uptime_pair(flow, boot_time)
        if flow.packets > 0xFFFFFFFF or flow.bytes > 0xFFFFFFFF:
            raise CodecError("packet/byte counter overflows 32 bits")
        parts.append(
            _RECORD.pack(
                flow.src_ip,
                flow.dst_ip,
                0,  # nexthop
                flow.router & 0xFFFF,  # input interface <- exporting PoP
                0,  # output interface
                flow.packets,
                flow.bytes,
                first_ms,
                last_ms,
                flow.src_port,
                flow.dst_port,
                0,  # pad1
                flow.tcp_flags & 0xFF,
                flow.proto,
                0,  # tos
                0,  # src_as
                0,  # dst_as
                0,  # src_mask
                0,  # dst_mask
                0,  # pad2
            )
        )
    return b"".join(parts)


def decode_header(data: bytes) -> V5Header:
    """Decode the 24-byte header of one export packet.

    Raises :class:`~repro.errors.CodecError` for fewer than 24 bytes
    or a version other than 5: nothing after such a header can be
    trusted.
    """
    if len(data) < HEADER_SIZE:
        raise CodecError(
            f"truncated packet: {len(data)} bytes < header {HEADER_SIZE}"
        )
    (
        version,
        count,
        sys_uptime,
        unix_secs,
        unix_nsecs,
        flow_sequence,
        engine_type,
        engine_id,
        sampling,
    ) = _HEADER.unpack_from(data, 0)
    if version != NETFLOW_V5_VERSION:
        raise CodecError(f"unsupported NetFlow version {version}")
    sampling_mode = sampling >> 14
    sampling_interval = sampling & _SAMPLING_INTERVAL_MASK
    if sampling_mode == 0 or sampling_interval == 0:
        sampling_interval = 1
    return V5Header(
        count=count,
        sys_uptime_ms=sys_uptime,
        unix_secs=unix_secs,
        unix_nsecs=unix_nsecs,
        flow_sequence=flow_sequence,
        engine_type=engine_type,
        engine_id=engine_id,
        sampling_interval=sampling_interval,
    )


def decode_records(
    data: "bytes | bytearray",
    boot_time: float,
    sampling: "int | Sequence[int]",
    count: int = -1,
    offset: int = 0,
) -> np.ndarray:
    """``FLOW_DTYPE`` rows of the 48-byte records in ``data``.

    ``count`` and ``offset`` select the records as they do for
    ``np.frombuffer``; ``sampling`` is their header's sampling
    interval, one value or one per record. Absolute times are
    ``boot_time + uptime_ms / 1000.0``, the collector's arithmetic.
    A record whose ``last`` precedes its ``first`` raises
    :class:`~repro.errors.FlowError`, as :class:`FlowRecord` would:
    files and single packets are not a socket, nothing is clamped.
    """
    wire = np.frombuffer(
        data, dtype=V5_RECORD_DTYPE, count=count, offset=offset
    )
    inverted = np.flatnonzero(wire["last"] < wire["first"])
    if len(inverted):
        record = wire[inverted[0]]
        raise FlowError(
            f"record {inverted[0]} ends before it starts "
            f"(last {record['last']} ms < first {record['first']} ms)"
        )
    rows = np.empty(len(wire), dtype=FLOW_DTYPE)
    rows["src_ip"] = wire["src_ip"]
    rows["dst_ip"] = wire["dst_ip"]
    rows["src_port"] = wire["src_port"]
    rows["dst_port"] = wire["dst_port"]
    rows["proto"] = wire["proto"]
    rows["tcp_flags"] = wire["tcp_flags"]
    rows["router"] = wire["input"]
    rows["sampling_rate"] = sampling
    rows["packets"] = wire["packets"]
    rows["bytes"] = wire["octets"]
    rows["start"] = boot_time + wire["first"] / 1000.0
    rows["end"] = boot_time + wire["last"] / 1000.0
    return rows


def decode_packet(
    data: bytes, boot_time: float = 0.0
) -> tuple[V5Header, list[FlowRecord]]:
    """Decode a single NetFlow v5 export packet.

    Returns the header and the flow records with absolute timestamps
    reconstructed against ``boot_time`` and sampling rate propagated onto
    each record. Raises :class:`~repro.errors.CodecError` when the
    packet body is shorter than its declared record count — file
    containers treat truncation as corruption. The UDP
    listener hot path uses :func:`decode_packet_tolerant` instead.
    """
    header, flows, malformed = decode_packet_tolerant(data, boot_time)
    if malformed:
        expected = HEADER_SIZE + header.count * RECORD_SIZE
        raise CodecError(
            f"truncated packet: {len(data)} bytes < expected {expected} "
            f"(record {len(flows)} cut at offset "
            f"{HEADER_SIZE + len(flows) * RECORD_SIZE})"
        )
    return header, flows


def decode_packet_tolerant(
    data: bytes, boot_time: float = 0.0
) -> tuple[V5Header, list[FlowRecord], int]:
    """Decode a v5 packet, salvaging complete records from a short body.

    Datagrams on the wire arrive truncated (fragmentation, broken
    exporters); aborting the whole packet would discard good records. A
    header that declares ``count`` records backed by fewer complete
    48-byte bodies decodes the complete ones and reports the remainder
    as the third element of the return tuple (the malformed-record
    count) instead of raising. Only an unreadable header — fewer than
    24 bytes, or a version other than 5 — raises
    :class:`~repro.errors.CodecError`, since there is nothing to
    salvage.
    """
    header = decode_header(data)
    whole = min(header.count, (len(data) - HEADER_SIZE) // RECORD_SIZE)
    rows = decode_records(
        data, boot_time, header.sampling_interval,
        count=whole, offset=HEADER_SIZE,
    )
    return header, FlowTable(rows).to_records(), header.count - whole


def encode_stream(
    flows: Iterable[FlowRecord],
    boot_time: float = 0.0,
    sampling_rate: int = 1,
    engine_id: int = 0,
) -> Iterator[bytes]:
    """Encode an arbitrary flow iterable as a sequence of v5 packets.

    Packets carry at most 30 records each and maintain the cumulative
    ``flow_sequence`` counter exactly like a router export engine.
    """
    batch: list[FlowRecord] = []
    sequence = 0
    for flow in flows:
        batch.append(flow)
        if len(batch) == MAX_RECORDS_PER_PACKET:
            yield encode_packet(
                batch,
                boot_time=boot_time,
                flow_sequence=sequence,
                sampling_rate=sampling_rate,
                engine_id=engine_id,
            )
            sequence += len(batch)
            batch = []
    if batch:
        yield encode_packet(
            batch,
            boot_time=boot_time,
            flow_sequence=sequence,
            sampling_rate=sampling_rate,
            engine_id=engine_id,
        )


def decode_stream(
    packets: Iterable[bytes], boot_time: float = 0.0
) -> Iterator[FlowRecord]:
    """Decode a sequence of v5 packets, yielding flow records in order.

    Raises :class:`~repro.errors.CodecError` when the stream drops flows
    (detected through the ``flow_sequence`` counter).
    """
    expected_sequence: int | None = None
    for data in packets:
        header, flows = decode_packet(data, boot_time=boot_time)
        if expected_sequence is not None and \
                header.flow_sequence != expected_sequence:
            raise CodecError(
                f"flow sequence gap: expected {expected_sequence}, "
                f"got {header.flow_sequence}"
            )
        expected_sequence = header.flow_sequence + header.count
        yield from flows
