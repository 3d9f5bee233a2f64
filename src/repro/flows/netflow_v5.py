"""NetFlow v5 export-packet encoder and record layout.

The paper's deployment collects NetFlow from GEANT routers into an NfDump
backend. This module implements the on-the-wire NetFlow v5 format so the
substrate can round-trip traces through the same representation a real
collector would see: a 24-byte header followed by up to 30 fixed 48-byte
records per export packet.

Only fields the pipeline consumes are carried over from a
:class:`~repro.flows.table.FlowTable`; the remaining v5 fields (AS
numbers, next-hop, output interface, ToS) are encoded as zeros.

Reference layout (RFC-less, Cisco-documented):

Header (24 bytes, network order)::

    version(2) count(2) sys_uptime(4) unix_secs(4) unix_nsecs(4)
    flow_sequence(4) engine_type(1) engine_id(1) sampling(2)

Record (48 bytes)::

    srcaddr(4) dstaddr(4) nexthop(4) input(2) output(2)
    dPkts(4) dOctets(4) first(4) last(4)
    srcport(2) dstport(2) pad1(1) tcp_flags(1) prot(1) tos(1)
    src_as(2) dst_as(2) src_mask(1) dst_mask(1) pad2(2)

:data:`V5_RECORD_DTYPE` is the one declaration of that record. The
encoder fills it from table columns and packs only the per-packet
headers in Python (:func:`encode_packets`, :func:`encode_packet`); decoding
is the collector's: ``repro.collector.decode`` compiles its ``V5_PLAN``
from the same dtype and parses the header, for the UDP listener and
the ``.rpv5`` reader alike.
"""

from __future__ import annotations

import struct
from typing import Iterable

import numpy as np

from repro.errors import CodecError
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable

__all__ = [
    "NETFLOW_V5_VERSION",
    "HEADER_SIZE",
    "RECORD_SIZE",
    "MAX_RECORDS_PER_PACKET",
    "V5_RECORD_DTYPE",
    "encode_packets",
    "encode_packet",
]

NETFLOW_V5_VERSION = 5
HEADER_SIZE = 24
RECORD_SIZE = 48
MAX_RECORDS_PER_PACKET = 30

_HEADER = struct.Struct("!HHIIIIBBH")

#: The 48-byte record as a big-endian numpy view.
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
assert V5_RECORD_DTYPE.itemsize == RECORD_SIZE

# Sampling header: top 2 bits = mode (01 = packet interval sampling),
# low 14 bits = interval.
_SAMPLING_MODE_PACKET = 0x1
_SAMPLING_INTERVAL_MASK = 0x3FFF


def _encode_records(table: FlowTable, boot_time: float = 0.0) -> np.ndarray:
    """``table``'s rows as v5 records, times as sys-uptime milliseconds.

    ``boot_time`` anchors the sys-uptime clock: a flow that starts
    before it, or ends more than 2^32 ms after it, raises
    :class:`~repro.errors.CodecError`, and so does a packet or byte
    counter wider than 32 bits. The router becomes the input interface.
    """
    first = np.rint((table.start - boot_time) * 1000.0)
    last = np.rint((table.end - boot_time) * 1000.0)
    if not ((first >= 0) & (last >= 0)).all():
        raise CodecError(
            f"flow starts before router boot time "
            f"({table.start.min()} < {boot_time})"
        )
    if (first > 0xFFFFFFFF).any() or (last > 0xFFFFFFFF).any():
        raise CodecError("flow timestamps overflow 32-bit sys-uptime")
    if len(table) and max(table.packets.max(), table.bytes.max()) \
            > 0xFFFFFFFF:
        raise CodecError("packet/byte counter overflows 32 bits")
    wire = np.zeros(len(table), dtype=V5_RECORD_DTYPE)
    for name in ("src_ip", "dst_ip", "packets", "src_port", "dst_port",
                 "tcp_flags", "proto"):
        wire[name] = table.column(name)
    wire["octets"] = table.bytes
    wire["input"] = table.router & 0xFFFF  # exporting PoP
    wire["first"] = first
    wire["last"] = last
    return wire


def _pack_header(
    count: int,
    export_time: float,
    boot_time: float = 0.0,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_rate: int = 1,
) -> bytes:
    """The 24-byte header of a packet of ``count`` records.

    ``sampling_rate`` is stored in the sampling header (mode = packet
    sampling) when greater than 1.
    """
    if not 1 <= sampling_rate <= _SAMPLING_INTERVAL_MASK:
        raise CodecError(f"sampling rate {sampling_rate} not encodable")
    unix_secs = int(export_time)
    unix_nsecs = int(round((export_time - unix_secs) * 1e9))
    sys_uptime = max(0, int(round((export_time - boot_time) * 1000.0)))
    sampling = 0
    if sampling_rate > 1:
        sampling = (_SAMPLING_MODE_PACKET << 14) | sampling_rate
    return _HEADER.pack(
        NETFLOW_V5_VERSION,
        count,
        sys_uptime & 0xFFFFFFFF,
        unix_secs,
        unix_nsecs,
        flow_sequence & 0xFFFFFFFF,
        0,
        engine_id & 0xFF,
        sampling,
    )


def encode_packet(
    flows: FlowTable | Iterable[FlowRecord],
    boot_time: float = 0.0,
    export_time: float | None = None,
    flow_sequence: int = 0,
    engine_id: int = 0,
    sampling_rate: int = 1,
) -> bytes:
    """Encode up to 30 flows as one NetFlow v5 export packet.

    ``export_time`` defaults to the latest flow end. Record input is
    coerced once with :meth:`FlowTable.from_records`.
    """
    table = FlowTable.from_records(flows, cache_records=False)
    if len(table) == 0:
        raise CodecError("cannot encode an empty export packet")
    if len(table) > MAX_RECORDS_PER_PACKET:
        raise CodecError(
            f"{len(table)} records exceed NetFlow v5 packet limit "
            f"of {MAX_RECORDS_PER_PACKET}"
        )
    if export_time is None:
        export_time = float(table.end.max())
    header = _pack_header(
        len(table), export_time, boot_time, flow_sequence, engine_id,
        sampling_rate,
    )
    return header + _encode_records(table, boot_time).tobytes()


def encode_packets(
    table: FlowTable,
    boot_time: float = 0.0,
    sampling_rate: int = 1,
) -> list[bytes]:
    """``table`` as a router export engine sends it: packets of 30
    records (the last one the rest) with a cumulative
    ``flow_sequence``, each exported at its latest flow end.

    Byte for byte the :func:`encode_packet` of each 30-row slice, with
    the records of the whole table filled in one pass.
    """
    wire = _encode_records(table, boot_time)
    firsts = range(0, len(table), MAX_RECORDS_PER_PACKET)
    export_times = np.maximum.reduceat(table.end, firsts).tolist() \
        if len(table) else []
    packets = []
    for first, export_time in zip(firsts, export_times):
        records = wire[first:first + MAX_RECORDS_PER_PACKET]
        packets.append(_pack_header(
            len(records), export_time, boot_time, first,
            sampling_rate=sampling_rate,
        ) + records.tobytes())
    return packets
