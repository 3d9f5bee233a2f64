"""Trace readers and writers.

Two interchange formats:

* **CSV** — human-inspectable, one flow per row, with a fixed header.
  Used by the examples and for exporting extraction evidence.
* **Binary** (``.rpv5``) — a container of NetFlow v5 export packets
  with a small file header carrying the router boot time, so absolute
  timestamps survive the v5 sys-uptime encoding. This is the on-disk
  shape a real NfDump spool directory would hold.

Both formats read straight into :class:`~repro.flows.table.FlowTable`
chunks (:func:`iter_csv_tables` / :func:`read_csv_table`,
:func:`iter_binary_tables` / :func:`read_binary_table`), and both
writers take a table (record input is coerced once at the entry).
The binary reader walks the container with :func:`iter_packets` and
decodes its packets as the UDP collector decodes datagrams:
:func:`~repro.collector.decode.decode_datagram` finds each packet's
records by header arithmetic, :func:`~repro.collector.decode.decode_regions`
runs the v5 plan once per chunk. What the socket counts, a file
refuses.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.collector.decode import (
    Region,
    decode_datagram,
    decode_regions,
    parse_header,
)
from repro.errors import CodecError, FlowError
from repro.flows.netflow_v5 import NETFLOW_V5_VERSION, encode_packets
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.flows.addresses import int_to_ip, ip_to_int

__all__ = [
    "CSV_FIELDS",
    "DEFAULT_CHUNK_ROWS",
    "write_csv",
    "read_csv_table",
    "iter_csv_tables",
    "write_binary",
    "iter_packets",
    "read_binary_table",
    "iter_binary_tables",
]

#: Default rows per chunk for the streaming table readers.
DEFAULT_CHUNK_ROWS = 65_536

CSV_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "packets",
    "bytes",
    "start",
    "end",
    "tcp_flags",
    "router",
    "sampling_rate",
)

_BINARY_MAGIC = b"RPV5"
_FILE_HEADER = struct.Struct("!4sdI")  # magic, boot_time, packet_count
_PACKET_LEN = struct.Struct("!I")


def write_csv(
    table: FlowTable,
    destination: str | Path | TextIO,
) -> int:
    """Write a table as CSV; returns the number of rows written."""
    columns = [table.column(name).tolist() for name in CSV_FIELDS]
    columns[0] = map(int_to_ip, columns[0])
    columns[1] = map(int_to_ip, columns[1])
    own_handle = isinstance(destination, (str, Path))
    handle: TextIO
    if own_handle:
        handle = open(destination, "w", newline="")
    else:
        handle = destination
    try:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        writer.writerows(zip(*columns))
        return len(table)
    finally:
        if own_handle:
            handle.close()


#: Per-field CSV cell parsers, aligned with :data:`CSV_FIELDS`.
_CSV_PARSERS = (
    ip_to_int,  # src_ip
    ip_to_int,  # dst_ip
    int,        # src_port
    int,        # dst_port
    int,        # proto
    int,        # packets
    int,        # bytes
    float,      # start
    float,      # end
    int,        # tcp_flags
    int,        # router
    int,        # sampling_rate
)


def _parse_csv_row(row: list[str], line_number: int) -> tuple:
    """Parse one CSV row into typed values with field-level error context."""
    if len(row) != len(CSV_FIELDS):
        raise CodecError(
            f"row {line_number}: expected {len(CSV_FIELDS)} fields, "
            f"got {len(row)}"
        )
    values = []
    for field, parser, cell in zip(CSV_FIELDS, _CSV_PARSERS, row):
        try:
            values.append(parser(cell))
        except (ValueError, FlowError) as exc:
            raise CodecError(
                f"row {line_number}, field {field!r}={cell!r}: {exc}"
            ) from exc
    return tuple(values)


def _iter_csv_rows(
    source: str | Path | TextIO,
) -> Iterator[tuple[int, tuple]]:
    """Yield ``(line_number, typed_values)`` for every CSV data row."""
    own_handle = isinstance(source, (str, Path))
    handle: TextIO
    if own_handle:
        handle = open(source, "r", newline="")
    else:
        handle = source
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        if tuple(header) != CSV_FIELDS:
            raise CodecError(
                f"unexpected CSV header {header!r}; expected {CSV_FIELDS!r}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            yield line_number, _parse_csv_row(row, line_number)
    finally:
        if own_handle:
            handle.close()


def _table_from_rows(
    rows: list[tuple], first_line: int
) -> FlowTable:
    """Build a table chunk from parsed CSV rows, re-validating ranges."""
    data = np.array(rows, dtype=object)
    try:
        return FlowTable.from_columns(
            src_ip=data[:, 0].astype(np.int64),
            dst_ip=data[:, 1].astype(np.int64),
            src_port=data[:, 2].astype(np.int64),
            dst_port=data[:, 3].astype(np.int64),
            proto=data[:, 4].astype(np.int64),
            packets=data[:, 5].astype(np.int64),
            bytes=data[:, 6].astype(np.int64),
            start=data[:, 7].astype(np.float64),
            end=data[:, 8].astype(np.float64),
            tcp_flags=data[:, 9].astype(np.int64),
            router=data[:, 10].astype(np.int64),
            sampling_rate=data[:, 11].astype(np.int64),
        )
    except FlowError as exc:
        raise CodecError(
            f"rows {first_line}..{first_line + len(rows) - 1}: {exc}"
        ) from exc


def iter_csv_tables(
    source: str | Path | TextIO,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[FlowTable]:
    """Stream a CSV trace as :class:`FlowTable` chunks.

    Rows decode straight into column buffers — no ``FlowRecord``
    objects are created. ``chunk_rows`` bounds peak memory per chunk.
    """
    if chunk_rows <= 0:
        raise CodecError(f"chunk_rows must be positive: {chunk_rows!r}")
    rows: list[tuple] = []
    first_line = 2
    for line_number, values in _iter_csv_rows(source):
        if not rows:
            first_line = line_number
        rows.append(values)
        if len(rows) >= chunk_rows:
            yield _table_from_rows(rows, first_line)
            rows = []
    if rows:
        yield _table_from_rows(rows, first_line)


def read_csv_table(
    source: str | Path | TextIO,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> FlowTable:
    """Read a whole CSV trace into one :class:`FlowTable`."""
    return FlowTable.concat(list(iter_csv_tables(source, chunk_rows)))


def write_binary(
    flows: FlowTable | Iterable[FlowRecord],
    path: str | Path,
    boot_time: float = 0.0,
    sampling_rate: int = 1,
) -> int:
    """Write flows as a container of NetFlow v5 packets
    (:func:`~repro.flows.netflow_v5.encode_packets`).

    Returns the number of export packets written. Flow timestamps must
    not precede ``boot_time`` (the v5 sys-uptime anchor). Record input
    is coerced once with :meth:`FlowTable.from_records`.
    """
    table = FlowTable.from_records(flows, cache_records=False)
    packets = encode_packets(table, boot_time, sampling_rate)
    parts = [_FILE_HEADER.pack(_BINARY_MAGIC, boot_time, len(packets))]
    for packet in packets:
        parts += (_PACKET_LEN.pack(len(packet)), packet)
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))
    return len(packets)


def iter_packets(path: str | Path) -> tuple[float, Iterator[bytes]]:
    """``(boot_time, packets)`` of an ``.rpv5`` container: the file
    header's boot time and an iterator over its export packets, in
    file order and undecoded.

    The walk is strict: bad magic and a truncated file header raise
    :class:`~repro.errors.CodecError` here, a truncated packet length
    or packet body when the iterator reaches it.
    """
    with open(path, "rb") as handle:
        file_header = handle.read(_FILE_HEADER.size)
    if len(file_header) < _FILE_HEADER.size:
        raise CodecError(f"{path}: truncated file header")
    magic, boot_time, packet_count = _FILE_HEADER.unpack(file_header)
    if magic != _BINARY_MAGIC:
        raise CodecError(f"{path}: bad magic {magic!r}")
    return boot_time, _walk_packets(path, packet_count)


def _walk_packets(path: str | Path, packet_count: int) -> Iterator[bytes]:
    with open(path, "rb") as handle:
        handle.seek(_FILE_HEADER.size)
        for index in range(packet_count):
            length_raw = handle.read(_PACKET_LEN.size)
            if len(length_raw) < _PACKET_LEN.size:
                raise CodecError(f"{path}: truncated packet {index} length")
            (length,) = _PACKET_LEN.unpack(length_raw)
            packet = handle.read(length)
            if len(packet) < length:
                raise CodecError(f"{path}: truncated packet {index} body")
            yield packet


def _decode_chunk(
    regions: list[Region], boot_time: float, where: str
) -> FlowTable:
    """One ``decode_regions`` pass; a clamped record is refused."""
    rows, clamped = decode_regions(regions, boot_time)
    if clamped:
        raise FlowError(f"{where}: {clamped} record(s) end before they start")
    return FlowTable(rows)


def iter_binary_tables(
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[FlowTable]:
    """Stream a binary trace as :class:`FlowTable` chunks.

    Each packet is parsed by header arithmetic alone; its record bytes
    are held as a region until ``chunk_rows`` records are in hand and
    decoded in one pass, so a multi-gigabyte spool never holds more
    than a chunk (plus one packet) in memory and no Python runs per
    record. A packet that is not v5 or is shorter than its header
    declares is corruption here (:class:`~repro.errors.CodecError`),
    and so is a record that ends before it starts
    (:class:`~repro.errors.FlowError`).
    """
    if chunk_rows <= 0:
        raise CodecError(f"chunk_rows must be positive: {chunk_rows!r}")
    boot_time, packets = iter_packets(path)
    regions: list[Region] = []
    held = first = last = 0
    for index, packet in enumerate(packets):
        header = parse_header(packet)
        if header.version != NETFLOW_V5_VERSION:
            raise CodecError(
                f"{path}: packet {index} is NetFlow v{header.version}"
            )
        datagram = decode_datagram(packet, boot_time, header=header)
        if datagram.malformed:
            raise CodecError(
                f"{path}: packet {index} declares {header.count} "
                f"records, holds {datagram.flows}"
            )
        for region in datagram.regions:
            while held + region.count >= chunk_rows:
                head, region = region.split(chunk_rows - held)
                yield _decode_chunk(
                    regions + [head], boot_time,
                    f"{path}: packets {first if regions else index}"
                    f"..{index}",
                )
                regions, held = [], 0
            if region.count:
                if not regions:
                    first = index
                regions.append(region)
                held += region.count
                last = index
    if regions:
        yield _decode_chunk(
            regions, boot_time, f"{path}: packets {first}..{last}"
        )


def read_binary_table(
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> FlowTable:
    """Read a whole binary trace into one :class:`FlowTable`."""
    return FlowTable.concat(list(iter_binary_tables(path, chunk_rows)))
