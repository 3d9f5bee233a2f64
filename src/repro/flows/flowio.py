"""Trace readers and writers.

Two interchange formats:

* **CSV** — human-inspectable, one flow per row, with a fixed header.
  Used by the examples and for exporting extraction evidence.
* **Binary** — a container of NetFlow v5 export packets with a small
  file header carrying the router boot time, so absolute timestamps
  survive the v5 sys-uptime encoding. This is the on-disk shape a real
  NfDump spool directory would hold.

Both formats stream straight into :class:`~repro.flows.table.FlowTable`
chunks (:func:`iter_csv_tables` / :func:`read_csv_table`,
:func:`iter_binary_tables` / :func:`read_binary_table`). The binary
reader views each chunk's record bytes through the one v5 record
layout, :data:`repro.flows.netflow_v5.V5_RECORD_DTYPE`; no
``FlowRecord`` exists between the file and the table, and
:func:`read_binary` is the record view of those chunks.
:func:`read_csv` parses rows into records itself.
"""

from __future__ import annotations

import csv
import io
import struct
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.errors import CodecError, FlowError
from repro.flows.netflow_v5 import (
    HEADER_SIZE,
    RECORD_SIZE,
    decode_header,
    decode_records,
    encode_stream,
)
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.flows.addresses import int_to_ip, ip_to_int

__all__ = [
    "CSV_FIELDS",
    "DEFAULT_CHUNK_ROWS",
    "write_csv",
    "read_csv",
    "read_csv_table",
    "iter_csv_tables",
    "write_binary",
    "read_binary",
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


def write_csv(flows: Iterable[FlowRecord], destination: str | Path | TextIO) -> int:
    """Write flows as CSV; returns the number of rows written."""
    own_handle = isinstance(destination, (str, Path))
    handle: TextIO
    if own_handle:
        handle = open(destination, "w", newline="")
    else:
        handle = destination
    try:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        count = 0
        for flow in flows:
            writer.writerow(
                (
                    int_to_ip(flow.src_ip),
                    int_to_ip(flow.dst_ip),
                    flow.src_port,
                    flow.dst_port,
                    flow.proto,
                    flow.packets,
                    flow.bytes,
                    repr(flow.start),
                    repr(flow.end),
                    flow.tcp_flags,
                    flow.router,
                    flow.sampling_rate,
                )
            )
            count += 1
        return count
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


def read_csv(source: str | Path | TextIO) -> Iterator[FlowRecord]:
    """Read flows from CSV written by :func:`write_csv`.

    Malformed rows raise :class:`CodecError` carrying the row number and
    the offending field (``row 7, field 'src_ip'='10.0.0'``).
    """
    for line_number, values in _iter_csv_rows(source):
        try:
            yield FlowRecord(
                src_ip=values[0],
                dst_ip=values[1],
                src_port=values[2],
                dst_port=values[3],
                proto=values[4],
                packets=values[5],
                bytes=values[6],
                start=values[7],
                end=values[8],
                tcp_flags=values[9],
                router=values[10],
                sampling_rate=values[11],
            )
        except FlowError as exc:
            raise CodecError(f"row {line_number}: {exc}") from exc


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
    flows: Iterable[FlowRecord],
    path: str | Path,
    boot_time: float = 0.0,
    sampling_rate: int = 1,
) -> int:
    """Write flows as a container of NetFlow v5 packets.

    Returns the number of export packets written. Flow timestamps must
    not precede ``boot_time`` (the v5 sys-uptime anchor).
    """
    packets = list(
        encode_stream(flows, boot_time=boot_time, sampling_rate=sampling_rate)
    )
    with open(path, "wb") as handle:
        handle.write(_FILE_HEADER.pack(_BINARY_MAGIC, boot_time, len(packets)))
        for packet in packets:
            handle.write(_PACKET_LEN.pack(len(packet)))
            handle.write(packet)
    return len(packets)


def read_binary(path: str | Path) -> Iterator[FlowRecord]:
    """Read flows from a file written by :func:`write_binary`."""
    for table in iter_binary_tables(path):
        yield from table.to_records()


def _take_chunk(
    records: bytearray, sampling: list[int], count: int, boot_time: float
) -> FlowTable:
    """Decode the first ``count`` buffered records and drop them."""
    size = count * RECORD_SIZE
    rows = decode_records(records[:size], boot_time, sampling[:count])
    del records[:size], sampling[:count]
    return FlowTable(rows)


def iter_binary_tables(
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> Iterator[FlowTable]:
    """Stream a binary trace as :class:`FlowTable` chunks.

    The packets' record bytes are gathered until ``chunk_rows`` records
    are in hand and decoded in one pass, so a multi-gigabyte spool
    never holds more than a chunk (plus one packet) in memory and no
    Python runs per record. A packet shorter than its header declares
    is corruption here (:class:`~repro.errors.CodecError`), and so is
    a record that ends before it starts
    (:class:`~repro.errors.FlowError`).
    """
    if chunk_rows <= 0:
        raise CodecError(f"chunk_rows must be positive: {chunk_rows!r}")
    with open(path, "rb") as handle:
        file_header = handle.read(_FILE_HEADER.size)
        if len(file_header) < _FILE_HEADER.size:
            raise CodecError(f"{path}: truncated file header")
        magic, boot_time, packet_count = _FILE_HEADER.unpack(file_header)
        if magic != _BINARY_MAGIC:
            raise CodecError(f"{path}: bad magic {magic!r}")
        records = bytearray()
        sampling: list[int] = []  # one interval per buffered record
        for index in range(packet_count):
            length_raw = handle.read(_PACKET_LEN.size)
            if len(length_raw) < _PACKET_LEN.size:
                raise CodecError(f"{path}: truncated packet {index} length")
            (length,) = _PACKET_LEN.unpack(length_raw)
            data = handle.read(length)
            if len(data) < length:
                raise CodecError(f"{path}: truncated packet {index} body")
            header = decode_header(data)
            body = data[HEADER_SIZE:HEADER_SIZE + header.count * RECORD_SIZE]
            if len(body) < header.count * RECORD_SIZE:
                raise CodecError(
                    f"{path}: packet {index} declares {header.count} "
                    f"records, holds {len(body) // RECORD_SIZE}"
                )
            records += body
            sampling += [header.sampling_interval] * header.count
            while len(sampling) >= chunk_rows:
                yield _take_chunk(records, sampling, chunk_rows, boot_time)
        if sampling:
            yield _take_chunk(records, sampling, len(sampling), boot_time)


def read_binary_table(
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> FlowTable:
    """Read a whole binary trace into one :class:`FlowTable`."""
    return FlowTable.concat(list(iter_binary_tables(path, chunk_rows)))


def csv_roundtrip(flows: Iterable[FlowRecord]) -> list[FlowRecord]:
    """Serialise to CSV text and parse back (testing helper)."""
    buffer = io.StringIO()
    write_csv(flows, buffer)
    buffer.seek(0)
    return list(read_csv(buffer))
