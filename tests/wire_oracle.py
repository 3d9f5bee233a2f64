"""The per-record v9/IPFIX data-set decoder, kept as the test oracle.

This loop was the collector's template decode path until the wire
plans of :mod:`repro.collector.decode` replaced it; it moved here
unchanged but for one line, so the plans can be checked bit-for-bit
against what ``int.from_bytes`` plus the mask/clamp gives. The one
line: a time element saturates at ``2**64 - 1`` (the seed passed the
raw integer to a float division, which raises ``OverflowError`` —
through the listener — once a field is wide enough).
"""

from __future__ import annotations

import numpy as np

from repro.collector.decode import (
    _COLUMN_MASKS,
    _I64_MAX,
    _U64_MAX,
    ELEMENT_COLUMNS,
    Template,
)
from repro.flows.table import FLOW_DTYPE

_LAST_SWITCHED = 21    # sysuptime ms
_FIRST_SWITCHED = 22   # sysuptime ms
_FLOW_START_SECONDS = 150
_FLOW_END_SECONDS = 151
_FLOW_START_MS = 152
_FLOW_END_MS = 153

TIME_ELEMENTS = {
    _LAST_SWITCHED, _FIRST_SWITCHED,
    _FLOW_START_SECONDS, _FLOW_END_SECONDS,
    _FLOW_START_MS, _FLOW_END_MS,
}


def decode_data_records(
    payload: bytes,
    template: Template,
    boot_time: float,
    export_secs: int,
) -> list[tuple]:
    """Decode the fixed-size records a data set carries.

    Anything shorter than one record at the tail is padding (RFC 7011
    allows up to 3 bytes; broken exporters pad more — tolerated).
    """
    size = template.record_size
    rows: list[tuple] = []
    offset = 0
    while offset + size <= len(payload):
        values = {
            "src_ip": 0, "dst_ip": 0, "src_port": 0, "dst_port": 0,
            "proto": 0, "tcp_flags": 0, "router": 0,
            "sampling_rate": 1, "packets": 0, "bytes": 0,
        }
        start: float | None = None
        end: float | None = None
        pos = offset
        for element, length in template.fields:
            raw = int.from_bytes(payload[pos:pos + length], "big")
            pos += length
            if element in TIME_ELEMENTS:
                raw = min(raw, _U64_MAX)
                if element == _FIRST_SWITCHED:
                    start = boot_time + raw / 1000.0
                elif element == _LAST_SWITCHED:
                    end = boot_time + raw / 1000.0
                elif element == _FLOW_START_SECONDS:
                    start = float(raw)
                elif element == _FLOW_END_SECONDS:
                    end = float(raw)
                elif element == _FLOW_START_MS:
                    start = raw / 1000.0
                else:
                    end = raw / 1000.0
                continue
            column = ELEMENT_COLUMNS.get(element)
            if column is None:
                continue
            mask = _COLUMN_MASKS.get(column)
            values[column] = raw & mask if mask else min(raw, _I64_MAX)
        if values["sampling_rate"] == 0:
            values["sampling_rate"] = 1
        if start is None:
            start = end if end is not None else float(export_secs)
        if end is None:
            end = start
        end = max(end, start)  # sysUptime wrap: zero duration, counted
        rows.append((
            values["src_ip"], values["dst_ip"],
            values["src_port"], values["dst_port"],
            values["proto"], values["tcp_flags"],
            values["router"], values["sampling_rate"],
            values["packets"], values["bytes"],
            start, end,
        ))
        offset += size
    return rows


def reference_rows(
    payload: bytes,
    template: Template,
    boot_time: float = 0.0,
    export_secs: int = 0,
) -> np.ndarray:
    """:func:`decode_data_records` as a ``FLOW_DTYPE`` array."""
    return np.array(
        decode_data_records(payload, template, boot_time, export_secs),
        dtype=FLOW_DTYPE,
    )
