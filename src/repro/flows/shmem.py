"""The 32-byte header in front of every block of raw flow rows.

Every block of raw :data:`~repro.flows.table.FLOW_DTYPE` rows starts
with the same header: magic (4 bytes), flow schema version, reserved
flags, row count, padded to 32 bytes, little-endian like the payload.
:mod:`repro.archive.layout` writes it, with its own magic, in front of
every partition file. The schema version is checked on every read, so
rows written by a different ``FLOW_DTYPE`` revision fail with a
:class:`~repro.errors.CodecError` instead of being silently misparsed.
"""

from __future__ import annotations

import struct

from repro.errors import CodecError
from repro.flows.table import FLOW_SCHEMA_VERSION

__all__ = [
    "ROW_HEADER_SIZE",
    "SEGMENT_MAGIC",
    "pack_row_header",
    "unpack_row_header",
]

#: Row-block header: magic, schema version, flags (reserved), row
#: count, padded to 32 bytes. Little-endian like the payload.
_ROW_HEADER = struct.Struct("<4sHHQ16x")
ROW_HEADER_SIZE = _ROW_HEADER.size

#: Default magic of a row block (archive partitions use ``b"RPAR"``
#: with the identical layout).
SEGMENT_MAGIC = b"RPSM"


def pack_row_header(rows: int, magic: bytes = SEGMENT_MAGIC) -> bytes:
    """The 32-byte header preceding ``rows`` raw ``FLOW_DTYPE`` rows."""
    return _ROW_HEADER.pack(magic, FLOW_SCHEMA_VERSION, 0, rows)


def unpack_row_header(
    header: bytes,
    magic: bytes = SEGMENT_MAGIC,
    source: object = "",
) -> int:
    """Validate a row-block header; returns the row count.

    Raises :class:`~repro.errors.CodecError` on a short header, a bad
    magic, or a flow-schema-version mismatch — rows laid out by a
    different ``FLOW_DTYPE`` revision must never be misparsed.
    """
    where = f"{source}: " if source else ""
    if len(header) < ROW_HEADER_SIZE:
        raise CodecError(f"{where}truncated row-block header")
    found, version, _flags, rows = _ROW_HEADER.unpack_from(header)
    if found != magic:
        raise CodecError(f"{where}bad row-block magic {found!r}")
    if version != FLOW_SCHEMA_VERSION:
        raise CodecError(
            f"{where}row block carries flow schema version {version}; "
            f"this build reads version {FLOW_SCHEMA_VERSION}"
        )
    return int(rows)
