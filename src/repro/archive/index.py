"""The partition index: zone map + feature index, one ``.idx`` sidecar.

Every partition carries one sidecar built from **one pass** over its
rows — one :func:`~repro.flows.aggregate.value_histogram`
factorisation per indexed column (:data:`ZONE_COLUMNS`,
:func:`index_histograms`; a sealed stream window's detectors read the
same arrays) feeds both halves:

* :class:`FeatureIndex` — the **full** per-column value histogram
  (sorted distinct values, flow count and packet sum per value): *what
  would counting this partition produce?*, exactly, without a payload
  byte (the planner's ``feature-index`` push-down).
* :class:`ZoneMap` — time bounds, counter sums, the TCP-flag union
  and, read off the feature index's value arrays, each column's
  ``min``/``max``/``distinct`` and (up to :data:`MAX_DICT_VALUES`
  entries) value dictionary: *could this partition match?*
  :meth:`ZoneMap.may_match` is **sound, never complete** — it may
  admit a partition that matches nothing (the row mask then drops it)
  but never excludes one holding a matching row; the equivalence
  suite asserts pruned results equal full scans.

On disk (:func:`encode_index` / :func:`decode_index`) the pair is one
file, ``part<slice>-h<shard>-<seq>.idx``::

    b"RIDX" | u32 version | u32 head length      12-byte prefix
    head    JSON: the zone map's scalars, sealed/sorted/shard_spec
            (always null)/replaces, and the column table [name,
            length, values dtype, flows dtype, packets dtype]
    arrays  per column, in table order: values | flows | packets,
            raw little-endian; values at the column's own dtype,
            counts at the narrowest unsigned dtype that holds them
    u32     crc32 of every byte before it

Decoding is ``np.frombuffer`` over the file's bytes; counts widen to
``int64`` when read. A torn or bit-flipped sidecar fails its length or
checksum test with :class:`~repro.errors.ArchiveError` — the partition
is quarantined, never served. The ``from_json`` classmethods parse the
two JSON sidecars of archives that predate ``.idx``; nothing writes
them.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ArchiveError, CodecError
from repro.flows.aggregate import value_histogram
from repro.flows.filter import (
    And,
    CounterMatch,
    Direction,
    FilterNode,
    FlagsMatch,
    IpMatch,
    MatchAny,
    NetMatch,
    Not,
    Or,
    PortMatch,
    ProtoMatch,
    RouterMatch,
)
from repro.flows.table import FlowTable

__all__ = [
    "MAX_DICT_VALUES",
    "ZONE_COLUMNS",
    "INDEX_VERSION",
    "ColumnZone",
    "FeatureIndex",
    "index_histograms",
    "ZoneMap",
    "encode_index",
    "decode_index",
]

#: Value dictionaries are kept only up to this many distinct values.
MAX_DICT_VALUES = 64

#: Columns indexed per partition (the five mining features + router).
ZONE_COLUMNS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "router",
)

#: Version of the ``.idx`` byte layout.
INDEX_VERSION = 1


@dataclass(frozen=True, slots=True)
class ColumnZone:
    """Summary of one integer column over a partition."""

    min: int
    max: int
    distinct: int
    #: Sorted value dictionary, or ``None`` when cardinality exceeds
    #: :data:`MAX_DICT_VALUES`.
    values: tuple[int, ...] | None

    @classmethod
    def from_values(cls, unique: np.ndarray) -> "ColumnZone":
        """Summary of a column given its sorted distinct values."""
        return cls(
            min=int(unique[0]),
            max=int(unique[-1]),
            distinct=len(unique),
            values=(
                tuple(unique.tolist())
                if len(unique) <= MAX_DICT_VALUES
                else None
            ),
        )

    # -- partition-level predicates ---------------------------------------

    def may_contain(self, wanted) -> bool:
        """Could any row hold one of ``wanted``? (exact with a dict)"""
        if self.values is not None:
            pool = set(self.values)
            return any(value in pool for value in wanted)
        return any(self.min <= value <= self.max for value in wanted)

    def may_satisfy(self, comparator: str, bound: float) -> bool:
        """Could ``value <comparator> bound`` hold for any row?"""
        if comparator in ("=", "=="):
            return self.may_contain((bound,))
        if comparator == "!=":
            return not (self.min == self.max == bound)
        if comparator == "<":
            return self.min < bound
        if comparator == "<=":
            return self.min <= bound
        if comparator == ">":
            return self.max > bound
        if comparator == ">=":
            return self.max >= bound
        return True  # unknown comparator: never prune

    def may_intersect_prefix(self, network: int, mask: int) -> bool:
        """Could any row fall inside CIDR ``network/mask``?"""
        if self.values is not None:
            return any(
                (value & mask) == network for value in self.values
            )
        low, high = network, network | (0xFFFFFFFF ^ mask)
        return not (self.max < low or self.min > high)


def index_histograms(
    table: FlowTable, *weights: str
) -> dict[str, tuple[np.ndarray, ...]]:
    """One :func:`~repro.flows.aggregate.value_histogram` per
    :data:`ZONE_COLUMNS` column: ``(values, flows, packet sums, *sums
    of the named weight columns)``. The body of
    :meth:`FeatureIndex.from_table`, and a sealed stream window's one
    count, which its partition index and its detectors both read."""
    sums = [
        np.ascontiguousarray(table.column(name))
        for name in ("packets", *weights)
    ]
    return {
        name: value_histogram(table.column(name), *sums)
        for name in ZONE_COLUMNS
    }


class FeatureIndex:
    """Per-column value histograms of one partition.

    For every indexed column: the sorted distinct values, the flow
    count per value and the packet sum per value — enough to answer
    any flows- or packets-weighted ranking over the partition without
    reading it. Exact integers throughout; merging indexes is
    addition.
    """

    __slots__ = ("_columns",)

    def __init__(
        self,
        columns: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self._columns = columns

    @classmethod
    def from_table(cls, table: FlowTable) -> "FeatureIndex":
        """The partition's one index pass: one sort per column."""
        return cls(index_histograms(table))

    def histogram(
        self, column: str, by_packets: bool = False
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(values, int64 counts)`` of one column; ``None`` if absent."""
        entry = self._columns.get(column)
        if entry is None:
            return None
        values, flows, packet_sums = entry
        counts = packet_sums if by_packets else flows
        return values, counts.astype(np.int64, copy=False)

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def column_zones(self) -> dict[str, ColumnZone]:
        """The zone map's per-column summaries, read off the values."""
        return {
            name: ColumnZone.from_values(values)
            for name, (values, _flows, _packets) in self._columns.items()
        }

    @classmethod
    def from_json(cls, text: str, source: object = "") -> "FeatureIndex":
        """Parse a legacy ``.fidx.json`` document."""
        try:
            data = json.loads(text)
            if data["version"] != 1:
                raise ValueError(f"version {data['version']}, not 1")
            columns = {
                name: tuple(
                    np.asarray(entry[part], dtype=np.int64)
                    for part in ("values", "flows", "packets")
                )
                for name, entry in data["columns"].items()
            }
            if any(len({len(a) for a in c}) != 1 for c in columns.values()):
                raise ValueError("ragged columns")
            return cls(columns)
        except (ValueError, KeyError, TypeError) as exc:
            where = f"{source}: " if source else ""
            raise ArchiveError(
                f"{where}corrupt feature index: {exc}"
            ) from exc


#: Zone-map fields serialised by name, in the sidecar head.
_HEAD_SCALARS = (
    "rows", "min_start", "max_start", "min_end", "max_end",
    "min_duration", "max_duration", "min_packets", "max_packets",
    "min_bytes", "max_bytes", "sum_packets", "sum_bytes", "flags_union",
    "sealed", "sorted",
)


@dataclass(frozen=True, slots=True)
class ZoneMap:
    """The queryable summary of one partition."""

    rows: int
    min_start: float
    max_start: float
    min_end: float
    max_end: float
    min_duration: float
    max_duration: float
    min_packets: int
    max_packets: int
    min_bytes: int
    max_bytes: int
    sum_packets: int
    sum_bytes: int
    flags_union: int
    columns: Mapping[str, ColumnZone] = field(default_factory=dict)
    #: A sealed partition is immutable: compaction never rewrites it.
    sealed: bool = False
    #: Rows are sorted by start time: :meth:`from_table` checks it,
    #: no caller asserts it, so a reader may bisect on it.
    sorted: bool = False
    #: File names this partition superseded (compaction provenance;
    #: a reader drops any live partition named here).
    replaces: tuple[str, ...] = ()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: FlowTable,
        features: FeatureIndex | None = None,
        sealed: bool = False,
        replaces: tuple[str, ...] = (),
    ) -> "ZoneMap":
        """Summarise ``table``; the per-column zones are read off
        ``features`` (its :class:`FeatureIndex`, built when not given)."""
        if not len(table):
            raise ArchiveError("refusing to zone-map an empty partition")
        if features is None:
            features = FeatureIndex.from_table(table)
        starts, ends = table.start, table.end
        durations = ends - starts
        return cls(
            rows=len(table),
            min_start=float(starts.min()),
            max_start=float(starts.max()),
            min_end=float(ends.min()),
            max_end=float(ends.max()),
            min_duration=float(durations.min()),
            max_duration=float(durations.max()),
            min_packets=int(table.packets.min()),
            max_packets=int(table.packets.max()),
            min_bytes=int(table.bytes.min()),
            max_bytes=int(table.bytes.max()),
            sum_packets=table.total_packets(),
            sum_bytes=table.total_bytes(),
            flags_union=int(np.bitwise_or.reduce(table.tcp_flags)),
            columns=features.column_zones(),
            sealed=sealed,
            sorted=bool((starts[1:] >= starts[:-1]).all()),
            replaces=tuple(replaces),
        )

    # -- deserialisation ---------------------------------------------------

    @classmethod
    def _from_head(cls, head: dict, columns: dict) -> "ZoneMap":
        """A zone map from its serialised scalars — the ``.idx`` head
        and the legacy ``.zone.json`` share the field names — and its
        per-column zones. A ``shard_spec`` key, null or not, is
        ignored."""
        return cls(
            **{name: head[name] for name in _HEAD_SCALARS},
            columns=columns,
            replaces=tuple(head["replaces"]),
        )

    @classmethod
    def from_json(cls, text: str, source: object = "") -> "ZoneMap":
        """Parse a legacy ``.zone.json`` document."""
        try:
            data = json.loads(text)
            return cls._from_head(data, {
                name: ColumnZone(
                    zone["min"], zone["max"], zone["distinct"],
                    None if zone["values"] is None
                    else tuple(zone["values"]),
                )
                for name, zone in data["columns"].items()
            })
        except (ValueError, KeyError, TypeError) as exc:
            where = f"{source}: " if source else ""
            raise ArchiveError(
                f"{where}corrupt zone map: {exc}"
            ) from exc

    # -- pruning -----------------------------------------------------------

    def overlaps_window(self, start: float, end: float) -> bool:
        """Could any row *start* inside ``[start, end)``?"""
        return self.max_start >= start and self.min_start < end

    def covered_by_window(self, start: float, end: float) -> bool:
        """Do *all* rows start inside ``[start, end)``? (no time mask
        needed — the partition serves as one zero-copy mmap view)"""
        return self.min_start >= start and self.max_start < end

    def may_match(self, node: FilterNode) -> bool:
        """Could any row match the filter? Sound, not complete."""
        if isinstance(node, And):
            return all(self.may_match(child) for child in node.children)
        if isinstance(node, Or):
            return any(self.may_match(child) for child in node.children)
        if isinstance(node, MatchAny):
            return True
        if isinstance(node, Not):
            # Complement pruning needs "all rows match child", which
            # zone summaries cannot assert in general — never prune.
            return True
        if isinstance(node, IpMatch):
            return self._membership(
                node.direction, "src_ip", "dst_ip", node.addresses
            )
        if isinstance(node, NetMatch):
            network = int(node.prefix.network)
            mask = int(node.prefix.mask)
            sides = self._sides(node.direction, "src_ip", "dst_ip")
            return any(
                self.columns[side].may_intersect_prefix(network, mask)
                for side in sides
            )
        if isinstance(node, PortMatch):
            sides = self._sides(node.direction, "src_port", "dst_port")
            if node.comparator is None:
                return any(
                    self.columns[side].may_contain(node.ports)
                    for side in sides
                )
            (bound,) = node.ports
            return any(
                self.columns[side].may_satisfy(node.comparator, bound)
                for side in sides
            )
        if isinstance(node, ProtoMatch):
            return self.columns["proto"].may_contain((node.proto,))
        if isinstance(node, RouterMatch):
            return self.columns["router"].may_contain((node.router,))
        if isinstance(node, CounterMatch):
            bounds = {
                "packets": (self.min_packets, self.max_packets),
                "bytes": (self.min_bytes, self.max_bytes),
                "duration": (self.min_duration, self.max_duration),
            }.get(node.field)
            if bounds is None:
                return True
            zone = ColumnZone(
                min=bounds[0], max=bounds[1], distinct=2, values=None
            )
            return zone.may_satisfy(node.comparator, node.value)
        if isinstance(node, FlagsMatch):
            return (self.flags_union & node.flags) == node.flags
        return True  # unknown node type: never prune

    def _sides(
        self, direction: Direction, src: str, dst: str
    ) -> tuple[str, ...]:
        if direction is Direction.SRC:
            return (src,)
        if direction is Direction.DST:
            return (dst,)
        return (src, dst)

    def _membership(
        self, direction: Direction, src: str, dst: str, wanted
    ) -> bool:
        return any(
            self.columns[side].may_contain(wanted)
            for side in self._sides(direction, src, dst)
        )


# -- the .idx sidecar ---------------------------------------------------------

_MAGIC = b"RIDX"
_PREFIX = struct.Struct("<4sII")  # magic, version, head length
_CRC = struct.Struct("<I")


def _narrowed(counts: np.ndarray) -> np.ndarray:
    """``counts`` at the narrowest little-endian dtype that holds them."""
    if counts.min() < 0:  # wrapped wire counters: keep them signed
        return counts.astype("<i8")
    narrow = np.min_scalar_type(int(counts.max()))
    return counts.astype(narrow.newbyteorder("<"))


def encode_index(zone: ZoneMap, features: FeatureIndex) -> bytes:
    """The ``.idx`` file of one partition (layout: module docstring)."""
    table, arrays = [], []
    for name, (values, flows, packets) in features._columns.items():
        column = (
            values.astype(values.dtype.newbyteorder("<"), copy=False),
            _narrowed(flows),
            _narrowed(packets),
        )
        table.append(
            [name, len(values), *(array.dtype.str for array in column)]
        )
        arrays.extend(array.tobytes() for array in column)
    head = {name: getattr(zone, name) for name in _HEAD_SCALARS}
    # Always null: builds that wrote hash-sharded archives read a
    # sidecar only when this key is present, and it keeps every
    # unsharded ``.idx`` byte-identical to theirs.
    head["shard_spec"] = None
    head["replaces"] = zone.replaces
    head["columns"] = table
    head_bytes = json.dumps(head, separators=(",", ":")).encode()
    body = b"".join((
        _PREFIX.pack(_MAGIC, INDEX_VERSION, len(head_bytes)),
        head_bytes,
        *arrays,
    ))
    return body + _CRC.pack(zlib.crc32(body))


def decode_index(
    blob: bytes, source: object = ""
) -> tuple[ZoneMap, FeatureIndex]:
    """Parse one ``.idx`` file; the arrays are views over ``blob``.

    Raises :class:`~repro.errors.ArchiveError` for anything torn —
    short, checksum-failing or structurally inconsistent — and
    :class:`~repro.errors.CodecError` for an intact sidecar of a
    foreign layout version.
    """
    where = f"{source}: " if source else ""
    end = len(blob) - _CRC.size
    if end < _PREFIX.size:
        raise ArchiveError(f"{where}truncated index sidecar")
    if zlib.crc32(memoryview(blob)[:end]) != _CRC.unpack_from(blob, end)[0]:
        raise ArchiveError(f"{where}index sidecar fails its checksum")
    magic, version, head_length = _PREFIX.unpack_from(blob)
    if magic != _MAGIC:
        raise ArchiveError(f"{where}not an index sidecar")
    if version != INDEX_VERSION:
        raise CodecError(
            f"{where}index sidecar version {version}; this build "
            f"reads version {INDEX_VERSION}"
        )
    try:
        offset = _PREFIX.size + head_length
        head = json.loads(blob[_PREFIX.size:offset])
        columns = {}
        for name, length, *dtypes in head["columns"]:
            arrays = []
            for code in dtypes:
                dtype = np.dtype(code)
                if dtype.kind not in "ui" or length < 1:
                    raise ValueError(f"bad column table entry {name!r}")
                arrays.append(np.frombuffer(blob, dtype, length, offset))
                offset += length * dtype.itemsize
            values, flows, packets = arrays
            columns[name] = (values, flows, packets)
        if offset != end:
            raise ValueError("arrays do not fill the file")
        features = FeatureIndex(columns)
        zone = ZoneMap._from_head(head, features.column_zones())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ArchiveError(
            f"{where}corrupt index sidecar: {exc}"
        ) from exc
    return zone, features
