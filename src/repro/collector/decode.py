"""Wire plans and datagram parsing: NetFlow v5, v9 and IPFIX.

All three formats decode through one mechanism. A :class:`WirePlan` is
a big-endian numpy record dtype over the wire bytes plus a *column
program* that copies each mapped element into its ``FLOW_DTYPE``
column — masked or clamped so hostile values can never violate
``FlowTable`` bounds — converts uptime/second/millisecond time
elements and fills the ``sampling_rate``, start and end defaults. v5
is the plan of the fixed 48-byte record (``V5_RECORD_DTYPE``, declared
in :mod:`repro.flows.netflow_v5`), built at import; v9/IPFIX plans are
compiled once per distinct ``Template.fields`` layout and cached with
a bound, so a template refresh never recompiles and a redefined layout
is simply another plan. Any field length compiles: 1/2/4/8 bytes are
native fields, odd and wider ones are assembled from native pieces to
what ``int.from_bytes`` plus the mask/clamp gives, unmapped and
enterprise elements are padding.

:func:`decode_datagram` is header arithmetic only. It parses the export
header, walks the sets — templates stream in the same UDP channel as
data, so a per-exporter :class:`TemplateCache` remembers definitions
and buffers (bounded, with an expiry sweep) data sets that arrive
before their template — and returns the records it found as
:class:`Region` values: record bytes, their plan, and a count that is
``len(region) // record_size``. The column work is deferred to
:func:`decode_regions`, which runs each plan once over the joined
bytes of its regions and scatters the rows back into arrival order:
once per chunk in the batcher, once per datagram behind
``DecodedDatagram.rows``.

Timestamp convention: ``boot_time + sysuptime_ms / 1000.0`` for
uptime-relative fields (v5 first/last, v9 FIRST/LAST_SWITCHED),
absolute values passed through for IPFIX millisecond/second elements.
The ``.rpv5`` file reader (:func:`repro.flows.flowio.iter_binary_tables`)
decodes through :func:`decode_datagram` and :func:`decode_regions`
too, so a replayed capture decodes to byte-identical rows whichever
of the two consumed it.

Encoders for v9/IPFIX live here too. Production only receives, but
the golden-datagram fixtures, the Hypothesis roundtrip suite and the
loopback benchmark all need to *produce* well-formed template and
data sets, and keeping the two directions adjacent is the cheapest
way to keep them honest.
"""

from __future__ import annotations

import functools
import logging
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import CodecError
from repro.flows import netflow_v5 as v5
from repro.flows.table import FLOW_DTYPE

__all__ = [
    "NETFLOW_V9_VERSION",
    "IPFIX_VERSION",
    "V9_HEADER_SIZE",
    "IPFIX_HEADER_SIZE",
    "ELEMENT_COLUMNS",
    "DecodedDatagram",
    "Header",
    "Region",
    "Template",
    "TemplateCache",
    "WirePlan",
    "V5_PLAN",
    "compile_plan",
    "parse_header",
    "decode_datagram",
    "decode_regions",
    "encode_v9_datagram",
    "encode_ipfix_datagram",
    "encode_template_set",
    "encode_data_set",
]

logger = logging.getLogger(__name__)

NETFLOW_V9_VERSION = 9
IPFIX_VERSION = 10

#: v9: version(2) count(2) sys_uptime(4) unix_secs(4) sequence(4) source_id(4)
_V9_HEADER = struct.Struct("!HHIIII")
V9_HEADER_SIZE = _V9_HEADER.size  # 20

#: IPFIX: version(2) length(2) export_time(4) sequence(4) domain(4)
_IPFIX_HEADER = struct.Struct("!HHIII")
IPFIX_HEADER_SIZE = _IPFIX_HEADER.size  # 16

_SET_HEADER = struct.Struct("!HH")  # set_id(2) length(2)

#: The set length is 16 bits, so no data set carries more record bytes.
_MAX_SET_PAYLOAD = 0xFFFF - _SET_HEADER.size

#: Set ids below this are reserved; data sets reference template ids
#: from 256 up (RFC 7011 §3.4.3 / Cisco v9 spec).
MIN_TEMPLATE_ID = 256

# Reserved set ids: (template set, options-template set) per version.
_V9_TEMPLATE_SET = 0
_V9_OPTIONS_SET = 1
_IPFIX_TEMPLATE_SET = 2
_IPFIX_OPTIONS_SET = 3

#: IPFIX enterprise bit on the field type (RFC 7011 §3.2).
_ENTERPRISE_BIT = 0x8000

#: IANA information elements → ``FLOW_DTYPE`` columns. Direct integer
#: copies; timestamp elements (21/22/150-153) are handled specially.
ELEMENT_COLUMNS: dict[int, str] = {
    1: "bytes",          # octetDeltaCount / IN_BYTES
    2: "packets",        # packetDeltaCount / IN_PKTS
    4: "proto",          # protocolIdentifier
    6: "tcp_flags",      # tcpControlBits
    7: "src_port",       # sourceTransportPort
    8: "src_ip",         # sourceIPv4Address
    10: "router",        # ingressInterface / INPUT_SNMP
    11: "dst_port",      # destinationTransportPort
    12: "dst_ip",        # destinationIPv4Address
    34: "sampling_rate",  # samplingInterval
}

#: Time elements → (``start``/``end``, divisor to seconds, relative
#: to ``boot_time``): sysuptime ms, epoch seconds, epoch ms.
_TIME_ELEMENTS = {
    21: ("end", 1000.0, True),     # LAST_SWITCHED
    22: ("start", 1000.0, True),   # FIRST_SWITCHED
    150: ("start", 1.0, False),    # flowStartSeconds
    151: ("end", 1.0, False),      # flowEndSeconds
    152: ("start", 1000.0, False),  # flowStartMilliseconds
    153: ("end", 1000.0, False),   # flowEndMilliseconds
}

#: Clamp masks/ceilings per column so hostile wire values can never
#: violate ``FlowTable`` column bounds (the listener must not raise).
_COLUMN_MASKS = {
    "src_ip": 0xFFFFFFFF,
    "dst_ip": 0xFFFFFFFF,
    "src_port": 0xFFFF,
    "dst_port": 0xFFFF,
    "proto": 0xFF,
    "tcp_flags": 0xFF,
    "router": 0xFFFFFFFF,
    "sampling_rate": 0xFFFFFFFF,
}
_I64_MAX = 2**63 - 1
#: Time elements wider than 8 bytes saturate here instead of
#: overflowing the float conversion.
_U64_MAX = 2**64 - 1

#: v5 record fields that carry an IANA element (first/last are
#: sysuptime ms, like v9's FIRST/LAST_SWITCHED).
_V5_ELEMENTS = {
    "src_ip": 8, "dst_ip": 12, "input": 10, "packets": 2, "octets": 1,
    "first": 22, "last": 21, "src_port": 7, "dst_port": 11,
    "tcp_flags": 6, "proto": 4,
}


# -- wire plans ---------------------------------------------------------------


class _Element(NamedTuple):
    """One mapped wire element inside a plan's record dtype."""

    #: ``(native sub-field, left shift)`` over the element's low
    #: bytes, high to low; none for a zero-length field (reads as 0).
    pieces: tuple[tuple[str, int], ...]
    #: Set when the field is wider than its column.
    mask: int | None
    #: Where a 64-bit target saturates, and the ``u1`` sub-array of
    #: the bytes above the low 8: any bit there exceeds every ceiling.
    ceiling: int | None
    overflow: str | None
    #: ``(divisor, relative)`` of a time element, else None.
    time: tuple[float, bool] | None

    def read(self, wire: np.ndarray, boot_time: float):
        """The element of every record: bounded integers, or seconds."""
        if len(self.pieces) == 1:
            value = wire[self.pieces[0][0]]
        else:
            value = 0
            for name, shift in self.pieces:
                value = value | (
                    wire[name].astype(np.uint64) << np.uint64(shift)
                )
        if self.mask is not None:
            value = value & self.mask
        if self.ceiling is not None:
            ceiling = np.uint64(self.ceiling)
            value = np.minimum(value, ceiling)
            if self.overflow is not None:
                value = np.where(
                    wire[self.overflow].any(axis=1), ceiling, value
                )
        if self.time is None:
            return value
        divisor, relative = self.time
        return boot_time + value / divisor if relative else value / divisor


class WirePlan:
    """The record dtype of one field layout plus its column program.

    ``fields`` are ``(element_id, length)`` pairs in wire order, any
    length. Unmapped and enterprise elements are padding; a later
    duplicate of an element wins, as it would in a per-record loop
    assigning in wire order.
    """

    __slots__ = ("dtype", "elements")

    def __init__(self, fields: tuple[tuple[int, int], ...]) -> None:
        names: list[str] = []
        formats: list = []
        offsets: list[int] = []

        def declare(fmt, at: int) -> str:
            names.append(f"f{len(names)}")
            formats.append(fmt)
            offsets.append(at)
            return names[-1]

        #: ``FLOW_DTYPE`` column → element, mapped columns only.
        self.elements: dict[str, _Element] = {}
        offset = 0
        for element, length in fields:
            where, offset = offset, offset + length
            column, *time = _TIME_ELEMENTS.get(element) \
                or (ELEMENT_COLUMNS.get(element),)
            if column is None:
                continue
            bound = _COLUMN_MASKS.get(column)
            wide = bound is None  # int64 counter or float64 time
            # Only the low bytes survive a mask; 64-bit targets keep 8.
            low = min(length, 8 if wide else 4)
            at, left, pieces = where + length - low, low, []
            for size in (8, 4, 2, 1):
                if low & size:
                    left -= size
                    pieces.append((declare(f">u{size}", at), 8 * left))
                    at += size
            mask = None if wide or 8 * low <= bound.bit_length() else bound
            overflow = declare(("u1", (length - 8,)), where) \
                if wide and length > 8 else None
            ceiling = None
            if overflow or (wide and not time and low == 8):
                ceiling = _U64_MAX if time else _I64_MAX
            self.elements[column] = _Element(
                tuple(pieces), mask, ceiling, overflow,
                tuple(time) or None,
            )
        self.dtype = np.dtype({
            "names": names, "formats": formats, "offsets": offsets,
            "itemsize": offset,
        })

    def decode(
        self, blob: bytes, boot_time: float, sampling=1, export_secs=0
    ) -> tuple[np.ndarray, int]:
        """Rows of the whole records in ``blob``, and how many of them
        had an ``end`` before their ``start`` clamped up to it.

        ``sampling`` and ``export_secs`` are the header values that
        stand in for missing elements, scalars or one per record.
        """
        wire = np.frombuffer(blob, dtype=self.dtype)
        values = {
            column: element.read(wire, boot_time)
            for column, element in self.elements.items()
        }
        if "sampling_rate" in values:  # unsampled exporters encode 0
            sampling = np.maximum(values["sampling_rate"], 1)
        values["sampling_rate"] = sampling
        if "start" not in values:
            values["start"] = values["end"] if "end" in values \
                else np.asarray(export_secs, "f8")
        values.setdefault("end", values["start"])
        # A sysUptime wrap between FIRST_ and LAST_SWITCHED reads as a
        # flow that ends before it starts. The row is kept, with zero
        # duration, and counted: FlowRecord would refuse it later.
        clamped = int(np.count_nonzero(values["end"] < values["start"]))
        if clamped:
            values["end"] = np.maximum(values["end"], values["start"])
        out = np.zeros(len(wire), dtype=FLOW_DTYPE)
        for column, value in values.items():
            out[column] = value
        return out, clamped


#: One plan per distinct layout, bounded: a template refresh never
#: recompiles, a redefined layout is simply a different plan.
compile_plan = functools.lru_cache(maxsize=256)(WirePlan)

V5_PLAN = compile_plan(tuple(
    (_V5_ELEMENTS.get(name, -1), v5.V5_RECORD_DTYPE[name].itemsize)
    for name in v5.V5_RECORD_DTYPE.names
))


class Region(NamedTuple):
    """Whole records of one plan, as found in one datagram, with the
    header values the plan may need as defaults."""

    plan: WirePlan
    payload: bytes
    count: int
    sampling: int = 1
    export_secs: int = 0

    def split(self, count: int) -> tuple["Region", "Region"]:
        """The first ``count`` records and the rest."""
        cut = count * self.plan.dtype.itemsize
        return (
            self._replace(payload=self.payload[:cut], count=count),
            self._replace(
                payload=self.payload[cut:], count=self.count - count
            ),
        )


def decode_regions(
    regions: Sequence[Region], boot_time: float
) -> tuple[np.ndarray, int]:
    """``FLOW_DTYPE`` rows of ``regions``, in their (arrival) order,
    and the number of rows whose ``end`` was clamped up to ``start``.

    Each distinct plan runs once over the concatenated bytes of its
    regions; with more than one plan the blocks are scattered back to
    where their regions sit in the sequence.
    """
    groups: dict[WirePlan, tuple[list[Region], list[int]]] = {}
    total = clamped = 0
    for region in regions:
        members, starts = groups.setdefault(region.plan, ([], []))
        members.append(region)
        starts.append(total)
        total += region.count
    out = np.empty(total, dtype=FLOW_DTYPE)
    # Rows move as opaque bytes: a fancy-indexed structured assignment
    # copies field by field, an order of magnitude slower.
    opaque = np.dtype((np.void, FLOW_DTYPE.itemsize))
    for plan, (members, starts) in groups.items():
        counts = np.array([region.count for region in members])
        block, inverted = plan.decode(
            b"".join([region.payload for region in members]),
            boot_time,
            np.repeat([region.sampling for region in members], counts),
            np.repeat([region.export_secs for region in members], counts),
        )
        clamped += inverted
        if len(groups) == 1:
            return block, clamped
        packed = np.cumsum(counts) - counts
        out.view(opaque)[
            np.repeat(np.array(starts) - packed, counts)
            + np.arange(len(block))
        ] = block.view(opaque)
    return out, clamped


# -- decoded datagrams, templates ---------------------------------------------


@dataclass(slots=True)
class DecodedDatagram:
    """One datagram's record regions plus accounting facts.

    ``seq``/``seq_units`` feed per-exporter loss detection: the next
    datagram from the same exporter is expected to carry sequence
    ``seq + seq_units``. Units differ by format — v5 counts flows,
    v9 counts export packets, IPFIX counts data records. When the
    decoder could not establish how many records the exporter actually
    sent (IPFIX data buffered without its template, or a data set no
    whole record of its template fits in), ``seq_reliable`` is False
    and the tracker re-baselines instead of counting a phantom gap.

    ``flows`` is header arithmetic; ``rows`` runs the plans on first
    use (the listener never asks — the batcher decodes whole chunks).
    """

    version: int
    domain: int
    seq: int
    seq_units: int
    regions: list[Region] = field(default_factory=list)
    boot_time: float = 0.0
    flows: int = 0
    malformed: int = 0
    seq_reliable: bool = True
    template_sets: int = 0
    buffered_sets: int = 0
    dropped_sets: int = 0
    _rows: np.ndarray | None = field(default=None, repr=False)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows = decode_regions(self.regions, self.boot_time)[0]
        return self._rows


@dataclass(frozen=True)
class Template:
    """A decoded v9/IPFIX template: field layout of one record shape."""

    template_id: int
    #: ``(element_id, length)`` pairs in wire order; enterprise-scoped
    #: IPFIX elements carry ``element_id = -1`` (decoded and skipped).
    fields: tuple[tuple[int, int], ...]

    @functools.cached_property
    def record_size(self) -> int:
        return sum(length for _, length in self.fields)

    @functools.cached_property
    def plan(self) -> WirePlan:
        return compile_plan(self.fields)


class TemplateCache:
    """Per-exporter template store with a bounded pending-set buffer.

    Data sets that reference an unknown template are remembered (raw
    bytes plus their header context) until either the template arrives
    — at which point :meth:`install` returns them for decoding — or
    they age out / overflow the bound and are dropped with a count.
    """

    def __init__(
        self,
        max_pending: int = 32,
        pending_expiry: float = 300.0,
    ) -> None:
        self.templates: dict[int, Template] = {}
        self.max_pending = max_pending
        self.pending_expiry = pending_expiry
        #: ``template_id -> [(deadline, payload, header_ctx), ...]``
        self._pending: dict[int, list[tuple[float, bytes, tuple]]] = {}
        self._pending_count = 0
        self.dropped = 0

    def get(self, template_id: int) -> Template | None:
        return self.templates.get(template_id)

    def install(
        self, template: Template
    ) -> list[tuple[bytes, tuple]]:
        """Store a template; return buffered sets now decodable.

        A refresh that repeats the known layout keeps the known
        object. A new layout no data set can hold a record of (an
        IPFIX variable-length field, say) is logged here, once; its
        data sets are then counted malformed one by one.
        """
        if self.templates.get(template.template_id) != template:
            self.templates[template.template_id] = template
            if template.record_size > _MAX_SET_PAYLOAD:
                logger.warning(
                    "template %d: %d-byte records exceed every data "
                    "set (variable-length field?); its data sets "
                    "will be counted malformed",
                    template.template_id, template.record_size,
                )
        ready = self._pending.pop(template.template_id, [])
        self._pending_count -= len(ready)
        return [(payload, ctx) for _, payload, ctx in ready]

    def buffer(
        self, template_id: int, payload: bytes, ctx: tuple, now: float
    ) -> bool:
        """Hold a data set until its template shows up.

        Returns False (and counts a drop) when the per-exporter bound
        is already full — an exporter that never sends templates must
        not grow memory without limit.
        """
        if self._pending_count >= self.max_pending:
            self.dropped += 1
            return False
        deadline = now + self.pending_expiry
        self._pending.setdefault(template_id, []).append(
            (deadline, payload, ctx)
        )
        self._pending_count += 1
        return True

    def sweep(self, now: float) -> int:
        """Drop pending sets past their deadline; returns the count."""
        expired = 0
        for tid in list(self._pending):
            kept = [
                item for item in self._pending[tid] if item[0] > now
            ]
            expired += len(self._pending[tid]) - len(kept)
            if kept:
                self._pending[tid] = kept
            else:
                del self._pending[tid]
        self._pending_count -= expired
        self.dropped += expired
        return expired

    @property
    def pending_count(self) -> int:
        return self._pending_count


# -- datagram parsing ---------------------------------------------------------


class Header(NamedTuple):
    """The export header of any supported datagram, parsed once.

    ``domain`` is v9's ``source_id``, the IPFIX observation domain,
    for v5 the analog ``engine_type << 8 | engine_id``; ``count`` is
    v5's declared record count; ``sampling`` is v5's interval, 1 when
    unsampled; ``body``/``limit`` bound the records or sets.
    """

    version: int
    domain: int
    seq: int
    count: int
    export_secs: int
    sampling: int
    body: int
    limit: int


_HEADERS = {
    v5.NETFLOW_V5_VERSION: v5._HEADER,
    NETFLOW_V9_VERSION: _V9_HEADER,
    IPFIX_VERSION: _IPFIX_HEADER,
}


def parse_header(data: bytes) -> Header:
    """Parse the export header; raises :class:`CodecError` on a runt,
    a truncated header or an unsupported version."""
    if len(data) < 2:
        raise CodecError(
            f"runt datagram: {len(data)} bytes < version field"
        )
    version = (data[0] << 8) | data[1]
    layout = _HEADERS.get(version)
    if layout is None:
        raise CodecError(f"unsupported NetFlow version {version}")
    size, limit = layout.size, len(data)
    if limit < size:
        raise CodecError(
            f"truncated v{version} header: {limit} bytes < {size}"
        )
    words = layout.unpack_from(data, 0)
    count, sampling = 0, 1
    if version == v5.NETFLOW_V5_VERSION:
        (_, count, _, secs, _, seq, engine_type, engine_id, mode) = words
        domain = (engine_type << 8) | engine_id
        if mode >> 14:
            sampling = mode & v5._SAMPLING_INTERVAL_MASK or 1
    elif version == NETFLOW_V9_VERSION:
        (_, _, _, secs, seq, domain) = words
    else:
        (_, length, secs, seq, domain) = words
        limit = min(limit, length)
    return Header(
        version, domain, seq, count, secs, sampling, size, limit
    )


def _parse_templates(
    payload: bytes, ipfix: bool
) -> tuple[list[Template], int]:
    """Parse a template set body; returns templates + malformed count."""
    templates: list[Template] = []
    malformed = 0
    offset = 0
    # Trailing padding shorter than a template header is legal.
    while offset + 4 <= len(payload):
        template_id, field_count = struct.unpack_from(
            "!HH", payload, offset
        )
        offset += 4
        if template_id == 0 and field_count == 0:
            break  # padding
        fields: list[tuple[int, int]] = []
        ok = True
        for _ in range(field_count):
            if offset + 4 > len(payload):
                ok = False
                break
            ftype, flen = struct.unpack_from("!HH", payload, offset)
            offset += 4
            if ipfix and ftype & _ENTERPRISE_BIT:
                if offset + 4 > len(payload):
                    ok = False
                    break
                offset += 4  # enterprise number: decoded past, ignored
                ftype = -1
            fields.append((ftype, flen))
        if not ok or template_id < MIN_TEMPLATE_ID:
            malformed += 1
            break
        template = Template(template_id, tuple(fields))
        if template.record_size == 0:
            malformed += 1
            continue
        templates.append(template)
    return templates, malformed


def decode_datagram(
    data: bytes,
    boot_time: float = 0.0,
    cache: TemplateCache | None = None,
    now: float = 0.0,
    header: Header | None = None,
) -> DecodedDatagram:
    """Parse one datagram of any supported format (v5 needs no cache).

    ``header`` is ``parse_header(data)`` when the caller already has
    it (the listener keys the exporter, hence the cache, on it).

    v9/IPFIX sets are processed in wire order. A data set whose
    template is unknown is buffered in ``cache`` (bounded); a template
    arrival immediately stages whatever it unblocks, so out-of-order
    template/data interleavings converge to the same rows. Anything
    shorter than one record at the tail of a data set is padding (RFC
    7011 allows up to 3 bytes; broken exporters pad more — tolerated),
    but a data set without one whole record is malformed.
    """
    version, domain, seq, count, export_secs, sampling, offset, limit = \
        header or parse_header(data)
    result = DecodedDatagram(
        version=version, domain=domain, seq=seq, seq_units=1,
        boot_time=boot_time,
    )
    if version == v5.NETFLOW_V5_VERSION:
        # Truncated trailing records are counted, never raised. v5
        # sequences count flows as the *exporter* emitted them —
        # records lost to truncation were still sent, so the declared
        # count (not the decoded count) advances the expectation.
        whole = min(count, (limit - offset) // v5.RECORD_SIZE)
        result.seq_units = count
        result.malformed = count - whole
        if whole:
            result.flows = whole
            result.regions.append(Region(
                V5_PLAN, data[offset:offset + whole * v5.RECORD_SIZE],
                whole, sampling,
            ))
        return result
    if cache is None:
        raise CodecError("v9/IPFIX decoding needs a template cache")
    ipfix = version == IPFIX_VERSION
    template_set_id = _IPFIX_TEMPLATE_SET if ipfix else _V9_TEMPLATE_SET
    options_set_id = _IPFIX_OPTIONS_SET if ipfix else _V9_OPTIONS_SET

    def stage(payload: bytes, template: Template, secs: int) -> int:
        size = template.record_size
        records = len(payload) // size
        if records:
            result.flows += records
            result.regions.append(Region(
                template.plan, payload[:records * size], records, 1, secs
            ))
        else:
            # The exporter counted records here that we cannot.
            result.malformed += 1
            result.seq_reliable = not ipfix
        return records

    records = 0
    while offset + _SET_HEADER.size <= limit:
        set_id, set_len = _SET_HEADER.unpack_from(data, offset)
        if set_len < _SET_HEADER.size \
                or offset + set_len > limit:
            result.malformed += 1
            result.seq_reliable = not ipfix
            break
        payload = data[offset + _SET_HEADER.size:offset + set_len]
        offset += set_len
        if set_id == template_set_id:
            templates, bad = _parse_templates(payload, ipfix)
            result.malformed += bad
            result.template_sets += len(templates)
            for template in templates:
                for pending, ctx in cache.install(template):
                    stage(pending, template, ctx[0])
        elif set_id == options_set_id:
            continue  # scope/option metadata carries no flow rows
        elif set_id >= MIN_TEMPLATE_ID:
            template = cache.get(set_id)
            if template is None:
                if cache.buffer(set_id, payload, (export_secs,), now):
                    result.buffered_sets += 1
                else:
                    result.dropped_sets += 1
                if ipfix:
                    # Buffered records still advanced the exporter's
                    # sequence by an amount we cannot know yet.
                    result.seq_reliable = False
                continue
            records += stage(payload, template, export_secs)
        else:
            result.malformed += 1
    # v9 sequences count export packets; IPFIX counts data records.
    if ipfix:
        result.seq_units = records
    return result


# -- encoders (fixtures, roundtrip tests, benchmark) --------------------------


def encode_template_set(
    templates: Iterable[Template], ipfix: bool = False
) -> bytes:
    """One template set (v9 set id 0, IPFIX set id 2)."""
    body = bytearray()
    for template in templates:
        body += struct.pack(
            "!HH", template.template_id, len(template.fields)
        )
        for element, length in template.fields:
            body += struct.pack("!HH", element & 0x7FFF, length)
    set_id = _IPFIX_TEMPLATE_SET if ipfix else _V9_TEMPLATE_SET
    return _SET_HEADER.pack(set_id, 4 + len(body)) + bytes(body)


def encode_data_set(
    template: Template,
    rows: Sequence[Mapping[int, int]],
) -> bytes:
    """A data set: per row, each template element's value big-endian.

    ``rows`` maps element id → integer value; elements the row omits
    encode as zero. Values are masked to the field width (what a real
    exporter register would do).
    """
    body = bytearray()
    for row in rows:
        for element, length in template.fields:
            value = int(row.get(element, 0))
            body += (value & ((1 << (8 * length)) - 1)).to_bytes(
                length, "big"
            )
    return _SET_HEADER.pack(
        template.template_id, 4 + len(body)
    ) + bytes(body)


def encode_v9_datagram(
    sets: Sequence[bytes],
    sequence: int = 0,
    source_id: int = 0,
    sys_uptime_ms: int = 0,
    export_secs: int = 0,
    count: int | None = None,
) -> bytes:
    """Wrap encoded sets in a v9 export header."""
    if count is None:
        count = len(sets)
    return _V9_HEADER.pack(
        NETFLOW_V9_VERSION, count, sys_uptime_ms, export_secs,
        sequence & 0xFFFFFFFF, source_id,
    ) + b"".join(sets)


def encode_ipfix_datagram(
    sets: Sequence[bytes],
    sequence: int = 0,
    domain: int = 0,
    export_secs: int = 0,
) -> bytes:
    """Wrap encoded sets in an IPFIX message header."""
    body = b"".join(sets)
    return _IPFIX_HEADER.pack(
        IPFIX_VERSION, IPFIX_HEADER_SIZE + len(body), export_secs,
        sequence & 0xFFFFFFFF, domain,
    ) + body
