"""Compiled wire plans against the per-record oracle, staged chunk
decode against one-datagram decode, and fuzzing of both entry points.

* Hypothesis over random template layouts — lengths 0–16 (odd ones
  included), unmapped and enterprise elements, duplicates, missing
  start/end, ``sampling_rate`` 0 — the plan is bit-identical to
  :mod:`tests.wire_oracle`, masks and ``_I64_MAX`` clamps included;
* the chunk cases: exporters interleaved, a template redefined
  mid-chunk, an age flush of a partly filled stage;
* the uncounted-loss bug: a layout no data set can hold a record of;
* fuzz: ``st.binary()`` and byte mutations of the golden datagrams
  through ``decode_datagram`` and ``FlowCollector._on_datagram``.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.collector import ChunkBatcher, FlowCollector, TemplateCache
from repro.collector.decode import (
    _TIME_ELEMENTS,
    ELEMENT_COLUMNS,
    IPFIX_HEADER_SIZE,
    MIN_TEMPLATE_ID,
    V9_HEADER_SIZE,
    Template,
    compile_plan,
    decode_datagram,
    decode_regions,
    encode_data_set,
    encode_ipfix_datagram,
    encode_template_set,
    encode_v9_datagram,
    parse_header,
)
from repro.collector.exporters import ExporterState
from repro.errors import CodecError
from repro.flows.netflow_v5 import encode_packet
from repro.flows.table import FLOW_DTYPE, FlowTable
from tests.conftest import make_flow
from tests.wire_oracle import reference_rows

DATA = Path(__file__).parent / "data"
GOLDEN = [
    (DATA / name).read_bytes()
    for name in ("golden_v5.bin", "golden_v9.bin", "golden_ipfix.bin")
]

# -- strategies ---------------------------------------------------------------

#: Mapped columns, every time element, two unmapped IANA ids and the
#: enterprise marker the template parser leaves behind.
_elements = st.sampled_from(
    sorted(ELEMENT_COLUMNS) + sorted(_TIME_ELEMENTS) + [5, 99, -1]
)
layouts = st.lists(
    st.tuples(_elements, st.integers(0, 16)), min_size=1, max_size=10
).map(tuple).filter(lambda fields: sum(n for _, n in fields) > 0)


@st.composite
def layout_and_records(draw, max_records=6):
    """A layout plus whole records of it: random bytes, or runs of
    0x00/0xFF that sit on the mask and clamp edges."""
    fields = draw(layouts)
    size = sum(length for _, length in fields)
    count = draw(st.integers(1, max_records))
    payload = draw(st.one_of(
        st.binary(min_size=size * count, max_size=size * count),
        st.lists(
            st.sampled_from([0x00, 0xFF, 0x7F, 0x80]),
            min_size=size * count, max_size=size * count,
        ).map(bytes),
    ))
    return fields, payload


def _enterprise_template_set(template: Template) -> bytes:
    """An IPFIX template set; ``-1`` fields carry the enterprise bit
    and a private enterprise number, as on the wire."""
    body = struct.pack("!HH", template.template_id, len(template.fields))
    for element, length in template.fields:
        if element < 0:
            body += struct.pack("!HHI", 0x8000 | 77, length, 4242)
        else:
            body += struct.pack("!HH", element, length)
    return struct.pack("!HH", 2, 4 + len(body)) + body


# -- the plan is the oracle ---------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    case=layout_and_records(),
    boot_time=st.sampled_from([0.0, 1000.5, 1.7e9]),
    export_secs=st.integers(0, 2**32 - 1),
)
def test_plan_is_bit_identical_to_the_per_record_oracle(
    case, boot_time, export_secs
):
    fields, payload = case
    template = Template(300, fields)
    got, _clamped = template.plan.decode(payload, boot_time, 1, export_secs)
    want = reference_rows(payload, template, boot_time, export_secs)
    assert got.dtype == FLOW_DTYPE
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=layout_and_records(), padding=st.integers(0, 3),
       ipfix=st.booleans())
def test_datagram_decode_is_the_oracle_over_its_data_set(
    case, padding, ipfix
):
    """Through the template parser too: enterprise fields, set padding."""
    fields, payload = case
    template = Template(300, fields)
    padding = min(padding, template.record_size - 1)
    data_set = struct.pack("!HH", 300, 4 + len(payload) + padding) \
        + payload + b"\x00" * padding
    if ipfix:
        datagram = encode_ipfix_datagram(
            [_enterprise_template_set(template), data_set],
            sequence=7, domain=3, export_secs=1234,
        )
    else:
        template = Template(300, tuple(
            (element & 0x7FFF, length) for element, length in fields
        ))
        datagram = encode_v9_datagram(
            [encode_template_set([template]), data_set],
            sequence=7, source_id=3, export_secs=1234,
        )
    decoded = decode_datagram(datagram, 55.25, TemplateCache())
    want = reference_rows(payload, template, 55.25, 1234)
    assert decoded.malformed == 0
    assert decoded.flows == len(want)
    assert decoded.seq_units == (len(want) if ipfix else 1)
    assert decoded.rows.tobytes() == want.tobytes()


def test_plans_are_cached_per_layout_not_per_template():
    fields = ((8, 4), (12, 4), (1, 3))
    refresh = Template(256, fields), Template(999, fields)
    assert refresh[0].plan is refresh[1].plan is compile_plan(fields)
    assert Template(256, fields + ((2, 4),)).plan is not refresh[0].plan


def test_plan_cache_is_bounded_and_a_resent_template_keeps_its_plan():
    """Template churn: more distinct layouts than the cache holds
    arrive through the decode path, interleaved with the refresh of
    one steady template. The cache never grows past its bound, and the
    steady template decodes with the plan it compiled first."""
    limit = compile_plan.cache_info().maxsize
    cache = TemplateCache()

    def send(template: Template, salt: int):
        datagram = encode_v9_datagram(
            [encode_template_set([template]),
             encode_data_set(template, _values(template, salt, 1))],
            sequence=salt, source_id=1, export_secs=100,
        )
        decoded = decode_datagram(datagram, 5.0, cache)
        assert decoded.flows == 1
        (region,) = decoded.regions
        return region.plan

    misses = compile_plan.cache_info().misses
    steady = send(V9_LAYOUT, 0)
    for i in range(limit + 44):
        send(Template(300, ((8, 4), (99, 1 + i))), i)
        assert compile_plan.cache_info().currsize <= limit
        assert send(V9_LAYOUT, i) is steady
    assert compile_plan.cache_info().misses - misses > limit


def test_over_wide_time_field_saturates_instead_of_raising():
    """The seed raised OverflowError (through the listener) here."""
    template = Template(300, ((8, 4), (152, 200)))
    payload = b"\x01\x02\x03\x04" + b"\xff" * 200
    rows, _clamped = template.plan.decode(payload, 0.0)
    assert rows["start"][0] == rows["end"][0] == 2.0**64 / 1000.0
    assert rows.tobytes() == reference_rows(payload, template).tobytes()


# -- staged chunk decode ------------------------------------------------------

V9_LAYOUT = Template(256, (
    (8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (6, 1), (10, 2), (2, 4),
    (1, 4), (22, 4), (21, 4),
))
IPFIX_LAYOUT = Template(257, (
    (8, 4), (12, 4), (7, 3), (11, 2), (4, 1), (34, 2), (2, 8), (1, 5),
    (152, 8), (153, 8),
))


def _values(template, salt, count):
    return [
        {element: (salt * 7919 + i * 104729 + element) % (1 << 8 * length)
         for element, length in template.fields}
        for i in range(count)
    ]


def _v5(salt, count, sampling_rate=1):
    flows = [
        make_flow(sport=1 + salt + i, start=10.0 + i, end=12.0 + i)
        for i in range(count)
    ]
    return encode_packet(flows, boot_time=0.0, flow_sequence=salt,
                         engine_id=salt % 2, sampling_rate=sampling_rate)


def _v9(salt, count, template=V9_LAYOUT):
    return encode_v9_datagram(
        [encode_data_set(template, _values(template, salt, count))],
        sequence=salt, source_id=1, export_secs=100 + salt,
    )


def _ipfix(salt, count, template=IPFIX_LAYOUT):
    return encode_ipfix_datagram(
        [encode_data_set(template, _values(template, salt, count))],
        sequence=salt, domain=2, export_secs=100 + salt,
    )


class Exporters:
    """Per-exporter caches, as the listener keeps them; ``feed`` is
    what ``_on_datagram`` does between the socket and the batcher."""

    def __init__(self, batcher, boot_time=5.0):
        self.batcher = batcher
        self.boot_time = boot_time
        self.caches = {9: TemplateCache(), 10: TemplateCache()}
        self.single: list[np.ndarray] = []
        for datagram in (
            encode_v9_datagram(
                [encode_template_set([V9_LAYOUT])], source_id=1),
            encode_ipfix_datagram(
                [encode_template_set([IPFIX_LAYOUT], ipfix=True)],
                domain=2),
        ):
            self.feed(datagram)

    def feed(self, datagram):
        version = datagram[1]
        decoded = decode_datagram(
            datagram, self.boot_time, self.caches.get(version)
        )
        assert decoded.malformed == 0
        self.batcher.add(decoded.regions)
        # The same datagram through the one-datagram API, on its own.
        self.single.append(
            decode_regions(decoded.regions, self.boot_time)[0]
        )

    def expected(self) -> bytes:
        return np.concatenate(self.single).tobytes()


def _collecting_batcher(**options):
    tables: list[tuple[FlowTable, str]] = []
    batcher = ChunkBatcher(
        lambda table, reason, oldest: tables.append((table, reason)),
        boot_time=5.0, **options,
    )
    return batcher, tables


def test_interleaved_chunk_equals_one_datagram_decodes_in_arrival_order():
    batcher, tables = _collecting_batcher(chunk_rows=100_000)
    exporters = Exporters(batcher)
    for salt in range(12):
        exporters.feed(_v5(salt, 1 + salt % 30, sampling_rate=1 + salt % 3))
        exporters.feed(_v9(salt, 1 + salt % 7))
        exporters.feed(_v5(salt + 100, 30))
        exporters.feed(_ipfix(salt, 1 + salt % 5))
    assert not tables and batcher.pending_rows
    batcher.flush()
    (table, reason), = tables
    assert reason == "final"
    assert table._data.tobytes() == exporters.expected()
    # Three plans were staged, and the per-datagram scalars survived.
    assert set(table._data["sampling_rate"].tolist()) > {1, 2, 3}


def test_size_flush_splits_regions_without_reordering():
    batcher, tables = _collecting_batcher(chunk_rows=17)
    exporters = Exporters(batcher)
    for salt in range(6):
        exporters.feed(_v5(salt, 30))
        exporters.feed(_ipfix(salt, 9))
        exporters.feed(_v9(salt, 4))
    batcher.flush()
    assert [len(t) for t, _ in tables[:-1]] == [17] * (len(tables) - 1)
    got = b"".join(t._data.tobytes() for t, _ in tables)
    assert got == exporters.expected()


def test_template_redefined_mid_chunk():
    """Rows staged before the redefinition keep the old layout."""
    batcher, tables = _collecting_batcher(chunk_rows=100_000)
    exporters = Exporters(batcher)
    exporters.feed(_v9(1, 5))
    redefined = Template(256, ((12, 4), (8, 4), (1, 2), (153, 8)))
    exporters.feed(encode_v9_datagram(
        [encode_template_set([redefined])], source_id=1))
    exporters.feed(_v9(2, 5, template=redefined))
    batcher.flush()
    rows = tables[0][0]._data
    assert rows.tobytes() == exporters.expected()
    old = reference_rows(
        encode_data_set(V9_LAYOUT, _values(V9_LAYOUT, 1, 5))[4:],
        V9_LAYOUT, 5.0, 101,
    )
    new = reference_rows(
        encode_data_set(redefined, _values(redefined, 2, 5))[4:],
        redefined, 5.0, 102,
    )
    assert rows[:5].tobytes() == old.tobytes()
    assert rows[5:].tobytes() == new.tobytes()
    assert (rows["packets"][5:] == 0).all()  # dropped by the new layout


def test_age_flush_of_a_partly_filled_stage():
    clock = [0.0]
    batcher, tables = _collecting_batcher(
        chunk_rows=1000, max_batch_seconds=0.5, clock=lambda: clock[0]
    )
    exporters = Exporters(batcher)
    exporters.feed(_v5(1, 3))
    exporters.feed(_ipfix(1, 2))
    assert not batcher.poll(0.4)
    assert batcher.poll(0.6)
    assert [(len(t), r) for t, r in tables] == [(5, "age")]
    assert batcher.pending_rows == 0 and not batcher.poll(5.0)
    # The stage restarts its age clock with the next datagram.
    clock[0] = 10.0
    exporters.feed(_v9(2, 4))
    assert not batcher.poll(10.4)
    assert batcher.poll(10.5)
    assert b"".join(t._data.tobytes() for t, _ in tables) \
        == exporters.expected()


# -- the uncounted-loss bug ---------------------------------------------------


@pytest.mark.parametrize("ipfix", [False, True])
def test_layout_no_data_set_can_hold_is_counted_not_silent(ipfix, caplog):
    """A variable-length (65535) field used to install a template
    whose data sets decoded to zero rows with no counter, and whose
    IPFIX ``seq_units = 0`` booked the *next* datagram as loss."""
    template = Template(300, ((8, 4), (12, 4), (371, 65535)))
    good = Template(301, ((8, 4), (12, 4)))
    wrap = encode_ipfix_datagram if ipfix else encode_v9_datagram
    data_set = struct.pack("!HH", 300, 4 + 64) + b"\x07" * 64

    cache = TemplateCache()
    state = ExporterState(key=("10.0.0.1", 10, 0), templates=cache)
    with caplog.at_level(logging.WARNING, "repro.collector.decode"):
        for _ in range(2):  # a refresh must not log again
            install = decode_datagram(wrap([
                encode_template_set([template, good], ipfix=ipfix),
            ], sequence=0), 0.0, cache)
    assert install.template_sets == 2
    assert [r.message for r in caplog.records if "300" in r.message] \
        == [caplog.records[0].message]
    assert "exceed every data set" in caplog.text

    seq = 0 if ipfix else 1
    for _ in range(3):
        bad = decode_datagram(wrap([data_set], sequence=seq), 0.0, cache)
        assert bad.flows == 0 and len(bad.rows) == 0
        assert bad.malformed == 1
        assert bad.seq_reliable is (not ipfix)
        assert state.note(bad, now=1.0) == 0
        # A real exporter counted the records we could not.
        seq += 5 if ipfix else 1
    fine = decode_datagram(wrap([
        encode_data_set(good, [{8: 1, 12: 2}, {8: 3, 12: 4}]),
    ], sequence=seq), 0.0, cache)
    assert fine.flows == 2 and fine.malformed == 0
    assert state.note(fine, now=2.0) == 0
    assert state.sequence_lost == 0
    assert state.malformed == 3


def test_data_set_shorter_than_one_record_is_malformed():
    cache = TemplateCache()
    decode_datagram(encode_v9_datagram(
        [encode_template_set([V9_LAYOUT])]), 0.0, cache)
    short = struct.pack("!HH", 256, 4 + 10) + b"\x00" * 10
    decoded = decode_datagram(encode_v9_datagram([short]), 0.0, cache)
    assert (decoded.flows, decoded.malformed) == (0, 1)


# -- fuzz ---------------------------------------------------------------------


@st.composite
def hostile_datagrams(draw):
    """Arbitrary bytes, or a golden datagram with bytes overwritten,
    inserted, or cut off."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=400))
    data = bytearray(draw(st.sampled_from(GOLDEN)))
    for _ in range(draw(st.integers(1, 6))):
        position = draw(st.integers(0, len(data) - 1))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            del data[position:]
        elif kind == 1:
            data[position:position] = draw(st.binary(max_size=8))
        else:
            data[position] = draw(st.sampled_from(
                [0x00, 0x01, 0x7F, 0x80, 0xFF, draw(st.integers(0, 255))]
            ))
        if not data:
            break
    return bytes(data)


def _assert_valid_columns(rows: np.ndarray) -> None:
    """``FlowTable`` column validation (bounds, counters ≥ 0); the
    wire is free to say a flow ended before it started."""
    assert rows.dtype == FLOW_DTYPE
    FlowTable.from_columns(**{
        name: rows[name] for name in FLOW_DTYPE.names
        if name not in ("start", "end")
    })
    assert np.isfinite(rows["start"]).all()
    assert np.isfinite(rows["end"]).all()


def _data_sets(data: bytes) -> int:
    """Independent set walk: data sets fully inside the datagram."""
    version = int.from_bytes(data[:2], "big")
    if version == 9:
        offset, limit = V9_HEADER_SIZE, len(data)
    else:
        offset = IPFIX_HEADER_SIZE
        limit = min(len(data), int.from_bytes(data[2:4], "big"))
    found = 0
    while offset + 4 <= limit:
        set_id, length = struct.unpack_from("!HH", data, offset)
        if length < 4 or offset + length > limit:
            break
        found += set_id >= MIN_TEMPLATE_ID
        offset += length
    return found


@settings(max_examples=400, deadline=None)
@given(datagrams=st.lists(hostile_datagrams(), min_size=1, max_size=4))
def test_fuzz_decode_datagram_raises_only_codec_error(datagrams):
    cache = TemplateCache(max_pending=3)
    for data in datagrams:
        try:
            decoded = decode_datagram(data, 1000.0, cache, now=1.0)
        except CodecError:
            continue
        rows = decoded.rows
        assert len(rows) == decoded.flows \
            == sum(region.count for region in decoded.regions)
        _assert_valid_columns(rows)
        if decoded.version == 5:
            declared = int.from_bytes(data[2:4], "big")
            assert decoded.flows + decoded.malformed == declared
        else:
            # No data set vanishes: each is decoded, malformed,
            # buffered or dropped (template sets only add to these).
            assert _data_sets(data) <= (
                len(decoded.regions) + decoded.malformed
                + decoded.buffered_sets + decoded.dropped_sets
            )


@pytest.fixture(scope="module")
def fuzz_collector():
    collector = FlowCollector(template_pending=3)
    tables: list[FlowTable] = []
    collector._batcher = ChunkBatcher(
        lambda table, reason, oldest: tables.append(table), chunk_rows=64
    )
    yield collector, tables
    collector.close()


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    datagrams=st.lists(hostile_datagrams(), min_size=1, max_size=4),
    address=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
)
def test_fuzz_listener_path_never_raises_and_accounts(
    fuzz_collector, datagrams, address
):
    collector, tables = fuzz_collector
    for data in datagrams:
        before = collector.counters()
        collector._on_datagram(data, address, now=1.0)  # must not raise
        after = collector.counters()
        moved = {
            name: after[name] - before[name]
            for name in after if after[name] != before[name]
        }
        try:
            parse_header(data)
        except CodecError:
            # An unparseable header is one malformed datagram, only.
            assert moved == {"malformed": 1}
            continue
        assert set(moved) <= {
            "flows", "malformed", "template_misses", "template_drops",
            "sequence_lost", "time_clamped",
        }
        if data[1] != 5 and _data_sets(data):
            assert moved, "a datagram with data sets left no trace"
    batcher = collector._batcher
    batcher.flush()
    for table in tables:
        _assert_valid_columns(table._data)
    # Every counted flow was staged and came out of a flush.
    assert sum(len(table) for table in tables) == collector.flows
    assert batcher.pending_rows == 0
