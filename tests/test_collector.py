"""Tests for :mod:`repro.collector` — the UDP NetFlow collector.

Layered the same way the subsystem is:

* golden datagrams — checked-in wire bytes for v5, v9 and IPFIX decode
  to exact, hand-verified column values (codec drift breaks these);
* tolerant v5 decode and the vectorized/per-record equivalence;
* template cache — out-of-order arrival, bounds, expiry;
* Hypothesis roundtrip — arbitrary v9 templates encode → decode to the
  same values the encoder was fed;
* exporter sequence accounting — gaps, resets, unreliable re-baseline;
* the listener end to end over loopback, including queue-full drops;
* the listener process: every way out of a collector reaps it (a
  collector dropped unclosed included), it holds only the descriptors
  it serves, a killed listener surfaces as ``CollectorError``, and the
  counters it shares with the engine's process account for every flow;
  every test here fails if it leaves a process, a descriptor or a
  ``ResourceWarning`` behind;
* the listener loop — it sleeps until its earliest deadline, so an
  idle listener costs no CPU and a lone datagram arrives as an age
  chunk;
* the wake rule — while the open batch is going to age-flush anyway
  the socket rests, so a trickle wakes the listener a few times per
  batch, and a burst that fits the socket buffer loses nothing;
* CLI surface — exit code 7 on bind failure, ``--port 0`` reporting;
* the ``udp`` source's option checks — exit code 2 on a bad value;
* file/UDP session equivalence: replaying a capture through
  ``SourceSpec(kind="udp")`` produces byte-identical windows and
  alarms to reading the same capture from disk, serial and sharded.
"""

from __future__ import annotations

import gc
import math
import os
import signal
import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.cli import main
from repro.collector import (
    ChunkBatcher,
    FlowCollector,
    Template,
    TemplateCache,
    decode_datagram,
    read_recorded_datagrams,
    send_datagrams,
)
from repro.collector.decode import (
    encode_data_set,
    encode_ipfix_datagram,
    encode_template_set,
    encode_v9_datagram,
    parse_header,
)
from repro.collector import listener
from repro.collector.batcher import MAX_BATCH_SECONDS
from repro.collector.exporters import ExporterState, ExporterTable
from repro.errors import CodecError, CollectorError
from repro.flows.addresses import ip_to_int
from repro.flows.flowio import read_binary_table, write_binary
from repro.flows.netflow_v5 import HEADER_SIZE, RECORD_SIZE, encode_packet
from repro.synth.presets import build_preset_scenario
from tests import record_oracle

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def _children() -> set[str]:
    """Pids whose parent is this process, zombies included."""
    children = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue  # it ended meanwhile
        if stat.rsplit(")", 1)[1].split()[1] == str(os.getpid()):
            children.add(pid)
    return children


@pytest.fixture(autouse=True)
def _leaves_nothing():
    """Every test leaves no child process, running or a zombie, and no
    descriptor it did not find. Nothing is garbage-collected first: a
    collector its test dropped must already be released. Children
    that were there before (the resource tracker of an earlier test
    module's ``spawn`` context) are not this file's."""
    children, fds = _children(), set(os.listdir("/proc/self/fd"))
    yield
    assert _children() <= children
    assert set(os.listdir("/proc/self/fd")) <= fds


@pytest.fixture(autouse=True)
def _fork_single_threaded(monkeypatch):
    """Every listener in this file is forked while one thread runs:
    Python 3.12 warns on ``fork()`` in a multi-threaded process, and
    this check catches such a fork on every version."""
    fork = os.fork

    def checked_fork():
        assert threading.active_count() == 1, "forked with threads running"
        return fork()

    monkeypatch.setattr(listener.os, "fork", checked_fork)


def _clamped_v5_datagram() -> bytes:
    """``golden_v5.bin`` with record 0's LAST_SWITCHED moved before its
    FIRST_SWITCHED (the exporter's sysUptime wrapped between the two)."""
    blob = bytearray((DATA / "golden_v5.bin").read_bytes())
    first = HEADER_SIZE + 24  # record 0: first @24, last @28
    assert struct.unpack_from("!II", blob, first) == (1500, 2250)
    struct.pack_into("!I", blob, first + 4, 250)  # last < first
    return bytes(blob)


# -- golden datagrams ---------------------------------------------------------


class TestGoldenV5:
    def test_decodes_to_known_rows(self):
        blob = (DATA / "golden_v5.bin").read_bytes()
        decoded = decode_datagram(blob, boot_time=1000.0)
        assert decoded.version == 5
        assert decoded.domain == 7  # engine_type 0, engine_id 7
        assert decoded.seq == 42
        assert decoded.seq_units == 3
        assert decoded.malformed == 0
        rows = decoded.rows
        assert len(rows) == 3
        assert rows["src_ip"].tolist() == [
            ip_to_int("10.0.0.1"), ip_to_int("172.16.5.9"),
            ip_to_int("8.8.8.8"),
        ]
        assert rows["dst_port"].tolist() == [80, 40001, 51515]
        assert rows["proto"].tolist() == [6, 17, 6]
        assert rows["tcp_flags"].tolist() == [0x1B, 0, 0x12]
        assert rows["packets"].tolist() == [10, 1, 200]
        assert rows["bytes"].tolist() == [5000, 128, 250000]
        # Sys-uptime ms reconstructed against boot_time, exactly.
        assert rows["start"].tolist() == [1001.5, 1003.0, 1000.125]
        assert rows["end"].tolist() == [1002.25, 1003.0, 1010.875]

    def test_matches_per_record_codec(self):
        blob = (DATA / "golden_v5.bin").read_bytes()
        decoded = decode_datagram(blob, boot_time=1000.0)
        _, records = record_oracle.decode_v5_packet(blob, boot_time=1000.0)
        assert len(records) == len(decoded.rows) == 3
        for row, rec in zip(decoded.rows, records):
            assert row["src_ip"] == rec.src_ip
            assert row["start"] == rec.start
            assert row["end"] == rec.end
            assert row["bytes"] == rec.bytes


    def test_uptime_wrap_is_clamped_and_counted(self):
        """LAST_SWITCHED before FIRST_SWITCHED (the exporter's
        sysUptime wrapped between the two) used to travel as
        ``end < start`` until the first FlowRecord materialisation
        raised FlowError — far from the socket that let it in."""
        from repro.stream import WindowRing

        collector = FlowCollector(boot_time=1000.0)
        tables = []
        collector._batcher = ChunkBatcher(
            lambda table, reason, oldest: tables.append(table),
            boot_time=1000.0,
        )
        try:
            collector._on_datagram(
                _clamped_v5_datagram(), "10.0.0.1", now=1.0
            )
            collector._batcher.flush()
            counters = collector.counters()
        finally:
            collector.close()
        (table,) = tables
        assert table.start.tolist() == [1001.5, 1003.0, 1000.125]
        assert table.end.tolist() == [1001.5, 1003.0, 1010.875]
        assert table.to_records()[0].duration == 0.0  # no FlowError
        assert collector._batcher.time_clamped == 1
        assert counters["malformed"] == counters["flows_dropped"] == 0
        # Conservation: the clamped row is kept, not a drop class.
        ring = WindowRing(window_seconds=300.0, origin=900.0)
        routed = ring.ingest(table)
        assert counters["flows"] == 3 \
            == routed.admitted + routed.late_dropped \
            + counters["flows_dropped"]


class TestGoldenV9:
    def test_template_plus_data_in_one_datagram(self):
        blob = (DATA / "golden_v9.bin").read_bytes()
        assert parse_header(blob)[:2] == (9, 9)
        cache = TemplateCache()
        decoded = decode_datagram(
            blob, boot_time=1700000000.0, cache=cache
        )
        assert decoded.version == 9
        assert decoded.domain == 9
        assert decoded.seq == 5
        assert decoded.seq_units == 1  # v9 sequences count packets
        assert decoded.template_sets == 1
        assert decoded.malformed == 0
        assert cache.get(256) is not None
        rows = decoded.rows
        assert len(rows) == 2
        assert rows["src_ip"].tolist() == [
            ip_to_int("10.1.1.1"), ip_to_int("10.3.3.3"),
        ]
        assert rows["src_port"].tolist() == [5555, 123]
        assert rows["router"].tolist() == [9, 9]
        assert rows["sampling_rate"].tolist() == [1, 100]
        # FIRST/LAST_SWITCHED are uptime ms against boot_time.
        assert rows["start"].tolist() == [1700000001.5, 1700000004.0]
        assert rows["end"].tolist() == [1700000002.75, 1700000004.0]


class TestGoldenIpfix:
    def test_absolute_millisecond_timestamps(self):
        blob = (DATA / "golden_ipfix.bin").read_bytes()
        assert parse_header(blob)[:2] == (10, 77)
        cache = TemplateCache()
        decoded = decode_datagram(
            blob, boot_time=0.0, cache=cache
        )
        assert decoded.version == 10
        assert decoded.domain == 77
        assert decoded.seq == 17
        assert decoded.seq_units == 2  # IPFIX counts data records
        assert decoded.seq_reliable
        rows = decoded.rows
        assert len(rows) == 2
        assert rows["dst_port"].tolist() == [443, 162]
        assert rows["packets"].tolist() == [12, 2]
        # flowStart/EndMilliseconds are absolute, boot_time-independent.
        assert rows["start"].tolist() == [1700000100.5, 1700000200.0]
        assert rows["end"].tolist() == [1700000103.75, 1700000200.0]


# -- tolerant v5 decode -------------------------------------------------------


def _v5_packet(n: int, boot: float = 0.0) -> bytes:
    from tests.conftest import make_flow

    flows = [
        make_flow(sport=1000 + i, start=boot + i, end=boot + i + 1.0)
        for i in range(n)
    ]
    return encode_packet(flows, boot_time=boot, flow_sequence=100)


class TestTolerantV5:
    def test_truncated_tail_salvages_whole_records(self):
        packet = _v5_packet(5)
        cut = packet[: HEADER_SIZE + 3 * RECORD_SIZE + 10]
        decoded = decode_datagram(cut)
        assert decoded.seq_units == 5
        assert len(decoded.rows) == decoded.flows == 3
        assert decoded.malformed == 2
        assert decoded.rows["src_port"][0] == 1000

    def test_strict_decode_still_raises_with_offset_context(self, tmp_path):
        # The socket salvages a cut packet; the file reader refuses it
        # and names the packet.
        packet = _v5_packet(4)
        cut = packet[: HEADER_SIZE + 2 * RECORD_SIZE]
        path = tmp_path / "cut.rpv5"
        path.write_bytes(
            struct.pack("!4sdI", b"RPV5", 0.0, 1)
            + struct.pack("!I", len(cut)) + cut
        )
        with pytest.raises(
            CodecError, match="packet 0 declares 4 records, holds 2"
        ):
            read_binary_table(path)

    def test_vectorized_counts_malformed_and_keeps_sequence(self):
        packet = _v5_packet(5)
        cut = packet[: HEADER_SIZE + 2 * RECORD_SIZE + 7]
        decoded = decode_datagram(cut)
        assert len(decoded.rows) == 2
        assert decoded.malformed == 3
        # The exporter *sent* 5 flows: the declared count advances the
        # sequence expectation, not the decoded count.
        assert decoded.seq_units == 5

    def test_header_too_short_raises(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_datagram(b"\x00\x05" + b"\x00" * 10)

    def test_vectorized_equals_per_record_on_many_flows(self):
        packet = _v5_packet(30, boot=500.0)
        decoded = decode_datagram(packet, boot_time=500.0)
        _, records = record_oracle.decode_v5_packet(packet, boot_time=500.0)
        assert len(decoded.rows) == len(records) == 30
        for row, rec in zip(decoded.rows, records):
            for col in (
                "src_ip", "dst_ip", "src_port", "dst_port", "proto",
                "tcp_flags", "packets", "bytes", "start", "end",
            ):
                assert row[col] == getattr(rec, col), col


# -- template cache -----------------------------------------------------------


TEMPLATE = Template(260, ((8, 4), (12, 4), (7, 2), (11, 2), (1, 4)))


def _data_datagram(rows, sequence=0, template=TEMPLATE):
    return encode_v9_datagram(
        [encode_data_set(template, rows)],
        sequence=sequence, source_id=1, export_secs=100,
    )


def _template_datagram(sequence=0, template=TEMPLATE):
    return encode_v9_datagram(
        [encode_template_set([template])],
        sequence=sequence, source_id=1, export_secs=100,
    )


class TestTemplateCache:
    def test_out_of_order_template_arrival(self):
        cache = TemplateCache()
        row = {8: 11, 12: 22, 7: 33, 11: 44, 1: 55}
        early = decode_datagram(
            _data_datagram([row]), 0.0, cache
        )
        assert len(early.rows) == 0
        assert early.buffered_sets == 1
        assert cache.pending_count == 1
        late = decode_datagram(
            _template_datagram(sequence=1), 0.0, cache
        )
        # Installing the template decodes what it unblocked.
        assert len(late.rows) == 1
        assert late.rows["src_ip"][0] == 11
        assert late.rows["bytes"][0] == 55
        assert cache.pending_count == 0

    def test_pending_bound_drops_with_count(self):
        cache = TemplateCache(max_pending=2)
        row = {8: 1, 12: 2, 7: 3, 11: 4, 1: 5}
        for _ in range(3):
            decode_datagram(_data_datagram([row]), 0.0, cache)
        assert cache.pending_count == 2
        assert cache.dropped == 1

    def test_expiry_sweep(self):
        cache = TemplateCache(pending_expiry=10.0)
        row = {8: 1, 12: 2, 7: 3, 11: 4, 1: 5}
        decode_datagram(
            _data_datagram([row]), 0.0, cache, now=100.0
        )
        assert cache.sweep(105.0) == 0
        assert cache.sweep(111.0) == 1
        assert cache.pending_count == 0
        assert cache.dropped == 1

    def test_options_sets_are_skipped(self):
        body = struct.pack("!HH", 1, 8) + b"\x00\x00\x00\x00"
        datagram = encode_v9_datagram([body], sequence=0, source_id=1)
        decoded = decode_datagram(
            datagram, 0.0, TemplateCache()
        )
        assert len(decoded.rows) == 0
        assert decoded.malformed == 0


# -- Hypothesis: v9 template encode → decode roundtrip ------------------------


v9_fields = st.lists(
    st.tuples(
        st.sampled_from([8, 12, 7, 11, 4, 6, 10, 34, 2, 1]),
        st.sampled_from([1, 2, 4]),
    ),
    min_size=1,
    max_size=8,
    unique_by=lambda f: f[0],
)


@settings(max_examples=60, deadline=None)
@given(
    fields=v9_fields,
    template_id=st.integers(256, 65535),
    values=st.integers(0, 2**32 - 1),
    nrows=st.integers(1, 8),
)
def test_v9_template_roundtrip(fields, template_id, values, nrows):
    """Encoding rows through an arbitrary template and decoding them
    back reproduces every value modulo the field's wire width."""
    template = Template(template_id, tuple(fields))
    rows = [
        {element: (values + i) for element, _ in fields}
        for i in range(nrows)
    ]
    datagram = encode_v9_datagram(
        [encode_template_set([template]),
         encode_data_set(template, rows)],
        sequence=3, source_id=4, export_secs=1000,
    )
    decoded = decode_datagram(datagram, 0.0, TemplateCache())
    assert len(decoded.rows) == nrows
    assert decoded.malformed == 0
    from repro.collector.decode import ELEMENT_COLUMNS, _COLUMN_MASKS

    for i, row in enumerate(rows):
        for element, length in fields:
            column = ELEMENT_COLUMNS[element]
            sent = row[element] & ((1 << (8 * length)) - 1)
            mask = _COLUMN_MASKS.get(column)
            expect = sent & mask if mask else sent
            if column == "sampling_rate" and expect == 0:
                expect = 1  # unsampled exporters encode zero
            assert decoded.rows[column][i] == expect


@settings(max_examples=30, deadline=None)
@given(
    fields=v9_fields,
    template_id=st.integers(256, 65535),
    nrows=st.integers(1, 4),
)
def test_ipfix_roundtrip_counts_records(fields, template_id, nrows):
    template = Template(template_id, tuple(fields))
    rows = [{element: i + 1 for element, _ in fields}
            for i in range(nrows)]
    datagram = encode_ipfix_datagram(
        [encode_template_set([template], ipfix=True),
         encode_data_set(template, rows)],
        sequence=9, domain=5, export_secs=1000,
    )
    decoded = decode_datagram(datagram, 0.0, TemplateCache())
    assert len(decoded.rows) == nrows
    assert decoded.seq_units == nrows  # IPFIX counts data records


# -- exporter sequence accounting ---------------------------------------------


def _fake(seq, units, reliable=True):
    from repro.collector.decode import DecodedDatagram

    return DecodedDatagram(
        version=9, domain=0, seq=seq, seq_units=units,
        seq_reliable=reliable,
    )


class TestSequenceAccounting:
    def _state(self):
        return ExporterState(
            key=("127.0.0.1", 9, 0), templates=TemplateCache()
        )

    def test_contiguous_stream_loses_nothing(self):
        state = self._state()
        for seq in range(10):
            assert state.note(_fake(seq, 1), now=1.0) == 0
        assert state.sequence_lost == 0

    def test_gap_counts_lost_units(self):
        state = self._state()
        state.note(_fake(100, 30), now=1.0)
        lost = state.note(_fake(190, 30), now=2.0)
        assert lost == 60
        assert state.sequence_lost == 60

    def test_sequence_wraps_mod_2_32(self):
        state = self._state()
        state.note(_fake(2**32 - 10, 10), now=1.0)
        assert state.note(_fake(0, 5), now=2.0) == 0
        assert state.note(_fake(8, 5), now=3.0) == 3

    def test_huge_gap_is_a_reset_not_loss(self):
        state = self._state()
        state.note(_fake(5, 1), now=1.0)
        assert state.note(_fake(2**31 + 100, 1), now=2.0) == 0
        assert state.sequence_resets == 1
        assert state.sequence_lost == 0

    def test_unreliable_units_rebaseline(self):
        state = self._state()
        state.note(_fake(10, 0, reliable=False), now=1.0)
        # Whatever comes next cannot be judged against seq 10.
        assert state.note(_fake(500, 1), now=2.0) == 0
        assert state.note(_fake(501, 1), now=3.0) == 0
        assert state.sequence_lost == 0

    def test_table_keys_by_address_version_domain(self):
        table = ExporterTable()
        a = table.get("10.0.0.1", 9, 1)
        b = table.get("10.0.0.1", 9, 2)
        c = table.get("10.0.0.2", 9, 1)
        assert len({id(a), id(b), id(c)}) == 3
        assert len(table) == 3

    def test_idle_exporters_are_swept(self):
        table = ExporterTable(idle_expiry=10.0)
        state = table.get("10.0.0.1", 5, 0)
        state.last_seen = 100.0
        dropped, _ = table.sweep(now=111.0)
        assert dropped == 1
        assert len(table) == 0


# -- batcher ------------------------------------------------------------------


class TestChunkBatcher:
    """The batcher stages record bytes; tables appear at flush."""

    def _regions(self, n):
        return decode_datagram(_v5_packet(n)).regions

    def test_size_flush_emits_exact_chunks(self):
        got = []
        batcher = ChunkBatcher(
            lambda table, reason, oldest: got.append((table, reason)),
            chunk_rows=100,
        )
        for _ in range(14):
            batcher.add(self._regions(30))
        assert [len(t) for t, _ in got] == [100, 100, 100, 100]
        assert batcher.pending_rows == 20
        batcher.flush()
        assert (len(got[-1][0]), got[-1][1]) == (20, "final")
        # Chunk edges split datagrams without losing or reordering rows.
        ports = np.concatenate([t._data["src_port"] for t, _ in got])
        assert ports.tolist() == [1000 + i for i in range(30)] * 14

    def test_age_flush(self):
        clock = [0.0]
        got = []
        batcher = ChunkBatcher(
            lambda table, reason, oldest: got.append(reason),
            chunk_rows=10_000, max_batch_seconds=0.5,
            clock=lambda: clock[0],
        )
        batcher.add(self._regions(5))
        assert not batcher.poll()
        clock[0] = 0.6
        assert batcher.poll()
        assert got == ["age"]
        assert batcher.pending_rows == 0

    def test_deadline_follows_the_oldest_staged_row(self):
        clock = [1.0]
        got = []
        batcher = ChunkBatcher(
            lambda table, reason, oldest: got.append((reason, oldest)),
            chunk_rows=40, max_batch_seconds=0.5,
            clock=lambda: clock[0],
        )
        assert batcher.deadline is None
        batcher.add(self._regions(5))
        assert batcher.deadline == 1.5
        clock[0] = 1.2
        batcher.add(self._regions(5))
        assert batcher.deadline == 1.5  # the oldest row sets it
        clock[0] = 1.3
        batcher.add(self._regions(30))  # size flush, 0 rows left
        assert got == [("size", 1.0)] and batcher.deadline is None
        clock[0] = 2.0
        batcher.add(self._regions(30))
        clock[0] = 2.1
        batcher.add(self._regions(30))  # size flush, 20 rows left
        assert got[-1] == ("size", 2.0)
        assert batcher.deadline == 2.6  # they arrived at 2.1
        clock[0] = 2.6
        assert batcher.poll()
        assert got[-1] == ("age", 2.1) and batcher.deadline is None

    def test_socket_rests_only_while_the_batch_will_age_flush(self):
        """No rest at a batch's first look, while its rate projects a
        full chunk by the deadline, or behind a size flush; otherwise
        until the deadline, a fifth of the age bound or what the
        socket buffer allows, whichever comes first."""
        clock = [0.0]
        got = []
        batcher = ChunkBatcher(
            lambda table, reason, oldest: got.append(reason),
            chunk_rows=100, max_batch_seconds=0.5,
            clock=lambda: clock[0],
        )
        assert batcher.rest_until(math.inf) is None  # nothing staged
        batcher.add(self._regions(5))
        assert batcher.rest_until(math.inf) is None  # its first look
        clock[0] = 0.1
        batcher.add(self._regions(5))  # 10 rows in 0.1 s: 50 by 0.5
        assert batcher.rest_until(math.inf) == pytest.approx(0.2)
        assert batcher.rest_until(0.01) == pytest.approx(0.11)
        clock[0] = 0.45
        assert batcher.rest_until(math.inf) == pytest.approx(0.5)
        clock[0] = 0.5
        assert batcher.poll() and got == ["age"]
        clock[0] = 1.0
        batcher.add(self._regions(30))
        assert batcher.rest_until(math.inf) is None
        clock[0] = 1.1
        batcher.add(self._regions(30))  # 60 rows in 0.1 s: 300 by 1.5
        assert batcher.rest_until(math.inf) is None
        batcher.add(self._regions(30))
        batcher.add(self._regions(30))  # a size flush, 20 rows left
        assert got == ["age", "size"]
        for clock[0] in (1.2, 1.4, 1.5):
            assert batcher.rest_until(math.inf) is None
        clock[0] = 1.7
        assert batcher.poll() and got[-1] == "age"
        clock[0] = 2.0
        batcher.add(self._regions(5))
        assert batcher.rest_until(math.inf) is None
        clock[0] = 2.1
        assert batcher.rest_until(math.inf) == pytest.approx(2.2)


# -- the listener end to end --------------------------------------------------


def _capture(tmp_path, bins=4, fps=6.0):
    labeled = build_preset_scenario(
        bins=bins, fps=fps, anomalies=("port-scan",)
    ).build(seed=3)
    table = labeled.trace.table
    path = tmp_path / "capture.rpv5"
    write_binary(table, path, boot_time=0.0)
    return path, len(table)


class TestFlowCollector:
    def test_loopback_replay_decodes_everything(self, tmp_path):
        path, nflows = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(
            boot_time=boot, max_flows=nflows, idle_seconds=10.0,
        )
        sender = threading.Thread(
            target=send_datagrams, args=(packets, collector.port)
        )
        sender.start()
        total = sum(len(t) for t in collector.chunks(chunk_rows=2048))
        sender.join()
        assert total == nflows
        counters = collector.counters()
        assert counters["flows"] == nflows
        assert counters["datagrams"] == len(packets)
        assert counters["malformed"] == 0
        assert counters["datagrams_dropped"] == 0
        assert counters["flows_dropped"] == 0
        assert counters["sequence_lost"] == 0

    def test_replayed_rows_match_file_reader(self, tmp_path):
        path, nflows = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(
            boot_time=boot, max_flows=nflows, idle_seconds=10.0,
        )
        sender = threading.Thread(
            target=send_datagrams, args=(packets, collector.port)
        )
        sender.start()
        chunks = list(collector.chunks(chunk_rows=100_000))
        sender.join()
        got = np.concatenate([c._data for c in chunks])
        want = read_binary_table(path)._data
        # Loopback UDP from one sender preserves order, so the decoded
        # matrix is byte-identical to the file reader's.
        assert np.array_equal(got, want)

    def test_queue_full_drops_and_counts(self, tmp_path):
        path, _ = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(
            boot_time=boot, queue_chunks=1, max_batch_seconds=0.05,
        )
        # Tiny chunks, nobody consuming: the queue jams immediately.
        collector.start(chunk_rows=30)
        send_datagrams(packets, collector.port)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if collector.datagrams_dropped > 0:
                break
            time.sleep(0.05)
        collector.close()
        counters = collector.counters()
        assert counters["datagrams"] == len(packets)
        dropped = (
            counters["datagrams_dropped"] + counters["flows_dropped"]
        )
        assert dropped > 0
        # Accounting is honest: everything is either decoded into the
        # queue or counted as dropped at one of the two shed points.
        assert counters["datagrams_dropped"] < len(packets)

    def test_bind_conflict_raises_collector_error(self):
        keeper = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        keeper.bind(("127.0.0.1", 0))
        port = keeper.getsockname()[1]
        try:
            with pytest.raises(CollectorError, match="cannot bind"):
                FlowCollector(port=port)
        finally:
            keeper.close()

    def test_snapshot_reports_port_and_exporters(self, tmp_path):
        path, nflows = _capture(tmp_path, bins=2, fps=3.0)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(
            boot_time=boot, max_flows=nflows, idle_seconds=10.0,
        )
        port = collector.port
        sender = threading.Thread(
            target=send_datagrams, args=(packets, port)
        )
        sender.start()
        list(collector.chunks())
        sender.join()
        snap = collector.snapshot()
        assert snap["port"] == port  # survives close()
        assert snap["listen"] == "127.0.0.1"
        assert len(snap["exporters"]) == 1
        exporter = snap["exporters"][0]
        assert exporter["address"] == "127.0.0.1"
        assert exporter["version"] == 5
        assert exporter["flows"] == nflows

    def test_receive_hands_over_every_datagram(self, monkeypatch):
        """One ``recvfrom`` per datagram hands over the payload bytes
        (empty, one byte, a jumbo frame and the largest UDP payload
        included), the source address and the arrival order, at most
        ``_RECV_BURST`` datagrams per wake-up; a closed socket stops
        the loop."""
        monkeypatch.setattr(listener, "_RECV_BURST", 64)
        collector = FlowCollector()
        got = []
        monkeypatch.setattr(
            collector, "_on_datagram",
            lambda data, address, now: got.append((data, address)),
        )
        sizes = [0, 1, 48, 1464, 9000, 65507] + [100] * 70
        sent = [bytes([k % 251]) * size for k, size in enumerate(sizes)]
        try:
            assert not collector._drain_socket(now=0.0)
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
                for datagram in sent:
                    out.sendto(datagram, ("127.0.0.1", collector.port))
            assert collector._drain_socket(now=0.0)
            assert len(got) == 64
            assert collector._drain_socket(now=0.0)
            assert not collector._drain_socket(now=0.0)
        finally:
            collector.close()
        assert got == [(datagram, "127.0.0.1") for datagram in sent]
        assert collector.datagrams == len(sent)
        assert not collector._stop
        assert not collector._drain_socket(now=0.0)
        assert collector._stop  # the OSError of the closed socket


# -- the listener process -----------------------------------------------------


def _descriptors(pid: int | str = "self") -> dict[int, str]:
    """What each descriptor of process ``pid`` names."""
    fds = f"/proc/{pid}/fd"
    names = {}
    for fd in os.listdir(fds):
        try:
            names[int(fd)] = os.readlink(f"{fds}/{fd}")
        except FileNotFoundError:
            pass  # the one the listing itself used
    return names


def _assert_reaped(pid: int) -> None:
    """``pid`` is neither running nor a zombie child of this process."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class TestListenerProcess:
    def test_closed_without_start_leaves_no_process(self):
        collector = FlowCollector()
        pid = collector._pid
        assert pid != os.getpid()
        os.kill(pid, 0)  # forked at construction, parked
        started = time.monotonic()
        collector.close()
        assert time.monotonic() - started < 5.0
        _assert_reaped(pid)
        assert collector.counters()["datagrams"] == 0

    def test_dropped_collector_is_released_and_spares_the_next(self):
        """A collector dropped unclosed is released when collected, and
        the next collector, which may take its descriptor numbers,
        streams."""
        dropped = FlowCollector()
        pid = dropped._pid
        del dropped
        collector = FlowCollector(
            boot_time=1000.0, max_flows=3, idle_seconds=10.0
        )
        send_datagrams([(DATA / "golden_v5.bin").read_bytes()],
                       collector.port)
        assert sum(len(table) for table in collector.chunks()) == 3
        gc.collect()
        _assert_reaped(pid)

    def test_listener_holds_only_what_it_serves(self):
        """Whatever the engine's process has open (here an unrelated
        socket), the parked listener holds 0, 1, 2 and what its
        collector opened: the socket and the two pipes."""
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM):
            before = set(_descriptors().values())
            collector = FlowCollector()
            try:
                own = _descriptors()
                opened = sorted(set(own.values()) - before)
                fds = f"/proc/{collector._pid}/fd"
                deadline = time.monotonic() + 5.0
                while len(os.listdir(fds)) > 6 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)  # it is closing what it inherited
                held = _descriptors(collector._pid)
            finally:
                collector.close()
        standard = {fd: own[fd] for fd in (0, 1, 2)}
        assert {fd: held.pop(fd, None) for fd in standard} == standard
        assert sorted(held.values()) == opened

    def test_a_reaped_listener_is_never_named_again(self, monkeypatch):
        """Once ``chunks()`` has reaped the listener, neither a second
        close nor the finalizer signals or waits on its pid, which the
        system may already have given to another process."""
        collector = FlowCollector(
            boot_time=1000.0, max_flows=3, idle_seconds=10.0
        )
        pid = collector._pid
        send_datagrams([(DATA / "golden_v5.bin").read_bytes()],
                       collector.port)
        assert sum(len(table) for table in collector.chunks()) == 3
        named = []

        def recorded(call):
            def record(target, *args):
                named.append(target)
                return call(target, *args)
            return record

        monkeypatch.setattr(listener.os, "kill", recorded(os.kill))
        monkeypatch.setattr(listener.os, "waitpid", recorded(os.waitpid))
        collector.close()
        del collector
        gc.collect()
        monkeypatch.undo()
        assert pid not in named
        _assert_reaped(pid)

    def test_a_descriptor_opened_after_close_is_spared(self):
        """A descriptor opened between two ``close()`` calls, likely on
        a number the first one freed, stays open after the second and
        after the collector is dropped."""
        collector = FlowCollector()
        collector.close()
        read_end, write_end = os.pipe()
        spare = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            collector.close()
            del collector
            gc.collect()
            for fd in (read_end, write_end, spare.fileno()):
                os.fstat(fd)  # EBADF had the collector closed it
        finally:
            os.close(read_end)
            os.close(write_end)
            spare.close()

    def test_abandoned_consumer_reaps_listener(self, tmp_path):
        path, nflows = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(boot_time=boot)
        send_datagrams(packets, collector.port)
        stream = collector.chunks(chunk_rows=64)
        assert len(next(stream)) == 64
        stream.close()  # the consumer leaves after one chunk
        _assert_reaped(collector._pid)
        # The listener's final state still reached this process.
        snap = collector.snapshot()
        assert 64 <= snap["flows"] <= nflows
        assert [e["flows"] for e in snap["exporters"]] == [snap["flows"]]

    def test_killed_listener_raises_and_keeps_counters(self, tmp_path):
        path, _ = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(
            boot_time=boot, idle_seconds=30.0, max_batch_seconds=0.05
        )
        send_datagrams(packets, collector.port)
        stream = collector.chunks(chunk_rows=64)
        delivered = len(next(stream))
        os.kill(collector._pid, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(CollectorError, match="killed by signal 9"):
            for table in stream:
                delivered += len(table)
        assert time.monotonic() - started < 10.0  # raised, not hung
        _assert_reaped(collector._pid)
        counters = collector.counters()
        assert counters["flows"] >= delivered >= 64
        assert counters["datagrams"] > 0

    def test_read_interrupted_mid_chunk_still_reaps(
        self, tmp_path, monkeypatch
    ):
        """A KeyboardInterrupt inside a chunk's bytes leaves the pipe
        mid-message: close() must not parse it, and still reaps."""
        path, _ = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(boot_time=boot)
        send_datagrams(packets, collector.port)
        stream = collector.chunks(chunk_rows=64)
        next(stream)
        readv = os.readv

        def interrupted(fd, buffers):
            monkeypatch.setattr(listener.os, "readv", readv)
            readv(fd, [buffers[0][:1]])
            raise KeyboardInterrupt

        monkeypatch.setattr(listener.os, "readv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            next(stream)
        _assert_reaped(collector._pid)

    def test_shedding_is_conserved_and_mirrored(self, tmp_path):
        """A one-chunk queue and a slow engine: datagrams are shed
        before decode and flushed rows dropped, each counted in the
        shared block, and this process's metric families and status
        block carry the listener's final counts."""
        from repro.obs import metrics as obs_metrics

        path, nflows = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        previous = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            collector = FlowCollector(
                boot_time=boot, queue_chunks=1, max_batch_seconds=0.02,
                idle_seconds=1.0,
            )
            sender = threading.Thread(
                target=send_datagrams, args=(packets, collector.port)
            )
            sender.start()
            delivered = 0
            for table in collector.chunks(chunk_rows=30):
                delivered += len(table)
                time.sleep(0.05)  # the engine is busy
            sender.join()
            registry = obs_metrics.active()
        finally:
            obs_metrics.install(previous)
        counters = collector.counters()
        assert counters["datagrams"] == len(packets)
        assert counters["datagrams_dropped"] > 0
        assert counters["flows"] < nflows  # shed datagrams never decode
        assert counters["flows"] == delivered + counters["flows_dropped"]
        families = {
            "datagrams": "repro_collector_datagrams_total",
            "flows": "repro_collector_flows_total",
            "malformed": "repro_collector_malformed_total",
            "datagrams_dropped": "repro_collector_datagrams_dropped_total",
            "flows_dropped": "repro_collector_flows_dropped_total",
            "sequence_lost": "repro_collector_sequence_lost_total",
            "template_misses": "repro_collector_template_miss_total",
            "template_drops": "repro_collector_template_dropped_total",
            "time_clamped": "repro_collector_time_clamped_total",
        }
        for name, family in families.items():
            assert registry.value(family) == counters[name], name
        assert registry.value("repro_collector_exporters") == 1
        assert registry.value("repro_collector_queue_depth") == 0
        status = collector.snapshot()
        assert {name: status[name] for name in counters} == counters
        assert status["queue_depth"] == 0
        assert status["exporters"][0]["flows"] == counters["flows"]

    def test_time_clamped_crosses_the_process_boundary(self):
        """A row clamped in the listener process is counted in the
        shared block, mirrored into this process's metric family and
        delivered at zero duration."""
        from repro.obs import metrics as obs_metrics

        previous = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            collector = FlowCollector(
                boot_time=1000.0, max_flows=3, idle_seconds=10.0
            )
            send_datagrams([_clamped_v5_datagram()], collector.port)
            (table,) = collector.chunks()
            registry = obs_metrics.active()
        finally:
            obs_metrics.install(previous)
        assert collector.counters()["time_clamped"] == 1
        assert registry.value("repro_collector_time_clamped_total") == 1
        assert table.end.tolist() == [1001.5, 1003.0, 1010.875]
        assert table.to_records()[0].duration == 0.0


class TestListenerLoop:
    """The listener sleeps until its earliest deadline: the open
    batch's age flush, the housekeeping pass, the idle stop."""

    def test_idle_listener_sleeps_at_zero_age_bound(self):
        """Idle, or under a trickle that it flushes on every wake-up,
        a listener at a zero age bound never spins."""
        blob = (DATA / "golden_v5.bin").read_bytes()
        for trickle, most_cpu_s in ((False, 0.1), (True, 0.6)):
            collector = FlowCollector(
                max_batch_seconds=0.0, queue_chunks=0
            )
            collector.start()
            if trickle:
                _trickle([blob] * 1000, collector.port, every=0.001)
            else:
                time.sleep(1.0)
            collector.close()  # the listener writes its CPU as it exits
            _assert_reaped(collector._pid)
            assert 0.0 < collector.snapshot()["cpu_s"] < most_cpu_s

    def test_one_datagram_arrives_as_an_age_chunk(self):
        from repro.obs import events as obs_events

        collector = FlowCollector(boot_time=1000.0)
        journal = obs_events.EventJournal()
        previous = obs_events.install(journal)
        try:
            stream = collector.chunks()
            time.sleep(0.3)  # the listener is started and idle
            started = time.monotonic()
            send_datagrams([(DATA / "golden_v5.bin").read_bytes()],
                           collector.port)
            table = next(stream)
            waited = time.monotonic() - started
            stream.close()
        finally:
            obs_events.install(previous)
        assert len(table) == 3
        assert waited <= collector.max_batch_seconds + 0.5
        (chunk,) = [
            event for event in journal.read()
            if event["kind"] == "collector.chunk"
        ]
        assert chunk["reason"] == "age"

    def test_idle_stop_ends_the_stream(self, tmp_path):
        path, nflows = _capture(tmp_path, bins=2, fps=3.0)
        boot, packets = read_recorded_datagrams(path)
        collector = FlowCollector(boot_time=boot, idle_seconds=0.3)
        send_datagrams(packets, collector.port)
        started = time.monotonic()
        total = sum(len(table) for table in collector.chunks())
        assert total == nflows
        assert time.monotonic() - started < 5.0
        _assert_reaped(collector._pid)

    def test_every_chunk_observes_its_batch_age(
        self, tmp_path, monkeypatch
    ):
        """One ``repro_collector_batch_age_seconds`` sample per chunk
        taken, none negative (one monotonic clock for both
        processes), and the listener's CPU time mirrored."""
        from repro.obs import metrics as obs_metrics

        ages: list[float] = []

        class Ages:
            def observe(self, value: float) -> None:
                ages.append(value)

        monkeypatch.setattr(listener, "_BATCH_AGE", Ages())
        path, nflows = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        previous = obs_metrics.install(obs_metrics.MetricsRegistry())
        try:
            collector = FlowCollector(
                boot_time=boot, max_flows=nflows, idle_seconds=10.0,
            )
            sender = threading.Thread(
                target=send_datagrams, args=(packets, collector.port)
            )
            sender.start()
            total = sum(len(t) for t in collector.chunks(chunk_rows=256))
            sender.join()
            registry = obs_metrics.active()
        finally:
            obs_metrics.install(previous)
        assert total == nflows
        assert len(ages) == collector.chunks_emitted > 1
        assert min(ages) >= 0.0
        cpu_s = collector.snapshot()["cpu_s"]
        assert cpu_s > 0.0
        assert registry.value("repro_collector_cpu_seconds_total") \
            == pytest.approx(cpu_s)
        assert "cpu_s" not in collector.counters()


def _trickle(packets, port: int, every: float) -> None:
    """Send ``packets`` to ``port`` on a schedule of one per ``every``
    seconds (a late send is caught up, not skipped)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
        started = time.monotonic()
        for k, packet in enumerate(packets):
            delay = started + k * every - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            out.sendto(packet, ("127.0.0.1", port))


def _wait_for_datagrams(collector: FlowCollector, count: int) -> None:
    deadline = time.monotonic() + 10.0
    while collector.datagrams < count and time.monotonic() < deadline:
        time.sleep(0.01)


class TestWakeRule:
    """While the open batch is going to age-flush anyway the listener
    leaves its socket out of the wait for a bounded rest, and drains
    what queued at the next wake-up
    (:meth:`ChunkBatcher.rest_until`)."""

    def test_trickle_wakes_a_third_as_often_as_datagrams_arrive(self):
        from repro.obs import metrics as obs_metrics

        blob = (DATA / "golden_v5.bin").read_bytes()
        previous = obs_metrics.install(obs_metrics.MetricsRegistry())
        collector = FlowCollector(boot_time=1000.0)
        try:
            collector.start()
            time.sleep(0.2)  # the listener is started and idle
            before = collector.snapshot()["wakeups"]
            _trickle([blob] * 500, collector.port, every=0.001)
            _wait_for_datagrams(collector, 500)
            woken = collector.snapshot()["wakeups"] - before
        finally:
            collector.close()
            registry = obs_metrics.install(previous)
        _assert_reaped(collector._pid)
        status = collector.snapshot()
        assert status["datagrams"] == 500
        assert 0 < woken <= 500 / 3
        assert registry.value("repro_collector_wakeups_total") \
            == status["wakeups"] > woken
        assert "wakeups" not in collector.counters()

    def test_burst_after_a_trickle_loses_nothing(self, tmp_path):
        """A back-to-back burst that fits the socket buffer, sent while
        a trickle lets the socket rest: nothing lost, size chunks, and
        the rows of decoding the same datagrams from the file."""
        from repro.obs import events as obs_events

        path, _ = _capture(tmp_path)
        boot, packets = read_recorded_datagrams(path)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            room = probe.getsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF
            ) // listener._DATAGRAM_CHARGE
        trickle, burst = packets[:40], packets[40:40 + min(room // 2, 100)]

        def count(sent) -> int:
            return sum(struct.unpack_from("!H", p, 2)[0] for p in sent)

        assert count(burst) >= 1024  # the burst alone fills a chunk
        rows = count(trickle) + count(burst)
        collector = FlowCollector(
            boot_time=boot, max_flows=rows, idle_seconds=10.0
        )

        def send() -> None:
            _trickle(trickle, collector.port, every=0.005)
            send_datagrams(burst, collector.port, pace_every=0)

        journal = obs_events.EventJournal()
        previous = obs_events.install(journal)
        sender = threading.Thread(target=send)
        try:
            stream = collector.chunks(chunk_rows=1024)
            sender.start()
            chunks = list(stream)
        finally:
            obs_events.install(previous)
            sender.join(10.0)
        _assert_reaped(collector._pid)
        counters = collector.counters()
        assert counters["datagrams"] == len(trickle) + len(burst)
        assert counters["datagrams_dropped"] == 0
        assert counters["sequence_lost"] == 0
        reasons = [
            event["reason"] for event in journal.read()
            if event["kind"] == "collector.chunk"
        ]
        assert "size" in reasons
        got = np.concatenate([chunk._data for chunk in chunks])
        assert np.array_equal(got, read_binary_table(path)._data[:rows])

    def test_close_during_a_rest_reaps_promptly(self):
        """The control pipe stays in the wait while the socket rests:
        a stop ends the rest at once, and takes what queued in it."""
        blob = (DATA / "golden_v5.bin").read_bytes()
        collector = FlowCollector(boot_time=1000.0, max_batch_seconds=10.0)
        try:
            collector.start(chunk_rows=65536)  # rests of up to 1 s
            time.sleep(0.2)  # the listener is started and idle
            before = collector.snapshot()["wakeups"]
            _trickle([blob] * 20, collector.port, every=0.005)
            time.sleep(0.05)
            woken = collector.snapshot()["wakeups"] - before
        finally:
            started = time.monotonic()
            collector.close()
            took = time.monotonic() - started
        assert woken < 10  # the socket was resting
        assert took < 0.5
        _assert_reaped(collector._pid)
        assert collector.snapshot()["datagrams"] == 20


# -- CLI surface --------------------------------------------------------------


class TestCliExitCodes:
    def test_bind_failure_exits_7(self, tmp_path, capsys):
        keeper = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        keeper.bind(("127.0.0.1", 0))
        port = keeper.getsockname()[1]
        config = tmp_path / "collector.toml"
        config.write_text(
            "[source]\n"
            'kind = "udp"\n'
            "[source.options]\n"
            f"port = {port}\n"
            "[detector]\n"
            'name = "netreflex"\n'
            "[execution]\n"
            'mode = "stream"\n'
        )
        try:
            code = main(["run", str(config)])
        finally:
            keeper.close()
        assert code == 7
        assert "cannot bind" in capsys.readouterr().err


# -- the udp source adapter ----------------------------------------------------


def _settings(collector: FlowCollector) -> dict:
    """Every constructor setting of ``collector`` but its port."""
    exporters = collector.exporters
    return {
        "listen": collector.listen,
        "boot_time": collector.boot_time,
        "queue_chunks": collector.queue_chunks,
        "max_batch_seconds": collector.max_batch_seconds,
        "idle_seconds": collector.idle_seconds,
        "max_flows": collector.max_flows,
        "rcvbuf": collector._sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_RCVBUF
        ),
        "template_pending": exporters.max_pending_sets,
        "template_expiry": exporters.pending_expiry,
        "exporter_idle": exporters.idle_expiry,
    }


class TestUdpSource:
    def test_no_options_builds_the_default_collector(self):
        import inspect

        source = listener.UdpSource(api.SourceSpec(kind="udp"))
        default = FlowCollector()
        try:
            settings = _settings(default)
            assert _settings(source.collector) == settings
        finally:
            source.close()
            default.close()
        assert set(settings) | {"port"} \
            == set(inspect.signature(FlowCollector).parameters) \
            == set(listener.UdpSource._OPTIONS)

    def test_options_are_coerced_by_type(self):
        source = listener.UdpSource(api.SourceSpec(
            kind="udp",
            options={"port": "0", "idle_seconds": 2, "max_flows": "5"},
        ))
        source.close()
        collector = source.collector
        assert (collector.idle_seconds, collector.max_flows) == (2.0, 5)
        assert isinstance(collector.idle_seconds, float)
        # Left out: the one default.
        assert collector.max_batch_seconds == MAX_BATCH_SECONDS

    def test_unknown_option_names_the_field(self):
        from repro.errors import SpecError

        with pytest.raises(
            SpecError,
            match="unknown udp option 'bogus'; expected listen, port, "
                  "boot_time, queue_chunks, max_batch_seconds, "
                  "idle_seconds, max_flows, rcvbuf, template_pending, "
                  "template_expiry, exporter_idle",
        ) as raised:
            listener.UdpSource(
                api.SourceSpec(kind="udp", options={"bogus": 1})
            )
        assert raised.value.field == "source.options.bogus"

    @pytest.mark.parametrize("key, value", [
        ("port", "abc"), ("port", -1), ("port", 65536),
        ("queue_chunks", -1), ("queue_chunks", "1.5"),
        ("rcvbuf", 0), ("rcvbuf", -4096),
        ("max_batch_seconds", -0.01), ("max_batch_seconds", "inf"),
        ("max_batch_seconds", float("nan")),
        ("idle_seconds", -1.0), ("idle_seconds", float("inf")),
        ("template_expiry", -300.0), ("template_expiry", "nan"),
        ("max_flows", "many"), ("boot_time", [1.0]),
        ("boot_time", float("-inf")),
    ])
    def test_invalid_option_value_names_the_field(self, key, value):
        from repro.errors import SpecError

        built = []
        with pytest.raises(SpecError, match=f"udp option '{key}'") \
                as raised:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    listener, "FlowCollector",
                    lambda **options: built.append(options),
                )
                listener.UdpSource(
                    api.SourceSpec(kind="udp", options={key: value})
                )
        assert raised.value.field == f"source.options.{key}"
        assert built == []  # refused before any socket or process

    def test_least_legal_values_build(self):
        source = listener.UdpSource(api.SourceSpec(kind="udp", options={
            "port": 0, "queue_chunks": 0, "rcvbuf": 1,
            "max_batch_seconds": 0, "idle_seconds": 0,
            "template_expiry": 0,
        }))
        source.close()
        collector = source.collector
        assert collector.max_batch_seconds == 0.0
        assert collector.queue_chunks == 0

    def test_invalid_option_exits_2(self, tmp_path, capsys):
        config = tmp_path / "collector.toml"
        config.write_text(
            "[source]\n"
            'kind = "udp"\n'
            "[source.options]\n"
            'port = "abc"\n'
            "[detector]\n"
            'name = "netreflex"\n'
            "[execution]\n"
            'mode = "stream"\n'
        )
        assert main(["run", str(config)]) == 2
        assert "source.options.port" in capsys.readouterr().err


# -- file/UDP session equivalence ---------------------------------------------


@pytest.fixture(scope="module")
def replay_bundle(tmp_path_factory):
    """A capture split into train/tail artifacts both paths share.

    The split happens *after* an rpv5 roundtrip: the container stores
    millisecond timestamps, so splitting pre-quantization flows would
    assign boundary flows differently from a reader of the file.
    """
    root = tmp_path_factory.mktemp("replay")
    labeled = build_preset_scenario(
        bins=12, fps=4.0, anomalies=("port-scan",)
    ).build(seed=7)
    trace = labeled.trace
    split = trace.origin + 8 * trace.bin_seconds
    full = root / "full.rpv5"
    write_binary(trace.table, full, boot_time=0.0)
    from repro.flows.trace import FlowTrace

    quantized = FlowTrace(read_binary_table(full), bin_seconds=300.0)
    train = quantized.where(lambda f: f.start < split)
    tail = quantized.between_table(split, quantized.span[1] + 1.0)
    train_path = root / "train.rpv5"
    tail_path = root / "tail.rpv5"
    write_binary(train.table, train_path, boot_time=0.0)
    write_binary(tail, tail_path, boot_time=0.0)
    return {
        "split": split,
        "train": train_path,
        "tail": tail_path,
        "tail_flows": len(tail),
    }


def _run_file(bundle, workers):
    return (
        api.session()
        .source("rpv5", path=str(bundle["tail"]), bin_seconds=300.0,
                origin=bundle["split"])
        .detect("netreflex", train_path=str(bundle["train"]))
        .stream(window_seconds=300.0, workers=workers,
                chunk_rows=2048)
        .run()
    )


def _run_udp(bundle, workers):
    boot, packets = read_recorded_datagrams(bundle["tail"])
    builder = (
        api.session()
        .source("udp", origin=bundle["split"], port=0, boot_time=boot,
                max_flows=bundle["tail_flows"], idle_seconds=15.0)
        .detect("netreflex", train_path=str(bundle["train"]))
        .stream(window_seconds=300.0, workers=workers,
                chunk_rows=2048)
    )
    context = {}
    senders = []

    def on_start(ctx):
        # The collector is built (its listener forked) by now.
        context.update(ctx)
        sender = threading.Thread(
            target=send_datagrams, args=(packets, ctx["port"])
        )
        sender.start()
        senders.append(sender)

    builder.on_start(on_start)
    try:
        result = builder.run()
    finally:
        for sender in senders:
            sender.join(timeout=60)
    return result, context


@pytest.mark.parametrize("workers", [1, 4])
def test_udp_session_equivalent_to_file(replay_bundle, workers):
    """The acceptance gate: loopback replay through the ``udp`` source
    yields byte-identical windows and alarms to the file source."""
    file_result = _run_file(replay_bundle, workers)
    udp_result, context = _run_udp(replay_bundle, workers)

    def windows(result):
        return [
            (w.window.index, w.window.start, w.window.end,
             w.window.flows)
            for w in result.windows
        ]

    def alarms(result):
        return [
            (a.alarm_id, a.start, a.end, a.score, a.label)
            for a in result.alarms
        ]

    assert windows(file_result) == windows(udp_result)
    assert alarms(file_result) == alarms(udp_result)
    assert len(udp_result.alarms) >= 1

    # Honest-ingest side conditions: nothing malformed, dropped or
    # lost during the replay, and the run reports its collector state.
    stats = udp_result.stats
    assert stats["flows"] == replay_bundle["tail_flows"]
    assert stats["malformed"] == 0
    assert stats["dropped"] == 0
    assert stats["seq_lost"] == 0
    assert stats["exporters"] == 1
    assert stats["port"] == context["port"]
    collector = udp_result.payload["collector"]
    assert collector["port"] == context["port"]
    assert collector["flows"] == replay_bundle["tail_flows"]
    # on_start announced the live endpoint before any window sealed.
    assert context["listen"].startswith("udp://127.0.0.1:")
    # The summary line CI greps carries the ephemeral port.
    assert f"port={context['port']}" in udp_result.summary()


def _udp_source_capture(on_built=None):
    """Register a ``udp`` factory that keeps the source it builds and
    runs ``on_built(source)`` right after (the listener is forked)."""
    holder: dict = {}

    def make_source(spec):
        holder["source"] = listener.UdpSource(spec)
        if on_built is not None:
            on_built(holder["source"])
        return holder["source"]

    api.sources.register("udp", make_source, replace=True)
    return holder


def test_session_forks_the_listener_single_threaded(
    replay_bundle, monkeypatch
):
    """The stream session builds its collector before it trains,
    serves or lets anyone send, so the fork happens with one thread
    (Python 3.12 warns on ``fork()`` in a multi-threaded process)."""
    threads_at_fork = []
    fork = os.fork

    def counting_fork():
        threads_at_fork.append(threading.active_count())
        return fork()

    monkeypatch.setattr(listener.os, "fork", counting_fork)
    boot, packets = read_recorded_datagrams(replay_bundle["tail"])
    senders = []

    def on_start(context):
        sender = threading.Thread(
            target=send_datagrams, args=(packets, context["port"])
        )
        sender.start()
        senders.append(sender)

    holder = _udp_source_capture()
    try:
        result = (
            api.session()
            .source("udp", origin=replay_bundle["split"], port=0,
                    boot_time=boot, max_flows=replay_bundle["tail_flows"],
                    idle_seconds=15.0)
            .detect("netreflex", train_path=str(replay_bundle["train"]))
            .stream(window_seconds=300.0, chunk_rows=2048)
            .serve(0)
            .on_start(on_start)
            .run()
        )
    finally:
        api.sources.register("udp", listener.UdpSource, replace=True)
        for sender in senders:
            sender.join(timeout=60)
    assert threads_at_fork == [1]
    assert result.stats["flows"] == replay_bundle["tail_flows"]
    _assert_reaped(holder["source"].collector._pid)


def test_engine_error_reaps_listener(replay_bundle):
    boot, packets = read_recorded_datagrams(replay_bundle["tail"])
    senders = []

    def on_start(context):
        sender = threading.Thread(
            target=send_datagrams, args=(packets, context["port"])
        )
        sender.start()
        senders.append(sender)

    def on_window(result):
        raise RuntimeError("the engine failed")

    holder = _udp_source_capture()
    try:
        with pytest.raises(RuntimeError, match="the engine failed"):
            (
                api.session()
                .source("udp", origin=replay_bundle["split"], port=0,
                        boot_time=boot, idle_seconds=15.0)
                .detect("netreflex",
                        train_path=str(replay_bundle["train"]))
                .stream(window_seconds=300.0, chunk_rows=2048)
                .on_start(on_start)
                .on_window(on_window)
                .run()
            )
    finally:
        api.sources.register("udp", listener.UdpSource, replace=True)
        for sender in senders:
            sender.join(timeout=60)
    _assert_reaped(holder["source"].collector._pid)


def test_cli_exits_7_when_the_listener_dies(replay_bundle, tmp_path, capsys):
    config = tmp_path / "collector.toml"
    config.write_text(
        "[source]\n"
        'kind = "udp"\n'
        "[source.options]\n"
        "port = 0\n"
        "idle_seconds = 30.0\n"
        "[detector]\n"
        'name = "netreflex"\n'
        f'train_path = "{replay_bundle["train"]}"\n'
        "[execution]\n"
        'mode = "stream"\n'
    )
    _, packets = read_recorded_datagrams(replay_bundle["tail"])
    killers = []

    def kill_mid_stream(collector):
        send_datagrams(packets[: len(packets) // 2], collector.port)
        deadline = time.monotonic() + 30.0
        while not collector.flows and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(collector._pid, signal.SIGKILL)

    def on_built(source):
        killer = threading.Thread(
            target=kill_mid_stream, args=(source.collector,)
        )
        killer.start()
        killers.append(killer)

    holder = _udp_source_capture(on_built)
    try:
        code = main(["run", str(config)])
    finally:
        api.sources.register("udp", listener.UdpSource, replace=True)
        for killer in killers:
            killer.join(timeout=60)
    assert code == 7
    assert "killed by signal 9" in capsys.readouterr().err
    collector = holder["source"].collector
    assert collector.counters()["flows"] > 0
    _assert_reaped(collector._pid)


@pytest.mark.parametrize("mode", ["stream", "batch", "synth"])
def test_failed_session_set_up_reaps_listener(tmp_path, mode):
    """A session that fails after building its collector (no training
    file; a mode that needs a bounded source or a scenario) still
    ends the listener process."""
    from repro.errors import SpecError

    holder = _udp_source_capture()
    try:
        with pytest.raises(SpecError):
            (
                api.session()
                .source("udp", port=0)
                .detect("netreflex",
                        train_path=str(tmp_path / "missing.rpv5"))
                .mode(mode)
                .run()
            )
    finally:
        api.sources.register("udp", listener.UdpSource, replace=True)
    _assert_reaped(holder["source"].collector._pid)
