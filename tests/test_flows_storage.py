"""Tests for trace, window store, sampling, aggregate, codec and IO modules."""

import io
import struct

import pytest

from conftest import make_flow
from repro.errors import CodecError, FlowError, SamplingError, StoreError
from repro.flows.aggregate import (
    all_feature_histograms,
    distinct_counts,
    feature_histogram,
    top_n,
)
from repro.collector import ExporterTable, read_recorded_datagrams
from repro.collector.decode import (
    decode_datagram,
    decode_regions,
    parse_header,
)
from repro.flows.flowio import (
    read_binary_table,
    read_csv_table,
    write_binary,
    write_csv,
)
from repro.flows.netflow_v5 import MAX_RECORDS_PER_PACKET, encode_packet
from repro.flows.record import FlowFeature
from repro.flows.sampling import (
    DeterministicSampler,
    RandomSampler,
    renormalize,
    sample_trace,
)
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.stream.window import WindowRing


def _flows(n=10, spacing=30.0):
    return [
        make_flow(sport=1000 + i, start=i * spacing, end=i * spacing + 1)
        for i in range(n)
    ]


class TestFlowTrace:
    def test_sorted_and_len(self):
        flows = list(reversed(_flows(5)))
        trace = FlowTrace(flows)
        assert len(trace) == 5
        starts = [f.start for f in trace]
        assert starts == sorted(starts)

    def test_between_half_open(self):
        trace = FlowTrace(_flows(10))
        selected = trace.between(30.0, 90.0)
        assert [f.start for f in selected] == [30.0, 60.0]

    def test_between_rejects_inverted(self):
        with pytest.raises(StoreError):
            FlowTrace(_flows(3)).between(10.0, 5.0)

    def test_bins(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0, origin=0.0)
        assert trace.bin_count == 5
        assert [len(b) for _, b in trace.bin_tables()] == [2] * 5

    def test_bin_interval_and_index(self):
        trace = FlowTrace(_flows(4), bin_seconds=60.0, origin=0.0)
        assert trace.bin_interval(2) == (120.0, 180.0)
        assert trace.bin_index(125.0) == 2
        assert trace.bin_index(-1.0) == -1

    def test_extend_keeps_order(self):
        trace = FlowTrace(_flows(3))
        trace.extend([make_flow(start=15.0, end=16.0, sport=9)])
        starts = [f.start for f in trace]
        assert starts == sorted(starts)
        assert len(trace) == 4

    def test_stats(self):
        trace = FlowTrace(_flows(4))
        stats = trace.stats()
        assert stats.flows == 4
        assert stats.packets == 40
        assert stats.start == 0.0

    def test_stats_window(self):
        trace = FlowTrace(_flows(4))
        stats = trace.stats(start=30.0, end=90.0)
        assert stats.flows == 2

    def test_where(self):
        trace = FlowTrace(_flows(6))
        filtered = trace.where(lambda f: f.src_port % 2 == 0)
        assert len(filtered) == 3
        assert filtered.bin_seconds == trace.bin_seconds

    def test_empty_trace(self):
        trace = FlowTrace()
        assert not trace
        assert trace.bin_count == 0
        assert trace.stats().flows == 0

    def test_rejects_bad_bin_seconds(self):
        with pytest.raises(StoreError):
            FlowTrace(bin_seconds=0)

    def test_copy_is_independent(self):
        trace = FlowTrace(_flows(2))
        clone = trace.copy()
        clone.extend([make_flow(start=500.0, end=501.0)])
        assert len(trace) == 2 and len(clone) == 3


class TestFlowStore:
    """The NfDump-style window store: a bounded trace and the live
    window ring answer ``[start, end)`` + filter queries."""

    def test_insert_and_query(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0)
        assert len(trace) == 10
        result = trace.query_table(30.0, 90.0)
        assert list(result.start) == [30.0, 60.0]

    def test_query_with_filter(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0)
        assert len(trace.query_table(0.0, 300.0, "src port 1003")) == 1

    def test_count(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0)
        assert len(trace.query_table(0.0, 300.0)) == 10
        assert len(trace.query_table(0.0, 300.0, "src port > 1004")) == 5

    def test_slices_metadata(self):
        ring = WindowRing(window_seconds=60.0, origin=0.0, weights=())
        ring.ingest(FlowTable.from_records(_flows(4)))  # 0, 30, 60, 90
        windows = ring.flush()
        assert [w.flows for w in windows] == [2, 2]
        assert windows[0].start == 0.0
        assert ring.take_counts(0).packets == 20

    def test_expire(self):
        ring = WindowRing(window_seconds=60.0, origin=0.0,
                          retain_windows=3)
        ring.ingest(FlowTable.from_records(_flows(10)))
        assert len(ring.flush()) == 5
        # Windows 0 and 1 (4 flows) fell out of the ring.
        assert not ring.query_table(0.0, 120.0)
        assert len(ring.query_table(0.0, 300.0)) == 6

    def test_from_trace_roundtrip(self):
        trace = FlowTrace(_flows(6), bin_seconds=60.0)
        lo, hi = trace.span
        back = FlowTrace(trace.query_table(lo, hi + 1.0), bin_seconds=60.0)
        assert len(back) == 6
        assert sorted(f.key for f in back) == sorted(f.key for f in trace)

    def test_inverted_interval_rejected(self):
        with pytest.raises(StoreError):
            FlowTrace().query_table(10.0, 0.0)
        with pytest.raises(StoreError):
            WindowRing().query_table(10.0, 0.0)

    def test_negative_time_slices(self):
        trace = FlowTrace([make_flow(start=-30.0, end=-29.0)],
                          bin_seconds=60.0, origin=0.0)
        assert trace.query_table(-60.0, 0.0)


class TestSampling:
    def test_rate_one_is_identity(self):
        flows = _flows(5)
        assert list(RandomSampler(1).sample(flows)) == flows
        assert list(DeterministicSampler(1).sample(flows)) == flows

    def test_rejects_bad_rate(self):
        with pytest.raises(SamplingError):
            RandomSampler(0)
        with pytest.raises(SamplingError):
            DeterministicSampler(-3)

    def test_deterministic_keeps_every_nth_packet(self):
        sampler = DeterministicSampler(10)
        flow = make_flow(packets=100, bytes_=10000)
        sampled = sampler.sample_flow(flow)
        assert sampled is not None
        assert sampled.packets == 10
        assert sampled.sampling_rate == 10

    def test_deterministic_total_conservation(self):
        # Systematic sampling keeps exactly floor(total/N) packets overall.
        sampler = DeterministicSampler(7)
        flows = [make_flow(packets=13, bytes_=130) for _ in range(100)]
        kept = sum(f.packets for f in sampler.sample(flows))
        assert kept == (13 * 100) // 7

    def test_small_flows_vanish(self):
        flows = [make_flow(packets=1, bytes_=40) for _ in range(1000)]
        survivors = sample_trace(flows, 100, seed=1)
        # ~1% survival for single-packet flows.
        assert 0 < len(survivors) < 50

    def test_random_sampler_unbiased(self):
        rate = 10
        flows = [make_flow(packets=50, bytes_=5000) for _ in range(400)]
        survivors = sample_trace(flows, rate, seed=3)
        estimate = sum(f.packets * f.sampling_rate for f in survivors)
        truth = sum(f.packets for f in flows)
        assert abs(estimate - truth) / truth < 0.1

    def test_large_count_normal_approximation(self):
        sampler = RandomSampler(100, seed=5)
        kept = sampler.sampled_packets(1_000_000)
        assert abs(kept - 10_000) < 1_000

    def test_renormalize(self):
        flow = make_flow(packets=3, bytes_=300, sampling=100)
        fixed = renormalize(flow)
        assert fixed.packets == 300
        assert fixed.bytes == 30000
        assert fixed.sampling_rate == 1
        assert renormalize(fixed) == fixed

    def test_sampling_compounds(self):
        flow = make_flow(packets=10_000, bytes_=1_000_000, sampling=10)
        sampled = RandomSampler(10, seed=2).sample_flow(flow)
        assert sampled is not None
        assert sampled.sampling_rate == 100


class TestAggregate:
    def test_feature_histogram_weightings(self):
        flows = [make_flow(dport=80, packets=5), make_flow(dport=80, packets=7),
                 make_flow(dport=53, packets=1)]
        by_flows = feature_histogram(flows, FlowFeature.DST_PORT)
        assert by_flows[80] == 2
        by_packets = feature_histogram(flows, FlowFeature.DST_PORT, "packets")
        assert by_packets[80] == 12

    def test_all_feature_histograms_consistent(self):
        flows = [make_flow(), make_flow(dport=53)]
        merged = all_feature_histograms(flows)
        for feature in FlowFeature:
            assert merged[feature] == feature_histogram(flows, feature)

    def test_top_n(self):
        flows = [make_flow(dport=80)] * 3 + [make_flow(dport=53)] * 2
        ranked = top_n(flows, FlowFeature.DST_PORT, n=1)
        assert ranked == [(80, 3)]

    def test_distinct_counts(self):
        flows = [make_flow(dport=p) for p in (80, 81, 82)]
        counts = distinct_counts(flows)
        assert counts[FlowFeature.DST_PORT] == 3
        assert counts[FlowFeature.SRC_IP] == 1


def _rpv5_with_packet(packet: bytes, boot_time: float = 0.0) -> bytes:
    """A one-packet container around ``packet``."""
    return (
        struct.pack("!4sdI", b"RPV5", boot_time, 1)
        + struct.pack("!I", len(packet)) + packet
    )


class TestNetflowV5:
    def test_roundtrip_single(self):
        flow = make_flow(start=10.0, end=11.0)
        packet = encode_packet([flow], boot_time=0.0)
        decoded = decode_datagram(packet, boot_time=0.0)
        assert parse_header(packet).count == 1
        (record,) = FlowTable(decoded.rows).to_records()
        assert record.key == flow.key
        assert record.packets == flow.packets
        assert abs(record.start - flow.start) < 0.002

    def test_sampling_header_propagates(self):
        flow = make_flow()
        packet = encode_packet([flow], sampling_rate=100)
        assert parse_header(packet).sampling == 100
        assert decode_datagram(packet).rows["sampling_rate"].tolist() \
            == [100]

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(CodecError):
            encode_packet([])
        with pytest.raises(CodecError):
            encode_packet([make_flow()] * (MAX_RECORDS_PER_PACKET + 1))

    def test_rejects_flow_before_boot(self):
        with pytest.raises(CodecError):
            encode_packet([make_flow(start=5.0, end=6.0)], boot_time=10.0)

    def test_rejects_truncated(self, tmp_path):
        packet = encode_packet([make_flow()])
        with pytest.raises(CodecError):
            decode_datagram(packet[:10])
        # The socket counts a cut record; a file refuses it.
        assert decode_datagram(packet[:-5]).malformed == 1
        path = tmp_path / "cut.rpv5"
        path.write_bytes(_rpv5_with_packet(packet[:-5]))
        with pytest.raises(CodecError):
            read_binary_table(path)

    def test_rejects_wrong_version(self):
        packet = bytearray(encode_packet([make_flow()]))
        packet[0:2] = (0).to_bytes(2, "big")
        with pytest.raises(CodecError):
            decode_datagram(bytes(packet))

    def test_stream_roundtrip_and_sequence(self, tmp_path):
        flows = [make_flow(sport=1000 + i, start=float(i), end=float(i) + 1)
                 for i in range(75)]
        path = tmp_path / "trace.rpv5"
        assert write_binary(flows, path) == 3  # 30 + 30 + 15
        _, packets = read_recorded_datagrams(path)
        assert [parse_header(p)[2:4] for p in packets] == \
            [(0, 30), (30, 30), (60, 15)]
        decoded = read_binary_table(path).to_records()
        assert [f.key for f in decoded] == [f.key for f in flows]

    def test_stream_detects_sequence_gap(self, tmp_path):
        flows = [make_flow(sport=1000 + i, start=float(i), end=float(i) + 1)
                 for i in range(75)]
        path = tmp_path / "trace.rpv5"
        write_binary(flows, path)
        _, packets = read_recorded_datagrams(path)
        exporter = ExporterTable().get("192.0.2.1", 5, 0)
        assert exporter.note(decode_datagram(packets[0]), 1.0) == 0
        assert exporter.note(decode_datagram(packets[2]), 2.0) == 30
        assert exporter.sequence_lost == 30


class TestFlowIO:
    def test_csv_roundtrip(self):
        flows = [make_flow(sport=i, start=float(i), end=i + 0.5)
                 for i in range(1, 20)]
        buffer = io.StringIO()
        assert write_csv(FlowTable.from_records(flows), buffer) == 19
        buffer.seek(0)
        assert read_csv_table(buffer).to_records() == flows

    def test_csv_rejects_bad_header(self):
        handle = io.StringIO("a,b,c\n1,2,3\n")
        with pytest.raises(CodecError):
            read_csv_table(handle)

    def test_csv_rejects_bad_row(self):
        buffer = io.StringIO()
        write_csv(FlowTable.from_records([make_flow()]), buffer)
        text = buffer.getvalue() + "only,three,fields\n"
        with pytest.raises(CodecError):
            read_csv_table(io.StringIO(text))

    def test_binary_roundtrip(self, tmp_path):
        flows = [make_flow(sport=1000 + i, start=float(i), end=float(i) + 1)
                 for i in range(65)]
        path = tmp_path / "trace.rpv5"
        packets_written = write_binary(flows, path, boot_time=0.0)
        assert packets_written == 3
        decoded = read_binary_table(path).to_records()
        assert [f.key for f in decoded] == [f.key for f in flows]

    def test_binary_rejects_corruption(self, tmp_path):
        path = tmp_path / "trace.rpv5"
        write_binary([make_flow()], path)
        data = path.read_bytes()
        (tmp_path / "bad.rpv5").write_bytes(b"XXXX" + data[4:])
        with pytest.raises(CodecError):
            read_binary_table(tmp_path / "bad.rpv5")
        (tmp_path / "trunc.rpv5").write_bytes(data[:-10])
        with pytest.raises(CodecError):
            read_binary_table(tmp_path / "trunc.rpv5")


_GOOD_PACKET = encode_packet(
    [make_flow(start=10.0, end=11.0), make_flow(start=12.0, end=12.5)]
)
_GOOD_FILE = _rpv5_with_packet(_GOOD_PACKET)
#: ``last`` (record offset 28) set below ``first`` (offset 24).
_INVERTED_PACKET = (
    _GOOD_PACKET[:24 + 28] + (9_000).to_bytes(4, "big")
    + _GOOD_PACKET[24 + 32:]
)


class TestBinaryReaderRefusals:
    """Every corruption the per-record ``.rpv5`` reader refused, the
    table reader refuses with the same error class."""

    @pytest.mark.parametrize("content, error", [
        pytest.param(b"XXXX" + _GOOD_FILE[4:], CodecError, id="bad-magic"),
        pytest.param(_GOOD_FILE[:10], CodecError, id="short-file-header"),
        pytest.param(_GOOD_FILE[:18], CodecError, id="short-packet-length"),
        pytest.param(_GOOD_FILE[:-10], CodecError, id="short-packet-body"),
        pytest.param(
            _rpv5_with_packet(b"\x00\x09" + _GOOD_PACKET[2:]),
            CodecError, id="not-version-5",
        ),
        pytest.param(
            _rpv5_with_packet(_GOOD_PACKET[:10]), CodecError,
            id="packet-shorter-than-its-header",
        ),
        pytest.param(
            _rpv5_with_packet(_GOOD_PACKET[:-5]), CodecError,
            id="count-larger-than-body",
        ),
        pytest.param(
            _rpv5_with_packet(_INVERTED_PACKET), FlowError,
            id="last-before-first",
        ),
    ])
    def test_refuses(self, tmp_path, content, error):
        path = tmp_path / "trace.rpv5"
        path.write_bytes(content)
        with pytest.raises(error):
            read_binary_table(path)

    @pytest.mark.parametrize("content", [
        pytest.param(b"XXXX" + _GOOD_FILE[4:], id="bad-magic"),
        pytest.param(_GOOD_FILE[:10], id="short-file-header"),
        pytest.param(_GOOD_FILE[:18], id="short-packet-length"),
        pytest.param(_GOOD_FILE[:-10], id="short-packet-body"),
    ])
    def test_recorded_datagrams_refuse_a_damaged_container(
        self, tmp_path, content
    ):
        path = tmp_path / "trace.rpv5"
        path.write_bytes(content)
        with pytest.raises(CodecError):
            read_recorded_datagrams(path)

    def test_good_file_reads(self, tmp_path):
        path = tmp_path / "trace.rpv5"
        path.write_bytes(_GOOD_FILE)
        assert read_binary_table(path).start.tolist() == [10.0, 12.0]
        assert read_recorded_datagrams(path) == (0.0, [_GOOD_PACKET])

    def test_empty_container_keeps_its_boot_time(self, tmp_path):
        path = tmp_path / "empty.rpv5"
        assert write_binary(FlowTable.from_records([]), path,
                            boot_time=5.0) == 0
        assert read_recorded_datagrams(path) == (5.0, [])
        assert len(read_binary_table(path)) == 0

    @pytest.mark.parametrize("chunk_rows, packets", [
        (10, "packets 0..2"), (2, "packets 1..1"), (3, "packets 0..1"),
    ])
    def test_inverted_record_names_file_and_packets(
        self, tmp_path, chunk_rows, packets
    ):
        path = tmp_path / "trace.rpv5"
        body = b"".join(
            struct.pack("!I", len(packet)) + packet
            for packet in (_GOOD_PACKET, _INVERTED_PACKET, _GOOD_PACKET)
        )
        path.write_bytes(struct.pack("!4sdI", b"RPV5", 0.0, 3) + body)
        with pytest.raises(FlowError, match=rf"trace\.rpv5: {packets}: 1 "):
            read_binary_table(path, chunk_rows=chunk_rows)

    def test_datagram_decoder_counts_an_inverted_record(self):
        datagram = decode_datagram(_INVERTED_PACKET)
        rows, clamped = decode_regions(datagram.regions, 0.0)
        assert clamped == 1
        assert rows["end"][0] == rows["start"][0]
