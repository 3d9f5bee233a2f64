"""Tests for the streaming subsystem (repro.stream).

Three layers of guarantees:

* **Window semantics** — rotation boundaries, out-of-order admission
  vs. late drop, watermark monotonicity, in-order closing (including
  empty windows), retention expiry.
* **One count per window** — a sealed window is counted once, by the
  pass that indexes its archive partition, and the detectors' view of
  those counts equals the batch per-bin features *exactly* (integer
  counters, value-ordered entropy sums), whatever the chunking.
* **Batch equivalence** — streaming a trace (max-rate replay, and
  shuffled arrival under an unbounded lateness horizon) yields the
  same alarms as batch ``detect()`` over the same trace: ids, windows,
  labels, meta-data, scores. Hypothesis drives this over randomized
  traces and chunkings.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.archive.index
import repro.flows.aggregate
from repro import api
from repro.archive import ArchiveReader, ArchiveWriter
from repro.archive.index import FeatureIndex, ZoneMap, encode_index
from repro.archive.layout import sidecar_path
from repro.detect.features import WindowCounts
from repro.detect.histogram import (
    HistogramDetectorConfig,
    HistogramKLDetector,
)
from repro.detect.netreflex import NetReflexDetector
from repro.errors import StoreError
from repro.flows.addresses import ip_to_int
from repro.flows.aggregate import feature_histogram
from repro.flows.flowio import write_csv
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.stream import (
    ReplayDriver,
    StreamEngine,
    WindowRing,
    table_chunks,
    tail_csv_chunks,
)
from tests.flow_balance import assert_flow_balance
from repro.stream.sources import _csv_header_line
from repro.synth.anomalies import PortScan
from repro.synth.background import BackgroundConfig
from repro.synth.scenario import Scenario
from repro.synth.topology import Topology


def _table(starts, dport=80):
    """Minimal table with the given start times (sorted not required)."""
    starts = np.asarray(starts, dtype=float)
    n = len(starts)
    return FlowTable.from_columns(
        src_ip=np.full(n, 0x0A000001),
        dst_ip=np.full(n, 0x0A010203),
        src_port=np.full(n, 1234),
        dst_port=np.full(n, dport),
        proto=np.full(n, 6),
        packets=np.full(n, 10),
        bytes=np.full(n, 500),
        start=starts,
        end=starts + 1.0,
    )


def _random_table(count, seed=3, span=900.0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, span, count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        dst_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        src_port=rng.integers(1024, 2048, count),
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 500, count),
        bytes=rng.integers(40, 100_000, count),
        start=starts,
        end=starts + rng.uniform(0.0, 60.0, count),
    )


class TestWindowRing:
    def test_origin_floor_and_rotation_boundary(self):
        ring = WindowRing(window_seconds=60.0)
        result = ring.ingest(_table([130.0, 179.999, 180.0, 239.0]))
        # Origin floors to the window grid; 180.0 starts the *next*
        # window (half-open slices).
        assert ring.origin == 120.0
        assert [index for index, _ in result.routed] == [0, 1]
        assert len(result.routed[0][1]) == 2
        assert len(result.routed[1][1]) == 2

    def test_explicit_origin_pre_dates_first_row(self):
        ring = WindowRing(window_seconds=60.0, origin=0.0)
        result = ring.ingest(_table([130.0]))
        assert [index for index, _ in result.routed] == [2]

    def test_out_of_order_admitted_while_window_open(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=120.0)
        ring.ingest(_table([10.0, 350.0]))
        # Watermark 350-120=230 has not passed window 0's edge (300):
        # an old row for window 0 is still admissible.
        assert ring.close_due() == []
        result = ring.ingest(_table([5.0]))
        assert result.admitted == 1
        assert result.late_dropped == 0

    def test_late_rows_dropped_after_close(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=0.0)
        ring.ingest(_table([10.0, 400.0]))
        closed = ring.close_due()
        assert [w.index for w in closed] == [0]
        result = ring.ingest(_table([50.0]))
        assert result.admitted == 0
        assert result.late_dropped == 1
        assert ring.late_dropped == 1
        # The dropped row never reaches the archive.
        assert len(ring.query_table(0.0, 300.0)) == 1

    def test_closed_windows_are_final(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=0.0)
        ring.ingest(_table([10.0, 400.0]))
        assert [w.index for w in ring.close_due()] == [0]
        ring.ingest(_table([50.0]))  # dropped
        assert ring.close_due() == []
        assert ring.closed_through == 1

    def test_watermark_monotonic(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=0.0)
        ring.ingest(_table([900.0]))
        assert ring.watermark == 900.0
        ring.ingest(_table([100.0, 400.0]))
        assert ring.watermark == 900.0

    def test_lateness_shifts_watermark(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=150.0)
        ring.ingest(_table([900.0]))
        assert ring.watermark == 750.0

    def test_windows_close_in_order_including_empty(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=0.0,
                          origin=0.0)
        ring.ingest(_table([10.0, 950.0, 1300.0]))
        closed = ring.close_due()
        assert [w.index for w in closed] == [0, 1, 2, 3]
        assert [w.flows for w in closed] == [1, 0, 0, 1]
        assert closed[0].start == 0.0
        assert closed[3].end == 1200.0

    def test_unbounded_lateness_closes_only_on_flush(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=None)
        ring.ingest(_table([10.0, 950.0]))
        assert ring.watermark == -math.inf
        assert ring.close_due() == []
        assert [w.index for w in ring.flush()] == [0, 1, 2, 3]

    def test_flush_is_idempotent(self):
        ring = WindowRing(window_seconds=300.0)
        ring.ingest(_table([10.0]))
        assert len(ring.flush()) == 1
        assert ring.flush() == []

    def test_retention_expires_old_slices(self):
        ring = WindowRing(window_seconds=300.0, lateness_seconds=0.0,
                          retain_windows=2)
        ring.ingest(_table([10.0, 350.0, 650.0, 950.0, 1300.0]))
        ring.close_due()  # seals windows 0..3
        assert ring.closed_through == 4
        # Only the 2 most recent windows stay queryable.
        assert not ring.query_table(0.0, 600.0)
        assert len(ring.query_table(600.0, 1400.0)) == 3

    def test_sealed_window_keeps_its_query_order(self, tmp_path):
        """The seal sorts a window once, for its partition; the ring
        keeps that order, so later queries over the window (triage's
        alarm and baseline tables) are the window itself, unsorted and
        uncopied."""
        from repro.archive import ArchiveReader, ArchiveWriter

        table = _random_table(600)
        shuffled = table.select(
            np.random.default_rng(1).permutation(len(table))
        )
        with ArchiveWriter(tmp_path / "a", slice_seconds=300.0) as writer:
            ring = WindowRing(window_seconds=300.0, origin=0.0,
                              lateness_seconds=None, archive=writer)
            for chunk in table_chunks(shuffled, 170):
                ring.ingest(chunk)
            closed = ring.flush()
        assert [w.index for w in closed] == [0, 1, 2]
        for window in closed:
            kept = ring.query_table(window.start, window.end)
            assert len(kept) == window.flows > 0
            assert ring.query_table(window.start, window.end) is kept
        assert ArchiveReader(tmp_path / "a").query_table(
            0.0, 900.0
        )._data.tobytes() == ring.query_table(
            0.0, 900.0
        )._data.tobytes() == table.in_query_order()._data.tobytes()

    def test_rows_before_explicit_origin_dropped(self):
        ring = WindowRing(window_seconds=300.0, origin=300.0)
        result = ring.ingest(_table([10.0, 400.0]))
        assert result.admitted == 1
        assert result.late_dropped == 1

    def test_bad_parameters(self):
        with pytest.raises(StoreError):
            WindowRing(window_seconds=0.0)
        with pytest.raises(StoreError):
            WindowRing(lateness_seconds=-1.0)
        with pytest.raises(StoreError):
            WindowRing(retain_windows=0)


def _sealed_counts(table, chunk_rows, weights=()):
    """The counts a ring seals for ``table`` (one 900 s window) fed in
    ``chunk_rows``-row chunks."""
    ring = WindowRing(window_seconds=900.0, origin=0.0,
                      lateness_seconds=None, weights=weights)
    for chunk in table_chunks(table, chunk_rows):
        ring.ingest(chunk)
    [window] = ring.flush()
    assert window.flows == len(table)
    return ring.take_counts(window.index)


#: Windows each test chunk's rows fall in: one window (most), two
#: adjacent, two far apart, and chunks whose window already closed.
_CHUNK_WINDOWS = [
    (5,), (5,), (6,), (6, 7), (7,), (2,), (8,), (9, 60), (60,), (30,),
]


def _routing_chunks(seed, width):
    rng = np.random.default_rng(seed)
    for windows in _CHUNK_WINDOWS:
        starts = np.concatenate([
            (index + rng.uniform(0.0, 1.0, 300)) * width
            for index in windows
        ])
        rng.shuffle(starts)
        count = len(starts)
        yield FlowTable.from_columns(
            src_ip=rng.integers(0, 2**32, count),
            dst_ip=rng.integers(0, 2**32, count),
            src_port=rng.integers(0, 2**16, count),
            dst_port=rng.integers(0, 2**16, count),
            proto=rng.choice(np.array([6, 17]), count),
            start=starts,
            end=starts + 1.0,
        )


def _unique_route(chunk, width, first_open):
    """The mask-per-window reference: late count and rows per window."""
    indices = np.floor(chunk.start / width).astype(np.int64)
    live = indices >= first_open
    return int((~live).sum()), [
        (index, chunk.select(live & (indices == index)))
        for index in np.unique(indices[live]).tolist()
    ]


def _concat_bytes(tables):
    return FlowTable.concat(tables)._data.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestOneWindowRouting:
    """A chunk inside one window is routed whole: same windows, late
    counts and contents as one mask per ``np.unique`` window, and one
    private copy of the rows."""

    def test_ring_routes_like_the_unique_path(self, seed):
        width = 60.0
        ring = WindowRing(window_seconds=width, origin=0.0,
                          retain_windows=1000)
        expected: dict[int, list[FlowTable]] = {}
        late_total = 0
        for chunk in _routing_chunks(seed, width):
            late, routes = _unique_route(chunk, width, ring.closed_through)
            result = ring.ingest(chunk)
            assert result.late_dropped == late
            assert [index for index, _ in result.routed] == \
                [index for index, _ in routes]
            for (_, got), (index, want) in zip(result.routed, routes):
                assert got._data.tobytes() == want._data.tobytes()
                assert not np.shares_memory(got._data, chunk._data)
                expected.setdefault(index, []).append(want)
            late_total += late
            # The source may reuse its buffer: the ring must not care.
            chunk._data["start"] = -1.0
            ring.close_due()
        assert ring.late_dropped == late_total
        assert sorted(ring._windows) == sorted(expected)
        for index, tables in expected.items():
            assert _concat_bytes(ring._windows[index]) == \
                _concat_bytes(tables)

    def test_writer_buffers_like_the_unique_path(self, seed, tmp_path):
        width = 60.0
        writer = ArchiveWriter(tmp_path / "a", slice_seconds=width,
                               origin=0.0, spill_rows=10**9)
        expected: dict[int, list[FlowTable]] = {}
        for chunk in _routing_chunks(seed, width):
            _, routes = _unique_route(chunk, width, -(2**62))
            writer.ingest_table(chunk)
            for index, rows in routes:
                expected.setdefault(index, []).append(rows)
            chunk._data["start"] = -1.0
        assert sorted(writer._buffers) == sorted(expected)
        for index, tables in expected.items():
            assert _concat_bytes(writer._buffers[index]) == \
                _concat_bytes(tables)
            assert writer._buffered_rows[index] == \
                sum(len(t) for t in tables)


class TestWindowCounts:
    def test_matches_batch_bin_features_exactly(self):
        table = _random_table(500)
        streamed = _sealed_counts(table, chunk_rows=37).bin_features()
        # Bit-exact, not approximate: integer counters and
        # value-ordered entropy sums reproduce the batch floats.
        assert streamed == WindowCounts.from_table(table).bin_features()

    def test_histograms_equal_batch(self):
        table = _random_table(300, seed=9)
        counts = _sealed_counts(table, chunk_rows=11, weights=("bytes",))
        for feature in FlowFeature:
            for weighting in ("flows", "packets", "bytes"):
                assert counts.histogram(feature, weighting) == \
                    feature_histogram(table, feature, weighting)
        # Byte sums exist only when a detector reads them.
        unweighted = _sealed_counts(table, chunk_rows=11)
        with pytest.raises(KeyError):
            unweighted.value_counts(FlowFeature.SRC_IP, "bytes")

    def test_empty_window_is_all_zero(self):
        features = WindowCounts().bin_features()
        assert features == \
            WindowCounts.from_table(FlowTable.empty()).bin_features()
        ring = WindowRing(window_seconds=300.0, origin=0.0, weights=())
        ring.ingest(_table([10.0, 950.0]))
        assert [w.flows for w in ring.close_due()] == [1, 0, 0]
        assert ring.take_counts(1).bin_features() == features


# -- trained detectors shared by the equivalence tests -------------------

def _scenario_trace(bin_count=12, fps=12.0, seed=7):
    topology = Topology()
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=fps),
        bin_count=bin_count,
    )
    target = topology.host_address(topology.pops[9], 3)
    scenario.add(
        PortScan("scan", ip_to_int("203.0.113.99"), target,
                 flow_count=6000, src_port=55548),
        start_bin=bin_count - 2,
    )
    return scenario.build(seed=seed).trace


@pytest.fixture(scope="module")
def scenario_split():
    trace = _scenario_trace()
    split = trace.origin + 8 * trace.bin_seconds
    training = trace.where(lambda f: f.start < split)
    tail = trace.between_table(split, trace.span[1] + 1.0)
    return training, tail, split, trace.bin_seconds


@pytest.fixture(scope="module")
def trained_netreflex(scenario_split):
    training = scenario_split[0]
    detector = NetReflexDetector()
    detector.train(training)
    return detector


@pytest.fixture(scope="module")
def trained_histogram(scenario_split):
    training = scenario_split[0]
    detector = HistogramKLDetector()
    detector.train(training)
    return detector


@pytest.fixture(scope="module")
def trained_bytes_kl(scenario_split):
    """A byte-weighted KL detector over all five features: its engine
    seals windows with byte sums, and proto counts."""
    detector = HistogramKLDetector(HistogramDetectorConfig(
        features=tuple(FlowFeature), weight="bytes",
    ))
    detector.train(scenario_split[0])
    return detector


def _assert_same_alarms(batch, streamed):
    assert [a.alarm_id for a in streamed] == [a.alarm_id for a in batch]
    for expected, actual in zip(batch, streamed):
        assert actual.detector == expected.detector
        assert actual.start == expected.start
        assert actual.end == expected.end
        assert actual.label == expected.label
        # Bit for bit: both paths score each window by one call.
        assert actual.score.hex() == expected.score.hex()
        assert [(m.feature, m.value, m.weight.hex())
                for m in actual.metadata] == \
            [(m.feature, m.value, m.weight.hex())
             for m in expected.metadata]


def _stream_alarms(detector, table, origin, window_seconds,
                   chunk_rows=1000, lateness=0.0, shuffle_seed=None,
                   archive=None, also=()):
    """Alarms of ``detector`` (and of the ``also`` detectors) streaming
    ``table``; the engine's flow balance is checked on the way."""
    engine = StreamEngine(
        [detector, *also],
        window_seconds=window_seconds,
        origin=origin,
        lateness_seconds=lateness,
        archive=archive,
    )
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        table = table.select(rng.permutation(len(table)))
        results = engine.run(table_chunks(table, chunk_rows))
    else:
        driver = ReplayDriver(table, chunk_rows=chunk_rows)
        results, _ = driver.replay(engine)
    assert_flow_balance(engine, results, len(table))
    return [alarm for result in results for alarm in result.alarms]


class TestStreamingEquivalence:
    def test_netreflex_max_rate_replay(
        self, scenario_split, trained_netreflex
    ):
        _, tail, split, bin_seconds = scenario_split
        batch = trained_netreflex.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        streamed = _stream_alarms(
            trained_netreflex, tail, split, bin_seconds
        )
        assert batch, "scenario must produce at least one alarm"
        _assert_same_alarms(batch, streamed)

    def test_netreflex_shuffled_arrival(
        self, scenario_split, trained_netreflex
    ):
        _, tail, split, bin_seconds = scenario_split
        batch = trained_netreflex.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        streamed = _stream_alarms(
            trained_netreflex, tail, split, bin_seconds,
            chunk_rows=700, lateness=None, shuffle_seed=42,
        )
        _assert_same_alarms(batch, streamed)

    def test_netreflex_builds_no_counter_views(
        self, scenario_split, trained_netreflex, monkeypatch
    ):
        """Attribution reads the sealed window's arrays as they are: no
        ``Counter`` view is built between a window's close and its
        alarm, for quiet and alarmed windows alike, and the alarms lose
        nothing."""
        _, tail, split, bin_seconds = scenario_split
        batch = trained_netreflex.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        built: list[tuple] = []
        monkeypatch.setattr(
            WindowCounts, "histogram",
            lambda self, feature, weighting: built.append(
                (feature, weighting)
            ),
        )
        streamed = _stream_alarms(
            trained_netreflex, tail, split, bin_seconds
        )
        assert streamed, "scenario must attribute at least one alarm"
        assert built == []
        _assert_same_alarms(batch, streamed)

    def test_histogram_kl_max_rate_replay(
        self, scenario_split, trained_histogram
    ):
        _, tail, split, bin_seconds = scenario_split
        batch = trained_histogram.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        streamed = _stream_alarms(
            trained_histogram, tail, split, bin_seconds
        )
        assert batch, "scenario must produce at least one alarm"
        _assert_same_alarms(batch, streamed)

    def test_histogram_kl_shuffled_arrival(
        self, scenario_split, trained_histogram
    ):
        _, tail, split, bin_seconds = scenario_split
        batch = trained_histogram.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        streamed = _stream_alarms(
            trained_histogram, tail, split, bin_seconds,
            chunk_rows=450, lateness=None, shuffle_seed=5,
        )
        _assert_same_alarms(batch, streamed)


# Value pools mirror test_table_equivalence: small enough to collide,
# rich enough to move entropies and histograms around.
_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 1234, 55548, 65535])
_PROTOS = st.sampled_from([1, 6, 17])


@st.composite
def flow_records(draw):
    start = draw(st.floats(min_value=0.0, max_value=1500.0,
                           allow_nan=False, allow_infinity=False))
    return FlowRecord(
        src_ip=draw(_IPS),
        dst_ip=draw(_IPS),
        src_port=draw(_PORTS),
        dst_port=draw(_PORTS),
        proto=draw(_PROTOS),
        packets=draw(st.integers(min_value=1, max_value=50_000)),
        bytes=draw(st.integers(min_value=40, max_value=1_000_000)),
        start=start,
        end=start + draw(st.floats(min_value=0.0, max_value=120.0,
                                   allow_nan=False, allow_infinity=False)),
    )


class TestHypothesisEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        flows=st.lists(flow_records(), min_size=1, max_size=60),
        chunk_rows=st.integers(min_value=1, max_value=50),
    )
    def test_max_rate_replay_matches_batch(
        self, trained_netreflex, flows, chunk_rows
    ):
        """Streaming any trace at max rate == batch detection on it."""
        trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
        batch = trained_netreflex.detect(trace)
        streamed = _stream_alarms(
            trained_netreflex, trace.table, 0.0, 300.0,
            chunk_rows=chunk_rows,
        )
        _assert_same_alarms(batch, streamed)

    @settings(max_examples=25, deadline=None)
    @given(
        flows=st.lists(flow_records(), min_size=1, max_size=60),
        chunk_rows=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_unordered_arrival_matches_batch(
        self, trained_netreflex, flows, chunk_rows, seed
    ):
        """Arrival order is irrelevant under an unbounded horizon."""
        trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
        batch = trained_netreflex.detect(trace)
        streamed = _stream_alarms(
            trained_netreflex, trace.table, 0.0, 300.0,
            chunk_rows=chunk_rows, lateness=None, shuffle_seed=seed,
        )
        _assert_same_alarms(batch, streamed)


def _counting_value_histogram(monkeypatch) -> list:
    """Count every ``value_histogram`` call, wherever it is bound."""
    calls: list = []
    kernel = repro.flows.aggregate.value_histogram

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    for module in (repro.flows.aggregate, repro.archive.index):
        monkeypatch.setattr(module, "value_histogram", counted)
    return calls


class TestOneCountPerWindow:
    @pytest.mark.parametrize("chunk_rows", [37, 1000])
    def test_one_histogram_pass_per_window(
        self, tmp_path, scenario_split, trained_netreflex, monkeypatch,
        chunk_rows,
    ):
        """A sealed window is counted once — one kernel call per
        indexed column — however its rows were chunked: the archive
        index and the detectors read the same arrays."""
        _, tail, split, bin_seconds = scenario_split
        calls = _counting_value_histogram(monkeypatch)
        engine = StreamEngine(
            [trained_netreflex],
            window_seconds=bin_seconds,
            origin=split,
            archive=ArchiveWriter(tmp_path / "spool",
                                  slice_seconds=bin_seconds),
        )
        results, _ = ReplayDriver(tail, chunk_rows=chunk_rows).replay(
            engine
        )
        assert_flow_balance(engine, results, len(tail))
        sealed = sum(1 for result in results if result.window.flows)
        assert sealed >= 3
        assert len(calls) == 6 * sealed
        assert engine.stats.alarms >= 1

    @settings(max_examples=30, deadline=None)
    @given(
        flows=st.lists(flow_records(), min_size=1, max_size=60),
        chunk_rows=st.integers(min_value=1, max_value=50),
        archived=st.booleans(),
    )
    def test_one_count_serves_detectors_and_index(
        self, trained_netreflex, trained_bytes_kl, flows, chunk_rows,
        archived,
    ):
        """With or without an archive, and with byte sums counted for
        a byte-weighted detector: alarms equal batch ``detect()``, and
        every sealed sidecar is the index of its own partition's rows
        built the way ingest and compaction build it."""
        trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
        with tempfile.TemporaryDirectory() as root:
            spool = Path(root) / "spool"
            streamed = _stream_alarms(
                trained_netreflex, trace.table, 0.0, 300.0,
                chunk_rows=chunk_rows, also=[trained_bytes_kl],
                archive=(
                    ArchiveWriter(spool, slice_seconds=300.0)
                    if archived else None
                ),
            )
            for detector in (trained_netreflex, trained_bytes_kl):
                _assert_same_alarms(detector.detect(trace), [
                    alarm for alarm in streamed
                    if alarm.detector == detector.name
                ])
            if not archived:
                return
            partitions = ArchiveReader(spool).partitions()
            assert sum(p.zone.rows for p in partitions) == len(flows)
            for partition in partitions:
                rows = partition.table()
                features = FeatureIndex.from_table(rows)
                assert sidecar_path(partition.path).read_bytes() == \
                    encode_index(
                        ZoneMap.from_table(rows, features, sealed=True),
                        features,
                    )

    def test_sealed_windows_retain_no_arrays(self):
        """A window's counts live only through its seal: nothing a
        stream run returns per window holds an array."""
        result = (
            api.session()
            .scenario(bins=12, fps=6, seed=7, anomalies=["port-scan"])
            .detect("netreflex", train_bins=8)
            .stream()
            .run()
        )
        assert result.windows and result.alarms

        def arrays_in(value):
            if isinstance(value, (np.ndarray, WindowCounts, FlowTable)):
                yield value
            elif dataclasses.is_dataclass(value):
                for item in dataclasses.fields(value):
                    yield from arrays_in(getattr(value, item.name))
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays_in(item)

        for window in result.windows:
            assert list(arrays_in(window)) == []


class TestStreamEngine:
    def test_dedup_merges_refires(self, scenario_split, trained_netreflex):
        _, tail, split, bin_seconds = scenario_split
        engine = StreamEngine(
            [trained_netreflex],
            window_seconds=bin_seconds,
            origin=split,
            dedup_window=5 * bin_seconds,
        )
        results, _ = ReplayDriver(tail, chunk_rows=2048).replay(engine)
        # Whatever fired, re-fires within the suppression window must
        # have been merged, not duplicated.
        assert engine.alarmdb.count() == \
            engine.stats.alarms
        assert engine.stats.alarms >= 1
        assert_flow_balance(engine, results, len(tail))

    def test_late_flows_counted_not_detected(self, trained_netreflex):
        engine = StreamEngine(
            [trained_netreflex],
            window_seconds=300.0,
            origin=0.0,
            lateness_seconds=0.0,
        )
        results = engine.process(_table([10.0, 700.0]))
        # Window 0 already closed:
        results += engine.process(_table([20.0]))
        results += engine.finish()
        assert engine.stats.late_dropped == 1
        assert engine.stats.flows == 2
        assert_flow_balance(engine, results, 3)

    def test_triage_streams_against_live_ring(
        self, scenario_split, trained_netreflex
    ):
        _, tail, split, bin_seconds = scenario_split
        engine = StreamEngine(
            [trained_netreflex],
            window_seconds=bin_seconds,
            origin=split,
            triage=True,
        )
        results, _ = ReplayDriver(tail, chunk_rows=2048).replay(engine)
        triaged = [t for r in results for t in r.triage]
        assert engine.stats.alarms >= 1
        assert len(triaged) == engine.stats.alarms
        # The port scan is substantiated live.
        assert any(t.verdict.useful for t in triaged)
        # Triage state landed in the DB.
        assert engine.alarmdb.count("open") == 0
        assert_flow_balance(engine, results, len(tail))


class TestReplayDriver:
    def test_pacing_with_fake_clock(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        table = _table([0.0, 100.0, 200.0, 300.0])
        driver = ReplayDriver(table, speedup=10.0, chunk_rows=1,
                              clock=clock, sleep=sleep)
        assert len(list(driver.chunks())) == 4
        # 300 event seconds at 10x -> 30 wall seconds of pacing.
        assert sum(sleeps) == pytest.approx(30.0)
        stats = driver.last_stats
        assert stats.flows == 4
        assert stats.achieved_speedup == pytest.approx(10.0)

    def test_max_rate_never_sleeps(self):
        sleeps = []
        driver = ReplayDriver(
            _table([0.0, 500.0]), speedup=None, chunk_rows=1,
            sleep=lambda s: sleeps.append(s),
        )
        list(driver.chunks())
        assert sleeps == []
        assert driver.last_stats.target_speedup is None

    def test_replay_is_time_ordered(self):
        table = _table([300.0, 0.0, 600.0])
        driver = ReplayDriver(table, chunk_rows=2)
        starts = [float(c.start[0]) for c in driver.chunks()]
        assert starts == sorted(starts)

    def test_bad_speedup(self):
        with pytest.raises(StoreError):
            ReplayDriver(_table([0.0]), speedup=0.0)


class TestSources:
    def test_table_chunk_sizes(self):
        chunks = list(table_chunks(_random_table(100), chunk_rows=30))
        assert [len(c) for c in chunks] == [30, 30, 30, 10]

    def test_tail_csv_follows_appends(self, tmp_path):
        path = tmp_path / "live.csv"
        table = _random_table(30, seed=11)
        first = table.select(slice(0, 20))
        second = table.select(slice(20, 30))
        write_csv(first, path)

        appended = []

        def append_rest(_seconds):
            # Simulate another process appending between polls: drop
            # the header write_csv repeats, keep the data rows.
            if appended:
                return
            appended.append(True)
            import io as _io

            buffer = _io.StringIO()
            write_csv(second, buffer)
            body = buffer.getvalue().split("\n", 1)[1]
            with open(path, "a", newline="") as handle:
                handle.write(body)

        chunks = list(tail_csv_chunks(
            path, chunk_rows=8, poll_seconds=0.01, idle_polls=2,
            sleep=append_rest,
        ))
        assert sum(len(c) for c in chunks) == 30

    def test_tail_csv_ignores_partial_lines(self, tmp_path):
        path = tmp_path / "partial.csv"
        torn = ["done"]

        with open(path, "w", newline="") as handle:
            handle.write(_csv_header_line())
            handle.write(
                "10.0.0.1,10.0.0.2,1,2,6,1,64,0.0,1.0,0,0,1\n"
            )
            handle.write("10.0.0.1,10.0.0.2,1,2,6,1,64,")  # torn row

        def complete_line(_seconds):
            if torn:
                torn.pop()
                with open(path, "a", newline="") as handle:
                    handle.write("5.0,6.0,0,0,1\n")

        chunks = list(tail_csv_chunks(
            path, poll_seconds=0.01, idle_polls=2, sleep=complete_line,
        ))
        starts = [float(s) for c in chunks for s in c.start]
        assert starts == [0.0, 5.0]
