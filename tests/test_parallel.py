"""Every worker count runs in one process, with one answer.

``workers`` is deprecated and has no effect: triage mining, batch
detection and archive scans run in the calling process at any value.
:func:`test_no_process_at_any_worker_count` holds that end to end: with
``os.fork`` and ``SharedMemory`` made to raise, every session mode at
``workers=4`` answers as ``workers=1``; the classes below pin the same
for single passes. What is left of :mod:`repro.parallel` is the
archive's shard layout — stable, seedable hash placement — pinned by
:class:`TestPartition`, and the two tracer stubs, pinned by
:class:`TestExecutor` and :class:`TestPartitionedMining`.
"""

from __future__ import annotations

import multiprocessing.shared_memory
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.detect.base import Alarm
from repro.detect.netreflex import NetReflexDetector
from repro.errors import ExtractionError, FlowError
from repro.extraction.extractor import AnomalyExtractor
from repro.extraction.summarize import table_rows
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.mining.apriori import mine_apriori
from repro.mining.extended import ExtendedApriori
from repro.mining.transactions import TransactionSet
from repro.parallel import PartitionSpec, shard_ids, stable_hash64
from repro.parallel.executor import ShardExecutor
from repro.parallel.mining import ShardedApriori
from repro.system.alarmdb import AlarmDatabase
from tests.mining_oracle import (
    OracleApriori,
    OracleTransactionSet,
    oracle_apriori,
)

SHARD_COUNTS = (1, 2, 7)

# Small value pools make repeated feature values (and therefore
# frequent itemsets) likely.
_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 55548])
_PROTOS = st.sampled_from([6, 17])


@st.composite
def flow_records(draw):
    start = draw(st.floats(min_value=0.0, max_value=1200.0,
                           allow_nan=False, allow_infinity=False))
    return FlowRecord(
        src_ip=draw(_IPS),
        dst_ip=draw(_IPS),
        src_port=draw(_PORTS),
        dst_port=draw(_PORTS),
        proto=draw(_PROTOS),
        packets=draw(st.integers(min_value=0, max_value=100_000)),
        bytes=draw(st.integers(min_value=0, max_value=10_000_000)),
        start=start,
        end=start + draw(st.floats(min_value=0.0, max_value=300.0,
                                   allow_nan=False, allow_infinity=False)),
    )


flow_lists = st.lists(flow_records(), min_size=0, max_size=60)


def _table(flows, shuffle_seed=None):
    table = FlowTable.from_records(flows, cache_records=False)
    if shuffle_seed is not None and len(table) > 1:
        order = np.random.default_rng(shuffle_seed).permutation(len(table))
        table = table.select(order)
    return table


# -- the archive's shard layout ----------------------------------------------


class TestPartition:
    def test_stable_hash_is_deterministic_and_seeded(self):
        values = np.array([1, 2, 3, 2**32 - 1], dtype=np.uint64)
        a = stable_hash64(values, seed=0)
        b = stable_hash64(values, seed=0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, stable_hash64(values, seed=1))

    def test_partition_covers_rows_exactly_once(self):
        rng = np.random.default_rng(0)
        n = 500
        start = np.sort(rng.uniform(0, 100, n))
        table = FlowTable.from_columns(
            src_ip=rng.integers(0, 2**32, n),
            dst_ip=rng.integers(0, 2**32, n),
            src_port=rng.integers(0, 2**16, n),
            dst_port=rng.integers(0, 2**16, n),
            proto=rng.integers(0, 256, n),
            start=start, end=start + 1.0,
        )
        ids = shard_ids(table, PartitionSpec(shards=5))
        # One shard per row, in range, and a pure function of the key.
        assert ids.shape == (n,)
        assert set(ids.tolist()) <= set(range(5))
        assert np.array_equal(
            ids, (stable_hash64(table.src_ip) % np.uint64(5)).astype(ids.dtype)
        )
        assert not shard_ids(table, PartitionSpec(shards=1)).any()

    def test_bad_spec_rejected(self):
        with pytest.raises(FlowError):
            PartitionSpec(shards=0)
        with pytest.raises(FlowError):
            PartitionSpec(key="bytes")


# -- the mining kernel -------------------------------------------------------


def _mining_reference(table):
    """Thresholds and the frequent itemsets at them, mined by the
    per-transaction oracle (tests/mining_oracle.py)."""
    transactions = OracleTransactionSet.from_flows(table.to_records())
    if not transactions:
        return None, None, []
    min_flows, min_packets = transactions.absolute_thresholds(
        0.1, 0.1, floor_flows=2, floor_packets=100
    )
    return min_flows, min_packets, oracle_apriori(
        transactions, min_flows, min_packets
    )


_ALARM = Alarm("a-1", "test", start=0.0, end=1600.0, score=1.0)


def _report(table, workers):
    """What one extraction at ``workers`` reported, comparable across
    runs."""
    extractor = AnomalyExtractor(workers=workers)
    try:
        report = extractor.extract(_ALARM, table)
    finally:
        extractor.close()
    return table_rows(report), report.describe()


def _forbid_processes(monkeypatch):
    monkeypatch.setattr(os, "fork", _forbidden)
    monkeypatch.setattr(
        multiprocessing.shared_memory, "SharedMemory", _forbidden
    )


class TestPartitionedMining:
    """Mining is one in-process :class:`ExtendedApriori` run at every
    worker count; these pin that a ``workers`` value that once sharded
    it changes no byte of the result."""

    @given(flows=flow_lists, seed=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_oracle(self, flows, seed):
        table = _table(flows, shuffle_seed=seed)
        min_flows, min_packets, reference = _mining_reference(table)
        if min_flows is None:
            return
        assert mine_apriori(
            TransactionSet.from_table(table), min_flows, min_packets
        ) == reference

    @given(
        flows=flow_lists,
        workers=st.sampled_from(SHARD_COUNTS),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_sharded_mining_is_byte_identical(self, flows, workers, seed):
        table = _table(flows, shuffle_seed=seed)
        if not len(table):
            return
        assert _report(table, workers) == _report(table, 1)

    def test_degenerate_shards(self):
        row = FlowRecord(
            src_ip=1, dst_ip=2, src_port=3, dst_port=4, proto=6,
            packets=5, bytes=6, start=0.0, end=1.0,
        )
        single = _table([row])
        assert _report(single, 7) == _report(single, 1)
        # No candidate flows: nothing is mined, at any worker count.
        assert ExtendedApriori().mine(FlowTable.empty()).itemsets == []
        assert ShardedApriori().mine(FlowTable.empty()).itemsets == []

    @given(
        flows=flow_lists,
        shards=st.sampled_from(SHARD_COUNTS),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_sharded_extended_apriori_outcome_matches(
        self, flows, shards, seed
    ):
        # ShardedApriori is ExtendedApriori under the name the e2e
        # tracer patches; it must mine exactly as the serial engine.
        table = _table(flows, shuffle_seed=seed)
        reference = ExtendedApriori().mine(table)
        assert reference == OracleApriori().mine(table)
        outcome = ShardedApriori().mine(table)
        assert outcome.itemsets == reference.itemsets
        assert outcome.all_frequent == reference.all_frequent
        assert outcome.min_flows == reference.min_flows
        assert outcome.min_packets == reference.min_packets
        assert outcome.history == reference.history
        assert outcome.iterations == reference.iterations
        assert outcome.converged == reference.converged

    def test_sharded_mining_through_processes(self, monkeypatch):
        # Two workers once mined through a process pool; with fork and
        # shared memory refused they mine in this process, unchanged.
        rng = np.random.default_rng(1)
        n = 3000
        start = np.sort(rng.uniform(0, 600, n))
        table = FlowTable.from_columns(
            src_ip=rng.integers(0, 40, n),
            dst_ip=rng.integers(0, 8, n),
            src_port=rng.integers(1024, 1040, n),
            dst_port=rng.choice(np.array([53, 80]), n),
            proto=rng.choice(np.array([6, 17]), n),
            packets=rng.integers(1, 500, n),
            bytes=rng.integers(40, 10_000, n),
            start=start, end=start + 1.0,
        )
        reference = _report(table, 1)
        assert reference[0], "the table must mine to a report"
        _forbid_processes(monkeypatch)
        assert _report(table, 2) == reference


# -- executor ----------------------------------------------------------------


def _scaled_packets(table, factor):
    return int(table.packets.sum()) * factor


class TestExecutor:
    """``ShardExecutor`` is an in-process stub kept for the e2e
    tracer's entry points: each ``map_*`` returns what its
    comprehension returns."""

    def test_serial_and_process_paths_agree(self):
        tables = [
            _table([FlowRecord(
                src_ip=i, dst_ip=2, src_port=3, dst_port=4, proto=6,
                packets=10 * (i + 1), bytes=1, start=0.0, end=1.0,
            )] * (i + 1))
            for i in range(3)
        ]
        extras = [(2,), (3,), (4,)]
        reference = [
            _scaled_packets(table, *extra)
            for table, extra in zip(tables, extras)
        ]
        executor = ShardExecutor()
        assert executor.map_tables(_scaled_packets, tables, extras) \
            == reference
        assert executor.map_items(
            _scaled_packets,
            [(table, *extra) for table, extra in zip(tables, extras)],
        ) == reference
        assert executor.map_table_groups(
            _scaled_packets, [[table] for table in tables], extras
        ) == reference
        whole = FlowTable.concat(tables)
        masks = [whole.src_ip == i for i in range(3)]
        assert executor.map_masked(_scaled_packets, whole, masks, extras) \
            == reference
        assert executor.map_broadcast(
            lambda pieces, factor: sum(len(p) for p in pieces) * factor,
            tables, extras,
        ) == [12, 18, 24]
        executor.close()

    def test_extras_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShardExecutor().map_tables(
                _scaled_packets, [FlowTable.empty()], [(1,), (2,)]
            )


class TestExecutorLifecycle:
    def test_owned_pools_close_idempotently(self):
        # An extractor owns no pool at any worker count: close() is
        # idempotent and releases nothing it still needs.
        table = _random_flows()
        extractor = AnomalyExtractor(workers=2)
        extractor.close()
        extractor.close()
        report = extractor.extract(_ALARM, table)
        assert (table_rows(report), report.describe()) \
            == _report(table, 1)
        AnomalyExtractor(workers=1).close()
        with pytest.raises(ExtractionError):
            AnomalyExtractor(workers=0)


def _random_flows(count=900, seed=1):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, 600.0, count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A000010, count),
        dst_ip=rng.integers(0x0A000000, 0x0A000010, count),
        src_port=rng.integers(1024, 1100, count),
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 200, count),
        bytes=rng.integers(40, 10_000, count),
        start=starts,
        end=starts + 1.0,
    )


# -- extraction at any worker count ------------------------------------------


def _scenario_traces():
    from repro.synth.anomalies import PortScan
    from repro.synth.background import BackgroundConfig
    from repro.synth.scenario import Scenario
    from repro.synth.topology import Topology

    topology = Topology()
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=5.0),
        bin_count=12,
    )
    target = topology.host_address(topology.pops[9], 3)
    scenario.add(PortScan("scan", 0xCB4F40A5, target, 8000), 10)
    trace = scenario.build(seed=7).trace
    split = trace.origin + 8 * trace.bin_seconds
    return (
        trace.where(lambda f: f.start < split),
        trace.where(lambda f: f.start >= split),
    )


class TestShardedExtraction:
    def test_extraction_reports_identical_across_workers(self):
        from repro.system.pipeline import ExtractionSystem

        training, tail = _scenario_traces()
        full = training.copy()
        full.extend(tail.table)
        detector = NetReflexDetector()
        detector.train(training)
        reference_rows = None
        for workers in (1, 4):
            system = ExtractionSystem.from_trace(full, workers=workers)
            alarms = system.run_detector(detector, tail)
            assert alarms
            results = system.process_open_alarms(skip_errors=True)
            rows = [
                table_rows(result.report) for result in results
            ]
            verdicts = [
                result.verdict.useful for result in results
            ]
            if reference_rows is None:
                reference_rows = (rows, verdicts)
            else:
                assert (rows, verdicts) == reference_rows


# -- one process at every worker count ---------------------------------------


class _Forbidden(Exception):
    """Raised by the patched process and shared-memory primitives."""


def _forbidden(*_args, **_kwargs):
    raise _Forbidden("a session must run in its own process")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("one-process") / "trace.rpv5"
    (
        api.session()
        .scenario(bins=12, fps=6, seed=7, anomalies=["port-scan"])
        .synth(str(out))
        .run()
    )
    return str(out)


def _decided(result):
    """What a detection or triage run decided, comparable across runs."""
    return (
        result.alarms,
        [
            (table_rows(t.report), t.report.describe(), t.verdict)
            for t in result.triage
        ],
    )


def _db_rows(path):
    db = AlarmDatabase(str(path))
    try:
        return db.rows()[0]
    finally:
        db.close()


def _every_mode(trace, root, workers):
    """Alarms, reports, verdicts, query answers and alarm-DB rows of
    batch, extract, stream --triage, archive-resume triage and archive
    queries, all run at one worker count."""
    root.mkdir()
    out = {}
    batch = (
        api.session()
        .source("rpv5", path=trace)
        .detect("netreflex", train_bins=8)
        .batch(workers=workers, triage=True)
        .alarmdb(str(root / "batch.db"))
        .run()
    )
    out["batch"] = _decided(batch), _db_rows(root / "batch.db")
    extract = (
        api.session()
        .source("rpv5", path=trace)
        .extract(3000.0, 3300.0, hints=["srcPort=55548"],
                 workers=workers)
        .run()
    )
    out["extract"] = _decided(extract)
    stream = (
        api.session()
        .source("rpv5", path=trace)
        .detect("netreflex", train_bins=8)
        .stream(workers=workers, triage=True, dedup_window=600.0)
        .alarmdb(str(root / "stream.db"))
        .run()
    )
    out["stream"] = _decided(stream), _db_rows(root / "stream.db")
    # Detection only: its alarms stay open for triage over the archive.
    (
        api.session()
        .source("rpv5", path=trace)
        .detect("netreflex", train_bins=8)
        .stream()
        .archive(str(root / "spool"))
        .alarmdb(str(root / "resume.db"))
        .run()
    )
    resumed = (
        api.session()
        .source("archive", path=str(root / "spool"))
        .triage(workers=workers)
        .alarmdb(str(root / "resume.db"))
        .run()
    )
    out["triage"] = _decided(resumed), _db_rows(root / "resume.db")
    for name, options in (
        ("stats", {"stats": True}), ("top", {"top": "dstIP"}), ("rows", {}),
    ):
        # A filter forces payload scans over every partition.
        result = (
            api.session()
            .source("archive", path=str(root / "spool"))
            .query(filter="proto tcp", explain=True, workers=workers,
                   **options)
            .run()
        )
        flows = result.payload["flows"]
        out[f"query-{name}"] = (
            result.stats,
            result.payload.get("stats"),
            result.payload.get("top"),
            result.payload["plan"],
            None if flows is None else flows._data.tobytes(),
        )
    return out


class TestParallelDetect:
    def test_parallel_sweep_matches_batch(self, trace_path, monkeypatch):
        # Batch detection calls ``detector.detect`` once, in this
        # process, whatever ``workers`` asks for.
        def alarms(workers):
            return (
                api.session()
                .source("rpv5", path=trace_path)
                .detect("netreflex", train_bins=8)
                .batch(workers=workers)
                .run()
                .alarms
            )

        reference = alarms(1)
        assert reference  # the scenario must actually alarm
        _forbid_processes(monkeypatch)
        calls = []
        detect = NetReflexDetector.detect

        def counted(self, trace):
            calls.append(len(trace))
            return detect(self, trace)

        monkeypatch.setattr(NetReflexDetector, "detect", counted)
        for workers in SHARD_COUNTS:
            got = alarms(workers)
            assert [
                (a.alarm_id, a.start, a.end, a.score, a.label, a.metadata)
                for a in got
            ] == [
                (a.alarm_id, a.start, a.end, a.score, a.label, a.metadata)
                for a in reference
            ]
        assert len(calls) == len(SHARD_COUNTS)


def test_no_process_at_any_worker_count(trace_path, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", _forbidden)
    monkeypatch.setattr(
        multiprocessing.shared_memory, "SharedMemory", _forbidden
    )
    serial = _every_mode(trace_path, tmp_path / "w1", workers=1)
    assert serial["batch"][0][1], "the trace must alarm and triage"
    assert serial["triage"][0][1], "archive-resume must triage"
    assert serial["query-stats"][3].scanned > 1
    assert _every_mode(trace_path, tmp_path / "w4", workers=4) == serial
