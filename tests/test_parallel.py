"""Tests for the sharded execution subsystem (repro.parallel).

The subsystem's one promise is *sharding is invisible in the output*:
for any shard count and any row order, partitioned mining and parallel
detection produce byte-identical results to the single-process paths.
Hypothesis drives the equivalence over randomized flow sets, shard
counts (1, 2, 7), shuffled arrival and degenerate shards (empty,
single-row); deterministic tests pin down the partitioning and
executor building blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.detect.netreflex import NetReflexDetector
from repro.errors import FlowError, MiningError
from repro.flows.flowio import write_csv
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.mining.apriori import mine_apriori
from repro.mining.extended import ExtendedApriori
from repro.mining.transactions import TransactionSet
from repro.parallel import (
    PartitionSpec,
    ShardExecutor,
    ShardedApriori,
    bin_spans,
    count_signatures,
    mine_partitioned,
    parallel_detect,
    parallel_feature_matrix,
    partition_table,
    read_csv_sharded,
    scaled_threshold,
    shard_ids,
    stable_hash64,
)
from tests.mining_oracle import (
    OracleApriori,
    OracleTransactionSet,
    oracle_apriori,
)

# Small value pools make repeated feature values (and therefore
# frequent itemsets crossing shard boundaries) likely.
_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 55548])
_PROTOS = st.sampled_from([6, 17])

SHARD_COUNTS = (1, 2, 7)


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


# -- partitioning ----------------------------------------------------------


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
        spec = PartitionSpec(shards=5)
        shards = partition_table(table, spec)
        assert len(shards) == 5
        assert sum(len(s) for s in shards) == n
        # A row's shard is a pure function of its key value.
        ids = shard_ids(table, spec)
        for shard, rows in enumerate(shards):
            assert set(
                stable_hash64(rows.src_ip) % np.uint64(5)
            ) <= {shard}
        # Same key value -> same shard under both entry points.
        assert np.array_equal(
            ids, (stable_hash64(table.src_ip) % np.uint64(5)).astype(ids.dtype)
        )

    def test_partition_is_order_preserving_within_shards(self):
        table = FlowTable.from_columns(
            src_ip=[1, 2, 1, 2, 1],
            dst_ip=[9] * 5,
            src_port=[0] * 5,
            dst_port=[0] * 5,
            proto=[6] * 5,
            start=[5.0, 4.0, 3.0, 2.0, 1.0],
            end=[6.0, 5.0, 4.0, 3.0, 2.0],
        )
        spec = PartitionSpec(shards=3)
        shards = partition_table(table, spec)
        ids = shard_ids(table, spec)
        # Rows with one key value land on one shard together.
        for value in (1, 2):
            assert len(set(ids[table.src_ip == value].tolist())) == 1
        for shard in shards:
            starts = list(shard.start)
            # Input order (descending start here) survives per shard.
            assert starts == sorted(starts, reverse=True)

    def test_bad_spec_rejected(self):
        with pytest.raises(FlowError):
            PartitionSpec(shards=0)
        with pytest.raises(FlowError):
            PartitionSpec(key="bytes")

    def test_sharded_csv_reader_matches_in_memory_partition(self, tmp_path):
        rng = np.random.default_rng(3)
        flows = [
            FlowRecord(
                src_ip=int(rng.integers(0, 2**32)),
                dst_ip=int(rng.integers(0, 2**32)),
                src_port=int(rng.integers(0, 2**16)),
                dst_port=int(rng.integers(0, 2**16)),
                proto=6,
                packets=1,
                bytes=64,
                start=float(i),
                end=float(i) + 1,
            )
            for i in range(97)
        ]
        path = tmp_path / "trace.csv"
        write_csv(flows, path)
        spec = PartitionSpec(shards=4, seed=11)
        sharded = read_csv_sharded(path, spec, chunk_rows=16)
        reference = partition_table(
            FlowTable.from_records(flows, cache_records=False), spec
        )
        assert [len(s) for s in sharded] == [len(s) for s in reference]
        for got, want in zip(sharded, reference):
            assert np.array_equal(got._data, want._data)


# -- executor --------------------------------------------------------------


class TestExecutor:
    def test_serial_and_process_paths_agree(self):
        tables = [
            _table([FlowRecord(
                src_ip=i, dst_ip=2, src_port=3, dst_port=4, proto=6,
                packets=10 * (i + 1), bytes=1, start=0.0, end=1.0,
            )] * (i + 1))
            for i in range(3)
        ]
        serial = ShardExecutor(1)
        assert not serial.uses_processes
        extras = [(2,), (3,), (4,)]
        reference = serial.map_tables(_scaled_packets, tables, extras)
        with ShardExecutor(2, use_processes=True) as pooled:
            assert pooled.uses_processes
            assert pooled.map_tables(
                _scaled_packets, tables, extras
            ) == reference

    def test_extras_length_mismatch_rejected(self):
        with pytest.raises(Exception):
            ShardExecutor(1).map_tables(
                _scaled_packets, [FlowTable.empty()], [(1,), (2,)]
            )


def _scaled_packets(table, factor):
    """Module-level task (picklable) used by the executor tests."""
    return int(table.packets.sum()) * factor


# -- partitioned mining ----------------------------------------------------


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


class TestPartitionedMining:
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
        shards=st.sampled_from(SHARD_COUNTS),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_mining_is_byte_identical(self, flows, shards, seed):
        table = _table(flows, shuffle_seed=seed)
        min_flows, min_packets, reference = _mining_reference(table)
        if min_flows is None:
            return
        spec = PartitionSpec(shards=shards, seed=seed)
        result = mine_partitioned(
            partition_table(table, spec), min_flows, min_packets
        )
        assert result == reference

    def test_degenerate_shards(self):
        row = FlowRecord(
            src_ip=1, dst_ip=2, src_port=3, dst_port=4, proto=6,
            packets=5, bytes=6, start=0.0, end=1.0,
        )
        single = _table([row])
        reference = mine_apriori(
            TransactionSet.from_table(single), 1, None
        )
        # Empty shards around a single-row shard change nothing.
        shards = [FlowTable.empty(), single, FlowTable.empty()]
        assert mine_partitioned(shards, 1, None) == reference
        assert mine_partitioned([FlowTable.empty()], 1, None) == []

    def test_single_measure_thresholds(self):
        table = _table(
            [
                FlowRecord(
                    src_ip=1, dst_ip=2, src_port=3, dst_port=4, proto=6,
                    packets=1000 * i + 1, bytes=6, start=0.0, end=1.0,
                )
                for i in range(8)
            ]
        )
        transactions = TransactionSet.from_table(table)
        shards = partition_table(table, PartitionSpec(shards=3))
        assert mine_partitioned(shards, 4, None) == mine_apriori(
            transactions, 4, None
        )
        assert mine_partitioned(shards, None, 2000) == mine_apriori(
            transactions, None, 2000
        )
        with pytest.raises(MiningError):
            mine_partitioned(shards, None, None)

    def test_scaled_threshold_rule(self):
        # max(1, floor(global * local / total)) — the documented rule.
        assert scaled_threshold(10, 50, 100) == 5
        assert scaled_threshold(10, 9, 100) == 1
        assert scaled_threshold(10, 0, 100) == 1
        assert scaled_threshold(3, 100, 100) == 3

    def test_count_signatures_exact(self):
        table = _table(
            [
                FlowRecord(
                    src_ip=1, dst_ip=2, src_port=3, dst_port=4, proto=6,
                    packets=10, bytes=100, start=0.0, end=1.0,
                ),
                FlowRecord(
                    src_ip=1, dst_ip=9, src_port=3, dst_port=4, proto=6,
                    packets=1, bytes=1, start=0.0, end=1.0,
                ),
            ]
        )
        counts = count_signatures(
            table, [((0, 1),), ((0, 1), (1, 2)), ((1, 7),)]
        )
        assert counts.tolist() == [[2, 11, 101], [1, 10, 100], [0, 0, 0]]

    @given(
        flows=flow_lists,
        shards=st.sampled_from(SHARD_COUNTS),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_sharded_extended_apriori_outcome_matches(
        self, flows, shards, seed
    ):
        table = _table(flows, shuffle_seed=seed)
        reference = ExtendedApriori().mine(table)
        assert reference == OracleApriori().mine(table)
        outcome = ShardedApriori(
            partition=PartitionSpec(shards=shards, seed=seed)
        ).mine(table)
        assert outcome.itemsets == reference.itemsets
        assert outcome.all_frequent == reference.all_frequent
        assert outcome.min_flows == reference.min_flows
        assert outcome.min_packets == reference.min_packets
        assert outcome.history == reference.history
        assert outcome.iterations == reference.iterations
        assert outcome.converged == reference.converged

    def test_sharded_mining_through_processes(self):
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
        min_flows, min_packets, reference = _mining_reference(table)
        with ShardExecutor(2, use_processes=True) as executor:
            result = mine_partitioned(
                partition_table(table, PartitionSpec(shards=2)),
                min_flows,
                min_packets,
                executor=executor,
            )
        assert result == reference


# -- parallel detection ----------------------------------------------------


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


class TestParallelDetect:
    def test_bin_spans_cover_range(self):
        assert bin_spans(7, 3) == [(0, 3), (3, 5), (5, 7)]
        assert bin_spans(2, 5) == [(0, 1), (1, 2)]
        assert bin_spans(0, 4) == []

    def test_parallel_sweep_matches_batch(self):
        training, tail = _scenario_traces()
        detector = NetReflexDetector()
        detector.train(training)
        reference = detector.detect(tail)
        assert reference  # the scenario must actually alarm
        from repro.detect.features import build_feature_matrix

        batch_matrix = build_feature_matrix(tail)
        for workers in SHARD_COUNTS:
            matrix = parallel_feature_matrix(tail, workers=workers)
            assert np.array_equal(matrix.data, batch_matrix.data)
            assert matrix.bin_indices == batch_matrix.bin_indices
            alarms = parallel_detect(detector, tail, workers=workers)
            assert len(alarms) == len(reference)
            for got, want in zip(alarms, reference):
                assert got.alarm_id == want.alarm_id
                assert (got.start, got.end) == (want.start, want.end)
                assert got.score == want.score
                assert got.label == want.label
                assert got.metadata == want.metadata


# -- executor lifecycle ---------------------------------------------------


class TestExecutorLifecycle:
    def test_owned_pools_close_idempotently(self):
        from repro.extraction.extractor import AnomalyExtractor

        extractor = AnomalyExtractor(workers=2)
        executor = extractor._miner.executor
        assert executor.map_tables(
            _scaled_packets, [FlowTable.empty()], [(1,)]
        ) == [0]
        assert (executor._pool is not None) == executor.uses_processes
        extractor.close()
        extractor.close()
        assert executor._pool is None
        AnomalyExtractor(workers=1).close()


# -- sharded extraction ----------------------------------------------------


class TestShardedExtraction:
    def test_extraction_reports_identical_across_workers(self):
        from repro.extraction.summarize import table_rows
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
