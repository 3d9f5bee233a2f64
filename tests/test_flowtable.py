"""Unit tests for the columnar FlowTable core."""

import numpy as np
import pytest

from conftest import make_flow
from repro.errors import FlowError
from repro.flows.filter import compile_mask, filter_table
from repro.flows.flowio import (
    iter_csv_tables,
    read_binary_table,
    read_csv_table,
    write_binary,
    write_csv,
)
from repro.flows.record import FlowFeature
from repro.flows.aggregate import ranked_from_histogram, table_histogram
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.stream.window import WindowRing
from tests import record_oracle

import io


def _flows(n=10, spacing=30.0):
    return [
        make_flow(sport=1000 + i, dport=80 if i % 2 else 53,
                  packets=5 + i, bytes_=100 * (i + 1),
                  start=i * spacing, end=i * spacing + 1)
        for i in range(n)
    ]


class TestConstruction:
    def test_empty(self):
        table = FlowTable.empty()
        assert len(table) == 0
        assert not table
        assert table.to_records() == []

    def test_from_records_roundtrip(self):
        flows = _flows(7)
        table = FlowTable.from_records(flows)
        assert len(table) == 7
        assert table.to_records() == flows

    def test_from_records_without_cache_rebuilds_equal_records(self):
        flows = _flows(4)
        table = FlowTable.from_records(flows, cache_records=False)
        rebuilt = table.to_records()
        assert rebuilt == flows
        assert rebuilt[0] is not flows[0]

    def test_from_columns_defaults(self):
        table = FlowTable.from_columns(
            src_ip=[1, 2],
            dst_ip=[3, 4],
            src_port=[10, 11],
            dst_port=[80, 81],
            proto=[6, 17],
        )
        assert table.to_records()[0].packets == 1
        assert table.to_records()[1].sampling_rate == 1

    def test_from_columns_validates_ranges(self):
        with pytest.raises(FlowError):
            FlowTable.from_columns(
                src_ip=[1], dst_ip=[2], src_port=[70_000],
                dst_port=[80], proto=[6],
            )
        with pytest.raises(FlowError):
            FlowTable.from_columns(
                src_ip=[1], dst_ip=[2], src_port=[1], dst_port=[80],
                proto=[6], start=[5.0], end=[1.0],
            )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(FlowError):
            FlowTable(np.zeros(3, dtype=np.int64))

    def test_concat(self):
        a = FlowTable.from_records(_flows(3))
        b = FlowTable.from_records(_flows(2))
        merged = FlowTable.concat([a, b, FlowTable.empty()])
        assert len(merged) == 5
        assert merged.to_records() == a.to_records() + b.to_records()


class TestAccess:
    def test_columns_match_records(self):
        flows = _flows(6)
        table = FlowTable.from_records(flows)
        assert table.src_port.tolist() == [f.src_port for f in flows]
        assert table.packets.tolist() == [f.packets for f in flows]
        assert table.start.tolist() == [f.start for f in flows]
        assert table.duration.tolist() == [f.duration for f in flows]

    def test_feature_column(self):
        flows = _flows(4)
        table = FlowTable.from_records(flows)
        assert table.feature_column(FlowFeature.DST_PORT).tolist() == \
            [f.dst_port for f in flows]

    def test_getitem_int_slice_mask(self):
        flows = _flows(5)
        table = FlowTable.from_records(flows, cache_records=False)
        assert table[2] == flows[2]
        assert table[-1] == flows[-1]
        assert table[1:3] == flows[1:3]
        sub = table[np.array([True, False, True, False, True])]
        assert isinstance(sub, FlowTable)
        assert sub.to_records() == flows[::2]

    def test_record_cache_is_stable(self):
        table = FlowTable.from_records(_flows(3), cache_records=False)
        assert table.record(1) is table.record(1)

    def test_out_of_range_record(self):
        table = FlowTable.from_records(_flows(2))
        with pytest.raises(IndexError):
            table.record(5)

    def test_select_and_sort(self):
        flows = list(reversed(_flows(5)))
        table = FlowTable.from_records(flows).sorted_by_start()
        starts = table.start
        assert (starts[:-1] <= starts[1:]).all()

    def test_totals(self):
        flows = _flows(4)
        table = FlowTable.from_records(flows)
        assert table.total_packets() == sum(f.packets for f in flows)
        assert table.total_bytes() == sum(f.bytes for f in flows)
        assert FlowTable.empty().total_packets() == 0


class TestFilterMasks:
    def test_filter_table(self):
        table = FlowTable.from_records(_flows(10))
        kept = filter_table(table, "dst port 80")
        assert (kept.dst_port == 80).all()
        assert len(kept) == 5

    def test_compile_mask_matches_predicate(self):
        from repro.flows.filter import parse_filter

        expressions = [
            "any",
            "dst port 80",
            "src port >= 1005",
            "proto tcp and packets > 8",
            "not (dst port 80 or dst port 53)",
            "net 10.0.0.0/8",
            "ip 10.0.0.1",
            "duration >= 1",
        ]
        flows = _flows(12)
        table = FlowTable.from_records(flows)
        for expression in expressions:
            mask = compile_mask(expression)(table)
            expected = [parse_filter(expression).matches(f) for f in flows]
            assert mask.tolist() == expected, expression


class TestTraceAndStoreIntegration:
    def test_trace_table_window(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0, origin=0.0)
        window = trace.between_table(30.0, 90.0)
        assert window.start.tolist() == [30.0, 60.0]
        assert trace.between(30.0, 90.0) == window.to_records()

    def test_trace_filter_expression(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0, origin=0.0)
        filtered = trace.filter("dst port 80")
        assert len(filtered) == 5
        assert filtered.origin == trace.origin

    def test_store_query_table_equals_query(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0)
        table = trace.query_table(0.0, 300.0, "src port > 1003")
        records = [f for f in trace.between(0.0, 300.0) if f.src_port > 1003]
        assert table.to_records() == records

    def test_store_insert_table(self):
        ring = WindowRing(window_seconds=60.0)
        ingested = ring.ingest(FlowTable.from_records(_flows(10)))
        assert ingested.admitted == ring.flows_ingested == 10
        assert len(ring.query_table(30.0, 90.0)) == 2

    def test_record_rejects_unpackable_fields(self):
        # The packed dtype and FlowRecord must agree on field ranges,
        # or columnar conversion would overflow far from construction.
        with pytest.raises(FlowError):
            make_flow(flags=0x12345)
        with pytest.raises(FlowError):
            make_flow(router=2**40)
        with pytest.raises(FlowError):
            make_flow(sampling=2**40)

    def test_scan_does_not_pin_record_cache(self):
        trace = FlowTrace(
            FlowTable.from_records(_flows(6), cache_records=False),
            bin_seconds=60.0,
        )
        table_histogram(trace.query_table(0.0, 300.0), FlowFeature.DST_PORT)
        trace.query_table(0.0, 300.0, "dst port 80")
        assert trace.table._rows is None

    def test_weighted_histogram_exact_beyond_float53(self):
        from repro.flows.aggregate import feature_histogram

        big = 2**60
        table = FlowTable.from_columns(
            src_ip=[1, 1], dst_ip=[2, 2], src_port=[1, 1],
            dst_port=[80, 80], proto=[6, 6], packets=[big, 3],
        )
        histogram = feature_histogram(
            table, FlowFeature.DST_PORT, "packets"
        )
        assert histogram[80] == big + 3

    def test_store_top_feature_values(self):
        trace = FlowTrace(_flows(10), bin_seconds=60.0)
        window = trace.query_table(0.0, 300.0)
        ranked = ranked_from_histogram(
            *table_histogram(window, FlowFeature.DST_PORT), 2
        )
        expected = record_oracle.top_talkers(
            window.to_records(), key=lambda f: f.dst_port, n=2
        )
        assert ranked == expected


def _tied_table(seed, count=4000):
    """Millisecond starts over half a second: runs of ~8 tied rows, and
    5-tuples from small domains, so equal keys occur inside runs too."""
    rng = np.random.default_rng(seed)
    starts = np.round(rng.uniform(0.0, 0.5, count), 3)
    return FlowTable.from_columns(
        src_ip=rng.integers(0, 4, count),
        dst_ip=rng.integers(0, 4, count),
        src_port=rng.integers(0, 3, count),
        dst_port=rng.integers(0, 3, count),
        proto=rng.choice(np.array([6, 17]), count),
        start=starts,
        end=starts + 1.0,
    )


def _lexsorted(table):
    return table.select(np.lexsort((
        table.proto, table.dst_port, table.src_port,
        table.dst_ip, table.src_ip, table.start,
    )))


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestQueryOrder:
    def test_canonical_rows_come_back_as_is(self, seed):
        canonical = _lexsorted(_tied_table(seed))
        assert canonical.in_query_order() is canonical

    def test_one_swapped_tied_pair_is_sorted(self, seed):
        canonical = _lexsorted(_tied_table(seed))
        keys = np.stack([
            canonical.column(name)
            for name in ("src_ip", "dst_ip", "src_port", "dst_port", "proto")
        ])
        tied = canonical.start[1:] == canonical.start[:-1]
        differs = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        pair = int(np.flatnonzero(tied & differs)[seed])
        order = np.arange(len(canonical))
        order[[pair, pair + 1]] = order[[pair + 1, pair]]
        swapped = canonical.select(order)
        result = swapped.in_query_order()
        assert result is not swapped
        assert result._data.tobytes() == canonical._data.tobytes()
        assert result._data.tobytes() == \
            _lexsorted(swapped)._data.tobytes()

    def test_unsorted_starts_equal_lexsort(self, seed):
        table = _tied_table(seed)
        assert table.in_query_order()._data.tobytes() == \
            _lexsorted(table)._data.tobytes()


class TestTableIO:
    def test_csv_table_roundtrip(self):
        flows = _flows(9)
        buffer = io.StringIO()
        write_csv(FlowTable.from_records(flows), buffer)
        buffer.seek(0)
        table = read_csv_table(buffer)
        assert table.to_records() == flows

    def test_csv_chunked(self):
        flows = _flows(9)
        buffer = io.StringIO()
        write_csv(FlowTable.from_records(flows), buffer)
        buffer.seek(0)
        chunks = list(iter_csv_tables(buffer, chunk_rows=4))
        assert [len(c) for c in chunks] == [4, 4, 1]
        assert FlowTable.concat(chunks).to_records() == flows

    def test_csv_error_carries_row_and_field(self):
        text = (
            "src_ip,dst_ip,src_port,dst_port,proto,packets,bytes,start,"
            "end,tcp_flags,router,sampling_rate\n"
            "10.0.0.1,10.0.0.2,1,2,6,1,64,0.0,1.0,0,0,1\n"
            "not-an-ip,10.0.0.2,1,2,6,1,64,0.0,1.0,0,0,1\n"
        )
        from repro.errors import CodecError

        with pytest.raises(CodecError, match=r"row 3.*src_ip.*not-an-ip"):
            read_csv_table(io.StringIO(text))

    def test_binary_table_roundtrip(self, tmp_path):
        flows = [make_flow(sport=1000 + i, start=float(i), end=float(i) + 1)
                 for i in range(65)]
        path = tmp_path / "trace.rpv5"
        write_binary(flows, path, boot_time=0.0)
        table = read_binary_table(path)
        assert [f.key for f in table.to_records()] == [f.key for f in flows]
