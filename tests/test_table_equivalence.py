"""Property tests: the table bodies ≡ the per-flow loops they replaced.

The contract of the columnar refactor is that the vectorized pipeline
is *observationally identical* to the record pipeline it replaced:
filter masks agree with the nodes' per-record ``matches`` flow-by-flow,
feature histograms are equal as multisets (``tests/record_oracle.py``
keeps the loops), and the transaction encoding interns the same items
to the same ids. Hypothesis drives all three over randomized flow sets
and filter expressions; a record list handed to an entry point must
give what its table gives.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.detect.features import compute_bin_features
from repro.flows.aggregate import (
    all_feature_histograms,
    distinct_counts,
    feature_histogram,
    merge_histograms,
    top_n,
    value_histogram,
)
from repro.flows.filter import compile_mask, parse_filter
from repro.flows.flowio import (
    iter_binary_tables,
    read_binary,
    read_binary_table,
    write_binary,
)
from repro.flows.netflow_v5 import decode_packet
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable
from repro.mining.transactions import TransactionSet
from tests import record_oracle
from tests.mining_oracle import OracleTransactionSet, columnar_transactions

# Small value pools keep collision (and therefore interesting masks,
# histogram merges and shared items) likely.
_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 1234, 55548, 65535])
_PROTOS = st.sampled_from([1, 6, 17, 47])


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
        tcp_flags=draw(st.integers(min_value=0, max_value=0x3F)),
        router=draw(st.integers(min_value=0, max_value=20)),
        sampling_rate=draw(st.sampled_from([1, 10, 100])),
    )


flow_lists = st.lists(flow_records(), min_size=0, max_size=60)

_FILTER_EXPRESSIONS = [
    "any",
    "proto tcp",
    "proto udp and dst port 80",
    "src ip 10.0.0.1",
    "ip in [10.0.0.1 10.0.0.2]",
    "dst net 10.0.0.0/8",
    "net 192.168.0.0/16 or proto icmp",
    "src port >= 1024",
    "dst port in [53 80 443]",
    "port 55548",
    "packets > 1000",
    "bytes <= 5000",
    "duration < 60",
    "flags S and not flags A",
    "router 3",
    "not (dst port 80 or dst port 443) and proto tcp",
    "(src ip 10.0.0.1 or dst ip 10.0.0.2) and packets >= 1",
    # One-member sets are evaluated as an equality, both sides.
    "dst ip 10.1.2.3",
    "ip 192.168.0.1",
    "src port 53",
    "dst port 0",
    "port 65535",
]


@given(flows=flow_lists, expression=st.sampled_from(_FILTER_EXPRESSIONS))
@settings(max_examples=150, deadline=None)
def test_mask_equals_predicate(flows, expression):
    node = parse_filter(expression)
    table = FlowTable.from_records(flows, cache_records=False)
    mask = compile_mask(node)(table)
    assert mask.tolist() == [node.matches(f) for f in flows]


@given(flows=flow_lists)
@settings(max_examples=100, deadline=None)
def test_record_roundtrip_through_table(flows):
    table = FlowTable.from_records(flows, cache_records=False)
    assert table.to_records() == flows


@given(flows=flow_lists,
       weight=st.sampled_from(["flows", "packets", "bytes"]))
@settings(max_examples=100, deadline=None)
def test_feature_histograms_identical(flows, weight):
    table = FlowTable.from_records(flows, cache_records=False)
    for feature in FLOW_FEATURES:
        expected = record_oracle.feature_histogram(flows, feature, weight)
        assert feature_histogram(table, feature, weight) == expected
        assert feature_histogram(iter(flows), feature, weight) == expected
    expected = record_oracle.all_feature_histograms(flows, weight)
    assert all_feature_histograms(table, weight) == expected
    assert all_feature_histograms(flows, weight) == expected


@given(flows=flow_lists)
@settings(max_examples=100, deadline=None)
def test_distinct_counts_and_top_n_identical(flows):
    table = FlowTable.from_records(flows, cache_records=False)
    expected = record_oracle.distinct_counts(flows)
    assert distinct_counts(table) == expected
    assert distinct_counts(flows) == expected
    for feature in FLOW_FEATURES:
        expected = record_oracle.top_n(flows, feature, n=3)
        assert top_n(table, feature, n=3) == expected
        assert top_n(flows, feature, n=3) == expected


def _assert_encodes_like_oracle(columnar, oracle):
    """A columnar ``TransactionSet`` against the record-interning
    encoder it replaced (tests/mining_oracle.py): same ids for the same
    items, same per-flow transactions, same totals and thresholds."""
    assert columnar.features == oracle.features
    assert columnar.item_count == oracle.item_count
    ids = range(oracle.item_count)
    assert [columnar.item(i) for i in ids] == [oracle.item(i) for i in ids]
    assert [columnar.feature_of(i) for i in ids] == \
        [oracle.feature_of(i) for i in ids]
    assert columnar_transactions(columnar) == list(oracle)
    assert len(columnar) == len(oracle)
    assert bool(columnar) == bool(oracle)
    assert columnar.total_flows == oracle.total_flows
    assert columnar.total_packets == oracle.total_packets
    assert columnar.total_bytes == oracle.total_bytes
    for shares in ((0.05, 0.05), (0.5, None), (None, 1.0)):
        assert columnar.absolute_thresholds(*shares, floor_flows=2) == \
            oracle.absolute_thresholds(*shares, floor_flows=2)


@given(flows=flow_lists)
@settings(max_examples=100, deadline=None)
def test_transaction_encoding_identical(flows):
    table = FlowTable.from_records(flows, cache_records=False)
    oracle = OracleTransactionSet.from_flows(flows)
    _assert_encodes_like_oracle(TransactionSet.from_table(table), oracle)
    _assert_encodes_like_oracle(TransactionSet.from_flows(iter(flows)), oracle)


@given(flows=flow_lists,
       features=st.sampled_from([
           (FlowFeature.SRC_IP, FlowFeature.DST_IP),
           (FlowFeature.DST_IP, FlowFeature.DST_PORT, FlowFeature.PROTO),
           # Not in FLOW_FEATURES order: ids still follow that order.
           (FlowFeature.PROTO, FlowFeature.SRC_PORT, FlowFeature.SRC_IP),
           FLOW_FEATURES,
       ]))
@settings(max_examples=60, deadline=None)
def test_transaction_encoding_feature_subsets(flows, features):
    table = FlowTable.from_records(flows, cache_records=False)
    _assert_encodes_like_oracle(
        TransactionSet.from_table(table, features=features),
        OracleTransactionSet.from_flows(iter(flows), features=features),
    )


@given(flows=st.lists(flow_records(), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_bin_features_match(flows):
    table = FlowTable.from_records(flows, cache_records=False)
    vectorized = compute_bin_features(table)
    assert compute_bin_features(flows) == vectorized
    scalar = record_oracle.compute_bin_features(flows)
    assert vectorized.flows == scalar.flows
    assert vectorized.packets == scalar.packets
    assert vectorized.bytes == scalar.bytes
    np.testing.assert_allclose(
        vectorized.as_array()[3:], scalar.as_array()[3:], rtol=1e-9,
        atol=1e-12,
    )


@given(flows=flow_lists, expression=st.sampled_from(_FILTER_EXPRESSIONS))
@settings(max_examples=60, deadline=None)
def test_store_query_orders_match_record_sort(flows, expression):
    store = FlowStore(slice_seconds=300.0)
    store.insert_many(flows)
    lo = min((f.start for f in flows), default=0.0)
    hi = max((f.start for f in flows), default=0.0) + 1.0
    result = store.query(lo, hi, expression)
    node = parse_filter(expression)
    expected = sorted(
        (f for f in flows if node.matches(f)),
        key=lambda f: (f.start, f.key),
    )
    assert result == expected


# -- canonical query order ----------------------------------------------------


def _lexsort_order(table: FlowTable) -> np.ndarray:
    """The 6-key sort ``query_table`` ran before ``in_query_order``
    replaced it; kept here as the oracle."""
    return np.lexsort((
        table.proto, table.dst_port, table.src_port,
        table.dst_ip, table.src_ip, table.start,
    ))


@st.composite
def tied_tables(draw):
    """Tables with heavy ties in ``start`` (at most five distinct
    values) and duplicated whole rows, in a drawn arrangement."""
    starts = draw(st.lists(
        st.floats(min_value=0.0, max_value=1200.0), min_size=1,
        max_size=5,
    ))
    rows = draw(st.lists(
        st.tuples(_IPS, _IPS, _PORTS, _PORTS, _PROTOS,
                  st.sampled_from(starts)),
        max_size=40,
    ))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10)) \
        if rows else []
    src_ip, dst_ip, src_port, dst_port, proto, start = (
        list(column) for column in zip(*rows)
    ) if rows else ([], [], [], [], [], [])
    table = FlowTable.from_columns(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
        dst_port=dst_port, proto=proto, start=start, end=start,
        # A per-row tag: stability (ties on all six keys keep their
        # input order) shows up in the bytes.
        bytes=list(range(len(rows))),
    )
    arrangement = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if arrangement == "drawn":
        return table
    ordered = table.select(_lexsort_order(table))
    return ordered if arrangement == "sorted" \
        else ordered.select(slice(None, None, -1))


@given(table=tied_tables())
@settings(max_examples=300, deadline=None)
def test_query_order_is_the_six_key_lexsort(table):
    want = table.select(_lexsort_order(table))
    got = table.in_query_order()
    assert got._data.tobytes() == want._data.tobytes()
    # Already in order: the table itself comes back, no copy.
    assert got.in_query_order() is got
    assert want.in_query_order() is want


@given(table=tied_tables(), late=tied_tables(), cut=st.integers(0, 50))
@settings(max_examples=150, deadline=None)
def test_ordered_slices_answer_queries_without_sorting(table, late, cut):
    """``order_slice`` keeps a slice in query order: whole-slice and
    multi-slice queries then return rows ``in_query_order`` has nothing
    to do on, equal to the lexsort oracle; rows inserted afterwards are
    still returned in order."""
    store = FlowStore(slice_seconds=300.0, origin=0.0)
    # Two chunks per slice: ordering also consolidates.
    store.insert_table(table.select(slice(None, cut)))
    store.insert_table(table.select(slice(cut, None)))

    def check(rows):
        for lo, hi in [(0.0, 300.0), (300.0, 600.0), (0.0, 900.0),
                       (0.0, 1500.0), (100.0, 700.0)]:
            inside = rows.select((rows.start >= lo) & (rows.start < hi))
            got = store.query_table(lo, hi)
            assert got._data.tobytes() == \
                inside.select(_lexsort_order(inside))._data.tobytes()
            assert got.in_query_order() is got

    for index in range(5):
        kept = store.order_slice(index)
        assert kept.in_query_order() is kept
        # The slice itself answers a query that covers it: no copy.
        if len(kept):
            assert store.query_table(*store.slice_interval(index)) is kept
    check(table)
    store.insert_table(late)
    check(FlowTable.concat([table, late]))


# -- the histogram kernel ----------------------------------------------------


def _unique_add_at(column, weights):
    """``np.unique`` + ``np.add.at``: how the tree counted before
    ``value_histogram`` became its one kernel; kept here as the oracle."""
    values, inverse, counts = np.unique(
        column, return_inverse=True, return_counts=True
    )
    sums = []
    for weight in weights:
        total = np.zeros(len(values), dtype=np.int64)
        np.add.at(total, inverse, weight)
        sums.append(total)
    return (values, counts, *sums)


@st.composite
def weighted_columns(draw):
    """A ``u2`` (radix-sorted) or ``u4`` column with zero, one or three
    int64 weight columns whose sums can pass 2**53."""
    dtype = draw(st.sampled_from([np.uint16, np.uint32]))
    column = draw(st.lists(
        st.sampled_from([0, 1, 2, 80, 443, 65535])
        | st.integers(0, np.iinfo(dtype).max),
        max_size=60,
    ))
    weight = st.integers(0, 9) | st.sampled_from([2**53, 2**55 + 1])
    weights = [
        np.array(
            draw(st.lists(weight, min_size=len(column),
                          max_size=len(column))),
            dtype=np.int64,
        )
        for _ in range(draw(st.sampled_from([0, 1, 3])))
    ]
    return np.array(column, dtype=dtype), weights


def _assert_same_histogram(got, want):
    assert len(got) == len(want)
    for got_array, want_array in zip(got, want):
        assert np.array_equal(got_array, want_array)
    assert all(array.dtype == np.int64 for array in got[1:])


@given(case=weighted_columns())
@settings(max_examples=300, deadline=None)
def test_value_histogram_equals_unique_add_at(case):
    column, weights = case
    got = value_histogram(column, *weights)
    _assert_same_histogram(got, _unique_add_at(column, weights))
    assert got[0].dtype == column.dtype


@given(case=weighted_columns(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_merged_splits_equal_one_pass(case, data):
    """Any split of the rows, its parts merged in any order (and
    merged again with a merge), is the one-pass histogram."""
    column, weights = case
    part_of = np.array(data.draw(st.lists(
        st.integers(0, 3), min_size=len(column), max_size=len(column)
    )), dtype=np.int64)
    parts = [
        value_histogram(
            column[part_of == part],
            *(weight[part_of == part] for weight in weights),
        )
        for part in data.draw(st.permutations(range(4)))
    ]
    want = value_histogram(column, *weights)
    _assert_same_histogram(merge_histograms(parts), want)
    _assert_same_histogram(
        merge_histograms([merge_histograms(parts[:2]), *parts[2:]]),
        want,
    )


# -- .rpv5: the table reader ≡ the per-record packet walk -------------------


@st.composite
def v5_flow_records(draw):
    """Records the v5 encoder takes: 32-bit counters, times at or
    after the boot time, any sampling rate (the header's wins)."""
    start = draw(st.integers(min_value=0, max_value=600_000)) / 1000.0
    return FlowRecord(
        src_ip=draw(st.integers(0, 0xFFFFFFFF)),
        dst_ip=draw(st.integers(0, 0xFFFFFFFF)),
        src_port=draw(_PORTS), dst_port=draw(_PORTS),
        proto=draw(st.integers(0, 255)),
        packets=draw(st.integers(0, 0xFFFFFFFF)),
        bytes=draw(st.integers(0, 0xFFFFFFFF)),
        start=50.0 + start,
        end=50.0 + start
        + draw(st.integers(min_value=0, max_value=90_000)) / 1000.0,
        tcp_flags=draw(st.integers(0, 255)),
        router=draw(st.integers(0, 0xFFFF)),
        sampling_rate=draw(st.sampled_from([1, 7])),
    )


@given(
    flows=st.lists(v5_flow_records(), min_size=0, max_size=70),
    sampling_rate=st.sampled_from([1, 100, 0x3FFF]),
    chunk_rows=st.sampled_from([1, 7, 30, 31, 65_536]),
)
@settings(max_examples=60, deadline=None)
def test_binary_table_reader_equals_packet_walk(
    flows, sampling_rate, chunk_rows
):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.rpv5"
        write_binary(flows, path, boot_time=50.0,
                     sampling_rate=sampling_rate)
        expected = record_oracle.read_rpv5(path)
        chunks = list(iter_binary_tables(path, chunk_rows))
        by_records = list(read_binary(path))
    assert [f.key for f in expected] == [f.key for f in flows]
    assert all(f.sampling_rate == sampling_rate for f in expected)
    assert [len(c) for c in chunks] == \
        [chunk_rows] * (len(flows) // chunk_rows) \
        + [len(flows) % chunk_rows] * bool(len(flows) % chunk_rows)
    assert all(chunk._rows is None for chunk in chunks)
    assert FlowTable.concat(chunks).to_records() == expected
    assert by_records == expected


def test_binary_table_reader_on_a_short_last_packet(tmp_path):
    # 65 flows: two full packets and one of five records.
    flows = [
        FlowRecord(src_ip=1, dst_ip=2, src_port=1000 + i, dst_port=80,
                   proto=6, packets=i, bytes=10 * i, start=float(i),
                   end=float(i) + 0.25, tcp_flags=i % 64, router=i % 3)
        for i in range(65)
    ]
    path = tmp_path / "trace.rpv5"
    assert write_binary(flows, path, sampling_rate=10) == 3
    expected = record_oracle.read_rpv5(path)
    assert len(expected) == 65
    assert read_binary_table(path).to_records() == expected
    walked = []
    for boot_time, packet in record_oracle.rpv5_packets(path):
        header, records = decode_packet(packet, boot_time)
        assert (header.sampling_interval, records) == \
            record_oracle.decode_v5_packet(packet, boot_time)
        walked.extend(records)
    assert walked == expected
