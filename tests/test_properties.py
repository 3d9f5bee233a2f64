"""Property-based tests (hypothesis) on core invariants.

* the three mining engines are extensionally equal on arbitrary inputs;
* support counting is anti-monotone (downward closure);
* codecs round-trip arbitrary valid records;
* the filter language reaches a parse → unparse fixpoint;
* entropy and KL obey their mathematical bounds;
* maximal/closed reductions lose no information.
"""

import io
import math

from hypothesis import given, settings, strategies as st

from repro.detect.entropy import entropy_of_counts, normalized_entropy
from repro.detect.kl import kl_distance
from repro.collector.decode import decode_datagram
from repro.flows.filter import parse_filter
from repro.flows.flowio import read_csv_table, write_csv
from repro.flows.netflow_v5 import encode_packet
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.mining.apriori import mine_apriori
from repro.mining.maximal import closed_itemsets, maximal_itemsets
from repro.mining.transactions import TransactionSet

# -- strategies -------------------------------------------------------------

flow_records = st.builds(
    FlowRecord,
    src_ip=st.integers(0, 30),
    dst_ip=st.integers(0, 30),
    src_port=st.integers(0, 15),
    dst_port=st.integers(0, 15),
    proto=st.sampled_from([1, 6, 17]),
    packets=st.integers(1, 1000),
    bytes=st.integers(40, 100_000),
    start=st.floats(0.0, 1000.0, allow_nan=False),
    end=st.just(2000.0),
    tcp_flags=st.integers(0, 63),
)

flow_lists = st.lists(flow_records, min_size=0, max_size=60)

exact_flow_records = st.builds(
    FlowRecord,
    src_ip=st.integers(0, 0xFFFFFFFF),
    dst_ip=st.integers(0, 0xFFFFFFFF),
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    proto=st.integers(0, 255),
    packets=st.integers(0, 2**31),
    bytes=st.integers(0, 2**31),
    start=st.integers(0, 10_000).map(lambda ms: ms / 1000.0),
    end=st.just(20.0),
    tcp_flags=st.integers(0, 255),
    router=st.integers(0, 1000),
    sampling_rate=st.integers(1, 1000),
)

histograms = st.dictionaries(
    st.integers(0, 50), st.integers(1, 10_000), min_size=1, max_size=30
)


# -- mining properties ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(flows=flow_lists, min_flows=st.integers(1, 10))
def test_downward_closure_property(flows, min_flows):
    ts = TransactionSet.from_flows(flows)
    supports = mine_apriori(ts, min_flows, None)
    frequent = {s.itemset: s for s in supports}
    for support in supports:
        items = support.itemset.items
        for drop in range(len(items)):
            if len(items) == 1:
                continue
            from repro.mining.items import Itemset

            subset = Itemset(items[:drop] + items[drop + 1:])
            assert subset in frequent
            # Anti-monotonicity of both measures.
            assert frequent[subset].flows >= support.flows
            assert frequent[subset].packets >= support.packets


@settings(max_examples=30, deadline=None)
@given(flows=flow_lists, min_flows=st.integers(1, 10))
def test_supports_are_exact(flows, min_flows):
    """Engine-reported supports equal brute-force counts."""
    ts = TransactionSet.from_flows(flows)
    for support in mine_apriori(ts, min_flows, None):
        matched = [f for f in flows if support.itemset.matches(f)]
        assert support.flows == len(matched)
        assert support.packets == sum(f.packets for f in matched)


@settings(max_examples=30, deadline=None)
@given(flows=flow_lists, min_flows=st.integers(1, 10))
def test_reduction_reconstruction(flows, min_flows):
    ts = TransactionSet.from_flows(flows)
    supports = mine_apriori(ts, min_flows, None)
    maximal = maximal_itemsets(supports)
    closed = closed_itemsets(supports)
    # Every frequent itemset has a maximal superset; every frequent
    # itemset's support is recoverable from a closed superset.
    for support in supports:
        assert any(support.itemset.issubset(m.itemset) for m in maximal)
        assert any(
            support.itemset.issubset(c.itemset)
            and c.flows <= support.flows
            for c in closed
        )
    assert {m.itemset for m in maximal} <= {c.itemset for c in closed}


# -- codecs ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(flow=exact_flow_records)
def test_netflow_v5_roundtrip(flow):
    packet = encode_packet([flow], boot_time=0.0)
    (out,) = FlowTable(decode_datagram(packet).rows).to_records()
    assert out.key == flow.key
    assert out.packets == flow.packets
    assert out.bytes == flow.bytes
    assert out.tcp_flags == flow.tcp_flags
    assert math.isclose(out.start, flow.start, abs_tol=0.0015)
    assert math.isclose(out.end, flow.end, abs_tol=0.0015)


@settings(max_examples=40, deadline=None)
@given(flows=st.lists(exact_flow_records, max_size=25))
def test_csv_roundtrip_property(flows):
    buffer = io.StringIO()
    write_csv(FlowTable.from_records(flows), buffer)
    buffer.seek(0)
    assert read_csv_table(buffer).to_records() == flows


# -- filter language -----------------------------------------------------------


_port_primitive = st.tuples(
    st.sampled_from(["", "src ", "dst "]),
    st.sampled_from(["", "> ", "< ", ">= ", "<= ", "!= "]),
    st.integers(0, 65535),
).map(lambda t: f"{t[0]}port {t[1]}{t[2]}")

_ip_primitive = st.tuples(
    st.sampled_from(["", "src ", "dst "]),
    st.tuples(*[st.integers(0, 255)] * 4),
).map(lambda t: f"{t[0]}ip {'.'.join(map(str, t[1]))}")

_counter_primitive = st.tuples(
    st.sampled_from(["packets", "bytes", "duration"]),
    st.sampled_from([">", "<", ">=", "<=", "==", "!="]),
    st.integers(0, 10**6),
).map(lambda t: f"{t[0]} {t[1]} {t[2]}")

_primitive = st.one_of(
    _port_primitive,
    _ip_primitive,
    _counter_primitive,
    st.sampled_from(["proto tcp", "proto udp", "flags SA", "router 7", "any"]),
)


def _expressions(depth=2):
    if depth == 0:
        return _primitive
    sub = _expressions(depth - 1)
    return st.one_of(
        _primitive,
        st.tuples(sub, sub).map(lambda t: f"({t[0]}) and ({t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]}) or ({t[1]})"),
        sub.map(lambda e: f"not ({e})"),
    )


@settings(max_examples=100, deadline=None)
@given(expression=_expressions())
def test_filter_unparse_fixpoint(expression):
    node = parse_filter(expression)
    text = node.unparse()
    again = parse_filter(text)
    assert again.unparse() == text


@settings(max_examples=60, deadline=None)
@given(expression=_expressions(), flow=flow_records)
def test_unparse_preserves_semantics(expression, flow):
    node = parse_filter(expression)
    again = parse_filter(node.unparse())
    assert node.matches(flow) == again.matches(flow)


@settings(max_examples=60, deadline=None)
@given(expression=_expressions(), flow=flow_records)
def test_negation_involutes(expression, flow):
    node = parse_filter(expression)
    negated = parse_filter(f"not ({expression})")
    assert negated.matches(flow) == (not node.matches(flow))


# -- entropy and KL -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(0, 10_000), min_size=0, max_size=50))
def test_entropy_bounds(counts):
    entropy = entropy_of_counts(counts)
    support = sum(1 for c in counts if c > 0)
    assert entropy >= 0.0
    if support >= 1:
        assert entropy <= math.log2(support) + 1e-9


@settings(max_examples=100, deadline=None)
@given(histogram=histograms)
def test_normalized_entropy_in_unit_interval(histogram):
    value = normalized_entropy(histogram)
    assert 0.0 <= value <= 1.0 + 1e-9


@settings(max_examples=100, deadline=None)
@given(p=histograms, q=histograms)
def test_kl_non_negative(p, q):
    assert kl_distance(p, q) >= 0.0


@settings(max_examples=60, deadline=None)
@given(p=histograms)
def test_kl_self_is_zero(p):
    assert kl_distance(p, p) < 1e-6


@settings(max_examples=60, deadline=None)
@given(p=histograms, scale=st.integers(2, 50))
def test_kl_scale_invariant(p, scale):
    scaled = {k: v * scale for k, v in p.items()}
    assert kl_distance(p, scaled) < 1e-4
