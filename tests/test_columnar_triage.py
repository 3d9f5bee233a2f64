"""Columnar triage ≡ the per-flow code it replaced.

The alarm → report path runs on code columns and masks: the group-by
kernel behind ``mine_apriori`` and the mask-based evidence of
``validate_report``. Hypothesis checks both against their per-flow
references — ``tests/mining_oracle.py`` (the record-interning encoder
and per-transaction Apriori that were production code), the record
loop ``validate_report`` used to be (kept below) and the per-flow
bodies of the extraction steps (``tests/record_oracle.py``) — on inputs
built to collide: a handful of distinct values per feature, whole rows
duplicated, ties on every sort key.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.detect.base import Alarm, MetadataItem
from repro.extraction.candidates import CandidateSelection
from repro.extraction.classify import (
    Classification,
    _syn_fraction,
    classify_itemset,
)
from repro.extraction.extractor import (
    AnomalyExtractor,
    ExtractedItemset,
    ExtractionReport,
)
from repro.extraction.filtering import (
    _parent_coverage,
    baseline_shares,
    decompose_parents,
)
from repro.extraction.ranking import ScoredItemset
from repro.extraction.summarize import table_rows
from repro.extraction.validate import Evidence, validate_report
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    feature_value,
)
from repro.flows.table import FlowTable
from repro.mining import apriori
from repro.mining.apriori import EXACT_FLOAT_LIMIT, mine_apriori
from repro.mining.extended import MiningOutcome
from repro.mining.items import Item, Itemset, ItemsetSupport
from repro.mining.transactions import TransactionSet
from repro.taxonomy import AnomalyKind
from tests import record_oracle
from tests.mining_oracle import OracleTransactionSet, oracle_apriori

# At most four distinct values per feature, a few packet weights and
# two start times: every group-by has collisions, every sort has ties.
_IPS = st.sampled_from([1, 0x0A000001, 0x0A000002, 0xFFFFFFFF])
_PORTS = st.sampled_from([0, 53, 80, 65535])
_PROTOS = st.sampled_from([1, 6, 17, 255])
_PACKETS = st.sampled_from([0, 1, 5, 5000])
_STARTS = st.sampled_from([0.0, 10.0])


@st.composite
def flow_records(draw):
    start = draw(_STARTS)
    return FlowRecord(
        src_ip=draw(_IPS), dst_ip=draw(_IPS),
        src_port=draw(_PORTS), dst_port=draw(_PORTS),
        proto=draw(_PROTOS),
        packets=draw(_PACKETS),
        bytes=draw(st.integers(min_value=0, max_value=10_000)),
        start=start, end=start + draw(st.sampled_from([0.0, 1.5])),
        router=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def duplicated_flows(draw):
    """Zero rows, one row, or up to 40 draws (with repetition) from at
    most ten distinct records."""
    distinct = draw(st.lists(flow_records(), min_size=0, max_size=10))
    if not distinct:
        return []
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(distinct) - 1),
        min_size=1, max_size=40,
    ))
    return [distinct[pick] for pick in picks]


@st.composite
def feature_subsets(draw):
    """One to five features, in any (also non-rank) order."""
    shuffled = draw(st.permutations(FLOW_FEATURES))
    return tuple(shuffled[:draw(st.integers(min_value=1, max_value=5))])


# -- the kernel ------------------------------------------------------------


@given(
    flows=duplicated_flows(),
    features=feature_subsets(),
    max_size=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_kernel_equals_per_transaction_apriori(
    flows, features, max_size, data
):
    oracle = OracleTransactionSet.from_flows(flows, features)

    def threshold(total):
        # From 1 up to just above the total (nothing is frequent).
        return st.one_of(
            st.none(), st.integers(min_value=1, max_value=total + 2)
        )

    min_flows = data.draw(threshold(oracle.total_flows))
    min_packets = data.draw(threshold(oracle.total_packets))
    assume(min_flows is not None or min_packets is not None)
    columnar = TransactionSet.from_table(
        FlowTable.from_records(flows, cache_records=False), features
    )
    assert mine_apriori(
        columnar, min_flows, min_packets, max_size
    ) == oracle_apriori(oracle, min_flows, min_packets, max_size)


def test_kernel_is_exact_past_float53(monkeypatch):
    # Packet counts a float64 cannot hold: bincount(weights=) would
    # round them, so the kernel must take the int64 np.add.at branch.
    huge = EXACT_FLOAT_LIMIT + 1
    flows = [
        FlowRecord(src_ip=1, dst_ip=2, src_port=3, dst_port=port,
                   proto=6, packets=packets, bytes=packets,
                   start=0.0, end=1.0)
        for port, packets in ((80, huge), (80, 1), (443, huge), (443, 3))
    ]
    branches = []
    group_sum = apriori.group_sum

    def spy(codes, weights, size, exact_float):
        branches.append(exact_float)
        return group_sum(codes, weights, size, exact_float)

    monkeypatch.setattr(apriori, "group_sum", spy)
    mined = mine_apriori(
        TransactionSet.from_table(FlowTable.from_records(flows)), None, huge
    )
    assert branches and not any(branches)
    assert mined == oracle_apriori(
        OracleTransactionSet.from_flows(flows), None, huge
    )
    assert {s.packets for s in mined} == {huge + 1, huge + 3, 2 * huge + 4}


# -- evidence on masks -----------------------------------------------------


def _record_loop_evidence(report, flows, sample_size):
    """``validate_report``'s evidence loop before it ran on masks."""
    evidence = []
    for extracted in report.itemsets:
        matched = [f for f in flows if extracted.itemset.matches(f)]
        matched.sort(key=lambda f: (-f.packets, f.start))
        evidence.append(
            Evidence(
                extracted=extracted,
                sample_flows=tuple(matched[:sample_size]),
                total_flows=len(matched),
                total_packets=sum(f.packets for f in matched),
                total_bytes=sum(f.bytes for f in matched),
            )
        )
    return evidence


@st.composite
def tied_flows(draw):
    """Up to 30 flows over two values per feature, two packet weights
    and two start times: an itemset matches many rows and most of them
    tie on ``(packets, start)``."""
    def flow():
        start = draw(_STARTS)
        return FlowRecord(
            src_ip=draw(st.sampled_from([1, 2])),
            dst_ip=draw(st.sampled_from([1, 2])),
            src_port=draw(st.sampled_from([53, 80])),
            dst_port=draw(st.sampled_from([53, 80])),
            proto=draw(st.sampled_from([6, 17])),
            packets=draw(st.sampled_from([1, 5])),
            bytes=draw(st.integers(min_value=0, max_value=9)),
            start=start, end=start + 1.0,
        )

    return [flow() for _ in range(draw(st.integers(1, 30)))]


@st.composite
def extracted_itemsets(draw, flows):
    """Reported itemsets of one or two items over values that occur in
    ``flows`` (or, now and then, one that matches nothing)."""
    extracted = []
    for rank in range(1, draw(st.integers(min_value=0, max_value=3)) + 1):
        features = draw(feature_subsets())[:2]
        template = draw(st.sampled_from(flows))
        items = [Item(f, feature_value(template, f)) for f in features]
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            items[0] = Item(features[0], 7)
        support = ItemsetSupport(Itemset(items), flows=1, packets=1)
        extracted.append(ExtractedItemset(
            rank=rank,
            scored=ScoredItemset(support, 0.5, 0.5, 0.5),
            classification=Classification(
                draw(st.sampled_from(
                    [AnomalyKind.PORT_SCAN, AnomalyKind.UNKNOWN]
                )), 0.5, "drawn",
            ),
            confirms_detector=draw(st.booleans()),
            matched_flow_count=0,
        ))
    return extracted


def _report(flows, itemsets):
    return ExtractionReport(
        alarm=Alarm(alarm_id="a1", detector="t", start=0.0, end=300.0,
                    score=1.0),
        itemsets=itemsets,
        candidates=CandidateSelection(
            flows=flows, filter_node=None, used_metadata=False,
            interval_flow_count=len(flows),
        ),
        outcome=MiningOutcome(
            itemsets=[], all_frequent=[], min_flows=None,
            min_packets=None, flow_share=None, packet_share=None,
            iterations=0, converged=True, total_flows=0, total_packets=0,
        ),
        baseline_flow_count=0,
    )


@given(
    flows=tied_flows(),
    sample_size=st.sampled_from([0, 1, 5, 100]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_evidence_equals_record_loop(flows, sample_size, data):
    itemsets = data.draw(extracted_itemsets(flows))
    by_table = validate_report(
        _report(FlowTable.from_records(flows, cache_records=False),
                itemsets),
        sample_size,
    )
    by_records = validate_report(_report(flows, itemsets), sample_size)
    expected = _record_loop_evidence(
        _report(flows, itemsets), flows, sample_size
    )
    # Order included: ties on (packets, start) keep table order.
    assert by_table.evidence == expected
    assert by_records.evidence == expected
    assert by_table == by_records
    assert by_table.summary() == by_records.summary()
    assert by_table.useful == bool(itemsets)
    assert by_table.security_relevant == any(
        e.classification.kind is AnomalyKind.PORT_SCAN for e in itemsets
    )
    assert by_table.novel_itemsets == sum(
        not e.confirms_detector for e in itemsets
    )


# -- one body per extraction step: tables in, tables through ----------------


def _drawn_supports(data, flows):
    return [
        e.scored.support for e in data.draw(extracted_itemsets(flows))
    ]


@given(flows=tied_flows(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_extraction_steps_equal_their_record_loops(flows, data):
    """``baseline_shares``, ``_parent_coverage`` and the classifier's
    SYN fraction and per-flow volumes against the per-flow bodies they
    replaced (tests/record_oracle.py), and a record list against its
    table at every entry point that still accepts one."""
    table = FlowTable.from_records(flows, cache_records=False)
    supports = _drawn_supports(data, flows)
    expected = record_oracle.baseline_shares(supports, flows)
    assert baseline_shares(supports, table) == expected
    assert baseline_shares(supports, flows) == expected
    for parent in supports:
        refinements = [
            other.itemset for other in supports if other is not parent
        ]
        assert _parent_coverage(parent, refinements, table) == \
            record_oracle.parent_coverage(parent, refinements, flows)
    assert _syn_fraction(table) == record_oracle.syn_fraction(flows)
    assert (
        table.total_packets() / len(table), table.total_bytes() / len(table)
    ) == record_oracle.volume_per_flow(flows)
    for support in supports:
        assert classify_itemset(support.itemset, flows) == \
            classify_itemset(support.itemset, table)
    assert decompose_parents(supports, flows) == \
        decompose_parents(supports, table)


def test_extract_on_records_equals_extract_on_their_table():
    """A record list is tabulated once at ``extract``'s entry: same
    report rows and verdict as its table, candidates a table either
    way — with and without a meta-data pre-filter and a baseline."""
    scan = [
        FlowRecord(src_ip=0x07070707, dst_ip=0x08080808, src_port=55548,
                   dst_port=port, proto=6, packets=1, bytes=40,
                   start=10.0, end=10.1, tcp_flags=0x02)
        for port in range(1, 301)
    ]
    web = [
        FlowRecord(src_ip=0x0A000001, dst_ip=0x0A010002,
                   src_port=1000 + i, dst_port=80, proto=6, packets=5,
                   bytes=500, start=float(i), end=float(i) + 1.0)
        for i in range(100)
    ]
    interval = scan + web
    baseline = [
        FlowRecord(src_ip=0x0A000001, dst_ip=0x0A010002,
                   src_port=1000 + i, dst_port=80, proto=6, packets=5,
                   bytes=500, start=-float(i) - 1.0, end=-float(i))
        for i in range(100)
    ]
    hinted = Alarm(
        alarm_id="a", detector="t", start=0.0, end=300.0, score=1.0,
        metadata=[MetadataItem(FlowFeature.SRC_IP, 0x07070707),
                  MetadataItem(FlowFeature.DST_IP, 0x08080808)],
    )
    bare = Alarm(alarm_id="b", detector="t", start=0.0, end=300.0,
                 score=1.0)
    for alarm in (hinted, bare):
        for reference in (None, baseline):
            by_records = AnomalyExtractor().extract(
                alarm, interval, reference
            )
            by_table = AnomalyExtractor().extract(
                alarm,
                FlowTable.from_records(interval, cache_records=False),
                reference and FlowTable.from_records(
                    reference, cache_records=False
                ),
            )
            assert by_records.itemsets
            assert table_rows(by_records) == table_rows(by_table)
            assert by_records.describe() == by_table.describe()
            assert validate_report(by_records) == \
                validate_report(by_table)
            for report in (by_records, by_table):
                assert isinstance(report.candidates.flows, FlowTable)
