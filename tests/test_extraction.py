"""Tests for the extraction package."""

import pytest

from conftest import make_flow
from repro.detect.base import Alarm, MetadataItem
from repro.errors import ExtractionError
from repro.extraction.candidates import metadata_filter, select_candidates
from repro.extraction.classify import classify_itemset
from repro.extraction.extractor import (
    AnomalyExtractor,
    ExtractionConfig,
    itemset_confirms_metadata,
)
from repro.extraction.filtering import (
    baseline_filter,
    decompose_parents,
    dominance_filter,
)
from repro.extraction.ranking import rank_itemsets
from repro.extraction.summarize import explore_unions, format_count, table_rows
from repro.extraction.validate import validate_report
from repro.flows.record import FlowFeature, Protocol, TcpFlags
from repro.mining.items import Item, Itemset, ItemsetSupport
from repro.taxonomy import AnomalyKind


def _alarm(metadata=None, start=0.0, end=300.0):
    return Alarm(
        alarm_id="a1",
        detector="test",
        start=start,
        end=end,
        score=5.0,
        metadata=metadata or [],
    )


def _support(items, flows, packets=None):
    itemset = Itemset([Item(f, v) for f, v in items])
    return ItemsetSupport(
        itemset=itemset, flows=flows,
        packets=packets if packets is not None else flows,
    )


class TestCandidates:
    def test_union_filter_matches_any_hint(self):
        alarm = _alarm([
            MetadataItem(FlowFeature.SRC_IP, make_flow().src_ip),
            MetadataItem(FlowFeature.DST_PORT, 443),
        ])
        node = metadata_filter(alarm)
        assert node.matches(make_flow())           # src ip matches
        assert node.matches(make_flow(src="9.9.9.9", dport=443))
        assert not node.matches(make_flow(src="9.9.9.9", dport=80))

    def test_no_metadata_gives_none(self):
        assert metadata_filter(_alarm()) is None

    def test_select_uses_metadata(self):
        flows = [make_flow(dport=80)] * 60 + [make_flow(dport=22)] * 60
        alarm = _alarm([MetadataItem(FlowFeature.DST_PORT, 80)])
        selection = select_candidates(flows, alarm)
        assert selection.used_metadata
        assert len(selection.flows) == 60
        assert selection.reduction == 0.5

    def test_select_falls_back_when_too_few(self):
        flows = [make_flow(dport=80)] * 5 + [make_flow(dport=22)] * 100
        alarm = _alarm([MetadataItem(FlowFeature.DST_PORT, 80)])
        selection = select_candidates(flows, alarm, min_candidates=50)
        assert not selection.used_metadata
        assert len(selection.flows) == 105

    def test_select_without_metadata(self):
        flows = [make_flow()] * 3
        selection = select_candidates(flows, _alarm())
        assert not selection.used_metadata
        assert len(selection.flows) == 3

    def test_proto_hint(self):
        alarm = _alarm([MetadataItem(FlowFeature.PROTO, int(Protocol.UDP))])
        node = metadata_filter(alarm)
        assert node.matches(make_flow(proto=Protocol.UDP))
        assert not node.matches(make_flow(proto=Protocol.TCP))

    def test_validation(self):
        with pytest.raises(ExtractionError):
            select_candidates([], _alarm(), min_candidates=-1)


class TestDominanceFilter:
    def test_specific_replaces_general(self):
        general = _support([(FlowFeature.PROTO, 6)], 100, 120)
        specific = _support(
            [(FlowFeature.PROTO, 6), (FlowFeature.DST_PORT, 80)], 95, 110
        )
        kept = dominance_filter([general, specific], dominance=1.25)
        assert kept == [specific]

    def test_general_with_own_mass_survives(self):
        general = _support([(FlowFeature.PROTO, 6)], 100, 100)
        specific = _support(
            [(FlowFeature.PROTO, 6), (FlowFeature.DST_PORT, 80)], 40, 40
        )
        kept = dominance_filter([general, specific])
        assert general in kept and specific in kept

    def test_single_flow_child_dropped_under_pattern(self):
        parent = _support(
            [(FlowFeature.SRC_IP, 1), (FlowFeature.DST_IP, 2)], 12, 2_000_000
        )
        child = _support(
            [(FlowFeature.SRC_IP, 1), (FlowFeature.DST_IP, 2),
             (FlowFeature.SRC_PORT, 1234)], 1, 300_000
        )
        kept = dominance_filter([parent, child])
        assert kept == [parent]

    def test_single_flow_without_parent_survives(self):
        lone = _support(
            [(FlowFeature.SRC_IP, 1), (FlowFeature.DST_IP, 2)], 1, 900_000
        )
        assert dominance_filter([lone]) == [lone]

    def test_validation(self):
        with pytest.raises(ExtractionError):
            dominance_filter([], dominance=0.5)


class TestDecomposeParents:
    def test_umbrella_dissolved_into_phenomena(self):
        # Two scanners covering all of {dstIP}'s support.
        flows = (
            [make_flow(src="1.1.1.1", dst="9.9.9.9", sport=55548, dport=p)
             for p in range(1, 31)]
            + [make_flow(src="2.2.2.2", dst="9.9.9.9", sport=55548, dport=p)
               for p in range(1, 21)]
        )
        dst = make_flow(dst="9.9.9.9").dst_ip
        umbrella = _support([(FlowFeature.DST_IP, dst)], 50, 500)
        scan1 = _support(
            [(FlowFeature.SRC_IP, make_flow(src="1.1.1.1").src_ip),
             (FlowFeature.DST_IP, dst)], 30, 300,
        )
        scan2 = _support(
            [(FlowFeature.SRC_IP, make_flow(src="2.2.2.2").src_ip),
             (FlowFeature.DST_IP, dst)], 20, 200,
        )
        kept = decompose_parents([umbrella, scan1, scan2], flows)
        assert umbrella not in kept
        assert scan1 in kept and scan2 in kept

    def test_parent_kept_when_children_partial(self):
        flows = (
            [make_flow(src="1.1.1.1", dst="9.9.9.9", dport=p)
             for p in range(1, 21)]
            + [make_flow(src="3.3.3.3", dst="9.9.9.9", dport=p)
               for p in range(1, 21)]
        )
        dst = make_flow(dst="9.9.9.9").dst_ip
        umbrella = _support([(FlowFeature.DST_IP, dst)], 40, 400)
        child = _support(
            [(FlowFeature.SRC_IP, make_flow(src="1.1.1.1").src_ip),
             (FlowFeature.DST_IP, dst)], 20, 200,
        )
        kept = decompose_parents([umbrella, child], flows)
        assert umbrella in kept

    def test_single_flow_children_cannot_dissolve_parent(self):
        flows = [
            make_flow(src="1.1.1.1", dst="2.2.2.2", sport=s, dport=s,
                      proto=Protocol.UDP, packets=100_000)
            for s in range(10, 22)
        ]
        src = make_flow(src="1.1.1.1").src_ip
        dst = make_flow(dst="2.2.2.2").dst_ip
        parent = _support(
            [(FlowFeature.SRC_IP, src), (FlowFeature.DST_IP, dst)],
            12, 1_200_000,
        )
        children = [
            _support(
                [(FlowFeature.SRC_IP, src), (FlowFeature.DST_IP, dst),
                 (FlowFeature.SRC_PORT, s)], 1, 100_000,
            )
            for s in range(10, 22)
        ]
        kept = decompose_parents([parent] + children, flows)
        assert parent in kept


class TestBaselineFilter:
    def test_popular_value_dropped(self):
        web = _support([(FlowFeature.DST_PORT, 80)], 50, 500)
        baseline = [make_flow(dport=80, packets=10)] * 50 + \
            [make_flow(dport=22, packets=10)] * 50
        kept = baseline_filter(
            [web], baseline, total_flows=100, total_packets=1000
        )
        assert kept == []

    def test_novel_itemset_survives(self):
        scan = _support([(FlowFeature.SRC_PORT, 55548)], 50, 50)
        baseline = [make_flow(dport=80, packets=10)] * 100
        kept = baseline_filter(
            [scan], baseline, total_flows=100, total_packets=100
        )
        assert kept == [scan]

    def test_no_baseline_is_noop(self):
        web = _support([(FlowFeature.DST_PORT, 80)], 50, 500)
        assert baseline_filter([web], [], 100, 1000) == [web]

    def test_lifted_itemset_survives(self):
        web = _support([(FlowFeature.DST_PORT, 80)], 90, 900)
        baseline = [make_flow(dport=80, packets=10)] * 5 + \
            [make_flow(dport=22, packets=10)] * 95
        kept = baseline_filter(
            [web], baseline, total_flows=100, total_packets=1000,
            min_lift=3.0,
        )
        assert kept == [web]

    def test_validation(self):
        with pytest.raises(ExtractionError):
            baseline_filter([], [make_flow()], 1, 1, min_lift=1.0)


class TestRanking:
    def test_orders_by_excess_share(self):
        big = _support([(FlowFeature.DST_PORT, 80)], 80, 100)
        small = _support([(FlowFeature.DST_PORT, 22)], 20, 900)
        ranked = rank_itemsets([big, small], total_flows=100,
                               total_packets=1000)
        assert ranked[0].support is small  # 0.9 packet share wins
        assert ranked[0].dominant_measure == "packets"
        assert ranked[1].dominant_measure == "flows"

    def test_top_k(self):
        supports = [
            _support([(FlowFeature.DST_PORT, p)], 10 + p, 10) for p in range(5)
        ]
        ranked = rank_itemsets(supports, 100, 100, top_k=2)
        assert len(ranked) == 2

    def test_specificity_breaks_ties(self):
        short = _support([(FlowFeature.DST_PORT, 80)], 50, 50)
        long = _support(
            [(FlowFeature.DST_PORT, 80), (FlowFeature.PROTO, 6)], 50, 50
        )
        ranked = rank_itemsets([short, long], 100, 100)
        assert ranked[0].support is long

    def test_validation(self):
        with pytest.raises(ExtractionError):
            rank_itemsets([], -1, 0)
        with pytest.raises(ExtractionError):
            rank_itemsets([], 1, 1, top_k=0)


class TestClassify:
    def test_port_scan(self):
        flows = [
            make_flow(sport=55548, dport=p, packets=1, flags=TcpFlags.SYN)
            for p in range(1, 101)
        ]
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, flows[0].src_ip),
            Item(FlowFeature.DST_IP, flows[0].dst_ip),
            Item(FlowFeature.SRC_PORT, 55548),
        ])
        result = classify_itemset(itemset, flows)
        assert result.kind is AnomalyKind.PORT_SCAN

    def test_network_scan(self):
        flows = [
            make_flow(dst=0x0A000000 + i, dport=445, packets=1,
                      flags=TcpFlags.SYN)
            for i in range(100)
        ]
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, flows[0].src_ip),
            Item(FlowFeature.DST_PORT, 445),
        ])
        assert classify_itemset(itemset, flows).kind is \
            AnomalyKind.NETWORK_SCAN

    def test_syn_flood(self):
        flows = [
            make_flow(src=0xC0000000 + i, dport=80, packets=2,
                      flags=TcpFlags.SYN)
            for i in range(100)
        ]
        itemset = Itemset([
            Item(FlowFeature.DST_IP, flows[0].dst_ip),
            Item(FlowFeature.DST_PORT, 80),
        ])
        assert classify_itemset(itemset, flows).kind is AnomalyKind.SYN_FLOOD

    def test_udp_flood(self):
        flows = [
            make_flow(proto=Protocol.UDP, sport=1000 + i, dport=2000 + i,
                      packets=200_000)
            for i in range(10)
        ]
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, flows[0].src_ip),
            Item(FlowFeature.DST_IP, flows[0].dst_ip),
            Item(FlowFeature.PROTO, int(Protocol.UDP)),
        ])
        assert classify_itemset(itemset, flows).kind is AnomalyKind.UDP_FLOOD

    def test_reflector(self):
        flows = [
            make_flow(src=0xD0000000 + i, sport=53, dport=33000 + i,
                      proto=Protocol.UDP, packets=10)
            for i in range(100)
        ]
        itemset = Itemset([
            Item(FlowFeature.DST_IP, flows[0].dst_ip),
            Item(FlowFeature.SRC_PORT, 53),
            Item(FlowFeature.PROTO, int(Protocol.UDP)),
        ])
        assert classify_itemset(itemset, flows).kind is AnomalyKind.REFLECTOR

    def test_alpha_flow(self):
        flows = [make_flow(packets=10_000, bytes_=15_000_000,
                           flags=TcpFlags.ACK)]
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, flows[0].src_ip),
            Item(FlowFeature.DST_IP, flows[0].dst_ip),
        ])
        assert classify_itemset(itemset, flows).kind is AnomalyKind.ALPHA_FLOW

    def test_unknown_on_empty(self):
        itemset = Itemset([Item(FlowFeature.PROTO, 6)])
        result = classify_itemset(itemset, [])
        assert result.kind is AnomalyKind.UNKNOWN
        assert result.confidence == 0.0


class TestConfirmsMetadata:
    def _alarm(self):
        return _alarm_with(
            [(FlowFeature.SRC_IP, 1), (FlowFeature.DST_IP, 2),
             (FlowFeature.SRC_PORT, 55548)]
        )

    def test_refinement_confirms(self):
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, 1), Item(FlowFeature.DST_IP, 2),
            Item(FlowFeature.SRC_PORT, 55548), Item(FlowFeature.PROTO, 6),
        ])
        assert itemset_confirms_metadata(itemset, self._alarm())

    def test_conflicting_value_is_new(self):
        itemset = Itemset([
            Item(FlowFeature.SRC_IP, 99), Item(FlowFeature.DST_IP, 2),
            Item(FlowFeature.SRC_PORT, 55548),
        ])
        assert not itemset_confirms_metadata(itemset, self._alarm())

    def test_single_shared_feature_is_new(self):
        itemset = Itemset([
            Item(FlowFeature.DST_IP, 2), Item(FlowFeature.DST_PORT, 80),
        ])
        assert not itemset_confirms_metadata(itemset, self._alarm())

    def test_no_metadata_never_confirms(self):
        itemset = Itemset([Item(FlowFeature.DST_IP, 2)])
        assert not itemset_confirms_metadata(itemset, _alarm())


def _alarm_with(pairs):
    return Alarm(
        alarm_id="a1", detector="test", start=0.0, end=300.0, score=5.0,
        metadata=[MetadataItem(f, v) for f, v in pairs],
    )


class TestExtractor:
    def _scan_interval(self):
        scanner = make_flow(src="7.7.7.7", dst="8.8.8.8")
        flows = [
            make_flow(src="7.7.7.7", dst="8.8.8.8", sport=55548, dport=p,
                      packets=1, flags=TcpFlags.SYN, start=10.0, end=10.1)
            for p in range(1, 301)
        ]
        background = [
            make_flow(sport=1000 + i, dport=80, packets=5, start=float(i),
                      end=float(i) + 1)
            for i in range(100)
        ]
        return flows + background, scanner

    def test_extracts_scan(self):
        interval, scanner = self._scan_interval()
        alarm = _alarm_with([
            (FlowFeature.SRC_IP, scanner.src_ip),
            (FlowFeature.DST_IP, scanner.dst_ip),
        ])
        report = AnomalyExtractor().extract(alarm, interval)
        assert report.useful
        top = report.itemsets[0]
        assert top.itemset.value_of(FlowFeature.SRC_PORT) == 55548
        assert top.confirms_detector
        assert top.classification.kind is AnomalyKind.PORT_SCAN

    def test_baseline_shares_measured_once_per_extraction(
        self, monkeypatch
    ):
        """The popular-value filter and the ranking read the same
        baseline shares: measured once, and each survivor of the filter
        is ranked against its own."""
        from repro.extraction import extractor, filtering

        calls = []
        real = filtering.baseline_shares

        def counting(supports, baseline_flows):
            calls.append(len(supports))
            return real(supports, baseline_flows)

        monkeypatch.setattr(extractor, "baseline_shares", counting)
        monkeypatch.setattr(filtering, "baseline_shares", counting)
        interval, _ = self._scan_interval()
        # The web background is as common before the alarm as during
        # it: its itemsets are filtered out ahead of the scan's, so a
        # survivor's position is not its position before the filter.
        baseline = [
            make_flow(sport=1000 + i, dport=80, packets=5, start=-float(i))
            for i in range(100)
        ] + [make_flow(src="7.7.7.7", dst="8.8.8.8", sport=55548,
                       dport=22, packets=1, start=-5.0)]
        report = AnomalyExtractor().extract(_alarm(), interval, baseline)
        assert len(calls) == 1
        assert 0 < len(report.itemsets) < calls[0]
        for extracted in report.itemsets:
            scored = extracted.scored
            (shares,) = real([scored.support], baseline).values()
            assert scored.baseline_flow_share == shares.flow_share
            assert scored.baseline_packet_share == shares.packet_share
        assert any(e.scored.baseline_flow_share for e in report.itemsets)

    def test_empty_interval(self):
        report = AnomalyExtractor().extract(_alarm(), [])
        assert not report.useful

    def test_config_validation(self):
        with pytest.raises(ExtractionError):
            ExtractionConfig(top_k=0)
        with pytest.raises(ExtractionError):
            ExtractionConfig(min_score=1.0)

    def test_report_rendering(self):
        interval, scanner = self._scan_interval()
        alarm = _alarm_with([(FlowFeature.SRC_IP, scanner.src_ip)])
        report = AnomalyExtractor().extract(alarm, interval)
        text = report.describe()
        assert "candidates" in text
        rows = table_rows(report)
        assert rows[0][-2:] == ("#flows", "#packets")
        assert len(rows) == len(report.itemsets) + 1


class TestSummarize:
    def test_format_count_paper_style(self):
        assert format_count(312_590) == "312.59K"
        assert format_count(37_190) == "37.19K"
        assert format_count(999) == "999"
        assert format_count(2_500_000) == "2.50M"

    def test_explore_unions_merges_compatible(self):
        flows = [
            make_flow(src="1.1.1.1", dport=80, packets=1)
            for _ in range(50)
        ]
        left = _support([(FlowFeature.SRC_IP, flows[0].src_ip)], 50, 50)
        right = _support([(FlowFeature.DST_PORT, 80)], 50, 50)
        findings = explore_unions([left, right], flows)
        assert findings
        union = findings[0]
        assert union.support.flows == 50
        assert union.retention == 1.0
        assert len(union.union) == 2

    def test_explore_unions_skips_incompatible(self):
        left = _support([(FlowFeature.DST_PORT, 80)], 10, 10)
        right = _support([(FlowFeature.DST_PORT, 443)], 10, 10)
        assert explore_unions([left, right], [make_flow()]) == []


class TestValidate:
    def test_verdict_on_scan(self):
        flows = [
            make_flow(src="7.7.7.7", dst="8.8.8.8", sport=55548, dport=p,
                      packets=1, flags=TcpFlags.SYN)
            for p in range(1, 201)
        ]
        alarm = _alarm_with([
            (FlowFeature.SRC_IP, flows[0].src_ip),
            (FlowFeature.DST_IP, flows[0].dst_ip),
        ])
        report = AnomalyExtractor().extract(alarm, flows)
        verdict = validate_report(report, sample_size=3)
        assert verdict.useful
        assert verdict.security_relevant
        assert verdict.evidence
        assert len(verdict.evidence[0].sample_flows) <= 3
        assert "port scan" in verdict.summary()

    def test_verdict_on_nothing(self):
        report = AnomalyExtractor().extract(_alarm(), [])
        verdict = validate_report(report)
        assert not verdict.useful
        assert "stealthy" in verdict.summary()
