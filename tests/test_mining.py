"""Tests for the mining package: items, transactions, engines, reduction."""

import pytest

from conftest import make_flow
from repro.errors import MiningError
from repro.flows.record import FlowFeature, Protocol
from repro.mining.apriori import mine_apriori
from repro.mining.extended import (
    ExtendedApriori,
    ExtendedAprioriConfig,
)
from repro.mining.items import Item, Itemset, ItemsetSupport, itemset_from_signature
from repro.mining.maximal import closed_itemsets, maximal_itemsets
from repro.mining.rules import derive_rules
from repro.mining.transactions import TransactionSet
from tests.mining_oracle import columnar_transactions


def _mini_flows():
    """3 heavy flows to :80 from one source + 2 singles."""
    return [
        make_flow(src="1.1.1.1", dst="2.2.2.2", sport=5, dport=80, packets=10),
        make_flow(src="1.1.1.1", dst="2.2.2.2", sport=6, dport=80, packets=20),
        make_flow(src="1.1.1.1", dst="3.3.3.3", sport=7, dport=80, packets=30),
        make_flow(src="4.4.4.4", dst="2.2.2.2", sport=8, dport=53,
                  proto=Protocol.UDP, packets=1000),
        make_flow(src="5.5.5.5", dst="6.6.6.6", sport=9, dport=22, packets=1),
    ]


class TestItems:
    def test_item_ordering_by_feature_then_value(self):
        a = Item(FlowFeature.SRC_IP, 5)
        b = Item(FlowFeature.SRC_IP, 9)
        c = Item(FlowFeature.DST_PORT, 1)
        assert a < b
        assert a < c  # srcIP sorts before dstPort in feature order
        assert sorted([c, b, a]) == [a, b, c]

    def test_itemset_canonical_and_hashable(self):
        one = Itemset([Item(FlowFeature.DST_PORT, 80),
                       Item(FlowFeature.SRC_IP, 1)])
        two = Itemset([Item(FlowFeature.SRC_IP, 1),
                       Item(FlowFeature.DST_PORT, 80)])
        assert one == two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_itemset_rejects_duplicate_feature(self):
        with pytest.raises(MiningError):
            Itemset([Item(FlowFeature.DST_PORT, 80),
                     Item(FlowFeature.DST_PORT, 443)])

    def test_itemset_rejects_empty(self):
        with pytest.raises(MiningError):
            Itemset([])

    def test_subset_union_compatible(self):
        small = Itemset([Item(FlowFeature.SRC_IP, 1)])
        big = Itemset([Item(FlowFeature.SRC_IP, 1),
                       Item(FlowFeature.DST_PORT, 80)])
        other = Itemset([Item(FlowFeature.SRC_IP, 2)])
        assert small.issubset(big)
        assert not big.issubset(small)
        assert small.union(
            Itemset([Item(FlowFeature.DST_PORT, 80)])
        ) == big
        assert small.compatible_with(big)
        assert not small.compatible_with(other)

    def test_union_conflicting_feature_raises(self):
        a = Itemset([Item(FlowFeature.SRC_IP, 1)])
        b = Itemset([Item(FlowFeature.SRC_IP, 2)])
        with pytest.raises(MiningError):
            a.union(b)

    def test_matches_flow(self):
        flow = make_flow(dport=80)
        hit = Itemset([Item(FlowFeature.DST_PORT, 80),
                       Item(FlowFeature.PROTO, int(Protocol.TCP))])
        miss = Itemset([Item(FlowFeature.DST_PORT, 443)])
        assert hit.matches(flow)
        assert not miss.matches(flow)

    def test_render_row_wildcards(self):
        itemset = Itemset([Item(FlowFeature.SRC_PORT, 55548),
                           Item(FlowFeature.PROTO, int(Protocol.TCP))])
        row = itemset.render_row()
        assert row == ("*", "*", "55548", "*", "TCP")

    def test_itemset_from_signature(self):
        itemset = itemset_from_signature(
            {FlowFeature.SRC_IP: 7, FlowFeature.DST_PORT: 80}
        )
        assert itemset.value_of(FlowFeature.SRC_IP) == 7
        assert itemset.value_of(FlowFeature.DST_IP) is None

    def test_support_shares(self):
        support = ItemsetSupport(
            itemset=Itemset([Item(FlowFeature.DST_PORT, 80)]),
            flows=5, packets=100,
        )
        assert support.flow_share(10) == 0.5
        assert support.packet_share(0) == 0.0
        with pytest.raises(MiningError):
            ItemsetSupport(
                itemset=Itemset([Item(FlowFeature.DST_PORT, 80)]),
                flows=-1, packets=0,
            )


class TestTransactions:
    def test_encoding_shape(self):
        ts = TransactionSet.from_flows(_mini_flows())
        assert len(ts) == 5
        assert ts.total_packets == 1061
        for transaction in columnar_transactions(ts):
            assert len(transaction.item_ids) == 5
            assert list(transaction.item_ids) == sorted(transaction.item_ids)

    def test_id_order_matches_item_order(self):
        ts = TransactionSet.from_flows(_mini_flows())
        items = [ts.item(i) for i in range(ts.item_count)]
        assert items == sorted(items)

    def test_decode(self):
        ts = TransactionSet.from_flows(_mini_flows())
        item_ids = [column.offset + int(column.codes[0])
                    for column in ts.columns]
        itemset = ts.decode(item_ids)
        assert len(itemset) == 5
        assert itemset.matches(_mini_flows()[0])

    def test_feature_subset(self):
        ts = TransactionSet.from_flows(
            _mini_flows(),
            features=(FlowFeature.SRC_IP, FlowFeature.DST_PORT),
        )
        for transaction in columnar_transactions(ts):
            assert len(transaction.item_ids) == 2

    def test_rejects_duplicate_features(self):
        with pytest.raises(MiningError):
            TransactionSet.from_flows(
                _mini_flows(),
                features=(FlowFeature.SRC_IP, FlowFeature.SRC_IP),
            )

    def test_absolute_thresholds(self):
        ts = TransactionSet.from_flows(_mini_flows())
        flows, packets = ts.absolute_thresholds(0.5, 0.5)
        assert flows == max(1, round(0.5 * 5))
        assert packets == max(1, round(0.5 * 1061))
        flows, packets = ts.absolute_thresholds(None, 0.1)
        assert flows is None
        with pytest.raises(MiningError):
            ts.absolute_thresholds(1.5, None)


class TestEngines:
    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_exact_supports_flow_only(self, engine):
        ts = TransactionSet.from_flows(_mini_flows())
        results = {s.itemset: s for s in engine(ts, 3, None)}
        src = Itemset([Item(FlowFeature.SRC_IP,
                            make_flow(src="1.1.1.1").src_ip)])
        port = Itemset([Item(FlowFeature.DST_PORT, 80)])
        pair = src.union(port)
        assert results[src].flows == 3
        assert results[src].packets == 60
        assert results[port].flows == 3
        assert results[pair].flows == 3

    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_packet_support_finds_heavy_single_flow(self, engine):
        ts = TransactionSet.from_flows(_mini_flows())
        results = engine(ts, min_flows=3, min_packets=500)
        heavy = [s for s in results if s.packets >= 1000]
        assert heavy, "the 1000-packet UDP flow must be frequent by packets"
        biggest = max(heavy, key=lambda s: len(s.itemset))
        assert len(biggest.itemset) == 5
        assert biggest.flows == 1

    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_thresholds_validated(self, engine):
        ts = TransactionSet.from_flows(_mini_flows())
        with pytest.raises(MiningError):
            engine(ts, None, None)
        with pytest.raises(MiningError):
            engine(ts, 0, None)
        with pytest.raises(MiningError):
            engine(ts, 1, 0)
        with pytest.raises(MiningError):
            engine(ts, 1, None, max_size=0)

    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_empty_input(self, engine):
        ts = TransactionSet.from_flows([])
        assert engine(ts, 1, None) == []

    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_max_size_caps_itemsets(self, engine):
        ts = TransactionSet.from_flows(_mini_flows())
        results = engine(ts, 1, None, max_size=2)
        assert max(len(s.itemset) for s in results) == 2

    @pytest.mark.parametrize("engine", [mine_apriori])
    def test_downward_closure(self, engine):
        ts = TransactionSet.from_flows(_mini_flows())
        results = engine(ts, 2, None)
        frequent = {s.itemset for s in results}
        for support in results:
            items = support.itemset.items
            if len(items) < 2:
                continue
            for drop in range(len(items)):
                subset = Itemset(
                    items[:drop] + items[drop + 1:]
                )
                assert subset in frequent

    def test_identical_transactions(self):
        flows = [make_flow()] * 50
        ts = TransactionSet.from_flows(flows)
        results = mine_apriori(ts, 50, None)
        assert max(len(s.itemset) for s in results) == 5
        full = [s for s in results if len(s.itemset) == 5][0]
        assert full.flows == 50
        # All 2^5 - 1 non-empty subsets are frequent.
        assert len(results) == 31


class TestReduction:
    def _supports(self):
        ts = TransactionSet.from_flows(_mini_flows())
        return mine_apriori(ts, 2, None)

    def test_maximal_no_containment(self):
        kept = maximal_itemsets(self._supports())
        for i, a in enumerate(kept):
            for j, b in enumerate(kept):
                if i != j:
                    assert not a.itemset.issubset(b.itemset)

    def test_maximal_reconstruction(self):
        # Every frequent itemset is a subset of some maximal itemset.
        supports = self._supports()
        kept = maximal_itemsets(supports)
        for support in supports:
            assert any(
                support.itemset.issubset(m.itemset) for m in kept
            )

    def test_closed_keeps_support_distinct_parents(self):
        supports = self._supports()
        closed = closed_itemsets(supports)
        by_itemset = {s.itemset: s for s in supports}
        for support in supports:
            if support in closed:
                continue
            # A dropped itemset has a closed superset with equal support.
            assert any(
                support.itemset.issubset(c.itemset)
                and c.flows == support.flows
                and c.packets == support.packets
                for c in closed
            ), f"{support.itemset.render()} lost without absorber"
        assert set(c.itemset for c in closed) <= set(by_itemset)

    def test_maximal_subset_of_closed(self):
        supports = self._supports()
        maximal = {s.itemset for s in maximal_itemsets(supports)}
        closed = {s.itemset for s in closed_itemsets(supports)}
        assert maximal <= closed


class TestRules:
    def test_confident_rule_found(self):
        ts = TransactionSet.from_flows(_mini_flows())
        supports = mine_apriori(ts, 3, None)
        rules = derive_rules(supports, total_flows=len(ts))
        assert rules
        # srcIP=1.1.1.1 -> dstPort=80 holds with confidence 1.0.
        src_value = make_flow(src="1.1.1.1").src_ip
        found = [
            r for r in rules
            if r.antecedent.value_of(FlowFeature.SRC_IP) == src_value
            and r.consequent.value_of(FlowFeature.DST_PORT) == 80
        ]
        assert found and found[0].confidence == 1.0
        assert found[0].lift > 1.0

    def test_min_confidence_filters(self):
        ts = TransactionSet.from_flows(_mini_flows())
        supports = mine_apriori(ts, 1, None)
        strict = derive_rules(supports, len(ts), min_confidence=1.0)
        loose = derive_rules(supports, len(ts), min_confidence=0.5)
        assert len(strict) <= len(loose)
        assert all(r.confidence == 1.0 for r in strict)

    def test_validation(self):
        with pytest.raises(MiningError):
            derive_rules([], 0)
        with pytest.raises(MiningError):
            derive_rules([], 10, min_confidence=0.0)


class TestExtendedApriori:
    def test_self_tuning_lands_in_band(self):
        flows = _mini_flows() * 40
        config = ExtendedAprioriConfig(
            target_min_itemsets=2, target_max_itemsets=10, floor_flows=2,
        )
        outcome = ExtendedApriori(config).mine(flows)
        assert outcome.converged
        assert 2 <= len(outcome.itemsets) <= 10
        assert outcome.history

    def test_empty_input_outcome(self):
        outcome = ExtendedApriori().mine([])
        assert outcome.itemsets == []
        assert outcome.converged
        assert outcome.top is None

    def test_flow_only_mode_misses_heavy_flow(self):
        flows = _mini_flows() * 20
        flow_only = ExtendedApriori(
            ExtendedAprioriConfig(use_packet_support=False, floor_flows=2)
        ).mine(flows)
        assert all(s.min_flows is None or True for s in [flow_only])
        assert flow_only.min_packets is None

    def test_config_validation(self):
        with pytest.raises(MiningError):
            ExtendedAprioriConfig(engine="magic")
        with pytest.raises(MiningError):
            ExtendedAprioriConfig(reduce="other")
        with pytest.raises(MiningError):
            ExtendedAprioriConfig(initial_flow_share=0.0)
        with pytest.raises(MiningError):
            ExtendedAprioriConfig(target_min_itemsets=5, target_max_itemsets=2)
        with pytest.raises(MiningError):
            ExtendedAprioriConfig(adjust_factor=1.0)

    def test_mine_fixed_reports_thresholds(self):
        ts = TransactionSet.from_flows(_mini_flows() * 10)
        outcome = ExtendedApriori(
            ExtendedAprioriConfig(floor_flows=2)
        ).mine_fixed(ts, 0.5, 0.5)
        assert outcome.min_flows == 25
        assert outcome.converged

    def test_self_tuning_relaxes_for_small_anomalies(self):
        # A tiny candidate set: initial 5% threshold is below the floor,
        # so the search relaxes until the floor and still finds itemsets.
        flows = _mini_flows()
        config = ExtendedAprioriConfig(
            floor_flows=1, floor_packets=10,
            target_min_itemsets=1, target_max_itemsets=40,
        )
        outcome = ExtendedApriori(config).mine(flows)
        assert outcome.itemsets
