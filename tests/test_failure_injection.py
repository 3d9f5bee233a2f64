"""Failure injection: degenerate inputs across the whole stack.

The system must degrade gracefully — empty intervals, metadata pointing
nowhere, uniform traffic, single-flow intervals, alarms outside the
archive, corrupt stores — none of it may crash or fabricate results.
"""

import pytest

from conftest import make_flow
from repro.detect.base import Alarm, MetadataItem
from repro.errors import ExtractionError, MiningError
from repro.extraction.extractor import AnomalyExtractor, ExtractionConfig
from repro.extraction.validate import validate_report
from repro.flows.record import FlowFeature
from repro.flows.trace import FlowTrace
from repro.mining.extended import ExtendedApriori, ExtendedAprioriConfig
from repro.mining.transactions import TransactionSet
from repro.system.backend import FlowBackend
from repro.system.pipeline import ExtractionSystem


def _alarm(metadata=None):
    return Alarm(
        alarm_id="f1", detector="test", start=0.0, end=300.0, score=1.0,
        metadata=metadata or [],
    )


class TestDegenerateExtraction:
    def test_empty_interval(self):
        report = AnomalyExtractor().extract(_alarm(), [])
        assert not report.useful
        assert validate_report(report).useful is False

    def test_single_flow_interval(self):
        report = AnomalyExtractor().extract(_alarm(), [make_flow()])
        # One flow can never be a phenomenon above the floors.
        assert isinstance(report.useful, bool)

    def test_metadata_matches_nothing(self):
        flows = [make_flow(dport=80) for _ in range(100)]
        alarm = _alarm([MetadataItem(FlowFeature.DST_PORT, 9999)])
        report = AnomalyExtractor().extract(alarm, flows)
        # Fallback to the whole interval keeps extraction alive.
        assert not report.candidates.used_metadata
        assert report.candidates.flows.to_records() == flows

    def test_all_flows_identical(self):
        flows = [make_flow()] * 500
        report = AnomalyExtractor().extract(_alarm(), flows)
        assert report.useful
        top = report.itemsets[0]
        assert len(top.itemset) == 5
        assert top.scored.support.flows == 500

    def test_uniform_random_traffic_yields_little(self):
        import random

        rng = random.Random(0)
        flows = [
            make_flow(
                src=rng.randrange(1 << 30),
                dst=rng.randrange(1 << 30),
                sport=rng.randrange(1024, 65535),
                dport=rng.randrange(1, 65535),
                packets=1,
            )
            for _ in range(400)
        ]
        report = AnomalyExtractor().extract(_alarm(), flows)
        # Nothing shares values above the floors except trivial items.
        assert len(report.itemsets) <= 3

    def test_baseline_identical_to_interval_suppresses_everything(self):
        flows = [make_flow(dport=80, packets=5) for _ in range(200)]
        report = AnomalyExtractor().extract(_alarm(), flows, list(flows))
        assert not report.useful

    def test_alarm_wider_than_data(self):
        flows = [make_flow(start=10.0, end=11.0)] * 60
        wide = Alarm(
            alarm_id="w", detector="t", start=0.0, end=10_000.0, score=1.0
        )
        report = AnomalyExtractor().extract(wide, flows)
        assert isinstance(report.useful, bool)


class TestDegenerateMining:
    def test_transactions_from_empty(self):
        ts = TransactionSet.from_flows([])
        assert not ts
        assert ts.total_packets == 0

    def test_extended_on_zero_packet_flows(self):
        flows = [make_flow(packets=0, bytes_=0) for _ in range(50)]
        outcome = ExtendedApriori(
            ExtendedAprioriConfig(floor_flows=2)
        ).mine(flows)
        assert outcome.total_packets == 0
        assert outcome.itemsets  # flow support still works

    def test_thresholds_cannot_both_be_none(self):
        ts = TransactionSet.from_flows([make_flow()])
        from repro.mining.apriori import mine_apriori

        with pytest.raises(MiningError):
            mine_apriori(ts, None, None)


class TestSystemRobustness:
    def test_extract_alarm_outside_archive(self):
        trace = FlowTrace([make_flow(start=10.0, end=11.0)],
                          bin_seconds=300.0, origin=0.0)
        system = ExtractionSystem.from_trace(trace)
        alarm = Alarm(alarm_id="x", detector="t", start=9_000.0,
                      end=9_300.0, score=1.0)
        with pytest.raises(ExtractionError):
            system.extract(alarm)

    def test_backend_empty_store(self):
        backend = FlowBackend(FlowTrace())
        alarm = _alarm()
        assert not len(backend.alarm_table(alarm))
        assert not len(backend.baseline_table(alarm))

    def test_validate_untracked_alarm_still_works(self):
        flows = [make_flow(start=float(i), end=float(i) + 1, sport=i + 1)
                 for i in range(100)]
        trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
        system = ExtractionSystem.from_trace(trace)
        # Alarm never ingested into the DB: extraction must still run.
        result = system.validate(_alarm())
        assert result.report is not None

    def test_min_candidates_zero_never_falls_back(self):
        flows = [make_flow(dport=80)] * 10 + [make_flow(dport=22)] * 10
        alarm = _alarm([MetadataItem(FlowFeature.DST_PORT, 80)])
        config = ExtractionConfig(min_candidates=0)
        report = AnomalyExtractor(config).extract(alarm, flows)
        assert report.candidates.used_metadata
        assert len(report.candidates.flows) == 10
