"""Tests for the system package (alarm DB, backend, console, pipeline)."""

import pytest

from conftest import make_flow
from repro.detect.base import Alarm, MetadataItem
from repro.errors import AlarmDatabaseError, ConfigurationError, StoreError
from repro.extraction.extractor import AnomalyExtractor
from repro.extraction.validate import validate_report
from repro.flows.record import FlowFeature, TcpFlags
from repro.flows.trace import FlowTrace
from repro.mining.items import Item, Itemset
from repro.system.alarmdb import AlarmDatabase, AlarmStatus
from repro.system.backend import FlowBackend
from repro.system.config import SystemConfig
from repro.system.console import (
    alarm_queue_view,
    flow_drilldown_view,
    itemset_table_view,
    render_table,
    session_view,
    verdict_view,
)
from repro.system.pipeline import ExtractionSystem


def _alarm(alarm_id="a1", start=300.0, end=600.0, metadata=None):
    return Alarm(
        alarm_id=alarm_id,
        detector="test",
        start=start,
        end=end,
        score=3.5,
        label="port scan",
        metadata=metadata or [MetadataItem(FlowFeature.DST_PORT, 80)],
        router=2,
    )


class TestAlarmDatabase:
    def test_insert_get_roundtrip(self):
        with AlarmDatabase() as db:
            alarm = _alarm()
            db.insert(alarm)
            loaded = db.get("a1")
            assert loaded.alarm_id == alarm.alarm_id
            assert loaded.start == alarm.start
            assert loaded.router == 2
            assert loaded.metadata[0].feature is FlowFeature.DST_PORT
            assert loaded.metadata[0].value == 80

    def test_duplicate_insert_rejected(self):
        with AlarmDatabase() as db:
            db.insert(_alarm())
            with pytest.raises(AlarmDatabaseError):
                db.insert(_alarm())

    def test_status_lifecycle(self):
        with AlarmDatabase() as db:
            db.insert(_alarm())
            assert db.status_of("a1") == (AlarmStatus.OPEN, "")
            db.set_status("a1", AlarmStatus.VALIDATED, "confirmed scan")
            assert db.status_of("a1") == (
                AlarmStatus.VALIDATED, "confirmed scan"
            )
            with pytest.raises(AlarmDatabaseError):
                db.set_status("a1", "weird")
            with pytest.raises(AlarmDatabaseError):
                db.set_status("missing", AlarmStatus.OPEN)

    def test_list_filters(self):
        with AlarmDatabase() as db:
            db.insert(_alarm("a1", 0.0, 300.0))
            db.insert(_alarm("a2", 300.0, 600.0))
            db.set_status("a2", AlarmStatus.DISMISSED)
            assert [a.alarm_id for a in db.list_alarms()] == ["a1", "a2"]
            assert [
                a.alarm_id
                for a in db.list_alarms(status=AlarmStatus.OPEN)
            ] == ["a1"]
            assert [
                a.alarm_id for a in db.list_alarms(start=250.0, end=700.0)
            ] == ["a1", "a2"]
            assert [
                a.alarm_id for a in db.list_alarms(start=350.0)
            ] == ["a2"]

    def test_count_and_delete(self):
        with AlarmDatabase() as db:
            db.insert(_alarm("a1"))
            db.insert(_alarm("a2", 600.0, 900.0))
            assert db.count() == 2
            assert db.count(AlarmStatus.OPEN) == 2
            db.delete("a1")
            assert db.count() == 1
            with pytest.raises(AlarmDatabaseError):
                db.delete("a1")

    def test_file_persistence(self, tmp_path):
        path = tmp_path / "alarms.sqlite"
        with AlarmDatabase(path) as db:
            db.insert(_alarm())
        with AlarmDatabase(path) as db:
            assert db.get("a1").alarm_id == "a1"


class TestAlarmDedup:
    def test_refire_merges_into_stored_alarm(self):
        with AlarmDatabase() as db:
            assert db.insert(_alarm("a1", 300.0, 600.0)) == "a1"
            refire = _alarm(
                "a2", 600.0, 900.0,
                metadata=[
                    MetadataItem(FlowFeature.DST_PORT, 80, weight=9.0),
                    MetadataItem(FlowFeature.SRC_IP, 42, weight=2.0),
                ],
            )
            assert db.insert(refire, dedup_window=600.0) == "a1"
            assert db.count() == 1
            merged = db.get("a1")
            # Interval widened, score keeps the max, hints united.
            assert (merged.start, merged.end) == (300.0, 900.0)
            assert merged.score == 3.5
            pairs = {(m.feature, m.value): m.weight
                     for m in merged.metadata}
            assert pairs[(FlowFeature.DST_PORT, 80)] == 9.0
            assert pairs[(FlowFeature.SRC_IP, 42)] == 2.0

    def test_dismissed_alarms_never_absorb_refires(self):
        # New evidence on a closed false-positive case must resurface
        # as a fresh (triageable) alarm, not vanish into the dismissal.
        with AlarmDatabase() as db:
            db.insert(_alarm("a1", 300.0, 600.0))
            db.set_status("a1", AlarmStatus.DISMISSED, "false positive")
            assert db.insert(
                _alarm("a2", 600.0, 900.0), dedup_window=600.0
            ) == "a2"
            assert db.count() == 2
            assert db.status_of("a2")[0] == AlarmStatus.OPEN

    def test_validated_alarms_still_absorb_refires(self):
        # A confirmed ongoing anomaly re-firing window after window is
        # exactly what suppression is for.
        with AlarmDatabase() as db:
            db.insert(_alarm("a1", 300.0, 600.0))
            db.set_status("a1", AlarmStatus.VALIDATED, "confirmed")
            assert db.insert(
                _alarm("a2", 600.0, 900.0), dedup_window=600.0
            ) == "a1"
            assert db.count() == 1
            assert db.get("a1").end == 900.0

    def test_refire_outside_window_is_new(self):
        with AlarmDatabase() as db:
            db.insert(_alarm("a1", 300.0, 600.0))
            db.insert(_alarm("a2", 1500.0, 1800.0), dedup_window=300.0)
            assert db.count() == 2

    def test_different_key_never_merges(self):
        with AlarmDatabase() as db:
            db.insert(_alarm("a1"))
            other_label = _alarm("a2")
            other_label.label = "udp flood"
            assert db.insert(other_label, dedup_window=1e9) == "a2"
            other_router = _alarm("a3")
            other_router.router = 7
            assert db.insert(other_router, dedup_window=1e9) == "a3"
            other_detector = _alarm("a4")
            other_detector.detector = "other"
            assert db.insert(other_detector, dedup_window=1e9) == "a4"
            assert db.count() == 4

    def test_insert_many_counts_only_new(self):
        with AlarmDatabase() as db:
            stored = db.insert_many(
                [_alarm("a1", 300.0, 600.0), _alarm("a2", 600.0, 900.0)],
                dedup_window=600.0,
            )
            assert stored == 1
            assert db.count() == 1

    def test_negative_dedup_window_rejected(self):
        with AlarmDatabase() as db:
            with pytest.raises(AlarmDatabaseError):
                db.insert(_alarm(), dedup_window=-1.0)


def _backend(bin_seconds=300.0):
    flows = []
    for b in range(4):
        for i in range(20):
            start = b * bin_seconds + i * 10
            flows.append(
                make_flow(sport=2000 + i, dport=80, start=start,
                          end=start + 1)
            )
    return FlowBackend(
        FlowTrace(flows, bin_seconds=bin_seconds), baseline_bins=2
    )


class TestFlowBackend:
    def test_windows(self):
        backend = _backend()
        windows = backend.windows_for(_alarm(start=600.0, end=900.0))
        assert windows.interval == (600.0, 900.0)
        assert windows.baseline == (0.0, 600.0)

    def test_alarm_and_baseline_flows(self):
        backend = _backend()
        alarm = _alarm(start=600.0, end=900.0)
        assert len(backend.alarm_table(alarm)) == 20
        assert len(backend.baseline_table(alarm)) == 40

    def test_no_baseline(self):
        backend = FlowBackend(_backend().store, baseline_bins=0)
        assert not len(
            backend.baseline_table(_alarm(start=600.0, end=900.0))
        )

    def test_itemset_drilldown(self):
        backend = _backend()
        itemset = Itemset([Item(FlowFeature.SRC_PORT, 2003)])
        matched = backend.itemset_flows(itemset, 0.0, 1200.0)
        assert len(matched) == 4
        limited = backend.itemset_flows(itemset, 0.0, 1200.0, limit=2)
        assert len(limited) == 2
        with pytest.raises(StoreError):
            backend.itemset_flows(itemset, 0.0, 1200.0, limit=0)

    def test_validation(self):
        with pytest.raises(StoreError):
            FlowBackend(FlowTrace(), baseline_bins=-1)


class TestConsole:
    def _report(self):
        flows = [
            make_flow(src="7.7.7.7", dst="8.8.8.8", sport=55548, dport=p,
                      packets=1, flags=TcpFlags.SYN)
            for p in range(1, 101)
        ]
        alarm = _alarm(metadata=[
            MetadataItem(FlowFeature.SRC_IP, flows[0].src_ip)
        ], start=0.0, end=300.0)
        report = AnomalyExtractor().extract(alarm, flows)
        return alarm, report

    def test_render_table_alignment(self):
        text = render_table([("a", "bb"), ("ccc", "d")])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert len(lines[0]) == len(lines[2])

    def test_alarm_queue_view(self):
        with AlarmDatabase() as db:
            db.insert(_alarm())
            view = alarm_queue_view(db)
            assert "a1" in view and "open" in view and "dstPort=80" in view

    def test_itemset_table_view(self):
        alarm, report = self._report()
        view = itemset_table_view(report)
        assert "55548" in view
        assert "port scan" in view

    def test_flow_drilldown_view(self):
        flows = [make_flow(packets=i) for i in range(1, 30)]
        view = flow_drilldown_view(flows, limit=5)
        assert "... 24 more flows" in view
        assert "10.0.0.1" in view

    def test_verdict_and_session_views(self):
        alarm, report = self._report()
        verdict = validate_report(report)
        assert "port scan" in verdict_view(verdict)
        session = session_view(alarm, report, verdict)
        assert "=" * 72 in session

    def test_anonymized_views(self):
        alarm, report = self._report()
        view = itemset_table_view(report, anonymize=True)
        assert "7.7.7.7" not in view


class TestExtractionSystem:
    def _system(self):
        flows = []
        for b in range(4):
            for i in range(30):
                start = b * 300.0 + i * 5
                flows.append(
                    make_flow(sport=3000 + i, dport=443, start=start,
                              end=start + 1, packets=4)
                )
        # A scan in bin 3.
        flows += [
            make_flow(src="6.6.6.6", dst="10.0.0.9", sport=55548, dport=p,
                      packets=1, flags=TcpFlags.SYN, start=910.0, end=910.1)
            for p in range(1, 301)
        ]
        trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
        return ExtractionSystem.from_trace(trace)

    def test_ingest_and_extract(self):
        system = self._system()
        alarm = _alarm(
            "scan-alarm", 900.0, 1200.0,
            metadata=[
                MetadataItem(FlowFeature.SRC_IP, make_flow(src="6.6.6.6").src_ip)
            ],
        )
        system.ingest([alarm])
        report = system.extract("scan-alarm")
        assert report.useful
        assert system.alarmdb.status_of("scan-alarm")[0] == \
            AlarmStatus.EXTRACTED

    def test_validate_sets_status_and_verdict(self):
        system = self._system()
        alarm = _alarm(
            "scan-alarm", 900.0, 1200.0,
            metadata=[
                MetadataItem(FlowFeature.SRC_IP, make_flow(src="6.6.6.6").src_ip)
            ],
        )
        system.ingest([alarm])
        result = system.validate("scan-alarm")
        assert result.verdict.useful
        status, verdict_text = system.alarmdb.status_of("scan-alarm")
        assert status == AlarmStatus.VALIDATED
        assert verdict_text

    def test_process_open_alarms(self):
        system = self._system()
        system.ingest([
            _alarm("a1", 900.0, 1200.0),
            _alarm("a2", 300.0, 600.0),
        ])
        results = system.process_open_alarms()
        assert len(results) == 2
        assert system.alarmdb.count(AlarmStatus.OPEN) == 0

    def test_extract_missing_interval(self):
        system = self._system()
        alarm = _alarm("far", 90_000.0, 90_300.0)
        from repro.errors import ExtractionError

        with pytest.raises(ExtractionError):
            system.extract(alarm)

    def test_process_open_alarms_skip_errors(self):
        system = self._system()
        system.ingest([
            _alarm("ok", 900.0, 1200.0),
            # No flows archived for this interval: extraction fails.
            _alarm("broken", 90_000.0, 90_300.0),
        ])
        results = system.process_open_alarms(skip_errors=True)
        assert [r.alarm.alarm_id for r in results] == ["ok"]
        # The failed alarm stays open for the next triage pass...
        assert system.alarmdb.status_of("broken")[0] == AlarmStatus.OPEN
        # ...while the strict mode still surfaces the failure.
        from repro.errors import ExtractionError

        with pytest.raises(ExtractionError):
            system.process_open_alarms()

    def test_uningested_alarm_is_triaged_untracked(self):
        system = self._system()
        result = system.validate(_alarm("ad-hoc", 900.0, 1200.0))
        assert result.verdict.useful
        assert system.alarmdb.count() == 0

    def test_alarmdb_write_failure_is_not_swallowed(self, monkeypatch):
        # A locked database or full disk must surface: swallowed, the
        # alarm stays open and every later seal re-mines it.
        import sqlite3

        system = self._system()
        system.ingest([_alarm("a1", 900.0, 1200.0)])

        def locked(*args, **kwargs):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(system.alarmdb, "set_status", locked)
        with pytest.raises(sqlite3.OperationalError):
            system.validate("a1")
        with pytest.raises(sqlite3.OperationalError):
            system.extract("a1")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(baseline_bins=-1)
        with pytest.raises(ConfigurationError):
            SystemConfig(evidence_sample_size=0)
