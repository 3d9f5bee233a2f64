"""The session facade: equivalence with the legacy entry points,
TOML round-trip, registries and spec validation.

The acceptance bar of the API redesign: every execution mode reachable
through ``Session.run()`` must be **byte-identical** to the legacy
path it replaced — same alarms, same rendered reports, same alarm-DB
rows — for both the builder and TOML-config construction.
"""

import sqlite3

import numpy as np
import pytest

from repro import api
from repro.detect.base import Alarm
from repro.detect.netreflex import NetReflexDetector
from repro.errors import RegistryError, SpecError
from repro.extraction.summarize import table_rows
from repro.flows.flowio import read_binary_table
from repro.flows.store import FlowStore
from repro.flows.table import FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS, FlowTrace
from repro.stream import ReplayDriver, StreamEngine, streaming_adapter
from repro.system.alarmdb import AlarmDatabase
from repro.system.backend import FlowBackend
from repro.system.config import SystemConfig
from repro.system.pipeline import ExtractionSystem

TRAIN_BINS = 8


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A labelled 12-bin trace, rendered once for the module."""
    path = tmp_path_factory.mktemp("api") / "trace.rpv5"
    result = (
        api.session()
        .scenario(bins=12, fps=6, seed=7, anomalies=["port-scan"])
        .synth(str(path))
        .run()
    )
    assert result.stats["flows"] > 0
    return path


def _load(path) -> FlowTrace:
    return FlowTrace(read_binary_table(path),
                     bin_seconds=DEFAULT_BIN_SECONDS, origin=0.0)


def _trained_split(trace):
    split = trace.origin + TRAIN_BINS * trace.bin_seconds
    training = trace.where(lambda f: f.start < split)
    tail = trace.where(lambda f: f.start >= split)
    detector = NetReflexDetector()
    detector.train(training)
    return detector, tail, split


def _db_rows(path):
    """Every alarm-DB row, deterministic order — the byte-level view."""
    with sqlite3.connect(path) as conn:
        alarms = conn.execute(
            "SELECT alarm_id, detector, start, end, score, label, "
            "router, status, verdict FROM alarms ORDER BY alarm_id"
        ).fetchall()
        metadata = conn.execute(
            "SELECT alarm_id, feature, value, weight FROM alarm_metadata "
            "ORDER BY alarm_id, feature, value"
        ).fetchall()
    return alarms, metadata


def _rendered(triage):
    """Triage results in rendered (presentation-byte) form."""
    return [
        (t.alarm.alarm_id, table_rows(t.report), t.verdict.useful,
         t.verdict.summary())
        for t in triage
    ]


class TestBatchEquivalence:
    def test_session_matches_legacy_extraction_system(
        self, trace_path, tmp_path
    ):
        # Legacy wiring, by hand.
        trace = _load(trace_path)
        detector, tail, _ = _trained_split(trace)
        legacy_alarms = detector.detect(tail)
        legacy_db = tmp_path / "legacy.db"
        system = ExtractionSystem(
            FlowBackend(store=FlowStore.from_trace(trace),
                        baseline_bins=3, pad_bins=0),
            alarmdb=AlarmDatabase(legacy_db),
            config=SystemConfig(),
        )
        try:
            system.ingest(legacy_alarms)
            legacy_triage = system.process_open_alarms(skip_errors=True)
        finally:
            system.close()
            system.alarmdb.close()

        session_db = tmp_path / "session.db"
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect("netreflex", train_bins=TRAIN_BINS)
            .batch(triage=True)
            .alarmdb(str(session_db))
            .run()
        )
        assert result.alarms == legacy_alarms
        assert _rendered(result.triage) == _rendered(legacy_triage)
        assert _db_rows(session_db) == _db_rows(legacy_db)

    def test_sharded_batch_matches_serial(self, trace_path, tmp_path):
        serial_db = tmp_path / "serial.db"
        sharded_db = tmp_path / "sharded.db"

        def run(workers, db):
            return (
                api.session()
                .source("rpv5", path=str(trace_path))
                .detect("netreflex", train_bins=TRAIN_BINS)
                .batch(workers=workers, triage=True)
                .alarmdb(str(db))
                .run()
            )

        serial = run(1, serial_db)
        sharded = run(3, sharded_db)
        assert sharded.alarms == serial.alarms
        assert _rendered(sharded.triage) == _rendered(serial.triage)
        assert _db_rows(sharded_db) == _db_rows(serial_db)

    def test_toml_config_matches_builder(self, trace_path, tmp_path):
        config = tmp_path / "batch.toml"
        config.write_text(f"""
[source]
kind = "rpv5"
path = "{trace_path}"

[detector]
train_bins = {TRAIN_BINS}

[execution]
mode = "batch"
triage = true
""")
        from_config = api.Session.from_config(config).run()
        from_builder = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect("netreflex", train_bins=TRAIN_BINS)
            .batch(triage=True)
            .run()
        )
        assert from_config.alarms == from_builder.alarms
        assert _rendered(from_config.triage) == \
            _rendered(from_builder.triage)


class TestStreamEquivalence:
    def _legacy_windows(self, trace_path, db_path, workers=1,
                        archive=None):
        trace = _load(trace_path)
        detector, _, split = _trained_split(trace)
        tail = trace.between_table(split, trace.span[1] + 1.0)
        archive_writer = None
        if archive is not None:
            from repro.archive import ArchiveWriter

            archive_writer = ArchiveWriter(
                archive, slice_seconds=trace.bin_seconds, origin=split
            )
        options = dict(
            window_seconds=trace.bin_seconds,
            origin=split,
            dedup_window=600.0,
            triage=True,
            alarmdb=AlarmDatabase(db_path),
            archive=archive_writer,
        )
        engine = StreamEngine(
            [streaming_adapter(detector)], workers=workers, **options
        )
        try:
            windows, _ = ReplayDriver(tail).replay(engine)
        finally:
            engine.close()
            engine.alarmdb.close()
        return windows

    def _session_result(self, trace_path, db_path, workers=1,
                        archive=None):
        builder = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect("netreflex", train_bins=TRAIN_BINS)
            .stream(workers=workers, dedup_window=600.0, triage=True)
            .alarmdb(str(db_path))
        )
        if archive is not None:
            builder.archive(str(archive))
        return builder.run()

    @staticmethod
    def _window_view(windows):
        return [
            (w.window.index, w.window.start, w.window.end,
             w.window.flows, w.alarms, list(w.merged),
             _rendered(w.triage))
            for w in windows
        ]

    def test_session_matches_legacy_stream_engine(
        self, trace_path, tmp_path
    ):
        legacy_db = tmp_path / "legacy.db"
        session_db = tmp_path / "session.db"
        legacy = self._legacy_windows(trace_path, legacy_db)
        result = self._session_result(trace_path, session_db)
        assert self._window_view(result.windows) == \
            self._window_view(legacy)
        assert _db_rows(session_db) == _db_rows(legacy_db)

    def test_session_matches_legacy_sharded_stream_engine(
        self, trace_path, tmp_path
    ):
        legacy_db = tmp_path / "legacy.db"
        session_db = tmp_path / "session.db"
        legacy = self._legacy_windows(trace_path, legacy_db, workers=3)
        result = self._session_result(trace_path, session_db, workers=3)
        assert self._window_view(result.windows) == \
            self._window_view(legacy)
        assert _db_rows(session_db) == _db_rows(legacy_db)

    def test_stream_stats_are_uniform(self, trace_path, tmp_path):
        result = self._session_result(trace_path, tmp_path / "s.db")
        for key in ("flows", "windows", "alarms", "merged", "triaged",
                    "late_dropped", "wall", "rate", "speedup", "open"):
            assert key in result.stats
        assert result.summary().startswith("session stream ok:")


class TestArchiveResumeEquivalence:
    def test_session_triage_matches_legacy_from_archive(
        self, trace_path, tmp_path
    ):
        # Two identical durable stream runs (facade-driven; stream
        # equivalence itself is covered above).
        legacy_db = tmp_path / "legacy.db"
        session_db = tmp_path / "session.db"
        for db, spool in (
            (legacy_db, tmp_path / "legacy-spool"),
            (session_db, tmp_path / "session-spool"),
        ):
            (
                api.session()
                .source("rpv5", path=str(trace_path))
                .detect("netreflex", train_bins=TRAIN_BINS)
                .stream(dedup_window=600.0)
                .archive(str(spool))
                .alarmdb(str(db))
                .run()
            )

        # Legacy restart-recovery path, by hand.
        alarmdb = AlarmDatabase(legacy_db)
        system = ExtractionSystem.from_archive(
            str(tmp_path / "legacy-spool"), alarmdb=alarmdb
        )
        try:
            legacy_triage = system.process_open_alarms(skip_errors=True)
        finally:
            system.close()
            alarmdb.close()

        result = (
            api.session()
            .source("archive", path=str(tmp_path / "session-spool"))
            .triage()
            .alarmdb(str(session_db))
            .run()
        )
        assert _rendered(result.triage) == _rendered(legacy_triage)
        assert _db_rows(session_db) == _db_rows(legacy_db)
        assert result.stats["open"] == 0


class TestTomlRoundTrip:
    def _specs(self):
        yield api.SessionSpec(
            source=api.SourceSpec(kind="rpv5", path="t.rpv5"),
        )
        yield (
            api.session()
            .scenario(bins=6, fps=8.5, seed=3,
                      anomalies=["port-scan", "udp-flood"])
            .detect("kl", train_bins=4, hash_buckets=128)
            .mine("apriori", extraction={"top_k": 5},
                  target_max_itemsets=20)
            .stream(window_seconds=120.0, workers=4, lateness_seconds=30,
                    dedup_window=600, triage=True)
            .archive("spool", shards=2)
            .alarmdb("alarms.db")
            .spec()
        )
        yield (
            api.session()
            .source("rpv5", path="t.rpv5", bin_seconds=60,
                    origin=100.0)
            .extract(3000, 3300, hints=["srcPort=55548"],
                     anonymize=True)
            .spec()
        )

    def test_spec_toml_spec_is_identity(self):
        import tomllib

        for spec in self._specs():
            text = spec.to_toml()
            again = api.SessionSpec.from_dict(tomllib.loads(text))
            assert again == spec, text

    def test_in_memory_table_is_not_serializable(self):
        from repro.flows.table import FlowTable

        spec = api.session().table(FlowTable.empty()).spec()
        with pytest.raises(SpecError) as err:
            spec.to_toml()
        assert err.value.field == "source.table"

    def test_float_coercion_matches_builder(self):
        # TOML integers land in float fields; equality must hold.
        d1 = api.SessionSpec.from_dict({
            "source": {"kind": "rpv5", "path": "t", "bin_seconds": 300},
            "execution": {"mode": "stream", "dedup_window": 600},
        })
        d2 = api.SessionSpec.from_dict({
            "source": {"kind": "rpv5", "path": "t",
                       "bin_seconds": 300.0},
            "execution": {"mode": "stream", "dedup_window": 600.0},
        })
        assert d1 == d2


class TestRegistry:
    def test_unknown_detector_name(self):
        spec = (
            api.session()
            .source("rpv5", path="t.rpv5")
            .detect("not-a-detector")
            .spec()
        )
        with pytest.raises(RegistryError) as err:
            api.Session(spec)._detector()
        assert err.value.field == "detector.name"
        assert "netreflex" in str(err.value)

    def test_unknown_source_kind(self):
        spec = api.SessionSpec(source=api.SourceSpec(kind="carrier-pigeon"))
        with pytest.raises(RegistryError) as err:
            api.Session(spec).run()
        assert err.value.field == "source.kind"

    def test_unknown_mining_engine(self):
        spec = (
            api.session()
            .source("rpv5", path="t.rpv5")
            .mine("quantum")
            .spec()
        )
        with pytest.raises(RegistryError) as err:
            api.Session(spec)._extraction_config()
        assert err.value.field == "mining.engine"

    def test_double_registration_needs_replace(self):
        with pytest.raises(RegistryError):
            api.detectors.register("netreflex", lambda: None)

    def test_plugin_detector_runs_through_the_facade(self, trace_path):
        api.detectors.register(
            "test-plugin-netreflex",
            lambda **options: NetReflexDetector(),
            replace=True,
        )
        try:
            result = (
                api.session()
                .source("rpv5", path=str(trace_path))
                .detect("test-plugin-netreflex", train_bins=TRAIN_BINS)
                .batch()
                .run()
            )
            baseline = (
                api.session()
                .source("rpv5", path=str(trace_path))
                .detect("netreflex", train_bins=TRAIN_BINS)
                .batch()
                .run()
            )
            assert result.alarms == baseline.alarms
        finally:
            api.detectors._entries.pop("test-plugin-netreflex", None)

    def test_plugin_miner_is_a_valid_engine(self):
        from repro.mining.extended import ENGINES, ExtendedAprioriConfig
        from repro.mining.apriori import mine_apriori

        api.miners.register("test-plugin-miner", mine_apriori,
                            replace=True)
        try:
            # The registry adopted ENGINES, so the config validates.
            assert "test-plugin-miner" in ENGINES
            config = ExtendedAprioriConfig(engine="test-plugin-miner")
            assert config.engine == "test-plugin-miner"
            assert api.Session(
                api.session()
                .source("rpv5", path="t")
                .mine("test-plugin-miner")
                .spec()
            )._extraction_config().mining.engine == "test-plugin-miner"
        finally:
            ENGINES.pop("test-plugin-miner", None)

    @pytest.mark.parametrize("engine", ["eclat", "fpgrowth"])
    def test_removed_engines_are_unknown_names(self, trace_path, engine):
        session = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .mine(engine)
            .extract(3000, 3300)
            .build()
        )
        with pytest.raises(RegistryError) as err:
            session.run()
        assert err.value.field == "mining.engine"
        assert "apriori" in str(err.value)

    def test_plugin_miner_runs_at_every_worker_count(self):
        from repro.extraction.extractor import (
            AnomalyExtractor,
            ExtractionConfig,
        )
        from repro.mining.apriori import mine_apriori
        from repro.mining.extended import ENGINES, ExtendedAprioriConfig

        calls = []

        def spy(transactions, min_flows, min_packets=None, max_size=None):
            calls.append(len(transactions))
            return mine_apriori(transactions, min_flows, min_packets,
                                max_size)

        rng = np.random.default_rng(5)
        count = 400
        table = FlowTable.from_columns(
            src_ip=rng.integers(1, 4, count),
            dst_ip=rng.integers(1, 9, count),
            src_port=rng.integers(1024, 1030, count),
            dst_port=rng.choice(np.array([53, 80]), count),
            proto=rng.choice(np.array([6, 17]), count),
            packets=rng.integers(1, 50, count),
        )
        alarm = Alarm(alarm_id="a", detector="t", start=0.0, end=300.0,
                      score=1.0)
        api.miners.register("test-spy-miner", spy, replace=True)
        try:
            config = ExtractionConfig(
                mining=ExtendedAprioriConfig(engine="test-spy-miner")
            )
            reports = []
            for workers in (1, 2):
                calls.clear()
                extractor = AnomalyExtractor(config, workers=workers)
                try:
                    reports.append(table_rows(extractor.extract(alarm, table)))
                finally:
                    extractor.close()
                assert calls, f"workers={workers} bypassed the engine"
            assert reports[0] == reports[1]
        finally:
            ENGINES.pop("test-spy-miner", None)


class TestSpecValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(SpecError) as err:
            api.ExecutionSpec(workers=0)
        assert err.value.field == "execution.workers"

    def test_unknown_mode(self):
        with pytest.raises(SpecError) as err:
            api.ExecutionSpec(mode="teleport")
        assert err.value.field == "execution.mode"

    def test_unknown_section(self):
        with pytest.raises(SpecError) as err:
            api.SessionSpec.from_dict({
                "source": {"kind": "rpv5", "path": "t"},
                "sourcing": {},
            })
        assert err.value.field == "sourcing"

    def test_unknown_key_names_the_field(self):
        with pytest.raises(SpecError) as err:
            api.SessionSpec.from_dict({
                "source": {"kind": "rpv5", "path": "t"},
                "execution": {"mode": "batch", "wrokers": 4},
            })
        assert err.value.field == "execution.wrokers"

    def test_removed_ipc_key_is_an_unknown_key(self):
        with pytest.raises(SpecError) as err:
            api.SessionSpec.from_dict({
                "source": {"kind": "rpv5", "path": "t"},
                "execution": {"mode": "stream", "ipc": "shm"},
            })
        assert err.value.field == "execution.ipc"

    def test_missing_source_section(self):
        with pytest.raises(SpecError) as err:
            api.SessionSpec.from_dict({"execution": {"mode": "batch"}})
        assert err.value.field == "source"

    def test_unknown_scenario_option(self):
        spec = api.session().scenario(flux_capacitors=2).spec()
        with pytest.raises(SpecError) as err:
            api.Session(spec).run()
        assert err.value.field == "source.options.flux_capacitors"

    def test_tail_source_requires_path(self):
        spec = api.SessionSpec(source=api.SourceSpec(kind="tail"))
        with pytest.raises(SpecError) as err:
            api.Session(spec).run()
        assert err.value.field == "source.path"

    def test_extract_requires_window(self):
        spec = (
            api.session()
            .source("rpv5", path="t.rpv5")
            .mode("extract")
            .spec()
        )
        with pytest.raises(SpecError) as err:
            api.Session(spec).run()
        assert err.value.field == "execution.start"

    def test_triage_requires_archive_source(self, trace_path):
        spec = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .triage()
            .alarmdb("x.db")
            .spec()
        )
        with pytest.raises(SpecError) as err:
            api.Session(spec).run()
        assert err.value.field == "source.kind"

    def test_stream_unbounded_requires_train_path(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("")
        spec = (
            api.session()
            .source("tail", path=str(log), idle_polls=1)
            .mode("stream")
            .spec()
        )
        with pytest.raises(SpecError) as err:
            api.Session(spec).run()
        assert err.value.field == "detector.train_path"

    def test_bad_hint_is_a_spec_error(self):
        with pytest.raises(SpecError) as err:
            api.parse_hint("dstIP")
        assert err.value.field == "execution.hints"
        with pytest.raises(SpecError):
            api.parse_hint("warp=9")


class TestUnboundedTail:
    def test_tail_source_streams_with_external_training(
        self, trace_path, tmp_path
    ):
        from repro.flows.flowio import write_csv

        trace = _load(trace_path)
        _, tail, _ = _trained_split(trace)
        log = tmp_path / "live.csv"
        # Time-ordered, like a live capture appending to the log.
        write_csv(tail.table.sorted_by_start().to_records(), log)
        result = (
            api.session()
            .source("tail", path=str(log), idle_polls=2,
                    poll_seconds=0.01)
            .detect("netreflex", train_bins=TRAIN_BINS,
                    train_path=str(trace_path))
            .stream(window_seconds=trace.bin_seconds)
            .run()
        )
        assert result.stats["flows"] == len(tail)
        assert result.stats["windows"] >= 1


class TestRunResult:
    def test_summary_is_stable_and_greppable(self, trace_path):
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .batch()
            .run()
        )
        line = result.summary()
        assert line.startswith("session batch ok:")
        assert "alarms=" in line
        assert "total" in result.timings

    def test_report_dir_sink_writes_reports(self, trace_path, tmp_path):
        report_dir = tmp_path / "reports"
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .batch(triage=True)
            .reports(str(report_dir))
            .run()
        )
        assert result.triage
        written = sorted(report_dir.iterdir())
        assert len(written) == len(result.triage)
        assert "#flows" in written[0].read_text()

    def test_in_memory_table_source_runs_batch(self, trace_path):
        trace = _load(trace_path)
        via_table = (
            api.session()
            .table(trace)
            .detect(train_bins=TRAIN_BINS)
            .batch()
            .run()
        )
        via_file = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .batch()
            .run()
        )
        assert via_table.alarms == via_file.alarms


class TestReviewRegressions:
    """Pinned behaviors from the facade review pass."""

    def test_speedup_zero_is_the_max_rate_sentinel(self):
        # The CLI help ("0 = max rate") must hold on the TOML path too.
        assert api.ExecutionSpec(speedup=0).speedup is None
        spec = api.SessionSpec.from_dict({
            "source": {"kind": "rpv5", "path": "t"},
            "execution": {"mode": "stream", "speedup": 0},
        })
        assert spec.execution.speedup is None
        with pytest.raises(SpecError):
            api.ExecutionSpec(speedup=-1)

    def test_detect_only_batch_skips_the_alarm_db(self, trace_path):
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .batch()
            .run()
        )
        # No triage and no alarmdb sink: nothing was persisted, every
        # alarm counts as open, and there are no DB-backed statuses.
        assert result.stats["open"] == len(result.alarms)
        assert result.payload["statuses"] == {}

    def test_batch_statuses_come_from_the_db(self, trace_path, tmp_path):
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .batch(triage=True)
            .alarmdb(str(tmp_path / "s.db"))
            .run()
        )
        statuses = result.payload["statuses"]
        assert set(statuses) == {
            t.alarm.alarm_id for t in result.triage
        }
        for triaged in result.triage:
            status, _ = statuses[triaged.alarm.alarm_id]
            assert status == (
                "validated" if triaged.verdict.useful else "dismissed"
            )

    def test_interrupt_keeps_windows_sealed_before_it(
        self, trace_path, monkeypatch
    ):
        original = ReplayDriver.chunks

        def interrupted_chunks(self):
            for count, chunk in enumerate(original(self)):
                if count == 2:
                    raise KeyboardInterrupt
                yield chunk

        monkeypatch.setattr(ReplayDriver, "chunks", interrupted_chunks)
        result = (
            api.session()
            .source("rpv5", path=str(trace_path))
            .detect(train_bins=TRAIN_BINS)
            .stream()
            .run()
        )
        assert result.interrupted
        # Windows are collected through the callback seam, so even the
        # pre-interrupt seals survive into the result.
        assert len(result.windows) == result.stats["windows"]

    def test_tail_stream_renders_through_the_cli(
        self, trace_path, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.flows.flowio import write_csv

        trace = _load(trace_path)
        _, tail, _ = _trained_split(trace)
        log = tmp_path / "live.csv"
        write_csv(tail.table.sorted_by_start().to_records(), log)
        config = tmp_path / "tail.toml"
        config.write_text(f"""
[source]
kind = "tail"
path = "{log}"

[source.options]
idle_polls = 2
poll_seconds = 0.01

[detector]
train_bins = {TRAIN_BINS}
train_path = "{trace_path}"

[execution]
mode = "stream"
""")
        assert main(["run", str(config)]) == 0
        out = capsys.readouterr().out
        assert "tailing live" in out
        assert f"trained netreflex-pca on {trace_path}" in out
        assert "streamed" in out  # summary renders without replay stats
        assert "session stream ok:" in out
