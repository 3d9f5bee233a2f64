"""The provenance plane: event journal, SSE stream, lineage, crash box.

* the journal's ids are gapless and monotonic, parent links honour the
  ambient causal context, rotation closes segments at the byte bound
  and a torn final line (crashed writer) is skipped, never fatal;
* ``events_since`` resumes with no gaps and no duplicates — from the
  in-memory tail and, for stale cursors, from disk — which is exactly
  the SSE ``Last-Event-ID`` contract, tested over real HTTP against
  the console (including a client that hangs up mid-stream);
* ``canonical_lines`` is byte-identical for workers=1 and workers=4
  runs of the same spec (execution accidents stripped);
* ``lineage`` reconstructs a sharded-run alarm back through verdict,
  window, chunks, shard tasks and archive partitions to run.start;
* a run that dies dumps the flight recorder; the Chrome trace export
  carries the cross-process span tree.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import uuid

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import ReproError, SpecError
from repro.obs import events as obs_events, metrics as obs_metrics, \
    trace as obs_trace
from repro.obs.console import ConsoleServer
from repro.obs.events import EventJournal


@pytest.fixture(autouse=True)
def clean_obs():
    previous_metrics = obs_metrics.install(None)
    previous_journal = obs_events.install(None)
    obs_trace.clear()
    yield
    obs_metrics.install(previous_metrics)
    obs_events.install(previous_journal)


# -- the journal -------------------------------------------------------------


class TestEventJournal:
    def test_ids_are_gapless_and_fields_sorted(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            first = journal.emit("run.start", mode="test")
            second = journal.emit("chunk.ingest", rows=5, seq=1)
            assert (first, second) == (1, 2)
            assert journal.last_id == 2
        records = list(obs_events.read_journal(tmp_path))
        assert [r["id"] for r in records] == [1, 2]
        keys = list(records[1])
        assert keys[:4] == ["id", "ts", "run", "kind"]
        assert keys[4:] == sorted(keys[4:])

    def test_none_fields_are_dropped(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            journal.emit("window.seal", index=0, chunks=None)
        (record,) = obs_events.read_journal(tmp_path)
        assert "chunks" not in record

    def test_parent_defaults_to_causal_context(self):
        journal = EventJournal()
        root = journal.emit("run.start")
        with obs_events.causal(root):
            child = journal.emit("window.seal", index=0)
        orphan = journal.emit("window.seal", index=1)
        records = journal.read()
        assert records[child - 1]["parent"] == root
        assert "parent" not in records[orphan - 1]

    def test_explicit_parent_beats_context(self):
        journal = EventJournal()
        root = journal.emit("run.start")
        other = journal.emit("window.seal", index=0)
        with obs_events.causal(root):
            child = journal.emit("detector.verdict", parent=other)
        assert journal.read()[child - 1]["parent"] == other

    def test_rotation_bounds_segments_and_loses_nothing(self, tmp_path):
        with EventJournal(tmp_path, rotate_bytes=256) as journal:
            for index in range(50):
                journal.emit("chunk.ingest", seq=index)
        segments = journal.segments()
        assert len(segments) > 1
        assert all(
            segment.stat().st_size <= 256 for segment in segments
        )
        records = list(obs_events.read_journal(tmp_path))
        assert [r["id"] for r in records] == list(range(1, 51))

    def test_torn_final_line_is_skipped(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            journal.emit("run.start")
            journal.emit("chunk.ingest", seq=1)
        segment = journal.segments()[-1]
        with open(segment, "a", encoding="utf-8") as stream:
            stream.write('{"id":3,"ts":1.0,"run":"x","ki')
        records = list(obs_events.read_journal(tmp_path))
        assert [r["id"] for r in records] == [1, 2]

    def test_corrupt_interior_line_raises(self, tmp_path):
        with EventJournal(tmp_path) as journal:
            journal.emit("run.start")
        segment = journal.segments()[-1]
        text = segment.read_text(encoding="utf-8")
        segment.write_text("not json\n" + text, encoding="utf-8")
        with pytest.raises(ReproError, match="corrupt journal"):
            list(obs_events.read_journal(tmp_path))

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no event journal"):
            list(obs_events.read_journal(tmp_path / "absent"))

    def test_events_since_no_gaps_no_dups(self, tmp_path):
        journal = EventJournal(tmp_path, tail_events=4)
        for index in range(10):
            journal.emit("chunk.ingest", seq=index)
        for cursor in range(0, 11):
            resumed = journal.events_since(cursor)
            assert [r["id"] for r in resumed] == list(
                range(cursor + 1, 11)
            )
        journal.close()

    def test_events_since_stale_cursor_replays_from_disk(
        self, tmp_path
    ):
        journal = EventJournal(
            tmp_path, rotate_bytes=128, tail_events=2
        )
        for index in range(20):
            journal.emit("chunk.ingest", seq=index)
        resumed = journal.events_since(3)
        assert [r["id"] for r in resumed] == list(range(4, 21))
        journal.close()

    def test_wait_wakes_on_emit_and_times_out(self):
        journal = EventJournal()
        journal.emit("run.start")
        assert journal.wait(0, timeout=0.01) is True
        assert journal.wait(1, timeout=0.01) is False

        woken: list[bool] = []

        def waiter() -> None:
            woken.append(journal.wait(1, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        journal.emit("chunk.ingest", seq=1)
        thread.join(timeout=5.0)
        assert woken == [True]
        journal.close()
        assert journal.wait(2, timeout=0.01) is False

    def test_flight_recorder_keeps_last_n(self, tmp_path):
        journal = EventJournal(tmp_path, recorder_events=3)
        for index in range(10):
            journal.emit("chunk.ingest", seq=index)
        tail = journal.recorder_tail()
        assert [r["id"] for r in tail] == [8, 9, 10]
        dumped = journal.dump_recorder("test crash")
        document = json.loads(dumped.read_text(encoding="utf-8"))
        assert document["reason"] == "test crash"
        assert [e["id"] for e in document["events"]] == [8, 9, 10]
        journal.close()

    def test_memory_only_journal_serves_tail(self):
        journal = EventJournal()
        journal.emit("run.start")
        journal.emit("chunk.ingest", seq=1)
        assert [r["id"] for r in journal.read()] == [1, 2]
        assert journal.segments() == []
        assert journal.dump_recorder("no disk") is None

    def test_module_emit_is_noop_until_installed(self):
        assert obs_events.emit("run.start") is None
        journal = EventJournal()
        obs_events.install(journal)
        assert obs_events.emit("run.start") == 1
        obs_events.disable()
        assert obs_events.emit("run.start") is None


class TestRotationUnderLoad:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rotate=st.integers(min_value=64, max_value=512),
        payloads=st.lists(
            st.integers(min_value=0, max_value=120),
            min_size=1, max_size=60,
        ),
        cursor=st.integers(min_value=0, max_value=70),
    )
    def test_everything_persists_and_resumes(
        self, tmp_path, rotate, payloads, cursor
    ):
        # One directory per example, one run id per journal: shrinking
        # replays the same parameters into the same tmp_path, and a
        # fresh journal appending under a reused run id would collide
        # with the previous example's segments.
        directory = tmp_path / f"j{rotate}-{len(payloads)}-{cursor}"
        journal = EventJournal(
            directory, run=uuid.uuid4().hex[:12],
            rotate_bytes=rotate, tail_events=5,
        )
        for index, size in enumerate(payloads):
            journal.emit("chunk.ingest", seq=index, pad="x" * size)
        total = len(payloads)
        resumed = journal.events_since(cursor)
        assert [r["id"] for r in resumed] == list(
            range(min(cursor, total) + 1, total + 1)
        )
        journal.close()
        records = [
            r
            for r in obs_events.read_journal(directory)
            if r["run"] == journal.run
        ]
        assert [r["id"] for r in records] == list(
            range(1, total + 1)
        )
        assert [r["seq"] for r in records] == list(range(total))


# -- canonical form and lineage ---------------------------------------------


def _synthetic_records():
    journal = EventJournal()
    run = journal.emit("run.start", mode="stream", workers=2)
    with obs_events.causal(run):
        chunk = journal.emit("chunk.ingest", seq=1, rows=10,
                             windows=[0])
        dispatch = journal.emit("exec.dispatch", window=0, rows=10,
                                pieces=2)
        journal.emit("exec.fold", parent=dispatch, window=0, pieces=2)
        journal.emit("archive.partition", slice=0, seq=0,
                     rows=10, path="part0-h0-0.flows")
        seal = journal.emit("window.seal", index=0, start=0.0,
                            end=300.0, flows=10, chunks=[chunk])
        with obs_events.causal(seal):
            verdict = journal.emit("detector.verdict", detector="net",
                                   window=0, alarms=1)
            with obs_events.causal(verdict):
                journal.emit("alarm.insert", alarm_id="a-1",
                             to_status="open", actor="net")
        journal.emit("alarm.ack", alarm_id="a-1", from_status="open",
                     to_status="acked", actor="op")
    journal.emit("run.end", parent=run, outcome="ok")
    return journal.read()


class TestCanonicalAndLineage:
    def test_canonical_strips_execution_accidents(self):
        lines = obs_events.canonical_lines(_synthetic_records())
        assert not any('"exec.' in line for line in lines)
        assert not any('"id"' in line for line in lines)
        assert not any('"ts"' in line for line in lines)
        assert not any('"workers"' in line for line in lines)
        seal = next(l for l in lines if "window.seal" in l)
        # chunk references are rewritten from event ids to stable seqs
        assert '"chunks":[1]' in seal

    def test_lineage_walks_the_full_chain(self):
        chain = obs_events.lineage(_synthetic_records(), "a-1")
        assert chain["anchor"]["kind"] == "alarm.insert"
        assert [t["kind"] for t in chain["transitions"]] == [
            "alarm.ack"
        ]
        assert chain["verdict"]["detector"] == "net"
        assert chain["window"]["index"] == 0
        assert [c["seq"] for c in chain["chunks"]] == [1]
        assert [p["path"] for p in chain["partitions"]] == [
            "part0-h0-0.flows"
        ]
        assert chain["run_start"]["kind"] == "run.start"

    def test_lineage_unknown_alarm_raises(self):
        with pytest.raises(ReproError, match="does not appear"):
            obs_events.lineage(_synthetic_records(), "missing")


# -- the SSE surface ---------------------------------------------------------


def _sse_connect(port, last_id=None, header=False):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    path = "/api/events/stream"
    headers = {}
    if last_id is not None:
        if header:
            headers["Last-Event-ID"] = str(last_id)
        else:
            path += f"?last_id={last_id}"
    conn.request("GET", path, headers=headers)
    return conn, conn.getresponse()


def _sse_read_events(response, count, timeout=5.0):
    """Parse ``count`` data events off a live SSE response."""
    deadline = time.monotonic() + timeout
    events = []
    current_id = None
    while len(events) < count:
        assert time.monotonic() < deadline, "SSE read timed out"
        line = response.fp.readline().decode("utf-8").rstrip("\n")
        if line.startswith("id: "):
            current_id = int(line[4:])
        elif line.startswith("data: "):
            record = json.loads(line[6:])
            assert record["id"] == current_id
            events.append(record)
    return events


@pytest.fixture
def sse_console():
    journal = EventJournal(tail_events=8)
    obs_events.install(journal)
    server = ConsoleServer(port=0, alarms=None).start()
    yield journal, server
    server.stop()
    journal.close()


class TestEventStream:
    def test_headers_and_live_push(self, sse_console):
        journal, server = sse_console
        journal.emit("run.start", mode="test")
        conn, response = _sse_connect(server.port)
        try:
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/event-stream"
            )
            assert response.getheader("Content-Length") is None
            (first,) = _sse_read_events(response, 1)
            assert first["kind"] == "run.start"
            journal.emit("window.seal", index=0)
            (pushed,) = _sse_read_events(response, 1)
            assert pushed == {
                "id": 2, "ts": pushed["ts"],
                "run": journal.run, "kind": "window.seal",
                "index": 0,
            }
        finally:
            conn.close()

    @pytest.mark.parametrize("header", [False, True])
    def test_resume_has_no_gaps_no_dups(self, sse_console, header):
        journal, server = sse_console
        for index in range(6):
            journal.emit("chunk.ingest", seq=index)
        conn, response = _sse_connect(
            server.port, last_id=2, header=header
        )
        try:
            resumed = _sse_read_events(response, 4)
            assert [r["id"] for r in resumed] == [3, 4, 5, 6]
        finally:
            conn.close()

    def test_stale_resume_replays_everything(self, sse_console):
        journal, server = sse_console
        # 12 events with an 8-deep tail: resume from 0 must fall back
        # past the tail (memory-only journal serves what it has).
        for index in range(12):
            journal.emit("chunk.ingest", seq=index)
        conn, response = _sse_connect(server.port, last_id=4)
        try:
            resumed = _sse_read_events(response, 8)
            assert [r["id"] for r in resumed] == list(range(5, 13))
        finally:
            conn.close()

    def test_client_disconnect_leaves_server_healthy(
        self, sse_console
    ):
        journal, server = sse_console
        journal.emit("run.start")
        conn, response = _sse_connect(server.port)
        _sse_read_events(response, 1)
        conn.close()  # hang up mid-stream
        # the handler thread unwinds; the server keeps answering
        journal.emit("window.seal", index=0)
        probe = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=5
        )
        probe.request("GET", "/status")
        assert probe.getresponse().status == 200
        probe.close()
        conn2, response2 = _sse_connect(server.port, last_id=1)
        try:
            (record,) = _sse_read_events(response2, 1)
            assert record["id"] == 2
        finally:
            conn2.close()

    def test_stream_404_without_journal(self, sse_console):
        journal, server = sse_console
        obs_events.disable()
        conn, response = _sse_connect(server.port)
        try:
            assert response.status == 404
        finally:
            conn.close()

    def test_stop_unblocks_idle_stream(self):
        journal = EventJournal()
        obs_events.install(journal)
        server = ConsoleServer(port=0, alarms=None).start()
        conn, response = _sse_connect(server.port)
        response.fp.readline()  # the banner comment
        server.stop()  # must not hang on the idle SSE handler
        conn.close()
        journal.close()


# -- session integration -----------------------------------------------------


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("events") / "trace.rpv5"
    (
        api.session()
        .scenario(bins=12, fps=6, seed=7, anomalies=["port-scan"])
        .synth(str(out))
        .run()
    )
    return str(out)


def _stream_run(trace_path, tmp_path, name, workers):
    events_dir = tmp_path / f"events-{name}"
    result = (
        api.session()
        .source("rpv5", path=trace_path)
        .detect("netreflex", train_bins=8)
        .stream(workers=workers)
        .alarmdb(str(tmp_path / f"alarms-{name}.db"))
        .archive(str(tmp_path / f"spool-{name}"))
        .events(str(events_dir))
        .run()
    )
    return result, events_dir


class TestSessionProvenance:
    def test_run_journals_the_lifecycle(self, trace_path, tmp_path):
        result, events_dir = _stream_run(
            trace_path, tmp_path, "life", workers=1
        )
        assert result.payload["run_id"]
        assert result.payload["events_path"] == str(events_dir)
        records = list(obs_events.read_journal(events_dir))
        kinds = {record["kind"] for record in records}
        assert {
            "run.start", "chunk.ingest", "window.seal",
            "detector.verdict", "alarm.insert",
            "archive.partition", "run.end",
        } <= kinds
        assert records[0]["kind"] == "run.start"
        assert records[-1]["kind"] == "run.end"
        assert records[-1]["outcome"] == "ok"
        # the journal uninstalls with the run
        assert obs_events.active() is None

    def test_sharded_alarm_lineage_reconstructs(
        self, trace_path, tmp_path
    ):
        result, events_dir = _stream_run(
            trace_path, tmp_path, "lineage", workers=2
        )
        assert result.alarms
        records = list(obs_events.read_journal(events_dir))
        chain = obs_events.lineage(
            records, result.alarms[0].alarm_id
        )
        assert chain["anchor"]["kind"] == "alarm.insert"
        assert chain["verdict"]["kind"] == "detector.verdict"
        assert chain["window"]["kind"] == "window.seal"
        assert chain["chunks"], "window must join its source chunks"
        assert chain["partitions"], "window slice must have partitions"
        assert chain["run_start"]["kind"] == "run.start"

    def test_canonical_journal_identical_across_workers(
        self, trace_path, tmp_path
    ):
        _, serial_dir = _stream_run(
            trace_path, tmp_path, "w1", workers=1
        )
        _, sharded_dir = _stream_run(
            trace_path, tmp_path, "w4", workers=4
        )
        serial = obs_events.canonical_lines(
            obs_events.read_journal(serial_dir)
        )
        sharded = obs_events.canonical_lines(
            obs_events.read_journal(sharded_dir)
        )
        assert serial == sharded
        assert len(serial) > 10

    def test_dying_run_dumps_the_flight_recorder(self, tmp_path):
        events_dir = tmp_path / "events-crash"
        builder = (
            api.session()
            .source("rpv5", path=str(tmp_path / "absent.rpv5"))
            .detect("netreflex", train_bins=8)
            .stream()
            .events(str(events_dir), flight_recorder=16)
        )
        # A missing trace is a spec error, raised inside the run.
        with pytest.raises(SpecError, match="source.path"):
            builder.run()
        dumps = list(events_dir.glob("flight-*.json"))
        assert len(dumps) == 1
        document = json.loads(dumps[0].read_text(encoding="utf-8"))
        assert document["events"][0]["kind"] == "run.start"
        assert document["reason"]
        records = list(obs_events.read_journal(events_dir))
        assert records[-1]["kind"] == "run.end"
        assert records[-1]["outcome"] != "ok"
        assert obs_events.active() is None

    def test_span_log_spec_resizes_trace_bound(
        self, trace_path, tmp_path
    ):
        try:
            (
                api.session()
                .source("rpv5", path=trace_path)
                .detect("netreflex", train_bins=8)
                .stream()
                .events(str(tmp_path / "events-span"), span_log=64)
                .run()
            )
            assert obs_trace.log_limit() == 64
        finally:
            obs_trace.configure(obs_trace.DEFAULT_LOG_LIMIT)

    def test_chrome_export_covers_the_shard_pool(
        self, trace_path, tmp_path
    ):
        obs_metrics.enable()
        (
            api.session()
            .source("rpv5", path=trace_path)
            .detect("netreflex", train_bins=8)
            .stream(workers=2, triage=True)
            .run()
        )
        document = obs_trace.chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events
        for event in events:
            assert {"name", "cat", "ph", "ts", "dur", "pid",
                    "tid", "args"} <= set(event)
            assert event["ph"] == "X"
        names = {event["name"] for event in events}
        assert "session.stream" in names
        # There is no shard pool left to cover: workers=2 runs in this
        # process, so the export has one pid and nested spans parented
        # within it.
        assert {event["pid"] for event in events} == {os.getpid()}
        assert any(e["args"].get("parent_id") for e in events)

    def test_status_payload_reports_run_identity(self):
        from repro.obs.serve import status_payload

        payload = status_payload()
        assert payload["run_id"] == obs_events.run_id()
        assert payload["uptime_seconds"] >= 0.0
