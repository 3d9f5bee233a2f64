"""The operational plane: alarm lifecycle, audit trail, console API.

* the legal-transition matrix is enforced exactly: every legal move
  succeeds, every illegal move raises and changes nothing;
* every status change journals exactly one audit row in the same
  sqlite transaction (a failed journal rolls the status back);
* ``auto_close`` decays stale open/acked alarms with verdict
  ``decayed`` — and the stream engine drives it from window seals;
* ``/api/alarms`` pages are the exact ``AlarmDatabase`` ordering
  (Hypothesis round-trip), lifecycle POSTs serialise correctly under
  concurrency (one 200, the rest 409), and the HTTP plane answers
  HEAD / 404 / 405 / Cache-Control like a well-behaved server;
* ``/metrics`` and ``/status`` bodies are byte-identical whether
  served by the bare ``MetricsServer`` or the console.
"""

from __future__ import annotations

import http.client
import json
import sqlite3
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.archive import ArchiveReader, ArchiveWriter
from repro.detect.base import Alarm, MetadataItem
from repro.errors import AlarmDatabaseError, AlarmTransitionError
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.console import ConsoleServer
from repro.obs.serve import MetricsServer
from repro.system.alarmdb import (
    LEGAL_TRANSITIONS,
    LIFECYCLE_ACTIONS,
    AlarmDatabase,
    AlarmStatus,
)


@pytest.fixture(autouse=True)
def clean_obs():
    previous = obs_metrics.install(None)
    obs_trace.clear()
    yield
    obs_metrics.install(previous)


def _alarm(alarm_id="a1", detector="net", start=0.0, end=300.0,
           score=2.0, label="scan"):
    return Alarm(alarm_id, detector, start, end, score, label=label,
                 metadata=[MetadataItem(FlowFeature.DST_PORT, 22, 0.9)])


@pytest.fixture
def db():
    database = AlarmDatabase()
    yield database
    database.close()


# -- lifecycle ---------------------------------------------------------------


#: Actions that re-enter a state and so need extra arguments.
_ACTION_KWARGS = {"assign": {"assignee": "alice"}}


def _action_for(to_status: str) -> str:
    return {
        status: action for action, status in LIFECYCLE_ACTIONS.items()
    }[to_status]


class TestLifecycle:
    @pytest.mark.parametrize(
        "from_status,to_status",
        [
            (from_status, to_status)
            for from_status, allowed in LEGAL_TRANSITIONS.items()
            for to_status in allowed
            if to_status in LIFECYCLE_ACTIONS.values()
        ],
    )
    def test_every_legal_move_succeeds(self, db, from_status,
                                       to_status):
        db.insert(_alarm())
        db.set_status("a1", from_status)
        action = _action_for(to_status)
        result = db.transition(
            "a1", action, actor="op",
            **_ACTION_KWARGS.get(action, {}),
        )
        assert result == to_status
        assert db.status_of("a1")[0] == to_status
        assert db.audit_trail("a1")[-1].action == action

    @pytest.mark.parametrize(
        "from_status,to_status",
        [
            (from_status, to_status)
            for from_status in AlarmStatus.ALL
            for to_status in LIFECYCLE_ACTIONS.values()
            if to_status not in LEGAL_TRANSITIONS[from_status]
        ],
    )
    def test_every_illegal_move_raises_and_changes_nothing(
        self, db, from_status, to_status
    ):
        db.insert(_alarm())
        db.set_status("a1", from_status, verdict="v")
        trail_before = len(db.audit_trail("a1"))
        action = _action_for(to_status)
        with pytest.raises(AlarmTransitionError):
            db.transition("a1", action,
                          **_ACTION_KWARGS.get(action, {}))
        assert db.status_of("a1") == (from_status, "v")
        assert len(db.audit_trail("a1")) == trail_before

    def test_unknown_action_and_alarm(self, db):
        db.insert(_alarm())
        with pytest.raises(AlarmDatabaseError,
                           match="unknown lifecycle action"):
            db.transition("a1", "frobnicate")
        with pytest.raises(AlarmDatabaseError, match="unknown alarm"):
            db.transition("ghost", "ack")

    def test_assign_requires_assignee_and_records_it(self, db):
        db.insert(_alarm())
        with pytest.raises(AlarmDatabaseError, match="assignee"):
            db.transition("a1", "assign")
        db.transition("a1", "assign", assignee="alice")
        rows, _ = db.rows(alarm_id="a1")
        assert rows[0]["assignee"] == "alice"
        # Reassignment is legal from assigned.
        db.transition("a1", "assign", assignee="bob")
        assert db.rows(alarm_id="a1")[0][0]["assignee"] == "bob"

    def test_resolve_sets_verdict(self, db):
        db.insert(_alarm())
        db.transition("a1", "resolve", verdict="true positive")
        assert db.status_of("a1") == (AlarmStatus.RESOLVED,
                                      "true positive")

    def test_closed_states_are_terminal(self, db):
        for alarm_id, closer in (("a1", "resolve"), ("a2", "dismiss")):
            db.insert(_alarm(alarm_id))
            db.transition(alarm_id, closer)
            for action in LIFECYCLE_ACTIONS:
                with pytest.raises(AlarmTransitionError):
                    db.transition(
                        alarm_id, action,
                        **_ACTION_KWARGS.get(action, {}),
                    )

    def test_dedup_merge_journals(self, db):
        db.insert(_alarm("a1", end=300.0))
        db.insert(_alarm("a2", start=250.0, end=550.0),
                  dedup_window=600.0)
        trail = db.audit_trail("a1")
        assert [entry.action for entry in trail] == ["insert", "merge"]
        assert "a2" in trail[-1].note

    def test_merge_skips_resolved_alarms(self, db):
        db.insert(_alarm("a1"))
        db.transition("a1", "resolve")
        stored = db.insert(_alarm("a2", start=10.0, end=310.0),
                           dedup_window=600.0)
        # A closed alarm is not a dedup target: the re-fire opens new.
        assert stored == "a2"
        assert db.status_of("a2")[0] == AlarmStatus.OPEN


class TestAuditAtomicity:
    def test_status_and_audit_share_one_transaction(self, db):
        db.insert(_alarm())
        statements: list[str] = []
        db._conn.set_trace_callback(
            lambda stmt: statements.append(stmt.strip())
        )
        db.transition("a1", "ack", actor="op")
        db._conn.set_trace_callback(None)
        begin = next(
            i for i, s in enumerate(statements)
            if s.upper().startswith("BEGIN")
        )
        commit = next(
            i for i, s in enumerate(statements)
            if s.upper().startswith("COMMIT")
        )
        inside = "\n".join(statements[begin:commit])
        assert "UPDATE alarms" in inside
        assert "INSERT INTO alarm_audit" in inside

    def test_failed_journal_rolls_back_the_status(self, db):
        db.insert(_alarm())
        db._conn.execute(
            "ALTER TABLE alarm_audit RENAME TO alarm_audit_gone"
        )
        with pytest.raises(sqlite3.OperationalError):
            db.transition("a1", "ack")
        db._conn.execute(
            "ALTER TABLE alarm_audit_gone RENAME TO alarm_audit"
        )
        assert db.status_of("a1")[0] == AlarmStatus.OPEN
        assert [e.action for e in db.audit_trail("a1")] == ["insert"]

    def test_audit_survives_alarm_delete(self, db):
        db.insert(_alarm())
        db.transition("a1", "dismiss", actor="op")
        with db._conn:
            db._conn.execute("DELETE FROM alarms WHERE alarm_id='a1'")
        assert [e.action for e in db.audit_trail("a1")] == [
            "insert", "dismiss",
        ]


class TestAutoClose:
    def test_auto_close_resolves_decayed(self, db):
        db.insert(_alarm("stale", end=100.0))
        db.insert(_alarm("acked-stale", end=150.0))
        db.transition("acked-stale", "ack")
        db.insert(_alarm("fresh", start=800.0, end=900.0))
        db.insert(_alarm("assigned", end=100.0))
        db.transition("assigned", "assign", assignee="alice")
        closed = db.auto_close(before=500.0)
        assert closed == ["stale", "acked-stale"]
        for alarm_id in closed:
            assert db.status_of(alarm_id) == (AlarmStatus.RESOLVED,
                                              "decayed")
            trail = db.audit_trail(alarm_id)
            assert trail[-1].action == "auto_close"
            assert trail[-1].actor == "auto"
        # Assigned alarms are in a human's hands — never decayed.
        assert db.status_of("assigned")[0] == AlarmStatus.ASSIGNED
        assert db.status_of("fresh")[0] == AlarmStatus.OPEN

    def test_stream_engine_drives_auto_close(self, db):
        import numpy as np

        from repro.flows.table import FlowTable
        from repro.stream.runtime import StreamEngine

        starts = np.asarray([50.0, 150.0, 250.0, 350.0, 450.0])
        n = len(starts)
        table = FlowTable.from_columns(
            src_ip=np.full(n, 0x0A000001, dtype=np.uint32),
            dst_ip=np.full(n, 0x0A000002, dtype=np.uint32),
            src_port=np.full(n, 40000, dtype=np.uint16),
            dst_port=np.full(n, 80, dtype=np.uint16),
            proto=np.full(n, 6, dtype=np.uint8),
            packets=np.full(n, 3, dtype=np.int64),
            bytes=np.full(n, 180, dtype=np.int64),
            start=starts,
            end=starts + 1.0,
        )
        db.insert(_alarm("old", detector="x", start=0.0, end=100.0))
        engine = StreamEngine(
            [], window_seconds=100.0, origin=0.0, alarmdb=db,
            auto_close_windows=2,
        )
        results = engine.run([table])
        auto_closed = [i for r in results for i in r.auto_closed]
        assert auto_closed == ["old"]
        assert engine.stats.auto_closed == 1
        assert db.status_of("old") == (AlarmStatus.RESOLVED, "decayed")

    def test_engine_rejects_bad_horizon(self):
        from repro.stream.runtime import StreamEngine

        with pytest.raises(ValueError):
            StreamEngine([], auto_close_windows=0)


# -- console HTTP API --------------------------------------------------------


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


@pytest.fixture
def console(db):
    server = ConsoleServer(
        port=0,
        alarms=db,
        windows=lambda: [{"index": 0, "start": 0.0, "end": 300.0,
                          "flows": 10}],
        status=lambda: {"mode": "test"},
    ).start()
    yield server
    server.stop()


class TestConsoleApi:
    def test_alarm_list_filters_and_paginates(self, db, console):
        for i in range(5):
            db.insert(_alarm(f"a{i}", start=i * 100.0,
                             end=i * 100.0 + 50.0,
                             detector="net" if i % 2 else "pca"))
        db.transition("a0", "ack")
        status, _, body = _request(console.port, "GET", "/api/alarms")
        payload = json.loads(body)
        assert status == 200
        assert payload["total"] == 5
        assert payload["counts"]["open"] == 4
        assert payload["counts"]["acked"] == 1
        status, _, body = _request(
            console.port, "GET",
            "/api/alarms?status=open&detector=net&limit=1&offset=1",
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["total"] == 2
        assert [a["alarm_id"] for a in payload["alarms"]] == ["a3"]

    def test_alarm_detail_includes_audit(self, db, console):
        db.insert(_alarm())
        db.transition("a1", "ack", actor="op", note="looking")
        status, _, body = _request(console.port, "GET",
                                   "/api/alarms/a1")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "acked"
        assert payload["metadata"][0]["feature"] == "dstPort"
        assert [e["action"] for e in payload["audit"]] == [
            "insert", "ack",
        ]
        assert payload["audit"][1]["note"] == "looking"

    def test_post_changes_state_and_journals_once(self, db, console):
        db.insert(_alarm())
        status, _, body = _request(
            console.port, "POST", "/api/alarms/a1/ack",
            body=json.dumps({"actor": "op", "note": "on it"}),
        )
        assert status == 200
        assert json.loads(body)["status"] == "acked"
        assert db.status_of("a1")[0] == AlarmStatus.ACKED
        trail = db.audit_trail("a1")
        assert [e.action for e in trail] == ["insert", "ack"]
        assert trail[-1].actor == "op"
        # The next GET poll sees the new state.
        _, _, body = _request(console.port, "GET", "/api/alarms")
        assert json.loads(body)["alarms"][0]["status"] == "acked"

    def test_illegal_move_is_409(self, db, console):
        db.insert(_alarm())
        db.transition("a1", "resolve")
        status, _, body = _request(console.port, "POST",
                                   "/api/alarms/a1/ack")
        assert status == 409
        assert "illegal transition" in json.loads(body)["error"]

    def test_concurrent_acks_serialise(self, db, console):
        db.insert(_alarm())
        outcomes: list[int] = []
        barrier = threading.Barrier(8)

        def ack() -> None:
            barrier.wait()
            status, _, _ = _request(console.port, "POST",
                                    "/api/alarms/a1/ack")
            outcomes.append(status)

        threads = [threading.Thread(target=ack) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(outcomes) == [200] + [409] * 7
        assert [e.action for e in db.audit_trail("a1")] == [
            "insert", "ack",
        ]

    def test_error_paths(self, db, console):
        status, _, _ = _request(console.port, "GET",
                                "/api/alarms/ghost")
        assert status == 404
        status, _, body = _request(console.port, "POST",
                                   "/api/alarms/ghost/ack")
        assert status == 404
        db.insert(_alarm())
        status, _, _ = _request(console.port, "POST",
                                "/api/alarms/a1/frobnicate")
        assert status == 400
        status, _, _ = _request(console.port, "POST",
                                "/api/alarms/a1/ack", body="{not json")
        assert status == 400
        status, _, _ = _request(console.port, "GET",
                                "/api/alarms?limit=banana")
        assert status == 400
        status, _, _ = _request(console.port, "GET", "/nope")
        assert status == 404

    def test_method_discipline(self, db, console):
        db.insert(_alarm())
        status, _, _ = _request(console.port, "POST", "/metrics")
        assert status == 405
        status, headers, _ = _request(console.port, "GET",
                                      "/api/alarms/a1/ack")
        assert status == 405
        assert headers.get("Allow") == "POST"
        # The GET probe for the 405 must not have acted.
        assert db.status_of("a1")[0] == AlarmStatus.OPEN

    def test_head_and_cache_control(self, console):
        for path in ("/metrics", "/status"):
            status, headers, body = _request(console.port, "HEAD", path)
            assert status == 200
            assert body == b""
            assert headers["Cache-Control"] == "no-store"
            assert int(headers["Content-Length"]) >= 0

    def test_windows_endpoint(self, console):
        status, _, body = _request(console.port, "GET", "/api/windows")
        payload = json.loads(body)
        assert status == 200
        assert payload["count"] == 1
        assert payload["windows"][0]["flows"] == 10

    def test_archive_absent_is_404(self, console):
        status, _, _ = _request(console.port, "GET",
                                "/api/archive/query")
        assert status == 404

    def test_archive_query_refuses_an_inverted_window(self, tmp_path):
        rows = FlowTable.from_columns(
            src_ip=[1, 2], dst_ip=[3, 4], src_port=[5, 6],
            dst_port=[80, 443], proto=[6, 6], start=[1.0, 2.0],
            end=[1.0, 2.0],
        )
        with ArchiveWriter(tmp_path / "a", slice_seconds=60.0) as writer:
            writer.ingest_table(rows)
        reader = ArchiveReader(tmp_path / "a")
        server = ConsoleServer(port=0, archive=lambda: reader).start()
        try:
            for query in ("", "&top=dstPort"):
                status, _, body = _request(
                    server.port, "GET",
                    f"/api/archive/query?start=20&end=10{query}",
                )
                assert status == 400
                assert b"inverted interval" in body
        finally:
            server.stop()

    def test_dashboard_served_and_optional(self, db, console):
        for path in ("/", "/dashboard"):
            status, headers, body = _request(console.port, "GET", path)
            assert status == 200
            assert headers["Content-Type"].startswith("text/html")
            assert b"repro console" in body
            assert b"/api/alarms" in body
        bare = ConsoleServer(port=0, alarms=db,
                             dashboard=False).start()
        try:
            status, _, _ = _request(bare.port, "GET", "/")
            assert status == 404
        finally:
            bare.stop()

    def test_metrics_and_status_bytes_match_bare_server(self, db):
        """The console serves PR 7's exact /metrics and /status bodies."""
        obs_metrics.enable()
        status_fn = lambda: {"mode": "compat"}  # noqa: E731
        bare = MetricsServer(port=0, status=status_fn).start()
        rich = ConsoleServer(port=0, status=status_fn,
                             alarms=db).start()
        try:
            _, _, expected = _request(bare.port, "GET", "/metrics")
            _, _, actual = _request(rich.port, "GET", "/metrics")
            assert actual == expected
            # /status carries uptime_seconds, which ticks between the
            # two requests; everything else must match exactly.
            _, _, expected = _request(bare.port, "GET", "/status")
            _, _, actual = _request(rich.port, "GET", "/status")
            expected_doc = json.loads(expected)
            actual_doc = json.loads(actual)
            assert expected_doc.pop("uptime_seconds") >= 0
            assert actual_doc.pop("uptime_seconds") >= 0
            assert actual_doc == expected_doc
        finally:
            bare.stop()
            rich.stop()


class TestOrderingRoundTrip:
    @settings(
        max_examples=15,
        deadline=None,
        # One server is reused across examples on purpose: each
        # example swaps in its own fresh AlarmDatabase.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        alarms=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=999),
                st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=0, max_size=20,
            unique_by=lambda pair: pair[0],
        ),
        limit=st.integers(min_value=1, max_value=25),
    )
    def test_api_pages_are_list_alarms_order(self, console, alarms,
                                             limit):
        """/api/alarms slices the exact AlarmDatabase ordering."""
        db = AlarmDatabase()
        for suffix, start in alarms:
            db.insert(_alarm(f"h{suffix}", start=start,
                             end=start + 60.0))
        console._alarms = db
        try:
            expected = [a.alarm_id for a in db.list_alarms()]
            collected: list[str] = []
            offset = 0
            while True:
                _, _, body = _request(
                    console.port, "GET",
                    f"/api/alarms?limit={limit}&offset={offset}",
                )
                payload = json.loads(body)
                assert payload["total"] == len(expected)
                page = [a["alarm_id"] for a in payload["alarms"]]
                collected.extend(page)
                offset += limit
                if len(page) < limit:
                    break
            assert collected == expected
        finally:
            db.close()


# -- spec plane --------------------------------------------------------------


class TestServeSpecPlane:
    def test_serve_console_builder_wires_serve_port(self, tmp_path):
        out = tmp_path / "t.rpv5"
        api.session().scenario(
            bins=12, fps=6, seed=7, anomalies=["port-scan"]
        ).synth(str(out)).run()
        ports: list[int] = []
        sess = (
            api.session()
            .source("rpv5", path=str(out))
            .detect("netreflex", train_bins=8)
            .stream()
            .serve(0, console=True)
            .build()
        )
        assert sess.spec.sink.serve_port == 0
        assert sess.spec.sink.metrics_port is None
        sess.on_serve = ports.append
        result = sess.run()
        assert result.payload["serve_port"] == ports[0]
        assert result.payload["metrics_port"] == ports[0]

    def test_spec_validates_ports_and_horizon(self):
        from repro.api.specs import ExecutionSpec, SinkSpec
        from repro.errors import SpecError

        with pytest.raises(SpecError, match="serve_port"):
            SinkSpec(serve_port=70000)
        with pytest.raises(SpecError, match="auto_close_windows"):
            ExecutionSpec(auto_close_windows=0)
