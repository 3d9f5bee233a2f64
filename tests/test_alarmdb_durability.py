"""Durability of the file-backed alarm DB and of a triage verdict.

A file-backed :class:`AlarmDatabase` runs sqlite's write-ahead log with
``synchronous = FULL``; ``ExtractionSystem.validate`` records
``extracted`` and the verdict as one transaction. These tests pin the
pragmas, the one-file state after ``close()``, the conversion of a
rollback-journal file, a reader in another process, and a real SIGKILL
between the two triage writes.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

import repro
from conftest import make_flow
from repro.detect.base import Alarm, MetadataItem
from repro.extraction.summarize import table_rows
from repro.flows.record import FlowFeature, TcpFlags
from repro.flows.trace import FlowTrace
from repro.system.alarmdb import AlarmDatabase, AlarmStatus
from repro.system.backend import FlowBackend
from repro.system.pipeline import ExtractionSystem

_SCANNER = "6.6.6.6"


def _scan_alarm() -> Alarm:
    return Alarm(
        alarm_id="scan-alarm",
        detector="test",
        start=900.0,
        end=1200.0,
        score=5.0,
        label="port scan",
        metadata=[
            MetadataItem(FlowFeature.SRC_IP, make_flow(src=_SCANNER).src_ip)
        ],
    )


def _scan_system(db_path: str | Path) -> ExtractionSystem:
    """Four bins of background and a port scan in bin 3, triaged
    against the alarm DB at ``db_path``."""
    flows = []
    for b in range(4):
        for i in range(30):
            start = b * 300.0 + i * 5
            flows.append(
                make_flow(sport=3000 + i, dport=443, start=start,
                          end=start + 1, packets=4)
            )
    flows += [
        make_flow(src=_SCANNER, dst="10.0.0.9", sport=55548, dport=p,
                  packets=1, flags=TcpFlags.SYN, start=910.0, end=910.1)
        for p in range(1, 301)
    ]
    trace = FlowTrace(flows, bin_seconds=300.0, origin=0.0)
    return ExtractionSystem(
        FlowBackend.from_trace(trace), alarmdb=AlarmDatabase(db_path)
    )


def _seeded_db(path: Path) -> Path:
    with AlarmDatabase(path) as db:
        db.insert(_scan_alarm())
    return path


def _audit(db: AlarmDatabase, alarm_id: str) -> list[tuple]:
    """The audit trail with timestamps masked."""
    return [
        (e.action, e.from_status, e.to_status, e.actor, e.note)
        for e in db.audit_trail(alarm_id)
    ]


def _sidecars(path: Path) -> list[Path]:
    return [
        Path(f"{path}{suffix}")
        for suffix in ("-wal", "-shm", "-journal")
        if Path(f"{path}{suffix}").exists()
    ]


class TestWalJournal:
    def test_file_backed_connection_runs_wal_with_full_sync(
        self, tmp_path
    ):
        with AlarmDatabase(tmp_path / "alarms.db") as db:
            assert db._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone() == ("wal",)
            assert db._conn.execute(
                "PRAGMA synchronous"
            ).fetchone() == (2,)

    def test_close_leaves_one_self_contained_file(self, tmp_path):
        path = tmp_path / "alarms.db"
        with AlarmDatabase(path) as db:
            db.insert(_scan_alarm())
            db.set_status("scan-alarm", AlarmStatus.VALIDATED, "ok")
            assert Path(f"{path}-wal").exists()
        assert _sidecars(path) == []
        with closing(sqlite3.connect(path)) as conn:
            assert conn.execute(
                "PRAGMA integrity_check"
            ).fetchone() == ("ok",)
            assert conn.execute(
                "SELECT status, verdict FROM alarms"
            ).fetchall() == [("validated", "ok")]

    def test_rollback_journal_file_converts_intact(self, tmp_path):
        path = tmp_path / "alarms.db"
        with AlarmDatabase(path) as db:
            db.insert_many([
                _scan_alarm(),
                Alarm("other", "test", 0.0, 300.0, 1.0, label="x"),
            ])
            db.set_status("scan-alarm", AlarmStatus.EXTRACTED)
            db.transition("other", "assign", actor="op", assignee="bob")
            before = db.rows()
            trails = {a: _audit(db, a) for a in ("scan-alarm", "other")}
        # What an older build left behind: the default rollback journal.
        with closing(sqlite3.connect(path)) as conn:
            assert conn.execute(
                "PRAGMA journal_mode = DELETE"
            ).fetchone() == ("delete",)
        with AlarmDatabase(path) as db:
            assert db._conn.execute(
                "PRAGMA journal_mode"
            ).fetchone() == ("wal",)
            assert db.rows() == before
            assert {a: _audit(db, a) for a in trails} == trails
        assert _sidecars(path) == []

    def test_other_process_reads_a_committed_verdict_while_open(
        self, tmp_path
    ):
        path = tmp_path / "alarms.db"
        reader = (
            "import sys\n"
            "from repro.system.alarmdb import AlarmDatabase\n"
            "with AlarmDatabase(sys.argv[1]) as db:\n"
            "    print(*db.status_of('scan-alarm'), sep='|')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             env.get("PYTHONPATH", "")]
        )
        with AlarmDatabase(path) as db:
            db.insert(_scan_alarm())
            db.set_status("scan-alarm", AlarmStatus.DISMISSED, "no")
            out = subprocess.run(
                [sys.executable, "-c", reader, str(path)],
                env=env, capture_output=True, text=True, timeout=60,
                check=True,
            ).stdout
            assert out.strip() == "dismissed|no"
            # The writer keeps writing after the reader has gone.
            db.set_status("scan-alarm", AlarmStatus.VALIDATED, "yes")
        with AlarmDatabase(path) as db:
            assert db.status_of("scan-alarm") == ("validated", "yes")


class TestTransaction:
    def test_nested_writes_commit_once(self, tmp_path):
        with AlarmDatabase(tmp_path / "alarms.db") as db:
            db.insert(_scan_alarm())
            statements: list[str] = []
            db._conn.set_trace_callback(statements.append)
            with db.transaction():
                db.set_status("scan-alarm", AlarmStatus.EXTRACTED)
                with db.transaction():
                    db.set_status("scan-alarm", AlarmStatus.VALIDATED)
            db._conn.set_trace_callback(None)
            commits = [
                s for s in statements if s.strip().upper() == "COMMIT"
            ]
            assert len(commits) == 1
            assert db.status_of("scan-alarm")[0] == AlarmStatus.VALIDATED

    def test_an_exception_rolls_the_whole_block_back(self, tmp_path):
        with AlarmDatabase(tmp_path / "alarms.db") as db:
            db.insert(_scan_alarm())
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.set_status("scan-alarm", AlarmStatus.EXTRACTED)
                    with db.transaction():
                        db.set_status(
                            "scan-alarm", AlarmStatus.VALIDATED, "v"
                        )
                    raise RuntimeError("crash before the commit")
            assert db.status_of("scan-alarm") == (AlarmStatus.OPEN, "")
            assert [e.action for e in db.audit_trail("scan-alarm")] \
                == ["insert"]
            # The connection is usable again afterwards.
            db.set_status("scan-alarm", AlarmStatus.DISMISSED, "d")
            assert db.status_of("scan-alarm") == ("dismissed", "d")

    def test_validate_records_extracted_and_verdict_in_one_commit(
        self, tmp_path
    ):
        system = _scan_system(_seeded_db(tmp_path / "alarms.db"))
        db = system.alarmdb
        statements: list[str] = []
        db._conn.set_trace_callback(statements.append)
        result = system.validate("scan-alarm")
        db._conn.set_trace_callback(None)
        assert result.verdict.useful
        assert [s for s in statements if s.strip().upper() == "COMMIT"] \
            == ["COMMIT"]
        assert [
            (e.action, e.from_status, e.to_status)
            for e in db.audit_trail("scan-alarm")
        ] == [
            ("insert", "", "open"),
            ("set_status", "open", "extracted"),
            ("set_status", "extracted", "validated"),
        ]
        db.close()


def _validate_until_killed(db_path: str, extracted) -> None:
    """Child body: triage the scan alarm, but stop dead between the
    ``extracted`` write and the verdict write until killed."""
    record = AlarmDatabase.set_status

    def set_status(self, alarm_id, status, verdict=""):
        record(self, alarm_id, status, verdict)
        if status == AlarmStatus.EXTRACTED:
            extracted.set()
            time.sleep(120)

    AlarmDatabase.set_status = set_status
    _scan_system(db_path).validate("scan-alarm")


class TestKilledBetweenTriageWrites:
    def test_sigkill_leaves_the_alarm_open_and_retriage_matches(
        self, tmp_path
    ):
        killed_db = _seeded_db(tmp_path / "killed.db")
        context = multiprocessing.get_context("spawn")
        extracted = context.Event()
        child = context.Process(
            target=_validate_until_killed,
            args=(str(killed_db), extracted),
        )
        child.start()
        try:
            assert extracted.wait(timeout=120), "child never extracted"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join(timeout=30)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL

        with AlarmDatabase(killed_db) as db:
            assert db.status_of("scan-alarm") == (AlarmStatus.OPEN, "")
            assert [e.action for e in db.audit_trail("scan-alarm")] \
                == ["insert"]

        resumed = _scan_system(killed_db)
        uninterrupted = _scan_system(_seeded_db(tmp_path / "clean.db"))
        got = resumed.process_open_alarms()
        want = uninterrupted.process_open_alarms()
        assert [r.alarm.alarm_id for r in got] == ["scan-alarm"]
        assert [r.alarm.alarm_id for r in want] == ["scan-alarm"]
        assert got[0].verdict.summary() == want[0].verdict.summary()
        assert table_rows(got[0].report) == table_rows(want[0].report)
        assert got[0].report.describe() == want[0].report.describe()
        assert resumed.alarmdb.status_of("scan-alarm") \
            == uninterrupted.alarmdb.status_of("scan-alarm")
        assert _audit(resumed.alarmdb, "scan-alarm") \
            == _audit(uninterrupted.alarmdb, "scan-alarm")
        resumed.alarmdb.close()
        uninterrupted.alarmdb.close()
