"""The alarm database and its triage lifecycle.

Figure 1's integration point: "our system reads from a database
information about an alarm (e.g., the time interval and the affected
traffic features) and thus can be integrated with any anomaly detection
system that provides these data."

:class:`AlarmDatabase` is a small sqlite3-backed store (file or
in-memory) holding alarms and their meta-data hints, plus the operator's
triage state, so the console can drive the same workflow the GEANT NOC
used. Since the operational plane landed it is a *lifecycle*, not just
a status column:

* the automated triage machine moves alarms ``open → extracted →
  validated``/``dismissed`` (:meth:`set_status`, as before);
* operators move them ``open → acked → assigned → escalated →
  resolved``/``dismissed`` through :meth:`transition`, which validates
  the move against :data:`LEGAL_TRANSITIONS`;
* every status change — automated, operator, re-fire dedup merge, or
  :meth:`auto_close` decay — appends one row to the append-only
  ``alarm_audit`` table **in the same transaction** as the change, so
  the trail can never disagree with the state.

The database is safe to share between the stream engine and the
console's HTTP handler threads: one connection, one process-wide lock.

A file-backed database runs sqlite's write-ahead log with
``synchronous = FULL``: a commit is one WAL append and one fsync, and
it is durable when it returns. Each public write is one transaction;
:meth:`AlarmDatabase.transaction` groups several into one commit (a
triage verdict records ``extracted`` and the verdict together). While
a connection is open, the ``-wal`` and ``-shm`` files beside the
database are part of it; the last connection to close folds them back
in and removes them.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.detect.base import Alarm, MetadataItem
from repro.errors import AlarmDatabaseError, AlarmTransitionError
from repro.flows.record import FlowFeature, format_feature_value
from repro.obs import events as obs_events

__all__ = [
    "AlarmStatus",
    "AlarmDatabase",
    "AuditEntry",
    "LEGAL_TRANSITIONS",
    "LIFECYCLE_ACTIONS",
]


class AlarmStatus:
    """Triage states an alarm moves through."""

    OPEN = "open"
    ACKED = "acked"
    ASSIGNED = "assigned"
    ESCALATED = "escalated"
    EXTRACTED = "extracted"
    VALIDATED = "validated"
    RESOLVED = "resolved"
    DISMISSED = "dismissed"

    ALL = (OPEN, ACKED, ASSIGNED, ESCALATED, EXTRACTED, VALIDATED,
           RESOLVED, DISMISSED)
    #: Terminal states: nothing transitions out of them.
    CLOSED = (RESOLVED, DISMISSED)


#: from-status -> statuses an alarm may legally move to. ``extracted``
#: and ``validated`` belong to the automated triage machine; the rest
#: is the operator lifecycle. ``assigned -> assigned`` is a re-assign.
LEGAL_TRANSITIONS: dict[str, tuple[str, ...]] = {
    AlarmStatus.OPEN: (
        AlarmStatus.ACKED, AlarmStatus.ASSIGNED, AlarmStatus.ESCALATED,
        AlarmStatus.EXTRACTED, AlarmStatus.VALIDATED,
        AlarmStatus.RESOLVED, AlarmStatus.DISMISSED,
    ),
    AlarmStatus.ACKED: (
        AlarmStatus.ASSIGNED, AlarmStatus.ESCALATED,
        AlarmStatus.RESOLVED, AlarmStatus.DISMISSED,
    ),
    AlarmStatus.ASSIGNED: (
        AlarmStatus.ASSIGNED, AlarmStatus.ESCALATED,
        AlarmStatus.RESOLVED, AlarmStatus.DISMISSED,
    ),
    AlarmStatus.ESCALATED: (
        AlarmStatus.ASSIGNED, AlarmStatus.RESOLVED,
        AlarmStatus.DISMISSED,
    ),
    AlarmStatus.EXTRACTED: (
        AlarmStatus.VALIDATED, AlarmStatus.RESOLVED,
        AlarmStatus.DISMISSED,
    ),
    AlarmStatus.VALIDATED: (
        AlarmStatus.ACKED, AlarmStatus.ASSIGNED, AlarmStatus.ESCALATED,
        AlarmStatus.RESOLVED, AlarmStatus.DISMISSED,
    ),
    AlarmStatus.RESOLVED: (),
    AlarmStatus.DISMISSED: (),
}

#: Operator action name -> target status (the console's POST verbs and
#: the ``repro alarms`` subcommands).
LIFECYCLE_ACTIONS: dict[str, str] = {
    "ack": AlarmStatus.ACKED,
    "assign": AlarmStatus.ASSIGNED,
    "escalate": AlarmStatus.ESCALATED,
    "resolve": AlarmStatus.RESOLVED,
    "dismiss": AlarmStatus.DISMISSED,
}


_SCHEMA = """
CREATE TABLE IF NOT EXISTS alarms (
    alarm_id   TEXT PRIMARY KEY,
    detector   TEXT NOT NULL,
    start      REAL NOT NULL,
    end        REAL NOT NULL,
    score      REAL NOT NULL,
    label      TEXT NOT NULL DEFAULT '',
    router     INTEGER,
    status     TEXT NOT NULL DEFAULT 'open',
    verdict    TEXT NOT NULL DEFAULT '',
    assignee   TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS alarm_metadata (
    alarm_id   TEXT NOT NULL REFERENCES alarms(alarm_id) ON DELETE CASCADE,
    feature    TEXT NOT NULL,
    value      INTEGER NOT NULL,
    weight     REAL NOT NULL DEFAULT 1.0
);
CREATE TABLE IF NOT EXISTS alarm_audit (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    alarm_id    TEXT NOT NULL,
    ts          REAL NOT NULL,
    actor       TEXT NOT NULL DEFAULT '',
    action      TEXT NOT NULL,
    from_status TEXT NOT NULL DEFAULT '',
    to_status   TEXT NOT NULL DEFAULT '',
    note        TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_metadata_alarm
    ON alarm_metadata(alarm_id);
CREATE INDEX IF NOT EXISTS idx_alarms_interval
    ON alarms(start, end);
CREATE INDEX IF NOT EXISTS idx_alarms_status
    ON alarms(status);
CREATE INDEX IF NOT EXISTS idx_audit_alarm
    ON alarm_audit(alarm_id);
"""


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One append-only audit row: who moved what, when, from→to."""

    seq: int
    alarm_id: str
    ts: float
    actor: str
    action: str
    from_status: str
    to_status: str
    note: str

    def as_dict(self) -> dict:
        """JSON-ready form (the console's wire format)."""
        return {
            "seq": self.seq,
            "alarm_id": self.alarm_id,
            "ts": self.ts,
            "actor": self.actor,
            "action": self.action,
            "from_status": self.from_status,
            "to_status": self.to_status,
            "note": self.note,
        }


class AlarmDatabase:
    """sqlite-backed storage of alarms, their lifecycle and audit trail."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        # check_same_thread=False + the process-wide lock below make
        # one database shareable between the stream engine and the
        # console's HTTP handler threads (an in-memory DB *must* share
        # the connection — a second connect() opens an empty one).
        self._conn = sqlite3.connect(str(path), check_same_thread=False)
        self._lock = threading.RLock()
        # Nesting depth of :meth:`transaction` (guarded by ``_lock``).
        self._depth = 0
        self._conn.execute("PRAGMA foreign_keys = ON")
        # WAL for a file (an in-memory database answers ``memory`` and
        # keeps it). FULL, not NORMAL: NORMAL may lose the last commits
        # on power loss, and a commit must be durable when it returns.
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = FULL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Bring a pre-lifecycle database file up to this schema."""
        with self.transaction():
            columns = {
                row[1] for row in self._conn.execute(
                    "PRAGMA table_info(alarms)"
                )
            }
            if "assignee" not in columns:
                self._conn.execute(
                    "ALTER TABLE alarms ADD COLUMN assignee TEXT "
                    "NOT NULL DEFAULT ''"
                )

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """One sqlite transaction around the block: one commit.

        Re-entrant: every write inside the block — and any nested
        :meth:`transaction` — joins it, and commits when the outermost
        block exits. An exception leaving the outermost block rolls
        the whole block back. Holds the database lock throughout.
        """
        with self._lock:
            self._depth += 1
            try:
                if self._depth > 1:
                    yield
                else:
                    with self._conn:
                        yield
            finally:
                self._depth -= 1

    def __enter__(self) -> "AlarmDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- audit plumbing ----------------------------------------------------

    def _journal(
        self,
        alarm_id: str,
        action: str,
        from_status: str,
        to_status: str,
        actor: str = "",
        note: str = "",
    ) -> int:
        """Append one audit row inside the caller's transaction.

        The single chokepoint every lifecycle write funnels through —
        which makes it the one place the provenance plane hooks:
        each audit row doubles as an ``alarm.<action>`` journal event
        (no-op without an installed journal), parented to whatever
        caused it (a detector verdict during a stream seal, nothing
        for an operator move).
        """
        cursor = self._conn.execute(
            "INSERT INTO alarm_audit (alarm_id, ts, actor, action, "
            "from_status, to_status, note) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (alarm_id, time.time(), actor, action, from_status,
             to_status, note),
        )
        if obs_events.enabled():
            obs_events.emit(
                f"alarm.{action}",
                alarm_id=alarm_id,
                from_status=from_status or None,
                to_status=to_status,
                actor=actor or None,
                note=note or None,
            )
        return int(cursor.lastrowid)

    def audit_trail(self, alarm_id: str) -> list[AuditEntry]:
        """Every audit row for one alarm, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, alarm_id, ts, actor, action, from_status, "
                "to_status, note FROM alarm_audit WHERE alarm_id = ? "
                "ORDER BY seq",
                (alarm_id,),
            ).fetchall()
        return [AuditEntry(*row) for row in rows]

    # -- writes ------------------------------------------------------------

    def insert(
        self, alarm: Alarm, dedup_window: float | None = None
    ) -> str:
        """Insert one alarm with its meta-data hints.

        With ``dedup_window`` (seconds), a re-fire of the same anomaly —
        an alarm from the same detector with the same label and router
        whose interval lies within ``dedup_window`` of a stored one — is
        *merged* into the stored alarm instead of inserted: the stored
        interval is widened to cover both, the score keeps the maximum,
        and the meta-data hints are united. This is the suppression a
        streaming deployment needs so a persistent anomaly re-firing
        window after window does not flood the database. Alarms in a
        closed state (resolved/dismissed) never absorb re-fires: a
        fresh alarm is stored (and will be triaged) instead, so new
        evidence on a closed case cannot be silently swallowed.

        Returns the id the alarm is stored under (the existing alarm's
        id when merged). Both the insert and the merge journal one
        audit row in the same transaction.
        """
        with self.transaction():
            return self._insert_in_tx(alarm, dedup_window)

    def _insert_in_tx(
        self, alarm: Alarm, dedup_window: float | None
    ) -> str:
        """Insert/merge one alarm inside the caller's transaction.

        All statement batching lives here so :meth:`insert` (one
        transaction per alarm) and :meth:`insert_many` (one
        transaction per *batch*) share the exact same semantics.
        """
        if dedup_window is not None:
            if dedup_window < 0:
                raise AlarmDatabaseError(
                    f"dedup_window must be >= 0: {dedup_window!r}"
                )
            merged = self._merge_duplicate(alarm, dedup_window)
            if merged is not None:
                return merged
        try:
            self._conn.execute(
                "INSERT INTO alarms (alarm_id, detector, start, end, "
                "score, label, router) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    alarm.alarm_id,
                    alarm.detector,
                    alarm.start,
                    alarm.end,
                    alarm.score,
                    alarm.label,
                    alarm.router,
                ),
            )
            self._conn.executemany(
                "INSERT INTO alarm_metadata (alarm_id, feature, value, "
                "weight) VALUES (?, ?, ?, ?)",
                [
                    (alarm.alarm_id, m.feature.value, m.value, m.weight)
                    for m in alarm.metadata
                ],
            )
        except sqlite3.IntegrityError as exc:
            raise AlarmDatabaseError(
                f"alarm {alarm.alarm_id!r} already stored"
            ) from exc
        self._journal(
            alarm.alarm_id, "insert", "", AlarmStatus.OPEN,
            actor=alarm.detector,
            note=f"score={alarm.score:g} "
                 f"interval=[{alarm.start:g}, {alarm.end:g})",
        )
        return alarm.alarm_id

    def _merge_duplicate(
        self, alarm: Alarm, dedup_window: float
    ) -> str | None:
        """Merge ``alarm`` into a stored duplicate; ``None`` if none.

        Runs inside the caller's transaction (no commit here). The
        merge journals an audit row — a re-fire is lifecycle-relevant
        evidence (it resets :meth:`auto_close` decay).
        """
        row = self._conn.execute(
            "SELECT alarm_id, start, end, score, status FROM alarms "
            "WHERE detector = ? AND label = ? "
            "AND IFNULL(router, -1) = IFNULL(?, -1) "
            "AND status NOT IN ('resolved', 'dismissed') "
            "AND start <= ? AND end >= ? "
            "ORDER BY start DESC, alarm_id LIMIT 1",
            (
                alarm.detector,
                alarm.label,
                alarm.router,
                alarm.end + dedup_window,
                alarm.start - dedup_window,
            ),
        ).fetchone()
        if row is None:
            return None
        existing_id, start, end, score, status = row
        self._conn.execute(
            "UPDATE alarms SET start = ?, end = ?, score = ? "
            "WHERE alarm_id = ?",
            (
                min(start, alarm.start),
                max(end, alarm.end),
                max(score, alarm.score),
                existing_id,
            ),
        )
        for item in alarm.metadata:
            updated = self._conn.execute(
                "UPDATE alarm_metadata SET weight = MAX(weight, ?) "
                "WHERE alarm_id = ? AND feature = ? AND value = ?",
                (item.weight, existing_id, item.feature.value,
                 item.value),
            ).rowcount
            if updated == 0:
                self._conn.execute(
                    "INSERT INTO alarm_metadata (alarm_id, feature, "
                    "value, weight) VALUES (?, ?, ?, ?)",
                    (existing_id, item.feature.value, item.value,
                     item.weight),
                )
        self._journal(
            existing_id, "merge", status, status,
            actor=alarm.detector,
            note=f"re-fire {alarm.alarm_id} merged; interval now "
                 f"[{min(start, alarm.start):g}, "
                 f"{max(end, alarm.end):g})",
        )
        return existing_id

    def insert_many(
        self, alarms: list[Alarm], dedup_window: float | None = None
    ) -> int:
        """Insert several alarms; returns how many were stored as *new*.

        Alarms merged into existing entries (see :meth:`insert` with
        ``dedup_window``) do not count. The whole batch commits as
        **one transaction** — one fsync instead of one per alarm,
        which is what keeps stream-engine window flushes with many
        alarms cheap on a file-backed database — and is therefore
        all-or-nothing: a duplicate id anywhere in the batch rolls the
        entire batch back before the error propagates.
        """
        stored = 0
        with self.transaction():
            for alarm in alarms:
                if self._insert_in_tx(alarm, dedup_window) \
                        == alarm.alarm_id:
                    stored += 1
        return stored

    def set_status(
        self, alarm_id: str, status: str, verdict: str = ""
    ) -> None:
        """Advance an alarm's triage state (optionally with a verdict).

        This is the *automated* machine's entry point (the extraction
        pipeline recording ``extracted``/``validated``/``dismissed``);
        it does not enforce :data:`LEGAL_TRANSITIONS` but it journals
        the change like every other write. Operator moves go through
        :meth:`transition`.
        """
        if status not in AlarmStatus.ALL:
            raise AlarmDatabaseError(
                f"unknown status {status!r}; expected one of "
                f"{AlarmStatus.ALL}"
            )
        with self.transaction():
            row = self._conn.execute(
                "SELECT status FROM alarms WHERE alarm_id = ?",
                (alarm_id,),
            ).fetchone()
            if row is None:
                raise AlarmDatabaseError(f"unknown alarm {alarm_id!r}")
            self._conn.execute(
                "UPDATE alarms SET status = ?, verdict = ? "
                "WHERE alarm_id = ?",
                (status, verdict, alarm_id),
            )
            self._journal(
                alarm_id, "set_status", row[0], status,
                actor="system", note=verdict,
            )

    def transition(
        self,
        alarm_id: str,
        action: str,
        actor: str = "",
        note: str = "",
        assignee: str | None = None,
        verdict: str | None = None,
    ) -> str:
        """Apply one operator lifecycle action; returns the new status.

        ``action`` is one of :data:`LIFECYCLE_ACTIONS` (``ack``,
        ``assign``, ``escalate``, ``resolve``, ``dismiss``). The move
        is validated against :data:`LEGAL_TRANSITIONS` from the
        alarm's *current* status — an illegal move raises
        :class:`~repro.errors.AlarmTransitionError` and changes
        nothing. ``assign`` requires ``assignee``. ``verdict``
        (resolve/dismiss) records why the case closed. The status
        update and its audit row commit in one transaction.
        """
        target = LIFECYCLE_ACTIONS.get(action)
        if target is None:
            raise AlarmDatabaseError(
                f"unknown lifecycle action {action!r}; expected one of "
                f"{', '.join(sorted(LIFECYCLE_ACTIONS))}"
            )
        if action == "assign" and not assignee:
            raise AlarmDatabaseError(
                "assign needs an assignee (who owns the case?)"
            )
        with self.transaction():
            row = self._conn.execute(
                "SELECT status, assignee, verdict FROM alarms "
                "WHERE alarm_id = ?",
                (alarm_id,),
            ).fetchone()
            if row is None:
                raise AlarmDatabaseError(f"unknown alarm {alarm_id!r}")
            current, current_assignee, current_verdict = row
            if target not in LEGAL_TRANSITIONS.get(current, ()):
                raise AlarmTransitionError(
                    f"illegal transition {current!r} -> {target!r} "
                    f"for alarm {alarm_id!r} (action {action!r})"
                )
            new_assignee = (
                assignee if assignee is not None else current_assignee
            )
            new_verdict = (
                verdict if verdict is not None else current_verdict
            )
            self._conn.execute(
                "UPDATE alarms SET status = ?, assignee = ?, "
                "verdict = ? WHERE alarm_id = ?",
                (target, new_assignee, new_verdict, alarm_id),
            )
            audit_note = note
            if action == "assign" and assignee and not note:
                audit_note = f"assigned to {assignee}"
            self._journal(
                alarm_id, action, current, target,
                actor=actor, note=audit_note,
            )
        return target

    def auto_close(
        self,
        before: float,
        note: str = "re-fire decay",
        statuses: tuple[str, ...] = (AlarmStatus.OPEN,
                                     AlarmStatus.ACKED),
    ) -> list[str]:
        """Resolve decayed alarms: no re-fire since ``before``.

        An alarm whose interval end (widened by every dedup merge, so
        it tracks the last re-fire) has fallen behind ``before`` and
        which nobody is actively working (status in ``statuses``) is
        resolved with verdict ``decayed``. One transaction covers all
        the status flips and their audit rows. Returns the resolved
        ids, oldest first.
        """
        placeholders = ", ".join("?" for _ in statuses)
        with self.transaction():
            rows = self._conn.execute(
                f"SELECT alarm_id, status FROM alarms "
                f"WHERE status IN ({placeholders}) AND end < ? "
                f"ORDER BY end, alarm_id",
                (*statuses, before),
            ).fetchall()
            for alarm_id, status in rows:
                self._conn.execute(
                    "UPDATE alarms SET status = ?, verdict = ? "
                    "WHERE alarm_id = ?",
                    (AlarmStatus.RESOLVED, "decayed", alarm_id),
                )
                self._journal(
                    alarm_id, "auto_close", status,
                    AlarmStatus.RESOLVED, actor="auto", note=note,
                )
        return [alarm_id for alarm_id, _ in rows]

    def delete(self, alarm_id: str) -> None:
        """Remove an alarm and its meta-data (the audit trail stays)."""
        with self.transaction():
            deleted = self._conn.execute(
                "DELETE FROM alarms WHERE alarm_id = ?", (alarm_id,)
            ).rowcount
        if deleted == 0:
            raise AlarmDatabaseError(f"unknown alarm {alarm_id!r}")

    # -- reads ---------------------------------------------------------------

    def _row_to_alarm(self, row: sqlite3.Row | tuple) -> Alarm:
        (alarm_id, detector, start, end, score, label, router) = row
        metadata = []
        with closing(
            self._conn.execute(
                "SELECT feature, value, weight FROM alarm_metadata "
                "WHERE alarm_id = ? ORDER BY weight DESC",
                (alarm_id,),
            )
        ) as cursor:
            for feature_text, value, weight in cursor:
                metadata.append(
                    MetadataItem(
                        feature=FlowFeature(feature_text),
                        value=value,
                        weight=weight,
                    )
                )
        return Alarm(
            alarm_id=alarm_id,
            detector=detector,
            start=start,
            end=end,
            score=score,
            label=label,
            metadata=metadata,
            router=router,
        )

    def get(self, alarm_id: str) -> Alarm:
        """Fetch one alarm by id."""
        with self._lock:
            row = self._conn.execute(
                "SELECT alarm_id, detector, start, end, score, label, "
                "router FROM alarms WHERE alarm_id = ?",
                (alarm_id,),
            ).fetchone()
            if row is None:
                raise AlarmDatabaseError(f"unknown alarm {alarm_id!r}")
            return self._row_to_alarm(row)

    def status_of(self, alarm_id: str) -> tuple[str, str]:
        """``(status, verdict)`` of one alarm."""
        with self._lock:
            row = self._conn.execute(
                "SELECT status, verdict FROM alarms WHERE alarm_id = ?",
                (alarm_id,),
            ).fetchone()
        if row is None:
            raise AlarmDatabaseError(f"unknown alarm {alarm_id!r}")
        return (row[0], row[1])

    def _filter_clauses(
        self,
        status: str | None,
        start: float | None,
        end: float | None,
        detector: str | None = None,
        alarm_id: str | None = None,
    ) -> tuple[list[str], list[object]]:
        clauses: list[str] = []
        params: list[object] = []
        if alarm_id is not None:
            clauses.append("alarm_id = ?")
            params.append(alarm_id)
        if status is not None:
            if status not in AlarmStatus.ALL:
                raise AlarmDatabaseError(f"unknown status {status!r}")
            clauses.append("status = ?")
            params.append(status)
        if detector is not None:
            clauses.append("detector = ?")
            params.append(detector)
        if start is not None:
            clauses.append("end > ?")
            params.append(start)
        if end is not None:
            clauses.append("start < ?")
            params.append(end)
        return clauses, params

    def list_alarms(
        self,
        status: str | None = None,
        start: float | None = None,
        end: float | None = None,
        detector: str | None = None,
    ) -> list[Alarm]:
        """Alarms (optionally by status/detector, overlapping a window)."""
        query = (
            "SELECT alarm_id, detector, start, end, score, label, router "
            "FROM alarms"
        )
        clauses, params = self._filter_clauses(
            status, start, end, detector
        )
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY start, alarm_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
            return [self._row_to_alarm(row) for row in rows]

    def rows(
        self,
        status: str | None = None,
        start: float | None = None,
        end: float | None = None,
        detector: str | None = None,
        limit: int | None = None,
        offset: int = 0,
        alarm_id: str | None = None,
    ) -> tuple[list[dict], int]:
        """JSON-ready alarm dicts plus the unpaginated match count.

        Ordering is identical to :meth:`list_alarms` (``start`` then
        ``alarm_id``) — the console's ``/api/alarms`` pages are stable
        slices of exactly that sequence.
        """
        if limit is not None and limit < 1:
            raise AlarmDatabaseError(f"limit must be >= 1: {limit!r}")
        if offset < 0:
            raise AlarmDatabaseError(f"offset must be >= 0: {offset!r}")
        clauses, params = self._filter_clauses(
            status, start, end, detector, alarm_id
        )
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._lock:
            total = int(self._conn.execute(
                "SELECT COUNT(*) FROM alarms" + where, params
            ).fetchone()[0])
            query = (
                "SELECT alarm_id, detector, start, end, score, label, "
                "router, status, verdict, assignee FROM alarms"
                + where + " ORDER BY start, alarm_id"
            )
            page_params = list(params)
            if limit is not None or offset:
                query += " LIMIT ? OFFSET ?"
                page_params += [-1 if limit is None else limit, offset]
            rows = self._conn.execute(query, page_params).fetchall()
            out = []
            for row in rows:
                (alarm_id, detector_name, a_start, a_end, score, label,
                 router, a_status, verdict, assignee) = row
                metadata = [
                    {
                        "feature": feature,
                        "value": value,
                        "rendered": format_feature_value(
                            FlowFeature(feature), value
                        ),
                        "weight": weight,
                    }
                    for feature, value, weight in self._conn.execute(
                        "SELECT feature, value, weight FROM "
                        "alarm_metadata WHERE alarm_id = ? "
                        "ORDER BY weight DESC",
                        (alarm_id,),
                    )
                ]
                out.append({
                    "alarm_id": alarm_id,
                    "detector": detector_name,
                    "start": a_start,
                    "end": a_end,
                    "score": score,
                    "label": label,
                    "router": router,
                    "status": a_status,
                    "verdict": verdict,
                    "assignee": assignee,
                    "metadata": metadata,
                })
        return out, total

    def count(self, status: str | None = None) -> int:
        """Number of alarms (optionally by status)."""
        with self._lock:
            if status is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM alarms"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM alarms WHERE status = ?",
                    (status,),
                ).fetchone()
        return int(row[0])

    def counts_by_status(self) -> dict[str, int]:
        """``{status: count}`` over every lifecycle state (zeros kept)."""
        counts = dict.fromkeys(AlarmStatus.ALL, 0)
        with self._lock:
            for status, count in self._conn.execute(
                "SELECT status, COUNT(*) FROM alarms GROUP BY status"
            ):
                counts[status] = int(count)
        return counts
