"""Per-exporter state for the UDP collector.

An *exporter* is one observation stream: the datagram's source address
plus the observation domain the header names (v9 ``source_id``, IPFIX
``observation_domain``, the engine ids for v5). One router chassis
routinely exports several domains from one address, and each domain
numbers its sequence space and templates independently — so the key,
the sequence tracking and the :class:`~repro.collector.decode.TemplateCache`
all live at that granularity.

Sequence accounting is the collector's honesty mechanism: UDP drops
silently, and the only signal that flows went missing between router
and socket is a gap in the header sequence numbers. The tracker turns
``(seq, seq_units)`` pairs from the decoder into a cumulative
``sequence_lost`` count, re-baselining on reordering/restarts (a
backwards jump is a reset, not negative loss) and on datagrams whose
unit count the decoder could not establish.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.collector.decode import DecodedDatagram, TemplateCache

__all__ = ["ExporterKey", "ExporterState", "ExporterTable"]

#: ``(source_address, version, observation_domain)``
ExporterKey = tuple[str, int, int]

_SEQ_MOD = 1 << 32
#: Forward gaps at least this large are treated as an exporter restart
#: (sequence re-baseline), not packet loss — half the space, like TCP.
_RESET_GAP = 1 << 31


@dataclass(slots=True)
class ExporterState:
    """Counters and template state for one exporter stream."""

    key: ExporterKey
    templates: TemplateCache
    packets: int = 0
    flows: int = 0
    malformed: int = 0
    sequence_lost: int = 0
    sequence_resets: int = 0
    template_sets: int = 0
    template_misses: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0
    _expected_seq: int | None = field(default=None, repr=False)

    def note(self, datagram: DecodedDatagram, now: float) -> int:
        """Fold one decoded datagram in; returns newly detected loss."""
        if not self.first_seen:
            self.first_seen = now
        self.last_seen = now
        self.packets += 1
        self.flows += datagram.flows
        self.malformed += datagram.malformed
        self.template_sets += datagram.template_sets
        self.template_misses += datagram.buffered_sets
        lost = 0
        if self._expected_seq is not None:
            gap = (datagram.seq - self._expected_seq) % _SEQ_MOD
            if 0 < gap < _RESET_GAP:
                lost = gap
                self.sequence_lost += gap
            elif gap >= _RESET_GAP:
                self.sequence_resets += 1
        if datagram.seq_reliable:
            self._expected_seq = (
                datagram.seq + datagram.seq_units
            ) % _SEQ_MOD
        else:
            self._expected_seq = None
        return lost

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready counters for ``/status`` and ``RunResult``."""
        address, version, domain = self.key
        return {
            "address": address,
            "version": version,
            "domain": domain,
            "packets": self.packets,
            "flows": self.flows,
            "malformed": self.malformed,
            "sequence_lost": self.sequence_lost,
            "sequence_resets": self.sequence_resets,
            "template_sets": self.template_sets,
            "template_misses": self.template_misses,
            "templates": len(self.templates.templates),
            "pending_sets": self.templates.pending_count,
        }


class ExporterTable:
    """All exporters the listener has heard from, keyed and sweepable."""

    def __init__(
        self,
        max_pending_sets: int = 32,
        pending_expiry: float = 300.0,
        idle_expiry: float = 900.0,
        clock=time.monotonic,
    ) -> None:
        self._states: dict[ExporterKey, ExporterState] = {}
        self.max_pending_sets = max_pending_sets
        self.pending_expiry = pending_expiry
        self.idle_expiry = idle_expiry
        self._clock = clock

    def __len__(self) -> int:
        return len(self._states)

    def get(self, address: str, version: int, domain: int) -> ExporterState:
        key = (address, version, domain)
        state = self._states.get(key)
        if state is None:
            state = ExporterState(
                key=key,
                templates=TemplateCache(
                    max_pending=self.max_pending_sets,
                    pending_expiry=self.pending_expiry,
                ),
            )
            self._states[key] = state
        return state

    def sweep(self, now: float | None = None) -> tuple[int, int]:
        """Expire idle exporters and aged pending sets.

        Returns ``(exporters_dropped, pending_sets_dropped)``. Runs in
        the listener's once-a-second housekeeping pass, so a dead
        exporter's template cache and buffered data sets cannot pin
        memory.
        """
        if now is None:
            now = self._clock()
        expired_sets = 0
        dropped = []
        for key, state in self._states.items():
            expired_sets += state.templates.sweep(now)
            if now - state.last_seen > self.idle_expiry:
                dropped.append(key)
        for key in dropped:
            del self._states[key]
        return len(dropped), expired_sets

    def snapshot(self) -> list[dict[str, Any]]:
        """Per-exporter counter dicts, stable order (by key)."""
        return [
            self._states[key].snapshot()
            for key in sorted(self._states)
        ]
