"""Record staging between the datagram parser and the stream engine.

A datagram carries at most ~30 v5 records; feeding the engine one
:class:`~repro.flows.table.FlowTable` per datagram would drown it in
per-chunk overhead (ring routing, watermark updates), and decoding
one datagram at a time would
drown the listener in per-call numpy overhead. The
:class:`ChunkBatcher` therefore stages *bytes, not rows*: the
:class:`~repro.collector.decode.Region` values the parser found, in
arrival order. A flush runs each staged wire plan once over its
regions (:func:`~repro.collector.decode.decode_regions`) and emits one
table, when either trigger fires:

* **size** — the stage reached ``chunk_rows`` records (throughput
  path), so it never holds more than ``chunk_rows`` records of wire
  bytes plus the datagram that crossed the line;
* **age** — ``max_batch_seconds`` passed since the first record of the
  batch arrived (latency path: a trickle of datagrams still reaches
  the detector within a bounded delay, and the engine watermark keeps
  advancing).

The batcher keeps no timer: :attr:`ChunkBatcher.deadline` tells the
listener when to wake for :meth:`ChunkBatcher.poll`, so an age flush
lands at its deadline and an empty stage costs no wake-up, and
:meth:`ChunkBatcher.rest_until` tells it how long the socket may go
unwatched while the open batch is going to age-flush anyway.

What a bound ``T`` costs: a row waits about ``T/2``; each hand-off
(one chunk decoded, piped and taken) costs the two processes a fixed
~0.5-0.8 ms of CPU, and each listener wake-up about 80 µs, against
~9 µs to parse a datagram (2-vCPU Xeon). Below a chunk per ``T`` the
socket rests in steps of ``T/5``, so a batch costs one hand-off and
about eight wake-ups, both as 1/T; above it, wake-ups follow arrivals.

The batcher is deliberately queue-agnostic: it hands each table, with
its first row's arrival time, to an ``on_flush`` callback, so the
listener owns the bounded-queue/drop policy in one place; it records
no metric (the listener publishes ``time_clamped``).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from repro.collector.decode import Region, decode_regions
from repro.flows.table import FlowTable

__all__ = ["ChunkBatcher", "MAX_BATCH_SECONDS"]

#: The default age bound: the longest a staged row waits for its chunk.
#: A row waits about half of it, and a batch costs one hand-off and
#: about eight listener wake-ups: latency against CPU as 1/T.
MAX_BATCH_SECONDS = 0.05
#: The longest rest of the socket, as a share of the age bound: a rise
#: in the arrival rate is seen within it.
_REST_SHARE = 0.2


class ChunkBatcher:
    """Stage record regions; decode them into size/age-bounded tables."""

    def __init__(
        self,
        on_flush: Callable[[FlowTable, str, float], None],
        chunk_rows: int = 8192,
        max_batch_seconds: float = MAX_BATCH_SECONDS,
        clock: Callable[[], float] = time.monotonic,
        boot_time: float = 0.0,
    ) -> None:
        self.on_flush = on_flush
        self.chunk_rows = max(1, int(chunk_rows))
        self.max_batch_seconds = max_batch_seconds
        self.boot_time = boot_time
        self._clock = clock
        self._staged: list[Region] = []
        self._rows = 0
        self._oldest: float | None = None
        #: Looks at the open batch, and whether a size flush was last.
        self._looks = 0
        self._filled = False
        self.flushes = 0
        #: Rows decoded with ``end < start`` (kept, at zero duration).
        self.time_clamped = 0

    @property
    def pending_rows(self) -> int:
        return self._rows

    @property
    def deadline(self) -> float | None:
        """When the open batch falls due for an age flush (on the
        batcher's clock), or ``None`` while nothing is staged."""
        if self._oldest is None:
            return None
        return self._oldest + self.max_batch_seconds

    def rest_until(self, unread_for: float) -> float | None:
        """Until when the listener may leave its socket unwatched, or
        ``None`` while it needs a look now; each call is one look.

        The socket may rest once the open batch has been looked at
        after a wait, did not open behind a size flush (which shows a
        rate that fills chunks, and restarts the remainder's age), and
        the rows it staged over its age project fewer than
        ``chunk_rows`` by its :attr:`deadline`. The rest ends at the
        deadline, after a fifth of the bound or after ``unread_for``
        (what the socket buffer allows), whichever is first.
        """
        if self._oldest is None:
            return None
        self._looks += 1
        if self._filled or self._looks < 2:
            return None
        now, bound = self._clock(), self.max_batch_seconds
        if self._rows * bound >= self.chunk_rows * (now - self._oldest):
            return None
        return min(
            self._oldest + bound, now + min(bound * _REST_SHARE, unread_for)
        )

    def add(self, regions: Iterable[Region]) -> None:
        """Stage a datagram's regions; size-flush when the batch fills."""
        for region in regions:
            self._staged.append(region)
            self._rows += region.count
        if self._rows and self._oldest is None:
            self._oldest = self._clock()
        while self._rows >= self.chunk_rows:
            self._flush_rows(self.chunk_rows, "size")

    def poll(self, now: float | None = None) -> bool:
        """Age-flush if the oldest pending row has waited long enough."""
        if self._oldest is None:
            return False
        if now is None:
            now = self._clock()
        if now - self._oldest < self.max_batch_seconds:
            return False
        self._flush_rows(self._rows, "age")
        return True

    def flush(self, reason: str = "final") -> bool:
        """Flush whatever is pending (listener shutdown)."""
        if not self._rows:
            return False
        self._flush_rows(self._rows, reason)
        return True

    def _flush_rows(self, rows: int, reason: str) -> None:
        staged = self._staged
        taken = cut = 0
        while taken < rows:
            taken += staged[cut].count
            cut += 1
        take = staged[:cut]
        del staged[:cut]
        if taken > rows:
            # The region that crossed the line straddles two chunks.
            take[-1], rest = take[-1].split(
                take[-1].count - (taken - rows)
            )
            staged.insert(0, rest)
        self._rows -= rows
        oldest = self._oldest
        self._oldest = None if not self._rows else self._clock()
        self._looks = 0
        self._filled = reason == "size"
        # The wire plans mask every column to its legal range, so the
        # validating from_columns pass is unnecessary.
        self.flushes += 1
        rows, clamped = decode_regions(take, self.boot_time)
        self.time_clamped += clamped
        self.on_flush(FlowTable(rows), reason, oldest)
