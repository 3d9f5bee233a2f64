"""Online sliding-window engine over the columnar flow substrate.

The paper's system ran *online* against GEANT NetFlow: a detector
feeding an alarm database whose open alarms are continuously triaged
against a rotating NfDump archive. This package turns the repo's batch
pipeline into that deployment shape:

``sources``
    Unbounded flow sources delivering :class:`~repro.flows.table.FlowTable`
    chunks — in-memory tables and a growing-CSV tail.
``window``
    :class:`WindowRing` — a bounded ring of time-sliced windows (the
    archive's rotation slices) that serves triage's window queries, with
    a watermark and a configurable lateness horizon deciding when
    windows close and when stragglers are dropped.
``incremental``
    :class:`StreamingDetector` — the engine's handle on a trained
    :mod:`repro.detect` detector, which scores each sealed window's
    :class:`~repro.detect.features.WindowCounts` with the call batch
    ``detect()`` makes per bin.
``runtime``
    :class:`StreamEngine` — the loop that routes chunks, advances the
    watermark, fires detectors on window close, inserts alarms into the
    :class:`~repro.system.alarmdb.AlarmDatabase` (with optional dedup)
    and drives live triage against the ring.
``replay``
    :class:`ReplayDriver` — replays any recorded or synthetic trace at
    a configurable speedup (including max rate) for benchmarking and
    forensics.

The contract that makes this safe to deploy next to the batch tools:
streaming a trace through the engine yields the same alarms as the
batch ``detect`` path over the same trace (ids, windows, labels,
meta-data and scores, bit for bit), asserted by the test suite.
"""

from repro.stream.incremental import StreamingDetector
from repro.stream.replay import ReplayDriver, ReplayStats
from repro.stream.runtime import StreamEngine, StreamStats, WindowResult
from repro.stream.sources import (
    DEFAULT_CHUNK_ROWS,
    table_chunks,
    tail_csv_chunks,
)
from repro.stream.window import ClosedWindow, IngestResult, WindowRing

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "table_chunks",
    "tail_csv_chunks",
    "ClosedWindow",
    "IngestResult",
    "WindowRing",
    "StreamingDetector",
    "StreamEngine",
    "StreamStats",
    "WindowResult",
    "ReplayDriver",
    "ReplayStats",
]
