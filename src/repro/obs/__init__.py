"""repro.obs — the telemetry plane: metrics, spans, events, serve sink.

Four small stdlib-only modules:

- :mod:`repro.obs.metrics` — a process-wide registry of named
  counters, gauges and fixed-bucket histograms. Disabled by default:
  instrument handles are module-level constants whose record methods
  are a single ``None`` check until :func:`repro.obs.metrics.enable`
  installs a registry, so the hot layers (stream ingest, shm staging,
  archive scans, mining) carry their instrumentation at near-zero
  cost. Registries snapshot to plain picklable dicts and merge by
  counter addition — the same associative/commutative discipline as
  the streaming ``WindowAccumulator`` — so shard workers accumulate
  into a private registry and the ``ShardExecutor`` folds their
  deltas into the parent alongside task results.
- :mod:`repro.obs.trace` — ``with trace.span("detect.window"):``
  lightweight span timing into a bounded in-memory log; the session
  facade's ``RunResult.timings`` is fed from these spans. Spans carry
  ``trace_id``/``span_id`` causal identity that propagates through
  the shard pool and exports as Chrome trace-event JSON.
- :mod:`repro.obs.events` — the provenance plane: an append-only
  rotated JSONL journal of the pipeline lifecycle (chunk → window →
  verdict → alarm → archive), with causal ``parent``
  links, a live tail for the console's SSE stream, a crash flight
  recorder, and ``lineage()`` walking an alarm back to its chunks.
- :mod:`repro.obs.serve` — Prometheus text rendering plus an
  ``http.server``-based endpoint (``/metrics`` and ``/status``)
  started by ``Session.run()`` when a spec sets ``metrics_port``.

Import discipline: ``repro.obs`` depends only on the stdlib and
:mod:`repro.errors`, so every layer of the system may import it
without cycles.
"""

from __future__ import annotations

from repro.obs import events, metrics, trace
from repro.obs.events import EventJournal
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "EventJournal",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "events",
    "metrics",
    "trace",
]
