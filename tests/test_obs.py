"""The repro.obs telemetry plane.

* registry semantics: counters add, gauges last-write-wins,
  histograms bucket correctly;
* instruments are no-ops until a registry is installed;
* mining records into the installed registry at every worker count;
* spans feed ``RunResult.timings`` with byte-identical keys;
* the serve sink renders Prometheus text and answers /metrics and
  /status over HTTP; no ``metrics_port`` means no socket.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro import api
from repro.detect.base import Alarm
from repro.errors import ReproError
from repro.extraction.extractor import AnomalyExtractor
from repro.flows.table import FlowTable
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.serve import (
    MetricsServer,
    render_prometheus,
    status_payload,
)

# Families declared once at import time (redeclaration with an equal
# shape is a no-op, so reruns in one process are fine).
_C = obs_metrics.counter("repro_test_events_total", "test counter")
_G = obs_metrics.gauge("repro_test_depth", "test gauge")
_H = obs_metrics.histogram(
    "repro_test_latency_seconds", "test histogram",
    buckets=(0.1, 1.0, 10.0),
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts disabled and leaks no registry or spans."""
    previous = obs_metrics.install(None)
    obs_trace.clear()
    yield
    obs_metrics.install(previous)


# -- registry semantics ------------------------------------------------------


class TestRegistry:
    def test_counter_adds(self):
        registry = obs_metrics.enable()
        _C.inc()
        _C.inc(4)
        assert registry.value("repro_test_events_total") == 5

    def test_gauge_last_write_wins(self):
        registry = obs_metrics.enable()
        _G.set(3)
        _G.set(1)
        assert registry.value("repro_test_depth") == 1

    def test_labels_partition_series(self):
        registry = obs_metrics.enable()
        _C.labels(kind="a").inc(2)
        _C.labels(kind="b").inc(3)
        assert registry.value(
            "repro_test_events_total", {"kind": "a"}
        ) == 2
        assert registry.value(
            "repro_test_events_total", {"kind": "b"}
        ) == 3

    def test_histogram_buckets_inclusive_upper_bound(self):
        registry = obs_metrics.enable()
        for value in (0.05, 0.1, 0.5, 20.0):
            _H.observe(value)
        ((_, packed),) = obs_metrics.iter_series(
            registry, "repro_test_latency_seconds"
        )
        buckets, counts, total, count = packed
        assert buckets == (0.1, 1.0, 10.0)
        # le is inclusive: 0.1 lands in the first bucket; 20 overflows.
        assert counts == [2, 1, 0, 1]
        assert count == 4
        assert total == pytest.approx(20.65)

    def test_redeclare_with_different_kind_rejected(self):
        with pytest.raises(ReproError, match="redeclared"):
            obs_metrics.gauge("repro_test_events_total")

    def test_noop_until_enabled(self):
        assert obs_metrics.active() is None
        _C.inc()
        _G.set(7)
        _H.observe(0.2)
        assert obs_metrics.snapshot() == {}
        registry = obs_metrics.enable()
        assert registry.value("repro_test_events_total") == 0

    def test_enable_keeps_installed_registry(self):
        first = obs_metrics.enable()
        assert obs_metrics.enable() is first


# -- mining records in place at every worker count ---------------------------


def _extract(workers: int) -> None:
    rng = np.random.default_rng(1)
    starts = rng.uniform(0.0, 600.0, 900)
    table = FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A000010, 900),
        dst_ip=rng.integers(0x0A000000, 0x0A000010, 900),
        src_port=rng.integers(1024, 1100, 900),
        dst_port=rng.choice(np.array([53, 80, 443]), 900),
        proto=rng.choice(np.array([6, 17]), 900),
        packets=rng.integers(1, 200, 900),
        bytes=rng.integers(40, 10_000, 900),
        start=starts,
        end=starts + 1.0,
    )
    extractor = AnomalyExtractor(workers=workers)
    try:
        extractor.extract(
            Alarm("a-1", "test", start=0.0, end=600.0, score=1.0), table
        )
    finally:
        extractor.close()


def _mining_counters(registry) -> dict:
    return {
        key: value for key, value in registry.counters().items()
        if key[0].startswith("repro_mining_")
    }


class TestExecutorFold:
    """Worker metrics once came home through a fold into the parent's
    registry; with no pool, mining records into the installed registry
    directly at every worker count."""

    def test_process_pool_counts_like_serial(self):
        serial = obs_metrics.enable()
        _extract(1)
        obs_metrics.install(None)
        pooled = obs_metrics.enable()
        _extract(4)
        assert _mining_counters(serial)
        assert _mining_counters(pooled) == _mining_counters(serial)

    def test_disabled_parent_skips_the_fold(self):
        _extract(4)
        assert obs_metrics.active() is None
        assert obs_metrics.snapshot() == {}

    def test_thread_path_records_directly(self):
        registry = obs_metrics.enable()
        _extract(4)
        _extract(4)
        assert registry.value("repro_mining_runs_total") == 2
        assert registry.value("repro_mining_passes_total") >= 2


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_span_records_and_feeds_timings(self):
        timings: dict[str, float] = {}
        with obs_trace.span("test.phase", timings, "phase") as sp:
            pass
        assert sp.seconds >= 0.0
        assert timings["phase"] == sp.seconds
        assert obs_trace.spans()[-1] == ("test.phase", sp.seconds)

    def test_span_records_on_exception(self):
        with pytest.raises(ValueError):
            with obs_trace.span("test.burns"):
                raise ValueError("boom")
        assert obs_trace.spans()[-1][0] == "test.burns"

    def test_log_is_bounded(self):
        for index in range(600):
            with obs_trace.span(f"s{index}"):
                pass
        log = obs_trace.spans()
        assert len(log) == 512
        assert log[-1][0] == "s599"


# -- session integration -----------------------------------------------------


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs") / "trace.rpv5"
    (
        api.session()
        .scenario(bins=12, fps=6, seed=7, anomalies=["port-scan"])
        .synth(str(out))
        .run()
    )
    return str(out)


class TestSessionTelemetry:
    def test_batch_timing_keys_unchanged(self, trace_path):
        result = (
            api.session()
            .source("rpv5", path=trace_path)
            .detect("netreflex", train_bins=8)
            .batch(triage=True)
            .run()
        )
        assert set(result.timings) == {
            "load", "train", "detect", "triage", "total",
        }
        # summary() renders stats only — the telemetry plane must not
        # have leaked new keys into it.
        assert result.summary().startswith("session batch ok: flows=")
        assert "metrics_port" not in result.summary()

    def test_stream_timing_keys_unchanged(self, trace_path):
        result = (
            api.session()
            .source("rpv5", path=trace_path)
            .detect("netreflex", train_bins=8)
            .stream()
            .run()
        )
        assert set(result.timings) == {"train", "stream", "total"}
        assert "metrics_port" not in result.payload

    def test_stream_serve_exposes_live_metrics(self, trace_path):
        probes: list[tuple[str, dict]] = []

        def on_window(window) -> None:
            port = holder.get("port")
            if probes or port is None:
                return
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=5
            )
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
            conn.request("GET", "/status")
            status = json.loads(conn.getresponse().read().decode())
            conn.close()
            probes.append((text, status))

        holder: dict[str, int] = {}
        sess = (
            api.session()
            .source("rpv5", path=trace_path)
            .detect("netreflex", train_bins=8)
            .stream()
            .serve(0)
            .on_window(on_window)
            .build()
        )
        sess.on_serve = lambda port: holder.setdefault("port", port)
        result = sess.run()

        assert result.payload["metrics_port"] == holder["port"]
        text, status = probes[0]
        assert "repro_flows_ingested_total" in text
        assert "# TYPE repro_stream_window_seal_seconds histogram" \
            in text
        assert status["mode"] == "stream"
        assert status["stats"]["flows"] > 0
        assert status["spans"]
        # After the run the registry agrees with the run's own stats.
        assert obs_metrics.active().value(
            "repro_flows_ingested_total"
        ) == result.stats["flows"]

    def test_seal_latency_buckets_resolve_the_seals_measured(self):
        """Seals run from a few milliseconds (no alarm) to tens (live
        triage): between 2 and 150 ms no bucket may span more than a
        factor 1.5, or a p50 read off the histogram says nothing."""
        import repro.stream.runtime  # noqa: F401  (declares the family)

        bounds = obs_metrics.descriptors()[
            "repro_stream_window_seal_seconds"
        ].buckets
        fine = [b for b in bounds if 0.002 <= b <= 0.15]
        assert fine[0] == 0.002 and fine[-1] == 0.15
        assert all(hi / lo <= 1.5 for lo, hi in zip(fine, fine[1:]))

    def test_no_metrics_port_opens_no_socket(self, trace_path, monkeypatch):
        import repro.obs.serve as serve_module

        def explode(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("MetricsServer constructed without "
                                 "a metrics_port")

        monkeypatch.setattr(serve_module, "MetricsServer", explode)
        result = (
            api.session()
            .source("rpv5", path=trace_path)
            .detect("netreflex", train_bins=8)
            .stream()
            .run()
        )
        assert "metrics_port" not in result.payload


# -- the serve sink ----------------------------------------------------------


class TestServeSink:
    def test_render_disabled_is_empty(self):
        assert render_prometheus() == ""

    def test_render_zero_samples_for_declared_scalars(self):
        obs_metrics.enable()
        text = render_prometheus()
        assert "# TYPE repro_test_events_total counter" in text
        assert "\nrepro_test_events_total 0\n" in ("\n" + text)
        # Untouched histograms are omitted entirely (no meaningful
        # zero exposition without samples).
        assert "repro_test_latency_seconds_bucket" not in text

    def test_render_histogram_is_cumulative(self):
        obs_metrics.enable()
        for value in (0.05, 0.5, 20.0):
            _H.observe(value)
        text = render_prometheus()
        assert 'repro_test_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_test_latency_seconds_bucket{le="1.0"} 2' in text
        assert 'repro_test_latency_seconds_bucket{le="10.0"} 2' in text
        assert 'repro_test_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_test_latency_seconds_count 3" in text
        # A labelled series puts ``le`` after its own labels, escaped
        # the same way.
        _H.labels(stage='a"b').observe(0.5)
        text = render_prometheus()
        assert (
            'repro_test_latency_seconds_bucket{stage="a\\"b",le="1.0"} 1'
            in text
        )
        assert (
            'repro_test_latency_seconds_bucket{stage="a\\"b",le="+Inf"} 1'
            in text
        )
        assert 'repro_test_latency_seconds_count{stage="a\\"b"} 1' in text

    def test_status_payload_survives_broken_status(self):
        def broken() -> dict:
            raise RuntimeError("sensor offline")

        payload = status_payload(broken)
        assert "spans" in payload
        assert "sensor offline" in payload["status_error"]

    def test_http_endpoints(self):
        registry = obs_metrics.enable()
        _C.inc(3)
        with MetricsServer(port=0, status=lambda: {"mode": "test"}) \
                as server:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=5
            )
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode()
            assert "repro_test_events_total 3" in text

            conn.request("GET", "/status")
            response = conn.getresponse()
            assert response.status == 200
            status = json.loads(response.read().decode())
            assert status["mode"] == "test"

            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
            conn.close()
        assert registry.value("repro_test_events_total") == 3
