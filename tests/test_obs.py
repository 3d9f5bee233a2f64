"""The repro.obs telemetry plane.

* registry semantics: counters add, gauges last-write/max-merge,
  histograms bucket correctly;
* instruments are no-ops until a registry is installed;
* the snapshot/merge seam is order-independent (Hypothesis);
* ShardExecutor folds worker deltas into the parent registry so a
  process-pool run counts exactly like a serial one;
* spans feed ``RunResult.timings`` with byte-identical keys;
* the serve sink renders Prometheus text and answers /metrics and
  /status over HTTP; no ``metrics_port`` means no socket.
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.serve import (
    MetricsServer,
    render_prometheus,
    status_payload,
)
from repro.parallel.executor import ShardExecutor

# Families declared once at import time (redeclaration with an equal
# shape is a no-op, so reruns in one process are fine).
_C = obs_metrics.counter("repro_test_events_total", "test counter")
_G = obs_metrics.gauge("repro_test_depth", "test gauge")
_H = obs_metrics.histogram(
    "repro_test_latency_seconds", "test histogram",
    buckets=(0.1, 1.0, 10.0),
)
_TASK_C = obs_metrics.counter(
    "repro_test_tasks_total", "per-worker task counter"
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts disabled and leaks no registry or spans."""
    previous = obs_metrics.install(None)
    obs_trace.clear()
    yield
    obs_metrics.install(previous)


def _worker_task(n: int) -> int:
    """Module-level (picklable) task that records into the active
    registry — whichever one the executor installed in the worker."""
    _TASK_C.inc(n)
    return n * 2


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

    def test_histogram_bucket_mismatch_rejected_on_merge(self):
        left = obs_metrics.MetricsRegistry()
        left.observe(("h", ()), (1.0, 2.0), 0.5)
        right = obs_metrics.MetricsRegistry()
        right.observe(("h", ()), (1.0, 5.0), 0.5)
        with pytest.raises(ReproError, match="bucket layout"):
            left.merge(right.snapshot())

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


# -- snapshot/merge order-independence ---------------------------------------


_deltas = st.lists(
    st.tuples(
        st.integers(0, 3),        # series index
        st.integers(1, 100),      # counter bump
        st.floats(0.0, 5.0, allow_nan=False),  # hist sample
    ),
    min_size=0,
    max_size=8,
)


@settings(deadline=None, max_examples=60)
@given(shards=st.lists(_deltas, min_size=1, max_size=5),
       order=st.randoms(use_true_random=False))
def test_merge_is_order_independent(shards, order):
    """Per-shard snapshots merged in any order == the serial registry."""
    buckets = (0.5, 1.0, 2.5)
    serial = obs_metrics.MetricsRegistry()
    snapshots = []
    for shard in shards:
        local = obs_metrics.MetricsRegistry()
        for series, bump, sample in shard:
            key = ("repro_test_events_total",
                   (("shard", str(series)),))
            local.inc(key, bump)
            serial.inc(key, bump)
            hkey = ("repro_test_latency_seconds", ())
            local.observe(hkey, buckets, sample)
            serial.observe(hkey, buckets, sample)
        snapshots.append(local.snapshot())

    shuffled = list(snapshots)
    order.shuffle(shuffled)
    merged = obs_metrics.MetricsRegistry()
    for snap in shuffled:
        merged.merge(snap)

    assert merged.counters() == serial.counters()
    merged_h = merged.histograms()
    serial_h = serial.histograms()
    assert set(merged_h) == set(serial_h)
    for key, (mb, mc, mt, mn) in merged_h.items():
        sb, sc, stot, sn = serial_h[key]
        assert (mb, mc, mn) == (sb, sc, sn)  # exact: int addition
        assert mt == pytest.approx(stot)     # float sum: approx only

    # Gauges merge by max — also order-free.
    gauges = [obs_metrics.MetricsRegistry() for _ in range(3)]
    for value, registry in zip((2, 9, 4), gauges):
        registry.set(("repro_test_depth", ()), value)
    for perm in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        merged = obs_metrics.MetricsRegistry()
        for index in perm:
            merged.merge(gauges[index].snapshot())
        assert merged.value("repro_test_depth") == 9


# -- the executor fold seam --------------------------------------------------


class TestExecutorFold:
    def test_process_pool_counts_like_serial(self):
        items = [(n,) for n in range(1, 9)]
        expected = sum(n for (n,) in items)

        registry = obs_metrics.enable()
        with ShardExecutor(2, use_processes=True) as executor:
            results = executor.map_items(_worker_task, items)
        assert sorted(results) == [n * 2 for (n,) in items]
        assert registry.value("repro_test_tasks_total") == expected

    def test_disabled_parent_skips_the_fold(self):
        items = [(n,) for n in (1, 2, 3)]
        with ShardExecutor(2, use_processes=True) as executor:
            results = executor.map_items(_worker_task, items)
        assert sorted(results) == [2, 4, 6]
        assert obs_metrics.active() is None

    def test_thread_path_records_directly(self):
        registry = obs_metrics.enable()
        executor = ShardExecutor(4, use_processes=False)
        executor.map_items(_worker_task, [(5,), (7,)])
        assert registry.value("repro_test_tasks_total") == 12


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
        original = sess._serve_metrics

        def capture(status):
            server = original(status)
            holder["port"] = server.port
            return server

        sess._serve_metrics = capture
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
