"""The serve sink: Prometheus text rendering + /metrics + /status.

:func:`render_prometheus` turns the active registry into Prometheus
text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE``
headers from the descriptor table, cumulative ``_bucket{le=...}`` /
``_sum`` / ``_count`` triples for histograms. It is pure — ``repro
obs dump`` prints it one-shot without any server.

:class:`MetricsServer` wraps it in a stdlib
:class:`~http.server.ThreadingHTTPServer` on a daemon thread:

- ``GET /metrics`` — Prometheus text of the active registry;
- ``GET /status``  — JSON: the recent span tail plus whatever the
  owning session's ``status`` callable reports (mode, live stream
  stats, watermark lag).

``Session.run()`` starts one for stream/triage specs that set
``metrics_port`` (port 0 binds an ephemeral port; the bound port is
reported in ``RunResult.payload["metrics_port"]``) and stops it when
the run ends. Nothing here is imported by the hot layers — the
endpoint is strictly an observer of the metrics/trace state.
"""

from __future__ import annotations

import json
import logging
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs import events as obs_events, metrics, trace
from repro.obs.metrics import MetricsRegistry

__all__ = ["MetricsServer", "render_prometheus", "status_payload"]

logger = logging.getLogger(__name__)

CONTENT_TYPE_METRICS = "text/plain; version=0.0.4; charset=utf-8"
CONTENT_TYPE_JSON = "application/json; charset=utf-8"


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def render_prometheus(
    registry: MetricsRegistry | None = None,
) -> str:
    """Prometheus text for ``registry`` (default: active; '' if off)."""
    if registry is None:
        registry = metrics.active()
    if registry is None:
        return ""
    counters = registry.counters()
    gauges = registry.gauges()
    hists = registry.histograms()
    lines: list[str] = []
    for name in sorted(metrics.descriptors()):
        descriptor = metrics.descriptors()[name]
        series_scalars = sorted(
            (key, value)
            for key, value in (
                counters if descriptor.kind == "counter" else gauges
            ).items()
            if key[0] == name
        ) if descriptor.kind in ("counter", "gauge") else []
        series_hists = sorted(
            (key, packed)
            for key, packed in hists.items()
            if key[0] == name
        ) if descriptor.kind == "histogram" else []
        if descriptor.kind == "histogram" and not series_hists:
            continue
        if descriptor.help:
            lines.append(f"# HELP {name} {descriptor.help}")
        lines.append(f"# TYPE {name} {descriptor.kind}")
        if descriptor.kind in ("counter", "gauge"):
            if not series_scalars:
                # Declared but untouched: expose an explicit zero so
                # dashboards see the family before first increment.
                lines.append(f"{name} 0")
            for (_, labels), value in series_scalars:
                lines.append(
                    f"{name}{_render_labels(labels)}"
                    f" {_format_value(value)}"
                )
        else:
            for (_, labels), packed in series_hists:
                buckets, counts, total, count = packed
                cumulative = 0
                for bound, bucket_count in zip(buckets, counts):
                    cumulative += bucket_count
                    le = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels + (('le', le),))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(labels + (('le', '+Inf'),))} {count}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)}"
                    f" {_format_value(total)}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def status_payload(
    status: Callable[[], dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """The /status JSON body: span tail + the owner's live status."""
    payload: dict[str, Any] = {
        "run_id": obs_events.run_id(),
        "uptime_seconds": round(obs_events.uptime_seconds(), 3),
        "spans": [
            {"name": name, "seconds": seconds}
            for name, seconds in trace.spans()
        ],
    }
    if status is not None:
        try:
            payload.update(status())
        except Exception as exc:  # pragma: no cover - defensive
            payload["status_error"] = f"{type(exc).__name__}: {exc}"
    return payload


#: A rendered HTTP response: (status code, content type, body,
#: extra headers). ``_get``/``_post`` return one, or ``None`` for 404.
#: The body is normally ``bytes`` (Content-Length framing); a
#: *callable* body streams instead — it is invoked with the socket's
#: write file after the headers go out and frames its own output
#: (the SSE route), with no Content-Length header sent.
Response = tuple[
    int, str, "bytes | Callable[[Any], None]", dict[str, str]
]


class MetricsServer:
    """The /metrics + /status endpoint on a daemon thread.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`. Binds ``host`` (default loopback) only — this is
    an operator-local observability port, not a public listener.

    Subclasses (:class:`repro.obs.console.ConsoleServer`) extend the
    route table by overriding :meth:`_get` / :meth:`_post`, which map
    ``(path, query)`` to a :data:`Response` or ``None`` for 404. The
    base server answers GET and HEAD; POST to any base route is 405.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        status: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self._requested = port
        self._host = host
        self._status = status
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.port: int | None = None
        #: Set by :meth:`stop` before the listener shuts down so
        #: long-lived streaming handlers (SSE) notice and exit their
        #: write loops instead of pinning the shutdown join.
        self.stopping = threading.Event()

    # ------------------------------------------------------------------
    # Route table
    # ------------------------------------------------------------------

    def _get(self, path: str, query: dict[str, str]) -> Response | None:
        if path == "/metrics":
            body = render_prometheus().encode("utf-8")
            return (
                200,
                CONTENT_TYPE_METRICS,
                body,
                {"Cache-Control": "no-store"},
            )
        if path == "/status":
            body = json.dumps(
                status_payload(self._status), default=str
            ).encode("utf-8")
            return (
                200,
                CONTENT_TYPE_JSON,
                body,
                {"Cache-Control": "no-store"},
            )
        return None

    def _post(
        self, path: str, query: dict[str, str], body: bytes
    ) -> Response | None:
        return None

    def _allows_post(self, path: str) -> bool:
        """True when ``path`` is a POST route (405 for GET, not 404)."""
        return False

    # ------------------------------------------------------------------
    # Server lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "MetricsServer":
        owner = self
        self.stopping.clear()

        class _Handler(BaseHTTPRequestHandler):
            def _parse(self) -> tuple[str, dict[str, str]]:
                path, _, raw_query = self.path.partition("?")
                query = {
                    key: values[-1]
                    for key, values in urllib.parse.parse_qs(
                        raw_query, keep_blank_values=True
                    ).items()
                }
                # EventSource reconnects resume via the Last-Event-ID
                # header; surface it to routes as a query default so
                # the route table stays (path, query) -> Response.
                last_event = self.headers.get("Last-Event-ID")
                if last_event is not None:
                    query.setdefault("last_id", last_event)
                return urllib.parse.unquote(path), query

            def _reply(
                self, response: Response | None, head_only: bool = False
            ) -> None:
                if response is None:
                    self.send_error(404, "unknown path")
                    return
                status, ctype, body, headers = response
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                if not callable(body):
                    self.send_header(
                        "Content-Length", str(len(body))
                    )
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                if head_only:
                    return
                if callable(body):
                    body(self.wfile)
                else:
                    self.wfile.write(body)

            def _run(self, head_only: bool = False) -> None:
                try:
                    path, query = self._parse()
                    if self.command == "POST":
                        length = int(
                            self.headers.get("Content-Length") or 0
                        )
                        payload = (
                            self.rfile.read(length) if length else b""
                        )
                        response = owner._post(path, query, payload)
                        if response is None and (
                            owner._get(path, query) is not None
                        ):
                            response = (
                                405,
                                CONTENT_TYPE_JSON,
                                b'{"error": "method not allowed"}',
                                {"Allow": "GET, HEAD"},
                            )
                    else:
                        response = owner._get(path, query)
                        if response is None and owner._allows_post(path):
                            response = (
                                405,
                                CONTENT_TYPE_JSON,
                                b'{"error": "method not allowed"}',
                                {"Allow": "POST"},
                            )
                    self._reply(response, head_only=head_only)
                except (BrokenPipeError, ConnectionResetError):
                    # Scraper hung up mid-response; nothing to salvage.
                    logger.debug("client disconnected mid-response")
                except Exception as exc:
                    # A route bug must degrade to a JSON 500, not a
                    # dropped connection killing the poller.
                    logger.exception("endpoint error on %s", self.path)
                    try:
                        self._reply((
                            500,
                            CONTENT_TYPE_JSON,
                            json.dumps({
                                "error":
                                    f"{type(exc).__name__}: {exc}",
                            }).encode("utf-8"),
                            {},
                        ), head_only=head_only)
                    except (BrokenPipeError, ConnectionResetError,
                            OSError):
                        pass

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                self._run()

            def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
                self._run(head_only=True)

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                self._run()

            def log_message(self, format: str, *args) -> None:
                logger.debug(
                    "metrics endpoint: " + format, *args
                )

        self._server = ThreadingHTTPServer(
            (self._host, self._requested), _Handler
        )
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-serve",
            daemon=True,
        )
        self._thread.start()
        logger.info(
            "serving /metrics and /status on http://%s:%d",
            self._host,
            self.port,
        )
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self.stopping.set()
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        logger.info("metrics endpoint on port %s stopped", self.port)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
