"""The four workloads; each runs inside its own child process.

Every workload drives the composed pipeline through the public surface
only — ``repro.api.Session``, the ``repro.api.sources`` plug-in
registry and each layer's public classes — and checks its outputs in
the same call. Sizes are frozen: the flows a workload offers are
``FLOWS_PER_BUDGET_SECOND[name] * --seconds`` and never depend on how
fast this run happens to go.
"""

from __future__ import annotations

import os
import resource
import signal
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api
from repro.archive import ArchiveReader
from repro.collector import UdpSource
from repro.eval.groundtruth import itemset_hits_truth
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable
from repro.obs import metrics as obs_metrics

import fixtures as fx
import spans as sp

WORKLOADS = (
    "udp_mixed_saturate",
    "udp_mixed_paced",
    "triage_storm",
    "archive_forensics",
)
#: The open-loop schedule of ``udp_mixed_paced``.
PACED_FLOWS_PER_SECOND = 25_000
#: Flows offered per second of ``--seconds``. Frozen from the seed
#: commit on the 2-core reference box, where they make the measured
#: phase last about ``--seconds``; a faster program finishes sooner.
FLOWS_PER_BUDGET_SECOND = {
    "udp_mixed_saturate": 88_000,
    "udp_mixed_paced": PACED_FLOWS_PER_SECOND,
    "triage_storm": 44_000,
    "archive_forensics": 150_000,
}
#: Injected anomaly windows of the two UDP workloads.
UDP_ANOMALIES = {"udp_mixed_saturate": 3, "udp_mixed_paced": 2}
LATENESS_SECONDS = 5.0
CHUNK_ROWS = 8192
#: Closed-loop bounds of ``udp_mixed_saturate``.
IN_FLIGHT_FLOWS = 45_000
UNSEALED_WINDOWS = 2
RCVBUF = 1 << 22
#: Windows whose latency is discarded as warm-up.
WARMUP_WINDOWS = 2
#: The machine-speed witness (see :class:`Witness`): CPU seconds its spin
#: takes on the reference box in a calm spell — the scale of every
#: speed-normalised metric — and how often it is taken.
REFERENCE_SPIN_SECONDS = 1.45e-3
WITNESS_PERIOD = 0.04
#: Alarms ``archive_forensics`` leaves open for the resume phase,
#: per second of --seconds (at least six).
RESUME_ALARMS_PER_SECOND = 1.0
#: Operator script of ``archive_forensics`` per second of --seconds.
NARROW_PER_SECOND = 40
PUSHDOWN_PER_SECOND = 40
WIDE_PER_SECOND = 6


class DryRun(Exception):
    """Raised at ``ready`` by a start that only measures set-up."""


class Witness:
    """The machine-speed witness of one child process.

    The box is a shared guest: for seconds to minutes the same code
    runs 1.3x to 3x slower, CPU time included, so raw seconds do not
    repeat. Every :data:`WITNESS_PERIOD` an interval timer interrupts
    the main thread — the engine's, or the operator's — which then
    times a fixed spin, half interpreter-bound (a Python loop), half
    memory-latency-bound (a numpy gather over 32 MB), which is how the
    pipeline slows down. The spin runs where the work runs, on the same
    core in the same state, and is timed on the thread's own CPU clock,
    so waiting for the GIL or for a core is not counted and a slower
    machine is. Every time-like end-to-end metric is the integral of
    the machine speed over the interval it was measured in
    (:meth:`reference_seconds`): seconds as the reference box in a calm
    spell would count them.
    """

    def __init__(self) -> None:
        #: (``perf_counter`` at the end of a spin, its CPU seconds).
        self.samples: list[tuple[float, float]] = []
        rng = np.random.default_rng(1)
        self._table = np.arange(4_000_000, dtype=np.int64)
        self._picks = rng.integers(0, len(self._table), 40_000)

    def start(self) -> None:
        """Main thread only. Nothing under ``src/`` uses ``SIGALRM``;
        system calls the signal interrupts are retried (PEP 475), and
        ``fork`` does not hand the timer on to worker processes."""
        signal.signal(signal.SIGALRM, self._spin)
        signal.setitimer(signal.ITIMER_REAL, WITNESS_PERIOD, WITNESS_PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _spin(self, signum, frame) -> None:
        started = time.thread_time()
        total = 0
        for index in range(20_000):
            total += index & 3
        self._table[self._picks].sum()
        spin = time.thread_time() - started
        self.samples.append((time.perf_counter(), spin))

    def reference_seconds(self, since, until):
        """Seconds the reference box would have taken for what ran
        between ``since`` and ``until`` (``perf_counter`` seconds,
        scalars or arrays): the integral of machine speed, 1.0 being the
        reference. A sample's speed stands for the time since the
        sample before it; the first and last stand for what lies
        outside them."""
        at = np.array([at for at, _ in self.samples])
        speed = REFERENCE_SPIN_SECONDS / np.array(
            [spin for _, spin in self.samples]
        )
        summed = np.concatenate([[0.0], np.cumsum(speed[1:] * np.diff(at))])

        def integral(moment):
            return (
                np.interp(moment, at, summed)
                + np.minimum(moment - at[0], 0.0) * speed[0]
                + np.maximum(moment - at[-1], 0.0) * speed[-1]
            )

        return integral(until) - integral(since)

    def spin_ms(self, since: float, until: float) -> float:
        """Mean spin over the interval, in milliseconds."""
        return statistics.fmean(
            spin for at, spin in self.samples if since <= at <= until
        ) * 1000.0


@dataclass
class Run:
    """Arguments and collected facts of one child process."""

    workload: str
    seed: int
    seconds: float
    workers: int
    dry: bool
    workdir: Path
    cache_dir: Path
    #: ``time.time()`` at which the parent spawned this process.
    started: float
    witness: Witness
    recorder: sp.Recorder | None = None
    fixture: fx.Fixture | None = None
    plan: list[int] = field(default_factory=list)
    #: ``time.time()`` and ``perf_counter`` at ready, and the measured
    #: phase's two ends on the ``perf_counter`` and CPU clocks.
    ready_at: float = 0.0
    ready_tick: float = 0.0
    t0: float = 0.0
    t1: float = 0.0
    cpu0: float = 0.0
    cpu1: float = 0.0
    flows: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Seconds to each operator-visible result (one per window or
    #: narrow query).
    latencies: list[float] = field(default_factory=list)
    #: The stages a result passes through one after the other, each as
    #: (``perf_counter`` at which a sample ended, its seconds, whether
    #: the machine's speed sets them); the result latency is the sum of
    #: the stages' medians.
    stages: list[tuple[np.ndarray, np.ndarray, bool]] = field(
        default_factory=list
    )
    facts: dict = field(default_factory=dict)

    def fail(self, name: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{name} x{count}" if count > 1 else name)

    def ready(self) -> None:
        """End of set-up: everything is built, no input seen yet."""
        self.ready_at = time.time()
        self.ready_tick = time.perf_counter()
        if self.dry:
            raise DryRun

    def begin(self) -> None:
        # Traced runs: the program's counters as set-up left them.
        self.facts["counters_before"] = obs_metrics.snapshot()
        self.t0 = time.perf_counter()
        self.cpu0 = _cpu_seconds()

    def finish(self) -> None:
        self.t1 = time.perf_counter()
        self.cpu1 = _cpu_seconds()

    def setup_seconds(self) -> tuple[float, float]:
        """(speed-normalised, raw) seconds from spawn to ready. The
        witness starts once numpy is imported; its speed stands for
        the interpreter start before it too."""
        raw = self.ready_at - self.started
        return float(self.witness.reference_seconds(
            self.ready_tick - raw, self.ready_tick
        )), raw

    def end_to_end(self) -> dict:
        """The measured phase's end-to-end metrics, time-like ones in
        reference-box seconds (see :class:`Witness`)."""
        wall = self.t1 - self.t0
        reference = float(self.witness.reference_seconds(self.t0, self.t1))
        latency = sum(
            float(np.median(
                self.witness.reference_seconds(ends - seconds, ends)
                if by_machine else seconds
            ))
            for ends, seconds, by_machine in self.stages
        )
        return {
            # The open loop's wall is its schedule, whatever the machine.
            "flows_per_s": self.flows / (
                wall if self.workload == "udp_mixed_paced" else reference
            ),
            "result_latency_p50_ms": latency * 1000.0,
            "cpu_s_per_mflow": (self.cpu1 - self.cpu0) * reference / wall
            / (self.flows / 1e6),
            "peak_rss_mb": peak_rss_mb(),
        }


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    return sum(os.times()[:4])


def peak_rss_mb() -> float:
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


# -- plans --------------------------------------------------------------------


def resume_alarms(seconds: float) -> int:
    return max(6, round(RESUME_ALARMS_PER_SECOND * seconds))


def build_plan(
    workload: str, seconds: float, fixture: fx.Fixture
) -> list[int]:
    """Bin id per live window, sized to the workload's flow budget."""
    budget = FLOWS_PER_BUDGET_SECOND[workload] * seconds
    anomalous = fixture.anomalous
    if workload in ("triage_storm", "archive_forensics"):
        plan: list[int] = []
        flows = 0
        while flows < budget or len(plan) < resume_alarms(seconds) + 2:
            plan.append(anomalous[len(plan) % len(anomalous)])
            flows += fixture.bin_flows(plan[-1])
        return plan
    count = UDP_ANOMALIES[workload]
    injected = [anomalous[k % len(anomalous)] for k in range(count)]
    clean_flows = statistics.mean(
        fixture.bin_flows(b) for b in fixture.clean
    )
    remaining = budget - sum(fixture.bin_flows(b) for b in injected)
    windows = count + max(count + 2, round(remaining / clean_flows))
    plan = [
        fixture.clean[i % len(fixture.clean)] for i in range(windows)
    ]
    for k, bin_id in enumerate(injected):
        plan[(k + 1) * windows // (count + 1)] = bin_id
    return plan


# -- sources ------------------------------------------------------------------


class BenchFeed(api.FlowSource):
    """``bench-feed``: the plan's windows as in-memory chunks.

    Yields chunks as the engine pulls them (closed loop by
    construction) and stamps the pull that will seal each window.
    ``bounded`` mode serves ``ingest``, which takes bounded sources.
    """

    kind = "bench-feed"
    stream_origin = fx.ORIGIN

    def __init__(
        self, spec, run: Run, windows: int, on_first_pull=None
    ) -> None:
        super().__init__(spec)
        self.run = run
        self.windows = windows
        self.on_first_pull = on_first_pull
        self.bounded = bool(spec.options.get("bounded", False))
        #: window index -> pull time of the chunk that seals it.
        self.due: dict[int, float] = {}

    def chunks(self, chunk_rows: int):
        run, fixture = self.run, self.run.fixture
        if self.on_first_pull is not None:
            self.on_first_pull()
        for window in range(self.windows):
            bin_id = run.plan[window]
            rows = fixture.window_rows(bin_id, window)
            trigger = fixture.trigger_row(bin_id, LATENESS_SECONDS)
            for offset in range(0, len(rows), chunk_rows):
                if offset <= trigger < offset + chunk_rows:
                    self.due[window - 1] = time.perf_counter()
                yield FlowTable(rows[offset:offset + chunk_rows])


class BenchUdpSource(UdpSource):
    """``udp`` re-registered: exposes the collector to the sender and
    observes the chunk queue from the consumer side."""

    def __init__(self, spec, run: Run) -> None:
        super().__init__(spec)
        self.run = run
        #: Rows of each chunk and when the engine received it.
        self.batch_rows: list[int] = []
        self.pulled_at: list[float] = []
        self.queue_depth_max = 0
        self.queue_wait_s = 0.0

    def chunks(self, chunk_rows: int):
        recorder = self.run.recorder
        inner = super().chunks(chunk_rows)
        while True:
            started = time.perf_counter()
            span = recorder.begin("collector.queue_wait") \
                if recorder else None
            try:
                table = next(inner)
            except StopIteration:
                return
            finally:
                if span is not None:
                    recorder.end(span)
                self.queue_wait_s += time.perf_counter() - started
            self.batch_rows.append(len(table))
            self.pulled_at.append(time.perf_counter())
            depth = self.collector.snapshot()["queue_depth"]
            self.queue_depth_max = max(self.queue_depth_max, depth)
            yield table


# -- the UDP sender -----------------------------------------------------------


class Sender(threading.Thread):
    """One exporter-side thread: closed loop or fixed schedule."""

    def __init__(
        self, run: Run, source: BenchUdpSource, paced: bool
    ) -> None:
        super().__init__(name="bench-sender", daemon=True)
        self.run_facts = run
        self.source = source
        self.paced = paced
        self.wire = fx.WireBins(run.fixture)
        self.sealed = 0
        self.abort = threading.Event()
        self.sent_flows = 0
        #: Due time of every data datagram, in sending order; per
        #: window, of the datagram that seals it, and its place in
        #: that order.
        self.due_at = np.zeros(
            sum(run.fixture.bin_flows(b) for b in run.plan)
            // fx.FLOWS_PER_DATAGRAM
        )
        self.due: dict[int, float] = {}
        self.trigger: dict[int, int] = {}
        self.late: list[float] = []
        self.error: BaseException | None = None
        self.in_flight_cap = _in_flight_cap()

    def run(self) -> None:
        try:
            self._send()
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc

    def _send(self) -> None:
        run, collector = self.run_facts, self.source.collector
        fixture, per_datagram = run.fixture, fx.FLOWS_PER_DATAGRAM
        templates = sum(1 for kind, _ in fx.EXPORTERS if kind != "v5")
        address = ("127.0.0.1", collector.port)
        seq = [0] * len(fx.EXPORTERS)
        sent = 0
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for window, bin_id in enumerate(run.plan):
                while not self.paced \
                        and window - self.sealed > UNSEALED_WINDOWS:
                    if self.abort.wait(0.0005):
                        return
                datagrams = self.wire.window_datagrams(
                    bin_id, window, seq
                )
                trigger = templates + fixture.trigger_row(
                    bin_id, LATENESS_SECONDS
                ) // per_datagram
                for index, datagram in enumerate(datagrams):
                    if self.paced:
                        due = run.t0 + sent / PACED_FLOWS_PER_SECOND
                        now = time.perf_counter()
                        if due > now:
                            time.sleep(due - now)
                            now = time.perf_counter()
                        self.late.append(now - due)
                    else:
                        while sent - collector.flows > self.in_flight_cap:
                            if self.abort.wait(0.0002):
                                return
                        due = time.perf_counter()
                    if index == trigger:
                        self.due[window - 1] = due
                        self.trigger[window - 1] = sent // per_datagram
                    sock.sendto(datagram, address)
                    if index >= templates:
                        self.due_at[sent // per_datagram] = due
                        sent += per_datagram
                        self.sent_flows = sent


def _in_flight_cap() -> int:
    """Undecoded flows the sender may have in the kernel buffer: the
    frozen 45k, or less where the kernel grants a smaller buffer than
    the collector asks for (then sending 45k would be kernel loss)."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
        granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    # The kernel charges a ~1.5 KB datagram as a 4 KB+ buffer.
    fits = granted // 4608 // 2 * fx.FLOWS_PER_DATAGRAM
    return max(fx.FLOWS_PER_DATAGRAM, min(IN_FLIGHT_FLOWS, fits))


# -- shared pieces of the stream workloads ------------------------------------


def _stream_session(run: Run, source_kind: str, **source_options):
    work = run.workdir
    return (
        api.session()
        .source(source_kind, **source_options)
        .detect("netreflex", train_path=run.fixture.train_path)
        .stream(
            fx.WINDOW_SECONDS,
            workers=run.workers,
            lateness_seconds=LATENESS_SECONDS,
            chunk_rows=CHUNK_ROWS,
            triage=True,
        )
        .archive(str(work / "archive"))
        .alarmdb(str(work / "alarms.db"))
        .events(str(work / "events"))
    )


def _check_windows(run: Run, result) -> None:
    """Per-window flow counts, alarms on every injected window, and
    the injected signature in each report's top itemset."""
    fixture, windows = run.fixture, result.windows
    run.attempted += len(run.plan)
    if len(windows) != len(run.plan):
        run.fail("windows_missing", abs(len(run.plan) - len(windows)))
    useful = triaged = 0
    alarm_ids: list[str] = []
    for sealed in windows:
        index = sealed.window.index
        if index >= len(run.plan):
            run.fail("window_beyond_plan")
            continue
        bin_id = run.plan[index]
        alarm_ids.extend(a.alarm_id for a in sealed.alarms)
        triaged += len(sealed.triage)
        useful += sum(1 for t in sealed.triage if t.report.useful)
        if sealed.window.flows != fixture.bin_flows(bin_id):
            run.fail(f"window_{index}_flow_count")
            continue
        if bin_id not in fixture.truths:
            continue
        if not sealed.alarms:
            run.fail(f"window_{index}_no_alarm")
            continue
        truth = fixture.ground_truth(bin_id, index)
        reports = [
            t.report for t in sealed.triage
            if t.alarm.start == truth.start
        ]
        if not reports or not reports[0].itemsets:
            run.fail(f"window_{index}_no_report")
        elif not itemset_hits_truth(
            reports[0].itemsets[0].itemset, truth
        ):
            run.fail(f"window_{index}_signature_missed")
    if result.stats.get("open"):
        run.fail("alarms_left_open", result.stats["open"])
    run.facts.update(
        alarm_ids=alarm_ids,
        window_flows=[w.window.flows for w in windows],
        windows_closed=result.stats["windows"],
        late_dropped=result.stats["late_dropped"],
        triaged=triaged,
        useful_reports=useful,
    )


def _window_latencies(
    sealed_at: dict[int, float], since: dict[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """(end, seconds) of ``sealed_at - since`` per window; warm-up
    windows and windows only the final flush sealed are skipped."""
    timed = [
        index for index in sorted(sealed_at)
        if index >= WARMUP_WINDOWS and index in since
    ]
    ends = np.array([sealed_at[index] for index in timed])
    return ends, ends - np.array([since[index] for index in timed])


def _run_udp(run: Run, paced: bool) -> None:
    flows = sum(run.fixture.bin_flows(b) for b in run.plan)
    holder: dict = {}
    sealed_at: dict[int, float] = {}

    def make_source(spec):
        holder["source"] = BenchUdpSource(spec, run)
        return holder["source"]

    def on_start(context) -> None:
        # Encoding the bins to datagrams is fixture loading: set-up.
        holder["sender"] = Sender(run, holder["source"], paced)
        run.ready()
        run.begin()
        holder["sender"].start()

    def on_window(result) -> None:
        sealed_at[result.window.index] = time.perf_counter()
        holder["sender"].sealed += 1

    api.sources.register("udp", make_source, replace=True)
    try:
        result = (
            _stream_session(
                run, "udp", port=0, origin=fx.ORIGIN, rcvbuf=RCVBUF,
                max_flows=flows, idle_seconds=5.0,
            )
            .on_start(on_start)
            .on_window(on_window)
            .run()
        )
    finally:
        api.sources.register("udp", UdpSource, replace=True)
        if "source" in holder:
            holder["source"].close()
        sender = holder.get("sender")
        if sender is not None and sender.ident is not None:  # started
            sender.abort.set()
            sender.join(timeout=10.0)
    run.finish()
    if sender.error is not None:
        raise sender.error
    source = holder["source"]
    run.flows = sender.sent_flows
    _check_windows(run, result)
    run.latencies = _window_latencies(sealed_at, sender.due)[1].tolist()
    # Datagrams arrive in order: the chunk that hands a datagram to the
    # engine is the first to end past the datagram's first flow. A
    # window's latency is far more spread than either of its parts is
    # (the batcher holds a flow 0 to 0.25 s), so the parts are timed
    # apart: every datagram's stay in the collector, and per window the
    # engine's time from the sealing chunk to the operator's result.
    delivered = np.cumsum(source.batch_rows)
    chunk_of = np.minimum(len(delivered) - 1, np.searchsorted(
        delivered,
        np.arange(len(sender.due_at)) * fx.FLOWS_PER_DATAGRAM, "right",
    ))
    arrived = np.array(source.pulled_at)[chunk_of]
    run.stages = [
        # On the schedule the batcher's age timer, not the machine,
        # sets how long a datagram stays; saturated, the backlog does.
        (arrived, arrived - sender.due_at, not paced),
        (*_window_latencies(sealed_at, {
            window: arrived[ordinal]
            for window, ordinal in sender.trigger.items()
        }), True),
    ]
    counters = result.payload["collector"]
    windowed = sum(run.facts["window_flows"])
    if sender.sent_flows != flows:
        run.fail("sender_stopped_early")
    # Conservation: every decoded flow is windowed or counted.
    if windowed + run.facts["late_dropped"] + counters["flows_dropped"] \
            != counters["flows"]:
        run.fail("flows_not_conserved")
    for name, value in (
        # Sent but never decoded: kernel loss, or a counted drop below.
        ("undecoded_flows", sender.sent_flows - counters["flows"]),
        ("datagrams_dropped", counters["datagrams_dropped"]),
        ("flows_dropped", counters["flows_dropped"]),
        ("late_dropped", run.facts["late_dropped"]),
        ("malformed", counters["malformed"]),
        ("sequence_lost", counters["sequence_lost"]),
        ("template_drops", counters["template_drops"]),
    ):
        if value:
            run.fail(name)
    if paced and len(run.latencies) >= 9:
        # A growing backlog shows as a rising tail: the schedule is
        # then above what the pipeline sustains, and the run is void.
        tail = run.latencies[-len(run.latencies) // 3:]
        if statistics.median(tail) > 3.0 * statistics.median(run.latencies):
            run.fail("backlog_growing")
    run.facts.update(
        collector=counters,
        queue_wait_s=source.queue_wait_s,
        queue_depth_max=source.queue_depth_max,
        batch_rows_p50=statistics.median(source.batch_rows or [0]),
        sender_late_ms_p90=(
            float(np.percentile(sender.late, 90)) * 1000.0
            if sender.late else 0.0
        ),
    )


def _run_storm(run: Run) -> None:
    holder: dict = {}
    sealed_at: dict[int, float] = {}

    def make_source(spec):
        holder["source"] = BenchFeed(
            spec, run, len(run.plan), on_first_pull=run.begin
        )
        return holder["source"]

    def on_window(result) -> None:
        sealed_at[result.window.index] = time.perf_counter()

    api.sources.register("bench-feed", make_source, replace=True)
    result = (
        _stream_session(run, "bench-feed")
        .on_start(lambda context: run.ready())
        .on_window(on_window)
        .run()
    )
    run.finish()
    run.flows = result.stats["flows"]
    _check_windows(run, result)
    run.stages = [
        (*_window_latencies(sealed_at, holder["source"].due), True)
    ]
    run.latencies = run.stages[0][1].tolist()
    if run.facts["late_dropped"]:
        run.fail("late_dropped")


# -- archive forensics --------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One step of the operator script and its numpy reference."""

    kind: str  # narrow | wide | count | top
    start: float
    end: float
    expression: str | None = None
    #: Equality predicates of ``expression`` as (column, value) pairs.
    where: tuple = ()
    feature: FlowFeature | None = None


_COLUMN_OF = {
    FlowFeature.DST_PORT: "dst_port",
    FlowFeature.SRC_IP: "src_ip",
    FlowFeature.DST_IP: "dst_ip",
}
_TOP_FEATURES = tuple(_COLUMN_OF)


def _query_script(run: Run) -> list[Query]:
    """The fixed operator script, in a fixed mixed order. Narrow
    queries pick one minute of one window and one popular port;
    push-downs cover whole windows; wide scans cover a third of the
    capture."""
    rng = np.random.default_rng(run.seed)
    windows = len(run.plan)
    width = fx.WINDOW_SECONDS
    script: list[Query] = []
    for _ in range(max(4, round(NARROW_PER_SECOND * run.seconds))):
        start = fx.ORIGIN + width * int(rng.integers(windows)) \
            + 60.0 * int(rng.integers(5))
        port = int(rng.choice((80, 443, 53, 25, 22, 445)))
        script.append(Query(
            "narrow", start, start + 60.0, f"dst port {port}",
            (("dst_port", port),),
        ))
    for k in range(max(4, round(PUSHDOWN_PER_SECOND * run.seconds))):
        start = fx.ORIGIN + width * int(rng.integers(windows))
        end = start + width * int(rng.integers(1, 4))
        if k % 2:
            script.append(Query("count", start, end))
        else:
            script.append(Query(
                "top", start, end,
                feature=_TOP_FEATURES[k // 2 % len(_TOP_FEATURES)],
            ))
    span = max(1, windows // 3)
    for _ in range(max(2, round(WIDE_PER_SECOND * run.seconds))):
        start = fx.ORIGIN + width * int(
            rng.integers(max(1, windows - span))
        )
        proto = int(rng.choice((6, 17)))
        script.append(Query(
            "wide", start, start + width * span,
            f"proto {proto} and dst port 53",
            (("proto", proto), ("dst_port", 53)),
        ))
    # Mixed, as an operator asks them: a class timed in one burst
    # would see one instant of the machine.
    return [script[index] for index in rng.permutation(len(script))]


def _answer_ok(query: Query, answer, plan, rows: np.ndarray) -> bool:
    """``answer`` against a numpy evaluation over the capture rows
    that start inside the query window."""
    if query.kind in ("narrow", "wide"):
        mask = np.ones(len(rows), dtype=bool)
        for column, value in query.where:
            mask &= rows[column] == value
        return answer == (int(mask.sum()), int(rows["bytes"][mask].sum()))
    if plan.payload_bytes_read:
        return False  # a push-down must answer from sidecars alone
    if query.kind == "count":
        return answer == (len(rows), int(rows["bytes"].sum()))
    values, counts = np.unique(
        rows[_COLUMN_OF[query.feature]], return_counts=True
    )
    lookup = dict(zip(values.tolist(), counts.tolist()))
    best = sorted(counts.tolist(), reverse=True)[:10]
    return [c for _, c in answer] == best \
        and all(lookup.get(v) == c for v, c in answer)


def _run_forensics(run: Run) -> None:
    fixture, work = run.fixture, run.workdir
    windows = len(run.plan)
    open_alarms = resume_alarms(run.seconds)
    capture = np.concatenate([
        fixture.window_rows(bin_id, window)
        for window, bin_id in enumerate(run.plan)
    ])
    def make_source(spec):
        return BenchFeed(
            spec, run,
            windows if spec.options.get("bounded") else open_alarms,
        )

    api.sources.register("bench-feed", make_source, replace=True)
    # Set-up: the detector fills the alarm DB the operator inherits —
    # a detection-only pass over the first windows leaves their alarms
    # open, as a collector that died before triage would.
    (
        api.session()
        .source("bench-feed")
        .detect("netreflex", train_path=fixture.train_path)
        .stream(
            fx.WINDOW_SECONDS, lateness_seconds=LATENESS_SECONDS,
            chunk_rows=CHUNK_ROWS,
        )
        .alarmdb(str(work / "alarms.db"))
        .run()
    )
    script = _query_script(run)
    run.ready()
    run.begin()
    # A: bulk ingest of the whole capture.
    ingest = (
        api.session()
        .source("bench-feed", bounded=True)
        .ingest(str(work / "archive"), window=fx.WINDOW_SECONDS)
        .run()
    )
    t_ingest = time.perf_counter()
    # B: archive-resume triage of the open alarms on two workers.
    resumed = (
        api.session()
        .source("archive", path=str(work / "archive"))
        .triage(workers=2)
        .alarmdb(str(work / "alarms.db"))
        .run()
    )
    t_triage = time.perf_counter()
    # C: the operator script, one client.
    reader = ArchiveReader(str(work / "archive"))
    answers: list[tuple] = []
    timings: dict[str, list[float]] = {
        "narrow": [], "wide": [], "count": [], "top": [],
    }
    plans = []
    narrow_ends: list[float] = []
    for query in script:
        started = time.perf_counter()
        if query.kind == "count":
            stats = reader.count(query.start, query.end)
            answer = (stats.flows, stats.bytes)
        elif query.kind == "top":
            answer = reader.top_feature_values(
                query.start, query.end, query.feature, n=10
            )
        else:
            table = reader.query_table(
                query.start, query.end, query.expression
            )
            answer = (len(table), int(table.column("bytes").sum()))
        ended = time.perf_counter()
        timings[query.kind].append(ended - started)
        if query.kind == "narrow":
            narrow_ends.append(ended)
        answers.append(answer)
        plans.append(reader.last_plan)
    run.finish()
    run.flows = len(capture)
    run.latencies = timings["narrow"]
    run.stages = [
        (np.array(narrow_ends), np.array(timings["narrow"]), True)
    ]
    # -- checks (after the clock stopped) ----------------------------------
    if ingest.stats["flows"] != len(capture):
        run.fail("ingest_row_count")
    starts = capture["start"]
    run.attempted += len(script)
    for query, answer, plan in zip(script, answers, plans):
        rows = capture[np.searchsorted(starts, query.start, "left"):
                       np.searchsorted(starts, query.end, "left")]
        if not _answer_ok(query, answer, plan, rows):
            run.fail(f"query_{query.kind}_mismatch")
    run.attempted += open_alarms
    if resumed.stats["triaged"] != open_alarms:
        run.fail(
            "alarms_not_triaged",
            abs(open_alarms - resumed.stats["triaged"]),
        )
    if resumed.stats["open"]:
        run.fail("alarms_left_open", resumed.stats["open"])
    for triaged in resumed.triage:
        window = round(
            (triaged.alarm.start - fx.ORIGIN) / fx.WINDOW_SECONDS
        )
        truth = fixture.ground_truth(run.plan[window], window)
        if not triaged.report.itemsets or not itemset_hits_truth(
            triaged.report.itemsets[0].itemset, truth
        ):
            run.fail(f"resume_window_{window}_signature_missed")
    considered = sum(p.partitions for p in plans)
    run.facts.update(
        alarm_ids=[t.alarm.alarm_id for t in resumed.triage],
        triaged=len(resumed.triage),
        useful_reports=sum(1 for t in resumed.triage if t.report.useful),
        ingest_s=t_ingest - run.t0,
        triage_s=t_triage - t_ingest,
        query_s=run.t1 - t_triage,
        scan_ms_p50=sp.median_ms(timings["wide"]),
        pushdown_ms_p50=sp.median_ms(timings["count"] + timings["top"]),
        pruned_share=(
            sum(p.pruned for p in plans) / considered
            if considered else 0.0
        ),
        payload_bytes_read_per_query=(
            sum(p.payload_bytes_read for p in plans) / len(plans)
        ),
        queries=len(script),
    )


# -- entry point --------------------------------------------------------------


def _count_ipc_bytes(run: Run) -> None:
    """Traced runs: note each worker pool's copied bytes as it closes
    (sessions build and close their pools internally)."""
    from repro.parallel.executor import ShardExecutor

    close = ShardExecutor.close
    copied: dict[int, int] = {}

    def counting_close(executor) -> None:
        copied[id(executor)] = executor.ipc_stats.copied_bytes
        run.facts["ipc_copied_bytes"] = sum(copied.values())
        close(executor)

    run.recorder.patch(ShardExecutor, "close", counting_close)


def execute(run: Run) -> None:
    """Run one workload to completion (or to ``ready`` when dry)."""
    run.fixture = fx.load(run.seed, run.cache_dir)
    run.plan = build_plan(run.workload, run.seconds, run.fixture)
    if run.recorder is not None:
        obs_metrics.enable()
        sp.instrument(run.recorder)
        _count_ipc_bytes(run)
    try:
        if run.workload == "udp_mixed_saturate":
            _run_udp(run, paced=False)
        elif run.workload == "udp_mixed_paced":
            _run_udp(run, paced=True)
        elif run.workload == "triage_storm":
            _run_storm(run)
        else:
            _run_forensics(run)
    finally:
        if run.recorder is not None:
            run.recorder.restore()
