#!/usr/bin/env python3
"""Streaming monitor: online detection and live triage, end to end.

The paper's system ran online: a detector feeding an alarm database
whose open alarms were continuously triaged against a rotating NfDump
archive. This example reproduces that loop in-process:

1. synthesize a day-slice of backbone traffic with two injected
   anomalies (a port scan, then a UDP flood);
2. train the NetReflex-like detector on the leading clean bins;
3. replay the rest through the sliding-window engine at 600x recorded
   time — chunks arrive, the watermark advances, windows close,
   detectors fire incrementally, and triage reports stream out while
   ingest continues;
4. print the resulting alarm queue with triage verdicts.

Run:  python examples/streaming_monitor.py
"""

from repro.detect import NetReflexDetector
from repro.flows import ip_to_int
from repro.stream import ReplayDriver, StreamEngine
from repro.synth import (
    BackgroundConfig,
    PortScan,
    Scenario,
    Topology,
    UdpFlood,
)

TRAIN_BINS = 8


def main() -> None:
    # 1. A 12-bin labelled scenario: clean lead-in, then two anomalies.
    topology = Topology()
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=15.0),
        bin_count=12,
    )
    target = topology.host_address(topology.pops[9], 3)
    scenario.add(
        PortScan("scan", ip_to_int("203.0.113.99"), target,
                 flow_count=8000, src_port=55548),
        start_bin=9,
    )
    scenario.add(
        UdpFlood("flood", ip_to_int("198.51.100.7"), target,
                 packets_total=2_000_000),
        start_bin=10,
    )
    labeled = scenario.build(seed=7)
    trace = labeled.trace
    print(f"scenario: {len(trace)} flows over {scenario.bin_count} "
          f"five-minute bins, {len(labeled.truths)} injected anomalies")

    # 2. Train on the clean leading bins (batch, as the NOC would).
    split = trace.origin + TRAIN_BINS * trace.bin_seconds
    detector = NetReflexDetector()
    detector.train(trace.where(lambda f: f.start < split))

    # 3. Stream the live portion through the online engine.
    def on_window(result) -> None:
        window = result.window
        line = (f"  window {window.index} "
                f"[{window.start:.0f}, {window.end:.0f}) closed: "
                f"{window.flows} flows")
        if result.alarms:
            line += f", {len(result.alarms)} alarm(s)"
        print(line)
        for alarm in result.alarms:
            print(f"    ALARM {alarm.describe()}")
        for merged_id in result.merged:
            print(f"    re-fire suppressed: merged into {merged_id}")
        for triaged in result.triage:
            print(f"    triage {triaged.alarm.alarm_id}: "
                  f"{triaged.verdict.summary()}")

    engine = StreamEngine(
        [detector],
        window_seconds=trace.bin_seconds,
        origin=split,
        lateness_seconds=0.0,
        dedup_window=600.0,
        triage=True,
        on_window=on_window,
    )
    live = trace.between_table(split, trace.span[1] + 1.0)
    print(f"replaying {len(live)} live flows at 600x recorded time...")
    driver = ReplayDriver(live, speedup=600.0, chunk_rows=4096)
    _, replay = driver.replay(engine)

    # 4. The session summary an operator would see.
    stats = engine.stats
    print()
    print(f"replay done: {stats.flows} flows in "
          f"{replay.wall_seconds:.2f}s wall "
          f"({replay.achieved_speedup:.0f}x achieved, "
          f"{replay.flows_per_second:,.0f} flows/s); "
          f"{stats.windows_closed} windows, {stats.alarms} alarms "
          f"(+{stats.alarms_merged} merged re-fires), "
          f"{stats.triaged} triaged, {stats.late_dropped} late")
    print("alarm queue:")
    for alarm in engine.alarmdb.list_alarms():
        status, verdict = engine.alarmdb.status_of(alarm.alarm_id)
        print(f"  [{status:9s}] {alarm.describe()}")
        if verdict:
            print(f"              {verdict}")


if __name__ == "__main__":
    main()
