"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.flows.addresses import ip_to_int
from repro.flows.aggregate import ranked_from_histogram, table_histogram
from repro.flows.record import FlowRecord, Protocol, TcpFlags
from repro.flows.trace import FlowTrace, TraceStats
from repro.synth.background import BackgroundConfig
from repro.synth.scenario import Scenario
from repro.synth.topology import Topology


def make_flow(
    src="10.0.0.1",
    dst="10.1.0.2",
    sport=1234,
    dport=80,
    proto=Protocol.TCP,
    packets=10,
    bytes_=500,
    start=0.0,
    end=1.0,
    flags=0,
    router=0,
    sampling=1,
) -> FlowRecord:
    """Concise flow-record factory used across the suite."""
    return FlowRecord(
        src_ip=ip_to_int(src) if isinstance(src, str) else src,
        dst_ip=ip_to_int(dst) if isinstance(dst, str) else dst,
        src_port=sport,
        dst_port=dport,
        proto=int(proto),
        packets=packets,
        bytes=bytes_,
        start=start,
        end=end,
        tcp_flags=int(flags),
        router=router,
        sampling_rate=sampling,
    )


def window_count(trace, start, end, flow_filter=None) -> TraceStats:
    """``ArchiveReader.count`` answered in memory: the counters of a
    trace's window query (``start`` bounds an empty answer)."""
    rows = trace.query_table(start, end, flow_filter)
    return FlowTrace(rows, origin=start).stats()


def window_top(trace, start, end, feature, n=10, by_packets=False,
               flow_filter=None) -> list[tuple[int, int]]:
    """``ArchiveReader.top_feature_values`` answered in memory, with
    the same ranking."""
    rows = trace.query_table(start, end, flow_filter)
    weighting = "packets" if by_packets else "flows"
    return ranked_from_histogram(
        *table_histogram(rows, feature, (weighting,)), n
    )


@pytest.fixture(scope="session")
def topology() -> Topology:
    """One shared GEANT-like topology (construction is not free)."""
    return Topology()


@pytest.fixture(scope="session")
def small_scenario(topology) -> Scenario:
    """A small 4-bin scenario skeleton with light background."""
    return Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=5.0),
        bin_count=4,
    )


@pytest.fixture()
def syn_flow() -> FlowRecord:
    """A single bare-SYN TCP flow."""
    return make_flow(flags=TcpFlags.SYN, packets=1, bytes_=40)
