"""The benchmark's own tests. Run explicitly (tier-1 collects only
``tests/``)::

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

They spawn quick-scale runs of all four workloads, so expect ~2 min.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_e2e  # noqa: E402  (puts <root>/src on sys.path)
import fixtures  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.collector.decode import (  # noqa: E402
    TemplateCache,
    decode_datagram,
    encode_data_set,
    encode_ipfix_datagram,
    encode_v9_datagram,
)
from repro.flows import netflow_v5  # noqa: E402
from repro.flows.table import FlowTable  # noqa: E402

SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((bench_e2e.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fixture():
    fixtures.ensure(SEED, bench_e2e.CACHE_DIR)
    return fixtures.load(SEED, bench_e2e.CACHE_DIR)


def _quick(trace: bool) -> dict:
    return {
        name: bench_e2e.run_workload(
            name, SEED, bench_e2e.QUICK_SECONDS, trace, workers=1,
            dry_starts=0,
        )
        for name in workloads.WORKLOADS
    }


@pytest.fixture(scope="module")
def untraced():
    return _quick(trace=False)


@pytest.fixture(scope="module")
def traced_twice():
    return _quick(trace=True), _quick(trace=True)


# -- names and the contract file ----------------------------------------------


def test_names_are_well_formed_and_match_benchmark_json():
    declared = {
        "workloads": [w["name"] for w in BENCHMARK["workloads"]],
        "end_to_end": [m["name"] for m in BENCHMARK["end_to_end"]],
        "per_layer": [m["name"] for m in BENCHMARK["per_layer"]],
    }
    assert declared["workloads"] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", layers.END_TO_END),
                       ("per_layer", layers.PER_LAYER)):
        assert declared[key] == [name for name, _, _ in table]
        for spec, (name, unit, better) in zip(BENCHMARK[key], table):
            assert (spec["unit"], spec["better"]) == (unit, better)
    names = sum(declared.values(), [])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert all(
        0 < metric["bound"] <= 0.25 for metric in BENCHMARK["end_to_end"]
    )


def test_every_end_to_end_metric_is_emitted_for_every_workload(untraced):
    for name, result in untraced.items():
        contract = bench_e2e.contract_result(result, trace=False)
        assert contract["correct"], (name, result["failures"])
        assert contract["attempted"] >= 1 and contract["failed"] == 0
        assert list(contract["metrics"]) == [
            metric for metric, _, _ in layers.END_TO_END
        ]
        for metric, entry in contract["metrics"].items():
            assert entry["value"] > 0, (name, metric)


def test_traced_runs_emit_every_layer_metric_and_repeat_exactly(
    traced_twice,
):
    first, second = traced_twice
    # Counts that depend on inputs only; chunk and journal-event counts
    # follow UDP batching, which follows the clock.
    exact = (
        "collector.flows", "collector.datagrams", "stream.windows_closed",
        "mining.runs", "system.alarmdb_ops",
    )
    for name in workloads.WORKLOADS:
        a, b = first[name], second[name]
        assert a["failed"] == b["failed"] == 0, (a["failures"], name)
        assert set(a["layers"]) == {m for m, _, _ in layers.PER_LAYER}
        for metric in exact:
            assert a["layers"][metric] == b["layers"][metric], metric
        for key in ("flows", "windows", "alarm_ids", "window_flows"):
            assert a["info"][key] == b["info"][key], (name, key)
    storm = first["triage_storm"]["layers"]
    assert storm["collector.flows"] == 0  # the collector is bypassed
    assert storm["mining.runs"] >= first["triage_storm"]["info"]["windows"]
    assert first["udp_mixed_saturate"]["layers"]["collector.flows"] \
        == first["udp_mixed_saturate"]["info"]["flows"]
    assert (bench_e2e.OUT_DIR / "trace-triage_storm.json").exists()


# -- fixtures -----------------------------------------------------------------


def _reference_datagram(kind, ident, rows, seq):
    """What the repo's own encoders produce for the same rows."""
    records = FlowTable(rows).to_records()
    if kind == "v5":
        return netflow_v5.encode_packet(
            records, boot_time=0.0, export_time=0.0,
            flow_sequence=seq, engine_id=ident,
        )
    template, first, last = (
        (fixtures.V9_TEMPLATE, 22, 21) if kind == "v9"
        else (fixtures.IPFIX_TEMPLATE, 152, 153)
    )
    data_set = encode_data_set(template, [
        {8: r.src_ip, 12: r.dst_ip, 7: r.src_port, 11: r.dst_port,
         4: r.proto, 6: r.tcp_flags, 10: r.router, 2: r.packets,
         1: r.bytes, first: round(r.start * 1000.0),
         last: round(r.end * 1000.0)}
        for r in records
    ])
    if kind == "v9":
        return encode_v9_datagram([data_set], sequence=seq,
                                  source_id=ident)
    return encode_ipfix_datagram([data_set], sequence=seq, domain=ident)


def test_encoders_match_the_repo_codecs_and_round_trip(fixture):
    wire = fixtures.WireBins(fixture)
    bin_id, window = fixture.anomalous[1], 3
    rows = fixture.window_rows(bin_id, window)
    seq = [0] * len(fixtures.EXPORTERS)
    datagrams = wire.window_datagrams(bin_id, window, seq)
    data = datagrams[2:]  # two template datagrams lead the window
    caches = {}
    decoded = []
    for position, datagram in enumerate(datagrams):
        index = (position - 2) % 4 if position >= 2 else position + 2
        cache = caches.setdefault(index, TemplateCache())
        result = decode_datagram(datagram, 0.0, cache)
        assert result.malformed == 0 and result.buffered_sets == 0
        decoded.append(result.rows)
    assert np.concatenate(decoded).tobytes() == rows.tobytes()
    per = fixtures.FLOWS_PER_DATAGRAM
    for position in (0, 1, 2, 3, len(data) - 1):
        index = position % 4
        kind, ident = fixtures.EXPORTERS[index]
        units = {"v5": per, "v9": 1, "ipfix": per}[kind]
        sequence = position // 4 * units + (1 if kind == "v9" else 0)
        expected = _reference_datagram(
            kind, ident, rows[position * per:(position + 1) * per],
            sequence,
        )
        assert data[position] == expected, (kind, position)


def test_fixture_is_deterministic_and_windows_tile(fixture, tmp_path):
    fixtures.ensure(SEED, tmp_path)
    again = fixtures.load(SEED, tmp_path)
    assert again.sha256 == fixture.sha256
    first = fixture.window_rows(0, 0)
    later = fixture.window_rows(0, 5)
    assert np.allclose(later["start"] - first["start"],
                       5 * fixtures.WINDOW_SECONDS)
    assert first["start"].min() >= fixtures.ORIGIN
    assert first["start"].max() < fixtures.ORIGIN + fixtures.WINDOW_SECONDS
    assert all(len(rows) % 120 == 0 for rows in fixture.rows)
    assert sorted(t["name"] for t in fixture.truths.values()) \
        == sorted(fixtures.ANOMALY_NAMES)


# -- spans --------------------------------------------------------------------


def test_self_time_arithmetic_on_a_nested_tree():
    #   root 0..10
    #     a 1..4   (child b 2..3)
    #     a 5..9   (children c 5..6, c 8..9)
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 5.0, 6.0, 3],
        ["c", 8.0, 9.0, 3],
    ]
    times = spans.self_times(tree)
    assert times == {
        "root": [3.0], "a": [2.0, 2.0], "b": [1.0], "c": [1.0, 1.0],
    }
    assert sum(sum(v) for v in times.values()) == 10.0
    clipped = spans.self_times(tree, since=2.5, until=8.5)
    assert clipped["root"] == [pytest.approx(1.0)]
    assert clipped["a"] == [pytest.approx(1.0), pytest.approx(2.0)]
    assert clipped["b"] == [pytest.approx(0.5)]
    assert clipped["c"] == [pytest.approx(1.0), pytest.approx(0.5)]
    assert sum(sum(v) for v in clipped.values()) == pytest.approx(6.0)


def test_recorder_wraps_and_restores():
    class Target:
        def work(self, value):
            return value + 1

    recorder = spans.Recorder("t")
    original = Target.__dict__["work"]
    recorder.patch(Target, "work", recorder.wrap("layer.work", original))
    assert Target().work(1) == 2
    recorder.restore()
    assert Target.__dict__["work"] is original
    assert len(recorder.durations("layer.work")) == 1


# -- the machine-speed witness ------------------------------------------------


def test_witness_integrates_machine_speed_over_time():
    witness = workloads.Witness()
    spin = workloads.REFERENCE_SPIN_SECONDS
    # Speed 1 until t=2, then 0.5; samples unevenly spaced.
    witness.samples = [
        (1.0, spin), (2.0, spin), (2.5, 2 * spin), (4.0, 2 * spin),
    ]
    assert witness.reference_seconds(1.0, 4.0) == pytest.approx(2.0)
    assert witness.reference_seconds(0.0, 5.0) == pytest.approx(3.5)
    assert witness.reference_seconds(
        np.array([1.5, 3.0]), np.array([2.0, 3.2])
    ).tolist() == [pytest.approx(0.5), pytest.approx(0.1)]
    assert witness.spin_ms(0.0, 5.0) == pytest.approx(1500.0 * spin)


def test_time_like_metrics_are_speed_normalised(untraced):
    for name, result in untraced.items():
        info = result["info"]
        assert 0.1 < info["machine_speed"] < 10.0, name
        if name != "udp_mixed_paced":
            assert result["metrics"]["flows_per_s"] == pytest.approx(
                info["flows"] / (info["wall_s"] * info["machine_speed"])
            )


# -- hygiene ------------------------------------------------------------------


def test_nothing_is_left_behind(untraced):
    assert not list(Path("/dev/shm").glob("repro-*"))
    assert not list(bench_e2e.OUT_DIR.glob("run-*"))
    survivors = subprocess.run(
        ["pgrep", "-f", "bench_e2e.py --child"],
        capture_output=True, text=True,
    ).stdout.split()
    assert survivors == []
    allowed = {".cache", "out", "__pycache__", ".pytest_cache"}
    extra = [
        p.name for p in HERE.iterdir()
        if p.name not in allowed and p.suffix not in (".py", ".md")
    ]
    assert extra == []
