"""Tests for the persistent flow archive (repro.archive).

Four layers of guarantees:

* **Round-trip / equivalence** — archive write → mmap read is
  byte-identical to the in-memory path: for any flow set and any
  window+filter query, the pruned archive query, the full-scan
  archive query and ``FlowTrace.query_table`` return the same bytes
  (Hypothesis drives this over random traces, windows and filters).
* **Durability / crash recovery** — partitions appear atomically
  (servable iff ``.flows`` and ``.idx`` exist and the ``.idx``
  checksum holds) and durably (the directory is fsynced after the last
  link); truncated or torn files are detected from metadata and
  quarantined, never served, and never take the rest of the archive
  down; a foreign schema version fails loudly with ``CodecError``.
* **Old formats** — archives written before the ``.idx`` sidecar
  (``tests/data/archive_v1``) or hash-sharded
  (``tests/data/archive_sharded``) are refused by every read path and
  migrated by compaction, crash-safely.
* **Integration** — the stream engine persists closed windows through
  the ring, batch/stream alarm equivalence holds archive-backed, and
  a *restarted* process resumes triage from the on-disk archive plus
  the file-backed alarm DB.
* **Compaction** — merging spills into sealed sorted partitions
  changes the file set, never a query result; interrupted compaction
  (merged file and its inputs both on disk) never double-counts.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import window_count, window_top
from repro.archive import (
    MAX_DICT_VALUES,
    ArchiveReader,
    ArchiveWriter,
    ColumnZone,
    ZoneMap,
    compact_archive,
    parse_partition_name,
)
from repro.archive.index import (
    ZONE_COLUMNS,
    FeatureIndex,
    decode_index,
    encode_index,
)
from repro.archive.layout import PARTITION_HEADER_SIZE, sidecar_path
from repro.errors import ArchiveError, CodecError
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FLOW_DTYPE, FlowTable
from repro.flows.trace import FlowTrace
from repro.stream import ReplayDriver, StreamEngine
from tests.flow_balance import assert_flow_balance
from repro.stream.sources import table_chunks
from repro.system.alarmdb import AlarmDatabase
from repro.system.backend import FlowBackend
from repro.system.pipeline import ExtractionSystem


def _random_table(count, seed=3, span=1800.0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, span, count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        dst_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        src_port=rng.integers(1024, 2048, count),
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 500, count),
        bytes=rng.integers(40, 100_000, count),
        start=starts,
        end=starts + rng.uniform(0.0, 60.0, count),
    )


def _write(root, table, slice_seconds=300.0, chunk_rows=1000, **kwargs):
    with ArchiveWriter(root, slice_seconds=slice_seconds,
                       **kwargs) as writer:
        writer.ingest_chunks(table_chunks(table, chunk_rows))
    return ArchiveReader(root)


def _memory(table):
    """The same rows held in memory: a bounded trace."""
    return FlowTrace(table, bin_seconds=300.0)


def _same_bytes(a: FlowTable, b: FlowTable) -> bool:
    return a._data.tobytes() == b._data.tobytes()


def _mapping(array: np.ndarray) -> np.ndarray:
    """The array at the end of ``array``'s ``base`` chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestRoundTrip:
    def test_reads_are_zero_copy_mmap_views(self, tmp_path):
        reader = _write(tmp_path / "a", _random_table(5000))
        for partition in reader.partitions():
            data = partition.table()._data
            mapping = _mapping(data)
            assert isinstance(mapping, np.memmap)
            assert os.path.samefile(mapping.filename, partition.path)
            assert not data.flags.writeable
        # A fully covered, unfiltered window comes back without the
        # reader copying covered partitions (only concat + sort).
        assert len(reader.query_table(0.0, 1e9)) == 5000

    def test_mmap_views_are_read_only(self, tmp_path):
        reader = _write(tmp_path / "a", _random_table(100))
        table = reader.partitions()[0].table()
        with pytest.raises((ValueError, OSError)):
            table._data["packets"][0] = 1

    def test_pruned_equals_full_scan_equals_store(self, tmp_path):
        table = _random_table(20_000, seed=11)
        reader = _write(tmp_path / "a", table, chunk_rows=3000)
        full = ArchiveReader(tmp_path / "a", use_zone_maps=False)
        memory = _memory(table)
        queries = [
            (0.0, 1800.0, None),
            (300.0, 600.0, "dst port 443"),
            (0.0, 1800.0, "proto udp and packets > 250"),
            (100.0, 455.0, "src ip 10.0.0.17 or dst port 53"),
            (0.0, 1800.0, "dst port 9999"),
            (600.0, 600.0, None),
        ]
        for start, end, flt in queries:
            pruned = reader.query_table(start, end, flt)
            assert _same_bytes(pruned, memory.query_table(start, end, flt))
            assert _same_bytes(pruned, full.query_table(start, end, flt))

    def test_pruning_skips_partitions(self, tmp_path):
        reader = _write(tmp_path / "a", _random_table(20_000), chunk_rows=2000)
        total = len(reader.partitions())
        assert total >= 6
        reader.query_table(300.0, 600.0)
        assert reader.last_scan.scanned < total
        assert reader.last_scan.pruned_time > 0
        reader.query_table(0.0, 1800.0, "dst port 9999")
        assert reader.last_scan.scanned == 0
        assert reader.last_scan.pruned_filter > 0

    def test_count_matches_store(self, tmp_path):
        table = _random_table(8000, seed=2)
        reader = _write(tmp_path / "a", table)
        memory = _memory(table)
        for start, end, flt in [
            (0.0, 1800.0, None),
            (300.0, 900.0, "proto tcp"),
            (0.0, 1800.0, "dst port 9999"),
        ]:
            ours = reader.count(start, end, flt)
            theirs = window_count(memory, start, end, flt)
            assert ours.flows == theirs.flows
            assert ours.packets == theirs.packets
            assert ours.bytes == theirs.bytes

    def test_top_feature_values_matches_store(self, tmp_path):
        table = _random_table(5000, seed=8)
        reader = _write(tmp_path / "a", table)
        memory = _memory(table)
        assert reader.top_feature_values(
            0.0, 1800.0, FlowFeature.DST_PORT, n=5
        ) == window_top(memory, 0.0, 1800.0, FlowFeature.DST_PORT, n=5)


# Value pools mirror test_stream: small enough to collide, rich enough
# to exercise dictionaries, ranges and both prune outcomes.
_IPS = st.sampled_from(
    [0x0A000001, 0x0A000002, 0x0A010203, 0xC0A80001, 0xC6336445]
)
_PORTS = st.sampled_from([0, 53, 80, 443, 1234, 55548, 65535])
_PROTOS = st.sampled_from([1, 6, 17])
_FILTERS = st.sampled_from([
    None,
    "dst port 443",
    "src port in [53 80 1234]",
    "proto udp",
    "src ip 10.1.2.3",
    "ip 198.51.100.69",
    "net 10.0.0.0/8",
    "packets > 100",
    "bytes <= 5000",
    "duration < 30",
    "port < 100",
    "not dst port 80",
    "dst ip 192.168.0.1 and proto tcp",
    "src port 55548 or dst port 53",
    "flags S",
    "dst port 7",
])


@st.composite
def flow_records(draw):
    start = draw(st.floats(min_value=0.0, max_value=1500.0,
                           allow_nan=False, allow_infinity=False))
    return FlowRecord(
        src_ip=draw(_IPS),
        dst_ip=draw(_IPS),
        src_port=draw(_PORTS),
        dst_port=draw(_PORTS),
        proto=draw(_PROTOS),
        packets=draw(st.integers(min_value=1, max_value=50_000)),
        bytes=draw(st.integers(min_value=40, max_value=1_000_000)),
        start=start,
        end=start + draw(st.floats(min_value=0.0, max_value=120.0,
                                   allow_nan=False,
                                   allow_infinity=False)),
        tcp_flags=draw(st.integers(min_value=0, max_value=0x3F)),
    )


class TestHypothesisEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        flows=st.lists(flow_records(), min_size=1, max_size=60),
        chunk_rows=st.integers(min_value=1, max_value=40),
        window=st.tuples(
            st.floats(min_value=-100.0, max_value=1600.0),
            st.floats(min_value=0.0, max_value=800.0),
        ),
        flt=_FILTERS,
        compact=st.booleans(),
    )
    def test_archive_query_matches_store(
        self, tmp_path_factory, flows, chunk_rows, window, flt, compact
    ):
        """write → (maybe compact) → mmap read == in-memory trace."""
        root = tmp_path_factory.mktemp("archive")
        table = FlowTrace(flows, bin_seconds=300.0).table
        reader = _write(root, table, chunk_rows=chunk_rows)
        if compact:
            compact_archive(root)
        full = ArchiveReader(root, use_zone_maps=False)
        memory = _memory(table)
        start, width = window
        end = start + width
        pruned = reader.query_table(start, end, flt)
        assert _same_bytes(pruned, memory.query_table(start, end, flt))
        assert _same_bytes(pruned, full.query_table(start, end, flt))


class TestDurability:
    def test_truncated_partition_quarantined_not_served(self, tmp_path):
        root = tmp_path / "a"
        table = _random_table(6000, seed=9)
        reader = _write(root, table, chunk_rows=1000)
        healthy = len(reader.partitions())
        assert healthy >= 6
        victim = reader.partitions()[2].path
        payload = victim.read_bytes()
        victim.write_bytes(payload[: len(payload) // 2])

        survivor = ArchiveReader(root)
        assert len(survivor.partitions()) == healthy - 1
        assert survivor.stats().quarantined == 1
        assert (root / "quarantine" / victim.name).exists()
        assert not victim.exists()
        # Served rows are exactly the healthy partitions' rows.
        expected = sum(p.rows for p in survivor.partitions())
        assert len(survivor.query_table(0.0, 1e9)) == expected

    def test_orphaned_tmp_and_missing_sidecar_quarantined(self, tmp_path):
        root = tmp_path / "a"
        reader = _write(root, _random_table(2000), chunk_rows=500)
        count = len(reader.partitions())
        stray = root / ".tmp-part9-h0-0.flows.123"
        stray.write_bytes(b"junk")
        # Age both leftovers past the in-flight-write grace period.
        old = (time.time() - 600.0,) * 2
        os.utime(stray, old)
        sidecar_less = reader.partitions()[0]
        os.utime(sidecar_less.path, old)
        sidecar_path(sidecar_less.path).unlink()

        survivor = ArchiveReader(root)
        assert len(survivor.partitions()) == count - 1
        assert survivor.stats().quarantined == 2

    def test_in_flight_writer_files_are_left_alone(self, tmp_path):
        root = tmp_path / "a"
        reader = _write(root, _random_table(500), chunk_rows=500)
        in_flight = root / ".tmp-part9-h0-0.flows.123"
        in_flight.write_bytes(b"half-written partition")
        # A freshly linked data file whose .idx has not landed yet is
        # a live writer mid-write, not garbage: quarantining either
        # file would crash that writer / lose the partition.
        sidecar = sidecar_path(reader.partitions()[0].path)
        sidecar_backup = sidecar.read_bytes()
        sidecar.unlink()
        fresh = ArchiveReader(root)
        assert in_flight.exists()
        assert fresh.stats().quarantined == 0
        assert len(fresh.partitions()) == len(reader.partitions()) - 1
        # Once the "writer" finishes the sidecar, the partition serves.
        sidecar.write_bytes(sidecar_backup)
        fresh.refresh()
        assert len(fresh.partitions()) == len(reader.partitions())

    @pytest.mark.parametrize(
        "damage", ["in-head", "in-arrays", "no-crc", "flipped-byte"]
    )
    def test_torn_index_sidecar_quarantines_the_partition(
        self, tmp_path, damage
    ):
        root = tmp_path / "a"
        table = _random_table(3000, seed=21)
        reader = _write(root, table, chunk_rows=500)
        healthy = len(reader.partitions())
        victim = reader.partitions()[1]
        sidecar = sidecar_path(victim.path)
        blob = sidecar.read_bytes()
        head_end = 12 + int.from_bytes(blob[8:12], "little")
        assert head_end < len(blob) - 100  # arrays follow the head
        torn = {
            "in-head": blob[: head_end // 2],
            "in-arrays": blob[: (head_end + len(blob)) // 2],
            "no-crc": blob[:-4],
            "flipped-byte": (
                blob[: head_end + 17]
                + bytes([blob[head_end + 17] ^ 0x40])
                + blob[head_end + 18:]
            ),
        }[damage]
        sidecar.write_bytes(torn)

        survivor = ArchiveReader(root)  # never raises
        assert len(survivor.partitions()) == healthy - 1
        assert survivor.stats().quarantined == 1
        assert not victim.path.exists() and not sidecar.exists()
        assert (root / "quarantine" / victim.path.name).exists()
        assert (root / "quarantine" / sidecar.name).exists()
        expected = sum(p.rows for p in survivor.partitions())
        assert len(survivor.query_table(0.0, 1e9)) == expected
        assert survivor.count(0.0, 1e9).flows == expected

    def test_directory_is_synced_after_the_last_link(
        self, tmp_path, monkeypatch
    ):
        """The file fsyncs make the bytes durable; only a directory
        fsync makes the *names* durable. Without it a power cut can
        lose a sealed partition whose alarm row survives in sqlite."""
        root = tmp_path / "a"
        events: list[tuple[str, str]] = []
        real_fsync, real_link, real_replace = (
            os.fsync, os.link, os.replace
        )

        def fsync(fd):
            target = os.readlink(f"/proc/self/fd/{fd}")
            events.append(
                ("fsync-dir" if os.path.isdir(target) else "fsync-file",
                 os.path.basename(target))
            )
            return real_fsync(fd)

        def link(src, dst, **kwargs):
            events.append(("name", os.path.basename(dst)))
            return real_link(src, dst, **kwargs)

        def replace(src, dst, **kwargs):
            events.append(("name", os.path.basename(dst)))
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "link", link)
        monkeypatch.setattr(os, "replace", replace)
        writer = ArchiveWriter(root, slice_seconds=300.0, origin=0.0)
        assert events[-2:] == [
            ("name", "MANIFEST.json"), ("fsync-dir", "a"),
        ]
        for slice_index in (0, 1):
            del events[:]
            low = 300.0 * slice_index
            path = writer.write_partition(
                FlowTable.from_columns(
                    src_ip=[1, 9], dst_ip=[2, 8], src_port=[3, 7],
                    dst_port=[4, 6], proto=[6, 17],
                    start=[low + 1.0, low + 2.0],
                    end=[low + 2.0, low + 3.0],
                ),
                slice_index=slice_index,
            )
            names = [e for e in events if e[0] == "name"]
            assert names == [
                ("name", path.name),
                ("name", sidecar_path(path).name),
            ]
            # Synced exactly once, after the last link, before return.
            assert events[-1] == ("fsync-dir", "a")
            assert events.index(names[-1]) == len(events) - 2
            assert [e for e in events if e[0] == "fsync-dir"] == [
                ("fsync-dir", "a")
            ]

    def test_partition_name_collision_is_loud(self, tmp_path):
        root = tmp_path / "a"
        first = ArchiveWriter(root, slice_seconds=300.0, origin=0.0)
        second = ArchiveWriter(root)  # same dir: same next seq numbers
        table = _random_table(50, span=200.0)
        first.write_partition(table, slice_index=0)
        with pytest.raises(ArchiveError, match="another writer"):
            second.write_partition(table, slice_index=0)
        # The winner's partition survives untouched.
        assert len(ArchiveReader(root).query_table(0.0, 300.0)) == 50

    def test_foreign_schema_version_raises_codec_error(self, tmp_path):
        root = tmp_path / "a"
        reader = _write(root, _random_table(500), chunk_rows=500)
        path = reader.partitions()[0].path
        raw = bytearray(path.read_bytes())
        raw[4] = 0xEE  # version field of the little-endian header
        path.write_bytes(bytes(raw))
        with pytest.raises(CodecError, match="schema version"):
            ArchiveReader(root)

    def test_writer_geometry_is_pinned(self, tmp_path):
        root = tmp_path / "a"
        with ArchiveWriter(root, slice_seconds=300.0, origin=0.0) as w:
            w.ingest_table(_random_table(100))
        with pytest.raises(ArchiveError):
            ArchiveWriter(root, slice_seconds=60.0)
        with pytest.raises(ArchiveError):
            ArchiveWriter(root, slice_seconds=300.0, origin=600.0)
        # None adopts the manifest; an explicit width must match it
        # even when it happens to equal the library default.
        assert ArchiveWriter(root).slice_seconds == 300.0
        minute_root = tmp_path / "minute"
        with ArchiveWriter(minute_root, slice_seconds=60.0) as w:
            w.ingest_table(_random_table(50, span=100.0))
        with pytest.raises(ArchiveError):
            ArchiveWriter(minute_root, slice_seconds=300.0)

    def test_fractional_widths_ingest_boundary_floats(self, tmp_path):
        import math

        # A start one ulp below a slice boundary must archive under
        # the slice it *routes* to — the write-time validation uses
        # the same floor-divide as every ingest path, so grids that
        # disagree by float dust (non-dyadic widths) cannot crash it.
        width = 0.7
        edge = math.nextafter(9325 * width, -math.inf)
        table = FlowTable.from_columns(
            src_ip=[1], dst_ip=[2], src_port=[3], dst_port=[4],
            proto=[6], start=[edge], end=[edge + 1.0],
        )
        with ArchiveWriter(tmp_path / "a", slice_seconds=width,
                           origin=0.0) as writer:
            writer.ingest_table(table)
        reader = ArchiveReader(tmp_path / "a")
        assert len(reader) == 1
        assert len(reader.query_table(edge - 1.0, edge + 1.0)) == 1

    def test_quarantine_count_survives_reader_restarts(self, tmp_path):
        root = tmp_path / "a"
        reader = _write(root, _random_table(3000, seed=3),
                        chunk_rows=500)
        victim = reader.partitions()[1].path
        victim.write_bytes(victim.read_bytes()[:40])
        assert ArchiveReader(root).stats().quarantined == 1
        # A *fresh* process still sees the directory's quarantine
        # state — the counter is the directory's, not the instance's.
        assert ArchiveReader(root).stats().quarantined == 1

    def test_partition_names_round_trip(self):
        from repro.archive import PartitionKey, partition_file_name

        for key in (
            PartitionKey(0, 0),
            PartitionKey(-3, 17),
            PartitionKey(1234, 9),
        ):
            assert parse_partition_name(partition_file_name(key)) == key
        assert partition_file_name(PartitionKey(-3, 17)) == \
            "part-3-h0-17.flows"
        assert parse_partition_name("MANIFEST.json") is None
        # Hash-shard names are compaction's to read, not a partition.
        assert parse_partition_name("part1-h2-0.flows") is None
        assert parse_partition_name("part1-h0-0.idx") is None
        assert parse_partition_name("part1-h0-0.zone.json") is None


class TestSpillBound:
    def test_a_large_chunk_spills_in_pieces_of_at_most_spill_rows(
        self, tmp_path
    ):
        # One 65,536-row chunk over two 300 s slices: each slice's
        # buffer passes 4,096 rows at once and must still leave as
        # partitions of at most 4,096 rows.
        table = _random_table(65_536, seed=9, span=600.0)
        bounded = _write(tmp_path / "bounded", table,
                         chunk_rows=65_536, spill_rows=4096)
        whole = _write(tmp_path / "whole", table,
                       chunk_rows=65_536, spill_rows=65_536)
        sizes = [p.zone.rows for p in bounded.partitions()]
        assert max(sizes) <= 4096
        assert sum(sizes) == len(table)
        assert {p.key.slice_index for p in bounded.partitions()} \
            == {0, 1}
        assert len(whole.partitions()) == 2
        assert all(p.zone.sorted for p in bounded.partitions())
        for start, end, flow_filter in [
            (0.0, 600.0, None),
            (100.0, 450.0, None),
            (0.0, 600.0, "dst port 443 and proto tcp"),
            (250.0, 350.0, "src port < 1100"),
        ]:
            assert _same_bytes(
                bounded.query_table(start, end, flow_filter),
                whole.query_table(start, end, flow_filter),
            )
            assert bounded.count(start, end, flow_filter) \
                == whole.count(start, end, flow_filter)
            for feature in (FlowFeature.DST_PORT, FlowFeature.SRC_IP):
                assert bounded.top_feature_values(
                    start, end, feature, n=5, flow_filter=flow_filter
                ) == whole.top_feature_values(
                    start, end, feature, n=5, flow_filter=flow_filter
                )


class TestCompaction:
    def test_merges_spills_into_sealed_sorted_partitions(self, tmp_path):
        root = tmp_path / "a"
        table = _random_table(9000, seed=6)
        reader = _write(root, table, chunk_rows=700, spill_rows=400)
        before = len(reader.partitions())
        slices = {p.key.slice_index for p in reader.partitions()}
        assert before > len(slices)

        result = compact_archive(root)
        assert result.partitions_before == before
        reader = ArchiveReader(root)
        assert len(reader.partitions()) == len(slices)
        assert all(p.zone.sealed for p in reader.partitions())
        assert all(p.zone.sorted for p in reader.partitions())
        assert _same_bytes(
            reader.query_table(0.0, 1800.0),
            _memory(table).query_table(0.0, 1800.0),
        )
        # Already-terminal groups are left alone.
        again = compact_archive(root)
        assert again.groups == 0

    def test_interrupted_compaction_never_double_counts(self, tmp_path):
        root = tmp_path / "a"
        table = _random_table(3000, seed=12)
        reader = _write(root, table, chunk_rows=400, spill_rows=200)
        originals = {p.path.name for p in reader.partitions()}

        # Simulate the crash window: merged partitions written (with
        # provenance), originals still on disk.
        writer = ArchiveWriter(root)
        by_slice = {}
        for p in reader.partitions():
            by_slice.setdefault(p.key.slice_index, []).append(p)
        for slice_index, group in by_slice.items():
            merged = FlowTable.concat(
                [p.table() for p in sorted(group, key=lambda p: p.key)]
            ).sorted_by_start()
            writer.write_partition(
                merged, slice_index=slice_index,
                sealed=True,
                replaces=tuple(p.path.name for p in group),
            )

        recovered = ArchiveReader(root)
        assert {p.path.name for p in recovered.partitions()} \
            .isdisjoint(originals)
        assert len(recovered.query_table(0.0, 1800.0)) == 3000

        # Re-running compaction completes the interrupted deletes: the
        # superseded inputs leave the directory for good.
        compact_archive(root)
        remaining = {
            path.name
            for _key, path in recovered.layout.partition_files()
        }
        assert remaining.isdisjoint(originals)
        final = ArchiveReader(root)
        assert len(final.query_table(0.0, 1800.0)) == 3000
        # The reader cache follows the directory: deleted partitions
        # do not stay pinned through cached mmap views.
        final.refresh()
        assert set(final._loaded).isdisjoint(originals)


def _scenario_split():
    from repro.flows.addresses import ip_to_int
    from repro.synth.anomalies import PortScan
    from repro.synth.background import BackgroundConfig
    from repro.synth.scenario import Scenario
    from repro.synth.topology import Topology

    topology = Topology()
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=12.0),
        bin_count=12,
    )
    target = topology.host_address(topology.pops[9], 3)
    scenario.add(
        PortScan("scan", ip_to_int("203.0.113.99"), target,
                 flow_count=6000, src_port=55548),
        start_bin=10,
    )
    trace = scenario.build(seed=7).trace
    split = trace.origin + 8 * trace.bin_seconds
    training = trace.where(lambda f: f.start < split)
    tail = trace.between_table(split, trace.span[1] + 1.0)
    return training, tail, split, trace.bin_seconds


@pytest.fixture(scope="module")
def scenario():
    return _scenario_split()


@pytest.fixture(scope="module")
def trained(scenario):
    from repro.detect.netreflex import NetReflexDetector

    detector = NetReflexDetector()
    detector.train(scenario[0])
    return detector


class TestStreamIntegration:
    def test_archive_backed_stream_matches_batch_alarms(
        self, tmp_path, scenario, trained
    ):
        _, tail, split, bin_seconds = scenario
        batch = trained.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        engine = StreamEngine(
            [trained],
            window_seconds=bin_seconds,
            origin=split,
            retain_windows=2,  # RAM evicts aggressively; disk keeps all
            archive=ArchiveWriter(
                tmp_path / "spool", slice_seconds=bin_seconds
            ),
        )
        results, _ = ReplayDriver(tail, chunk_rows=2048).replay(engine)
        streamed = [a for r in results for a in r.alarms]
        assert batch, "scenario must alarm"
        assert [a.alarm_id for a in streamed] == \
            [a.alarm_id for a in batch]
        for expected, actual in zip(batch, streamed):
            assert actual.label == expected.label
            assert actual.score == pytest.approx(expected.score, rel=1e-9)
        # Every admitted flow is durable, despite retain_windows=2.
        reader = ArchiveReader(tmp_path / "spool")
        assert len(reader) == engine.stats.flows
        assert len(engine.ring.query_table(split, split + 1e9)) \
            < engine.stats.flows
        assert_flow_balance(engine, results, len(tail))

    def test_killed_process_resumes_triage_from_disk(
        self, tmp_path, scenario, trained
    ):
        _, tail, split, bin_seconds = scenario
        spool = tmp_path / "spool"
        db_path = tmp_path / "alarms.db"

        engine = StreamEngine(
            [trained],
            window_seconds=bin_seconds,
            origin=split,
            alarmdb=AlarmDatabase(db_path),
            archive=ArchiveWriter(spool, slice_seconds=bin_seconds),
        )
        results, _ = ReplayDriver(tail, chunk_rows=2048).replay(engine)
        fired = engine.stats.alarms
        assert fired >= 1
        assert engine.alarmdb.count("open") == fired
        assert_flow_balance(engine, results, len(tail))
        # "Kill" the process: drop the engine, ring and connections.
        engine.alarmdb.close()
        engine.close()
        del engine

        # A fresh process: archive dir + alarm DB file are all it has.
        alarmdb = AlarmDatabase(db_path)
        system = ExtractionSystem.from_archive(spool, alarmdb=alarmdb)
        results = system.process_open_alarms(skip_errors=True)
        assert len(results) == fired
        assert alarmdb.count("open") == 0
        assert any(
            t.verdict.useful and t.alarm.label == "port scan"
            for t in results
        )
        alarmdb.close()

    def test_backend_from_archive_matches_in_memory(
        self, tmp_path, scenario, trained
    ):
        _, tail, split, bin_seconds = scenario
        with ArchiveWriter(tmp_path / "a",
                           slice_seconds=bin_seconds) as writer:
            writer.ingest_chunks(table_chunks(tail, 4096))
        alarms = trained.detect(
            FlowTrace(tail, bin_seconds=bin_seconds, origin=split)
        )
        archive_backend = FlowBackend.from_archive(tmp_path / "a")
        memory_backend = FlowBackend.from_trace(
            FlowTrace(tail, bin_seconds=bin_seconds)
        )
        for alarm in alarms:
            assert _same_bytes(
                archive_backend.alarm_table(alarm),
                memory_backend.alarm_table(alarm),
            )
            assert _same_bytes(
                archive_backend.baseline_table(alarm),
                memory_backend.baseline_table(alarm),
            )


class TestAlarmDbBatch:
    def _alarm(self, i, start=0.0):
        from repro.detect.base import Alarm

        return Alarm(
            alarm_id=f"a-{i}", detector="t", start=start,
            end=start + 300.0, score=1.0,
        )

    def test_insert_many_is_one_transaction(self, tmp_path):
        db = AlarmDatabase(tmp_path / "alarms.db")
        statements: list[str] = []
        db._conn.set_trace_callback(statements.append)
        assert db.insert_many([self._alarm(i) for i in range(50)]) == 50
        db._conn.set_trace_callback(None)
        commits = [
            s for s in statements if s.strip().upper().startswith("COMMIT")
        ]
        begins = [
            s for s in statements if s.strip().upper().startswith("BEGIN")
        ]
        assert len(commits) == 1
        assert len(begins) == 1
        assert db.count() == 50
        db.close()

    def test_insert_many_rolls_back_whole_batch(self, tmp_path):
        db = AlarmDatabase(tmp_path / "alarms.db")
        db.insert(self._alarm(7))
        from repro.errors import AlarmDatabaseError

        with pytest.raises(AlarmDatabaseError):
            db.insert_many(
                [self._alarm(100), self._alarm(7), self._alarm(101)]
            )
        # All-or-nothing: the pre-duplicate insert rolled back too.
        assert db.count() == 1
        db.close()

    def test_insert_many_dedup_still_merges(self):
        db = AlarmDatabase()
        assert db.insert_many(
            [self._alarm(1), self._alarm(2, start=100.0)],
        ) == 2  # no dedup window: both stored as new
        db2 = AlarmDatabase()
        first = self._alarm(1)
        refire = self._alarm(2, start=200.0)
        assert db2.insert_many([first, refire], dedup_window=600.0) == 1
        assert db2.count() == 1


# -- the parent commit's index builders, kept as the oracle --------------------


def _oracle_zone_map(table, **flags) -> ZoneMap:
    """``ZoneMap.from_table`` as it was when zone map and feature index
    each ran their own ``np.unique`` passes."""
    columns = {}
    for name in ZONE_COLUMNS:
        unique = np.unique(table.column(name))
        columns[name] = ColumnZone(
            min=int(unique[0]),
            max=int(unique[-1]),
            distinct=int(len(unique)),
            values=(
                tuple(int(v) for v in unique)
                if len(unique) <= MAX_DICT_VALUES else None
            ),
        )
    starts, ends = table.start, table.end
    durations = ends - starts
    return ZoneMap(
        rows=len(table),
        min_start=float(starts.min()), max_start=float(starts.max()),
        min_end=float(ends.min()), max_end=float(ends.max()),
        min_duration=float(durations.min()),
        max_duration=float(durations.max()),
        min_packets=int(table.packets.min()),
        max_packets=int(table.packets.max()),
        min_bytes=int(table.bytes.min()),
        max_bytes=int(table.bytes.max()),
        sum_packets=table.total_packets(),
        sum_bytes=table.total_bytes(),
        flags_union=int(np.bitwise_or.reduce(table.tcp_flags)),
        columns=columns,
        sealed=flags.get("sealed", False),
        sorted=bool(np.all(np.diff(starts) >= 0)),
        replaces=tuple(flags.get("replaces", ())),
    )


def _oracle_histograms(table) -> dict:
    """``FeatureIndex.from_table`` of the parent: per mining-feature
    column, ``(values, int64 flows, int64 packet sums)``."""
    columns = {}
    for name in ZONE_COLUMNS[:5]:
        values, inverse = np.unique(
            table.column(name), return_inverse=True
        )
        flows = np.bincount(inverse, minlength=len(values))
        packet_sums = np.zeros(len(values), dtype=np.int64)
        np.add.at(packet_sums, inverse, table.packets)
        columns[name] = (values, flows.astype(np.int64), packet_sums)
    return columns


@st.composite
def index_tables(draw):
    """Tables that stress the sidecar encoding: cardinalities on both
    sides of the 64-value dictionary limit, one-row tables, packet
    sums past 2**32 (count dtypes must widen)."""
    rows = draw(st.sampled_from([1, 2, 64, 65, 200]))
    distinct = draw(st.sampled_from([1, 2, 63, 64, 65, 200]))
    packet_scale = draw(st.sampled_from([1, 2**20, 2**40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = rng.uniform(0.0, 300.0, rows)
    if draw(st.booleans()):  # the derived ``sorted`` flag, both ways
        starts.sort()
    # Exactly min(rows, distinct) distinct src_ip/src_port values.
    cycle = np.arange(rows) % distinct
    return FlowTable.from_columns(
        src_ip=0x0A000000 + cycle,
        dst_ip=rng.integers(0, 0xFFFFFFFF, rows, dtype=np.uint64),
        src_port=1024 + cycle,
        dst_port=rng.choice(np.array([53, 80, 443, 65535]), rows),
        proto=rng.choice(np.array([1, 6, 17]), rows),
        packets=rng.integers(1, 500, rows) * packet_scale,
        bytes=rng.integers(40, 100_000, rows),
        start=starts,
        end=starts + rng.uniform(0.0, 60.0, rows),
        tcp_flags=rng.integers(0, 0x3F, rows),
        router=rng.integers(0, 3, rows),
    )


class TestIndexSidecar:
    @settings(max_examples=60, deadline=None)
    @given(table=index_tables(), sealed=st.booleans())
    def test_idx_round_trip_equals_the_parent_builders(
        self, table, sealed
    ):
        flags = dict(
            sealed=sealed,
            replaces=("x.flows", "y.flows") if sealed else (),
        )
        features = FeatureIndex.from_table(table)
        zone = ZoneMap.from_table(table, features, **flags)
        want_zone = _oracle_zone_map(table, **flags)
        assert zone == want_zone
        loaded_zone, loaded = decode_index(encode_index(zone, features))
        assert loaded_zone == want_zone
        for name, (values, flows, packets) in \
                _oracle_histograms(table).items():
            for by_packets, want in ((False, flows), (True, packets)):
                for index in (features, loaded):
                    got_values, got = index.histogram(name, by_packets)
                    assert got.dtype == np.int64
                    assert np.array_equal(got_values, values)
                    assert np.array_equal(got, want)

    def test_counts_are_stored_narrow_and_read_wide(self):
        table = _random_table(500, seed=1)
        features = FeatureIndex.from_table(table)
        blob = encode_index(ZoneMap.from_table(table, features), features)
        # 6 columns x (values + flows + packets), nowhere near the JSON
        # sidecars' ~30 bytes per distinct value.
        assert len(blob) < 500 * 12
        _zone, loaded = decode_index(blob)
        assert loaded._columns["proto"][1].dtype.itemsize <= 2
        assert loaded.histogram("proto")[1].dtype == np.int64

    def test_rejects_garbage(self):
        table = _random_table(50, seed=2)
        features = FeatureIndex.from_table(table)
        blob = encode_index(ZoneMap.from_table(table, features), features)
        for bad in (b"", b"RIDX", blob[:-1], blob + b"\0",
                    b"JUNK" + blob[4:], blob[:40] + blob[41:]):
            with pytest.raises(ArchiveError):
                decode_index(bad)
        # Intact but without one indexed column: refused like a torn
        # sidecar, so every served partition answers every column.
        partial = FeatureIndex({
            name: features._columns[name] for name in ZONE_COLUMNS[:-1]
        })
        with pytest.raises(ArchiveError, match="router"):
            decode_index(encode_index(
                ZoneMap.from_table(table, features), partial
            ))
        # An intact sidecar of another layout version is foreign, not
        # torn: loud, like a foreign payload schema.
        import struct
        import zlib

        foreign = bytearray(blob[:-4])
        struct.pack_into("<I", foreign, 4, 99)
        foreign += struct.pack("<I", zlib.crc32(bytes(foreign)))
        with pytest.raises(CodecError, match="version"):
            decode_index(bytes(foreign))

    def test_dtype_is_little_endian_on_disk(self):
        # The zero-copy contract depends on FLOW_DTYPE being explicitly
        # little-endian: a memmap'd partition must parse identically on
        # any host.
        for name in FLOW_DTYPE.names:
            dtype = FLOW_DTYPE[name]
            assert dtype == dtype.newbyteorder("<"), name

    def test_partition_header_size_is_stable(self):
        assert PARTITION_HEADER_SIZE == 32


class TestQueryPlanner:
    """The two-tier planner: sidecar pushdown, payload scan — both
    tiers must produce byte-identical answers, and the
    :class:`QueryPlan` must faithfully record which tier ran."""

    def test_count_pushdown_reads_no_payload(self, tmp_path):
        table = _random_table(4000, seed=5)
        reader = _write(tmp_path / "a", table)
        counts = reader.count(0.0, 1800.0)
        plan = reader.last_plan
        assert counts.flows == 4000
        assert plan.pushdown == "zone-map-stats"
        assert plan.scanned == 0
        assert plan.payload_bytes_read == 0
        assert plan.sidecar_answered == plan.partitions

    def test_filtered_count_scans_payload(self, tmp_path):
        table = _random_table(4000, seed=5)
        reader = _write(tmp_path / "a", table)
        memory = _memory(table)
        ours = reader.count(0.0, 1800.0, "proto tcp")
        plan = reader.last_plan
        assert ours.flows == \
            window_count(memory, 0.0, 1800.0, "proto tcp").flows
        assert plan.pushdown is None
        assert plan.scanned > 0
        assert plan.payload_bytes_read > 0

    def test_top_pushdown_matches_store(self, tmp_path):
        table = _random_table(5000, seed=8)
        reader = _write(tmp_path / "a", table)
        memory = _memory(table)
        for by_packets in (False, True):
            ours = reader.top_feature_values(
                0.0, 1800.0, FlowFeature.DST_PORT,
                n=5, by_packets=by_packets,
            )
            plan = reader.last_plan
            assert ours == window_top(
                memory, 0.0, 1800.0, FlowFeature.DST_PORT,
                n=5, by_packets=by_packets,
            )
            assert plan.pushdown == "feature-index"
            assert plan.payload_bytes_read == 0
            assert plan.sidecar_answered > 0

    def test_partial_window_falls_back_to_scan(self, tmp_path):
        table = _random_table(5000, seed=8)
        reader = _write(tmp_path / "a", table)
        memory = _memory(table)
        # A window cutting through a slice cannot use per-partition
        # totals; the planner must notice and scan.
        assert reader.top_feature_values(
            150.0, 1234.0, FlowFeature.DST_PORT, n=5
        ) == window_top(
            memory, 150.0, 1234.0, FlowFeature.DST_PORT, n=5
        )
        assert reader.last_plan.pushdown is None
        assert reader.last_plan.scanned > 0

    def test_parallel_scan_matches_serial(self, tmp_path):
        # ``workers`` is deprecated: a query asked for workers scans in
        # this process, with the serial answers and plan counters.
        from repro import api

        table = _random_table(8000, seed=2)
        root = tmp_path / "a"
        serial = _write(root, table)
        want_count = serial.count(300.0, 900.0, "proto tcp")
        want_top = serial.top_feature_values(
            300.0, 900.0, FlowFeature.DST_PORT, n=3,
            flow_filter="proto tcp",
        )

        def query(workers, **options):
            result = (
                api.session()
                .source("archive", path=str(root))
                .query(300.0, 900.0, filter="proto tcp", explain=True,
                       workers=workers, **options)
                .run()
            )
            return result.payload, result.stats

        for options, key, want in (
            ({"stats": True}, "stats", want_count),
            ({"top": "dstPort", "limit": 3}, "top", want_top),
        ):
            payload, stats = query(1, **options)
            assert payload[key] == want
            assert payload["plan"].scanned > 0
            assert query(2, **options) == (payload, stats)

    def test_compaction_rewrites_sidecars(self, tmp_path):
        table = _random_table(6000, seed=4)
        root = tmp_path / "a"
        _write(root, table, chunk_rows=500, spill_rows=300)
        memory = _memory(table)
        report = compact_archive(root)
        assert report.partitions_after < report.partitions_before
        names = {p.name for p in root.iterdir() if p.is_file()}
        flows = {name for name in names if name.endswith(".flows")}
        assert names == {"MANIFEST.json"} | flows | {
            name[: -len(".flows")] + ".idx" for name in flows
        }
        reader = ArchiveReader(root)
        assert reader.top_feature_values(
            0.0, 1800.0, FlowFeature.DST_PORT, n=5
        ) == window_top(
            memory, 0.0, 1800.0, FlowFeature.DST_PORT, n=5
        )
        assert reader.last_plan.pushdown == "feature-index"

    def test_plan_render_mentions_decisions(self, tmp_path):
        reader = _write(tmp_path / "a", _random_table(2000, seed=7))
        reader.count(0.0, 1800.0)
        text = reader.last_plan.render()
        assert "plan: count" in text
        assert "zone-map-stats" in text
        reader.count(0.0, 1800.0, "proto tcp")
        text = reader.last_plan.render()
        assert "payload scans" in text


# -- archives in the formats older builds wrote -------------------------------
#
# Every reader refuses them; ``repro archive compact`` is the one
# migration. The oracle is a trace of the payload rows read straight
# off the files, in the ``(slice, shard, seq)`` order of their names.

_DATA = Path(__file__).parent / "data"
_LEGACY_FIXTURE = _DATA / "archive_v1"
_SHARDED_FIXTURE = _DATA / "archive_sharded"


def _fixture_copy(fixture, root):
    """A scratch copy whose files are an hour old: a refusal that
    came after the reader's sidecar-less branch would quarantine."""
    shutil.copytree(fixture, root)
    old = time.time() - 3600
    for path in root.iterdir():
        os.utime(path, (old, old))
    return root


@pytest.fixture
def legacy_root(tmp_path):
    """A scratch copy of ``tests/data/archive_v1``: two partitions
    written by the last commit whose writer emitted JSON sidecars —
    slice 0 with ``.zone.json`` + ``.fidx.json``, slice 1 with
    ``.zone.json`` only."""
    return _fixture_copy(_LEGACY_FIXTURE, tmp_path / "legacy")


@pytest.fixture
def sharded_root(tmp_path):
    """A scratch copy of ``tests/data/archive_sharded``: 941 rows in
    three 300 s slices, each split into hash shards 0 and 1 by
    ``src_ip``, two or three spills per shard. A build that still had
    shard placement wrote it, as ``ArchiveWriter(root, 300.0, 0.0,
    shard_spec=PartitionSpec(2, "src_ip", 0), spill_rows=60)`` fed
    the rows shuffled, in 120-row chunks."""
    return _fixture_copy(_SHARDED_FIXTURE, tmp_path / "sharded")


def _payload_rows(root) -> FlowTable:
    """The fixture's rows read straight off the payload bytes."""
    return FlowTable.concat([
        FlowTable(np.fromfile(
            path, dtype=FLOW_DTYPE, offset=PARTITION_HEADER_SIZE
        ))
        for path in sorted(root.glob("*.flows"))
    ])


def _tree(root) -> dict[str, str]:
    """sha256 of every file under ``root``, by relative path."""
    return {
        str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _assert_every_read_path_refuses(root, tmp_path, capsys):
    """``ArchiveReader``, ``archive query/ls/stats/triage`` and an
    archive-resume ``repro run`` all refuse ``root`` with an error that
    names the migration, exit 6 at the CLI, and touch nothing."""
    from repro import cli

    before = _tree(root)
    command = f"repro archive compact --dir {root}"
    with pytest.raises(ArchiveError) as refused:
        ArchiveReader(root)
    assert command in str(refused.value)
    alarmdb = tmp_path / "refused.db"
    AlarmDatabase(alarmdb).close()
    config = tmp_path / "resume.toml"
    config.write_text(
        f'[source]\nkind = "archive"\npath = "{root}"\n'
        f'[execution]\nmode = "triage"\n'
        f'[sink]\nalarmdb = "{alarmdb}"\n'
    )
    for argv in (
        ["archive", "query", "--dir", str(root), "--top", "srcIP"],
        ["archive", "query", "--dir", str(root), "-n", "20"],
        ["archive", "ls", "--dir", str(root)],
        ["archive", "stats", "--dir", str(root)],
        ["archive", "triage", "--dir", str(root),
         "--alarmdb", str(alarmdb)],
        ["run", str(config)],
    ):
        assert cli.main(argv) == 6, argv
        assert command in capsys.readouterr().err, argv
    assert _tree(root) == before
    assert not (root / "quarantine").exists()


def _assert_interrupted_migration_converges(
    fixture, tmp_path, monkeypatch
):
    """Crash between compaction's writes and its deletes: no query of
    the half-done directory double-counts, and a rerun ends byte for
    byte where an uninterrupted migration does."""
    from repro.archive import compaction

    clean = _fixture_copy(fixture, tmp_path / "clean")
    compact_archive(clean)
    inputs = sorted(p.name for p in fixture.glob("*.flows"))
    merged = sorted(p.name for p in clean.glob("*.flows"))
    rows = len(_payload_rows(fixture))

    half = _fixture_copy(fixture, tmp_path / "half")
    with monkeypatch.context() as patch:
        patch.setattr(compaction, "_remove", lambda path: None)
        # Every merged partition lands; the reader compaction opens
        # next refuses the inputs that are still there.
        with pytest.raises(ArchiveError, match="archive compact"):
            compact_archive(half)
    assert sorted(p.name for p in half.glob("*.flows")) == \
        sorted(inputs + merged)
    # A crash may also land partway through the deletes.
    for done in range(len(inputs) + 1):
        state = tmp_path / f"deleted-{done}"
        shutil.copytree(half, state)
        for name in inputs[:done]:
            compaction._remove(state / name)
        try:
            reader = ArchiveReader(state)
        except ArchiveError as exc:
            assert "repro archive compact" in str(exc)
            continue
        assert [p.path.name for p in reader.partitions()] == merged
        assert reader.count(-1e9, 1e9).flows == rows
    compact_archive(half)
    assert _tree(half) == _tree(clean)


class TestLegacyArchive:
    def test_fixture_is_what_it_claims(self):
        names = sorted(p.name for p in _LEGACY_FIXTURE.iterdir())
        assert names == [
            "MANIFEST.json",
            "part0-h0-0.fidx.json", "part0-h0-0.flows",
            "part0-h0-0.zone.json",
            "part1-h0-0.flows", "part1-h0-0.zone.json",
        ]
        size = sum(p.stat().st_size for p in _LEGACY_FIXTURE.iterdir())
        assert size <= 20_000

    def test_every_read_path_refuses(self, legacy_root, tmp_path, capsys):
        _assert_every_read_path_refuses(legacy_root, tmp_path, capsys)

    def test_compaction_rewrites_into_the_current_format(
        self, legacy_root
    ):
        rows = _payload_rows(legacy_root)
        memory = _memory(rows)
        result = compact_archive(legacy_root)
        assert (result.groups, result.partitions_before,
                result.partitions_after) == (2, 2, 2)
        names = sorted(
            p.name for p in legacy_root.iterdir() if p.is_file()
        )
        assert names == [
            "MANIFEST.json",
            "part0-h0-1.flows", "part0-h0-1.idx",
            "part1-h0-1.flows", "part1-h0-1.idx",
        ]
        reader = ArchiveReader(legacy_root)
        for start, end, flt in [
            (0.0, 600.0, None),
            (0.0, 300.0, "dst port 53"),
            (120.0, 480.0, "proto udp"),
        ]:
            assert _same_bytes(
                reader.query_table(start, end, flt),
                memory.query_table(start, end, flt),
            )
            ours, theirs = reader.count(start, end, flt), \
                window_count(memory, start, end, flt)
            assert (ours.flows, ours.packets, ours.bytes) == \
                (theirs.flows, theirs.packets, theirs.bytes)
        assert reader.count(0.0, 600.0).flows == len(rows) == 100
        assert reader.last_plan.pushdown == "zone-map-stats"
        for feature in (FlowFeature.SRC_IP, FlowFeature.DST_PORT):
            assert reader.top_feature_values(
                0.0, 600.0, feature, n=5
            ) == window_top(memory, 0.0, 600.0, feature, n=5)
            assert reader.last_plan.pushdown == "feature-index"
        # Terminal now: a second pass has nothing to do.
        assert compact_archive(legacy_root).groups == 0

    def test_migration_ignores_a_corrupt_feature_sidecar(
        self, legacy_root, tmp_path
    ):
        """The migration recounts the index from the rows: it never
        parses ``.fidx.json``."""
        (legacy_root / "part0-h0-0.fidx.json").write_text("{ not json")
        clean = _fixture_copy(_LEGACY_FIXTURE, tmp_path / "clean")
        compact_archive(clean)
        compact_archive(legacy_root)
        assert _tree(legacy_root) == _tree(clean)

    def test_sealed_legacy_partition_is_still_rewritten(self, legacy_root):
        compact_archive(legacy_root)
        # Fake the pre-.idx shape of a *sealed* window: drop the .idx,
        # put a sealed .zone.json in its place.
        import json

        flows = legacy_root / "part1-h0-1.flows"
        zone = ArchiveReader(legacy_root).partitions()[1].zone
        legacy_zone = json.loads(
            (_LEGACY_FIXTURE / "part1-h0-0.zone.json").read_text()
        )
        legacy_zone.update(sealed=True, sorted=True, rows=zone.rows)
        sidecar_path(flows).unlink()
        sidecar_path(flows, ".zone.json").write_text(
            json.dumps(legacy_zone)
        )
        assert compact_archive(legacy_root).groups == 1
        assert sorted(p.name for p in legacy_root.glob("part1-*")) == [
            "part1-h0-2.flows", "part1-h0-2.idx",
        ]

    def test_interrupted_migration_converges(self, tmp_path, monkeypatch):
        _assert_interrupted_migration_converges(
            _LEGACY_FIXTURE, tmp_path, monkeypatch
        )


#: Windows x filters the sharded fixture must answer like its rows.
#: 450.25 and 750.5 each start 19 rows that share the 5-tuple and
#: differ by router.
_SHARDED_QUERIES = [
    (start, end, flt)
    for start, end in (
        (0.0, 900.0), (0.0, 300.0), (250.0, 650.0), (300.0, 300.0),
        (450.25, 450.5), (600.0, 900.0),
    )
    for flt in (None, "proto tcp", "src ip 10.0.0.7", "router 3")
]


class TestShardedArchive:
    def test_fixture_is_what_it_claims(self):
        import json
        import re
        import struct

        flows = sorted(_SHARDED_FIXTURE.glob("*.flows"))
        keys = [
            tuple(map(int, re.match(r"part(\d+)-h(\d+)-(\d+)", p.name)
                      .groups()))
            for p in flows
        ]
        assert {slice_index for slice_index, _, _ in keys} == {0, 1, 2}
        assert {shard for _, shard, _ in keys} == {0, 1}
        # More than one file per (slice, shard).
        assert len(keys) == 15
        assert len(_payload_rows(_SHARDED_FIXTURE)) == 941
        # Every sidecar carries a non-null shard_spec and decodes.
        for path, (_slice, shard, _seq) in zip(flows, keys):
            blob = sidecar_path(path).read_bytes()
            (length,) = struct.unpack_from("<I", blob, 8)
            head = json.loads(blob[12:12 + length])
            assert head["shard_spec"] == [2, "src_ip", 0, shard]
            zone, _features = decode_index(blob)
            assert PARTITION_HEADER_SIZE + zone.rows * FLOW_DTYPE.itemsize \
                == path.stat().st_size

    def test_every_read_path_refuses(self, sharded_root, tmp_path, capsys):
        _assert_every_read_path_refuses(sharded_root, tmp_path, capsys)

    def test_reads_like_a_trace_of_its_rows_in_key_order(
        self, sharded_root
    ):
        memory = _memory(_payload_rows(sharded_root))
        compact_archive(sharded_root)
        reader = ArchiveReader(sharded_root)
        full = ArchiveReader(sharded_root, use_zone_maps=False)
        for start, end, flt in _SHARDED_QUERIES:
            want = memory.query_table(start, end, flt)
            assert _same_bytes(reader.query_table(start, end, flt), want)
            assert _same_bytes(full.query_table(start, end, flt), want)
            ours, theirs = reader.count(start, end, flt), \
                window_count(memory, start, end, flt)
            assert (ours.flows, ours.packets, ours.bytes) == \
                (theirs.flows, theirs.packets, theirs.bytes)
            assert reader.top_feature_values(
                start, end, FlowFeature.SRC_IP, n=5, flow_filter=flt
            ) == window_top(
                memory, start, end, FlowFeature.SRC_IP, n=5,
                flow_filter=flt,
            )
            assert reader.top_feature_values(
                start, end, FlowFeature.DST_PORT, n=5, by_packets=True,
            ) == window_top(
                memory, start, end, FlowFeature.DST_PORT, n=5,
                by_packets=True,
            )
        tied = reader.query_table(450.25, 450.5)
        assert len(tied) == 19 and len(set(tied.router.tolist())) == 19

    def test_compaction_folds_each_slice_into_one_h0_partition(
        self, sharded_root
    ):
        result = compact_archive(sharded_root)
        assert (result.groups, result.partitions_before,
                result.partitions_after) == (3, 15, 3)
        assert result.rows_compacted == 941
        names = sorted(
            p.name for p in sharded_root.iterdir() if p.is_file()
        )
        # Each slice's shard-0 files end at seq 2.
        assert names == ["MANIFEST.json"] + [
            f"part{index}-h0-3{suffix}"
            for index in range(3) for suffix in (".flows", ".idx")
        ]
        reader = ArchiveReader(sharded_root)
        assert all(
            p.zone.sealed and p.zone.sorted for p in reader.partitions()
        )
        assert compact_archive(sharded_root).groups == 0

    def test_interrupted_migration_converges(self, tmp_path, monkeypatch):
        _assert_interrupted_migration_converges(
            _SHARDED_FIXTURE, tmp_path, monkeypatch
        )
