"""Archive query planning: the catalogue prune against a linear oracle,
a work gate on a many-partition archive, the filter-plan cache and
inverted windows.

The oracle is the per-partition zone-map loop the reader used before
it kept a :class:`~repro.archive.planner.PartitionCatalogue`: the
catalogue's time cut followed by ``may_match`` on the survivors must
keep the same partitions, in the same order, and count the same
``pruned_time`` / ``pruned_filter`` / ``scanned``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.archive import ArchiveReader, ArchiveWriter, compact_archive
from repro.archive.index import ZoneMap
from repro.archive.reader import FILTER_CACHE_SIZE, _parsed_filter
from repro.errors import FilterError, StoreError
from repro.flows.filter import parse_filter
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable
from repro.stream.sources import table_chunks

#: A fractional rotation width: slice edges are not exact decimals.
SLICE = 7.3

FILTERS = (
    None,
    "dst port 443",
    "proto udp",
    "src ip 10.0.0.5",
    "not dst port 53",
    "dst port 53 or src port 1500",
    "packets > 250",
)


def _table(count, seed, lo, hi):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(lo, hi, count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A000040, count),
        dst_ip=rng.integers(0x0A000000, 0x0A0000FF, count),
        src_port=rng.integers(1024, 2048, count),
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 500, count),
        bytes=rng.integers(40, 100_000, count),
        start=starts,
        end=starts + rng.uniform(0.0, 20.0, count),
    )


def _ingest(root, table):
    """Spill small buffers: most slices get several ``seq``s."""
    with ArchiveWriter(root, slice_seconds=SLICE, origin=0.0,
                       spill_rows=60) as writer:
        writer.ingest_chunks(table_chunks(table, 250))


def _linear_prune(reader, start, end, node):
    """The oracle: one zone-map test per partition, in scan order."""
    kept, pruned_time, pruned_filter = [], 0, 0
    for partition in reader.partitions():
        if not partition.zone.overlaps_window(start, end):
            pruned_time += 1
        elif node is not None and not partition.zone.may_match(node):
            pruned_filter += 1
        else:
            kept.append(partition.path.name)
    return kept, pruned_time, pruned_filter


def _assert_prunes_like_the_oracle(reader, full, start, end, text):
    reader.refresh()
    node = None if text is None else parse_filter(text)
    kept, pruned_time, pruned_filter = _linear_prune(
        reader, start, end, node
    )
    positions, got_time, got_filter = reader._prune(start, end, node)
    parts = reader.partitions()
    assert [parts[i].path.name for i in positions.tolist()] == kept
    assert (got_time, got_filter) == (pruned_time, pruned_filter)

    rows = reader.query_table(start, end, text)
    scan = reader.last_scan
    assert (scan.pruned_time, scan.pruned_filter, scan.scanned) == (
        pruned_time, pruned_filter, len(kept)
    )
    assert rows._data.tobytes() == \
        full.query_table(start, end, text)._data.tobytes()

    stats = reader.count(start, end, text)
    plan = reader.last_plan
    assert (plan.pruned_time, plan.pruned_filter) == \
        (pruned_time, pruned_filter)
    assert plan.sidecar_answered + plan.scanned == len(kept)
    assert stats == full.count(start, end, text)

    top = reader.top_feature_values(
        start, end, FlowFeature.DST_IP, n=5, flow_filter=text
    )
    plan = reader.last_plan
    assert (plan.pruned_time, plan.pruned_filter) == \
        (pruned_time, pruned_filter)
    assert top == full.top_feature_values(
        start, end, FlowFeature.DST_IP, n=5, flow_filter=text
    )


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("planning") / "a"
    _ingest(root, _table(3000, seed=5, lo=0.0, hi=150.0))
    reader = ArchiveReader(root)
    slices = {p.key.slice_index for p in reader.partitions()}
    assert len(reader.partitions()) > len(slices)  # several seqs
    return reader, ArchiveReader(root, use_zone_maps=False)


def _edges(reader):
    """Every zone bound and slice edge: the windows a cut can get wrong."""
    values = {k * SLICE for k in range(-1, 23)}
    for partition in reader.partitions():
        values.update((partition.zone.min_start, partition.zone.max_start))
    return sorted(values)


@st.composite
def windows(draw, edges):
    kind = draw(st.sampled_from(("random", "edges", "empty")))
    if kind == "random":
        a, b = (draw(st.floats(-10.0, 170.0)) for _ in range(2))
    elif kind == "edges":
        a, b = (draw(st.sampled_from(edges)) for _ in range(2))
    else:
        a = b = draw(st.one_of(st.sampled_from(edges),
                               st.floats(-10.0, 170.0)))
    return min(a, b), max(a, b)


class TestCatalogueMatchesTheLinearPrune:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_random_edge_and_empty_windows(self, archive, data):
        reader, full = archive
        start, end = data.draw(windows(_edges(reader)))
        text = data.draw(st.sampled_from(FILTERS))
        _assert_prunes_like_the_oracle(reader, full, start, end, text)

    def test_refreshes_after_partitions_land_and_compaction(
        self, tmp_path
    ):
        root = tmp_path / "a"
        _ingest(root, _table(1500, seed=8, lo=0.0, hi=80.0))
        reader = ArchiveReader(root)
        full = ArchiveReader(root, use_zone_maps=False)
        rng = np.random.default_rng(9)

        def check():
            for _ in range(25):
                a, b = np.sort(rng.uniform(-5.0, 170.0, 2)).tolist()
                text = FILTERS[int(rng.integers(len(FILTERS)))]
                _assert_prunes_like_the_oracle(reader, full, a, b, text)

        check()
        before = len(reader.partitions())
        # New partitions: fresh slices and further seqs of old ones.
        _ingest(root, _table(1500, seed=10, lo=40.0, hi=160.0))
        check()
        assert len(reader.partitions()) > before
        # Compaction deletes every spill and writes one per slice.
        compact_archive(root)
        check()
        slices = {p.key.slice_index for p in reader.partitions()}
        assert len(reader.partitions()) == len(slices)
        assert len(reader) == 3000


class TestPlanningWork:
    def test_time_cut_reads_no_zone_map_and_filters_survivors_only(
        self, tmp_path, monkeypatch
    ):
        # A wide archive of one-row partitions; fsync is not what this
        # test measures.
        monkeypatch.setattr(os, "fsync", lambda fd: None)
        count = 2000
        starts = np.arange(count) + 0.5
        rows = FlowTable.from_columns(
            src_ip=np.full(count, 0x0A000001),
            dst_ip=np.full(count, 0x0A000002),
            src_port=np.full(count, 1024),
            dst_port=np.array([53, 80, 443])[np.arange(count) % 3],
            proto=np.full(count, 6),
            start=starts,
            end=starts,
        )
        root = tmp_path / "wide"
        writer = ArchiveWriter(root, slice_seconds=1.0, origin=0.0)
        for index in range(count):
            writer.write_partition(
                rows.select(slice(index, index + 1)), slice_index=index,
                sealed=True,
            )
        reader = ArchiveReader(root)
        assert len(reader.partitions()) == count

        calls = {"overlaps_window": 0, "may_match": 0}
        overlaps, may_match = ZoneMap.overlaps_window, ZoneMap.may_match

        def counted_overlaps(self, start, end):
            calls["overlaps_window"] += 1
            return overlaps(self, start, end)

        def counted_may_match(self, node):
            calls["may_match"] += 1
            return may_match(self, node)

        monkeypatch.setattr(ZoneMap, "overlaps_window", counted_overlaps)
        monkeypatch.setattr(ZoneMap, "may_match", counted_may_match)

        table = reader.query_table(1000.0, 1010.0, "dst port 443")
        assert calls == {"overlaps_window": 0, "may_match": 10}
        assert len(table) == 3
        scan = reader.last_scan
        assert (scan.pruned_time, scan.pruned_filter, scan.scanned) == \
            (count - 10, 7, 3)

        calls.update(overlaps_window=0, may_match=0)
        stats = reader.count(1000.0, 1003.0)
        assert calls == {"overlaps_window": 0, "may_match": 0}
        assert stats.flows == 3
        assert reader.last_plan.pushdown == "zone-map-stats"


class TestInvertedWindows:
    @pytest.fixture
    def reader(self, tmp_path):
        _ingest(tmp_path / "a", _table(300, seed=2, lo=0.0, hi=30.0))
        return ArchiveReader(tmp_path / "a")

    def test_count_refuses_an_inverted_window(self, reader):
        with pytest.raises(StoreError, match="inverted interval"):
            reader.count(20.0, 10.0)

    def test_top_refuses_an_inverted_window(self, reader):
        with pytest.raises(StoreError, match="inverted interval"):
            reader.top_feature_values(20.0, 10.0, FlowFeature.DST_PORT)


class TestFilterPlans:
    def test_parsed_once_bounded_and_errors_never_cached(self):
        compile_ = ArchiveReader._compile
        assert compile_("dst port 443") is compile_("dst port 443")
        assert _parsed_filter.cache_info().maxsize == FILTER_CACHE_SIZE
        before = _parsed_filter.cache_info()
        for _ in range(2):
            with pytest.raises(FilterError):
                compile_("dst port")
        after = _parsed_filter.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses + 2
