"""Written in order, read by bisection (Archive contract rule 6).

Three guarantees of the archive's read side:

* **Top-N selects.** ``ranked_from_histogram`` ranks only the entries
  that can make the cut and still equals the full sort
  (``tests/record_oracle.py``) for any histogram and any ``n`` — large
  tie groups at the cut included.
* **``sorted`` is a derived fact.** ``write_partition`` reads the flag
  off the rows; everything ``ingest_table`` spills is in query order.
* **One answer, however the rows are held.** A bounded trace, the
  live window ring (sealed with or without an archive, open, or past
  retention) and the archive it seals into answer a window with the
  same bytes. Archived ring-sealed, bulk-ingested from shuffled
  chunks, or written out of order (so the reader takes the mask, not
  the bisection): ``query_table``, ``count`` and
  ``top_feature_values`` agree to the byte, on windows chosen to sit
  on the cut's edges, and a query session answers the same at any
  worker count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import window_count, window_top
from repro import api
from repro.archive import ArchiveReader, ArchiveWriter
from repro.archive.planner import window_rows
from repro.flows import aggregate
from repro.flows.aggregate import ranked_from_histogram
from repro.flows.filter import compile_mask, parse_filter
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.stream.sources import table_chunks
from repro.stream.window import WindowRing
from tests import record_oracle

# -- top-N by selection -------------------------------------------------------


@st.composite
def histograms(draw):
    """``(values, counts, n)`` with the tie structures that stress the
    cut: every count equal, a handful of distinct counts over many
    values, ``n`` past the number of distinct counts and past the
    histogram's length."""
    size = draw(st.integers(0, 60))
    values = np.array(
        sorted(draw(st.sets(
            st.integers(0, 2**32 - 1), min_size=size, max_size=size
        ))),
        dtype=np.uint32,
    )
    count_pool = draw(st.sampled_from([
        [1], [1, 2], [1, 2, 3, 50], list(range(1, 200)), [0, 7],
        [2**40, 2**40 + 1],
    ]))
    counts = np.array(
        [draw(st.sampled_from(count_pool)) for _ in range(size)],
        dtype=np.int64,
    )
    n = draw(st.sampled_from([1, 2, 3, 5, 10, size or 1, size + 1, 100]))
    return values, counts, n


@settings(max_examples=300, deadline=None)
@given(histogram=histograms())
def test_selection_equals_the_full_sort(histogram):
    values, counts, n = histogram
    assert ranked_from_histogram(values, counts, n) == \
        record_oracle.ranked_from_histogram(values, counts, n)


def test_ranking_sorts_only_what_can_make_the_cut(monkeypatch):
    """``builtins.sorted`` sees the n-th largest count's peers and
    betters, not the histogram (a count, not a timing)."""
    seen = []

    def spy(pairs, **kwargs):
        pairs = list(pairs)
        seen.append(len(pairs))
        return sorted(pairs, **kwargs)

    monkeypatch.setattr(aggregate, "sorted", spy, raising=False)
    rng = np.random.default_rng(5)
    values = np.arange(30_000, dtype=np.uint32)
    counts = rng.permutation(30_000).astype(np.int64)  # no ties
    assert ranked_from_histogram(values, counts, 10) == \
        record_oracle.ranked_from_histogram(values, counts, 10)
    counts[:25] = 10**6  # 25 tied for the top: all of them survive
    assert ranked_from_histogram(values, counts, 10) == \
        record_oracle.ranked_from_histogram(values, counts, 10)
    assert seen == [10, 25]


# -- the derived flag ---------------------------------------------------------

WIDTH = 300.0
#: Starts sit on a 7.5 s grid: long runs of equal ``start`` inside
#: every slice, and window edges that can land exactly on a row.
GRID = 7.5


def _tied_table(count=6000, seed=17, span=900.0):
    """Rows with many equal starts and a distinct 5-tuple per row, so
    the canonical order of any subset does not depend on the order the
    rows arrived in."""
    rng = np.random.default_rng(seed)
    starts = GRID * rng.integers(0, int(span / GRID), count)
    return FlowTable.from_columns(
        src_ip=rng.integers(0x0A000000, 0x0A000040, count),
        dst_ip=rng.integers(0x0A000000, 0x0A000040, count),
        src_port=rng.permutation(count) + 1024,
        dst_port=rng.choice(np.array([53, 80, 443]), count),
        proto=rng.choice(np.array([6, 17]), count),
        packets=rng.integers(1, 500, count),
        bytes=rng.integers(40, 100_000, count),
        start=starts,
        end=starts + rng.uniform(0.0, 60.0, count),
    )


def _shuffled(table, seed):
    return table.select(
        np.random.default_rng(seed).permutation(len(table))
    )


class TestSortedIsDerived:
    def test_one_row_out_of_order_clears_the_flag(self, tmp_path):
        ordered = _tied_table(400, span=WIDTH).in_query_order()
        swapped = np.arange(len(ordered))
        swapped[[10, 300]] = swapped[[300, 10]]
        writer = ArchiveWriter(tmp_path / "a", slice_seconds=WIDTH,
                               origin=0.0)
        writer.write_partition(ordered, slice_index=0)
        writer.write_partition(ordered.select(swapped), slice_index=0)
        flags = [
            p.zone.sorted for p in ArchiveReader(tmp_path / "a").partitions()
        ]
        assert flags == [True, False]

    def test_every_spill_is_sorted_and_in_query_order(self, tmp_path):
        table = _shuffled(_tied_table(), seed=1)
        with ArchiveWriter(tmp_path / "a", slice_seconds=WIDTH,
                           spill_rows=500) as writer:
            writer.ingest_chunks(table_chunks(table, 700))
        partitions = ArchiveReader(tmp_path / "a").partitions()
        assert len(partitions) > 6
        assert sum(p.rows for p in partitions) == len(table)
        for partition in partitions:
            rows = partition.table()
            assert partition.zone.sorted
            assert rows.in_query_order() is rows


# -- the window cut -----------------------------------------------------------


def test_bisection_and_mask_cut_the_same_rows():
    table = _tied_table(2000, span=WIDTH).in_query_order()
    node = parse_filter("dst port 53 or packets > 400")
    for start, end in [
        (0.0, WIDTH), (15.0, 15.0), (15.0, 15.5), (7.5, 30.0),
        (-50.0, 2.0), (299.0, 1e9), (101.0, 101.5),
    ]:
        for flt in (None, node):
            bisected = window_rows(table, start, end, flt, True)
            masked = window_rows(table, start, end, flt, False)
            assert bisected._data.tobytes() == masked._data.tobytes()
    whole = window_rows(table, 0.0, WIDTH, None, True)
    assert np.shares_memory(whole._data, table._data)


#: Empty; inside one run of equal start; ending exactly on a row's
#: start (which the half-open window excludes); whole partitions;
#: cutting through slices.
WINDOWS = [
    (10.1, 10.2),
    (600.0, 600.0),
    (15.0, 15.0 + 1e-6),
    (7.5, 30.0),
    (292.5, 307.5),
    (0.0, 900.0),
    (300.0, 600.0),
    (100.0, 455.0),
]
FILTERS = [
    None,
    "dst port 53",
    "proto udp and packets > 250",
    "src ip 10.0.0.17 or dst port 80",
    "dst port 9999",
]


@pytest.fixture(scope="module")
def three_archives(tmp_path_factory):
    """The same rows archived three ways, and the trace they equal."""
    table = _tied_table()
    root = tmp_path_factory.mktemp("order")
    # Ring-sealed: one sorted, sealed partition per window.
    ring = WindowRing(
        WIDTH, origin=0.0, lateness_seconds=None,
        archive=ArchiveWriter(root / "ring", slice_seconds=WIDTH),
    )
    for chunk in table_chunks(table, 800):
        ring.ingest(chunk)
    ring.flush()
    # Bulk ingest of shuffled chunks: several spills per slice.
    with ArchiveWriter(root / "bulk", slice_seconds=WIDTH, origin=0.0,
                       spill_rows=700) as writer:
        writer.ingest_chunks(table_chunks(_shuffled(table, 2), 900))
    # Out of order on disk, as ingest wrote before spills were ordered.
    unsorted = ArchiveWriter(root / "unsorted", slice_seconds=WIDTH,
                             origin=0.0)
    shuffled = _shuffled(table, 3)
    slices = np.floor(shuffled.start / WIDTH).astype(int)
    for index in np.unique(slices):
        for half in np.array_split(np.flatnonzero(slices == index), 2):
            unsorted.write_partition(
                shuffled.select(half), slice_index=int(index)
            )
    readers = {
        name: ArchiveReader(root / name)
        for name in ("ring", "bulk", "unsorted")
    }
    return readers, FlowTrace(table, bin_seconds=WIDTH, origin=0.0)


class TestArchivedThreeWays:
    def test_the_flags_are_what_the_cut_branches_on(self, three_archives):
        readers, _memory = three_archives
        flags = {
            name: {p.zone.sorted for p in reader.partitions()}
            for name, reader in readers.items()
        }
        assert flags == {
            "ring": {True}, "bulk": {True}, "unsorted": {False},
        }
        assert len(readers["bulk"].partitions()) > 3

    def test_row_queries_are_byte_identical(self, three_archives):
        readers, memory = three_archives
        for start, end in WINDOWS:
            for flt in FILTERS:
                want = memory.query_table(start, end, flt)._data.tobytes()
                for name, reader in readers.items():
                    got = reader.query_table(start, end, flt)
                    assert got._data.tobytes() == want, \
                        (name, start, end, flt)

    def test_counts_and_rankings_agree(self, three_archives):
        readers, memory = three_archives
        for start, end in WINDOWS:
            for flt in FILTERS:
                want_count = window_count(memory, start, end, flt)
                want_top = [
                    window_top(
                        memory, start, end, feature, n=5,
                        by_packets=by_packets, flow_filter=flt,
                    )
                    for feature in (FlowFeature.SRC_IP, FlowFeature.DST_PORT)
                    for by_packets in (False, True)
                ]
                for name, reader in readers.items():
                    assert reader.count(start, end, flt) == want_count, \
                        (name, start, end, flt)
                    assert [
                        reader.top_feature_values(
                            start, end, feature, n=5,
                            by_packets=by_packets, flow_filter=flt,
                        )
                        for feature in
                        (FlowFeature.SRC_IP, FlowFeature.DST_PORT)
                        for by_packets in (False, True)
                    ] == want_top, (name, start, end, flt)

    def test_worker_scans_agree_with_serial(self, three_archives):
        # ``workers`` is deprecated: a query session asked for two
        # workers scans in this process and answers as memory does.
        readers, memory = three_archives
        for name, reader in readers.items():
            def query(start, end, flt, **options):
                return (
                    api.session()
                    .source("archive", path=str(reader.layout.root))
                    .query(start, end, filter=flt, workers=2, **options)
                    .run()
                    .payload
                )

            for start, end in WINDOWS:
                for flt in ("dst port 53", None):
                    assert query(start, end, flt, stats=True)["stats"] \
                        == window_count(memory, start, end, flt), \
                        (name, start, end, flt)
                    assert query(start, end, flt, top="srcIP",
                                 limit=5)["top"] \
                        == window_top(
                            memory, start, end, FlowFeature.SRC_IP, n=5,
                            flow_filter=flt,
                        ), (name, start, end, flt)


# -- three paths to one window ------------------------------------------------


@st.composite
def window_tables(draw):
    """Rows over five windows, in a drawn order, with ties in ``start``
    and whole duplicated 5-tuples; ``bytes`` tags each row, so a
    different order among tied rows shows in the bytes, and ``router``
    differs among rows tied on start and 5-tuple too."""
    starts = draw(st.lists(
        st.floats(0.0, 5 * WIDTH, exclude_max=True), min_size=1,
        max_size=8,
    ))
    count = draw(st.integers(0, 60))

    def column(pool):
        return draw(st.lists(
            st.sampled_from(pool), min_size=count, max_size=count
        ))

    start = column(starts)
    return FlowTable.from_columns(
        src_ip=column([0x0A000011, 0x0A000002, 0xC0A80001]),
        dst_ip=column([0x0A000001, 0x0A000002]),
        src_port=column([53, 80, 1234]),
        dst_port=column([53, 80, 9999]),
        proto=column([6, 17]),
        packets=column([1, 100, 251, 400]),
        bytes=list(range(count)),
        start=start,
        end=start,
        router=column([1, 2, 3]),
    )


@settings(max_examples=60, deadline=None)
@given(
    table=window_tables(),
    window=st.tuples(st.floats(-100.0, 1600.0), st.floats(0.0, 800.0)),
    flt=st.sampled_from(FILTERS),
    sealed=st.integers(0, 6),
    retain=st.integers(1, 5),
)
def test_trace_ring_and_archive_answer_a_window_alike(
    tmp_path_factory, table, window, flt, sealed, retain
):
    """``FlowTrace``, ``WindowRing`` and ``ArchiveReader`` return the
    same bytes for one window over the rows each holds: the archive
    the windows the ring sealed into it; the ring, with or without an
    archive, the sealed windows retention kept plus the open ones."""
    start, end = window[0], window[0] + window[1]
    index = np.floor(table.start / WIDTH).astype(int)
    root = tmp_path_factory.mktemp("three")
    rings = []
    with ArchiveWriter(root, slice_seconds=WIDTH) as writer:
        for archive in (writer, None):
            ring = WindowRing(WIDTH, origin=0.0, lateness_seconds=None,
                              retain_windows=retain, archive=archive)
            ring.ingest(table.select(index < sealed))
            ring.flush()
            ring.ingest(table.select(index >= sealed))  # left open
            rings.append(ring)

    def want(rows):
        trace = FlowTrace(rows, bin_seconds=WIDTH, origin=0.0)
        return trace.query_table(start, end, flt)._data.tobytes()

    closed = rings[0].closed_through
    assert ArchiveReader(root).query_table(
        start, end, flt
    )._data.tobytes() == want(table.select(index < closed))
    retained = want(table.select(index >= closed - retain))
    for ring in rings:
        assert ring.closed_through == closed
        rows = ring.query_table(start, end)
        if flt is not None and len(rows):
            rows = rows.select(compile_mask(flt)(rows))
        assert rows._data.tobytes() == retained
