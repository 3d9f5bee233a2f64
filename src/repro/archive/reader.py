"""Querying an archive: prune with zone maps, serve mmap views.

:class:`ArchiveReader` answers the same window+filter queries as the
in-memory :meth:`~repro.flows.trace.FlowTrace.query_table` and
:meth:`~repro.stream.window.WindowRing.query_table` — deliberately so:
its ``query_table`` and ``slice_seconds`` let a
:class:`~repro.system.backend.FlowBackend`, and therefore the whole
triage pipeline, run against the on-disk archive unchanged. Results
are **byte-identical** to a trace holding the same rows (the
equivalence suite asserts it): partitions scan in canonical
``(slice, seq)`` order and the final
:meth:`~repro.flows.table.FlowTable.in_query_order` sort resolves ties
by that order, exactly as a trace's stable start order does.

A query touches a partition's payload only when it must:

1. the **zone map** (time bounds, per-feature summaries) prunes
   partitions that cannot contribute — no file I/O at all. The time
   cut is one vectorised test over the reader's
   :class:`~repro.archive.planner.PartitionCatalogue` (zone bounds as
   arrays, rebuilt when a rescan finds the directory changed), and
   per-feature ``may_match`` runs only on its survivors, so a query's
   fixed cost does not grow with the partition count;
2. a surviving partition mmaps as a zero-copy
   :class:`~repro.flows.table.FlowTable`; if the zone map proves every
   row starts inside the window and there is no filter, the view is
   served whole — still zero-copy;
3. otherwise :func:`~repro.archive.planner.window_rows` cuts it: a
   partition whose sidecar says ``sorted`` (every one this writer
   emits) by two bisections, so the filter mask and the one copy run
   over the window's rows only; an unsorted one by a mask over all.

Scanning the directory re-validates integrity cheaply (sidecar
checksum, header, sizes): torn files, orphaned temporaries and
sidecar-less data files are moved to ``quarantine/`` and counted,
never served, and never fatal for the rest of the archive. A directory
that holds a partition in a format older builds wrote is refused
whole, before anything is moved: the
:class:`~repro.errors.ArchiveError` names ``repro archive compact``,
the one migration (:mod:`repro.archive.compaction`). Per-query pruning
counters are kept on :attr:`last_scan` — the benchmark and the
operator ``stats`` command both read them.

Filter text is parsed once per distinct expression: the parsed
:class:`~repro.flows.filter.FilterNode` trees (frozen, so safe to
share) sit in a bounded LRU cache of :data:`FILTER_CACHE_SIZE`
entries; a syntax error is raised every time, never cached.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.archive.compaction import refuse_outdated
from repro.archive.layout import INDEX_SUFFIX, ArchiveLayout
from repro.archive.partition import Partition, load_partition
from repro.archive.planner import (
    PartitionCatalogue,
    QueryPlan,
    count_rows,
    feature_column,
    histogram_rows,
    window_rows,
)
from repro.errors import ArchiveError, SpecError, StoreError
from repro.flows.aggregate import merge_histograms, ranked_from_histogram
from repro.flows.filter import FilterNode, parse_filter
from repro.flows.record import FlowFeature
from repro.flows.table import FLOW_DTYPE, FlowTable
from repro.flows.trace import DEFAULT_BIN_SECONDS, FlowTrace, TraceStats
from repro.obs import events as obs_events, metrics as obs_metrics

__all__ = ["ScanStats", "ArchiveStats", "ArchiveReader"]

_QUERIES = obs_metrics.counter(
    "repro_archive_queries_total",
    "Planned archive queries (rows, count and top alike).",
)
_ZONE_PRUNES = obs_metrics.counter(
    "repro_archive_zone_prunes_total",
    "Partitions skipped by zone maps (time and filter pruning).",
)
_PARTITIONS_SCANNED = obs_metrics.counter(
    "repro_archive_partitions_scanned_total",
    "Partitions whose payload a query actually opened.",
)
_PUSHDOWN = obs_metrics.counter(
    "repro_archive_pushdown_total",
    "Queries answered from sidecar metadata alone, by planner tier.",
)

#: Distinct filter expressions whose parsed trees a process keeps.
FILTER_CACHE_SIZE = 256


@functools.lru_cache(maxsize=FILTER_CACHE_SIZE)
def _parsed_filter(text: str) -> FilterNode:
    return parse_filter(text)


@dataclass(frozen=True, slots=True)
class ScanStats:
    """How the last query used (or skipped) the archive's partitions."""

    partitions: int
    pruned_time: int
    pruned_filter: int
    scanned: int
    rows_scanned: int
    rows_returned: int
    #: Payload bytes of the partitions actually opened for rows.
    payload_bytes: int = 0

    @property
    def pruned(self) -> int:
        return self.pruned_time + self.pruned_filter


@dataclass(frozen=True, slots=True)
class ArchiveStats:
    """Aggregate state of the archive directory."""

    partitions: int
    sealed: int
    rows: int
    payload_bytes: int
    slices: int
    quarantined: int
    span: tuple[float, float] | None


class ArchiveReader:
    """Read-only, zone-map-pruned view of one archive directory."""

    def __init__(
        self,
        root: str | Path,
        use_zone_maps: bool = True,
        auto_refresh: bool = True,
    ) -> None:
        """``use_zone_maps=False`` disables pruning (every query scans
        every partition) — the full-scan baseline for the benchmark and
        the equivalence tests. ``auto_refresh`` re-scans the directory
        before each query so a reader following a live writer (the
        streaming triage loop) sees newly sealed windows."""
        self.layout = ArchiveLayout(root)
        self.use_zone_maps = use_zone_maps
        self.auto_refresh = auto_refresh
        self._partitions: list[Partition] = []
        self._catalogue = PartitionCatalogue.of(())
        self._loaded: dict[str, Partition] = {}
        self._quarantined = 0
        self._dir_stamp: int | None = None
        self._geometry: tuple[float, float] | None = None
        self.last_scan = ScanStats(0, 0, 0, 0, 0, 0)
        #: Planner decision record of the last query (``--explain``).
        self.last_plan: QueryPlan | None = None
        self.refresh()

    # -- directory scan ----------------------------------------------------

    def _manifest(self) -> tuple[float, float] | None:
        # Geometry is written once and never moves, so the first
        # successful read is cached — FlowBackend reads slice_seconds
        # per alarm and must not pay a file open + JSON parse each time.
        if self._geometry is None:
            self._geometry = self.layout.read_manifest()
        return self._geometry

    @property
    def slice_seconds(self) -> float:
        """Rotation width from the manifest (default before one exists)."""
        manifest = self._manifest()
        return manifest[0] if manifest else DEFAULT_BIN_SECONDS

    @property
    def origin(self) -> float:
        """Left edge of slice 0 (0.0 for an empty archive)."""
        manifest = self._manifest()
        return manifest[1] if manifest else 0.0

    def refresh(self) -> None:
        """Re-scan the directory: admit new partitions, quarantine bad.

        Already-validated partitions are reused (their mmaps stay
        shared); schema-version mismatches raise
        :class:`~repro.errors.CodecError` — a foreign-version archive
        must fail loudly, not shrink silently. An unchanged directory
        (same mtime as the last scan — file additions, renames and
        quarantine moves all bump it) short-circuits, which keeps
        ``auto_refresh`` queries cheap on a quiet archive. A partition
        in an old format raises :class:`~repro.errors.ArchiveError`
        before anything is quarantined.
        """
        try:
            stamp = self.layout.root.stat().st_mtime_ns
        except FileNotFoundError:
            stamp = None
        if stamp is not None and stamp == self._dir_stamp:
            return
        # Only trust a stamp that is comfortably in the past: file
        # timestamps come from a coarse kernel clock, so a rename
        # landing in the same tick as this scan would not bump the
        # mtime and a cached fresh stamp could hide it forever.
        if stamp is not None and \
                time.time_ns() - stamp < 50_000_000:  # 50 ms
            stamp = None
        refuse_outdated(self.layout.root)
        for stray in self.layout.stray_files():
            self._quarantine(stray, "orphaned temporary file")
        live: list[Partition] = []
        superseded: set[str] = set()
        seen: set[str] = set()
        for key, path in self.layout.partition_files():
            seen.add(path.name)
            cached = self._loaded.get(path.name)
            if cached is not None:
                live.append(cached)
                superseded.update(cached.zone.replaces)
                continue
            try:
                partition = load_partition(key, path)
            except FileNotFoundError:
                # Data lands before its sidecar, so a sidecar-less
                # file is either a writer mid-partition-write (young:
                # leave it alone, exactly like an in-flight .tmp) or a
                # crash leftover (old: quarantine it).
                try:
                    age = time.time() - path.stat().st_mtime
                except FileNotFoundError:
                    continue
                if age <= 60.0:
                    seen.discard(path.name)
                    continue
                self._quarantine(
                    path, "partition without an index sidecar"
                )
                continue
            except ArchiveError as exc:  # a CodecError propagates
                self._quarantine(path, str(exc))
                continue
            self._loaded[path.name] = partition
            live.append(partition)
            superseded.update(partition.zone.replaces)
        # Evict cache entries for files no longer on disk (compaction
        # deletes, quarantine moves): a long-lived reader must not pin
        # deleted inodes through cached mmap views forever.
        for name in [n for n in self._loaded if n not in seen]:
            del self._loaded[name]
        if superseded:
            # A crash between compaction's write and its deletes can
            # leave both the merged partition and its inputs on disk;
            # the merged one's provenance list wins.
            live = [p for p in live if p.path.name not in superseded]
        self._partitions = live
        self._catalogue = PartitionCatalogue.of([p.zone for p in live])
        self._dir_stamp = stamp

    def partitions(self) -> list[Partition]:
        """The servable partitions, canonical scan order."""
        return list(self._partitions)

    def __len__(self) -> int:
        return int(self._catalogue.rows.sum())

    def stats(self) -> ArchiveStats:
        """Aggregate directory state (refreshes first).

        ``quarantined`` counts the data files actually sitting in
        ``quarantine/`` — the directory's state, not just what this
        reader instance moved there — so a fresh ``repro archive
        stats`` surfaces corruption an earlier process detected.
        """
        self.refresh()
        parts = self._partitions
        catalogue = self._catalogue
        rows = int(catalogue.rows.sum())
        span = None
        if parts:
            span = (
                float(catalogue.min_start.min()),
                float(catalogue.max_start.max()),
            )
        quarantine = self.layout.quarantine_dir
        quarantined = 0
        if quarantine.is_dir():
            quarantined = sum(
                1
                for entry in quarantine.iterdir()
                if entry.is_file()
                and not entry.name.endswith((".reason", INDEX_SUFFIX))
            )
        return ArchiveStats(
            partitions=len(parts),
            sealed=sum(1 for p in parts if p.zone.sealed),
            rows=rows,
            payload_bytes=rows * FLOW_DTYPE.itemsize,
            slices=len({p.key.slice_index for p in parts}),
            quarantined=quarantined,
            span=span,
        )

    # -- the pruned scan ---------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        """Quarantine one bad file: move, count, journal."""
        self.layout.quarantine(path, reason)
        self._quarantined += 1
        if obs_events.enabled():
            obs_events.emit(
                "archive.quarantine",
                path=path.name,
                reason=reason,
            )

    def _note_plan(self, plan: QueryPlan) -> None:
        """Publish one query's plan: ``last_plan`` plus obs counters."""
        self.last_plan = plan
        if obs_metrics.enabled():
            _QUERIES.inc()
            pruned = plan.pruned_time + plan.pruned_filter
            if pruned:
                _ZONE_PRUNES.inc(pruned)
            if plan.scanned:
                _PARTITIONS_SCANNED.inc(plan.scanned)
            if plan.pushdown:
                _PUSHDOWN.labels(tier=plan.pushdown).inc()
        if obs_events.enabled():
            obs_events.emit(
                "planner.query",
                query=plan.query,
                partitions=plan.partitions,
                pruned=plan.pruned_time + plan.pruned_filter,
                scanned=plan.scanned,
                pushdown=plan.pushdown or None,
            )

    def _prune(
        self, start: float, end: float, filter_node: FilterNode | None
    ) -> tuple[np.ndarray, int, int]:
        """Scan-order positions of the partitions the zone maps cannot
        rule out, and how many they did: by time, then by filter.

        The time cut is one test over the catalogue's bounds; only its
        survivors run the per-feature ``may_match``.
        """
        total = len(self._partitions)
        if not self.use_zone_maps:
            return np.arange(total), 0, 0
        timely = self._catalogue.overlapping(start, end)
        kept = timely
        if filter_node is not None and len(timely):
            kept = timely[np.fromiter(
                (
                    self._partitions[position].zone.may_match(filter_node)
                    for position in timely.tolist()
                ),
                bool,
                len(timely),
            )]
        return kept, total - len(timely), len(timely) - len(kept)

    def _covered(
        self,
        positions: np.ndarray,
        start: float,
        end: float,
        filter_node: FilterNode | None,
    ) -> np.ndarray:
        """Per position: may the partition serve whole, without a cut —
        no filter, zone maps on, and every row starts in the window?"""
        if filter_node is not None or not self.use_zone_maps:
            return np.zeros(len(positions), dtype=bool)
        return self._catalogue.covered(positions, start, end)

    def _ordered(self, partition: Partition) -> bool:
        """May a scan bisect ``partition``? Its sidecar says so; the
        ``use_zone_maps=False`` baseline trusts no sidecar fact."""
        return self.use_zone_maps and partition.zone.sorted

    def _window_tables(
        self,
        start: float,
        end: float,
        filter_node: FilterNode | None,
    ) -> list[FlowTable]:
        """Per-partition row sets of the query, canonical order.

        The time and filter cut is
        :func:`~repro.archive.planner.window_rows`; the final ordering
        sort is the caller's. Fully covered, unfiltered partitions
        pass through as whole zero-copy views.
        """
        positions, pruned_time, pruned_filter = self._prune(
            start, end, filter_node
        )
        covered = self._covered(positions, start, end, filter_node)
        rows_scanned = rows_returned = payload_bytes = 0
        selected: list[FlowTable] = []
        for position, whole in zip(positions.tolist(), covered.tolist()):
            partition = self._partitions[position]
            table = partition.table()
            rows_scanned += len(table)
            payload_bytes += partition.payload_bytes
            if not whole:
                table = window_rows(
                    table, start, end, filter_node,
                    self._ordered(partition),
                )
            selected.append(table)
            rows_returned += len(table)
        self.last_scan = ScanStats(
            partitions=len(self._partitions),
            pruned_time=pruned_time,
            pruned_filter=pruned_filter,
            scanned=len(positions),
            rows_scanned=rows_scanned,
            rows_returned=rows_returned,
            payload_bytes=payload_bytes,
        )
        self._note_plan(QueryPlan(
            query="rows",
            partitions=len(self._partitions),
            pruned_time=pruned_time,
            pruned_filter=pruned_filter,
            sidecar_answered=0,
            scanned=len(positions),
            payload_bytes_read=payload_bytes,
        ))
        return selected

    # -- window queries ------------------------------------------------------

    def query_table(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> FlowTable:
        """Columnar window+filter query, ordered by ``(start, 5-tuple)``.

        Same contract (and byte-identical results) as
        :meth:`repro.flows.trace.FlowTrace.query_table`, with zone-map
        pruning deciding which partition files are touched at all.
        """
        _check_window(start, end)
        if self.auto_refresh:
            self.refresh()
        return FlowTable.concat(
            self._window_tables(start, end, self._compile(flow_filter))
        ).in_query_order()

    def count(
        self,
        start: float,
        end: float,
        flow_filter: str | FilterNode | None = None,
    ) -> TraceStats:
        """Aggregate counters over a query without materialising flows.

        Unfiltered, fully covered partitions are answered from their
        zone maps alone (row/packet/byte sums) — counting an archived
        window costs zero payload reads; :attr:`last_plan` records
        ``pushdown="zone-map-stats"`` when *every* surviving partition
        answered that way.
        """
        _check_window(start, end)
        if self.auto_refresh:
            self.refresh()
        filter_node = self._compile(flow_filter)
        positions, pruned_time, pruned_filter = self._prune(
            start, end, filter_node
        )
        covered = self._covered(positions, start, end, filter_node)
        if covered.all():
            answered, needs_scan = positions, []
        else:
            answered = positions[covered]
            needs_scan = [
                self._partitions[position]
                for position in positions[~covered].tolist()
            ]
        parts = [self._catalogue.totals(answered)] + [
            count_rows(p.table(), start, end, filter_node, self._ordered(p))
            for p in needs_scan
        ]
        flows = packets = byte_total = 0
        lo, hi = np.inf, -np.inf
        for part in parts:
            if part is None:
                continue
            part_flows, part_packets, part_bytes, part_lo, part_hi = part
            flows += part_flows
            packets += part_packets
            byte_total += part_bytes
            lo = min(lo, part_lo)
            hi = max(hi, part_hi)
        self._note_plan(QueryPlan(
            query="count",
            partitions=len(self._partitions),
            pruned_time=pruned_time,
            pruned_filter=pruned_filter,
            sidecar_answered=len(answered),
            scanned=len(needs_scan),
            payload_bytes_read=sum(
                p.payload_bytes for p in needs_scan
            ),
            pushdown="zone-map-stats" if not needs_scan else None,
        ))
        if flows == 0:
            return TraceStats(
                flows=0, packets=0, bytes=0, start=start, end=start
            )
        return TraceStats(
            flows=flows,
            packets=packets,
            bytes=byte_total,
            start=float(lo),
            end=float(hi),
        )

    def top_feature_values(
        self,
        start: float,
        end: float,
        feature: FlowFeature,
        n: int = 10,
        by_packets: bool = False,
        flow_filter: str | FilterNode | None = None,
    ) -> list[tuple[int, int]]:
        """Top-``n`` feature values, pushed down when sidecars allow.

        Two tiers, cheapest that applies wins, identical answers by
        construction (histogram merging is integer addition and the
        ranking is the one
        :func:`~repro.flows.aggregate.ranked_from_histogram` — count
        descending, ties by the value's string rendering):

        1. **feature-index pushdown** — no row filter, zone maps on,
           every surviving partition fully covered by the window:
           merge the per-partition histograms and rank. Zero payload
           bytes read.
        2. **histogram scan** — per-partition histograms of the
           query's cut, merged and ranked the same way.
        """
        if n <= 0:
            raise StoreError(f"n must be positive: {n!r}")
        _check_window(start, end)
        if self.auto_refresh:
            self.refresh()
        filter_node = self._compile(flow_filter)
        column = feature_column(feature)
        positions, pruned_time, pruned_filter = self._prune(
            start, end, filter_node
        )
        candidates = [
            self._partitions[position] for position in positions.tolist()
        ]
        plan = dict(
            query="top",
            partitions=len(self._partitions),
            pruned_time=pruned_time,
            pruned_filter=pruned_filter,
            sidecar_answered=0,
            scanned=0,
            payload_bytes_read=0,
        )
        if not candidates:
            self._note_plan(QueryPlan(**plan))
            return []
        if self._covered(positions, start, end, filter_node).all():
            values, counts = merge_histograms([
                p.features.histogram(column, by_packets) for p in candidates
            ])
            self._note_plan(QueryPlan(
                **{
                    **plan,
                    "sidecar_answered": len(candidates),
                    "pushdown": "feature-index",
                }
            ))
            return ranked_from_histogram(values, counts, n)
        values, counts = merge_histograms([
            histogram_rows(
                p.table(), start, end, filter_node,
                self._ordered(p), column, by_packets,
            )
            for p in candidates
        ])
        self._note_plan(QueryPlan(
            **{
                **plan,
                "scanned": len(candidates),
                "payload_bytes_read": sum(
                    p.payload_bytes for p in candidates
                ),
            }
        ))
        return ranked_from_histogram(values, counts, n)

    def to_trace(
        self,
        start: float | None = None,
        end: float | None = None,
        bin_seconds: float | None = None,
    ) -> FlowTrace:
        """Materialise (a window of) the archive as a trace."""
        if self.auto_refresh:
            self.refresh()
        parts = self._partitions
        if not parts:
            return FlowTrace(
                bin_seconds=bin_seconds or self.slice_seconds,
                origin=self.origin,
            )
        catalogue = self._catalogue
        lo = float(catalogue.min_start.min()) if start is None else start
        hi = (
            float(catalogue.max_start.max()) + 1.0 if end is None else end
        )
        return FlowTrace(
            self.query_table(lo, hi),
            bin_seconds=bin_seconds or self.slice_seconds,
            origin=self.origin,
        )

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _compile(
        flow_filter: str | FilterNode | None,
    ) -> FilterNode | None:
        if flow_filter is None or isinstance(flow_filter, FilterNode):
            return flow_filter
        return _parsed_filter(flow_filter)


def _check_window(start: float, end: float) -> None:
    """Refuse an inverted window, as every in-memory store does."""
    if end < start:
        raise StoreError(f"inverted interval [{start}, {end})")


def lazy_reader(
    directory: str | None,
) -> Callable[[], ArchiveReader | None] | None:
    """A console's archive surface: a reader built on first call and
    cached (``auto_refresh`` keeps it current as a live stream seals
    windows); ``None`` when there is no directory."""
    if not directory:
        return None
    cache: list[ArchiveReader] = []

    def reader() -> ArchiveReader | None:
        if not cache:
            try:
                cache.append(ArchiveReader(directory))
            except Exception:
                return None
        return cache[0]

    return reader


# -- session-facade registration ---------------------------------------------

class ArchiveSource:
    """``archive`` source: a persistent on-disk partition directory.

    Bounded (the archive's current contents), and additionally exposes
    :meth:`reader` so archive-resume triage, pruned queries and
    management modes operate on the zone-map-pruned surface directly.
    """

    kind = "archive"
    bounded = True

    def __init__(self, spec) -> None:
        self.spec = spec
        if not spec.path:
            raise SpecError(
                "source kind 'archive' requires a directory path",
                field="source.path",
            )
        # A typo'd path must not answer as an empty archive (or, for
        # compaction, create one).
        if not Path(spec.path).is_dir():
            raise ArchiveError(f"no archive directory at {spec.path!r}")
        self.path = spec.path
        self._reader: ArchiveReader | None = None

    def reader(self) -> ArchiveReader:
        """The (cached) zone-map-pruned reader over the directory."""
        if self._reader is None:
            self._reader = ArchiveReader(self.path)
        return self._reader

    def trace(self):
        return self.reader().to_trace()

    def chunks(self, chunk_rows: int):
        for partition in self.reader().partitions():
            yield partition.table()

    def describe(self) -> str:
        return self.path


from repro.api.registry import sources as _sources  # noqa: E402

_sources.register("archive", ArchiveSource)
