"""Parallel per-window feature computation and detection sweeps.

Batch detection is embarrassingly parallel in the time dimension:
every bin's feature vector (volume counters + header entropies) is a
pure reduction over that bin's rows. The sweep here splits a trace's
bin range into contiguous spans, has each worker compute its span's
:class:`~repro.detect.features.BinFeatures` rows from a table slice,
and reassembles the full :class:`~repro.detect.features.FeatureMatrix`
in bin order.

Scoring then runs through
:meth:`~repro.detect.netreflex.NetReflexDetector.detect_matrix` — the
*same* method the batch path calls on the same matrix — so a parallel
sweep yields bit-identical alarms (ids, windows, labels, meta-data,
scores) to ``detector.detect(trace)`` for any worker count. Per-bin
rows are computed by :func:`~repro.detect.features.compute_bin_features`
on exactly the same sorted row slices in both paths, which is what
makes even the float entropies match.
"""

from __future__ import annotations

from repro.detect.base import Alarm, Detector
from repro.detect.features import (
    ENTROPY_COLUMNS,
    VOLUME_COLUMNS,
    BinFeatures,
    FeatureMatrix,
    compute_bin_features,
)
from repro.detect.netreflex import NetReflexDetector
from repro.errors import DetectorError
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace
from repro.parallel.executor import ShardExecutor

import numpy as np

__all__ = ["bin_spans", "parallel_feature_matrix", "parallel_detect"]


def bin_spans(bin_count: int, workers: int) -> list[tuple[int, int]]:
    """Split ``range(bin_count)`` into ≤ ``workers`` contiguous spans.

    Spans differ in length by at most one bin and cover the range in
    order — the unit of work distribution for detection sweeps.
    """
    if bin_count <= 0:
        return []
    workers = max(1, min(workers, bin_count))
    base, remainder = divmod(bin_count, workers)
    spans = []
    lo = 0
    for index in range(workers):
        hi = lo + base + (1 if index < remainder else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def _feature_rows_task(
    table: FlowTable,
    origin: float,
    bin_seconds: float,
    lo: int,
    hi: int,
) -> list[BinFeatures]:
    """Worker task: feature vectors of bins ``[lo, hi)``.

    ``table`` holds (at least) the span's rows sorted by start time;
    bins slice it with the same searchsorted geometry
    :class:`~repro.flows.trace.FlowTrace` uses, so every bin sees the
    identical row slice the batch path sees.
    """
    starts = table.start
    rows = []
    for index in range(lo, hi):
        left = origin + index * bin_seconds
        right = left + bin_seconds
        a = int(np.searchsorted(starts, left, side="left"))
        b = int(np.searchsorted(starts, right, side="left"))
        rows.append(compute_bin_features(table.select(slice(a, b))))
    return rows


def parallel_feature_matrix(
    trace: FlowTrace,
    workers: int = 1,
    executor: ShardExecutor | None = None,
) -> FeatureMatrix:
    """The detector feature matrix of ``trace``, computed span-wise.

    Equal to ``build_feature_matrix(trace)`` (default volume+entropy
    columns) bit for bit; each worker reduces a contiguous bin span
    and the rows are merged in bin order.
    """
    if not len(trace):
        raise DetectorError("cannot build features from an empty trace")
    spans = bin_spans(trace.bin_count, workers)
    owns_executor = executor is None
    if executor is None:
        executor = ShardExecutor(workers)
    tables = []
    extras = []
    for lo, hi in spans:
        left = trace.bin_interval(lo)[0]
        right = trace.bin_interval(hi - 1)[1]
        tables.append(trace.between_table(left, right))
        extras.append((trace.origin, trace.bin_seconds, lo, hi))
    try:
        span_rows = executor.map_tables(_feature_rows_task, tables, extras)
    finally:
        if owns_executor:
            executor.close()
    data = np.array(
        [
            features.as_array()
            for rows in span_rows
            for features in rows
        ],
        dtype=float,
    )
    return FeatureMatrix(
        data=data,
        columns=VOLUME_COLUMNS + ENTROPY_COLUMNS,
        bin_indices=tuple(range(trace.bin_count)),
        origin=trace.origin,
        bin_seconds=trace.bin_seconds,
    )


def parallel_detect(
    detector: Detector,
    trace: FlowTrace,
    workers: int = 1,
    executor: ShardExecutor | None = None,
) -> list[Alarm]:
    """Multi-window detection sweep with worker-partitioned bin ranges.

    Workers evaluate disjoint window ranges; results merge in
    timestamp (bin) order. Output is identical to
    ``detector.detect(trace)`` — the matrix rows are computed by the
    same per-bin reductions and scored by the same
    ``detect_matrix`` code path.
    """
    if not isinstance(detector, NetReflexDetector):
        raise DetectorError(
            f"parallel detection supports NetReflexDetector; got "
            f"{type(detector).__name__} (use detector.detect)"
        )
    matrix = parallel_feature_matrix(trace, workers, executor)
    return detector.detect_matrix(matrix, trace.between_table)
