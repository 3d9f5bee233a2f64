"""Flow aggregation utilities.

These helpers implement the nfdump ``-s``/``-A`` style statistics the
operator console shows and the feature distributions the detectors
consume: per-feature value histograms, top-N rankings, and per-bin
traffic matrices.

A value histogram has one form between a
:class:`~repro.flows.table.FlowTable` and whoever reads it — the
archive's feature index, the stream's window accumulators, the
detectors' attribution: ``(sorted distinct values, exact int64
counts, ...)`` arrays, counted by :func:`value_histogram` and summed by
:func:`merge_histograms`. Ascending value order and exact integers are
the contract: any split of the same rows, merged in any order, gives
the same arrays, so floats derived from them (entropies, probability
shares) are bit-identical on every path.

:func:`feature_histogram` / :func:`all_feature_histograms` are the
``Counter`` presentation of the same counts; they also accept an
iterable of :class:`FlowRecord` (the historical path), with identical
contents, which the property tests assert.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import FlowError
from repro.flows.record import (
    FLOW_FEATURES,
    FlowFeature,
    FlowRecord,
    feature_value,
)
from repro.flows.table import FlowTable

__all__ = [
    "Weighting",
    "WEIGHTINGS",
    "value_histogram",
    "merge_histograms",
    "table_histogram",
    "feature_histogram",
    "all_feature_histograms",
    "top_n",
    "ranked_from_histogram",
    "TrafficMatrixCell",
    "traffic_matrix",
    "distinct_counts",
]

#: How a flow contributes to an aggregate: by flow count, packets or bytes.
Weighting = Callable[[FlowRecord], int]

WEIGHTINGS: Mapping[str, Weighting] = {
    "flows": lambda flow: 1,
    "packets": lambda flow: flow.packets,
    "bytes": lambda flow: flow.bytes,
}


def _weighting(weight: str | Weighting) -> Weighting:
    if callable(weight):
        return weight
    try:
        return WEIGHTINGS[weight]
    except KeyError as exc:
        raise FlowError(
            f"unknown weighting {weight!r}; expected one of "
            f"{sorted(WEIGHTINGS)}"
        ) from exc


def value_histogram(
    column: np.ndarray, *weights: np.ndarray
) -> tuple[np.ndarray, ...]:
    """``(values, counts, *sums)`` of one integer ``column``: its
    sorted distinct values, the row count per value and, per ``int64``
    weight column, the exact ``int64`` sum per value.

    Sorting groups equal values into runs: the run heads are the
    distinct values, the run lengths the counts, ``np.add.reduceat``
    over the co-sorted weights the sums. 16-bit columns take numpy's
    radix sort (``kind="stable"``), several times faster there than
    the comparison sort ``np.unique`` would run.
    """
    column = np.ascontiguousarray(column)
    if not len(column):
        empty = np.zeros(0, dtype=np.int64)
        return (column, empty, *(empty for _ in weights))
    order = np.argsort(
        column, kind="stable" if column.itemsize <= 2 else None
    )
    ordered = column[order]
    heads = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    return (
        ordered[heads],
        np.diff(heads, append=len(ordered)),
        *(np.add.reduceat(weight[order], heads) for weight in weights),
    )


def merge_histograms(
    parts: Sequence[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, ...]:
    """Sum ``(values, counts, ...)`` histograms of equal width into one.

    The kernel again, over the concatenated values with the parts'
    counts as weights: equal values add exactly in ``int64`` and the
    result stays in ascending value order, so merging the histograms
    of any split of some rows, in any order, equals histogramming the
    rows in one pass.
    """
    if len(parts) == 1:
        values, *counts = parts[0]
        return (
            values,
            *(column.astype(np.int64, copy=False) for column in counts),
        )
    values, *counts = zip(*parts)
    merged, _runs, *sums = value_histogram(
        np.concatenate(values),
        *(np.concatenate(column, dtype=np.int64) for column in counts),
    )
    return (merged, *sums)


def table_histogram(
    table: FlowTable,
    feature: FlowFeature,
    weightings: Sequence[str] = ("flows",),
) -> tuple[np.ndarray, ...]:
    """``(values, counts per weighting...)`` of one feature column,
    through one :func:`value_histogram` pass whatever the number of
    weightings (``"flows"`` is the row count, the others sums)."""
    for weighting in weightings:
        _weighting(weighting)  # a known name, or FlowError
    values, flows, *sums = value_histogram(
        table.feature_column(feature),
        *(table.column(name) for name in weightings if name != "flows"),
    )
    sums = iter(sums)
    return (
        values,
        *(flows if name == "flows" else next(sums) for name in weightings),
    )


def _table_histogram(
    table: FlowTable, feature: FlowFeature, weight: str
) -> Counter:
    """``Counter`` view of one table column's histogram."""
    values, counts = table_histogram(table, feature, (weight,))
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def feature_histogram(
    flows: Iterable[FlowRecord] | FlowTable,
    feature: FlowFeature,
    weight: str | Weighting = "flows",
) -> Counter:
    """Histogram of ``feature`` values weighted by ``weight``.

    This is the primary input of the histogram/KL detector: e.g. the
    distribution of destination ports in a 5-minute bin, in flows.
    Tables take the vectorized path when ``weight`` is one of the named
    weightings; a custom callable falls back to the record path.
    """
    if isinstance(flows, FlowTable) and isinstance(weight, str):
        return _table_histogram(flows, feature, weight)
    weigh = _weighting(weight)
    histogram: Counter = Counter()
    for flow in flows:
        histogram[feature_value(flow, feature)] += weigh(flow)
    return histogram


def all_feature_histograms(
    flows: Iterable[FlowRecord] | FlowTable,
    weight: str | Weighting = "flows",
) -> dict[FlowFeature, Counter]:
    """Histograms for all five flow features in a single pass."""
    if isinstance(flows, FlowTable) and isinstance(weight, str):
        return {
            feature: _table_histogram(flows, feature, weight)
            for feature in FLOW_FEATURES
        }
    weigh = _weighting(weight)
    histograms: dict[FlowFeature, Counter] = {
        feature: Counter() for feature in FLOW_FEATURES
    }
    for flow in flows:
        amount = weigh(flow)
        histograms[FlowFeature.SRC_IP][flow.src_ip] += amount
        histograms[FlowFeature.DST_IP][flow.dst_ip] += amount
        histograms[FlowFeature.SRC_PORT][flow.src_port] += amount
        histograms[FlowFeature.DST_PORT][flow.dst_port] += amount
        histograms[FlowFeature.PROTO][flow.proto] += amount
    return histograms


def top_n(
    flows: Iterable[FlowRecord] | FlowTable,
    feature: FlowFeature,
    n: int = 10,
    weight: str | Weighting = "flows",
) -> list[tuple[int, int]]:
    """Top-``n`` feature values by aggregate weight (nfdump ``-s``)."""
    if n <= 0:
        raise FlowError(f"n must be positive: {n!r}")
    histogram = feature_histogram(flows, feature, weight)
    return sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def ranked_from_histogram(
    values: np.ndarray, counts: np.ndarray, n: int
) -> list[tuple[int, int]]:
    """Top-``n`` of a histogram with the *store* ranking semantics.

    The one ranking behind ``FlowStore.top_feature_values`` and
    ``ArchiveReader.top_feature_values`` (scanned or pushed down), so
    they are byte-identical by construction. It differs from
    :func:`top_n` in its tie-break: equal weights order by the string
    rendering of the value (matching the record-path ``top_talkers``),
    not the numeric value.
    """
    ranked = sorted(
        zip(values.tolist(), counts.tolist()),
        key=lambda kv: (-kv[1], str(kv[0])),
    )
    return ranked[:n]


@dataclass(frozen=True, slots=True)
class TrafficMatrixCell:
    """Counters for one origin→destination PoP pair."""

    flows: int
    packets: int
    bytes: int


def traffic_matrix(
    flows: Iterable[FlowRecord],
    pop_of: Callable[[int], int | None],
    pop_count: int,
) -> dict[tuple[int, int], TrafficMatrixCell]:
    """Origin-destination traffic matrix over PoPs.

    ``pop_of`` maps an IP to its owning PoP (or ``None`` for external
    space, mapped to the virtual PoP index ``pop_count`` so that transit
    traffic is still accounted). The PCA detector consumes this matrix
    layout per time bin.
    """
    external = pop_count
    totals: dict[tuple[int, int], list[int]] = {}
    for flow in flows:
        src_pop = pop_of(flow.src_ip)
        dst_pop = pop_of(flow.dst_ip)
        src = external if src_pop is None else src_pop
        dst = external if dst_pop is None else dst_pop
        cell = totals.setdefault((src, dst), [0, 0, 0])
        cell[0] += 1
        cell[1] += flow.packets
        cell[2] += flow.bytes
    return {
        pair: TrafficMatrixCell(flows=c[0], packets=c[1], bytes=c[2])
        for pair, c in totals.items()
    }


def distinct_counts(
    flows: Iterable[FlowRecord] | Sequence[FlowRecord] | FlowTable,
) -> dict[FlowFeature, int]:
    """Number of distinct values per feature (scan detection signal).

    Port scans explode distinct destination ports; network scans explode
    distinct destination IPs. The classifier uses these cardinalities.
    """
    if isinstance(flows, FlowTable):
        return {
            feature: int(len(np.unique(flows.feature_column(feature))))
            for feature in FLOW_FEATURES
        }
    seen: dict[FlowFeature, set[int]] = {
        feature: set() for feature in FLOW_FEATURES
    }
    for flow in flows:
        seen[FlowFeature.SRC_IP].add(flow.src_ip)
        seen[FlowFeature.DST_IP].add(flow.dst_ip)
        seen[FlowFeature.SRC_PORT].add(flow.src_port)
        seen[FlowFeature.DST_PORT].add(flow.dst_port)
        seen[FlowFeature.PROTO].add(flow.proto)
    return {feature: len(values) for feature, values in seen.items()}
