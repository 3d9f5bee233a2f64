"""Flow aggregation utilities.

These helpers implement the nfdump ``-s``/``-A`` style statistics the
operator console shows and the feature distributions the detectors
consume: per-feature value histograms and top-N rankings.

A value histogram has one form between a
:class:`~repro.flows.table.FlowTable` and whoever reads it — the
archive's feature index, a sealed stream window's counts, the
detectors' attribution: ``(sorted distinct values, exact int64
counts, ...)`` arrays, counted by :func:`value_histogram` and summed by
:func:`merge_histograms`. Ascending value order and exact integers are
the contract: any split of the same rows, merged in any order, gives
the same arrays, so floats derived from them (entropies, probability
shares) are bit-identical on every path.

:func:`feature_histogram` / :func:`all_feature_histograms` are the
``Counter`` presentation of the same counts. The entry points that
historically took an iterable of :class:`FlowRecord` still do: they
tabulate it once (``FlowTable.from_records``) and run the same body;
the per-flow loops they replace are ``tests/record_oracle.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FlowError
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.table import FlowTable

__all__ = [
    "WEIGHTINGS",
    "distinct_values",
    "factorise",
    "value_histogram",
    "merge_histograms",
    "table_histogram",
    "feature_histogram",
    "all_feature_histograms",
    "top_n",
    "ranked_from_histogram",
    "distinct_counts",
]

#: How a flow contributes to an aggregate: by flow count, packets or bytes.
WEIGHTINGS = ("flows", "packets", "bytes")


def distinct_values(column: np.ndarray) -> np.ndarray:
    """The sorted distinct values of one integer ``column``:
    ``np.unique(column)``'s answer, by one sort and a mask of adjacent
    differences.

    ``np.unique`` without ``return_*`` keywords answers through a hash
    table on numpy >= 2.3, several times slower than a sort on feature
    columns; the sort takes the same kind rule as
    :func:`value_histogram`.
    """
    ordered = np.sort(
        column, kind="stable" if column.itemsize <= 2 else None
    )
    if len(ordered) < 2:
        return ordered
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def factorise(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, codes)`` of one integer ``column``: its sorted
    distinct values and, per row, the int64 index of the row's value
    among them — ``np.unique(column, return_inverse=True)``'s answer,
    by one argsort (the kind rule of :func:`value_histogram`) and a
    cumulative sum over the run heads.
    """
    order = np.argsort(
        column, kind="stable" if column.itemsize <= 2 else None
    )
    ordered = column[order]
    heads = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    codes = np.empty(len(ordered), dtype=np.int64)
    codes[order] = np.cumsum(heads) - 1
    return ordered[heads], codes


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
        if weighting not in WEIGHTINGS:
            raise FlowError(
                f"unknown weighting {weighting!r}; expected one of "
                f"{sorted(WEIGHTINGS)}"
            )
    values, flows, *sums = value_histogram(
        table.feature_column(feature),
        *(table.column(name) for name in weightings if name != "flows"),
    )
    sums = iter(sums)
    return (
        values,
        *(flows if name == "flows" else next(sums) for name in weightings),
    )


def feature_histogram(
    flows: Iterable[FlowRecord] | FlowTable,
    feature: FlowFeature,
    weight: str = "flows",
) -> Counter:
    """Histogram of ``feature`` values weighted by ``weight``.

    This is the primary input of the histogram/KL detector: e.g. the
    distribution of destination ports in a 5-minute bin, in flows.
    """
    values, counts = table_histogram(
        FlowTable.from_records(flows), feature, (weight,)
    )
    return Counter(dict(zip(values.tolist(), counts.tolist())))


def all_feature_histograms(
    flows: Iterable[FlowRecord] | FlowTable,
    weight: str = "flows",
) -> dict[FlowFeature, Counter]:
    """Histograms for all five flow features."""
    table = FlowTable.from_records(flows)
    return {
        feature: feature_histogram(table, feature, weight)
        for feature in FLOW_FEATURES
    }


def top_n(
    flows: Iterable[FlowRecord] | FlowTable,
    feature: FlowFeature,
    n: int = 10,
    weight: str = "flows",
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

    The one ranking behind ``ArchiveReader.top_feature_values``,
    scanned or pushed down, so both answers are byte-identical by
    construction. It differs from
    :func:`top_n` in its tie-break: equal weights order by the string
    rendering of the value (nfdump ``-s`` over arbitrary keys ranked
    that way; ``tests/record_oracle.py`` keeps the loop), not the
    numeric value.

    Only entries counting at least the ``n``-th largest count are
    ranked (one ``np.partition``): ties *at* the cut all survive, and
    values are distinct, so the result is the full sort's first ``n``.
    """
    if len(values) > n:
        keep = counts >= np.partition(counts, -n)[-n]
        values, counts = values[keep], counts[keep]
    ranked = sorted(
        zip(values.tolist(), counts.tolist()),
        key=lambda kv: (-kv[1], str(kv[0])),
    )
    return ranked[:n]


def distinct_counts(
    flows: Iterable[FlowRecord] | FlowTable,
) -> dict[FlowFeature, int]:
    """Number of distinct values per feature (scan detection signal).

    Port scans explode distinct destination ports; network scans explode
    distinct destination IPs. The classifier uses these cardinalities.
    """
    table = FlowTable.from_records(flows)
    return {
        feature: len(distinct_values(table.feature_column(feature)))
        for feature in FLOW_FEATURES
    }
