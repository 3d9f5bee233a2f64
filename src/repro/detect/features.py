"""A window's counts, and the per-bin feature timeseries read off them.

Every detector scores a window — a trace bin in batch, a sealed window
in a stream — from one :class:`WindowCounts`: the window's volume
totals and, per feature, its ``(sorted distinct values, exact int64
counts)`` histograms from one
:func:`~repro.archive.index.index_histograms` pass, the pass that also
indexes a stream window's archive partition. The PCA detector's
features are read off them: volume counters (flows, packets, bytes)
and the sample entropy of the four header features (srcIP, dstIP,
srcPort, dstPort), as in Lakhina et al. [4].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.archive.index import index_histograms
from repro.detect.entropy import entropy_of_count_array
from repro.errors import DetectorError
from repro.flows.aggregate import WEIGHTINGS
from repro.flows.record import FlowFeature
from repro.flows.table import _FEATURE_TO_COLUMN, FlowTable
from repro.flows.trace import FlowTrace

__all__ = [
    "VOLUME_COLUMNS",
    "ENTROPY_COLUMNS",
    "HEADER_FEATURES",
    "BinFeatures",
    "WindowCounts",
    "FeatureMatrix",
    "build_feature_matrix",
]

VOLUME_COLUMNS = ("flows", "packets", "bytes")
ENTROPY_COLUMNS = ("H(srcIP)", "H(dstIP)", "H(srcPort)", "H(dstPort)")

#: The features whose entropies and histograms the detectors read.
HEADER_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)

#: The histogram of a window that saw no rows.
_NO_COUNTS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


@dataclass(frozen=True, slots=True)
class BinFeatures:
    """Feature vector of one time bin."""

    flows: int
    packets: int
    bytes: int
    entropy_src_ip: float
    entropy_dst_ip: float
    entropy_src_port: float
    entropy_dst_port: float

    def as_array(self) -> np.ndarray:
        """Vector in ``VOLUME_COLUMNS + ENTROPY_COLUMNS`` order."""
        return np.array(
            [
                self.flows,
                self.packets,
                self.bytes,
                self.entropy_src_ip,
                self.entropy_dst_ip,
                self.entropy_src_port,
                self.entropy_dst_port,
            ],
            dtype=float,
        )


class WindowCounts:
    """Read-only view of one window's counts.

    ``columns`` is the window's one histogram pass
    (:func:`~repro.archive.index.index_histograms`): per indexed
    column, ``(values, flows, packet sums[, byte sums])`` — ascending
    values, exact int64 counts. ``flows`` / ``packets`` / ``bytes`` are
    the window's totals. An empty window has no columns and reads as
    empty histograms.
    """

    __slots__ = ("flows", "packets", "bytes", "columns")

    def __init__(
        self,
        flows: int = 0,
        packets: int = 0,
        bytes: int = 0,
        columns: dict[str, tuple[np.ndarray, ...]] | None = None,
    ) -> None:
        self.flows = flows
        self.packets = packets
        self.bytes = bytes
        self.columns = columns or {}

    @classmethod
    def from_table(
        cls, table: FlowTable, weightings: Iterable[str] = ()
    ) -> "WindowCounts":
        """Count ``table``'s rows in one pass; byte sums are counted
        only when ``weightings`` reads them."""
        weights = ("bytes",) if "bytes" in weightings else ()
        return cls(
            len(table), table.total_packets(), table.total_bytes(),
            index_histograms(table, *weights),
        )

    def value_counts(
        self, feature: FlowFeature, weighting: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """One (feature, weighting) histogram as ``(sorted distinct
        values, exact int64 counts)`` arrays."""
        entry = self.columns.get(_FEATURE_TO_COLUMN[feature])
        if entry is None:
            return _NO_COUNTS
        position = 1 + WEIGHTINGS.index(weighting)
        if position >= len(entry):
            raise KeyError((feature, weighting))
        return entry[0], entry[position]

    def histogram(self, feature: FlowFeature, weighting: str) -> Counter:
        """``Counter`` view of :meth:`value_counts`."""
        values, counts = self.value_counts(feature, weighting)
        return Counter(dict(zip(values.tolist(), counts.tolist())))

    def bin_features(self) -> BinFeatures:
        """The window's detector feature vector. Each entropy sums
        flow counts in ascending value order, so a window's features
        are the same floats however its rows were chunked."""
        src_ip, dst_ip, src_port, dst_port = (
            entropy_of_count_array(self.value_counts(feature, "flows")[1])
            for feature in HEADER_FEATURES
        )
        return BinFeatures(
            flows=self.flows,
            packets=self.packets,
            bytes=self.bytes,
            entropy_src_ip=src_ip,
            entropy_dst_ip=dst_ip,
            entropy_src_port=src_port,
            entropy_dst_port=dst_port,
        )


@dataclass
class FeatureMatrix:
    """A bins × columns matrix with labelled columns.

    ``data[i, j]`` is feature ``columns[j]`` in bin ``bin_indices[i]``.
    """

    data: np.ndarray
    columns: tuple[str, ...]
    bin_indices: tuple[int, ...]
    origin: float
    bin_seconds: float

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise DetectorError("feature matrix must be 2-D")
        if self.data.shape[1] != len(self.columns):
            raise DetectorError(
                f"{self.data.shape[1]} columns vs {len(self.columns)} labels"
            )
        if self.data.shape[0] != len(self.bin_indices):
            raise DetectorError(
                f"{self.data.shape[0]} rows vs {len(self.bin_indices)} bins"
            )

    def bin_interval(self, row: int) -> tuple[float, float]:
        """Time interval of matrix row ``row``."""
        index = self.bin_indices[row]
        start = self.origin + index * self.bin_seconds
        return (start, start + self.bin_seconds)

    @property
    def bin_count(self) -> int:
        """Number of rows."""
        return self.data.shape[0]


def build_feature_matrix(trace: FlowTrace) -> FeatureMatrix:
    """The bins × ``VOLUME_COLUMNS + ENTROPY_COLUMNS`` matrix of
    ``trace``: one row of :meth:`WindowCounts.bin_features` per bin."""
    if not len(trace):
        raise DetectorError("cannot build features from an empty trace")
    bins = list(trace.bin_tables())
    return FeatureMatrix(
        data=np.array([
            WindowCounts.from_table(table).bin_features().as_array()
            for _, table in bins
        ]),
        columns=VOLUME_COLUMNS + ENTROPY_COLUMNS,
        bin_indices=tuple(index for index, _ in bins),
        origin=trace.origin,
        bin_seconds=trace.bin_seconds,
    )
