"""Per-bin feature timeseries for the detectors.

Both detectors consume the same raw material: for every time bin, volume
counters (flows, packets, bytes) and the sample entropy of the four
header features (srcIP, dstIP, srcPort, dstPort) — optionally broken out
per exporting PoP, which is how the PCA subspace method localises
anomalies in Lakhina et al. [4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detect.entropy import entropy_of_count_array
from repro.errors import DetectorError
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.flows.trace import FlowTrace

__all__ = [
    "VOLUME_COLUMNS",
    "ENTROPY_COLUMNS",
    "BinFeatures",
    "FeatureMatrix",
    "compute_bin_features",
    "build_feature_matrix",
]

VOLUME_COLUMNS = ("flows", "packets", "bytes")
ENTROPY_COLUMNS = ("H(srcIP)", "H(dstIP)", "H(srcPort)", "H(dstPort)")

_ENTROPY_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)


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


def compute_bin_features(
    flows: list[FlowRecord] | FlowTable,
) -> BinFeatures:
    """Volume and entropy features of one bin's flows.

    Records are tabulated once, here: per-feature counts come from
    ``np.unique`` over the columns and the entropies from one array
    expression, with no per-flow Python work.
    """
    flows = FlowTable.from_records(flows)
    entropies = {}
    for feature in _ENTROPY_FEATURES:
        _, counts = np.unique(
            flows.feature_column(feature), return_counts=True
        )
        entropies[feature] = entropy_of_count_array(counts)
    return BinFeatures(
        flows=len(flows),
        packets=flows.total_packets(),
        bytes=flows.total_bytes(),
        entropy_src_ip=entropies[FlowFeature.SRC_IP],
        entropy_dst_ip=entropies[FlowFeature.DST_IP],
        entropy_src_port=entropies[FlowFeature.SRC_PORT],
        entropy_dst_port=entropies[FlowFeature.DST_PORT],
    )


@dataclass
class FeatureMatrix:
    """A bins × columns matrix with labelled columns.

    ``data[i, j]`` is feature ``columns[j]`` in bin ``bin_indices[i]``.
    For per-PoP matrices the column labels carry the PoP index, e.g.
    ``"pop3:H(dstPort)"``.
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


def build_feature_matrix(
    trace: FlowTrace,
    per_pop: bool = False,
    pop_count: int | None = None,
    include_volume: bool = True,
    include_entropy: bool = True,
) -> FeatureMatrix:
    """Compute the bins × features matrix of ``trace``.

    With ``per_pop`` each exporting router contributes its own column
    group (rows stay time bins); ``pop_count`` bounds the router space
    (defaults to ``max router + 1``).
    """
    if not include_volume and not include_entropy:
        raise DetectorError("at least one feature group must be included")
    if not len(trace):
        raise DetectorError("cannot build features from an empty trace")

    column_labels: list[str] = []
    groups: list[str] = []
    if per_pop:
        if pop_count is None:
            pop_count = int(trace.table.router.max()) + 1
        groups = [f"pop{p}" for p in range(pop_count)]
    else:
        groups = [""]

    base_columns: list[str] = []
    if include_volume:
        base_columns.extend(VOLUME_COLUMNS)
    if include_entropy:
        base_columns.extend(ENTROPY_COLUMNS)
    for group in groups:
        prefix = f"{group}:" if group else ""
        column_labels.extend(f"{prefix}{name}" for name in base_columns)

    rows = []
    bin_indices = []
    for index, bin_table in trace.bin_tables():
        bin_indices.append(index)
        row: list[float] = []
        for pop, group in enumerate(groups):
            if per_pop:
                selected = bin_table.select(bin_table.router == pop)
            else:
                selected = bin_table
            features = compute_bin_features(selected)
            vector = features.as_array()
            if include_volume and include_entropy:
                row.extend(vector)
            elif include_volume:
                row.extend(vector[:3])
            else:
                row.extend(vector[3:])
        rows.append(row)

    return FeatureMatrix(
        data=np.array(rows, dtype=float),
        columns=tuple(column_labels),
        bin_indices=tuple(bin_indices),
        origin=trace.origin,
        bin_seconds=trace.bin_seconds,
    )
