"""A NetReflex-like detector: PCA subspace over volume + entropy features.

Stands in for the commercial Guavus NetReflex system of the paper's
GEANT deployment (DESIGN.md §2). Like the original it:

* detects "on the basis of volume and IP features entropy variations"
  — the feature matrix combines flow/packet/byte counts with the sample
  entropies of the four header features, per time bin;
* uses the PCA subspace method of Lakhina et al. [4] with a Q-statistic
  threshold;
* emits "fine-grained meta-data often at the level of individual IPs and
  port numbers": for each alarmed bin, the values whose probability mass
  grew the most against the trained reference distribution — computed
  under both flow and packet weighting so low-flow/high-packet floods
  still yield endpoints. Window and reference histograms alike are the
  ``(sorted values, int64 counts)`` arrays of
  :mod:`repro.flows.aggregate`, so attribution is one ``searchsorted``
  per histogram whether the window came from a trace slice or from a
  stream accumulator;
* may therefore *miss part of an anomaly* or flag popular values, which
  is precisely the incompleteness the extraction step compensates for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.detect.base import Alarm, Detector, MetadataItem
from repro.detect.features import (
    ENTROPY_COLUMNS,
    VOLUME_COLUMNS,
    BinFeatures,
    build_feature_matrix,
)
from repro.flows.table import FlowTable
from repro.detect.pca import PCAModel, fit_pca_model
from repro.errors import DetectorError
from repro.flows.aggregate import table_histogram
from repro.flows.record import FlowFeature
from repro.flows.trace import FlowTrace

__all__ = ["NetReflexConfig", "NetReflexDetector"]

#: ``(feature, weighting)`` -> ``(sorted distinct values, int64 counts)``.
Histograms = Mapping[tuple[FlowFeature, str], tuple[np.ndarray, np.ndarray]]

_HEADER_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)


@dataclass(frozen=True)
class NetReflexConfig:
    """Tunables of the NetReflex-like detector.

    ``metadata_per_feature`` keeps the meta-data fine-grained (the real
    system reports individual IPs/ports, not lists); ``excess_threshold``
    is the minimum probability-mass gain a value needs before it is
    implicated. ``weightings`` controls which histograms attribution
    sees: flow-weighted catches many-flow anomalies, packet-weighted
    catches point-to-point floods.
    """

    variance_captured: float = 0.90
    max_components: int | None = None
    alpha: float = 0.001
    metadata_per_feature: int = 1
    excess_threshold: float = 0.10
    weightings: tuple[str, ...] = ("flows", "packets")
    label_sigma: float = 2.0

    def __post_init__(self) -> None:
        if self.metadata_per_feature < 0:
            raise DetectorError("metadata_per_feature must be >= 0")
        if not 0 < self.excess_threshold < 1:
            raise DetectorError("excess_threshold must lie in (0, 1)")
        if not self.weightings:
            raise DetectorError("at least one weighting is required")


class NetReflexDetector(Detector):
    """PCA/entropy detector with fine-grained meta-data attribution."""

    name = "netreflex-pca"

    def __init__(self, config: NetReflexConfig | None = None) -> None:
        self.config = config or NetReflexConfig()
        self._model: PCAModel | None = None
        self._columns: tuple[str, ...] = ()
        self._entropy_mean: dict[str, float] = {}
        self._entropy_std: dict[str, float] = {}
        #: Trained value distributions, as ``window_histograms`` gives
        #: them, each with its total: ``(values, counts, total)``.
        self._references: dict[
            tuple[FlowFeature, str], tuple[np.ndarray, np.ndarray, int]
        ] = {}
        self._volume_mean: dict[str, float] = {}
        self._volume_std: dict[str, float] = {}

    # -- training -----------------------------------------------------------

    def train(self, trace: FlowTrace) -> None:
        """Fit the subspace model and the attribution references."""
        matrix = build_feature_matrix(trace)
        if matrix.bin_count < 3:
            raise DetectorError(
                "NetReflex detector needs at least 3 training bins"
            )
        self._columns = matrix.columns
        self._model = fit_pca_model(
            matrix.data,
            variance_captured=self.config.variance_captured,
            max_components=self.config.max_components,
            alpha=self.config.alpha,
        )
        # Column statistics for labelling heuristics.
        for column in ("flows", "packets", "bytes", *ENTROPY_COLUMNS):
            index = matrix.columns.index(column)
            series = matrix.data[:, index]
            mean = float(series.mean())
            std = float(series.std()) or 1e-9
            if column in ENTROPY_COLUMNS:
                self._entropy_mean[column] = mean
                self._entropy_std[column] = std
            else:
                self._volume_mean[column] = mean
                self._volume_std[column] = std
        # Reference histograms for meta-data attribution.
        self._references = {
            key: (values, counts, int(counts.sum()))
            for key, (values, counts)
            in self.window_histograms(trace.table).items()
        }

    # -- detection ------------------------------------------------------------

    def detect(self, trace: FlowTrace) -> list[Alarm]:
        """Alarm bins whose SPE exceeds the Q-statistic threshold."""
        self._require_trained(self._model is not None)
        assert self._model is not None
        matrix = build_feature_matrix(trace)
        if matrix.columns != self._columns:
            raise DetectorError(
                "detection matrix columns differ from training"
            )
        spe = self._model.spe(matrix.data)
        alarms = []
        for row in range(matrix.bin_count):
            if spe[row] <= self._model.spe_threshold:
                continue
            start, end = matrix.bin_interval(row)
            histograms = self.window_histograms(
                trace.between_table(start, end)
            )
            alarms.append(
                self._make_alarm(
                    index=matrix.bin_indices[row],
                    start=start,
                    end=end,
                    spe=float(spe[row]),
                    row=matrix.data[row],
                    histograms=histograms,
                )
            )
        return alarms

    def evaluate_window(
        self,
        index: int,
        start: float,
        end: float,
        features: BinFeatures,
        histograms: Histograms,
    ) -> Alarm | None:
        """Evaluate one accumulated window exactly like one detect() bin.

        This is the streaming entry point: ``features`` and
        ``histograms`` come from incremental accumulators instead of a
        trace slice, but the scoring, labelling and attribution code is
        the same as the batch path, so a closed streaming window agrees
        with the corresponding batch bin.
        """
        self._require_trained(self._model is not None)
        assert self._model is not None
        if self._columns != VOLUME_COLUMNS + ENTROPY_COLUMNS:
            raise DetectorError(
                "streaming evaluation requires the default (non-per-PoP) "
                "feature columns"
            )
        row = features.as_array()
        spe = float(self._model.spe(row[np.newaxis, :])[0])
        if spe <= self._model.spe_threshold:
            return None
        return self._make_alarm(
            index=index, start=start, end=end, spe=spe, row=row,
            histograms=histograms,
        )

    def _make_alarm(
        self,
        index: int,
        start: float,
        end: float,
        spe: float,
        row: np.ndarray,
        histograms: Histograms,
    ) -> Alarm:
        assert self._model is not None
        return Alarm(
            alarm_id=f"{self.name}-bin{index}",
            detector=self.name,
            start=start,
            end=end,
            score=float(spe / self._model.spe_threshold),
            label=self._label(row),
            metadata=self.attribute_histograms(histograms),
        )

    # -- meta-data attribution ---------------------------------------------

    def window_histograms(self, table: FlowTable) -> Histograms:
        """Per-(feature, weighting) histograms attribution consumes:
        one kernel pass per feature, shared by its weightings."""
        weightings = self.config.weightings
        histograms = {}
        for feature in _HEADER_FEATURES:
            values, *counts = table_histogram(table, feature, weightings)
            for weighting, column in zip(weightings, counts):
                histograms[(feature, weighting)] = (values, column)
        return histograms

    def attribute_histograms(
        self, observed: Histograms
    ) -> list[MetadataItem]:
        """Values whose probability mass grew most vs the reference.

        Works on pre-computed array histograms so the batch path
        (histograms of a trace slice) and the streaming path
        (histograms merged chunk by chunk) share the attribution logic
        verbatim. Counts are non-negative, so a value's excess is at
        most its observed share: only the values whose share reaches
        ``excess_threshold`` — at most ``1 / excess_threshold`` per
        histogram — are looked up in the reference (``searchsorted``),
        and the rest is Python over a handful of items. Shares are
        float64 array quotients: while every count and total stays
        below 2**53 the int64 → float64 conversion is exact and they
        are the doubles Python's ``int / int`` gives. Ties break on the
        smaller value, independent of histogram order.
        """
        threshold = self.config.excess_threshold
        metadata: list[MetadataItem] = []
        for feature in _HEADER_FEATURES:
            best: dict[int, float] = {}
            for weighting in self.config.weightings:
                if (feature, weighting) not in observed:
                    continue
                values, counts = observed[(feature, weighting)]
                observed_total = int(counts.sum())
                if observed_total == 0:
                    continue
                shares = counts / observed_total
                heavy = np.flatnonzero(shares >= threshold)
                known, reference, reference_total = self._references[
                    (feature, weighting)
                ]
                slots = np.searchsorted(known, values[heavy])
                for value, share, slot in zip(
                    values[heavy].tolist(), shares[heavy].tolist(),
                    slots.tolist(),
                ):
                    expected = 0
                    if slot < len(known) and known[slot] == value:
                        expected = int(reference[slot])
                    excess = share - expected / (reference_total or 1)
                    if excess >= threshold:
                        best[value] = max(best.get(value, 0.0), excess)
            top = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
            for value, excess in top[: self.config.metadata_per_feature]:
                metadata.append(
                    MetadataItem(feature=feature, value=value, weight=excess)
                )
        metadata.sort(key=lambda item: -item.weight)
        return metadata

    # -- labelling -------------------------------------------------------------

    def _z(self, row: np.ndarray, column: str) -> float:
        index = self._columns.index(column)
        if column in ENTROPY_COLUMNS:
            mean = self._entropy_mean[column]
            std = self._entropy_std[column]
        else:
            mean = self._volume_mean[column]
            std = self._volume_std[column]
        return (float(row[index]) - mean) / std

    def _label(self, row: np.ndarray) -> str:
        """Heuristic anomaly class from entropy/volume deviations.

        Mirrors the qualitative rules of [4]: scans disperse the scanned
        feature's entropy; (D)DoS concentrates destinations while
        dispersing sources; pure volume spikes with stable flow counts
        indicate point-to-point floods.
        """
        sigma = self.config.label_sigma
        z_dst_port = self._z(row, "H(dstPort)")
        z_dst_ip = self._z(row, "H(dstIP)")
        z_src_ip = self._z(row, "H(srcIP)")
        z_flows = self._z(row, "flows")
        z_packets = self._z(row, "packets")

        if z_dst_port > sigma and z_dst_ip <= sigma / 2:
            return "port scan"
        if z_dst_ip > sigma:
            return "network scan"
        if z_src_ip > sigma / 2 and z_dst_ip < -sigma / 4:
            return "DDoS"
        if z_packets > sigma and z_flows < sigma / 2:
            return "point-to-point flood"
        if z_dst_ip < -sigma:
            return "DoS"
        return "anomaly"
