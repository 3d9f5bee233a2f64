"""Histogram-based anomaly detection with the Kullback-Leibler distance.

Implements the detector of Kind, Stoecklin and Dimitropoulos [3] as used
in the paper's SWITCH evaluation. Following the original design, feature
values are hashed into a fixed number of histogram *buckets* (IP and
port spaces are far too sparse to compare raw distributions across time
bins); each time bin's bucket histogram is compared against a trained
reference histogram with the KL distance, and a bin alarms when the
distance exceeds ``mean + k·std`` of the training distances.

Training distances are computed leave-one-out (each training bin against
the reference built from the *other* bins) so the threshold reflects the
genuine bin-to-bin variability instead of the bias of comparing a bin
against a reference that contains it.

Meta-data extraction mirrors Brauckhoff et al. [1]: the buckets with the
largest positive KL contribution are identified first, then mapped back
to the concrete feature values that dominate those buckets in the
alarmed bin — yielding "affected IP addresses or port numbers".
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from repro.detect.base import Alarm, Detector, MetadataItem
from repro.detect.features import WindowCounts
from repro.detect.kl import kl_contributions, kl_distance
from repro.errors import DetectorError
from repro.flows.aggregate import WEIGHTINGS
from repro.flows.record import FlowFeature
from repro.flows.trace import FlowTrace

__all__ = ["HistogramDetectorConfig", "HistogramKLDetector"]

_DEFAULT_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)

#: Knuth's multiplicative hash constant for bucketing feature values.
_KNUTH = 2654435761


@dataclass(frozen=True)
class HistogramDetectorConfig:
    """Tunables of the histogram/KL detector.

    ``hash_buckets`` fixes the histogram width per feature (Kind et al.
    hash sparse value spaces into fixed-size histograms).
    ``threshold_sigmas`` is the alarm threshold in standard deviations
    above the mean leave-one-out training distance. A tripping feature
    contributes up to ``metadata_per_feature`` suspect values, each of
    which must explain at least ``metadata_share`` of that feature's
    total KL distance via its bucket.
    """

    features: tuple[FlowFeature, ...] = _DEFAULT_FEATURES
    weight: str = "flows"
    hash_buckets: int = 512
    threshold_sigmas: float = 3.0
    min_threshold: float = 0.01
    metadata_per_feature: int = 2
    metadata_share: float = 0.10

    def __post_init__(self) -> None:
        if not self.features:
            raise DetectorError("at least one feature is required")
        if self.weight not in WEIGHTINGS:
            raise DetectorError(
                f"unknown weighting {self.weight!r}; "
                f"expected one of {sorted(WEIGHTINGS)}"
            )
        if self.hash_buckets < 2:
            raise DetectorError("hash_buckets must be >= 2")
        if self.threshold_sigmas <= 0:
            raise DetectorError("threshold_sigmas must be positive")
        if not 0 < self.metadata_share <= 1:
            raise DetectorError("metadata_share must lie in (0, 1]")
        if self.metadata_per_feature < 1:
            raise DetectorError("metadata_per_feature must be >= 1")


class HistogramKLDetector(Detector):
    """Hashed per-feature histogram profiles with KL-distance alarming."""

    name = "histogram-kl"

    def __init__(self, config: HistogramDetectorConfig | None = None) -> None:
        self.config = config or HistogramDetectorConfig()
        self._reference: dict[FlowFeature, Counter] = {}
        self._mean: dict[FlowFeature, float] = {}
        self._std: dict[FlowFeature, float] = {}
        self._trained = False

    # -- histogram construction -------------------------------------------

    def _bucket(self, value: int) -> int:
        return (value * _KNUTH) % self.config.hash_buckets

    def bucket_values(self, values: Mapping[int, int] | Counter) -> Counter:
        """Fold a raw value histogram into the hashed bucket histogram.

        Integer weights sum exactly, so the result is the same for any
        ``values`` holding the same counts.
        """
        histogram: Counter = Counter()
        for value, weight in values.items():
            histogram[self._bucket(value)] += weight
        return histogram

    @property
    def weightings(self) -> tuple[str, ...]:
        return (self.config.weight,)

    # -- training ------------------------------------------------------------

    def train(self, trace: FlowTrace) -> None:
        """Build reference histograms and leave-one-out thresholds."""
        if trace.bin_count < 3:
            raise DetectorError(
                "histogram detector needs at least 3 training bins"
            )
        per_bin: dict[FlowFeature, list[Counter]] = {
            feature: [] for feature in self.config.features
        }
        for _, table in trace.bin_tables():
            if not len(table):
                continue
            counts = WindowCounts.from_table(table, self.weightings)
            for feature in self.config.features:
                per_bin[feature].append(self.bucket_values(
                    counts.histogram(feature, self.config.weight)
                ))
        for feature in self.config.features:
            histograms = per_bin[feature]
            if len(histograms) < 3:
                raise DetectorError(
                    f"fewer than 3 non-empty training bins for "
                    f"{feature.value}"
                )
            reference: Counter = Counter()
            for histogram in histograms:
                reference.update(histogram)
            self._reference[feature] = reference
            distances = []
            for histogram in histograms:
                held_out = reference.copy()
                held_out.subtract(histogram)
                held_out += Counter()  # drop zero/negative buckets
                if held_out:
                    distances.append(kl_distance(histogram, held_out))
            if not distances:
                raise DetectorError(
                    f"could not derive training distances for "
                    f"{feature.value}"
                )
            self._mean[feature] = statistics.fmean(distances)
            self._std[feature] = (
                statistics.pstdev(distances) if len(distances) > 1 else 0.0
            )
        self._trained = True

    def threshold(self, feature: FlowFeature) -> float:
        """Alarm threshold for one feature's KL distance."""
        self._require_trained(self._trained)
        computed = (
            self._mean[feature]
            + self.config.threshold_sigmas * self._std[feature]
        )
        return max(computed, self.config.min_threshold)

    # -- detection -------------------------------------------------------------

    def evaluate_window(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> Alarm | None:
        """Alarm the window if its KL distance trips any feature
        threshold; an empty window stays silent."""
        self._require_trained(self._trained)
        if counts.flows == 0:
            return None
        values = {
            feature: counts.histogram(feature, self.config.weight)
            for feature in self.config.features
        }
        tripping: list[tuple[FlowFeature, float, Counter]] = []
        max_score = 0.0
        for feature in self.config.features:
            histogram = self.bucket_values(values[feature])
            distance = kl_distance(histogram, self._reference[feature])
            limit = self.threshold(feature)
            if distance > limit:
                tripping.append((feature, distance, histogram))
                std = self._std[feature] or 1e-9
                max_score = max(
                    max_score, (distance - self._mean[feature]) / std
                )
        if not tripping:
            return None

        metadata = self._build_metadata(tripping, values)
        feature_names = "+".join(f.value for f, _, _ in tripping)
        return Alarm(
            alarm_id=f"{self.name}-bin{index}",
            detector=self.name,
            start=start,
            end=end,
            score=max_score,
            label=f"KL shift in {feature_names}",
            metadata=metadata,
        )

    def _build_metadata(
        self,
        tripping: list[tuple[FlowFeature, float, Counter]],
        values: Mapping[FlowFeature, Counter],
    ) -> list[MetadataItem]:
        """Map suspicious buckets back to dominant concrete values."""
        metadata = []
        for feature, distance, histogram in tripping:
            contributions = kl_contributions(
                histogram, self._reference[feature]
            )
            suspicious = set()
            for bucket, share in contributions:
                if len(suspicious) >= self.config.metadata_per_feature:
                    break
                if share <= 0 or distance <= 0:
                    break
                if share / distance < self.config.metadata_share:
                    break
                suspicious.add(bucket)
            if not suspicious:
                continue
            # Dominant raw values inside the suspicious buckets (ties
            # break on the smaller value, independent of counter order).
            ranked = sorted(
                (
                    (value, weight)
                    for value, weight in values[feature].items()
                    if self._bucket(value) in suspicious
                ),
                key=lambda kv: (-kv[1], kv[0]),
            )
            for value, weight in ranked[: self.config.metadata_per_feature]:
                metadata.append(
                    MetadataItem(
                        feature=feature, value=value, weight=float(weight)
                    )
                )
        metadata.sort(key=lambda item: -item.weight)
        return metadata
