"""Anomaly detectors feeding the extraction system's alarm database.

Two detector families, matching the paper's two evaluations:

* :class:`HistogramKLDetector` — the histogram/Kullback-Leibler detector
  of Kind et al. [3] (SWITCH evaluation);
* :class:`NetReflexDetector` — a PCA subspace detector over volume and
  entropy features in the style of Lakhina et al. [4], standing in for
  the commercial Guavus NetReflex system (GEANT evaluation).

Both score one window at a time from its :class:`WindowCounts`
(:meth:`Detector.evaluate_window`) and emit :class:`Alarm` objects: a
time interval, a label guess and fine-grained — possibly incomplete —
meta-data hints.
"""

from repro.detect.base import Alarm, Detector, MetadataItem
from repro.detect.entropy import (
    entropy_of_counts,
    normalized_entropy,
    sample_entropy,
)
from repro.detect.features import (
    ENTROPY_COLUMNS,
    VOLUME_COLUMNS,
    BinFeatures,
    FeatureMatrix,
    WindowCounts,
    build_feature_matrix,
)
from repro.detect.histogram import HistogramDetectorConfig, HistogramKLDetector
from repro.detect.kl import kl_contributions, kl_distance, smooth_distributions
from repro.detect.netreflex import NetReflexConfig, NetReflexDetector
from repro.detect.pca import PCAModel, fit_pca_model, q_statistic_threshold

__all__ = [
    "Alarm",
    "Detector",
    "MetadataItem",
    "entropy_of_counts",
    "normalized_entropy",
    "sample_entropy",
    "ENTROPY_COLUMNS",
    "VOLUME_COLUMNS",
    "BinFeatures",
    "FeatureMatrix",
    "WindowCounts",
    "build_feature_matrix",
    "HistogramDetectorConfig",
    "HistogramKLDetector",
    "kl_contributions",
    "kl_distance",
    "smooth_distributions",
    "NetReflexConfig",
    "NetReflexDetector",
    "PCAModel",
    "fit_pca_model",
    "q_statistic_threshold",
]


# -- session-facade registration ---------------------------------------------
# The detectors register themselves by name so `repro.api` dispatches
# on `[detector] name = "..."` instead of on concrete classes; plugins
# use the same `detectors.register(...)` surface.

from repro.api.registry import detectors as _detectors  # noqa: E402
from repro.flows.record import FlowFeature as _FlowFeature  # noqa: E402


def _make_netreflex(**options):
    """``netreflex`` / ``pca``: the PCA-subspace volume+entropy detector."""
    if "weightings" in options:
        options["weightings"] = tuple(options["weightings"])
    return NetReflexDetector(NetReflexConfig(**options))


def _make_kl(**options):
    """``kl``: the hashed-histogram Kullback-Leibler detector."""
    if "features" in options:
        options["features"] = tuple(
            _FlowFeature(name) for name in options["features"]
        )
    return HistogramKLDetector(HistogramDetectorConfig(**options))


_detectors.register("netreflex", _make_netreflex)
_detectors.register("pca", _make_netreflex)
_detectors.register("kl", _make_kl)
