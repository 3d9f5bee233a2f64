"""The per-value meta-data attribution loop, kept as the test oracle.

This was the body of ``NetReflexDetector.attribute_histograms`` until
window and reference histograms became ``(sorted values, int64
counts)`` arrays and attribution a ``searchsorted`` over the few values
heavy enough to matter. It moved here unchanged, except that the
detector's trained references arrive as an argument: histograms are
``Counter``s, shares are Python ``int / int`` quotients, and every
value of every histogram is visited once.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

from repro.detect.base import MetadataItem
from repro.detect.netreflex import NetReflexConfig
from repro.flows.record import FlowFeature

HEADER_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)


def oracle_attribution(
    config: NetReflexConfig,
    references: Mapping[tuple[FlowFeature, str], Counter],
    observed: Mapping[tuple[FlowFeature, str], Counter],
) -> list[MetadataItem]:
    """Values whose probability mass grew most vs the reference."""
    metadata: list[MetadataItem] = []
    for feature in HEADER_FEATURES:
        best: dict[int, float] = {}
        for weighting in config.weightings:
            histogram = observed.get((feature, weighting))
            if not histogram:
                continue
            observed_total = sum(histogram.values())
            if observed_total == 0:
                continue
            reference = references[(feature, weighting)]
            reference_total = sum(reference.values()) or 1
            for value, count in histogram.items():
                p_observed = count / observed_total
                p_reference = reference.get(value, 0) / reference_total
                excess = p_observed - p_reference
                if excess >= config.excess_threshold:
                    best[value] = max(best.get(value, 0.0), excess)
        top = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        for value, excess in top[: config.metadata_per_feature]:
            metadata.append(
                MetadataItem(feature=feature, value=value, weight=excess)
            )
    metadata.sort(key=lambda item: -item.weight)
    return metadata
