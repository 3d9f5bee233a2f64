"""Shared experiment plumbing: simulated alarms and one-shot runs.

The campaign experiments need hundreds of alarm→extraction runs. Running
the PCA detector for each would dominate runtime without adding
information (the detectors have their own tests); instead, alarms are
*synthesised* from ground truth the way NetReflex would have reported
them — fine-grained hints from the anomaly's ``detector_visible``
signatures only, so hidden co-injected anomalies stay hidden, exactly
like the paper's "detector missed part of the anomaly" cases. A
``detector`` mode that runs the real detectors end-to-end remains
available wherever full fidelity matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detect.base import Alarm, MetadataItem
from repro.extraction.extractor import (
    AnomalyExtractor,
    ExtractionConfig,
    ExtractionReport,
)
from repro.extraction.validate import ValidationVerdict, validate_report
from repro.synth.anomalies.base import GroundTruth
from repro.synth.scenario import LabeledTrace

__all__ = ["synthesize_alarm", "CaseResult", "run_case"]


def synthesize_alarm(
    alarm_id: str,
    truths: list[GroundTruth],
    detector_name: str = "netreflex-sim",
    score: float = 10.0,
) -> Alarm:
    """Build the alarm a NetReflex-like detector would raise.

    The interval is the union of the anomalies' windows; the meta-data
    hints come only from each anomaly's ``detector_visible`` signatures
    (one hint per signature item, first-listed signature strongest).
    Protocol items are never hinted — real detectors implicate IPs and
    ports, and a ``proto`` hint would make the candidate union swallow
    the entire protocol's traffic. Anomalies whose ``detector_visible``
    is empty contribute nothing — the alarm may end up with no hints at
    all (stealthy / false-positive alarms), which the extractor must
    handle.
    """
    from repro.flows.record import FlowFeature

    if not truths:
        raise ValueError("at least one ground truth is required")
    start = min(truth.start for truth in truths)
    end = max(truth.end for truth in truths)
    metadata: list[MetadataItem] = []
    seen: set[tuple[object, int]] = set()
    weight = float(len(truths) + 1)
    label = truths[0].kind.value
    for truth in truths:
        for signature in truth.detector_visible:
            for feature, value in signature.items.items():
                if feature is FlowFeature.PROTO:
                    continue
                key = (feature, value)
                if key in seen:
                    continue
                seen.add(key)
                metadata.append(
                    MetadataItem(feature=feature, value=value, weight=weight)
                )
        weight -= 1.0
    return Alarm(
        alarm_id=alarm_id,
        detector=detector_name,
        start=start,
        end=end,
        score=score,
        label=label,
        metadata=metadata,
    )


@dataclass
class CaseResult:
    """Everything one experiment case produced."""

    alarm: Alarm
    report: ExtractionReport
    verdict: ValidationVerdict
    labeled: LabeledTrace


def run_case(
    labeled: LabeledTrace,
    alarm: Alarm,
    config: ExtractionConfig | None = None,
    baseline_bins: int = 3,
) -> CaseResult:
    """Extract and validate one alarm against a labelled trace.

    The interval and baseline windows are cut directly from the trace
    (no store round-trip — campaigns build hundreds of cases).
    """
    trace = labeled.trace
    interval = trace.between_table(alarm.start, alarm.end)
    baseline_start = alarm.start - baseline_bins * trace.bin_seconds
    baseline = (
        trace.between_table(baseline_start, alarm.start)
        if baseline_bins > 0
        else None
    )
    extractor = AnomalyExtractor(config)
    report = extractor.extract(alarm, interval, baseline)
    verdict = validate_report(report)
    return CaseResult(
        alarm=alarm, report=report, verdict=verdict, labeled=labeled
    )
