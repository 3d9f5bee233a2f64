"""Validation and evidence collection over extraction reports.

The companion work [5] is titled "Automatic validation and evidence
collection of security related network anomalies": once itemsets are
extracted, the system decides whether the alarm is substantiated — and
collects the raw-flow evidence an engineer (or an abuse report) needs.

The verdict vocabulary mirrors the paper's GEANT statistics:

* ``useful`` — extraction produced meaningful itemsets (94% of alarms);
* ``additional_evidence`` — some itemset goes beyond the detector's
  meta-data (28% of the useful cases);
* ``security_relevant`` — some itemset classifies as an attack pattern
  rather than a benign heavy hitter.

Evidence is collected on masks: an itemset's matching flows are a
sub-table of the candidates, its totals are column sums, and only the
``sample_size`` heaviest rows are materialised as records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.extraction.extractor import ExtractedItemset, ExtractionReport
from repro.flows.record import FlowRecord
from repro.taxonomy import AnomalyKind

__all__ = ["Evidence", "ValidationVerdict", "validate_report"]

#: Classes treated as security incidents (vs benign volume anomalies).
_SECURITY_KINDS = frozenset(
    {
        AnomalyKind.PORT_SCAN,
        AnomalyKind.NETWORK_SCAN,
        AnomalyKind.SYN_FLOOD,
        AnomalyKind.UDP_FLOOD,
        AnomalyKind.REFLECTOR,
    }
)


@dataclass(frozen=True)
class Evidence:
    """Raw-flow evidence backing one extracted itemset."""

    extracted: ExtractedItemset
    sample_flows: tuple[FlowRecord, ...]
    total_flows: int
    total_packets: int
    total_bytes: int


@dataclass
class ValidationVerdict:
    """The system's judgement of one alarm after extraction."""

    alarm_id: str
    useful: bool
    security_relevant: bool
    additional_evidence: bool
    confirming_itemsets: int
    novel_itemsets: int
    kinds: set[AnomalyKind] = field(default_factory=set)
    evidence: list[Evidence] = field(default_factory=list)

    def summary(self) -> str:
        """One-line verdict for NOC tickets."""
        if not self.useful:
            return (
                f"[{self.alarm_id}] no meaningful itemsets - stealthy "
                f"anomaly or false-positive alarm"
            )
        kinds = ", ".join(sorted(k.value for k in self.kinds)) or "unknown"
        extra = (
            f"; {self.novel_itemsets} itemset(s) beyond detector meta-data"
            if self.additional_evidence
            else ""
        )
        return (
            f"[{self.alarm_id}] {kinds} substantiated by "
            f"{self.confirming_itemsets + self.novel_itemsets} itemset(s)"
            f"{extra}"
        )


def validate_report(
    report: ExtractionReport,
    sample_size: int = 5,
) -> ValidationVerdict:
    """Judge an extraction report and collect per-itemset evidence.

    ``sample_size`` bounds the raw flows attached per itemset (the
    console prints them; the full set remains queryable through the
    backend).
    """
    flows = report.candidates.flows
    evidence = []
    for extracted in report.itemsets:
        matched = flows.select(extracted.itemset.mask(flows))
        evidence.append(
            Evidence(
                extracted=extracted,
                sample_flows=tuple(
                    matched.heaviest_first(sample_size).to_records()
                ),
                total_flows=len(matched),
                total_packets=matched.total_packets(),
                total_bytes=matched.total_bytes(),
            )
        )
    kinds = report.kinds
    novel = report.additional_evidence
    return ValidationVerdict(
        alarm_id=report.alarm.alarm_id,
        useful=report.useful,
        security_relevant=bool(kinds & _SECURITY_KINDS),
        additional_evidence=bool(novel),
        confirming_itemsets=len(report.itemsets) - len(novel),
        novel_itemsets=len(novel),
        kinds=kinds,
        evidence=evidence,
    )
