"""Matching extraction output against injected ground truth.

The paper's authors validated extraction manually ("leveraged DANTE's
experience in manual anomaly investigation"); with synthetic traces the
same judgement is mechanical: an extracted itemset *hits* an injected
anomaly when it stands in a generalisation/refinement relation to one
of the anomaly's signatures, and flow-level precision/recall is computed
by marking each interval flow as anomalous or not via the signatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.metrics import PrecisionRecall, precision_recall
from repro.extraction.extractor import ExtractedItemset, ExtractionReport
from repro.flows.record import FlowRecord
from repro.flows.table import FlowTable
from repro.mining.items import Itemset, itemset_from_signature
from repro.synth.anomalies.base import GroundTruth, Signature

__all__ = [
    "itemset_hits_signature",
    "itemset_hits_truth",
    "report_hits",
    "flow_level_quality",
    "TruthMatch",
]


def itemset_hits_signature(itemset: Itemset, signature: Signature) -> bool:
    """True when ``itemset`` describes the same phenomenon as ``signature``.

    Hit ⇔ the itemset is a generalisation (subset) or a refinement
    (superset) of the signature's items. Mere compatibility (no shared
    feature) does not count — {proto=TCP} must not "hit" every TCP
    anomaly, so generalisations must keep at least two signature items
    (or all of them for single-item signatures).
    """
    signature_itemset = itemset_from_signature(signature.items)
    if signature_itemset.issubset(itemset):
        return True
    if itemset.issubset(signature_itemset):
        required = min(2, len(signature_itemset))
        shared = sum(
            1 for item in itemset.items if item in signature_itemset
        )
        return shared >= required
    return False


def itemset_hits_truth(itemset: Itemset, truth: GroundTruth) -> bool:
    """True when the itemset hits any signature of the anomaly."""
    return any(
        itemset_hits_signature(itemset, signature)
        for signature in truth.signatures
    )


@dataclass
class TruthMatch:
    """How one injected anomaly fared in one extraction report."""

    truth: GroundTruth
    hit: bool
    hitting_itemsets: list[ExtractedItemset]
    #: Hit through an itemset the detector's meta-data did not flag —
    #: the paper's "found flows the detector missed" capability.
    hit_beyond_detector: bool


def report_hits(
    report: ExtractionReport, truths: list[GroundTruth]
) -> list[TruthMatch]:
    """Match every injected anomaly against a report's itemsets."""
    matches = []
    for truth in truths:
        hitting = [
            extracted
            for extracted in report.itemsets
            if itemset_hits_truth(extracted.itemset, truth)
        ]
        matches.append(
            TruthMatch(
                truth=truth,
                hit=bool(hitting),
                hitting_itemsets=hitting,
                hit_beyond_detector=any(
                    not extracted.confirms_detector for extracted in hitting
                ),
            )
        )
    return matches


def flow_level_quality(
    report: ExtractionReport,
    truths: list[GroundTruth],
    interval_flows: "list[FlowRecord] | FlowTable",
) -> PrecisionRecall:
    """Flow-level precision/recall of a report's extracted flow set.

    The extracted set is the union of flows matched by the reported
    itemsets; the truth set is the union of flows belonging to any
    injected anomaly (inside its window, carrying one of its
    signatures). Both are masks over ``interval_flows``.
    """
    table = FlowTable.from_records(interval_flows)
    truth_mask = np.zeros(len(table), dtype=bool)
    for truth in truths:
        signed = np.zeros(len(table), dtype=bool)
        for signature in truth.signatures:
            signed |= itemset_from_signature(signature.items).mask(table)
        truth_mask |= (
            signed & (table.start >= truth.start) & (table.start < truth.end)
        )
    extracted_mask = np.zeros(len(table), dtype=bool)
    for extracted in report.itemsets:
        extracted_mask |= extracted.itemset.mask(table)
    return precision_recall(
        set(np.flatnonzero(extracted_mask).tolist()),
        set(np.flatnonzero(truth_mask).tolist()),
    )
