"""The anomaly extractor: from an alarm to summarized anomalous flows.

This is the paper's primary contribution, end to end:

1. take an alarm's interval and meta-data;
2. select candidate flows (union of meta-data matches, §candidates);
3. mine frequent itemsets with the extended Apriori — dual flow/packet
   support, self-tuned thresholds (§mining.extended);
4. filter redundant and baseline-normal itemsets (§filtering);
5. rank the survivors and classify each one (§ranking, §classify);
6. report Table-1-style rows with drill-down into the raw flows.

The extractor is detector-agnostic: anything that produces an
:class:`~repro.detect.base.Alarm` can feed it. Flows are a
:class:`~repro.flows.table.FlowTable` from step 2 on — a record list
handed to :meth:`AnomalyExtractor.extract` is tabulated once at its
entry — and every step has one body, on masks and column reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detect.base import Alarm
from repro.errors import ExtractionError
from repro.extraction.candidates import CandidateSelection, select_candidates
from repro.extraction.classify import Classification, classify_itemset
from repro.extraction.filtering import (
    baseline_filter,
    baseline_shares,
    decompose_parents,
    dominance_filter,
)
from repro.extraction.ranking import ScoredItemset, rank_itemsets
from repro.flows.record import FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.mining.extended import (
    ExtendedApriori,
    ExtendedAprioriConfig,
    MiningOutcome,
)
from repro.taxonomy import AnomalyKind

__all__ = [
    "ExtractionConfig",
    "ExtractedItemset",
    "ExtractionReport",
    "AnomalyExtractor",
    "itemset_confirms_metadata",
]


def _default_mining_config() -> ExtendedAprioriConfig:
    # Extraction mines *closed* itemsets: the dominance filter needs the
    # general parents (e.g. the UDP-flood {srcIP,dstIP,proto} itemset)
    # that maximal-only reduction would discard in favour of per-flow
    # refinements. The band is wider than the raw-mining default since
    # closed collections are larger pre-filtering.
    return ExtendedAprioriConfig(reduce="closed", target_max_itemsets=40)


@dataclass(frozen=True)
class ExtractionConfig:
    """Tunables of the extraction pipeline."""

    mining: ExtendedAprioriConfig = field(
        default_factory=_default_mining_config
    )
    top_k: int = 10
    dominance: float = 1.25
    decompose_coverage: float = 0.95
    baseline_min_lift: float = 3.0
    min_candidates: int = 50
    use_metadata: bool = True
    min_score: float = 0.02

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ExtractionError(f"top_k must be >= 1: {self.top_k!r}")
        if not 0 <= self.min_score < 1:
            raise ExtractionError(
                f"min_score must lie in [0, 1): {self.min_score!r}"
            )


@dataclass
class ExtractedItemset:
    """One reported itemset: score, class guess and detector overlap."""

    rank: int
    scored: ScoredItemset
    classification: Classification
    confirms_detector: bool
    matched_flow_count: int

    @property
    def itemset(self):
        """Shortcut to the underlying itemset."""
        return self.scored.support.itemset

    def describe(self, anonymize: bool = False) -> str:
        """One-line operator summary."""
        support = self.scored.support
        tag = "known" if self.confirms_detector else "NEW"
        return (
            f"#{self.rank} {support.itemset.render(anonymize)} "
            f"{support.flows} flows / {support.packets} packets "
            f"[{self.classification.kind.value}, {tag}]"
        )


@dataclass
class ExtractionReport:
    """Everything the extractor learned about one alarm."""

    alarm: Alarm
    itemsets: list[ExtractedItemset]
    candidates: CandidateSelection
    outcome: MiningOutcome
    baseline_flow_count: int

    @property
    def useful(self) -> bool:
        """True when extraction produced at least one itemset.

        The paper's GEANT headline: "useful itemsets associated with a
        security incident in 94% of the cases."
        """
        return bool(self.itemsets)

    @property
    def additional_evidence(self) -> list[ExtractedItemset]:
        """Itemsets the detector's meta-data did not already flag.

        The paper: "for 28% of the cases with useful itemsets, the
        algorithm evidenced additional flows not provided by the
        anomaly detector."
        """
        return [e for e in self.itemsets if not e.confirms_detector]

    @property
    def kinds(self) -> set[AnomalyKind]:
        """Anomaly classes seen across the reported itemsets."""
        return {e.classification.kind for e in self.itemsets}

    def describe(self, anonymize: bool = False) -> str:
        """Multi-line operator summary."""
        lines = [self.alarm.describe(anonymize)]
        lines.append(
            f"  candidates: {len(self.candidates.flows)} of "
            f"{self.candidates.interval_flow_count} interval flows "
            f"({'meta-data union' if self.candidates.used_metadata else 'whole interval'})"
        )
        lines.append(
            f"  mining: {self.outcome.iterations} iteration(s), "
            f"min_flows={self.outcome.min_flows}, "
            f"min_packets={self.outcome.min_packets}, "
            f"converged={self.outcome.converged}"
        )
        if not self.itemsets:
            lines.append("  no meaningful itemsets extracted")
        for extracted in self.itemsets:
            lines.append("  " + extracted.describe(anonymize))
        return "\n".join(lines)


def _hint_values(alarm: Alarm) -> dict[FlowFeature, set[int]]:
    hints: dict[FlowFeature, set[int]] = {}
    for item in alarm.metadata:
        hints.setdefault(item.feature, set()).add(item.value)
    return hints


def itemset_confirms_metadata(itemset, alarm: Alarm) -> bool:
    """Does the detector's meta-data already describe this itemset?

    An itemset *confirms* the detector when at least two of its items
    agree with meta-data hints and none of its items contradicts a
    hinted feature. Protocol hints never count toward the agreement
    quota — nearly everything is TCP, so ``proto`` agreement carries no
    identifying power (it still counts as a conflict when it differs).
    Anything else — a conflicting source, a port the detector never
    flagged as the sole overlap — counts as additional evidence (the
    paper's "flows the anomaly detector missed").
    """
    hints = _hint_values(alarm)
    if not hints:
        return False
    identifying_hints = [f for f in hints if f is not FlowFeature.PROTO]
    agreements = 0
    for item in itemset.items:
        hinted = hints.get(item.feature)
        if hinted is None:
            continue
        if item.value not in hinted:
            return False  # conflicting value: a different phenomenon
        if item.feature is not FlowFeature.PROTO:
            agreements += 1
    if not identifying_hints:
        return False
    return agreements >= min(2, len(identifying_hints))


class AnomalyExtractor:
    """Extracts and summarizes the flows behind an alarm.

    Mining runs in the calling process through the configured engine.
    ``workers`` is deprecated and has no effect; it is still validated
    (≥ 1) so existing callers keep constructing.
    """

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        workers: int = 1,
    ) -> None:
        self.config = config or ExtractionConfig()
        if workers < 1:
            raise ExtractionError(f"workers must be >= 1: {workers!r}")
        self._miner = ExtendedApriori(self.config.mining)

    def close(self) -> None:
        """Nothing to release: mining holds no process or pool. Kept
        so callers that close an extractor keep working."""

    def extract(
        self,
        alarm: Alarm,
        interval_flows: "list[FlowRecord] | FlowTable",
        baseline_flows: "list[FlowRecord] | FlowTable | None" = None,
    ) -> ExtractionReport:
        """Run the full pipeline for one alarm.

        ``interval_flows`` are the flows of the alarm window;
        ``baseline_flows`` an optional pre-alarm reference window for
        the popular-value filter. Record lists are tabulated once,
        here; every step below (candidate masks, transaction encoding,
        itemset intersection, classification) has one body, over
        :class:`FlowTable`.
        """
        cfg = self.config
        baseline_flows = FlowTable.from_records(baseline_flows or ())

        candidates = select_candidates(
            interval_flows,
            alarm,
            min_candidates=cfg.min_candidates,
            use_metadata=cfg.use_metadata,
        )
        # The baseline must describe the same *population* as the
        # candidates: with a meta-data pre-filter in effect, compare
        # against the matching slice of the baseline window, otherwise
        # shares are inflated by the filter and the popular-value filter
        # stops filtering.
        if candidates.used_metadata and candidates.filter_node is not None:
            baseline_flows = baseline_flows.select(
                candidates.filter_node.mask(baseline_flows)
            )
        outcome = self._miner.mine(candidates.flows)

        survivors = dominance_filter(
            outcome.itemsets, dominance=cfg.dominance
        )
        survivors = decompose_parents(
            survivors, candidates.flows, coverage=cfg.decompose_coverage
        )
        # One mask per survivor over the baseline window serves both
        # the popular-value filter and the ranking of what it keeps.
        shares = (
            baseline_shares(survivors, baseline_flows)
            if baseline_flows
            else None
        )
        kept = baseline_filter(
            survivors,
            baseline_flows,
            total_flows=outcome.total_flows,
            total_packets=outcome.total_packets,
            min_lift=cfg.baseline_min_lift,
            stats=shares,
        )
        kept_shares = None
        if shares is not None:
            kept_ids = {id(support) for support in kept}
            kept_shares = dict(enumerate(
                shares[index]
                for index, support in enumerate(survivors)
                if id(support) in kept_ids
            ))
        ranked = rank_itemsets(
            kept,
            total_flows=outcome.total_flows,
            total_packets=outcome.total_packets,
            baseline=kept_shares,
            top_k=cfg.top_k,
        )
        ranked = [s for s in ranked if s.score >= cfg.min_score]

        extracted = []
        for rank, scored in enumerate(ranked, start=1):
            itemset = scored.support.itemset
            matched = candidates.flows.select(
                itemset.mask(candidates.flows)
            )
            extracted.append(
                ExtractedItemset(
                    rank=rank,
                    scored=scored,
                    classification=classify_itemset(itemset, matched),
                    confirms_detector=itemset_confirms_metadata(
                        itemset, alarm
                    ),
                    matched_flow_count=len(matched),
                )
            )
        return ExtractionReport(
            alarm=alarm,
            itemsets=extracted,
            candidates=candidates,
            outcome=outcome,
            baseline_flow_count=len(baseline_flows),
        )
