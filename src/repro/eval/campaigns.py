"""EXP-S1 / EXP-S2 — the paper's two evaluation campaigns.

* **GEANT campaign** (EXP-S1): 40 alarms on 1/100-sampled NetFlow with a
  NetReflex-style detector. Paper: useful itemsets in **94%** of cases,
  **28%** of useful cases evidenced additional flows, **26%** found
  flows the detector missed.
* **SWITCH campaign** (EXP-S2): 31 labelled anomalies on unsampled
  NetFlow with the histogram/KL detector and classic (flow-support-only)
  Apriori. Paper: anomalous flows extracted in **31/31** cases with very
  few false-positive itemsets.

Both campaigns draw their anomaly mix from the types the paper names
(port/network scans, TCP SYN DoS/DDoS, point-to-point UDP floods,
reflectors), seeded end to end for exact reproducibility.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.eval.groundtruth import (
    TruthMatch,
    flow_level_quality,
    report_hits,
)
from repro.eval.harness import CaseResult, run_case, synthesize_alarm
from repro.eval.metrics import PrecisionRecall
from repro.extraction.extractor import ExtractionConfig
from repro.detect.histogram import HistogramKLDetector
from repro.flows.trace import FlowTrace
from repro.mining.extended import ExtendedAprioriConfig
from repro.synth.anomalies.base import AnomalyInjector
from repro.synth.anomalies.floods import SynFlood, UdpFlood
from repro.synth.anomalies.other import ReflectorAttack, StealthyAnomaly
from repro.synth.anomalies.scans import NetworkScan, PortScan
from repro.synth.background import BackgroundConfig
from repro.synth.scenario import Scenario
from repro.synth.topology import Topology
from repro.taxonomy import AnomalyKind

__all__ = [
    "CampaignCase",
    "CampaignStats",
    "run_geant_campaign",
    "SwitchCase",
    "SwitchStats",
    "run_switch_campaign",
]

#: Anomaly mix of the GEANT campaign (kind, relative weight).
_GEANT_MIX = (
    (AnomalyKind.PORT_SCAN, 0.30),
    (AnomalyKind.NETWORK_SCAN, 0.15),
    (AnomalyKind.SYN_FLOOD, 0.25),
    (AnomalyKind.UDP_FLOOD, 0.20),
    (AnomalyKind.REFLECTOR, 0.10),
)
#: Fraction of alarms that are stealthy / false positives (paper: 6%).
_STEALTHY_FRACTION = 0.06
#: Probability that a case carries a hidden secondary anomaly.
_SECONDARY_PROBABILITY = 0.35


def _make_injector(
    kind: AnomalyKind,
    case_id: str,
    topology: Topology,
    rng: random.Random,
    scale: float,
    target: int | None = None,
) -> AnomalyInjector:
    """Build one sized injector of ``kind``.

    ``target`` pins the victim host — co-injected secondary anomalies
    attack the primary's target, like the simultaneous scan + DDoS of
    the paper's Table 1.
    """
    target_pop = topology.pops[rng.randrange(topology.pop_count)]
    if target is None:
        target = topology.host_address(target_pop, rng.randrange(64))
    else:
        owner = topology.pop_of(target)
        if owner is not None:
            target_pop = topology.pops[owner]
    attacker = topology.random_external_host(rng)
    if kind is AnomalyKind.PORT_SCAN:
        return PortScan(
            case_id,
            attacker,
            target,
            flow_count=int(rng.randint(30_000, 80_000) * scale),
            src_port=rng.randint(1024, 65_535),
        )
    if kind is AnomalyKind.NETWORK_SCAN:
        return NetworkScan(
            case_id,
            attacker,
            target_network=target_pop.prefix.network,
            target_count=int(rng.randint(30_000, 60_000) * scale),
            dst_port=rng.choice([22, 23, 445, 3389, 1433]),
        )
    if kind is AnomalyKind.SYN_FLOOD:
        return SynFlood(
            case_id,
            target,
            dst_port=rng.choice([80, 443, 53]),
            flow_count=int(rng.randint(30_000, 70_000) * scale),
            source_count=rng.randint(64, 1024),
        )
    if kind is AnomalyKind.UDP_FLOOD:
        return UdpFlood(
            case_id,
            attacker,
            target,
            packets_total=int(rng.randint(2_000_000, 8_000_000) * scale),
            flow_count=rng.randint(8, 30),
        )
    if kind is AnomalyKind.REFLECTOR:
        return ReflectorAttack(
            case_id,
            victim=target,
            reflector_count=rng.randint(100, 800),
            flow_count=int(rng.randint(30_000, 60_000) * scale),
            service_port=rng.choice([53, 123, 389]),
        )
    raise EvaluationError(f"no injector for kind {kind!r}")


@dataclass
class CampaignCase:
    """One alarm of the GEANT campaign with its scored outcome."""

    case_id: str
    primary_kind: AnomalyKind
    stealthy: bool
    has_hidden_secondary: bool
    result: CaseResult
    matches: list[TruthMatch]
    quality: PrecisionRecall

    @property
    def useful(self) -> bool:
        """Did extraction return meaningful itemsets?"""
        return self.result.verdict.useful

    @property
    def additional_evidence(self) -> bool:
        """Did extraction evidence *verified* flows beyond the meta-data?

        The paper's 28% counts cases whose extra itemsets describe real
        anomalous flows (the authors verified them manually); itemsets
        hitting no ground truth are noise, not evidence.
        """
        return any(match.hit_beyond_detector for match in self.matches)

    @property
    def hidden_found(self) -> bool:
        """Was a detector-invisible anomaly recovered?"""
        return any(
            match.hit
            for match in self.matches
            if not match.truth.detector_visible
        )

    @property
    def primary_hit(self) -> bool:
        """Was the detector-visible anomaly recovered?"""
        return any(
            match.hit
            for match in self.matches
            if match.truth.detector_visible
        )


@dataclass
class CampaignStats:
    """Aggregate results of the GEANT campaign (paper §1 statistics)."""

    cases: list[CampaignCase] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of alarms analysed."""
        return len(self.cases)

    @property
    def useful_fraction(self) -> float:
        """Share of alarms with useful itemsets (paper: 94%)."""
        if not self.cases:
            return 0.0
        return sum(1 for c in self.cases if c.useful) / self.n

    @property
    def additional_fraction(self) -> float:
        """Share of *useful* cases with additional evidence (paper: 28%)."""
        useful = [c for c in self.cases if c.useful]
        if not useful:
            return 0.0
        return sum(1 for c in useful if c.additional_evidence) / len(useful)

    @property
    def hidden_found_fraction(self) -> float:
        """Share of cases where a hidden anomaly was found (paper: 26%)."""
        if not self.cases:
            return 0.0
        return sum(1 for c in self.cases if c.hidden_found) / self.n

    @property
    def mean_precision(self) -> float:
        """Mean flow-level precision over non-stealthy cases."""
        scored = [c.quality.precision for c in self.cases if not c.stealthy]
        return sum(scored) / len(scored) if scored else 0.0

    @property
    def mean_recall(self) -> float:
        """Mean flow-level recall over non-stealthy cases."""
        scored = [c.quality.recall for c in self.cases if not c.stealthy]
        return sum(scored) / len(scored) if scored else 0.0

    def by_kind(self) -> dict[AnomalyKind, tuple[int, int]]:
        """Per-kind (primary hits, cases) over non-stealthy cases."""
        table: dict[AnomalyKind, list[int]] = {}
        for case in self.cases:
            if case.stealthy:
                continue
            entry = table.setdefault(case.primary_kind, [0, 0])
            entry[1] += 1
            if case.primary_hit:
                entry[0] += 1
        return {kind: (hits, total) for kind, (hits, total) in table.items()}


def run_geant_campaign(
    n_alarms: int = 40,
    seed: int = 2010,
    sampling_rate: int = 100,
    background_fps: float = 25.0,
    anomaly_scale: float = 1.0,
    config: ExtractionConfig | None = None,
) -> CampaignStats:
    """Run the GEANT-style campaign (EXP-S1).

    Every alarm gets its own seeded scenario: background + a primary
    anomaly (detector-visible), possibly a hidden secondary, or — for
    the stealthy fraction — an anomaly with no mineable structure. The
    whole trace is 1/100 packet-sampled before extraction, like the
    GEANT feed.
    """
    if n_alarms < 1:
        raise EvaluationError(f"n_alarms must be >= 1: {n_alarms!r}")
    topology = Topology()
    rng = random.Random(seed)
    kinds = [kind for kind, _ in _GEANT_MIX]
    weights = [weight for _, weight in _GEANT_MIX]
    n_stealthy = round(n_alarms * _STEALTHY_FRACTION)
    stealthy_slots = set(
        rng.sample(range(n_alarms), n_stealthy) if n_stealthy else []
    )

    stats = CampaignStats()
    for index in range(n_alarms):
        case_id = f"geant-{index:03d}"
        case_rng = random.Random(f"{seed}/{case_id}")
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=background_fps),
            bin_count=6,
        )
        stealthy = index in stealthy_slots
        hidden = False
        if stealthy:
            primary_kind = AnomalyKind.STEALTHY
            scenario.add(
                StealthyAnomaly(f"{case_id}-stealthy", flow_count=60), 4
            )
        else:
            primary_kind = case_rng.choices(kinds, weights=weights, k=1)[0]
            target_pop = topology.pops[case_rng.randrange(topology.pop_count)]
            target = topology.host_address(
                target_pop, case_rng.randrange(64)
            )
            scenario.add(
                _make_injector(
                    primary_kind,
                    f"{case_id}-primary",
                    topology,
                    case_rng,
                    anomaly_scale,
                    target=target,
                ),
                4,
            )
            if case_rng.random() < _SECONDARY_PROBABILITY:
                hidden = True
                # Secondaries hit the *same* victim (the paper's Table 1
                # shape) and come from kinds whose flows the primary's
                # dstIP hint pulls into the candidate union.
                secondary_kind = case_rng.choice(
                    [
                        AnomalyKind.PORT_SCAN,
                        AnomalyKind.SYN_FLOOD,
                        AnomalyKind.UDP_FLOOD,
                        AnomalyKind.REFLECTOR,
                    ]
                )
                scenario.add(
                    _make_injector(
                        secondary_kind,
                        f"{case_id}-secondary",
                        topology,
                        case_rng,
                        anomaly_scale,
                        target=target,
                    ),
                    4,
                )
        labeled = scenario.build(
            seed=case_rng.randrange(2**31), sampling_rate=sampling_rate
        )
        for truth in labeled.truths:
            if truth.anomaly_id.endswith("-secondary") or \
                    truth.kind is AnomalyKind.STEALTHY:
                truth.detector_visible = []
        alarm = synthesize_alarm(f"{case_id}-alarm", labeled.truths)
        result = run_case(labeled, alarm, config=config)
        interval = labeled.trace.between_table(alarm.start, alarm.end)
        scoreable_truths = [
            t
            for t in labeled.truths
            if t.kind is not AnomalyKind.STEALTHY
        ]
        stats.cases.append(
            CampaignCase(
                case_id=case_id,
                primary_kind=primary_kind,
                stealthy=stealthy,
                has_hidden_secondary=hidden,
                result=result,
                matches=report_hits(result.report, scoreable_truths),
                quality=flow_level_quality(
                    result.report, scoreable_truths, interval
                ),
            )
        )
    return stats


# ---------------------------------------------------------------------------
# SWITCH campaign
# ---------------------------------------------------------------------------

#: Anomaly mix of the SWITCH campaign (unsampled, research network).
_SWITCH_MIX = (
    (AnomalyKind.PORT_SCAN, 0.35),
    (AnomalyKind.NETWORK_SCAN, 0.25),
    (AnomalyKind.SYN_FLOOD, 0.30),
    (AnomalyKind.REFLECTOR, 0.10),
)


@dataclass
class SwitchCase:
    """One SWITCH case: real KL detector + flow-support-only Apriori."""

    case_id: str
    kind: AnomalyKind
    detected: bool
    extracted: bool
    false_positive_itemsets: int
    quality: PrecisionRecall | None
    result: CaseResult | None


@dataclass
class SwitchStats:
    """Aggregate results of the SWITCH campaign (paper: 31/31, few FPs)."""

    cases: list[SwitchCase] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of analysed cases."""
        return len(self.cases)

    @property
    def detected_count(self) -> int:
        """Cases where the KL detector raised an overlapping alarm."""
        return sum(1 for c in self.cases if c.detected)

    @property
    def extracted_count(self) -> int:
        """Cases where extraction recovered the anomaly (paper: all)."""
        return sum(1 for c in self.cases if c.extracted)

    @property
    def mean_false_positive_itemsets(self) -> float:
        """Mean FP itemsets per detected case (paper: very few)."""
        detected = [c for c in self.cases if c.detected]
        if not detected:
            return 0.0
        return sum(c.false_positive_itemsets for c in detected) / len(
            detected
        )


def _switch_extraction_config() -> ExtractionConfig:
    """Classic Apriori setup of [1]: flow support only."""
    return ExtractionConfig(
        mining=ExtendedAprioriConfig(
            use_packet_support=False,
            reduce="closed",
            target_max_itemsets=40,
        )
    )


def run_switch_campaign(
    n_cases: int = 31,
    seed: int = 2009,
    background_fps: float = 15.0,
    training_bins: int = 8,
    config: ExtractionConfig | None = None,
) -> SwitchStats:
    """Run the SWITCH-style campaign (EXP-S2) with the real KL detector.

    Each case: train the histogram/KL detector on the scenario's clean
    leading bins, detect over the anomalous tail, extract with
    flow-support-only Apriori, and score against ground truth.
    """
    if n_cases < 1:
        raise EvaluationError(f"n_cases must be >= 1: {n_cases!r}")
    topology = Topology()
    rng = random.Random(seed)
    kinds = [kind for kind, _ in _SWITCH_MIX]
    weights = [weight for _, weight in _SWITCH_MIX]
    config = config or _switch_extraction_config()
    anomaly_bin = training_bins + 2

    stats = SwitchStats()
    for index in range(n_cases):
        case_id = f"switch-{index:03d}"
        case_rng = random.Random(f"{seed}/{case_id}")
        kind = case_rng.choices(kinds, weights=weights, k=1)[0]
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=background_fps),
            bin_count=training_bins + 4,
        )
        scenario.add(
            _make_injector(
                kind, f"{case_id}-anomaly", topology, case_rng, scale=0.1
            ),
            anomaly_bin,
        )
        labeled = scenario.build(seed=case_rng.randrange(2**31))
        trace = labeled.trace
        train_end = trace.origin + training_bins * trace.bin_seconds
        # The trace is sorted by start: both sides are slices of it.
        training, tail = (
            FlowTrace(
                trace.between_table(lo, hi),
                bin_seconds=trace.bin_seconds,
                origin=trace.origin,
            )
            for lo, hi in ((-math.inf, train_end), (train_end, math.inf))
        )

        detector = HistogramKLDetector()
        detector.train(training)
        alarms = detector.detect(tail)
        truth = labeled.truths[0]
        overlapping = [
            a for a in alarms if a.start < truth.end and a.end > truth.start
        ]
        if not overlapping:
            stats.cases.append(
                SwitchCase(
                    case_id=case_id,
                    kind=kind,
                    detected=False,
                    extracted=False,
                    false_positive_itemsets=0,
                    quality=None,
                    result=None,
                )
            )
            continue
        alarm = max(overlapping, key=lambda a: a.score)
        result = run_case(labeled, alarm, config=config)
        matches = report_hits(result.report, labeled.truths)
        extracted = any(match.hit for match in matches)
        hitting = {
            id(e) for match in matches for e in match.hitting_itemsets
        }
        false_positives = sum(
            1 for e in result.report.itemsets if id(e) not in hitting
        )
        interval = trace.between_table(alarm.start, alarm.end)
        stats.cases.append(
            SwitchCase(
                case_id=case_id,
                kind=kind,
                detected=True,
                extracted=extracted,
                false_positive_itemsets=false_positives,
                quality=flow_level_quality(
                    result.report, labeled.truths, interval
                ),
                result=result,
            )
        )
    return stats
