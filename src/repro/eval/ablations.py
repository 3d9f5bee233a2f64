"""EXP-S3/S4 and EXP-A* — ablations of the design choices.

* **Dual support** (EXP-S3): point-to-point UDP floods are invisible to
  flow-support-only Apriori and extracted once packet support is added —
  the paper's motivation for the extension.
* **Self-tuning** (EXP-S4): fixed support thresholds either drown the
  operator in itemsets or return none as anomaly intensity varies; the
  self-tuning search lands in the target band across the whole sweep.
* **Sampling** (EXP-A2): extraction recall as packet sampling thins the
  trace from 1/1 (SWITCH) to 1/1000 — why the packet measure matters
  even more on sampled feeds.
* **Candidate pre-filtering** (EXP-A3): mining the meta-data union vs
  the whole interval — precision and runtime impact.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.eval.groundtruth import (
    flow_level_quality,
    itemset_hits_truth,
)
from repro.eval.harness import run_case, synthesize_alarm
from repro.extraction.extractor import ExtractionConfig
from repro.mining.extended import ExtendedAprioriConfig
from repro.synth.anomalies.floods import SynFlood, UdpFlood
from repro.synth.anomalies.scans import PortScan
from repro.synth.background import BackgroundConfig
from repro.synth.scenario import Scenario
from repro.synth.topology import Topology

__all__ = [
    "DualSupportRow",
    "run_dual_support_ablation",
    "SelfTuningRow",
    "run_selftuning_ablation",
    "SamplingRow",
    "run_sampling_ablation",
    "CandidateRow",
    "run_candidate_ablation",
]


def _flood_scenario(
    packets_total: int,
    flow_count: int,
    seed: int,
    topology: Topology,
    background_fps: float,
) -> tuple:
    """One UDP-flood scenario plus its labelled build."""
    rng = random.Random(seed)
    target = topology.host_address(
        topology.pops[rng.randrange(topology.pop_count)], rng.randrange(64)
    )
    source = topology.random_external_host(rng)
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=background_fps),
        bin_count=6,
    )
    scenario.add(
        UdpFlood(
            "flood",
            source,
            target,
            packets_total=packets_total,
            flow_count=flow_count,
        ),
        4,
    )
    return scenario.build(seed=seed)


@dataclass
class DualSupportRow:
    """One flood intensity: did each support mode extract it?"""

    packets_total: int
    flow_count: int
    flow_only_hit: bool
    dual_hit: bool
    flow_only_itemsets: int
    dual_itemsets: int


def run_dual_support_ablation(
    packet_sweep: tuple[int, ...] = (
        200_000,
        500_000,
        1_000_000,
        2_000_000,
        5_000_000,
    ),
    flow_count: int = 12,
    seed: int = 31,
    background_fps: float = 25.0,
) -> list[DualSupportRow]:
    """EXP-S3: flow-only vs dual-support extraction on UDP floods."""
    topology = Topology()
    flow_only = ExtractionConfig(
        mining=ExtendedAprioriConfig(
            use_packet_support=False, reduce="closed", target_max_itemsets=40
        )
    )
    dual = ExtractionConfig()
    rows = []
    for index, packets_total in enumerate(packet_sweep):
        labeled = _flood_scenario(
            packets_total, flow_count, seed + index, topology, background_fps
        )
        truth = labeled.truths[0]
        alarm = synthesize_alarm(f"flood-{index}", [truth])
        results = {}
        for name, config in (("flow", flow_only), ("dual", dual)):
            result = run_case(labeled, alarm, config=config)
            hit = any(
                itemset_hits_truth(e.itemset, truth)
                for e in result.report.itemsets
            )
            results[name] = (hit, len(result.report.itemsets))
        rows.append(
            DualSupportRow(
                packets_total=packets_total,
                flow_count=flow_count,
                flow_only_hit=results["flow"][0],
                dual_hit=results["dual"][0],
                flow_only_itemsets=results["flow"][1],
                dual_itemsets=results["dual"][1],
            )
        )
    return rows


@dataclass
class SelfTuningRow:
    """One anomaly intensity: itemset counts per threshold policy."""

    scan_flows: int
    #: mapping from fixed flow-share threshold to reduced-itemset count
    fixed_counts: dict[float, int] = field(default_factory=dict)
    tuned_count: int = 0
    tuned_iterations: int = 0
    tuned_in_band: bool = False


def run_selftuning_ablation(
    intensity_sweep: tuple[int, ...] = (200, 1_000, 5_000, 25_000, 100_000),
    fixed_shares: tuple[float, ...] = (0.01, 0.05, 0.20),
    seed: int = 17,
    background_fps: float = 25.0,
) -> list[SelfTuningRow]:
    """EXP-S4: fixed minimum support vs the self-tuning search.

    For each scan intensity, mine the alarm bin's candidates with fixed
    relative thresholds and with self-tuning, and count the reduced
    itemsets each returns. Fixed thresholds leave the band quickly;
    self-tuning stays inside it.
    """
    from repro.mining.extended import ExtendedApriori
    from repro.mining.transactions import TransactionSet

    topology = Topology()
    rows = []
    for index, scan_flows in enumerate(intensity_sweep):
        rng = random.Random(seed + index)
        target = topology.host_address(topology.pops[3], 7)
        scenario = Scenario(
            topology=topology,
            background=BackgroundConfig(flows_per_second=background_fps),
            bin_count=6,
        )
        scenario.add(
            PortScan(
                "scan",
                topology.random_external_host(rng),
                target,
                flow_count=scan_flows,
            ),
            4,
        )
        labeled = scenario.build(seed=seed + index)
        start, end = scenario.bin_interval(4)
        candidates = labeled.trace.between_table(start, end)
        transactions = TransactionSet.from_table(candidates)

        config = ExtendedAprioriConfig(reduce="closed")
        miner = ExtendedApriori(config)
        row = SelfTuningRow(scan_flows=scan_flows)
        for share in fixed_shares:
            outcome = miner.mine_fixed(transactions, share, share)
            row.fixed_counts[share] = len(outcome.itemsets)
        tuned = miner.mine(transactions)
        row.tuned_count = len(tuned.itemsets)
        row.tuned_iterations = tuned.iterations
        row.tuned_in_band = (
            config.target_min_itemsets
            <= row.tuned_count
            <= config.target_max_itemsets
        )
        rows.append(row)
    return rows


@dataclass
class SamplingRow:
    """One sampling rate: extraction quality on the same scenario."""

    sampling_rate: int
    hit_scan: bool
    hit_flood: bool
    precision: float
    recall: float
    candidate_flows: int


def run_sampling_ablation(
    rates: tuple[int, ...] = (1, 10, 100, 1000),
    seed: int = 23,
    background_fps: float = 25.0,
) -> list[SamplingRow]:
    """EXP-A2: the same scan + flood scenario under coarser sampling."""
    topology = Topology()
    rng = random.Random(seed)
    target = topology.host_address(topology.pops[5], 9)
    scanner = topology.random_external_host(rng)
    flooder = topology.random_external_host(rng)
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=background_fps),
        bin_count=6,
    )
    scenario.add(
        PortScan("scan", scanner, target, flow_count=40_000), 4
    )
    scenario.add(
        UdpFlood("flood", flooder, target, packets_total=4_000_000), 4
    )
    rows = []
    for rate in rates:
        labeled = scenario.build(seed=seed, sampling_rate=rate)
        alarm = synthesize_alarm("sampling", labeled.truths)
        result = run_case(labeled, alarm)
        scan_truth = labeled.truth_by_id("scan")
        flood_truth = labeled.truth_by_id("flood")
        interval = labeled.trace.between_table(alarm.start, alarm.end)
        quality = flow_level_quality(
            result.report, labeled.truths, interval
        )
        rows.append(
            SamplingRow(
                sampling_rate=rate,
                hit_scan=any(
                    itemset_hits_truth(e.itemset, scan_truth)
                    for e in result.report.itemsets
                ),
                hit_flood=any(
                    itemset_hits_truth(e.itemset, flood_truth)
                    for e in result.report.itemsets
                ),
                precision=quality.precision,
                recall=quality.recall,
                candidate_flows=len(result.report.candidates.flows),
            )
        )
    return rows


@dataclass
class CandidateRow:
    """Meta-data pre-filter vs whole-interval mining."""

    mode: str
    candidate_flows: int
    itemsets: int
    precision: float
    recall: float
    seconds: float


def run_candidate_ablation(
    seed: int = 41,
    background_fps: float = 60.0,
    scan_flows: int = 30_000,
) -> list[CandidateRow]:
    """EXP-A3: effect of the meta-data candidate pre-filter."""
    topology = Topology()
    rng = random.Random(seed)
    target = topology.host_address(topology.pops[7], 11)
    scenario = Scenario(
        topology=topology,
        background=BackgroundConfig(flows_per_second=background_fps),
        bin_count=6,
    )
    scenario.add(
        PortScan(
            "scan", topology.random_external_host(rng), target,
            flow_count=scan_flows,
        ),
        4,
    )
    scenario.add(
        SynFlood("ddos", target, 80, flow_count=scan_flows // 8), 4
    )
    labeled = scenario.build(seed=seed)
    alarm = synthesize_alarm("cand", labeled.truths)
    interval = labeled.trace.between_table(alarm.start, alarm.end)
    rows = []
    for mode, use_metadata in (("union", True), ("interval", False)):
        config = ExtractionConfig(use_metadata=use_metadata)
        started = time.perf_counter()
        result = run_case(labeled, alarm, config=config)
        elapsed = time.perf_counter() - started
        quality = flow_level_quality(
            result.report, labeled.truths, interval
        )
        rows.append(
            CandidateRow(
                mode=mode,
                candidate_flows=len(result.report.candidates.flows),
                itemsets=len(result.report.itemsets),
                precision=quality.precision,
                recall=quality.recall,
                seconds=elapsed,
            )
        )
    return rows
