"""The extended Apriori of the demo system: dual support + self-tuning.

Two extensions over classic frequent itemset mining, both from the
paper ([5], §1):

1. **Packet-based support.** "If an anomaly is not characterized by a
   significant volume of flows, Apriori cannot extract it. For instance,
   this occurs in the case of point-to-point UDP floods (involving a
   small number of flows but a large number of packets) [...] For this
   reason, we extended Apriori to also compute the support of an itemset
   in terms of packets in addition to flows." An itemset is frequent
   when it passes the flow *or* the packet threshold.

2. **Self-tuning.** "We added to Apriori as well the capability of
   automatically self-adjusting some of its configuration parameters to
   properly select meaningful itemsets depending on the anomaly being
   analyzed." The engine searches over the two relative support
   thresholds until the number of *maximal* itemsets falls into a target
   band, geometrically relaxing (too few) or tightening (too many) and
   damping the step on direction reversals.

The miner itself is pluggable through :data:`ENGINES`: the one built-in,
``"apriori"``, is the columnar group-by kernel of
:mod:`repro.mining.apriori`; "extended Apriori" names the algorithmic
envelope, matching the paper's terminology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import MiningError
from repro.flows.record import FLOW_FEATURES, FlowFeature, FlowRecord
from repro.flows.table import FlowTable
from repro.mining.apriori import mine_apriori
from repro.mining.items import ItemsetSupport
from repro.mining.maximal import closed_itemsets, maximal_itemsets
from repro.mining.transactions import TransactionSet
from repro.obs import metrics as obs_metrics

__all__ = ["ENGINES", "ExtendedAprioriConfig", "MiningOutcome", "ExtendedApriori"]

_MINE_PASSES = obs_metrics.counter(
    "repro_mining_passes_total",
    "Fixed-threshold mining passes (each self-tuning iteration "
    "pays one).",
)
_MINE_CANDIDATES = obs_metrics.counter(
    "repro_mining_candidates_total",
    "Frequent itemsets produced by mining passes, before reduction.",
)
_MINE_RUNS = obs_metrics.counter(
    "repro_mining_runs_total",
    "Self-tuned mining runs (one per triaged alarm window).",
)
_MINE_ITERATIONS = obs_metrics.counter(
    "repro_mining_iterations_total",
    "Threshold-tuning iterations spent across mining runs.",
)

ENGINES: dict[str, Callable[..., list[ItemsetSupport]]] = {
    "apriori": mine_apriori,
}

_REDUCERS = {
    "maximal": maximal_itemsets,
    "closed": closed_itemsets,
    "none": lambda supports: list(supports),
}


@dataclass(frozen=True)
class ExtendedAprioriConfig:
    """Tunables of the extended Apriori.

    The initial relative thresholds are deliberately aggressive; the
    self-tuning loop walks them toward the target band
    ``[target_min_itemsets, target_max_itemsets]`` of maximal itemsets.
    Floors keep absolute thresholds meaningful on small candidate sets
    (below them, itemsets describe single flows, not phenomena).
    """

    initial_flow_share: float = 0.05
    initial_packet_share: float = 0.05
    use_packet_support: bool = True
    target_min_itemsets: int = 2
    target_max_itemsets: int = 15
    adjust_factor: float = 2.0
    max_iterations: int = 16
    floor_flows: int = 10
    floor_packets: int = 5_000
    max_share: float = 0.95
    engine: str = "apriori"
    reduce: str = "maximal"
    features: tuple[FlowFeature, ...] = FLOW_FEATURES

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise MiningError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{sorted(ENGINES)}"
            )
        if self.reduce not in _REDUCERS:
            raise MiningError(
                f"unknown reduction {self.reduce!r}; expected one of "
                f"{sorted(_REDUCERS)}"
            )
        for name, share in (
            ("initial_flow_share", self.initial_flow_share),
            ("initial_packet_share", self.initial_packet_share),
            ("max_share", self.max_share),
        ):
            if not 0 < share <= 1:
                raise MiningError(f"{name} must lie in (0, 1]: {share!r}")
        if self.target_min_itemsets < 1 or \
                self.target_max_itemsets < self.target_min_itemsets:
            raise MiningError(
                "target band must satisfy 1 <= min <= max"
            )
        if self.adjust_factor <= 1:
            raise MiningError("adjust_factor must exceed 1")
        if self.max_iterations < 1:
            raise MiningError("max_iterations must be >= 1")
        if self.floor_flows < 1 or self.floor_packets < 1:
            raise MiningError("floors must be >= 1")


@dataclass
class MiningOutcome:
    """Result of one (possibly self-tuned) mining run."""

    itemsets: list[ItemsetSupport]
    all_frequent: list[ItemsetSupport]
    min_flows: int | None
    min_packets: int | None
    flow_share: float | None
    packet_share: float | None
    iterations: int
    converged: bool
    total_flows: int
    total_packets: int
    history: list[tuple[float, float | None, int]] = field(
        default_factory=list
    )

    @property
    def top(self) -> ItemsetSupport | None:
        """Highest-support itemset, if any."""
        return self.itemsets[0] if self.itemsets else None


class ExtendedApriori:
    """Dual-support frequent itemset mining with self-tuned thresholds."""

    def __init__(self, config: ExtendedAprioriConfig | None = None) -> None:
        self.config = config or ExtendedAprioriConfig()

    # -- one-shot mining ----------------------------------------------------

    def _frequent(
        self,
        transactions: TransactionSet,
        min_flows: int | None,
        min_packets: int | None,
    ) -> list[ItemsetSupport]:
        """All frequent itemsets at absolute thresholds.

        The single overridable seam of the envelope: a subclass (the
        per-transaction oracle of the test suite) swaps the engine
        while the tuning loop, reduction and sorting stay shared — and
        therefore visit the same thresholds in the same order.
        """
        return ENGINES[self.config.engine](
            transactions, min_flows, min_packets
        )

    def mine_fixed(
        self,
        transactions: TransactionSet,
        flow_share: float,
        packet_share: float | None,
    ) -> MiningOutcome:
        """Mine once at fixed relative thresholds (no tuning)."""
        reducer = _REDUCERS[self.config.reduce]
        min_flows, min_packets = transactions.absolute_thresholds(
            flow_share,
            packet_share,
            floor_flows=self.config.floor_flows,
            floor_packets=self.config.floor_packets,
        )
        frequent = self._frequent(transactions, min_flows, min_packets)
        if obs_metrics.enabled():
            _MINE_PASSES.inc()
            if frequent:
                _MINE_CANDIDATES.inc(len(frequent))
        reduced = reducer(frequent)
        reduced.sort(
            key=lambda s: (
                -max(
                    s.flow_share(transactions.total_flows),
                    s.packet_share(transactions.total_packets)
                    if packet_share is not None
                    else 0.0,
                ),
                -len(s.itemset),
            )
        )
        return MiningOutcome(
            itemsets=reduced,
            all_frequent=frequent,
            min_flows=min_flows,
            min_packets=min_packets,
            flow_share=flow_share,
            packet_share=packet_share,
            iterations=1,
            converged=True,
            total_flows=transactions.total_flows,
            total_packets=transactions.total_packets,
            history=[(flow_share, packet_share, len(reduced))],
        )

    # -- self-tuned mining ------------------------------------------------------

    def mine(
        self,
        flows: "Iterable[FlowRecord] | FlowTable | TransactionSet",
    ) -> MiningOutcome:
        """Mine with self-tuned thresholds.

        Accepts a columnar :class:`FlowTable` or raw flows (encoded on
        the fly through ``TransactionSet.from_table``) or a pre-built
        :class:`TransactionSet`.
        """
        if isinstance(flows, TransactionSet):
            transactions = flows
        else:
            transactions = TransactionSet.from_flows(
                flows, features=self.config.features
            )
        return self._mine_transactions(transactions)

    def _mine_transactions(
        self, transactions: TransactionSet
    ) -> MiningOutcome:
        """The self-tuning loop over an encoded transaction set.

        ``transactions`` only needs ``total_flows``/``total_packets``,
        ``absolute_thresholds`` and truthiness here and in
        :meth:`mine_fixed`.
        """
        cfg = self.config
        if not transactions:
            return MiningOutcome(
                itemsets=[],
                all_frequent=[],
                min_flows=None,
                min_packets=None,
                flow_share=None,
                packet_share=None,
                iterations=0,
                converged=True,
                total_flows=0,
                total_packets=0,
            )

        flow_share = cfg.initial_flow_share
        packet_share = (
            cfg.initial_packet_share if cfg.use_packet_support else None
        )
        factor = cfg.adjust_factor
        last_direction = 0
        best: MiningOutcome | None = None
        history: list[tuple[float, float | None, int]] = []

        outcome = self.mine_fixed(transactions, flow_share, packet_share)
        for iteration in range(1, cfg.max_iterations + 1):
            count = len(outcome.itemsets)
            history.append((flow_share, packet_share, count))
            if cfg.target_min_itemsets <= count <= cfg.target_max_itemsets:
                outcome.iterations = iteration
                outcome.converged = True
                outcome.history = history
                if obs_metrics.enabled():
                    _MINE_RUNS.inc()
                    _MINE_ITERATIONS.inc(iteration)
                return outcome
            if best is None or self._band_distance(count) < \
                    self._band_distance(len(best.itemsets)):
                best = outcome
            if count > cfg.target_max_itemsets:
                direction = +1  # tighten: raise thresholds
            else:
                direction = -1  # relax: lower thresholds
            if last_direction and direction != last_direction:
                # Crossed the band: damp the step (bounded oscillation).
                factor = max(1.1, factor**0.5)
            last_direction = direction

            at_floor = self._at_floor(transactions, flow_share, packet_share)
            if direction < 0 and at_floor:
                break  # cannot relax further; give up
            if direction > 0:
                flow_share = min(cfg.max_share, flow_share * factor)
                if packet_share is not None:
                    packet_share = min(cfg.max_share, packet_share * factor)
            else:
                flow_share = flow_share / factor
                if packet_share is not None:
                    packet_share = packet_share / factor
            outcome = self.mine_fixed(transactions, flow_share, packet_share)

        # Out of iterations (or floored): return the closest attempt,
        # considering the last mined outcome too (it was produced after
        # the final in-band check).
        if best is None or self._band_distance(len(outcome.itemsets)) < \
                self._band_distance(len(best.itemsets)):
            best = outcome
        final = best
        final.iterations = len(history)
        final.converged = (
            cfg.target_min_itemsets
            <= len(final.itemsets)
            <= cfg.target_max_itemsets
        )
        final.history = history
        if obs_metrics.enabled():
            _MINE_RUNS.inc()
            _MINE_ITERATIONS.inc(final.iterations)
        return final

    # -- helpers ------------------------------------------------------------------

    def _band_distance(self, count: int) -> int:
        cfg = self.config
        if count < cfg.target_min_itemsets:
            return cfg.target_min_itemsets - count
        if count > cfg.target_max_itemsets:
            return count - cfg.target_max_itemsets
        return 0

    def _at_floor(
        self,
        transactions: TransactionSet,
        flow_share: float,
        packet_share: float | None,
    ) -> bool:
        """True when both thresholds already sit at their floors."""
        cfg = self.config
        min_flows, min_packets = transactions.absolute_thresholds(
            flow_share,
            packet_share,
            floor_flows=cfg.floor_flows,
            floor_packets=cfg.floor_packets,
        )
        flows_floored = min_flows is None or min_flows <= cfg.floor_flows
        packets_floored = (
            min_packets is None or min_packets <= cfg.floor_packets
        )
        return flows_floored and packets_floored
