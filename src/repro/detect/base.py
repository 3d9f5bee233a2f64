"""Detector interface and the alarm data model.

The extraction system is detector-agnostic by design: "our system reads
from a database information about an alarm (e.g., the time interval and
the affected traffic features) and thus can be integrated with any
anomaly detection system that provides these data." :class:`Alarm`
captures exactly that contract — a time interval plus a set of
(feature, value) meta-data hints, possibly incomplete.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.detect.features import WindowCounts
from repro.errors import DetectorError
from repro.flows.record import FlowFeature, format_feature_value
from repro.flows.trace import FlowTrace

__all__ = ["MetadataItem", "Alarm", "Detector"]


@dataclass(frozen=True, slots=True)
class MetadataItem:
    """One meta-data hint: a feature value the detector implicates.

    ``weight`` orders hints by how strongly the detector implicates the
    value (detector-specific scale; only the ordering is used).
    """

    feature: FlowFeature
    value: int
    weight: float = 1.0

    def render(self, anonymize: bool = False) -> str:
        """``feature=value`` text form."""
        rendered = format_feature_value(self.feature, self.value, anonymize)
        return f"{self.feature.value}={rendered}"


@dataclass
class Alarm:
    """A detector alarm: interval, label guess and meta-data hints."""

    alarm_id: str
    detector: str
    start: float
    end: float
    score: float
    label: str = ""
    metadata: list[MetadataItem] = field(default_factory=list)
    #: Optional PoP that triggered (per-router detectors).
    router: int | None = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise DetectorError(
                f"alarm interval is empty: [{self.start}, {self.end})"
            )
        if not self.alarm_id:
            raise DetectorError("alarm_id must be non-empty")

    def metadata_for(self, feature: FlowFeature) -> list[MetadataItem]:
        """Hints concerning one feature, strongest first."""
        items = [m for m in self.metadata if m.feature is feature]
        items.sort(key=lambda m: -m.weight)
        return items

    def describe(self, anonymize: bool = False) -> str:
        """One-line summary used by the console and the alarm DB."""
        hints = ", ".join(m.render(anonymize) for m in self.metadata)
        label = self.label or "anomaly"
        return (
            f"[{self.alarm_id}] {label} in [{self.start:.0f}, {self.end:.0f}) "
            f"score={self.score:.3f}"
            + (f" meta: {hints}" if hints else " meta: (none)")
        )


class Detector(abc.ABC):
    """Base class of anomaly detectors.

    Detectors are trained on a window of presumed-normal traffic and
    then score one window at a time from its counts
    (:meth:`evaluate_window`): a stream engine calls it per sealed
    window, :meth:`detect` per bin of a trace, so a plugin that
    implements :meth:`train` and :meth:`evaluate_window` runs in every
    mode.
    """

    #: Human-readable detector name recorded on alarms.
    name: str = "detector"

    #: The histogram weightings :meth:`evaluate_window` reads off its
    #: counts; flows and packets are always counted, bytes only when a
    #: detector names them.
    weightings: tuple[str, ...] = ("flows", "packets")

    @abc.abstractmethod
    def train(self, trace: FlowTrace) -> None:
        """Learn the baseline from a (presumed normal) training trace."""

    @abc.abstractmethod
    def evaluate_window(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> Alarm | None:
        """Score window ``index`` (``[start, end)``) from its counts:
        an alarm, or ``None`` for a quiet window."""

    def detect(self, trace: FlowTrace) -> list[Alarm]:
        """Alarms for the bins of ``trace``: each bin counted once and
        scored as a stream scores the same window."""
        alarms = []
        for index, table in trace.bin_tables():
            start, end = trace.bin_interval(index)
            alarm = self.evaluate_window(
                index, start, end,
                WindowCounts.from_table(table, self.weightings),
            )
            if alarm is not None:
                alarms.append(alarm)
        return alarms

    def _require_trained(self, trained: bool) -> None:
        if not trained:
            raise DetectorError(
                f"{type(self).__name__} must be trained before detect()"
            )
