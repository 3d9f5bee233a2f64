"""The engine's handle on one trained detector.

A stream window's rows arrive spread over many chunks, but the ring
holds them all until the window seals, so the window is counted once,
there: :meth:`~repro.stream.window.WindowRing._seal` builds its
:class:`~repro.detect.features.WindowCounts` — the pass that indexes
its archive partition — and each detector scores it with
:meth:`~repro.detect.base.Detector.evaluate_window`, the call batch
``detect()`` makes per trace bin. Stream and batch therefore run one
kernel and one scoring call over the same rows.
"""

from __future__ import annotations

from repro.detect.base import Alarm, Detector
from repro.detect.features import WindowCounts
from repro.flows.table import FlowTable

__all__ = ["StreamingDetector"]


class StreamingDetector:
    """One trained detector as the engine drives it.

    The engine calls :meth:`close` exactly once per window, in window
    order, with the window's :class:`WindowCounts`.
    """

    def __init__(self, detector: Detector) -> None:
        self.detector = detector

    @property
    def name(self) -> str:
        return self.detector.name

    @property
    def weightings(self) -> tuple[str, ...]:
        return self.detector.weightings

    def observe(self, index: int, chunk: FlowTable) -> None:
        """Does nothing: a window is counted once, when it seals."""
        # Kept only because the e2e tracer patches it by name
        # ("stream.accumulate"); ROADMAP item 6 removes the row and this.

    def close(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> list[Alarm]:
        """Evaluate one sealed window."""
        alarm = self.detector.evaluate_window(index, start, end, counts)
        return [alarm] if alarm is not None else []
