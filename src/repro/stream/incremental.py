"""Streaming detector adapters over one count per sealed window.

Batch detectors compute a bin's features from all of its flows. A
stream window's rows arrive spread over many chunks, but the ring holds
them all until the window seals, so the window is counted once, there:
:meth:`~repro.stream.window.WindowRing._seal` runs
:func:`~repro.archive.index.index_histograms` over the window's rows —
the pass that indexes its archive partition — and a
:class:`WindowCounts` hands the detectors those arrays, ``(sorted
distinct values, exact int64 counts)`` per feature, plus the window's
volume totals. Entropies, attribution histograms and bucket histograms
are read off them at close; only the KL adapter asks for ``Counter``s.

Equivalence with the batch path is by construction, not by luck:

* stream and batch run the same kernel
  (:func:`~repro.flows.aggregate.value_histogram`) over the same rows,
  and counts are exact integers;
* entropies are computed from the counts in ascending value order —
  the order the kernel gives every path — so even the float sums are
  bit-identical;
* scoring and attribution call the *same* detector methods
  (:meth:`~repro.detect.netreflex.NetReflexDetector.evaluate_window`,
  :meth:`~repro.detect.histogram.HistogramKLDetector.evaluate_window`)
  the batch ``detect()`` uses.

The property suite (``tests/test_stream.py``) asserts the equivalence
end to end over randomized traces, chunkings and arrival orders.
"""

from __future__ import annotations

import abc
from collections import Counter

import numpy as np

from repro.detect.base import Alarm, Detector
from repro.detect.entropy import entropy_of_count_array
from repro.detect.features import BinFeatures
from repro.detect.histogram import HistogramKLDetector
from repro.detect.netreflex import NetReflexDetector
from repro.errors import DetectorError
from repro.flows.aggregate import WEIGHTINGS
from repro.flows.record import FlowFeature
from repro.flows.table import _FEATURE_TO_COLUMN, FlowTable

__all__ = [
    "WindowCounts",
    "StreamingDetector",
    "StreamingNetReflex",
    "StreamingHistogramKL",
    "streaming_adapter",
]

_HEADER_FEATURES = (
    FlowFeature.SRC_IP,
    FlowFeature.DST_IP,
    FlowFeature.SRC_PORT,
    FlowFeature.DST_PORT,
)

#: The histogram of a window that saw no rows.
_NO_COUNTS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))


class WindowCounts:
    """Read-only view of one sealed window's counts.

    ``columns`` is the window's one histogram pass
    (:func:`~repro.archive.index.index_histograms`): per indexed
    column, ``(values, flows, packet sums[, byte sums])`` — ascending
    values, exact int64 counts. ``flows`` / ``packets`` / ``bytes`` are
    the window's totals. An empty window has no columns and reads as
    empty histograms.
    """

    __slots__ = ("flows", "packets", "bytes", "_columns")

    def __init__(
        self,
        flows: int = 0,
        packets: int = 0,
        bytes: int = 0,
        columns: dict[str, tuple[np.ndarray, ...]] | None = None,
    ) -> None:
        self.flows = flows
        self.packets = packets
        self.bytes = bytes
        self._columns = columns or {}

    def value_counts(
        self, feature: FlowFeature, weighting: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """One (feature, weighting) histogram as ``(sorted distinct
        values, exact int64 counts)`` arrays."""
        entry = self._columns.get(_FEATURE_TO_COLUMN[feature])
        if entry is None:
            return _NO_COUNTS
        position = 1 + WEIGHTINGS.index(weighting)
        if position >= len(entry):
            raise KeyError((feature, weighting))
        return entry[0], entry[position]

    def histogram(self, feature: FlowFeature, weighting: str) -> Counter:
        """``Counter`` view of :meth:`value_counts`."""
        values, counts = self.value_counts(feature, weighting)
        return Counter(dict(zip(values.tolist(), counts.tolist())))

    def bin_features(self) -> BinFeatures:
        """The window's detector feature vector, batch-identical: each
        entropy sums flow counts in ascending value order — the order
        the batch path's ``np.unique`` gives — so the floats match bit
        for bit."""
        src_ip, dst_ip, src_port, dst_port = (
            entropy_of_count_array(self.value_counts(feature, "flows")[1])
            for feature in _HEADER_FEATURES
        )
        return BinFeatures(
            flows=self.flows,
            packets=self.packets,
            bytes=self.bytes,
            entropy_src_ip=src_ip,
            entropy_dst_ip=dst_ip,
            entropy_src_port=src_port,
            entropy_dst_port=dst_port,
        )


class StreamingDetector(abc.ABC):
    """Adapter driving one batch detector from sealed windows' counts.

    The runtime calls :meth:`close` exactly once per window, in window
    order, with the window's :class:`WindowCounts`. An adapter keeps no
    per-window state.
    """

    def __init__(self, detector: Detector) -> None:
        self.detector = detector

    @property
    def name(self) -> str:
        return self.detector.name

    @property
    @abc.abstractmethod
    def weightings(self) -> tuple[str, ...]:
        """The histogram weightings :meth:`close` reads."""

    @abc.abstractmethod
    def _evaluate(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> Alarm | None:
        """Score one closed window from its counts."""

    def observe(self, index: int, chunk: FlowTable) -> None:
        """Does nothing: a window is counted once, when it seals."""
        # Kept only because the e2e tracer patches it by name
        # ("stream.accumulate"); ROADMAP item 6 removes the row and this.

    def close(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> list[Alarm]:
        """Evaluate one sealed window."""
        alarm = self._evaluate(index, start, end, counts)
        return [alarm] if alarm is not None else []


class StreamingNetReflex(StreamingDetector):
    """Adapter over a trained :class:`NetReflexDetector`.

    Closing evaluates the PCA subspace model on the window's
    volume/entropy vector — the exact computation batch ``detect()``
    performs per bin, including on empty bins — and attributes an
    alarm on the window's arrays as they are.
    """

    @property
    def weightings(self) -> tuple[str, ...]:
        return tuple(self.detector.config.weightings)

    def _evaluate(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> Alarm | None:
        return self.detector.evaluate_window(
            index, start, end, counts.bin_features(),
            {
                (feature, weighting): counts.value_counts(
                    feature, weighting
                )
                for feature in _HEADER_FEATURES
                for weighting in self.weightings
            },
        )


class StreamingHistogramKL(StreamingDetector):
    """Adapter over a trained :class:`HistogramKLDetector`.

    Closing folds the window's per-feature raw value histograms, under
    the detector's configured weighting, into the hashed bucket
    histograms and runs the batch KL scoring. Empty windows stay
    silent, matching batch ``detect()``.
    """

    @property
    def weightings(self) -> tuple[str, ...]:
        return (self.detector.config.weight,)

    def _evaluate(
        self, index: int, start: float, end: float, counts: WindowCounts
    ) -> Alarm | None:
        if counts.flows == 0:
            return None
        detector: HistogramKLDetector = self.detector
        values = {
            feature: counts.histogram(feature, detector.config.weight)
            for feature in detector.config.features
        }
        return detector.evaluate_window(index, start, end, values)


def streaming_adapter(detector: Detector) -> StreamingDetector:
    """Wrap a trained batch detector in its streaming adapter."""
    if isinstance(detector, NetReflexDetector):
        return StreamingNetReflex(detector)
    if isinstance(detector, HistogramKLDetector):
        return StreamingHistogramKL(detector)
    raise DetectorError(
        f"no streaming adapter for {type(detector).__name__}"
    )
