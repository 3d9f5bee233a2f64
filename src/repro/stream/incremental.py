"""Incremental detector state: rolling histograms and accumulators.

Batch detectors recompute a window's features from all of its flows.
Streaming cannot afford that: a window's rows arrive spread over many
chunks, and recomputing per chunk would be quadratic. Instead a
:class:`WindowAccumulator` folds each arriving chunk into rolling
state — volume counters and per-feature value histograms in the array
form of :mod:`repro.flows.aggregate` (``value_histogram`` per chunk,
``merge_histograms`` per window) — from which the window's detector
inputs (entropies, attribution histograms, bucket histograms) are read
at close time, as arrays; only the KL adapter asks for ``Counter``s.

Equivalence with the batch path is by construction, not by luck:

* counts are integers, so chunk-merged histograms equal the one-pass
  batch histograms exactly, regardless of chunk boundaries or order;
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
from repro.flows.aggregate import merge_histograms, table_histogram
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable

__all__ = [
    "WindowAccumulator",
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


class WindowAccumulator:
    """Rolling state of one open window.

    ``weightings`` names the histogram weightings to maintain per
    feature (``"flows"``/``"packets"``/``"bytes"``); volume counters
    are always kept.

    State is held in *array form*: each folded chunk contributes, per
    feature, one ``(values, counts per weighting...)`` histogram
    (:func:`~repro.flows.aggregate.table_histogram`: ascending values,
    exact int64 counts), pending chunks merge on first read
    (:func:`~repro.flows.aggregate.merge_histograms`), and a
    ``Counter`` view is built only when :meth:`histogram` is asked for
    one. Counts are exact integers throughout, so any chunking of the
    same rows produces identical state.
    """

    __slots__ = ("flows", "packets", "bytes", "_features",
                 "_weightings", "_pending", "_merged")

    def __init__(
        self,
        features: tuple[FlowFeature, ...] = _HEADER_FEATURES,
        weightings: tuple[str, ...] = ("flows",),
    ) -> None:
        self.flows = 0
        self.packets = 0
        self.bytes = 0
        self._features = features
        self._weightings = weightings
        #: Unmerged per-chunk ``{feature: histogram}`` maps, newest last.
        self._pending: list[dict] = []
        #: The window's merged ``{feature: histogram}`` map so far.
        self._merged: dict = {}

    def update(self, chunk: FlowTable) -> None:
        """Fold one chunk into the rolling state: one kernel pass per
        feature, shared by every weighting — the dominant per-chunk
        cost on the ingest hot path."""
        if not len(chunk):
            return
        self._pending.append({
            feature: table_histogram(chunk, feature, self._weightings)
            for feature in self._features
        })
        self.flows += len(chunk)
        self.packets += chunk.total_packets()
        self.bytes += chunk.total_bytes()

    def value_counts(
        self, feature: FlowFeature, weighting: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rolling histogram for one (feature, weighting) as
        ``(sorted distinct values, exact int64 counts)`` arrays."""
        if feature not in self._features \
                or weighting not in self._weightings:
            raise KeyError((feature, weighting))
        if self._pending:
            if self._merged:
                self._pending.insert(0, self._merged)
            self._merged = {
                name: merge_histograms(
                    [part[name] for part in self._pending]
                )
                for name in self._features
            }
            self._pending = []
        entry = self._merged.get(feature)
        if entry is None:
            return _NO_COUNTS
        return entry[0], entry[1 + self._weightings.index(weighting)]

    def histogram(self, feature: FlowFeature, weighting: str) -> Counter:
        """``Counter`` view of :meth:`value_counts`."""
        values, counts = self.value_counts(feature, weighting)
        return Counter(dict(zip(values.tolist(), counts.tolist())))

    def entropy(self, feature: FlowFeature) -> float:
        """Sample entropy of the flow-weighted value distribution.

        Counts are laid out in ascending value order — exactly the
        order the batch path's ``np.unique`` produces — so the float
        accumulation matches the batch entropy bit for bit.
        """
        return entropy_of_count_array(
            self.value_counts(feature, "flows")[1]
        )

    def bin_features(self) -> BinFeatures:
        """The window's detector feature vector (batch-identical)."""
        return BinFeatures(
            flows=self.flows,
            packets=self.packets,
            bytes=self.bytes,
            entropy_src_ip=self.entropy(FlowFeature.SRC_IP),
            entropy_dst_ip=self.entropy(FlowFeature.DST_IP),
            entropy_src_port=self.entropy(FlowFeature.SRC_PORT),
            entropy_dst_port=self.entropy(FlowFeature.DST_PORT),
        )


class StreamingDetector(abc.ABC):
    """Adapter driving one batch detector from incremental window state.

    The runtime calls :meth:`observe` for every routed sub-chunk and
    :meth:`close` exactly once per window, in window order. Closing
    discards the window's state.
    """

    def __init__(self, detector: Detector) -> None:
        self.detector = detector
        self._open: dict[int, WindowAccumulator] = {}

    @property
    def name(self) -> str:
        return self.detector.name

    @abc.abstractmethod
    def _new_accumulator(self) -> WindowAccumulator:
        """Fresh per-window state."""

    @abc.abstractmethod
    def _evaluate(
        self, index: int, start: float, end: float,
        state: WindowAccumulator,
    ) -> Alarm | None:
        """Score one closed window from its accumulated state."""

    def observe(self, index: int, chunk: FlowTable) -> None:
        """Fold a routed sub-chunk into the window's rolling state."""
        state = self._open.get(index)
        if state is None:
            state = self._open[index] = self._new_accumulator()
        state.update(chunk)

    def close(self, index: int, start: float, end: float) -> list[Alarm]:
        """Seal a window: evaluate its state and drop it."""
        state = self._open.pop(index, None)
        if state is None:
            state = self._new_accumulator()
        alarm = self._evaluate(index, start, end, state)
        return [alarm] if alarm is not None else []

    @property
    def open_windows(self) -> int:
        """Number of windows currently holding state."""
        return len(self._open)


class StreamingNetReflex(StreamingDetector):
    """Incremental adapter over a trained :class:`NetReflexDetector`.

    Accumulates the volume/entropy feature vector plus the attribution
    histograms per window; closing evaluates the PCA subspace model on
    the accumulated vector — the exact computation batch ``detect()``
    performs per bin, including on empty bins — and attributes an
    alarm on the accumulator's merged arrays as they are.
    """

    def __init__(self, detector: NetReflexDetector) -> None:
        super().__init__(detector)
        weightings = tuple(detector.config.weightings)
        if "flows" not in weightings:
            # Entropy always needs the flow-weighted distribution.
            weightings = ("flows", *weightings)
        self._weightings = weightings

    def _new_accumulator(self) -> WindowAccumulator:
        return WindowAccumulator(
            features=_HEADER_FEATURES, weightings=self._weightings
        )

    def _evaluate(
        self, index: int, start: float, end: float,
        state: WindowAccumulator,
    ) -> Alarm | None:
        return self.detector.evaluate_window(
            index, start, end, state.bin_features(),
            {
                (feature, weighting): state.value_counts(
                    feature, weighting
                )
                for feature in _HEADER_FEATURES
                for weighting in self.detector.config.weightings
            },
        )


class StreamingHistogramKL(StreamingDetector):
    """Incremental adapter over a trained :class:`HistogramKLDetector`.

    Accumulates per-feature raw value histograms under the detector's
    configured weighting; closing folds them into the hashed bucket
    histograms and runs the batch KL scoring. Empty windows stay
    silent, matching batch ``detect()``.
    """

    def _new_accumulator(self) -> WindowAccumulator:
        detector: HistogramKLDetector = self.detector
        return WindowAccumulator(
            features=tuple(detector.config.features),
            weightings=(detector.config.weight,),
        )

    def _evaluate(
        self, index: int, start: float, end: float,
        state: WindowAccumulator,
    ) -> Alarm | None:
        if state.flows == 0:
            return None
        detector: HistogramKLDetector = self.detector
        values = {
            feature: state.histogram(feature, detector.config.weight)
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
