"""Incremental detector state: rolling histograms and accumulators.

Batch detectors recompute a window's features from all of its flows.
Streaming cannot afford that: a window's rows arrive spread over many
chunks, and recomputing per chunk would be quadratic. Instead a
:class:`WindowAccumulator` folds each arriving chunk into rolling
state — volume counters and per-feature value histograms, counted
vectorized per chunk and merged as exact integer counters — from which
the window's detector inputs (entropies, bucket histograms,
attribution histograms) are derived at close time.

Equivalence with the batch path is by construction, not by luck:

* counts are integers, so chunk-merged histograms equal the one-pass
  batch histograms exactly, regardless of chunk boundaries or order;
* entropies are computed from the counts in ascending value order —
  the same order ``np.unique`` gives the batch path — so even the
  float sums are bit-identical;
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
from collections.abc import Iterator, Mapping
from itertools import product

import numpy as np

from repro.detect.base import Alarm, Detector
from repro.detect.entropy import entropy_of_count_array
from repro.detect.features import BinFeatures
from repro.detect.histogram import HistogramKLDetector
from repro.detect.netreflex import NetReflexDetector
from repro.errors import DetectorError, FlowError
from repro.flows.record import FlowFeature
from repro.flows.table import FlowTable

__all__ = [
    "WindowAccumulator",
    "accumulate_payload",
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


class WindowAccumulator:
    """Rolling state of one open window.

    ``weightings`` names the histogram weightings to maintain per
    feature (``"flows"``/``"packets"``/``"bytes"``); volume counters
    are always kept.

    State is held in *array form*: each folded chunk contributes one
    payload of ``np.unique``-sorted ``(values, counts)`` arrays per
    feature (see :func:`accumulate_payload`), pending payloads merge
    vectorized on first read, and a ``Counter`` view is built only
    when :meth:`histogram` is asked for one. Counts are exact integers
    throughout, so any chunking of the same rows produces identical
    state.
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
        #: Unmerged array-form payload value maps, newest last.
        self._pending: list[dict] = []
        #: Fully merged value map: feature -> (values, counts-per-
        #: weighting tuple), or None until first materialisation.
        self._merged: dict | None = None

    @property
    def features(self) -> tuple[FlowFeature, ...]:
        """Features this accumulator keeps histograms for."""
        return self._features

    @property
    def weightings(self) -> tuple[str, ...]:
        """Histogram weightings maintained per feature."""
        return self._weightings

    def add_payload(self, payload: tuple[int, int, int, dict]) -> None:
        """Fold one array-form partial (:func:`accumulate_payload`)."""
        flows, packets, bytes_, values = payload
        if not flows:
            return
        self.flows += flows
        self.packets += packets
        self.bytes += bytes_
        self._pending.append(values)

    @staticmethod
    def _weight_column(chunk: FlowTable, weighting: str) -> np.ndarray | None:
        """Per-row weights; ``None`` means count rows (flow weighting)."""
        if weighting == "flows":
            return None
        if weighting == "packets":
            return chunk.packets
        if weighting == "bytes":
            return chunk.bytes
        raise FlowError(f"unknown weighting {weighting!r}")

    def update(self, chunk: FlowTable) -> None:
        """Fold one chunk into the rolling state (vectorized per chunk).

        Counting matches ``repro.flows.aggregate``'s table histograms
        operation for operation (``np.unique`` + ``bincount``/exact
        int64 ``add.at``), but the unique/inverse factorization of each
        feature column is computed once and shared by every weighting —
        the dominant per-chunk cost on the ingest hot path.
        """
        self.add_payload(
            accumulate_payload(chunk, self._features, self._weightings)
        )

    def _materialized(self) -> dict:
        """The merged value map; folds any pending payloads first."""
        if self._pending:
            sources = self._pending
            if self._merged:
                sources = [self._merged, *sources]
            merged: dict = {}
            for feature in self._features:
                parts = [
                    source[feature]
                    for source in sources
                    if feature in source
                ]
                if parts:
                    merged[feature] = _merge_value_parts(parts)
            self._merged = merged
            self._pending = []
        elif self._merged is None:
            self._merged = {}
        return self._merged

    def histogram(self, feature: FlowFeature, weighting: str) -> Counter:
        """The rolling value histogram for one (feature, weighting)."""
        if feature not in self._features \
                or weighting not in self._weightings:
            raise KeyError((feature, weighting))
        entry = self._materialized().get(feature)
        if entry is None:
            return Counter()
        values, counts = entry
        column = counts[self._weightings.index(weighting)]
        return Counter(dict(zip(values.tolist(), column.tolist())))

    def entropy(self, feature: FlowFeature) -> float:
        """Sample entropy of the flow-weighted value distribution.

        Counts are laid out in ascending value order — exactly the
        order the batch path's ``np.unique`` produces — so the float
        accumulation matches the batch entropy bit for bit.
        """
        if feature not in self._features \
                or "flows" not in self._weightings:
            raise KeyError((feature, "flows"))
        entry = self._materialized().get(feature)
        if entry is None:
            return 0.0
        return entropy_of_count_array(
            entry[1][self._weightings.index("flows")]
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


# -- array-form partials (the accumulator's native format) -------------------
#
# A *payload* is one chunk's window partial as plain numpy arrays:
# ``(flows, packets, bytes, values)`` where ``values`` maps each
# feature to ``(unique_values, (counts, ...))`` — one int64-exact count
# array per weighting, all in ascending value order. It carries exactly
# the information a Counter-dict would and merges vectorized. Counts
# are exact integers, so payload merging equals Counter merging equals
# one-pass accumulation for any chunking.


def accumulate_payload(
    chunk: FlowTable,
    features: tuple[FlowFeature, ...],
    weightings: tuple[str, ...],
) -> tuple[int, int, int, dict]:
    """One chunk's window partial in array form.

    Counting matches :mod:`repro.flows.aggregate`'s table histograms
    operation for operation (``np.unique`` + ``bincount``/exact int64
    ``add.at``, one factorization shared per feature).
    """
    if not len(chunk):
        return (0, 0, 0, {})
    values: dict = {}
    weight_columns = [
        WindowAccumulator._weight_column(chunk, weighting)
        for weighting in weightings
    ]
    for feature in features:
        column_values, inverse = np.unique(
            chunk.feature_column(feature), return_inverse=True
        )
        per_weighting = []
        for weights in weight_columns:
            if weights is None:
                counts = np.bincount(
                    inverse, minlength=len(column_values)
                )
            else:
                counts = np.zeros(len(column_values), dtype=np.int64)
                np.add.at(counts, inverse, weights)
            per_weighting.append(counts)
        values[feature] = (column_values, tuple(per_weighting))
    return (
        len(chunk),
        chunk.total_packets(),
        chunk.total_bytes(),
        values,
    )


def _merge_value_parts(parts: list[tuple]) -> tuple:
    """Merge per-feature ``(values, counts-per-weighting)`` parts.

    Equal values sum exactly in int64; the merged arrays stay in the
    ascending value order every other path (``np.unique``) produces.
    """
    if len(parts) == 1:
        values, counts = parts[0]
        return (
            values,
            tuple(
                column.astype(np.int64, copy=False)
                for column in counts
            ),
        )
    all_values = np.concatenate([part[0] for part in parts])
    merged_values, inverse = np.unique(all_values, return_inverse=True)
    merged_counts = []
    for index in range(len(parts[0][1])):
        column = np.zeros(len(merged_values), dtype=np.int64)
        np.add.at(
            column,
            inverse,
            np.concatenate([part[1][index] for part in parts]),
        )
        merged_counts.append(column)
    return (merged_values, tuple(merged_counts))


class _Histograms(Mapping):
    """An accumulator's ``(feature, weighting)`` histograms, each one
    materialised on first access: attribution reads them only for a
    window that raises an alarm, and most windows raise none."""

    __slots__ = ("_state",)

    def __init__(self, state: WindowAccumulator) -> None:
        self._state = state

    def __getitem__(self, key: tuple[FlowFeature, str]) -> Counter:
        return self._state.histogram(*key)

    def __iter__(self) -> Iterator[tuple[FlowFeature, str]]:
        return product(self._state.features, self._state.weightings)

    def __len__(self) -> int:
        return len(self._state.features) * len(self._state.weightings)


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
    performs per bin, including on empty bins — and builds the
    histograms' ``Counter`` views only if that raises an alarm.
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
            index, start, end, state.bin_features(), _Histograms(state)
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
