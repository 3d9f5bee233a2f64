"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

Design constraints, in order:

1. **No-op by default.** Instruments live at module scope in the hot
   layers (``_FLOWS = metrics.counter(...)`` next to the code that
   increments them). Until :func:`enable` installs a registry, every
   record method is one global load and a ``None`` check — no locks,
   no dict lookups, no allocation — so instrumented code paths cost
   within noise of uninstrumented ones (bench-guarded at <= 2%).
2. **Snapshot for export.** A registry serializes to a plain dict of
   builtins (:meth:`MetricsRegistry.snapshot`), which the exporters
   and the benchmark read. Every instrument records in the one
   process that runs the pipeline, so there is nothing to merge.
3. **Swappable current registry.** :func:`install` atomically swaps
   the active registry and returns the previous one — how a test or
   a benchmark isolates what one run records.

Naming scheme (the telemetry contract, ARCHITECTURE.md):
``repro_<subsystem>_<quantity>_<unit>``; counters end in ``_total``,
gauges and histogram families name their unit (``_seconds``,
``_bytes``). Instruments self-describe at creation time so the
Prometheus renderer can emit ``# HELP`` / ``# TYPE`` headers.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator, Mapping

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "counter",
    "describe",
    "descriptors",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "install",
    "snapshot",
]

#: A series key: ``(metric name, ((label, value), ...))`` — hashable,
#: picklable, and sorted by label name so equal label sets collide.
Key = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram buckets for sub-second latencies (upper bounds
#: in seconds; +Inf overflow is implicit).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Descriptor:
    """Immutable metadata for one metric family (HELP/TYPE/buckets)."""

    __slots__ = ("name", "kind", "help", "buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets


#: Every metric family ever declared in this process, by name. Global
#: and append-only: redeclaring with identical shape is a no-op (so
#: module reloads are safe), redeclaring with a different shape is a
#: programming error.
_DESCRIPTORS: dict[str, Descriptor] = {}

#: The active registry, or ``None`` when telemetry is disabled. The
#: single global every record method checks.
_REGISTRY: "MetricsRegistry | None" = None


def describe(
    name: str,
    kind: str,
    help: str,
    buckets: tuple[float, ...] | None = None,
) -> Descriptor:
    """Register family metadata; idempotent for an identical shape."""
    existing = _DESCRIPTORS.get(name)
    if existing is not None:
        if existing.kind != kind or existing.buckets != buckets:
            raise ReproError(
                f"metric {name!r} redeclared as {kind} "
                f"(was {existing.kind})"
            )
        return existing
    descriptor = Descriptor(name, kind, help, buckets)
    _DESCRIPTORS[name] = descriptor
    return descriptor


def descriptors() -> dict[str, Descriptor]:
    """All families declared so far (renderer input); live mapping."""
    return _DESCRIPTORS


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(
        (name, str(value)) for name, value in sorted(labels.items())
    )


class Counter:
    """Monotonic counter handle; stateless, safe to share."""

    __slots__ = ("_key",)

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self._key: Key = (name, labels)

    @property
    def name(self) -> str:
        return self._key[0]

    def labels(self, **labels: object) -> "Counter":
        """A child handle bound to a label set (pre-create, reuse)."""
        return Counter(self._key[0], _label_key(labels))

    def inc(self, amount: int | float = 1) -> None:
        registry = _REGISTRY
        if registry is not None:
            registry.inc(self._key, amount)


class Gauge:
    """Point-in-time value handle (last set wins; merge takes max)."""

    __slots__ = ("_key",)

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self._key: Key = (name, labels)

    @property
    def name(self) -> str:
        return self._key[0]

    def labels(self, **labels: object) -> "Gauge":
        return Gauge(self._key[0], _label_key(labels))

    def set(self, value: int | float) -> None:
        registry = _REGISTRY
        if registry is not None:
            registry.set(self._key, value)


class Histogram:
    """Fixed-bucket histogram handle; bucket bounds ride on the handle."""

    __slots__ = ("_key", "_buckets")

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...],
        labels: tuple = (),
    ) -> None:
        self._key: Key = (name, labels)
        self._buckets = buckets

    @property
    def name(self) -> str:
        return self._key[0]

    @property
    def buckets(self) -> tuple[float, ...]:
        return self._buckets

    def labels(self, **labels: object) -> "Histogram":
        return Histogram(
            self._key[0], self._buckets, _label_key(labels)
        )

    def observe(self, value: float) -> None:
        registry = _REGISTRY
        if registry is not None:
            registry.observe(self._key, self._buckets, value)


def counter(name: str, help: str = "") -> Counter:
    """Declare a counter family and return its unlabeled handle."""
    describe(name, "counter", help)
    return Counter(name)


def gauge(name: str, help: str = "") -> Gauge:
    """Declare a gauge family and return its unlabeled handle."""
    describe(name, "gauge", help)
    return Gauge(name)


def histogram(
    name: str,
    help: str = "",
    buckets: tuple[float, ...] = LATENCY_BUCKETS,
) -> Histogram:
    """Declare a histogram family and return its unlabeled handle."""
    bounds = tuple(float(bound) for bound in buckets)
    if not bounds or any(
        b <= a for a, b in zip(bounds, bounds[1:])
    ):
        raise ReproError(
            f"histogram {name!r} buckets must be non-empty and "
            f"strictly increasing: {buckets!r}"
        )
    describe(name, "histogram", help, bounds)
    return Histogram(name, bounds)


class _HistState:
    """Mutable per-series histogram state inside a registry."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        # One slot per bound plus the +Inf overflow; non-cumulative
        # here, cumulated only at render time.
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # ``le`` is inclusive: first bound >= value takes the sample.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """A bag of metric series; :meth:`snapshot` exports them.

    Mutation methods take the lock — registries are shared between
    the pipeline thread and the serve endpoint's handler threads, and
    one uncontended lock per *chunk-grained* increment is well inside
    the overhead budget (the hot loops record per chunk/window/task,
    never per flow row).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[Key, int | float] = {}
        self._gauges: dict[Key, int | float] = {}
        self._hists: dict[Key, _HistState] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, key: Key, amount: int | float) -> None:
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set(self, key: Key, value: int | float) -> None:
        with self._lock:
            self._gauges[key] = value

    def observe(
        self, key: Key, buckets: tuple[float, ...], value: float
    ) -> None:
        with self._lock:
            state = self._hists.get(key)
            if state is None:
                state = self._hists[key] = _HistState(buckets)
            state.observe(value)

    # -- reading -----------------------------------------------------------

    def counters(self) -> dict[Key, int | float]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[Key, int | float]:
        with self._lock:
            return dict(self._gauges)

    def histograms(
        self,
    ) -> dict[Key, tuple[tuple[float, ...], list[int], float, int]]:
        with self._lock:
            return {
                key: (
                    state.buckets,
                    list(state.counts),
                    state.total,
                    state.count,
                )
                for key, state in self._hists.items()
            }

    def value(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> int | float:
        """One scalar series (tests/CLI convenience); 0 if unset."""
        key: Key = (name, _label_key(labels or {}))
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, 0)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every series as plain builtins, empty sections omitted."""
        with self._lock:
            out: dict[str, Any] = {}
            if self._counters:
                out["counters"] = dict(self._counters)
            if self._gauges:
                out["gauges"] = dict(self._gauges)
            if self._hists:
                out["histograms"] = {
                    key: (
                        state.buckets,
                        tuple(state.counts),
                        state.total,
                        state.count,
                    )
                    for key, state in self._hists.items()
                }
            return out


# -- module-level switchboard ----------------------------------------------


def active() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when telemetry is off."""
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY is not None


def enable(
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Turn telemetry on; keeps an already-installed registry unless
    an explicit one is given. Sticky for the process."""
    global _REGISTRY
    if registry is not None:
        _REGISTRY = registry
    elif _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Back to no-op instruments (the default state)."""
    global _REGISTRY
    _REGISTRY = None


def install(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Swap the active registry, returning the previous one.

    The isolation idiom::

        previous = install(MetricsRegistry())
        try:
            run()
        finally:
            install(previous)
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def snapshot() -> dict[str, Any]:
    """Snapshot of the active registry ({} when disabled)."""
    registry = _REGISTRY
    return {} if registry is None else registry.snapshot()


def iter_series(
    registry: MetricsRegistry, name: str
) -> Iterator[tuple[Key, Any]]:
    """All series of one family, scalars and histograms alike."""
    for key, value in registry.counters().items():
        if key[0] == name:
            yield key, value
    for key, value in registry.gauges().items():
        if key[0] == name:
            yield key, value
    for key, packed in registry.histograms().items():
        if key[0] == name:
            yield key, packed
