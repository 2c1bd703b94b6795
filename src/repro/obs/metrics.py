"""A tagged metrics registry with a zero-overhead disabled default.

The telemetry layer must never perturb the quantities it observes: the
reproduction's claims (delivery, stretch, bit counts) are validated by the
very code paths being instrumented.  The design therefore follows the
classic null-object pattern:

* :func:`metrics` returns the live :class:`MetricsRegistry` when telemetry
  is enabled and the module-level :data:`NULL_REGISTRY` otherwise;
* the null registry hands out shared no-op :class:`NullCounter` /
  :class:`NullGauge` / :class:`NullHistogram` singletons, so instrumented
  code pays one attribute read and one no-op call when telemetry is off —
  no allocation, no dict growth, no branching at the call sites;
* hot loops may additionally guard on :func:`enabled` to skip even that.

Telemetry is switched on with :func:`enable` (programmatic) or by setting
``REPRO_TELEMETRY=1`` in the environment before ``repro.obs`` is first
imported.  It is the one observability switch: the same flag gates the
phase spans of :mod:`repro.obs.tracing` and the run-event stream of
:mod:`repro.obs.events`.

Metrics are identified by a name plus optional string tags, e.g.
``metrics().counter("protocol.messages", protocol="path-vector")``; the
same (name, tags) pair always returns the same metric object.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, Optional, Tuple

_TRUE_VALUES = ("1", "true", "yes", "on")

#: Environment variable that enables telemetry at import time.
ENV_VAR = "REPRO_TELEMETRY"


def env_enabled(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether *environ* (default ``os.environ``) asks for telemetry."""
    environ = os.environ if environ is None else environ
    return str(environ.get(ENV_VAR, "")).strip().lower() in _TRUE_VALUES


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.tags = tags
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter's total into this one (addition)."""
        self.value += other.value

    def snapshot(self):
        return self.value


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "tags", "value")

    def __init__(self, name: str, tags: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.tags = tags
        self.value = None

    def set(self, value) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        """Last-write-wins: the merged-in gauge overwrites, unless unset."""
        if other.value is not None:
            self.value = other.value

    def snapshot(self):
        return self.value


def _bucket(value) -> object:
    """Histogram bucket key: exact for ints, power-of-two bound for floats.

    Floats (latencies) are binned by their next power of two so the bucket
    table stays small regardless of how many observations arrive; integer
    observations (hop counts, message counts) keep exact buckets.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if value <= 0.0:
        return 0.0
    return 2.0 ** math.ceil(math.log2(value))


class Histogram:
    """Summary statistics plus a bucketed distribution of observations."""

    __slots__ = ("name", "tags", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str, tags: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.tags = tags
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.buckets: Dict[object, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        key = _bucket(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in: counts and buckets add, min/max combine."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for key, count in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + count

    @property
    def avg(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "avg": self.avg,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items(),
                                                     key=lambda kv: str(kv[0]))},
        }


class NullCounter(Counter):
    """Shared do-nothing counter handed out while telemetry is off."""

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - intentional no-op
        pass

    def merge(self, other: "Counter") -> None:
        pass


class NullGauge(Gauge):
    def set(self, value) -> None:
        pass

    def merge(self, other: "Gauge") -> None:
        pass


class NullHistogram(Histogram):
    def observe(self, value) -> None:
        pass

    def merge(self, other: "Histogram") -> None:
        pass


#: kind tag -> metric class, for :meth:`MetricsRegistry.merge`.
_KIND_FACTORIES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """The tagged metric store; one per process is plenty.

    Registries are picklable (the lock is dropped and recreated) and
    mergeable, so per-shard worker registries can be shipped back to the
    parent process and folded into its registry with :meth:`merge`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, str, Tuple], object] = {}

    def __getstate__(self):
        return {"metrics": self._metrics}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._metrics = state["metrics"]

    def _get(self, kind: str, factory, name: str, tags: Dict[str, str]):
        key = (kind, name, tuple(sorted(tags.items())))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(key, factory(name, key[2]))
        return metric

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s metrics into this registry.

        Counters add, gauges take the merged-in value (last write wins),
        histograms add counts and buckets and combine min/max.  Merging is
        associative, so per-shard registries can be folded in any grouping
        and yield the same totals.
        """
        for (kind, name, tags), metric in sorted(
            other._metrics.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            mine = self._get(kind, _KIND_FACTORIES[kind], name, dict(tags))
            mine.merge(metric)

    def counter(self, name: str, **tags: str) -> Counter:
        return self._get("counter", Counter, name, tags)

    def gauge(self, name: str, **tags: str) -> Gauge:
        return self._get("gauge", Gauge, name, tags)

    def histogram(self, name: str, **tags: str) -> Histogram:
        return self._get("histogram", Histogram, name, tags)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    @staticmethod
    def qualified_name(name: str, tags: Tuple[Tuple[str, str], ...]) -> str:
        if not tags:
            return name
        inner = ",".join(f"{k}={v}" for k, v in tags)
        return f"{name}{{{inner}}}"

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict, JSON-ready view: kind -> qualified name -> value."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for (kind, name, tags), metric in sorted(
            self._metrics.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
        ):
            out[kind + "s"][self.qualified_name(name, tags)] = metric.snapshot()
        return out


class NullRegistry(MetricsRegistry):
    """Registry facade returning shared no-op metrics; never stores anything."""

    def __init__(self):
        super().__init__()
        self._counter = NullCounter("null")
        self._gauge = NullGauge("null")
        self._histogram = NullHistogram("null")

    def counter(self, name: str, **tags: str) -> Counter:
        return self._counter

    def gauge(self, name: str, **tags: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str, **tags: str) -> Histogram:
        return self._histogram

    def merge(self, other: MetricsRegistry) -> None:
        pass


#: The module-level no-op singleton (the telemetry-off fast path).
NULL_REGISTRY = NullRegistry()

_REGISTRY = MetricsRegistry()
_ENABLED = False


def enable() -> None:
    """Switch telemetry (metrics, spans and run events) on process-wide."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Switch telemetry off; recorded metrics are kept until :func:`reset`."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def metrics() -> MetricsRegistry:
    """The active registry: live when enabled, the no-op singleton otherwise."""
    return _REGISTRY if _ENABLED else NULL_REGISTRY


def registry() -> MetricsRegistry:
    """The live registry regardless of the enabled flag (for export/tests)."""
    return _REGISTRY


def reset() -> None:
    """Drop all recorded metrics (the enabled flag is left untouched)."""
    _REGISTRY.reset()


def swap_registry() -> MetricsRegistry:
    """Detach and return the live registry, installing a fresh empty one.

    Used by parallel-evaluation workers to hand a shard's metrics to the
    parent exactly once: the detached registry stays intact for pickling
    while subsequent instrumentation lands in the replacement.
    """
    global _REGISTRY
    detached = _REGISTRY
    _REGISTRY = MetricsRegistry()
    return detached


if env_enabled():  # pragma: no cover - exercised via subprocess in the CLI
    enable()
