"""Typed metrics: counters, gauges, and fixed-bucket histograms.

Replaces the untyped ``stats`` defaultdicts that used to live on replicas
and clients.  A :class:`MetricsRegistry` is one deployment's metric
namespace; nodes carve out prefixed :class:`StatsView` windows into it and
count with ``node.stats.inc("requests_executed")`` (the old
``stats[key] += 1`` idiom still works) while every number lands in one
place, typed, and exportable.

All values are plain Python ints/floats; observation is O(1) and
allocation-free on the hot path (histograms pre-allocate their bucket
array at registration).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import MutableMapping
from typing import Iterator, Optional, Sequence

from repro.common.errors import ConfigError

# Default latency buckets: 10us .. 10s, roughly 1-2-5 per decade.  Values
# are nanoseconds, like every duration in this library.
DEFAULT_LATENCY_BUCKETS_NS: tuple[int, ...] = tuple(
    int(base * 10**exp)
    for exp in range(4, 10)
    for base in (1, 2, 5)
) + (10**10,)


def nearest_rank_percentile(sorted_values: Sequence, p: float):
    """Nearest-rank percentile over pre-sorted values.

    The smallest value with at least ``ceil(p * n)`` values <= it — the
    definition :class:`repro.harness.measure.Measurement` has used since
    the PR-2 bias fix.  Every harness percentile routes through here so
    independent reimplementations cannot drift again.  ``sorted_values``
    must already be in ascending order; an empty sequence reports 0.
    """
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"percentile {p} outside (0, 1]")
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[min(len(sorted_values) - 1, rank - 1)]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, clock, utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def add(self, delta) -> None:
        self.value += delta

    def update_max(self, value) -> None:
        """Track a high-water mark: keep the largest value ever seen."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bounds of each bucket; one overflow
    bucket is appended automatically.  Percentiles are estimated as the
    upper bound of the bucket containing the requested rank — coarse but
    monotone, allocation-free, and good enough to rank configurations.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS_NS) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(f"histogram {name!r} bounds must be sorted and unique")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.sum = 0
        self.count = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket holding the p-th quantile (nearest rank)."""
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"percentile {p} outside (0, 1]")
        if self.count == 0:
            return 0
        rank = math.ceil(p * self.count)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else 0
        return self.max if self.max is not None else 0

    def __repr__(self) -> str:
        return f"Histogram({self.name} count={self.count} mean={self.mean:.0f})"


class MetricsRegistry:
    """One deployment's metric namespace: create-or-get typed instruments."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ConfigError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS_NS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def view(self, prefix: str) -> "StatsView":
        return StatsView(self, prefix)

    def metrics(self) -> list[object]:
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, object]:
        """All current values, JSON-friendly, keyed by metric name."""
        out: dict[str, object] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
            else:
                out[name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "mean": metric.mean,
                    "min": metric.min,
                    "max": metric.max,
                    "buckets": dict(zip(metric.bounds, metric.counts)),
                    "overflow": metric.counts[-1],
                }
        return out


class StatsView(MutableMapping):
    """A ``defaultdict(int)``-compatible window onto prefixed counters.

    ``view["x"]`` reads 0 when absent (without registering anything), and
    ``view.inc("x")`` — or ``view["x"] += 1`` — registers/updates the
    counter ``<prefix>x``, so a node's counters live in the shared
    registry behind the dict idiom callers already know.
    """

    __slots__ = ("_registry", "_prefix", "_memo")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix
        # Memo: bare key -> Counter object.  Counting is all over the
        # protocol's per-message path; resolving the prefixed name through
        # the registry costs two dict operations and a type check per
        # access, the memo costs one.  Counter objects are stable once
        # registered (the registry only ever creates them), so a memoized
        # hit reads/writes the same object the registry holds.
        self._memo: dict[str, Counter] = {}

    def inc(self, key: str, n: int = 1) -> None:
        """``view[key] += n`` in one call: a memo hit and an add.  The
        counter registers on first use, exactly as ``+=`` would."""
        counter = self._memo.get(key)
        if counter is None:
            counter = self._memo[key] = self._registry.counter(self._prefix + key)
        counter.value += n

    def __getitem__(self, key: str) -> int:
        counter = self._memo.get(key)
        if counter is not None:
            return counter.value
        metric = self._registry._metrics.get(self._prefix + key)
        if isinstance(metric, Counter):
            self._memo[key] = metric
            return metric.value
        return 0

    def __setitem__(self, key: str, value: int) -> None:
        counter = self._memo.get(key)
        if counter is None:
            counter = self._memo[key] = self._registry.counter(self._prefix + key)
        counter.value = value

    def __delitem__(self, key: str) -> None:
        self._memo.pop(key, None)
        del self._registry._metrics[self._prefix + key]

    def _keys(self) -> list[str]:
        plen = len(self._prefix)
        return [
            name[plen:]
            for name, metric in self._registry._metrics.items()
            if isinstance(metric, Counter) and name.startswith(self._prefix)
        ]

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys())

    def __len__(self) -> int:
        return len(self._keys())

    def __contains__(self, key) -> bool:
        return isinstance(
            self._registry._metrics.get(self._prefix + str(key)), Counter
        )

    def __repr__(self) -> str:
        return f"StatsView({self._prefix!r}: {dict(self)})"
