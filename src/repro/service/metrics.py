"""Lightweight, thread-safe service metrics.

Three instrument kinds cover the admission path: monotonically
increasing :class:`Counter`\\ s (arrivals, admissions, fallbacks),
:class:`Gauge`\\ s for instantaneous levels (queue depth), and
:class:`LatencyHistogram`\\ s with geometrically spaced buckets for
tail-latency quantiles.  A :class:`MetricsRegistry` names and owns the
instruments and exports one JSON-serialisable snapshot.

Everything here is safe under concurrent use from the service's worker
and caller threads; instruments take a per-instrument lock only around
small mutations, never around I/O.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """An instantaneous level that can move both ways (queue depth)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class LatencyHistogram:
    """Latency distribution over geometrically spaced buckets.

    Buckets span ``lowest`` to ``highest`` seconds with a constant
    ``growth`` ratio (defaults: 100µs to ~100s, ratio 2 → 21 buckets),
    plus an overflow bucket.  Quantiles interpolate geometrically inside
    the covering bucket, so a reported p99 is accurate to within one
    growth factor — plenty for benchmark reporting, at O(1) memory.
    """

    def __init__(
        self,
        name: str,
        lowest: float = 1e-4,
        highest: float = 100.0,
        growth: float = 2.0,
    ) -> None:
        if lowest <= 0 or highest <= lowest or growth <= 1.0:
            raise ValueError("need 0 < lowest < highest and growth > 1")
        self.name = name
        bounds: List[float] = []
        bound = lowest
        while bound < highest:
            bounds.append(bound)
            bound *= growth
        bounds.append(bound)
        self._bounds = bounds  # upper bound of each bucket, ascending
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self._bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self._bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        index = self._bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += seconds
            if self._min is None or seconds < self._min:
                self._min = seconds
            if self._max is None or seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if index >= len(self._bounds):
                        return self._max if self._max is not None else 0.0
                    upper = self._bounds[index]
                    lower = self._bounds[index - 1] if index else upper / 4.0
                    # Geometric interpolation of the rank inside the bucket.
                    fraction = (rank - (cumulative - bucket_count)) / bucket_count
                    fraction = min(max(fraction, 0.0), 1.0)
                    value = lower * math.exp(
                        fraction * math.log(upper / lower)
                    )
                    low_clip = self._min if self._min is not None else 0.0
                    high_clip = self._max if self._max is not None else value
                    return min(max(value, low_clip), high_clip)
            return self._max if self._max is not None else 0.0

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            count, total = self._count, self._sum
            low, high = self._min, self._max
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": low or 0.0,
            "max": high or 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments with a single JSON-serialisable snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str, **kwargs: float) -> LatencyHistogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = LatencyHistogram(name, **kwargs)
            return self._histograms[name]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.snapshot() for name, c in counters.items()},
            "gauges": {name: g.snapshot() for name, g in gauges.items()},
            "histograms": {
                name: h.snapshot() for name, h in histograms.items()
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
