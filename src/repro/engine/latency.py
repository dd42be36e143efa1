"""Mergeable log-bucketed latency histograms for serving SLO instrumentation.

Aggregate throughput (``RunnerStats.throughput``) says nothing about what a
*single* request experienced — a server can sustain high samples/second
while its slowest percentile quietly collapses.  The network front end
(:mod:`repro.engine.netserver`) therefore records every request into
:class:`LatencyHistogram` instances and exports p50/p95/p99 from them on
``/metrics``.

Design constraints, in order:

* **bounded memory** — serving "millions of users" cannot keep every sample;
  the histogram keeps one integer counter per geometric bucket (a few
  hundred ints for microseconds..minutes), independent of request count;
* **bounded relative error** — buckets grow by a fixed ``growth`` factor, so
  a percentile estimate (the geometric midpoint of the bucket holding the
  order statistic) is within ``sqrt(growth)`` of the true sample value,
  multiplicatively.  ``tests/engine/test_latency.py`` pins this against a
  ``numpy.percentile`` oracle on seeded random samples;
* **exact merging** — shards and endpoints record into private histograms
  and the metrics endpoint merges them; merging identically-configured
  histograms just adds counter arrays, so it is associative and
  order-independent (the property suite checks both).

Values are recorded in **seconds** (the unit every ``time.perf_counter``
delta already has); :meth:`LatencyHistogram.to_dict` reports milliseconds,
the unit SLOs are written in.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional, Sequence

from .hotpath import hot_path
from .locking import ordered

__all__ = ["LatencyHistogram"]

# Quantiles every report carries on /metrics.
REPORT_QUANTILES = (50.0, 95.0, 99.0)


class LatencyHistogram:
    """Fixed-memory latency accumulator with bounded-error percentiles.

    Parameters
    ----------
    min_value / max_value:
        The geometric bucket range, in seconds.  Samples below ``min_value``
        land in the first bucket, samples above ``max_value`` in the last —
        they are still counted (and tracked exactly by :attr:`min` /
        :attr:`max`), only their in-range resolution is lost.
    growth:
        Ratio between consecutive bucket boundaries.  Percentile estimates
        are exact up to a multiplicative factor of ``sqrt(growth)`` (2.5%
        at the default 1.05); smaller growth costs proportionally more
        buckets.

    Thread model: :meth:`record` and the readers take an internal lock, so
    one histogram may be shared by every handler thread of the HTTP server;
    :meth:`merge` holds *both* histograms' locks (acquired in canonical
    ``id()`` order via :func:`repro.engine.locking.ordered`), so concurrent
    cross-merges cannot deadlock.  The guarded state below is declared for
    the static analyzer (``tools/analyze``, lock-discipline pass).
    """

    _GUARDED_BY = {"_counts": "_lock", "count": "_lock", "total": "_lock",
                   "min": "_lock", "max": "_lock"}

    def __init__(self, min_value: float = 1e-6, max_value: float = 120.0,
                 growth: float = 1.05):
        if not (min_value > 0 and max_value > min_value):
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        n = int(math.ceil(math.log(max_value / min_value) / self._log_growth))
        self._counts = [0] * (n + 1)
        self.count = 0
        self.total = 0.0          # sum of recorded seconds (for the mean)
        self.min: Optional[float] = None   # exact extremes, not bucketed
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _bucket(self, value: float) -> int:
        """Bucket index for a value.

        :guarded-by: _lock
        """
        if value <= self.min_value:
            return 0
        index = int(math.log(value / self.min_value) / self._log_growth)
        return min(index, len(self._counts) - 1)

    @hot_path
    def record(self, seconds: float) -> None:
        """Count one latency sample (negative values clamp to zero).

        Thread-safe: counters update under the internal lock.
        """
        value = max(0.0, float(seconds))
        with self._lock:
            self._counts[self._bucket(value)] += 1
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def record_many(self, values: Iterable[float]) -> None:
        """Record every sample of an iterable (a convenience for
        tests/benchmarks).  Thread-safe; the lock is taken per sample, so
        concurrent readers interleave between samples."""
        for value in values:
            self.record(value)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """Arithmetic mean of the recorded samples (0.0 when empty).
        Thread-safe: reads under the internal lock."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def _representative(self, index: int) -> float:
        """Geometric midpoint of bucket ``index``, clamped to the exact
        extremes.

        :guarded-by: _lock
        """
        low = self.min_value * self.growth ** index
        value = low * math.sqrt(self.growth) if index else self.min_value
        if self.max is not None:
            value = min(value, self.max)
        if self.min is not None:
            value = max(value, self.min)
        return value

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile in seconds (0.0 when empty).

        Returns the geometric midpoint of the bucket containing the
        ``ceil(q/100 * count)``-th order statistic, clamped to the exact
        observed ``[min, max]`` — so the estimate is within a factor of
        ``sqrt(growth)`` of the true sample percentile, and ``q=0`` /
        ``q=100`` are exact.  Thread-safe: scans under the internal lock.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q={q} outside [0, 100]")
        with self._lock:
            if self.count == 0:
                return 0.0
            if q == 0.0:
                return self.min
            if q == 100.0:
                return self.max
            rank = max(1, int(math.ceil(q / 100.0 * self.count)))
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank:
                    return self._representative(index)
            return self.max   # unreachable: ranks are <= count

    def percentiles(self, qs: Sequence[float] = REPORT_QUANTILES) -> Dict[float, float]:
        """``{q: estimate_seconds}`` for a sequence of quantiles.
        Thread-safe; the lock is taken per quantile, so a concurrent
        ``record`` may land between two entries of one report."""
        return {float(q): self.percentile(q) for q in qs}

    # ------------------------------------------------------------------ #
    # merging / serialization
    # ------------------------------------------------------------------ #
    def _same_shape(self, other: "LatencyHistogram") -> bool:
        return (self.min_value == other.min_value
                and self.max_value == other.max_value
                and self.growth == other.growth)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Accumulate ``other`` into this histogram (and return ``self``).

        Both histograms must share a bucket configuration; merging then adds
        integer counter arrays, which makes it exactly associative and
        commutative on counts and percentiles (the float ``total`` is summed
        pairwise, so the mean is associative up to float rounding).

        Thread-safe and atomic: both locks are held for the update,
        acquired in canonical ``id()`` order, so two threads cross-merging
        the same pair (``a.merge(b)`` racing ``b.merge(a)``) cannot
        deadlock and never observe a half-applied merge.
        """
        if not self._same_shape(other):
            raise ValueError(
                "cannot merge histograms with different bucket configs: "
                f"({self.min_value}, {self.max_value}, {self.growth}) vs "
                f"({other.min_value}, {other.max_value}, {other.growth})")
        with ordered(self._lock, other._lock):
            for index, bucket_count in enumerate(other._counts):
                self._counts[index] += bucket_count
            self.count += other.count
            self.total += other.total
            if other.min is not None:
                self.min = other.min if self.min is None \
                    else min(self.min, other.min)
            if other.max is not None:
                self.max = other.max if self.max is None \
                    else max(self.max, other.max)
        return self

    def copy(self) -> "LatencyHistogram":
        """An independent snapshot with the same configuration and counts.
        Thread-safe: delegates to :meth:`merge`, which locks both sides."""
        snapshot = LatencyHistogram(self.min_value, self.max_value, self.growth)
        snapshot.merge(self)
        return snapshot

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark phases).
        Thread-safe: swaps the counters under the internal lock."""
        with self._lock:
            self._counts = [0] * len(self._counts)
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None

    def to_dict(self) -> dict:
        """JSON-serializable summary in **milliseconds** (SLO units).
        Thread-safe; quantiles and totals are read under the lock (in two
        acquisitions, so a concurrent ``record`` may fall between them)."""
        quantiles = self.percentiles()
        with self._lock:
            count, total = self.count, self.total
            low, high = self.min, self.max
        return {
            "count": count,
            "mean_ms": (total / count * 1e3) if count else 0.0,
            "min_ms": (low or 0.0) * 1e3,
            "max_ms": (high or 0.0) * 1e3,
            **{f"p{q:g}_ms": seconds * 1e3
               for q, seconds in quantiles.items()},
        }
