"""Property tests for the latency histogram.

The histogram's contract is *bounded relative error*: a percentile estimate
is the geometric midpoint of the bucket holding the nearest-rank order
statistic, so it must lie within a multiplicative ``sqrt(GROWTH)`` of the
true sample percentile.  The nearest-rank statistic itself always lies
between ``numpy.percentile(..., method="lower")`` and ``method="higher"``,
which gives the oracle band checked here on seeded random samples.  Merging
is plain counter addition, so it must be exactly associative and
commutative — checked structurally (bucket counts) and behaviorally
(percentiles).
"""

import math
import threading

import numpy as np
import pytest

from repro.engine.latency import GROWTH, MAX_SECONDS, LatencyHistogram


def _filled(samples):
    histogram = LatencyHistogram()
    for sample in samples:
        histogram.record(sample)
    return histogram


# --------------------------------------------------------------------------- #
# percentile estimates vs the numpy oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("distribution", ["lognormal", "uniform", "bimodal"])
def test_percentiles_within_growth_band_of_numpy(seed, distribution):
    rng = np.random.default_rng(seed)
    if distribution == "lognormal":
        samples = rng.lognormal(mean=-4.0, sigma=1.2, size=700)
    elif distribution == "uniform":
        samples = rng.uniform(1e-4, 0.5, size=700)
    else:   # bimodal: fast cache hits + slow compute, the serving shape
        samples = np.concatenate([rng.normal(2e-3, 2e-4, size=350),
                                  rng.normal(8e-2, 5e-3, size=350)])
    samples = np.abs(samples)
    histogram = _filled(samples)
    slack = math.sqrt(GROWTH)
    for q in (1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        estimate = histogram.percentile(q)
        low = float(np.percentile(samples, q, method="lower"))
        high = float(np.percentile(samples, q, method="higher"))
        assert low / slack * (1 - 1e-9) <= estimate <= high * slack * (1 + 1e-9), \
            f"q={q}: {estimate} outside [{low}, {high}] x sqrt(GROWTH)"


@pytest.mark.parametrize("seed", range(3))
def test_nearest_rank_oracle_tight(seed):
    """Against the exact nearest-rank statistic the estimate is sqrt(GROWTH)-tight."""
    rng = np.random.default_rng(100 + seed)
    samples = np.sort(np.abs(rng.lognormal(-5.0, 1.5, size=513)))
    histogram = _filled(samples)
    slack = math.sqrt(GROWTH)
    for q in (5.0, 50.0, 95.0, 99.0):
        rank = max(1, math.ceil(q / 100.0 * samples.size))
        oracle = samples[rank - 1]
        estimate = histogram.percentile(q)
        assert oracle / slack * (1 - 1e-9) <= estimate \
            <= oracle * slack * (1 + 1e-9)


def test_extremes_are_exact():
    rng = np.random.default_rng(7)
    samples = np.abs(rng.normal(0.01, 0.005, size=100))
    histogram = _filled(samples)
    assert histogram.percentile(0.0) == samples.min()
    assert histogram.percentile(100.0) == samples.max()
    assert histogram.min == samples.min()
    assert histogram.max == samples.max()


def test_single_sample_every_percentile_exact():
    histogram = _filled([0.0321])
    for q in (0.0, 1.0, 50.0, 99.0, 100.0):
        assert histogram.percentile(q) == pytest.approx(0.0321, rel=0, abs=0)


def test_out_of_range_values_still_counted_and_clamped():
    histogram = LatencyHistogram()
    above = 2 * MAX_SECONDS
    histogram.record(1e-9)     # below MIN_SECONDS -> first bucket
    histogram.record(above)    # above MAX_SECONDS -> last bucket
    assert histogram.count == 2
    assert histogram.max == above                 # exact despite bucketing
    assert histogram.percentile(100.0) == above
    assert histogram.percentile(1.0) <= histogram.percentile(99.0) <= above


def test_negative_record_clamps_to_zero():
    histogram = LatencyHistogram()
    histogram.record(-0.5)
    assert histogram.min == 0.0
    assert histogram.percentile(50.0) >= 0.0


def test_bad_quantile_raises():
    histogram = _filled([0.1])
    with pytest.raises(ValueError):
        histogram.percentile(-1.0)
    with pytest.raises(ValueError):
        histogram.percentile(100.5)


# --------------------------------------------------------------------------- #
# empty-window behavior
# --------------------------------------------------------------------------- #
def test_empty_window():
    histogram = LatencyHistogram()
    assert histogram.count == 0
    assert histogram.mean == 0.0
    for q in (0.0, 50.0, 99.0, 100.0):
        assert histogram.percentile(q) == 0.0
    report = histogram.to_dict()
    assert report["count"] == 0
    assert report["p50_ms"] == 0.0 and report["p99_ms"] == 0.0
    assert report["min_ms"] == 0.0 and report["max_ms"] == 0.0


def test_reset_returns_to_empty():
    histogram = _filled([0.1, 0.2, 0.3])
    histogram.reset()
    assert histogram.count == 0
    assert histogram.percentile(50.0) == 0.0
    assert histogram.min is None and histogram.max is None


# --------------------------------------------------------------------------- #
# merge algebra
# --------------------------------------------------------------------------- #
def _three_windows():
    rng = np.random.default_rng(11)
    return [np.abs(rng.lognormal(-4.5, 1.0, size=size))
            for size in (97, 211, 53)]


def test_merge_associative_and_commutative():
    window_a, window_b, window_c = _three_windows()
    a, b, c = (_filled(window) for window in (window_a, window_b, window_c))

    left = a.copy().merge(b).merge(c)                 # (a + b) + c
    right = a.copy().merge(b.copy().merge(c))         # a + (b + c)
    swapped = c.copy().merge(b).merge(a)              # order-independent

    for merged in (right, swapped):
        assert merged._counts == left._counts
        assert merged.count == left.count
        assert merged.min == left.min and merged.max == left.max
        for q in (1.0, 50.0, 95.0, 99.0, 100.0):
            assert merged.percentile(q) == left.percentile(q)
        assert merged.mean == pytest.approx(left.mean, rel=1e-12)


def test_merge_equals_recording_concatenation():
    window_a, window_b, window_c = _three_windows()
    merged = (_filled(window_a).merge(_filled(window_b))
              .merge(_filled(window_c)))
    direct = _filled(np.concatenate([window_a, window_b, window_c]))
    assert merged._counts == direct._counts
    assert merged.count == direct.count
    for q in (0.0, 50.0, 99.0, 100.0):
        assert merged.percentile(q) == direct.percentile(q)


def test_merge_empty_windows_is_identity():
    window = np.abs(np.random.default_rng(3).normal(0.01, 0.002, 40))
    histogram = _filled(window)
    before = (list(histogram._counts), histogram.count,
              histogram.min, histogram.max)
    histogram.merge(LatencyHistogram())               # right identity
    empty = LatencyHistogram()
    empty.merge(histogram)                            # left identity
    assert (list(histogram._counts), histogram.count,
            histogram.min, histogram.max) == before
    assert empty._counts == histogram._counts
    assert empty.percentile(50.0) == histogram.percentile(50.0)


# --------------------------------------------------------------------------- #
# report plumbing
# --------------------------------------------------------------------------- #
def test_to_dict_reports_milliseconds():
    histogram = _filled([0.010] * 10)     # 10 samples of exactly 10ms
    report = histogram.to_dict()
    assert report["count"] == 10
    assert report["mean_ms"] == pytest.approx(10.0)
    assert report["min_ms"] == pytest.approx(10.0)
    assert report["max_ms"] == pytest.approx(10.0)
    # single-valued window: clamping makes every percentile exact
    assert report["p50_ms"] == pytest.approx(10.0)
    assert report["p99_ms"] == pytest.approx(10.0)
    assert set(report) == {"count", "mean_ms", "min_ms", "max_ms",
                           "p50_ms", "p95_ms", "p99_ms"}


# --------------------------------------------------------------------------- #
# concurrent cross-merge: ordered() two-lock acquisition must not deadlock
# --------------------------------------------------------------------------- #
def test_concurrent_cross_merge_does_not_deadlock():
    """Two threads cross-merging peer histograms must both finish.

    Before merge() took both peer locks through ordered(), this exact
    interleaving could deadlock: one thread holds a's lock waiting on
    b's while the other holds b's waiting on a's.  With id()-ordered
    acquisition both threads always take the same histogram's lock
    first, so the race is benign and both loops terminate.
    """
    a = _filled([0.010])
    b = _filled([0.020])
    rounds = 40          # counts grow Fibonacci-fast; stay far below int64
    barrier = threading.Barrier(2)

    def cross(dst, src):
        barrier.wait()
        for _ in range(rounds):
            dst.merge(src)

    threads = [threading.Thread(target=cross, args=(a, b), daemon=True),
               threading.Thread(target=cross, args=(b, a), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "cross-merge deadlocked"
    # merging only ever adds counts: both histograms grew past their seed
    # sample and their bucket totals stayed internally consistent
    for histogram in (a, b):
        report = histogram.to_dict()
        assert report["count"] == histogram.count
        assert histogram.count > 1
    assert a.percentile(50.0) > 0.0 and b.percentile(50.0) > 0.0
