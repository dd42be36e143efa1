"""Dynamic batching scheduler for the concurrent plan server.

Serving traffic arrives one request at a time, but the engine is fastest on
fat batches (``benchmarks/bench_runner_throughput.py``).  The
:class:`DynamicBatcher` bridges the two: requests enqueue individually and
worker shards dequeue *batches*, formed by whichever of two triggers fires
first —

* the pending queue reaches ``max_batch`` (a full batch leaves immediately),
* the oldest pending request has waited ``max_wait_ms`` (a partial batch
  leaves rather than stalling the stream).

The queue is **bounded**: :meth:`DynamicBatcher.put` blocks (or times out)
when ``queue_size`` requests are already pending, which is the server's
backpressure mechanism — producers slow to the pace of the shards instead of
growing an unbounded backlog.  Requests leave in strict FIFO order, so batch
formation never reorders a stream; per-request ordering of *results* is the
futures' job (see :class:`~repro.engine.server.PlanServer`).

The batcher is plan-agnostic plumbing: it moves :class:`Request` objects and
never touches their payloads, which keeps it independently testable (see
``tests/engine/test_scheduler.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["Request", "RequestTiming", "SchedulerStats", "DynamicBatcher",
           "SchedulerClosed"]


class SchedulerClosed(RuntimeError):
    """Raised when submitting to a batcher that has been closed."""


@dataclass
class RequestTiming:
    """Where one request's latency went: queueing vs executing.

    Attached by the server to each request's future (as ``future.timing``)
    **before** the future resolves, so any reader that observed the result
    also observes a fully written timing — the network front end feeds these
    into its per-request latency histograms (queue-wait vs compute split).
    """

    queue_s: float = 0.0          # submit -> batch claimed by a shard
    compute_s: float = 0.0        # batch claimed -> batch results ready

    @property
    def total_s(self) -> float:
        """Queue wait plus compute time (the server-side request latency)."""
        return self.queue_s + self.compute_s


@dataclass
class Request:
    """One queued unit of work: a single sample and the future for its row."""

    seq: int                      # submission sequence number (FIFO key)
    payload: np.ndarray           # one sample, no batch axis
    future: Future                # resolves to this sample's output row
    arrival: float = field(default_factory=time.monotonic)
    dispatched: Optional[float] = None  # stamped when a batch claims it


@dataclass
class SchedulerStats:
    """Counters describing how the batcher shaped the request stream.

    The live instance hanging off a :class:`DynamicBatcher` is mutated
    under the batcher lock; every reader method below is therefore tagged
    ``:guarded-by: batcher._lock`` for the static analyzer.  A detached
    snapshot from :meth:`DynamicBatcher.stats_snapshot` has no concurrent
    mutators, which satisfies the contract trivially — that is the
    intended way to read these counters.
    """

    _GUARDED_BY = {"requests": "batcher._lock", "batches": "batcher._lock",
                   "batched_samples": "batcher._lock",
                   "max_batch_seen": "batcher._lock",
                   "timeout_flushes": "batcher._lock",
                   "queue_high_water": "batcher._lock"}

    requests: int = 0             # requests accepted into the queue
    batches: int = 0              # batches handed to workers
    batched_samples: int = 0      # sum of batch sizes (= requests dispatched)
    max_batch_seen: int = 0       # largest batch formed
    timeout_flushes: int = 0      # batches flushed by max_wait_ms, not size
    queue_high_water: int = 0     # deepest the pending queue ever got

    @property
    def mean_batch(self) -> float:
        """Average formed batch size (0.0 before any batch).

        :guarded-by: batcher._lock
        """
        return self.batched_samples / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary for the server stats report.

        :guarded-by: batcher._lock
        """
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "max_batch_seen": self.max_batch_seen,
            "timeout_flushes": self.timeout_flushes,
            "queue_high_water": self.queue_high_water,
        }

    def copy(self) -> "SchedulerStats":
        """A field-by-field copy of the counters.

        :guarded-by: batcher._lock

        Use :meth:`DynamicBatcher.stats_snapshot`, which takes the lock
        and calls this — copying the live instance without it can tear a
        multi-field update.
        """
        return SchedulerStats(requests=self.requests, batches=self.batches,
                              batched_samples=self.batched_samples,
                              max_batch_seen=self.max_batch_seen,
                              timeout_flushes=self.timeout_flushes,
                              queue_high_water=self.queue_high_water)


class DynamicBatcher:
    """Bounded FIFO request queue with size- and deadline-triggered batching.

    Parameters
    ----------
    max_batch:
        Upper bound on formed batch size; a full queue segment of this many
        requests is dispatched without waiting.
    max_wait_ms:
        Deadline for partial batches: once the oldest pending request has
        waited this long, whatever is queued (up to ``max_batch``) is
        dispatched.  ``0`` means "never hold a request" — every
        :meth:`next_batch` drains what is pending immediately.
    queue_size:
        Backpressure bound on pending (not yet dispatched) requests.

    Thread model: any number of producers call :meth:`put`; any number of
    consumers (the server's shard workers) call :meth:`next_batch`.  All
    state is guarded by one lock with two conditions (space / work), as
    declared below for the static analyzer.
    """

    _GUARDED_BY = {"_pending": "_lock", "stats": "_lock", "_closed": "_lock"}

    def __init__(self, max_batch: int = 16, max_wait_ms: float = 2.0,
                 queue_size: int = 256):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if queue_size < max_batch:
            raise ValueError("queue_size must be >= max_batch "
                             "(a full batch must fit in the queue)")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.queue_size = int(queue_size)
        self.stats = SchedulerStats()
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)   # producers wait here
        self._work = threading.Condition(self._lock)    # consumers wait here
        self._closed = False

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def put(self, request: Request, timeout: Optional[float] = None) -> None:
        """Enqueue one request, blocking while the queue is full.

        Raises :class:`SchedulerClosed` if the batcher is (or becomes)
        closed, and :class:`TimeoutError` if ``timeout`` seconds pass without
        space freeing up — the caller-visible face of backpressure.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise SchedulerClosed("batcher is closed")
                if len(self._pending) < self.queue_size:
                    break
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"queue full ({self.queue_size} pending) and no "
                            f"shard freed space within {timeout}s")
                self._space.wait(remaining)
            self._pending.append(request)
            self.stats.requests += 1
            self.stats.queue_high_water = max(self.stats.queue_high_water,
                                              len(self._pending))
            self._work.notify()

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def _pop_batch(self, timed_out: bool) -> List[Request]:
        """Claim up to ``max_batch`` pending requests as one batch.

        :guarded-by: _lock
        """
        batch = [self._pending.popleft()
                 for _ in range(min(self.max_batch, len(self._pending)))]
        now = time.monotonic()
        for request in batch:
            request.dispatched = now   # ends the queue-wait clock
        self.stats.batches += 1
        self.stats.batched_samples += len(batch)
        self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(batch))
        if timed_out and len(batch) < self.max_batch:
            self.stats.timeout_flushes += 1
        self._space.notify_all()
        if self._pending:
            self._work.notify()   # leftover work: wake another consumer now
        return batch

    def next_batch(self, stop: Optional[threading.Event] = None
                   ) -> Optional[List[Request]]:
        """Block until a batch is ready; ``None`` once closed and drained.

        A batch is ready when ``max_batch`` requests are pending, when the
        oldest pending request's ``max_wait_ms`` deadline has passed, or when
        the batcher is closed (remaining requests leave in final batches so
        close never drops work).

        ``stop`` makes the wait interruptible for one consumer: when the
        event is set, the call returns ``[]`` (no batch claimed) instead of
        blocking further — how a retiring shard worker leaves the pool
        without waiting for traffic.  Pair it with :meth:`kick`, which wakes
        every blocked consumer so the event is observed promptly.
        """
        with self._lock:
            while True:
                if stop is not None and stop.is_set():
                    return []
                if len(self._pending) >= self.max_batch:
                    return self._pop_batch(timed_out=False)
                if self._pending:
                    if self._closed:
                        return self._pop_batch(timed_out=False)
                    wait = (self._pending[0].arrival + self.max_wait
                            - time.monotonic())
                    if wait <= 0:
                        return self._pop_batch(timed_out=True)
                    self._work.wait(wait)
                else:
                    if self._closed:
                        return None
                    self._work.wait()

    def kick(self) -> None:
        """Wake every blocked consumer to re-check its ``stop`` event."""
        with self._lock:
            self._work.notify_all()

    # ------------------------------------------------------------------ #
    def stats_snapshot(self) -> SchedulerStats:
        """A mutually consistent copy of :attr:`stats`.

        Counters update together under the batcher lock (``batches`` and
        ``batched_samples`` move in one :meth:`_pop_batch`); reading them
        without the lock can observe a half-applied update — a torn
        ``/metrics`` report.  Snapshotting under the lock is the only read
        that preserves the invariants (``batched_samples <= requests``,
        ``mean_batch <= max_batch`` ...).
        """
        with self._lock:
            return self.stats.copy()

    @property
    def pending(self) -> int:
        """Number of requests queued but not yet dispatched.
        Thread-safe: reads under the batcher lock."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called.
        Thread-safe: reads under the batcher lock."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stop accepting requests; queued work still drains into batches.
        Thread-safe and idempotent: flips the flag and wakes every blocked
        producer and consumer under the batcher lock."""
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._space.notify_all()
