"""Dynamic batching scheduler for the concurrent plan server.

Serving traffic arrives one request at a time, but the engine is fastest on
fat batches (``benchmarks/bench_runner_throughput.py``).  The
:class:`DynamicBatcher` bridges the two: producers enqueue each request's
rows as one unit and worker shards dequeue *batches* of up to
``max_batch`` rows.  The batcher is **work-conserving**: an idle shard
takes whatever is pending at once, and batches still form, up to
``max_batch``, from rows that arrive while every shard is busy.  It never
holds a partial batch back waiting for more rows (docs/engine.md §5 has
the measurement that removed such a hold).

Enqueueing is **request-atomic**: :meth:`DynamicBatcher.put_many` appends
all of a request's rows under one lock hold, so a consumer never wakes on a
request's first row and splits it off, and a request is either wholly
queued or not queued at all.  The queue is **bounded**: ``put_many`` blocks
(or times out) until all the rows fit under ``queue_size``, which is the
server's backpressure mechanism — producers slow to the pace of the shards
instead of growing an unbounded backlog.  Rows leave in strict FIFO order,
so batch formation never reorders a stream; per-row ordering of *results*
is the futures' job (see :class:`~repro.engine.server.PlanServer`).

The batcher is plan-agnostic plumbing: it moves :class:`Request` objects and
reads nothing of their payloads but the shape (a batch holds one sample
shape), which keeps it independently testable (see
``tests/engine/test_scheduler.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

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


@dataclass
class Request:
    """One queued unit of work: a single sample and the future for its row."""

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
                   "queue_high_water": "batcher._lock"}

    requests: int = 0             # requests accepted into the queue
    batches: int = 0              # batches handed to workers
    batched_samples: int = 0      # sum of batch sizes (= requests dispatched)
    max_batch_seen: int = 0       # largest batch formed
    queue_high_water: int = 0     # deepest the pending queue ever got

    @property
    def mean_batch(self) -> float:
        """Average formed batch size (0.0 before any batch).

        :guarded-by: batcher._lock
        """
        return self.batched_samples / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable summary for the server stats report.

        ``timeout_flushes`` is always 0: the batcher never holds a batch.
        It stays in the report only because the steady benchmark
        (``cimbench/http_server.py``) reads it; delete it at that
        benchmark's next change.

        :guarded-by: batcher._lock
        """
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "max_batch_seen": self.max_batch_seen,
            "timeout_flushes": 0,
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
                              queue_high_water=self.queue_high_water)


class DynamicBatcher:
    """Bounded, work-conserving FIFO request queue.

    Parameters
    ----------
    max_batch:
        Upper bound on formed batch size: every :meth:`next_batch` takes
        what is pending, up to this many requests, at once.
    queue_size:
        Backpressure bound on pending (not yet dispatched) requests.

    Thread model: any number of producers call :meth:`put_many`; any
    number of consumers (the server's shard workers) call
    :meth:`next_batch`.  All state is guarded by one lock with two
    conditions (space / work), as declared below for the static analyzer.
    """

    _GUARDED_BY = {"_pending": "_lock", "stats": "_lock", "_closed": "_lock"}

    def __init__(self, max_batch: int = 16, queue_size: int = 256):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_size < max_batch:
            raise ValueError("queue_size must be >= max_batch "
                             "(a full batch must fit in the queue)")
        self.max_batch = int(max_batch)
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
    def put_many(self, requests: Sequence[Request],
                 timeout: Optional[float] = None) -> None:
        """Enqueue a request's rows as one unit, blocking until all fit.

        Thread-safe: the rows are appended under one hold of the batcher
        lock and consumers are notified once, so they sit contiguously in
        the queue (FIFO with respect to every other caller) and no consumer
        can claim a prefix of them before the rest arrive.  All-or-nothing:
        either every row is queued or none is.

        Raises :class:`ValueError` at once if there are more rows than
        ``queue_size`` (they could never fit), :class:`SchedulerClosed` if
        the batcher is (or becomes) closed, and :class:`TimeoutError` if
        ``timeout`` seconds pass without room for all the rows — the
        caller-visible face of backpressure.
        """
        n = len(requests)
        if n > self.queue_size:
            raise ValueError(f"{n} rows can never fit a queue of "
                             f"{self.queue_size}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise SchedulerClosed("batcher is closed")
                if len(self._pending) + n <= self.queue_size:
                    break
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"queue full ({len(self._pending)}/"
                            f"{self.queue_size} pending, {n} rows offered) "
                            f"and no shard freed room within {timeout}s")
                self._space.wait(remaining)
            self._pending.extend(requests)
            self.stats.requests += n
            self.stats.queue_high_water = max(self.stats.queue_high_water,
                                              len(self._pending))
            self._work.notify()

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def _pop_batch(self) -> List[Request]:
        """Claim up to ``max_batch`` pending requests as one batch.

        A batch holds one sample shape: it ends before the first request
        whose payload shape differs from the oldest's, so requests of two
        valid shapes queued together never fail each other's stack.

        :guarded-by: _lock
        """
        limit = min(self.max_batch, len(self._pending))
        shape = self._pending[0].payload.shape
        size = 1
        while size < limit and self._pending[size].payload.shape == shape:
            size += 1
        batch = [self._pending.popleft() for _ in range(size)]
        now = time.monotonic()
        for request in batch:
            request.dispatched = now   # ends the queue-wait clock
        self.stats.batches += 1
        self.stats.batched_samples += len(batch)
        self.stats.max_batch_seen = max(self.stats.max_batch_seen, len(batch))
        self._space.notify_all()
        if self._pending:
            self._work.notify()   # leftover work: wake another consumer now
        return batch

    def next_batch(self) -> Optional[List[Request]]:
        """Block until anything is pending, then claim it as one batch.

        Returns ``None`` once the batcher is closed and drained; until
        then, requests queued before :meth:`close` still leave in batches,
        so close never drops work.
        """
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                self._work.wait()
            return self._pop_batch()

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
