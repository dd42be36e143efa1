"""Property-based tests of the dynamic batching scheduler (seeded, no deps).

The :class:`~repro.engine.scheduler.DynamicBatcher` is plain plumbing, so it
is tested the way plumbing should be: random request streams (sizes, arrival
patterns, knob settings drawn from a seeded RNG) against the invariants that
must hold for *every* draw —

* FIFO: requests leave in submission order;
* conservation: nothing is dropped, nothing duplicated;
* bounds: every formed batch has ``1 <= size <= max_batch`` and one
  sample shape;
* drain: after ``close()`` the queue empties through final batches;
* atomic enqueue: one ``put_many`` call's rows are queued together or not
  at all, and sit contiguously in the queue.

The server-level counterparts (shard outputs equal to the single-runner
outputs under random schedules) live in ``test_server.py``.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine.scheduler import (DynamicBatcher, Request, SchedulerClosed,
                                    SchedulerStats)


def _request(seq):
    return Request(payload=np.array([float(seq)]), future=Future())


def _seqs(batch):
    """The sequence numbers ``_request`` put in each request's payload."""
    return [int(request.payload[0]) for request in batch]


def _requests(first, count):
    return [_request(seq) for seq in range(first, first + count)]


def _drain(batcher):
    """Consume until the batcher reports drained; return the batches."""
    batches = []
    while True:
        batch = batcher.next_batch()
        if batch is None:
            return batches
        batches.append(batch)


class TestValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=8, queue_size=4)
        with pytest.raises(TypeError, match="max_wait_ms"):
            DynamicBatcher(max_wait_ms=2.0)   # the removed batch hold

    def test_put_after_close_raises(self):
        """A closed batcher enqueues nothing, one row or many."""
        batcher = DynamicBatcher()
        batcher.close()
        with pytest.raises(SchedulerClosed):
            batcher.put_many([_request(0)])
        with pytest.raises(SchedulerClosed):
            batcher.put_many(_requests(1, 3))
        assert batcher.pending == 0
        assert batcher.stats_snapshot().requests == 0
        assert batcher.next_batch() is None


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_streams_preserve_invariants(self, seed):
        """Random (max_batch, queue_size, burst pattern) draws: FIFO,
        conservation, and the batch-size bound all hold."""
        rng = np.random.default_rng(seed)
        max_batch = int(rng.integers(1, 9))
        queue_size = int(max_batch * rng.integers(1, 5))
        n_requests = int(rng.integers(1, 60))
        batcher = DynamicBatcher(max_batch=max_batch, queue_size=queue_size)

        dispatched = []
        consumer = threading.Thread(
            target=lambda: dispatched.extend(_drain(batcher)), daemon=True)
        consumer.start()

        seq = 0
        while seq < n_requests:
            burst = int(rng.integers(1, max(2, queue_size)))
            for _ in range(min(burst, n_requests - seq)):
                batcher.put_many([_request(seq)], timeout=5.0)
                seq += 1
            if rng.random() < 0.3:
                time.sleep(float(rng.random()) * 1e-3)   # arrival jitter
        batcher.close()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()

        sizes = [len(batch) for batch in dispatched]
        assert all(1 <= size <= max_batch for size in sizes)
        order = [seq for batch in dispatched for seq in _seqs(batch)]
        assert order == list(range(n_requests))     # FIFO + conservation
        stats = batcher.stats
        assert stats.requests == n_requests
        assert stats.batched_samples == n_requests
        assert stats.batches == len(dispatched)
        assert stats.max_batch_seen == (max(sizes) if sizes else 0)
        assert stats.queue_high_water <= queue_size

    @pytest.mark.parametrize("seed", range(3))
    def test_concurrent_consumers_conserve_requests(self, seed):
        """With several consumers racing, every request is dispatched exactly
        once and each individual batch is still FIFO-contiguous."""
        rng = np.random.default_rng(100 + seed)
        max_batch = int(rng.integers(2, 6))
        n_requests = int(rng.integers(20, 80))
        batcher = DynamicBatcher(max_batch=max_batch, queue_size=max_batch * 4)
        collected = []
        lock = threading.Lock()

        def consume():
            for batch in iter(batcher.next_batch, None):
                with lock:
                    collected.append(_seqs(batch))

        consumers = [threading.Thread(target=consume, daemon=True)
                     for _ in range(3)]
        for consumer in consumers:
            consumer.start()
        for seq in range(n_requests):
            batcher.put_many([_request(seq)], timeout=5.0)
        batcher.close()
        for consumer in consumers:
            consumer.join(timeout=10.0)
            assert not consumer.is_alive()

        assert sorted(seq for batch in collected for seq in batch) == \
            list(range(n_requests))                  # exactly-once dispatch
        for batch in collected:
            assert len(batch) <= max_batch
            assert batch == list(range(batch[0], batch[0] + len(batch)))


class TestTriggers:
    def test_full_batch_leaves_without_waiting(self):
        batcher = DynamicBatcher(max_batch=4, queue_size=16)
        for seq in range(4):
            batcher.put_many([_request(seq)])
        start = time.monotonic()
        batch = batcher.next_batch()
        assert len(batch) == 4
        assert time.monotonic() - start < 1.0        # size trigger, not wait

    def test_default_consumer_takes_pending_work_at_once(self):
        """At default settings a waiting consumer returns the pending rows
        as one batch, with no deadline to sleep out."""
        batcher = DynamicBatcher()
        claimed = []
        consumer = threading.Thread(
            target=lambda: claimed.append(batcher.next_batch()), daemon=True)
        consumer.start()
        batcher.put_many(_requests(0, 5))
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert _seqs(claimed[0]) == [0, 1, 2, 3, 4]
        stats = batcher.stats_snapshot()
        assert stats.batches == 1
        assert stats.to_dict()["timeout_flushes"] == 0

    def test_batch_holds_one_sample_shape(self):
        """Rows of two shapes queued together leave in shape-homogeneous
        batches, still in FIFO order."""
        batcher = DynamicBatcher(max_batch=8, queue_size=16)
        shapes = [(2,), (2,), (3,), (3,), (3,), (2,)]
        batcher.put_many([Request(payload=np.full(shape, float(seq)),
                                  future=Future())
                          for seq, shape in enumerate(shapes)])
        batcher.close()
        assert [_seqs(batch) for batch in _drain(batcher)] \
            == [[0, 1], [2, 3, 4], [5]]

    def test_close_flushes_partial_batch(self):
        batcher = DynamicBatcher(max_batch=64, queue_size=128)
        batcher.put_many([_request(0)])
        batcher.close()
        batch = batcher.next_batch()
        assert _seqs(batch) == [0]
        assert batcher.next_batch() is None


class TestAtomicEnqueue:
    def test_full_queue_put_many_is_all_or_nothing(self):
        batcher = DynamicBatcher(max_batch=2, queue_size=4)
        batcher.put_many(_requests(0, 3))
        with pytest.raises(TimeoutError):
            batcher.put_many(_requests(3, 2), timeout=0.01)   # 1 slot free
        assert batcher.pending == 3
        assert batcher.stats_snapshot().requests == 3

    def test_more_rows_than_queue_size_raise_at_once(self):
        batcher = DynamicBatcher(max_batch=2, queue_size=4)
        with pytest.raises(ValueError, match="never fit"):
            batcher.put_many(_requests(0, 5))   # no timeout: must not block
        assert batcher.pending == 0
        assert batcher.stats_snapshot().requests == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_fifo_across_interleaved_put_many_callers(self, seed):
        """Several producers race ``put_many`` calls of random sizes: each
        call's rows leave contiguously and in order, each producer's calls
        keep their order, and every row leaves exactly once."""
        rng = np.random.default_rng(300 + seed)
        batcher = DynamicBatcher(max_batch=int(rng.integers(1, 6)),
                                 queue_size=16)
        calls = {producer: [int(size) for size in rng.integers(1, 9, 12)]
                 for producer in range(4)}
        dispatched = []
        consumer = threading.Thread(
            target=lambda: dispatched.extend(_drain(batcher)), daemon=True)
        consumer.start()

        def produce(producer):
            for call, size in enumerate(calls[producer]):
                batcher.put_many(
                    [Request(payload=np.array([producer, call, row],
                                              dtype=np.float64),
                             future=Future()) for row in range(size)],
                    timeout=10.0)

        producers = [threading.Thread(target=produce, args=(producer,))
                     for producer in calls]
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=10.0)
        batcher.close()
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()

        order = [tuple(int(key) for key in request.payload)
                 for batch in dispatched for request in batch]
        assert len(order) == sum(map(sum, calls.values()))
        position = 0
        seen = {producer: [] for producer in calls}
        while position < len(order):             # walk call by call
            producer, call, _ = order[position]
            size = calls[producer][call]
            assert order[position:position + size] == \
                [(producer, call, row) for row in range(size)]
            seen[producer].append(call)
            position += size
        assert seen == {producer: list(range(12)) for producer in calls}


class TestBackpressure:
    def test_put_times_out_when_full(self):
        batcher = DynamicBatcher(max_batch=2, queue_size=2)
        batcher.put_many([_request(0)])
        batcher.put_many([_request(1)])
        with pytest.raises(TimeoutError):
            batcher.put_many([_request(2)], timeout=0.05)
        assert batcher.pending == 2

    def test_put_unblocks_when_consumer_drains(self):
        batcher = DynamicBatcher(max_batch=2, queue_size=2)
        batcher.put_many([_request(0)])
        batcher.put_many([_request(1)])
        released = threading.Event()

        def slow_consumer():
            time.sleep(0.02)
            batcher.next_batch()
            released.set()

        threading.Thread(target=slow_consumer, daemon=True).start()
        batcher.put_many([_request(2)], timeout=5.0)  # blocks, then succeeds
        assert released.is_set()


def test_stats_to_dict_roundtrip():
    stats = SchedulerStats(requests=10, batches=4, batched_samples=10,
                           max_batch_seen=4, queue_high_water=6)
    payload = stats.to_dict()
    assert payload["mean_batch"] == 2.5
    assert payload["requests"] == 10
    assert SchedulerStats().to_dict()["mean_batch"] == 0.0
