"""Concurrent plan server: dynamic batching over a pool of sharded executors.

:class:`~repro.engine.runner.InferenceRunner` serves one stream from one
caller; :class:`PlanServer` serves *many* callers.  Requests enter through
:meth:`PlanServer.submit` / :meth:`PlanServer.submit_many` and flow through
two layers:

1. the :class:`~repro.engine.scheduler.DynamicBatcher` — a bounded FIFO
   queue that takes each call's rows as one unit and hands them to shards
   in batches of up to ``max_batch`` (an idle shard takes pending work at
   once; a positive ``max_wait_ms`` holds partial batches instead) and
   applies backpressure when producers outrun the shards;
2. a fixed pool of **shards** — N
   :class:`~repro.engine.runner.PlanExecutor` instances over the same
   read-only plan, each fed by its own worker thread and owning its
   private :class:`~repro.engine.runner.RunnerStats`, so shards never
   contend.  A batch that raises fails exactly its own requests; the
   shard keeps serving.

Every request gets a :class:`concurrent.futures.Future` resolving to its own
output row, so per-request ordering is trivially preserved no matter how
batches are formed or which shard finishes first.  The server takes a
plan object and serves it in whatever mode that plan is in; turning an
artifact path into a plan is the caller's job
(:func:`~repro.engine.model_plan.load_plan`, or
:class:`~repro.engine.netserver.ModelEndpoint` for a mounted model).

Numerics: shards execute the same plan arrays as a single runner.  Every
layer with an input quantizer multiplies integer codes on an exact carrier,
on either route, so its row results do not depend on batch composition and
the server is bit-identical to the single-runner path —
``benchmarks/bench_server_concurrency.py`` pins that, plus the >= 1.3x
aggregate-throughput contract of dynamic batching over per-request
serving.  Only a raw-input layer (a model's stem) runs a ``float64`` GEMM
of real values, which is only as row-stable as BLAS, so there a row's last
bits can move with the batch it rode in (a raw-input ``LinearPlan`` at one
row runs as gemv).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Iterable, List, Optional

import numpy as np

from . import cpu
from .runner import PlanExecutor, RunnerStats, empty_batch_result
from .scheduler import DynamicBatcher, Request, RequestTiming, SchedulerClosed

__all__ = ["PlanServer", "ServerClosed"]


class ServerClosed(RuntimeError):
    """Raised when submitting to a :class:`PlanServer` that has been closed."""


def clear_plan_cache() -> None:
    """Do nothing: kept callable for scripts written against the old plan
    cache.  Every mount and reload loads its artifact afresh, so there is
    no cache to clear."""


# --------------------------------------------------------------------------- #
# the server
# --------------------------------------------------------------------------- #
class PlanServer:
    """Concurrent request-facing front end over a frozen model plan.

    Parameters
    ----------
    plan:
        A :class:`~repro.engine.model_plan.ModelPlan` (or any executor
        whose ``execute`` takes ``float64`` batches), served in whatever
        mode it is in: every shard runs the route the plan's own
        ``mode`` picks, as :class:`~repro.engine.runner.InferenceRunner`
        does.
    n_shards:
        Number of worker executors, fixed for the server's life (a rolling
        reload builds a new server to change it).  Shards share the
        read-only plan but own private stats.
    max_batch / max_wait_ms / queue_size:
        Dynamic batching knobs, passed to
        :class:`~repro.engine.scheduler.DynamicBatcher`: batches hold at
        most ``max_batch`` rows; ``max_wait_ms=0`` (default) lets an idle
        shard take pending work at once, a positive value holds a partial
        batch until its oldest row has waited that long; ``queue_size``
        bounds the backlog (backpressure) and one call's rows.

    Use as a context manager, or call :meth:`close` — close drains queued
    requests before the workers exit, so no accepted request is dropped.

    Thread model: the shard list is fixed at construction and never
    mutated, so it is read without a lock; submission sequencing lives
    under ``_seq_lock`` (declared below for the static analyzer);
    ``_closed`` is an advisory fast-fail flag read without a lock — the
    authoritative rejection of late submits is the batcher's own closed
    check, made under the batcher lock.
    """

    _GUARDED_BY = {"_seq": "_seq_lock"}

    def __init__(self, plan, n_shards: int = 2, max_batch: int = 16,
                 max_wait_ms: float = 0.0, queue_size: int = 256):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.plan = plan
        self.batcher = DynamicBatcher(max_batch=max_batch,
                                      max_wait_ms=max_wait_ms,
                                      queue_size=queue_size)
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._closed = False
        self._shards = [PlanExecutor(plan) for _ in range(n_shards)]
        self._workers = [
            threading.Thread(target=self._worker_loop, args=(shard,),
                             name=f"plan-server-shard-{index}", daemon=True)
            for index, shard in enumerate(self._shards)]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self, shard: PlanExecutor) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return                    # closed and drained
            # claim each future; drop requests the client cancelled while
            # they sat in the queue (a cancelled future rejects set_result)
            batch = [request for request in batch
                     if request.future.set_running_or_notify_cancel()]
            if not batch:
                continue
            try:
                stacked = np.stack([request.payload for request in batch])
                out = shard.execute_batch(stacked)
                completed = time.monotonic()
                for row, request in zip(out, batch):
                    self._stamp_timing(request, completed)
                    request.future.set_result(np.array(row, copy=True))
            except Exception as error:   # noqa: BLE001 — fail the whole batch
                completed = time.monotonic()
                for request in batch:
                    if not request.future.done():
                        self._stamp_timing(request, completed)
                        request.future.set_exception(error)

    @staticmethod
    def _stamp_timing(request: Request, completed: float) -> None:
        """Attach the queue/compute split to the future, pre-resolution.

        Written before ``set_result``/``set_exception``, so any caller that
        observed the outcome also observes the timing (the future's internal
        condition provides the ordering).  The network front end reads it
        as ``future.timing`` for its latency histograms.
        """
        dispatched = request.dispatched
        if dispatched is None:   # defensive: batch never went through _pop_batch
            dispatched = completed
        request.future.timing = RequestTiming(
            queue_s=max(0.0, dispatched - request.arrival),
            compute_s=max(0.0, completed - dispatched))

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of worker shards, fixed at construction (thread-safe:
        the shard list is never mutated)."""
        return len(self._shards)

    def submit(self, sample: np.ndarray,
               timeout: Optional[float] = None) -> Future:
        """Queue one sample; the future resolves to its output row.

        :meth:`submit_many` of one sample (thread-safe, same errors).
        """
        return self.submit_many([sample], timeout=timeout)[0]

    def submit_many(self, samples: Iterable[np.ndarray],
                    timeout: Optional[float] = None) -> List[Future]:
        """Queue all samples as one unit; futures come back in input order.

        Thread-safe.  Each sample is cast to ``float64`` and copied, so
        the caller's arrays can be reused immediately.  The rows enter the
        batcher in one :meth:`~repro.engine.scheduler.DynamicBatcher.put_many`
        call: contiguous, never split by a shard waking on the first row
        (a call of up to ``max_batch`` rows lands in one batch), and
        all-or-nothing — on an error nothing was queued, so the caller
        never leaks accepted-but-unreadable work.

        Blocks until all rows fit in the bounded queue (``timeout`` seconds
        at most — :class:`TimeoutError` after that); raises
        :class:`ValueError` for more rows than ``queue_size`` and
        :class:`ServerClosed` on a closed server.
        """
        if self._closed:
            raise ServerClosed("server is closed")
        payloads = [np.array(sample, dtype=np.float64, copy=True)
                    for sample in samples]
        with self._seq_lock:
            first = self._seq
            self._seq += len(payloads)
        requests = [Request(seq=first + i, payload=payload, future=Future())
                    for i, payload in enumerate(payloads)]
        try:
            self.batcher.put_many(requests, timeout=timeout)
        except SchedulerClosed as error:
            raise ServerClosed("server is closed") from error
        return [request.future for request in requests]

    @staticmethod
    def _abandon(futures: List[Future]) -> int:
        """Withdraw queued futures whose results nobody will read.

        Returns how many were cancelled.  Still-queued futures cancel
        outright (the worker loop drops cancelled requests before
        batching).  Futures a shard already claimed cannot be cancelled; a
        done-callback marks their eventual outcome observed so no enqueued
        work resolves reader-less.  Never blocks.
        """
        cancelled = 0
        for future in futures:
            if future.cancel():
                cancelled += 1
            else:
                future.add_done_callback(lambda f: f.exception())
        return cancelled

    def predict(self, batch: np.ndarray,
                timeout: Optional[float] = None) -> np.ndarray:
        """Batch-in / batch-out convenience: submit rows, gather, stack.

        Thread-safe: any number of callers may predict concurrently; each
        call's rows enter the shared queue as one unit
        (:meth:`submit_many`), so at most ``queue_size`` rows per call.
        Row ``i`` of the result is the output for row ``i`` of ``batch`` —
        the futures preserve per-request order no matter how the scheduler
        batched them or which shard ran them.

        ``timeout`` is **one shared deadline** for the whole call — queue
        admission and result gathering together.  On expiry while
        gathering, the not-yet-claimed remainder is withdrawn and
        :class:`TimeoutError` propagates.
        """
        batch = np.asarray(batch)
        if batch.shape[0] == 0:
            return empty_batch_result(self.plan, batch)
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        futures = self.submit_many(batch, timeout=remaining())
        try:
            return np.stack([future.result(timeout=remaining())
                             for future in futures])
        except BaseException:
            self._abandon(futures)
            raise

    # ------------------------------------------------------------------ #
    # stats / lifecycle
    # ------------------------------------------------------------------ #
    def stats_report(self) -> dict:
        """Roll the per-shard stats and scheduler counters into one report.

        ``total`` merges every shard's :class:`RunnerStats`; ``shards``
        keeps the per-shard breakdown (useful for spotting load imbalance);
        ``scheduler`` describes batch shaping and queue depth (snapshotted
        under the batcher lock — counters in the report are mutually
        consistent); ``cpu`` is the CPU policy in effect in this process
        (:func:`repro.engine.cpu.policy`).
        """
        snapshots = [shard.stats_snapshot() for shard in self._shards]
        total = RunnerStats()
        for snapshot in snapshots:
            total.merge(snapshot)
        return {
            "n_shards": self.n_shards,
            "cpu": cpu.policy(),
            "scheduler": self.batcher.stats_snapshot().to_dict(),
            "shards": [snapshot.to_dict() for snapshot in snapshots],
            "total": total.to_dict(),
        }

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued requests, then stop the workers.

        By default this blocks until every accepted request has been served
        (the no-drop contract).  With ``timeout`` (seconds for the whole
        drain), a :class:`TimeoutError` is raised if workers are still
        draining when it expires — the server stays closed to new submits
        and in-flight work keeps running; call :meth:`close` again to
        finish the drain.
        """
        self._closed = True
        self.batcher.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            worker.join(timeout=remaining)
        still_draining = sum(worker.is_alive() for worker in self._workers)
        if still_draining:
            raise TimeoutError(
                f"close({timeout=}) expired with {still_draining} worker(s) "
                "still draining; call close() again to finish")

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
