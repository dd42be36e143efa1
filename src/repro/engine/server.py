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
2. a pool of **shard workers** — N executors over the same read-only plan,
   each owning its private :class:`~repro.engine.runner.RunnerStats` so
   shards never contend.
   A thread-backed shard (default) is a
   :class:`~repro.engine.runner.PlanExecutor` run in-process; process-backed
   shards (``backend="process"``) fork one child per shard and stream
   batches over a pipe, stepping around the GIL entirely.

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

__all__ = ["PlanServer", "ServerClosed", "ShardDied"]


class ServerClosed(RuntimeError):
    """Raised when submitting to a :class:`PlanServer` that has been closed."""


class ShardDied(RuntimeError):
    """A worker shard became unusable mid-serving (e.g. its process was killed).

    Requests in the failing batch receive this exception; the dead shard
    leaves the pool and the remaining shards keep serving.  If the *last*
    shard dies, the server closes itself and fails all queued requests with
    this error rather than letting them hang.
    """


def clear_plan_cache() -> None:
    """Do nothing: kept callable for scripts written against the old plan
    cache.  Every mount and reload loads its artifact afresh, so there is
    no cache to clear."""


# --------------------------------------------------------------------------- #
# shards
# --------------------------------------------------------------------------- #
def _process_shard_main(conn, plan) -> None:
    """Child-process loop of a process-backed shard: recv batch, send rows."""
    executor = PlanExecutor(plan)
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            break
        if batch is None:
            break
        try:
            out = executor.execute_batch(batch)
            conn.send(("ok", np.asarray(out), executor.stats))
        except Exception as error:   # noqa: BLE001 — relayed to the parent
            conn.send(("err", f"{type(error).__name__}: {error}", None))
    conn.close()


class _ProcessShard:
    """A shard forked into its own process, fed batches over a pipe.

    The child inherits the plan via fork (no pickling of the arrays); each
    round-trip ships one batch in and one result out.  ``stats`` mirrors the
    child's executor stats as of the last completed batch, with the parent's
    pipe round-trip time substituted for ``seconds`` so the server-level
    report reflects what callers actually experienced — mirrored under
    ``_stats_lock``, as declared below.
    """

    _GUARDED_BY = {"stats": "_stats_lock"}

    def __init__(self, plan):
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(target=_process_shard_main,
                                 args=(child_conn, plan),
                                 daemon=True)
        self._proc.start()
        child_conn.close()
        self.stats = RunnerStats()
        self._stats_lock = threading.Lock()

    def stats_snapshot(self) -> RunnerStats:
        with self._stats_lock:
            return self.stats.copy()

    def execute_batch(self, batch: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        try:
            self._conn.send(batch)
            status, payload, child_stats = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            raise ShardDied(
                f"process shard (pid {self._proc.pid}) died mid-batch: "
                f"{type(error).__name__}: {error}") from error
        elapsed = time.perf_counter() - start
        if status != "ok":
            raise RuntimeError(f"process shard failed: {payload}")
        with self._stats_lock:
            self.stats.samples = child_stats.samples
            self.stats.batches = child_stats.batches
            self.stats.layer_seconds = child_stats.layer_seconds
            self.stats.layer_calls = child_stats.layer_calls
            self.stats.seconds += elapsed
        return payload

    def close(self) -> None:
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=5.0)
        self._conn.close()


class _ShardSlot:
    """One pool slot: a shard (a :class:`PlanExecutor` or a
    :class:`_ProcessShard`) and the worker thread feeding it."""

    def __init__(self, shard):
        self.shard = shard
        self.worker: Optional[threading.Thread] = None


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
    backend:
        ``"thread"`` (default) or ``"process"`` (fork-based; POSIX only).
    max_batch / max_wait_ms / queue_size:
        Dynamic batching knobs, passed to
        :class:`~repro.engine.scheduler.DynamicBatcher`: batches hold at
        most ``max_batch`` rows; ``max_wait_ms=0`` (default) lets an idle
        shard take pending work at once, a positive value holds a partial
        batch until its oldest row has waited that long; ``queue_size``
        bounds the backlog (backpressure) and one call's rows.

    Use as a context manager, or call :meth:`close` — close drains queued
    requests before the workers exit, so no accepted request is dropped.

    Thread model: the shard pool membership and the death counter live
    under ``_pool_lock``, submission sequencing under ``_seq_lock`` (declared
    below for the static analyzer); ``_closed`` is an advisory fast-fail
    flag read without a lock — the authoritative rejection of late submits
    is the batcher's own closed check, made under the batcher lock.
    """

    _GUARDED_BY = {"_seq": "_seq_lock",
                   "_slots": "_pool_lock",
                   "_drained_stats": "_pool_lock",
                   "_shards_died": "_pool_lock"}

    def __init__(self, plan, n_shards: int = 2, backend: str = "thread",
                 max_batch: int = 16, max_wait_ms: float = 0.0,
                 queue_size: int = 256):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}; "
                             "expected 'thread' or 'process'")
        self.plan = plan
        self.backend = backend
        self.batcher = DynamicBatcher(max_batch=max_batch,
                                      max_wait_ms=max_wait_ms,
                                      queue_size=queue_size)
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._closed = False
        self._pool_lock = threading.Lock()
        self._slots: List[_ShardSlot] = []
        self._drained_stats = RunnerStats()   # stats of dead shards
        self._shards_died = 0
        shard_cls = PlanExecutor if backend == "thread" else _ProcessShard
        for index in range(n_shards):
            slot = _ShardSlot(shard_cls(self.plan))
            slot.worker = threading.Thread(
                target=self._worker_loop, args=(slot,),
                name=f"plan-server-shard-{index}", daemon=True)
            self._slots.append(slot)
        for slot in self._slots:
            slot.worker.start()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self, slot: _ShardSlot) -> None:
        shard = slot.shard
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return                    # closed and drained; close() cleans up
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
            except ShardDied as error:
                completed = time.monotonic()
                for request in batch:
                    if not request.future.done():
                        self._stamp_timing(request, completed)
                        request.future.set_exception(error)
                self._leave_pool(slot, error)
                return
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

    def _leave_pool(self, slot: _ShardSlot, error: Exception) -> None:
        """Take a dead shard out of rotation; keep the rest serving.

        The dead shard stops pulling batches (it can no longer poison the
        shared queue); its final stats fold into the drained accumulator so
        server totals keep the work it did.  When the *last* shard dies the
        server closes itself and fails every queued request with
        :class:`ShardDied` instead of letting callers hang.
        """
        with self._pool_lock:
            self._slots.remove(slot)
            self._drained_stats.merge(slot.shard.stats_snapshot())
            self._shards_died += 1
            pool_empty = not self._slots
        if self.backend == "process":
            slot.shard.close()
        if not pool_empty:
            return
        self._closed = True
        self.batcher.close()
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            for request in batch:
                if request.future.set_running_or_notify_cancel():
                    request.future.set_exception(ShardDied(
                        f"all shards died; last error: {error}"))

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of live worker shards (dead process shards excluded).
        Thread-safe: counts under the pool lock."""
        with self._pool_lock:
            return len(self._slots)

    @property
    def _shards(self) -> List:
        """The live shard executors (test/diagnostic hook, order = spawn)."""
        with self._pool_lock:
            return [slot.shard for slot in self._slots]

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

        ``total`` merges every live shard's :class:`RunnerStats` plus the
        drained stats of shards that died, so totals keep the work a dead
        shard did; ``shards`` keeps the live per-shard breakdown (useful
        for spotting load imbalance); ``scheduler`` describes batch shaping
        and queue depth (snapshotted under the batcher lock — counters in
        the report are mutually consistent); ``pool`` counts dead shards;
        ``cpu`` is the CPU policy in effect in this process
        (:func:`repro.engine.cpu.policy`).
        """
        with self._pool_lock:
            shards = [slot.shard for slot in self._slots]
            total = RunnerStats().merge(self._drained_stats)
            pool = {"died": self._shards_died}
        snapshots = [shard.stats_snapshot() for shard in shards]
        for snapshot in snapshots:
            total.merge(snapshot)
        return {
            "backend": self.backend,
            "n_shards": self.n_shards,
            "pool": pool,
            "cpu": cpu.policy(),
            "scheduler": self.batcher.stats_snapshot().to_dict(),
            "shards": [snapshot.to_dict() for snapshot in snapshots],
            "total": total.to_dict(),
        }

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued requests, stop the workers, release the shards.

        By default this blocks until every accepted request has been served
        (the no-drop contract).  With ``timeout`` (seconds for the whole
        drain), a :class:`TimeoutError` is raised if workers are still
        draining when it expires — the server stays closed to new submits,
        in-flight work keeps running, and the shards are **not** torn down
        underneath it; call :meth:`close` again to finish the drain.
        """
        self._closed = True
        self.batcher.close()
        with self._pool_lock:
            slots = list(self._slots)
        deadline = None if timeout is None else time.monotonic() + timeout
        for slot in slots:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            slot.worker.join(timeout=remaining)
        still_draining = sum(slot.worker.is_alive() for slot in slots)
        if still_draining:
            raise TimeoutError(
                f"close({timeout=}) expired with {still_draining} worker(s) "
                "still draining; shards left running — call close() again "
                "to finish")
        if self.backend == "process":
            for slot in slots:
                slot.shard.close()

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
