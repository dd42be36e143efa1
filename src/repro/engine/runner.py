"""Batched inference runner for model-level engine artifacts.

A :class:`~repro.engine.model_plan.ModelPlan` executes one batch at a time;
serving traffic means feeding it a *stream* of samples at a batch size that
keeps the GEMMs fat.  Two layers of machinery live here:

* :class:`PlanExecutor` — the reusable execution core: it owns the
  per-executor :class:`RunnerStats` counters and exposes
  :meth:`PlanExecutor.execute_batch`, the single entry point every batch in
  the engine goes through.  The concurrent
  :class:`~repro.engine.server.PlanServer` builds one executor per shard, so
  shards never contend on stats;
* :class:`InferenceRunner` — single-stream micro-batching on top of one
  executor: samples from any iterable are stacked and executed
  ``batch_size`` at a time (the final partial batch runs at its natural
  size), with per-layer timing accumulated into
  :attr:`InferenceRunner.stats`.

The runner is throughput-oriented, not a scheduler: it preserves input
order and yields one output row per input sample.  Each batch runs
on every core the CPU policy (:mod:`repro.engine.cpu`) grants it: split into
contiguous row chunks, one per worker, executed at once and written back
into their result rows.  Request concurrency is left to
:class:`~repro.engine.server.PlanServer` (dynamic batching over sharded
executors; shards never split a batch).
``benchmarks/bench_runner_throughput.py`` pins the contract that
micro-batched execution beats a naive per-sample loop by >= 1.5x.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from . import cpu
from .hotpath import hot_path
from .model_plan import ModelPlan

__all__ = ["InferenceRunner", "PlanExecutor", "RunnerStats",
           "empty_batch_result"]


def empty_batch_result(plan, batch: np.ndarray) -> np.ndarray:
    """Typed empty output for a zero-length batch (shared predict() branch).

    Executes a ``(0, *sample_shape)`` array through the plan so the result
    carries the true output shape and dtype.  The sample axes must be
    present — a bare ``(0,)`` array has no geometry to infer them from and
    raises :class:`ValueError`.
    """
    if batch.ndim < 2:
        raise ValueError(
            "empty predict() input must keep its sample axes, e.g. "
            "shape (0, C, H, W); a bare (0,) array carries no "
            "geometry to infer the output shape from")
    empty = np.empty((0,) + batch.shape[1:], dtype=np.float64)
    return np.asarray(plan.execute(empty))


@dataclass
class RunnerStats:
    """Aggregated execution statistics of one executor (or a merged roll-up).

    ``seconds`` counts wall time spent inside plan execution (stacking and
    bookkeeping excluded); ``layer_seconds`` / ``layer_calls`` break it down
    per graph node name.  A batch split
    across worker threads adds every chunk's time to ``layer_seconds``
    (thread-seconds, so the per-layer sum may exceed ``seconds``) and counts
    one call per node, as an unsplit batch does.

    :attr:`arena_bytes` reads 0: executors hold no activation buffers
    between batches.  It leaves out the tile buffers each plan's
    :class:`~repro.engine.hotpath.ScratchTable` keeps between batches, one
    set per thread that ran the plan (docs/engine.md, section 7).
    """

    samples: int = 0
    batches: int = 0
    seconds: float = 0.0
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)

    @property
    def arena_bytes(self) -> int:
        """Activation-buffer bytes held between batches (always 0; per-thread
        tile scratch is not counted)."""
        return 0

    @property
    def throughput(self) -> float:
        """Samples per second of plan execution (0.0 before any run)."""
        return self.samples / self.seconds if self.seconds > 0 else 0.0

    def per_layer(self) -> List[Tuple[str, float, int]]:
        """``(name, seconds, calls)`` rows, slowest node first."""
        return sorted(((name, secs, self.layer_calls.get(name, 0))
                       for name, secs in self.layer_seconds.items()),
                      key=lambda row: row[1], reverse=True)

    def to_dict(self) -> dict:
        """JSON-serializable summary (used by the benchmark artifacts)."""
        return {
            "samples": self.samples,
            "batches": self.batches,
            "seconds": self.seconds,
            "throughput": self.throughput,
            "arena_bytes": self.arena_bytes,
            "per_layer": [{"name": name, "seconds": secs, "calls": calls}
                          for name, secs, calls in self.per_layer()],
        }

    def merge(self, other: "RunnerStats") -> "RunnerStats":
        """Accumulate ``other`` into this instance (and return it).

        Used by :meth:`~repro.engine.server.PlanServer.stats_report` to roll
        per-shard stats up into one server-level total.
        """
        self.samples += other.samples
        self.batches += other.batches
        self.seconds += other.seconds
        for name, secs in other.layer_seconds.items():
            self.layer_seconds[name] = self.layer_seconds.get(name, 0.0) + secs
        for name, calls in other.layer_calls.items():
            self.layer_calls[name] = self.layer_calls.get(name, 0) + calls
        return self

    def copy(self) -> "RunnerStats":
        """A field-by-field copy (take it under the owner's stats lock)."""
        return RunnerStats(samples=self.samples, batches=self.batches,
                           seconds=self.seconds,
                           layer_seconds=dict(self.layer_seconds),
                           layer_calls=dict(self.layer_calls))

    def reset(self) -> None:
        """Zero all counters (e.g. after warm-up runs)."""
        self.samples = 0
        self.batches = 0
        self.seconds = 0.0
        self.layer_seconds.clear()
        self.layer_calls.clear()


class PlanExecutor:
    """The reusable batch-execution core over one plan.

    Owns the mutable part of executing batches — the :class:`RunnerStats`
    accumulator — while the plan itself stays read-only shared data.  One
    plan can therefore back many executors concurrently (one per server
    shard) without any cross-executor contention.

    Parameters
    ----------
    plan:
        The model plan (or any object with a compatible
        ``execute(x, timings=...)`` method taking ``float64`` batches).
        Per-node wall-clock seconds always accumulate into :attr:`stats`.

    The stats accumulator is guarded by ``_stats_lock`` (declared below
    for the static analyzer).
    """

    _GUARDED_BY = {"stats": "_stats_lock"}

    def __init__(self, plan: ModelPlan):
        self.plan = plan
        self.stats = RunnerStats()
        self._stats_lock = threading.Lock()

    @hot_path
    def execute_batch(self, batch: np.ndarray, workers: int = 1) -> np.ndarray:
        """Run one ``(N, ...)`` batch through the plan, updating :attr:`stats`.

        ``workers > 1`` splits the batch into up to that many contiguous row
        chunks of at least two rows each, run at once on the CPU policy's
        thread pool plus the calling thread (:meth:`_execute_split`); every
        chunk's per-node timings merge into the batch's.

        Per-batch timings accumulate into a local dict first and merge into
        :attr:`stats` under a lock at the end, so a concurrent
        :meth:`stats_snapshot` (the server's stats report) never observes a
        half-updated batch.  The returned array belongs to the caller: a
        later batch never overwrites it.  Registered hot: every batch in the
        engine goes through here, so the body allocates nothing itself.
        """
        timings: Dict[str, float] = {}
        chunks = min(workers, batch.shape[0] // 2)
        start = time.perf_counter()
        if chunks > 1:
            out = self._execute_split(batch, chunks, timings)
        else:
            out = self.plan.execute(batch, timings=timings)
        elapsed = time.perf_counter() - start
        with self._stats_lock:
            self.stats.seconds += elapsed
            self.stats.batches += 1
            self.stats.samples += batch.shape[0]
            for name, secs in timings.items():
                self.stats.layer_seconds[name] = \
                    self.stats.layer_seconds.get(name, 0.0) + secs
                self.stats.layer_calls[name] = \
                    self.stats.layer_calls.get(name, 0) + 1
        return out

    def _execute_split(self, batch: np.ndarray, chunks: int,
                       timings: Dict[str, float]) -> np.ndarray:
        """Run ``chunks`` contiguous row ranges of ``batch`` at once.

        The first range runs on the calling thread, the others on
        :func:`~repro.engine.cpu.runner_pool`; each output lands in its rows
        of one fresh result array.  Every chunk finishes before this returns
        or raises, so no worker outlives the batch it reads.  Every layer
        with an input quantizer multiplies integer codes on an exact
        carrier, so there the result equals the unsplit batch's bit for
        bit.  Only a raw-input layer (a model's stem) runs a ``float64``
        GEMM of real values, which is only as row-stable as BLAS, whose
        kernels may sum a row in another order for another row count, so
        there a split can move the last bits of a row.
        """
        n = batch.shape[0]
        pool = cpu.runner_pool()
        parts = []
        for i in range(1, chunks):
            part_timings: Dict[str, float] = {}
            lo, hi = i * n // chunks, (i + 1) * n // chunks
            parts.append((lo, hi, part_timings,
                          pool.submit(self.plan.execute, batch[lo:hi],
                                      timings=part_timings)))
        try:
            head = self.plan.execute(batch[:n // chunks], timings=timings)
        finally:
            wait([future for _, _, _, future in parts])
        out = np.empty((n,) + head.shape[1:], dtype=head.dtype)
        out[:head.shape[0]] = head
        for lo, hi, part_timings, future in parts:
            out[lo:hi] = future.result()
            for name, secs in part_timings.items():
                timings[name] = timings.get(name, 0.0) + secs
        return out

    def stats_snapshot(self) -> RunnerStats:
        """A consistent copy of :attr:`stats`, safe to read while serving.
        Thread-safe: copies under the stats lock, so it never observes a
        half-applied batch update."""
        with self._stats_lock:
            return self.stats.copy()


class InferenceRunner:
    """Micro-batching executor over a :class:`~repro.engine.model_plan.ModelPlan`.

    Parameters
    ----------
    plan:
        The model plan (or any object with a compatible
        ``execute(x, timings=...)`` method).
    batch_size:
        Micro-batch size.  The route is the plan's own
        (``load_plan(path, mode=...)``).

    Every batch runs on :func:`repro.engine.cpu.runner_workers`
    threads, split into contiguous row chunks
    (:meth:`PlanExecutor.execute_batch`); outputs are bit-identical to an
    unsplit batch wherever every GEMM is exact (see
    :meth:`PlanExecutor._execute_split`).
    """

    def __init__(self, plan: ModelPlan, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.executor = PlanExecutor(plan)
        self.batch_size = int(batch_size)

    @property
    def plan(self):
        """The plan the runner serves (delegated to its executor)."""
        return self.executor.plan

    @property
    def stats(self) -> RunnerStats:
        """Execution statistics (delegated to the underlying executor)."""
        return self.executor.stats

    def _rows(self, samples: List[np.ndarray]) -> Iterator[np.ndarray]:
        """Copies of the output rows of ``samples`` stacked as one batch."""
        out = self.executor.execute_batch(np.stack(samples, dtype=np.float64),
                                          workers=cpu.runner_workers())
        for row in out:
            yield row.copy()

    # ------------------------------------------------------------------ #
    def run(self, stream: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Yield one output row per input sample, in order.

        ``stream`` yields single samples (no batch axis); every
        :attr:`batch_size` of them are stacked into one ``float64`` batch
        and executed (the rest once more, at natural size, when the stream
        ends).  Yielded rows are copies and stay valid indefinitely.  An
        empty stream yields nothing and leaves :attr:`stats` untouched.
        """
        pending: List[np.ndarray] = []
        for sample in stream:
            sample = np.asarray(sample)
            if pending and sample.shape != pending[0].shape:
                raise ValueError(
                    f"sample shape changed mid-batch: the batch holds "
                    f"{pending[0].shape}, got {sample.shape}; "
                    "streams must be shape-uniform")
            pending.append(sample)
            if len(pending) == self.batch_size:
                yield from self._rows(pending)
                pending = []
        if pending:
            yield from self._rows(pending)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Run an already-stacked ``(N, ...)`` array through micro-batching.

        Returns the stacked ``(N, ...)`` outputs.  Equivalent to
        ``np.stack(list(self.run(iter(batch))))``: each ``batch_size``
        slice goes to the executor as ``float64`` (a view when ``batch``
        already is); the output of a single slice is returned as is, and
        several write into one result.  An empty ``(0, *sample_shape)``
        batch returns an empty array of the plan's output shape and dtype
        (the sample axes must still be present so the plan knows its
        geometry — a bare ``(0,)`` array raises).
        """
        batch = np.asarray(batch)
        n = batch.shape[0]
        if n == 0:
            return empty_batch_result(self.plan, batch)
        outputs = None
        for start in range(0, n, self.batch_size):
            out = self.executor.execute_batch(
                np.asarray(batch[start:start + self.batch_size],
                           dtype=np.float64),
                workers=cpu.runner_workers())
            if outputs is None:
                if out.shape[0] == n:
                    return out
                outputs = np.empty((n,) + out.shape[1:], dtype=out.dtype)
            outputs[start:start + out.shape[0]] = out
        return outputs
