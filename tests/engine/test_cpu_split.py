"""CPU policy, data-parallel runner batches and the int route's sample tiles.

The runner splits each flushed batch into row chunks run at once on the
policy's thread pool; both routes run every conv layer tile by tile.
Both change only *where* rows are computed.  Every GEMM on activation
codes is exact, so that leaves the values alone and these tests demand
byte-equal outputs.  Worker counts and tile sizes are forced by
monkeypatching the policy function and the tile bound.
"""

import importlib
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.core import CIMConv2d
from repro.engine import cpu
from repro.nn import Tensor
from repro.nn.tensor import no_grad

from test_int_oracle import (bench_shaped_plan, oracle_layer,
                             random_residual_plan)

plan_module = importlib.import_module("repro.engine.plan")


def force_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(cpu, "runner_workers", lambda: workers)


@pytest.fixture(scope="module")
def int_plan():
    plan, _ = random_residual_plan(3)
    plan.set_mode("int")
    x = np.abs(np.random.default_rng(5).normal(size=(33, 3, 8, 8))) * 2
    return plan, x


@pytest.fixture(scope="module", params=["int", "fused-float"])
def split_plan(request, int_plan):
    """The int route, and the float route of a fused (no partial-sum
    quantization) model, on the same 33-row input."""
    if request.param == "int":
        return int_plan
    plan, _ = random_residual_plan(3, quantize_psum=False)
    return plan, int_plan[1]


# --------------------------------------------------------------------------- #
# the policy
# --------------------------------------------------------------------------- #
class TestPolicy:
    def test_workers_are_cores_over_blas_threads(self, monkeypatch):
        monkeypatch.setattr(cpu, "_usable_cores", lambda: 8)
        for threads, workers in ((1, 8), (2, 4), (3, 2), (8, 1), (16, 1)):
            monkeypatch.setattr(cpu, "blas_threads", lambda t=threads: t)
            assert cpu.runner_workers() == workers

    def test_unreadable_blas_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(cpu, "_usable_cores", lambda: 8)
        monkeypatch.setattr(cpu, "blas_threads", lambda: None)
        assert cpu.runner_workers() == 1

    def test_blas_thread_count_round_trips(self):
        before = cpu.blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread getter in this NumPy build")
        try:
            assert cpu.set_blas_threads(1)
            assert cpu.blas_threads() == 1
        finally:
            cpu.set_blas_threads(before)
        assert cpu.blas_threads() == before
        with pytest.raises(ValueError):
            cpu.set_blas_threads(0)

    def test_pool_is_created_once_per_process(self):
        assert cpu.runner_pool() is cpu.runner_pool()


# --------------------------------------------------------------------------- #
# split runner batches
# --------------------------------------------------------------------------- #
class TestSplitRunner:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 3, 31, 32, 33])
    def test_split_is_byte_equal(self, monkeypatch, split_plan, workers,
                                 batch):
        plan, x = split_plan
        want = engine.PlanExecutor(plan).execute_batch(x[:batch])
        # a row's values do not depend on the batch it arrives in
        for i in range(batch):
            alone = engine.PlanExecutor(plan).execute_batch(x[i:i + 1])
            assert alone.tobytes() == want[i:i + 1].tobytes(), i
        force_workers(monkeypatch, workers)
        got = engine.InferenceRunner(plan, batch_size=32).predict(x[:batch])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        streamed = np.stack(list(engine.InferenceRunner(
            plan, batch_size=32).run(iter(x[:batch]))))
        assert streamed.tobytes() == want.tobytes()

    def test_zero_row_batch(self, monkeypatch, int_plan):
        plan, x = int_plan
        force_workers(monkeypatch, 2)
        out = engine.InferenceRunner(plan).predict(x[:0])
        assert out.shape == (0, 5) and out.dtype == np.float64
        executor = engine.PlanExecutor(plan)
        assert executor.execute_batch(x[:0], workers=2).shape == (0, 5)

    def test_small_batches_run_unsplit(self):
        # fewer than two rows per worker: fewer chunks, or none at all
        plan = RecordingPlan()
        executor = engine.PlanExecutor(plan)
        for rows, chunks in ((1, 1), (3, 1), (4, 2), (5, 2), (6, 3), (9, 3)):
            plan.calls.clear()
            executor.execute_batch(row_ids(rows), workers=3)
            assert sorted(plan.calls) == sorted(
                (i * rows // chunks, (i + 1) * rows // chunks)
                for i in range(chunks))

    def test_chunks_run_on_two_threads(self, monkeypatch):
        plan = RecordingPlan(delay=0.05)
        force_workers(monkeypatch, 2)
        runner = engine.InferenceRunner(plan, batch_size=8)
        out = runner.predict(row_ids(8))
        np.testing.assert_array_equal(out, row_ids(8) * 2)
        assert len(set(plan.threads)) == 2

    def test_worker_error_reaches_the_caller(self):
        plan = RecordingPlan(fail_from=4)
        executor = engine.PlanExecutor(plan)
        with pytest.raises(RuntimeError, match="chunk failed"):
            executor.execute_batch(row_ids(8), workers=2)
        assert executor.stats.batches == 0

    def test_stats_count_thread_seconds_and_one_call(self, monkeypatch):
        # every chunk reports rows * 1 ms for its one node: the merged
        # layer_seconds hold every row's thread-seconds, layer_calls one
        # call per batch, and seconds the batch's wall time
        plan = RecordingPlan(delay=0.05)
        force_workers(monkeypatch, 2)
        runner = engine.InferenceRunner(plan, batch_size=8)
        runner.predict(row_ids(16))
        stats = runner.stats
        assert stats.samples == 16 and stats.batches == 2
        assert stats.layer_calls == {"node": 2}
        assert stats.layer_seconds["node"] == pytest.approx(0.016)
        # two 50 ms chunks at once per batch: wall time well under 4 x 50 ms
        assert 0.1 <= stats.seconds < 0.19

    def test_fork_after_split_serves(self, monkeypatch, int_plan):
        # a forked child must not inherit the parent's pool: its threads do
        # not exist there, so queued chunks would wait forever
        plan, x = int_plan
        force_workers(monkeypatch, 2)
        want = plan.execute(x[:8])
        runner = engine.InferenceRunner(plan, batch_size=8)
        assert runner.predict(x[:8]).tobytes() == want.tobytes()
        assert cpu._pool is not None
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        child = ctx.Process(target=_split_in_child,
                            args=(child_conn, runner, x[:8]), daemon=True)
        child.start()
        try:
            assert parent_conn.poll(60), "split batch hung in a forked child"
            assert parent_conn.recv() == want.tobytes()
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.terminate()


def _split_in_child(conn, runner, x) -> None:
    conn.send(runner.predict(x).tobytes())
    conn.close()


def row_ids(n: int) -> np.ndarray:
    """An ``(n, 2)`` batch whose row ``i`` holds ``i``."""
    return np.repeat(np.arange(float(n)), 2).reshape(n, 2)


class RecordingPlan:
    """Stub plan: doubles its input, records each call's row range (read
    off :func:`row_ids` values) and thread, and reports ``rows`` ms for one
    node in ``timings``."""

    def __init__(self, delay: float = 0.0, fail_from: int = -1):
        self.delay = delay
        self.fail_from = fail_from
        self.calls = []
        self.threads = []
        self._lock = threading.Lock()

    def execute(self, x, timings=None):
        start = int(x[0, 0])
        with self._lock:
            self.calls.append((start, start + x.shape[0]))
            self.threads.append(threading.get_ident())
        if self.delay:
            time.sleep(self.delay)
        if 0 <= self.fail_from <= start:
            raise RuntimeError("chunk failed")
        if timings is not None:
            timings["node"] = timings.get("node", 0.0) + 1e-3 * x.shape[0]
        return x * 2


# --------------------------------------------------------------------------- #
# sample tiles of the int conv kernel
# --------------------------------------------------------------------------- #
def conv_plan(kernel: int, stride: int, padding: int, seed: int,
              quantize_input: bool = True, quantize_psum: bool = True):
    cfg = CIMConfig(array_rows=16, array_cols=32, cell_bits=1, adc_bits=3)
    layer = CIMConv2d(3, 5, kernel, stride=stride, padding=padding,
                      bias=True, scheme=QuantScheme(
                          weight_bits=3, act_bits=3, psum_bits=3,
                          weight_granularity="column",
                          psum_granularity="column",
                          quantize_psum=quantize_psum),
                      cim_config=cfg, rng=np.random.default_rng(seed),
                      quantize_input=quantize_input)
    rng = np.random.default_rng(seed + 1)
    with no_grad():
        layer.eval()
        layer(Tensor(np.abs(rng.normal(size=(4, 3, 9, 9)))))
    plan = engine.compile_conv_plan(layer)
    return plan, np.abs(rng.normal(size=(5, 3, 9, 9)))


GEOMETRIES = {"3x3-s2-p1": (3, 2, 1), "1x1-s2": (1, 2, 0)}


def tile_bound(plan, samples: int, fold, itemsize: int) -> int:
    """The ``_TILE_BYTES`` value that makes tiles of ``samples`` samples
    (9 px inputs) on the route of ``fold`` (``None``: the float route)."""
    length = plan_module.F.conv_output_size(9, plan.kernel_size[0],
                                            plan.stride[0],
                                            plan.padding[0]) ** 2
    return samples * length * plan._column_bytes(fold, itemsize)


class TestConvTiles:
    @pytest.fixture(params=sorted(GEOMETRIES))
    def plan_x(self, request):
        return conv_plan(*GEOMETRIES[request.param], seed=4)

    @staticmethod
    def int_bound(plan, samples: int, fold=None) -> int:
        fold = plan.dequant_fold(False) if fold is None else fold
        return tile_bound(plan, samples, fold,
                          np.dtype(plan.requant.gemm_dtype).itemsize)

    @pytest.mark.parametrize("samples", [1, 2, 3, 5])
    @pytest.mark.parametrize("batch", [0, 1, 3, 5])
    def test_dequant_fold(self, monkeypatch, plan_x, samples, batch):
        plan, x = plan_x
        monkeypatch.setattr(plan_module, "_TILE_BYTES",
                            self.int_bound(plan, samples))
        got = plan.execute(x[:batch], plan.dequant_fold(False))
        want = oracle_layer(plan, x[:batch])
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("samples", [1, 2, 5])
    def test_requant_fold(self, monkeypatch, plan_x, samples):
        plan, x = plan_x
        rng = np.random.default_rng(9)
        fold = plan.int_fold(True, rng.uniform(-2, 2, plan.out_channels),
                             rng.uniform(-1, 1, plan.out_channels), 0, 7,
                             plan.requant.gemm_dtype)
        codes = rng.integers(0, int(plan.act_qmax), size=x.shape,
                             endpoint=True).astype(plan.requant.gemm_dtype)
        monkeypatch.setattr(plan_module, "_TILE_BYTES",
                            self.int_bound(plan, samples, fold))
        got = plan.execute(codes, fold=fold)
        want = oracle_layer(plan, codes, fold)
        assert got.dtype == fold.out_dtype
        np.testing.assert_array_equal(got, want.astype(fold.out_dtype))

    def test_default_tile_matches_one_sample_tiles(self, monkeypatch,
                                                   plan_x):
        plan, x = plan_x
        fold = plan.dequant_fold(False)
        whole = plan.execute(x, fold)
        monkeypatch.setattr(plan_module, "_TILE_BYTES", 1)
        assert plan.execute(x, fold).tobytes() == whole.tobytes()


class TestFloatTiles:
    """The float route runs the same tile loop.  With partial-sum
    quantization on or off, code and raw (stem) inputs give byte-identical
    rows whatever the tile here; the stem's ``float64`` GEMM of real values
    holds that only as far as this BLAS does."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("raw", [False, True], ids=["codes", "raw"])
    @pytest.mark.parametrize("quantize_psum", [True, False],
                             ids=["adc", "fused"])
    def test_tiles_are_byte_identical(self, monkeypatch, geometry, raw,
                                      quantize_psum):
        plan, x = conv_plan(*GEOMETRIES[geometry], seed=4,
                            quantize_input=not raw,
                            quantize_psum=quantize_psum)
        assert plan.carrier == (np.float64 if raw else np.float32)
        itemsize = plan.carrier.itemsize
        assert plan_module._TILE_BYTES >= tile_bound(plan, len(x), None,
                                                     itemsize)
        whole = plan.execute(x)                 # the default: one tile
        for samples in (1, 2, 3, 5):
            monkeypatch.setattr(plan_module, "_TILE_BYTES",
                                tile_bound(plan, samples, None, itemsize))
            assert plan.execute(x).tobytes() == whole.tobytes(), samples

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_uncertified_carrier_runs_float64(self, geometry):
        # a layer whose operand range the float32 carrier cannot hold
        # exactly multiplies its codes in float64, with the same result
        plan, x = conv_plan(*GEOMETRIES[geometry], seed=4)
        want = plan.execute(x)
        plan.requant.gemm_dtype = "float64"
        plan._build_derived()
        assert plan.carrier == np.float64
        assert plan.mats[0].dtype == np.float64
        assert plan.execute(x).tobytes() == want.tobytes()


class TestTileFootprint:
    # docs/engine.md section 7 states these per-thread figures; a bigger
    # tile budget must restate them rather than spend memory silently
    LIMIT_MIB = {"int": 2.25, "float": 2.7}

    @pytest.mark.parametrize("mode", sorted(LIMIT_MIB))
    def test_scratch_bytes_per_thread(self, mode):
        plan, _ = bench_shaped_plan()            # cimbench's 16 px ResNet-8
        plan.set_mode(mode)
        x = np.abs(np.random.default_rng(1).normal(size=(16, 3, 16, 16)))
        plan.execute(x)
        tables = {id(lp._scratch): lp._scratch for lp in plan.layer_plans}
        assert len(tables) == 1
        table, = tables.values()
        used = sum(buf.nbytes for buf in table.buffers.values())
        assert 0 < used <= self.LIMIT_MIB[mode] * 2 ** 20, used / 2 ** 20
