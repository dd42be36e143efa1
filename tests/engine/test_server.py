"""Concurrent plan server: parity with the single-runner path, stats.

Two kinds of plans are used here:

* a *toy* plan (pure arithmetic, records batch sizes) for fast structural
  properties — ordering, backpressure, error propagation;
* a real TinyCNN :class:`~repro.engine.model_plan.ModelPlan` for the
  numerical contract: server outputs must be **bit-identical** to the
  single-:class:`~repro.engine.runner.InferenceRunner` outputs, for every
  random schedule the property tests draw.
"""

import threading
import time

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.engine import cpu
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad


class ToyPlan:
    """Minimal executor: ``2x + 1`` with recorded batch sizes and a delay knob."""

    def __init__(self, delay: float = 0.0):
        self.batch_sizes = []
        self.delay = delay

    def execute(self, x, timings=None):
        self.batch_sizes.append(int(np.asarray(x).shape[0]))
        if self.delay:
            time.sleep(self.delay)
        return np.asarray(x) * 2.0 + 1.0


class FailingPlan(ToyPlan):
    def execute(self, x, timings=None):
        raise RuntimeError("boom")


@pytest.fixture(scope="module")
def model_plan_and_data():
    rng = np.random.default_rng(5)
    model = TinyCNN(num_classes=4, width=6,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=3),
                    seed=2)
    x = np.abs(rng.normal(size=(24, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    return plan, x


class TestOrderingAndParity:
    def test_futures_resolve_in_request_order(self):
        """Per-request ordering survives multi-shard execution with jittered
        completion times: future i always carries the row for input i."""
        plan = ToyPlan(delay=0.002)
        samples = [np.array([float(i), -float(i)]) for i in range(40)]
        with engine.PlanServer(plan, n_shards=3, max_batch=4,
                               max_wait_ms=1.0) as server:
            futures = server.submit_many(samples)
            for i, future in enumerate(futures):
                np.testing.assert_array_equal(future.result(timeout=10.0),
                                              samples[i] * 2.0 + 1.0)
        assert all(size <= 4 for size in plan.batch_sizes)
        assert sum(plan.batch_sizes) == len(samples)     # nothing dropped

    def test_submit_many_within_max_batch_lands_in_one_batch(self):
        """An idle shard must not wake on a call's first row and split it:
        rows that fit ``max_batch`` leave as one batch even when the caller
        produces them slowly."""
        def slow_rows(count):
            for i in range(count):
                time.sleep(0.002)
                yield np.array([float(i)])

        plan = ToyPlan()
        with engine.PlanServer(plan, n_shards=2, max_batch=8,
                               max_wait_ms=0.0) as server:
            for count in range(1, 9):
                for future in server.submit_many(slow_rows(count)):
                    future.result(timeout=10.0)
            assert plan.batch_sizes == list(range(1, 9))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_schedules_match_single_runner(self, model_plan_and_data,
                                                  seed):
        """Property: for random shard counts, batching knobs and submission
        patterns, server outputs are bit-identical to a single runner."""
        plan, x = model_plan_and_data
        rng = np.random.default_rng(200 + seed)
        reference = engine.InferenceRunner(
            plan, batch_size=int(rng.integers(1, 9))).predict(x)
        server = engine.PlanServer(
            plan,
            n_shards=int(rng.integers(1, 4)),
            max_batch=int(rng.integers(1, 9)),
            max_wait_ms=float(rng.choice([0.0, 0.5, 2.0])))
        try:
            futures = []
            start = 0
            while start < x.shape[0]:                   # random-size bursts
                stop = start + int(rng.integers(1, 7))
                futures.extend(server.submit_many(x[start:stop]))
                start = stop
                if rng.random() < 0.5:
                    time.sleep(float(rng.random()) * 2e-3)
            out = np.stack([future.result(timeout=10.0) for future in futures])
        finally:
            server.close()
        np.testing.assert_array_equal(out, reference)

    def test_predict_empty_batch(self, model_plan_and_data):
        plan, x = model_plan_and_data
        with engine.PlanServer(plan, n_shards=1) as server:
            out = server.predict(x[:0])
        assert out.shape == (0, 4)
        assert out.dtype == np.float64


class TestLifecycleAndFailure:
    def test_close_drains_queued_requests(self):
        plan = ToyPlan(delay=0.005)
        server = engine.PlanServer(plan, n_shards=1, max_batch=2,
                                   max_wait_ms=50.0)
        futures = server.submit_many([np.array([float(i)]) for i in range(9)])
        server.close()
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(timeout=10.0),
                                          np.array([2.0 * i + 1.0]))

    def test_cancelled_future_does_not_poison_its_batch(self):
        """Regression: cancelling one queued request must not corrupt the
        results of the other requests batched with it."""
        plan = ToyPlan(delay=0.2)
        with engine.PlanServer(plan, n_shards=1, max_batch=4,
                               max_wait_ms=0.0) as server:
            blocker = server.submit(np.array([99.0]))
            while server.batcher.pending:               # until the shard is
                time.sleep(0.001)                       # busy with `blocker`
            futures = [server.submit(np.array([float(i)])) for i in range(3)]
            assert futures[1].cancel()                  # still queued: cancels
            blocker.result(timeout=10.0)
            for i in (0, 2):
                np.testing.assert_array_equal(futures[i].result(timeout=10.0),
                                              np.array([2.0 * i + 1.0]))
            assert futures[1].cancelled()

    def test_close_timeout_raises_and_second_close_finishes(self):
        """A bounded close that expires mid-drain reports it loudly, keeps
        the shards alive, and a follow-up close completes the drain."""
        plan = ToyPlan(delay=0.05)
        server = engine.PlanServer(plan, n_shards=1, max_batch=1,
                                   max_wait_ms=0.0)
        futures = server.submit_many([np.array([float(i)]) for i in range(6)])
        with pytest.raises(TimeoutError, match="still draining"):
            server.close(timeout=0.01)
        server.close()                                  # finish the drain
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(future.result(timeout=10.0),
                                          np.array([2.0 * i + 1.0]))

    def test_predict_empty_without_sample_axes_raises(self):
        with engine.PlanServer(ToyPlan(), n_shards=1) as server:
            with pytest.raises(ValueError, match="sample axes"):
                server.predict(np.empty((0,)))

    def test_submit_after_close_raises(self):
        server = engine.PlanServer(ToyPlan(), n_shards=1)
        server.close()
        with pytest.raises(engine.ServerClosed):
            server.submit(np.array([1.0]))
        server.close()                      # idempotent

    def test_backpressure_timeout_raises(self):
        plan = ToyPlan(delay=0.2)
        with engine.PlanServer(plan, n_shards=1, max_batch=1, max_wait_ms=0.0,
                               queue_size=1) as server:
            futures = [server.submit(np.array([1.0]))]
            with pytest.raises(TimeoutError):
                for i in range(20):         # the queue must jam well before 20
                    futures.append(server.submit(np.array([float(i)]),
                                                 timeout=0.01))
            for future in futures:          # jammed, but nothing was dropped
                future.result(timeout=10.0)

    def test_execution_error_propagates_to_futures(self):
        with engine.PlanServer(FailingPlan(), n_shards=1,
                               max_wait_ms=0.0) as server:
            future = server.submit(np.array([1.0]))
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            engine.PlanServer(ToyPlan(), n_shards=0)
        with pytest.raises(TypeError, match="backend"):
            engine.PlanServer(ToyPlan(), backend="process")   # removed
        with pytest.raises(TypeError, match="result_cache_entries"):
            engine.PlanServer(ToyPlan(), result_cache_entries=8)   # removed
        with pytest.raises(TypeError, match="mode"):
            engine.PlanServer(ToyPlan(), mode="int")   # the plan's own mode


class TestStatsReport:
    def test_rollup_sums_shards_and_scheduler(self, model_plan_and_data):
        plan, x = model_plan_and_data
        with engine.PlanServer(plan, n_shards=2, max_batch=4) as server:
            server.predict(x[:10])
            report = server.stats_report()
        assert report["n_shards"] == 2
        assert report["total"]["samples"] == 10
        assert sum(shard["samples"] for shard in report["shards"]) == 10
        assert report["scheduler"]["requests"] == 10
        assert report["scheduler"]["batches"] >= 3
        per_layer = report["total"]["per_layer"]
        assert per_layer and any("fc" in row["name"] for row in per_layer)

    def test_report_carries_the_cpu_policy(self):
        with engine.PlanServer(ToyPlan(), n_shards=1) as server:
            report = server.stats_report()
        assert set(report) == {"n_shards", "cpu", "scheduler", "shards",
                               "total"}
        assert report["cpu"] == cpu.policy()
        assert report["cpu"]["usable_cores"] >= 1
        assert report["cpu"]["runner_workers"] >= 1

    def test_runner_stats_merge(self):
        a = engine.RunnerStats(samples=4, batches=2, seconds=1.0,
                               layer_seconds={"conv": 0.5},
                               layer_calls={"conv": 2})
        b = engine.RunnerStats(samples=6, batches=3, seconds=2.0,
                               layer_seconds={"conv": 0.25, "fc": 0.75},
                               layer_calls={"conv": 3, "fc": 3})
        a.merge(b)
        assert a.samples == 10 and a.batches == 5 and a.seconds == 3.0
        assert a.layer_seconds == {"conv": 0.75, "fc": 0.75}
        assert a.layer_calls == {"conv": 5, "fc": 3}
