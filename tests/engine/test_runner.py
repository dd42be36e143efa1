"""Batched inference runner: micro-batching semantics, buffers, timing stats."""

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.models import TinyCNN
from repro.nn import Tensor
from repro.nn.tensor import no_grad


@pytest.fixture(scope="module")
def plan_and_data():
    rng = np.random.default_rng(7)
    model = TinyCNN(num_classes=4, width=6,
                    scheme=QuantScheme(weight_bits=3, act_bits=3, psum_bits=3),
                    cim_config=CIMConfig(array_rows=32, array_cols=32,
                                         cell_bits=1, adc_bits=3),
                    seed=2)
    x = np.abs(rng.normal(size=(11, 3, 8, 8)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=x)
    return model, plan, x


class TestMicroBatching:
    @pytest.mark.parametrize("batch_size", [1, 3, 11, 16])
    def test_stream_matches_single_batch(self, plan_and_data, batch_size):
        """Any micro-batch size (including partial final batches) reproduces
        the single-big-batch output, row for row and in order."""
        _, plan, x = plan_and_data
        reference = plan.execute(x)
        runner = engine.InferenceRunner(plan, batch_size=batch_size)
        outs = np.stack(list(runner.run(iter(x))))
        np.testing.assert_array_equal(outs, reference)

    def test_predict_matches_stream(self, plan_and_data):
        _, plan, x = plan_and_data
        reference = plan.execute(x)
        pred = engine.InferenceRunner(plan, batch_size=4).predict(x)
        np.testing.assert_array_equal(pred, reference)

    def test_outputs_survive_buffer_reuse(self, plan_and_data):
        """Yielded rows are copies: later batches must not mutate them."""
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=2)
        rows = []
        snapshots = []
        for row in runner.run(iter(x)):
            rows.append(row)
            snapshots.append(row.copy())
        for row, snap in zip(rows, snapshots):
            np.testing.assert_array_equal(row, snap)

    def test_multiple_streams_reuse_one_runner(self, plan_and_data):
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        first = np.stack(list(runner.run(iter(x[:5]))))
        second = np.stack(list(runner.run(iter(x[5:]))))
        np.testing.assert_array_equal(np.concatenate([first, second]),
                                      plan.execute(x))

    def test_untimed_runner_matches(self, plan_and_data):
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4,
                                        collect_timings=False)
        np.testing.assert_array_equal(runner.predict(x), plan.execute(x))
        assert not runner.stats.layer_seconds

    @pytest.mark.parametrize("output_op", ["relu", "add", "batchnorm"])
    def test_execute_batch_output_outlives_the_next_batch(self, output_op):
        """An array returned by execute_batch is the caller's: a second batch
        through the same executor leaves it unchanged, whatever op produces
        the graph output."""
        builder = engine.GraphBuilder()
        bn = builder.add_op("batchnorm", [0], name="bn",
                            arrays={"mean": np.array([0.5, -0.25]),
                                    "denom": np.array([2.0, 0.5])})
        if output_op == "relu":
            out = builder.add_op("relu", [bn], name="relu")
        elif output_op == "add":
            out = builder.add_op("add", [bn, 0], name="add")
        else:
            out = bn
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=out)
        executor = engine.PlanExecutor(plan)
        rng = np.random.default_rng(4)
        first = executor.execute_batch(rng.normal(size=(3, 2, 4, 4)))
        kept = first.copy()
        executor.execute_batch(rng.normal(size=(3, 2, 4, 4)))
        np.testing.assert_array_equal(first, kept)
        assert executor.stats.arena_bytes == 0

    def test_invalid_batch_size(self, plan_and_data):
        _, plan, _ = plan_and_data
        with pytest.raises(ValueError):
            engine.InferenceRunner(plan, batch_size=0)

    def test_empty_predict_returns_typed_empty(self, plan_and_data):
        """Regression: an empty iterable yields an empty array of the plan's
        output shape and dtype, not an error from the staging loop."""
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan)
        out = runner.predict(x[:0])
        assert out.shape == (0, 4)
        assert out.dtype == np.float64
        assert runner.stats.samples == 0 and runner.stats.batches == 0

    def test_empty_predict_without_sample_axes_raises(self, plan_and_data):
        """A bare (0,) array carries no geometry — that stays a loud error."""
        _, plan, _ = plan_and_data
        with pytest.raises(ValueError, match="sample axes"):
            engine.InferenceRunner(plan).predict(np.empty((0,)))

    def test_shape_change_mid_batch_raises(self, plan_and_data):
        """A shape change with samples already staged must fail loudly, not
        silently serve uninitialized staging rows."""
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        stream = [x[0], x[1], np.zeros((3, 10, 10))]
        with pytest.raises(ValueError, match="shape changed mid-batch"):
            list(runner.run(iter(stream)))


class TestStats:
    def test_counters_and_per_layer_timings(self, plan_and_data):
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        list(runner.run(iter(x)))
        stats = runner.stats
        assert stats.samples == x.shape[0]
        assert stats.batches == 3          # 4 + 4 + 3
        assert stats.seconds > 0
        assert stats.throughput > 0
        per_layer = stats.per_layer()
        assert per_layer, "per-layer timings should be populated"
        names = {name for name, _, _ in per_layer}
        assert any("fc" in name for name in names)
        calls = stats.layer_calls[per_layer[0][0]]
        assert calls == stats.batches
        payload = stats.to_dict()
        assert payload["samples"] == x.shape[0]
        assert payload["per_layer"][0]["seconds"] >= payload["per_layer"][-1]["seconds"]

    def test_reset(self, plan_and_data):
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        list(runner.run(iter(x)))
        runner.stats.reset()
        assert runner.stats.samples == 0
        assert runner.stats.throughput == 0.0
        assert not runner.stats.layer_seconds

    def test_empty_stream_leaves_stats_zeroed(self, plan_and_data):
        """Edge case: an empty stream is a no-op for every counter."""
        _, plan, _ = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        assert list(runner.run(iter([]))) == []
        stats = runner.stats
        assert stats.samples == 0 and stats.batches == 0
        assert stats.seconds == 0.0 and stats.throughput == 0.0
        assert not stats.layer_seconds and not stats.layer_calls
        assert stats.per_layer() == []
        assert stats.to_dict()["per_layer"] == []

    def test_single_sample_stream(self, plan_and_data):
        """Edge case: one sample = one partial batch, one row out."""
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        rows = list(runner.run(iter(x[:1])))
        assert len(rows) == 1
        np.testing.assert_array_equal(rows[0], plan.execute(x[:1])[0])
        assert runner.stats.samples == 1 and runner.stats.batches == 1
        assert runner.stats.throughput > 0

    def test_reset_between_runs_isolates_counters(self, plan_and_data):
        """Edge case: without reset stats accumulate across run() calls;
        with reset the second run's counters stand alone."""
        _, plan, x = plan_and_data
        runner = engine.InferenceRunner(plan, batch_size=4)
        list(runner.run(iter(x[:6])))
        assert runner.stats.samples == 6
        list(runner.run(iter(x[6:])))       # no reset: accumulates
        assert runner.stats.samples == x.shape[0]
        runner.stats.reset()
        list(runner.run(iter(x[:3])))       # after reset: fresh counters
        assert runner.stats.samples == 3 and runner.stats.batches == 1
        calls = set(runner.stats.layer_calls.values())
        assert calls == {1}

    def test_plan_executor_is_the_shared_core(self, plan_and_data):
        """PlanExecutor.execute_batch is the same path the runner flushes
        through: direct use gives identical outputs and equivalent stats."""
        _, plan, x = plan_and_data
        executor = engine.PlanExecutor(plan)
        direct = executor.execute_batch(np.asarray(x[:4], dtype=np.float64))
        runner = engine.InferenceRunner(plan, batch_size=4)
        np.testing.assert_array_equal(direct, runner.predict(x[:4]))
        assert executor.stats.samples == 4 and executor.stats.batches == 1
        assert runner.executor.stats.samples == 4
        assert set(executor.stats.layer_calls) == \
            set(runner.stats.layer_calls)

    def test_float32_input_runs_in_float64(self, plan_and_data, tmp_path):
        """A saved-then-loaded plan served by the runner widens a float32
        input stream to float64 and returns float64 rows."""
        model, plan, x = plan_and_data
        path = tmp_path / "plan.npz"
        engine.save_model_plan(plan, path)
        loaded = engine.load_plan(path)
        x32 = x.astype(np.float32)
        out = engine.InferenceRunner(loaded, batch_size=4).predict(x32)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out,
                                      plan.execute(x32.astype(np.float64)))
