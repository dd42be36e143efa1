"""Plan-graph compiler: fusion, buffer arena, and the scheduled executor.

The contract pinned here is **bit-exactness**: ``CompiledPlan.execute`` must
reproduce ``ModelPlan.execute`` bit for bit on every golden fixture (float
and int routes) and on randomized models, because interpretation is the
reference path and the compiler is pure scheduling — same NumPy ops, same
order, different buffers.  The rest of the suite covers the schedule
structure (what fuses, what must not), the liveness-planned arena (blocks
allocated, recycled, never handed out as results), and the integration
surface (runner, server, ``load_plan(compile=True)``).
"""

import os

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.engine.compiler import _ARENA_KEY, _MAX_ARENAS
from repro.models import MLP, TinyCNN, resnet8
from repro.nn import Tensor
from repro.nn.tensor import no_grad

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures")
CFG = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)


def scheme(quantize_psum: bool = True) -> QuantScheme:
    return QuantScheme(weight_bits=3, act_bits=3, psum_bits=3,
                       weight_granularity="column", psum_granularity="column",
                       quantize_psum=quantize_psum)


def build_plan(kind: str, quantize_psum: bool = True, dtype: str = "float64"):
    """A calibrated small model captured as a ModelPlan, plus an eval batch."""
    rng = np.random.default_rng(7)
    if kind == "conv":
        model = TinyCNN(num_classes=4, width=6, scheme=scheme(quantize_psum),
                        cim_config=CFG, seed=1)
        x = np.abs(rng.normal(size=(3, 3, 8, 8)))
    elif kind == "resnet":
        model = resnet8(num_classes=5, scheme=scheme(quantize_psum),
                        cim_config=CFG, width_multiplier=0.25, seed=2)
        x = np.abs(rng.normal(size=(2, 3, 12, 12)))
    else:
        model = MLP(in_features=24, num_classes=5, hidden=(16,),
                    scheme=scheme(quantize_psum), cim_config=CFG, seed=1)
        x = np.abs(rng.normal(size=(4, 24)))
    with no_grad():
        model(Tensor(x))
    model.eval()
    with no_grad():
        model(Tensor(x))
    plan = engine.compile_model_plan(model, dtype=dtype)
    return plan, x.astype(plan.np_dtype)


def ew_graph_plan(output: str = "gap"):
    """A hand-built plan of pure graph ops (no CIM layers).

    ``input -> batchnorm -> relu -> <output op>`` — the bn+relu chain fuses,
    and the output op selects which structural edge case is under test.
    """
    builder = engine.GraphBuilder("float64")
    bn = builder.add_op("batchnorm", [0], name="bn",
                        arrays={"mean": np.array([0.5, -0.25]),
                                "denom": np.array([2.0, 0.5])})
    relu = builder.add_op("relu", [bn], name="relu")
    if output == "gap":
        out = builder.add_op("global_avg_pool", [relu], name="gap")
    elif output == "flatten":
        out = builder.add_op("flatten", [relu], name="flat")
    else:
        out = relu
    return engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                            output_id=out)


# --------------------------------------------------------------------------- #
# golden differentials — the acceptance criterion
# --------------------------------------------------------------------------- #
class TestGoldenDifferential:
    def _load(self, name, tmp_path, mode="float", compile=False):
        with np.load(os.path.join(FIXTURE_DIR, f"{name}.npz")) as fixture:
            artifact, x = fixture["artifact"], fixture["input"]
            golden = fixture["golden"]
        path = tmp_path / f"{name}.npz"
        path.write_bytes(artifact.tobytes())
        return engine.load_plan(path, mode=mode, compile=compile), x, golden

    def test_compiled_matches_golden_float(self, tmp_path):
        """Parity 0.0 vs both the interpreter and the frozen golden bytes."""
        plan, x, golden = self._load("resnet_tiny", tmp_path)
        compiled = plan.compile()
        out = compiled.execute(x)
        np.testing.assert_array_equal(out, plan.execute(x))
        np.testing.assert_array_equal(out, golden)

    def test_int_fixture_in_float_mode_matches_interpreter(self, tmp_path):
        """The int fixture's golden is the *int-route* output; in float mode
        the contract is bit-exactness vs the interpreter and equal top-1
        predictions vs the golden.  The same compiled plan, switched to int,
        reproduces the (oracle-pinned) golden bit for bit."""
        plan, x, golden = self._load("resnet_tiny_int", tmp_path)
        compiled = plan.compile()
        out = compiled.execute(x)
        np.testing.assert_array_equal(out, plan.execute(x))
        np.testing.assert_array_equal(out.argmax(axis=1),
                                      golden.argmax(axis=1))
        compiled.set_mode("int")
        np.testing.assert_array_equal(compiled.execute(x), golden)

    def test_int_mode_compiled_equals_interpreted_on_golden(self, tmp_path):
        # the one model fixture with requant constants (resnet_tiny is v1)
        plan, x, _ = self._load("resnet_tiny_int", tmp_path, mode="int")
        ws = {}
        expected = plan.execute(x)
        for _ in range(2):
            np.testing.assert_array_equal(
                plan.compile().execute(x, workspace=ws), expected)

    def test_compiled_matches_golden_int_route(self, tmp_path):
        plan, x, golden = self._load("resnet_tiny_int", tmp_path, mode="int")
        compiled = plan.compile()
        assert compiled.mode == "int"
        out = compiled.execute(x)
        np.testing.assert_array_equal(out, plan.execute(x))
        np.testing.assert_array_equal(out, golden)

    def test_load_plan_compile_flag_returns_compiled(self, tmp_path):
        plan, x, golden = self._load("resnet_tiny", tmp_path, compile=True)
        assert isinstance(plan, engine.CompiledPlan)
        np.testing.assert_array_equal(plan.execute(x), golden)

    @pytest.mark.parametrize("name", ["conv", "linear"])
    def test_layer_archives_ignore_compile_flag(self, name, tmp_path):
        """Layer plans have no op graph; ``compile=True`` is a documented no-op."""
        plan, x, golden = self._load(name, tmp_path, compile=True)
        assert isinstance(plan, (engine.ConvPlan, engine.LinearPlan))
        np.testing.assert_array_equal(plan.execute(x), golden)


# --------------------------------------------------------------------------- #
# randomized differentials
# --------------------------------------------------------------------------- #
class TestRandomizedDifferential:
    @pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_compiled_equals_interpreted(self, kind, quantize_psum, dtype):
        plan, x = build_plan(kind, quantize_psum, dtype)
        compiled = plan.compile()
        ws = {}
        expected = plan.execute(x)
        np.testing.assert_array_equal(compiled.execute(x), expected)
        # workspace-backed arena run, twice: steady state stays exact
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      expected)
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      expected)

    @pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_int_mode_compiled_equals_interpreted(self, kind, quantize_psum,
                                                  dtype):
        # both executors run the one folded integer graph
        plan, x = build_plan(kind, quantize_psum, dtype)
        plan.set_mode("int")
        compiled = plan.compile()
        ws = {}
        expected = plan.execute(x)
        for _ in range(2):
            np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                          expected)
        np.testing.assert_array_equal(compiled.execute(x[:1]), expected[:1])
        assert compiled.execute(x[:0]).shape == (0,) + expected.shape[1:]

    @pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
    def test_compiled_before_or_after_set_mode_agree(self, kind):
        # no stale schedule: compiling first and switching later runs the
        # same folded graph as switching first and compiling later
        plan, x = build_plan(kind)
        early = plan.compile()
        plan.set_mode("int")
        out_early = early.execute(x)
        late_plan, _ = build_plan(kind)
        late_plan.set_mode("int")
        late = late_plan.compile()
        np.testing.assert_array_equal(out_early, late.execute(x))
        np.testing.assert_array_equal(out_early, plan.execute(x))
        assert [s.ops for s in early.steps] == [s.ops for s in late.steps]

    @pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
    def test_int_mode_equals_interpreted(self, kind):
        plan, x = build_plan(kind)
        compiled = plan.compile()
        plan.set_mode("int")
        assert compiled.mode == "int"
        np.testing.assert_array_equal(compiled.execute(x), plan.execute(x))
        # and back: mode switching needs no recompilation
        compiled.set_mode("float")
        assert plan.mode == "float"
        np.testing.assert_array_equal(compiled.execute(x), plan.execute(x))

    def test_varying_batch_sizes_one_compiled_plan(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        ws = {}
        rng = np.random.default_rng(11)
        for n in (1, 2, 5):
            xb = np.abs(rng.normal(size=(n,) + x.shape[1:]))
            np.testing.assert_array_equal(compiled.execute(xb, workspace=ws),
                                          plan.execute(xb))


# --------------------------------------------------------------------------- #
# schedule structure
# --------------------------------------------------------------------------- #
class TestFusion:
    def test_resnet_fuses_cim_bn_relu_chains(self):
        plan, _ = build_plan("resnet")
        compiled = plan.compile()
        ops = [step.ops for step in compiled.steps]
        assert "cim+batchnorm+relu" in ops          # stem / block conv1
        assert "cim+batchnorm" in ops               # conv2 (relu after add)
        assert "add+relu" in ops                    # residual joins
        assert compiled.n_fused > 0
        assert compiled.n_steps + compiled.n_fused == len(plan.nodes) - 1

    def test_multi_consumer_value_does_not_fuse(self):
        """A value read by two nodes keeps its own step (dataflow unchanged)."""
        builder = engine.GraphBuilder("float64")
        bn = builder.add_op("batchnorm", [0], name="bn",
                            arrays={"mean": np.zeros(2), "denom": np.ones(2)})
        relu = builder.add_op("relu", [bn], name="relu")
        add = builder.add_op("add", [bn, relu], name="add")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=add)
        compiled = engine.compile_plan_graph(plan)
        assert [s.ops for s in compiled.steps] == ["batchnorm", "relu", "add"]
        x = np.random.default_rng(0).normal(size=(2, 2, 3, 3))
        np.testing.assert_array_equal(compiled.execute(x), plan.execute(x))

    def test_graph_output_never_fused_away(self):
        """The output value must stay addressable even when solely consumed —
        here the bn output *is* the graph output, so relu (a later op reading
        it) cannot absorb it."""
        builder = engine.GraphBuilder("float64")
        bn = builder.add_op("batchnorm", [0], name="bn",
                            arrays={"mean": np.zeros(2), "denom": np.ones(2)})
        builder.add_op("relu", [bn], name="relu")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=bn)
        compiled = engine.compile_plan_graph(plan)
        assert [s.ops for s in compiled.steps] == ["batchnorm", "relu"]

    def test_raw_graph_ops_compile_and_fuse(self):
        """Graph-level ``conv2d``/``linear`` nodes (weights as node arrays,
        no CIM layer plan) schedule, fuse with gamma-less batchnorm and
        relu6 tails, and stay bit-exact."""
        rng = np.random.default_rng(5)
        builder = engine.GraphBuilder("float64")
        conv = builder.add_op(
            "conv2d", [0], name="conv",
            arrays={"weight": rng.normal(size=(4, 3, 3, 3)),
                    "bias": rng.normal(size=4)},
            stride=(1, 1), padding=(1, 1))
        bn = builder.add_op("batchnorm", [conv], name="bn",
                            arrays={"mean": rng.normal(size=4),
                                    "denom": np.abs(rng.normal(size=4)) + 0.5})
        act = builder.add_op("relu6", [bn], name="relu6")
        flat = builder.add_op("flatten", [act], name="flat")
        fc = builder.add_op(
            "linear", [flat], name="fc",
            arrays={"weight": rng.normal(size=(5, 4 * 6 * 6)),
                    "bias": rng.normal(size=5)})
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=fc)
        compiled = plan.compile()
        assert "conv2d+batchnorm+relu6" in [s.ops for s in compiled.steps]
        x = rng.normal(size=(2, 3, 6, 6))
        ws = {}
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      plan.execute(x))
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      plan.execute(x))

    def test_standalone_ew_ops_as_graph_output(self):
        """Each element-wise op scheduled as the *output* step takes the
        fresh-array path (no arena destination)."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 3, 3))
        for op, arrays in [("relu6", None), ("add", None),
                           ("batchnorm", {"mean": np.zeros(2),
                                          "denom": np.ones(2)})]:
            builder = engine.GraphBuilder("float64")
            if op == "add":
                relu6 = builder.add_op("relu6", [0], name="pre")
                out = builder.add_op("add", [relu6, 0], name="add")
            else:
                out = builder.add_op(op, [0], name=op, arrays=arrays)
            plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                    output_id=out)
            compiled = plan.compile()
            np.testing.assert_array_equal(compiled.execute(x),
                                          plan.execute(x))
        assert repr(compiled.steps[0]).startswith("FusedStep(")

    def test_unknown_op_raises(self):
        builder = engine.GraphBuilder("float64")
        bad = builder.add_op("fft", [0], name="bad")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=bad)
        with pytest.raises(engine.ModelPlanError, match="fft"):
            engine.compile_plan_graph(plan)


class TestScheduleSemantics:
    def test_nan_relu_through_fused_tail(self):
        """The fused in-place ReLU keeps the documented NaN -> 0 semantics."""
        plan = ew_graph_plan("gap")
        compiled = plan.compile()
        x = np.full((2, 2, 3, 3), np.nan)
        x[0, 0, 0, 0] = -1.0
        out = compiled.execute(x)
        np.testing.assert_array_equal(out, plan.execute(x))
        assert np.isfinite(out).all()

    def test_output_stays_valid_across_calls(self):
        """Returned arrays are never arena-backed: a later call with the same
        workspace must not mutate an earlier result."""
        plan, x = build_plan("conv")
        compiled = plan.compile()
        ws = {}
        first = compiled.execute(x, workspace=ws)
        kept = first.copy()
        compiled.execute(x + 1.0, workspace=ws)
        np.testing.assert_array_equal(first, kept)

    def test_flatten_output_copies_out_of_the_arena(self):
        plan = ew_graph_plan("flatten")
        compiled = plan.compile()
        ws = {}
        x = np.random.default_rng(0).normal(size=(2, 2, 3, 3))
        first = compiled.execute(x, workspace=ws)
        np.testing.assert_array_equal(first, plan.execute(x))
        kept = first.copy()
        compiled.execute(x * -2.0, workspace=ws)
        np.testing.assert_array_equal(first, kept)

    def test_timings_keyed_by_fused_step_name(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        timings = {}
        compiled.execute(x, timings=timings)
        assert set(timings) == {step.name for step in compiled.steps}
        assert all(t >= 0.0 for t in timings.values())


# --------------------------------------------------------------------------- #
# pooling + zero-batch edge cases through the compiled path
# --------------------------------------------------------------------------- #
class TestPoolingAndEdgeCases:
    @pytest.mark.parametrize("op", ["max_pool", "avg_pool"])
    @pytest.mark.parametrize("kernel,stride,padding",
                             [((2, 2), (2, 2), (0, 0)),
                              ((3, 3), (2, 2), (1, 1)),   # padding
                              ((3, 3), (1, 1), (0, 0))])  # stride != kernel
    def test_pool_geometries(self, op, kernel, stride, padding):
        builder = engine.GraphBuilder("float64")
        pool = builder.add_op(op, [0], name="pool", kernel=kernel,
                              stride=stride, padding=padding)
        gap = builder.add_op("global_avg_pool", [pool], name="gap")
        plan = engine.ModelPlan(nodes=builder.nodes, layer_plans=[],
                                output_id=gap)
        compiled = plan.compile()
        x = np.random.default_rng(3).normal(size=(2, 3, 7, 7))
        ws = {}
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      plan.execute(x))

    @pytest.mark.parametrize("kind", ["conv", "linear", "resnet"])
    def test_zero_batch(self, kind):
        plan, x = build_plan(kind)
        compiled = plan.compile()
        empty = np.empty((0,) + x.shape[1:], dtype=plan.np_dtype)
        out = compiled.execute(empty, workspace={})
        ref = plan.execute(empty)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref)


# --------------------------------------------------------------------------- #
# the liveness-planned arena
# --------------------------------------------------------------------------- #
class TestArena:
    def test_blocks_planned_and_recycled(self):
        """A deep model reuses a handful of blocks across the whole schedule
        instead of one buffer per node."""
        plan, x = build_plan("resnet")
        compiled = plan.compile()
        ws = {}
        compiled.execute(x, workspace=ws)
        nbytes, nblocks = compiled.workspace_footprint(ws)
        assert nblocks > 0
        # far fewer physical blocks than scheduled values
        assert nblocks < compiled.n_steps
        assert nbytes > 0

    def test_arena_smaller_than_interpreter_workspace(self):
        """The acceptance criterion: liveness-shared blocks beat the
        interpreter's one-buffer-per-node workspace dict."""
        plan, x = build_plan("resnet")
        compiled = plan.compile()
        ws_interp, ws_comp = {}, {}
        plan.execute(x, workspace=ws_interp)
        compiled.execute(x, workspace=ws_comp)
        interp_bytes, _ = plan.workspace_footprint(ws_interp)
        comp_bytes, _ = compiled.workspace_footprint(ws_comp)
        assert 0 < comp_bytes < interp_bytes

    def test_in_place_reuse_into_dying_inputs(self):
        plan, x = build_plan("resnet")
        compiled = plan.compile()
        compiled.execute(x)
        sp = compiled._shape_plans[x.shape]
        assert sp.inplace_reuses > 0   # residual add+relu steps write in place

    def test_arena_lru_eviction_caps_resident_shapes(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        ws = {}
        for n in range(1, _MAX_ARENAS + 3):
            compiled.execute(np.zeros((n,) + x.shape[1:]), workspace=ws)
        assert len(ws[_ARENA_KEY]) == _MAX_ARENAS

    def test_no_workspace_allocates_transiently(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        np.testing.assert_array_equal(compiled.execute(x), plan.execute(x))
        assert compiled.workspace_footprint(None) == (0, 0)
        assert compiled.workspace_footprint({}) == (0, 0)

    def test_channel_mismatch_raises_on_first_execute(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        bad = np.zeros((2, x.shape[1] + 1) + x.shape[2:])
        with pytest.raises(ValueError, match="channels"):
            compiled.execute(bad)

    def test_linear_feature_mismatch_raises(self):
        plan, x = build_plan("linear")
        compiled = plan.compile()
        with pytest.raises(ValueError, match=str(x.shape[1])):
            compiled.execute(np.zeros((2, x.shape[1] + 1)))

    def test_single_fused_step_needs_no_arena(self):
        """bn+relu fusing into the output step leaves nothing to plan: the
        arena is empty and the workspace stays untouched."""
        plan = ew_graph_plan("relu")
        compiled = plan.compile()
        ws = {}
        x = np.random.default_rng(1).normal(size=(2, 2, 3, 3))
        np.testing.assert_array_equal(compiled.execute(x, workspace=ws),
                                      plan.execute(x))
        assert compiled.workspace_footprint(ws) == (0, 0)
        # a workspace holding only interpreter buffers reports no arena
        assert compiled.workspace_footprint({"other": object()}) == (0, 0)


# --------------------------------------------------------------------------- #
# integration: summary, runner, server, plan cache
# --------------------------------------------------------------------------- #
class TestIntegration:
    def test_summary_reports_schedule_and_arena(self):
        plan, x = build_plan("resnet")
        compiled = plan.compile()
        pre = compiled.summary()
        assert "arena: planned per batch shape on first execute" in pre
        compiled.execute(x)
        post = compiled.summary()
        assert f"{compiled.n_steps} steps" in post
        assert f"{compiled.n_fused} fused" in post
        assert "cim+batchnorm+relu" in post
        assert f"arena{list(x.shape)}:" in post
        assert "in-place reuses" in post

    def test_model_plan_summary_appends_compiled_schedule(self):
        plan, _ = build_plan("conv")
        base = plan.summary()
        assert "CompiledPlan" not in base
        plan.compile()
        assert "CompiledPlan" in plan.summary()
        assert plan.summary().startswith(base)

    def test_runner_executes_compiled_plan_with_arena_stats(self):
        plan, x = build_plan("resnet")
        compiled = plan.compile()
        batch = np.concatenate([x] * 3)
        runner_i = engine.InferenceRunner(plan, batch_size=2)
        runner_c = engine.InferenceRunner(compiled, batch_size=2)
        np.testing.assert_array_equal(runner_c.predict(batch),
                                      runner_i.predict(batch))
        stats_i, stats_c = runner_i.stats, runner_c.stats
        assert 0 < stats_c.arena_bytes < stats_i.arena_bytes
        assert 0 < stats_c.arena_blocks < stats_i.arena_blocks
        assert stats_c.to_dict()["arena_bytes"] == stats_c.arena_bytes

    def test_server_serves_compiled_plan(self):
        plan, x = build_plan("conv")
        compiled = plan.compile()
        expected = plan.execute(x)
        with engine.PlanServer(compiled, n_shards=2, max_batch=2) as server:
            np.testing.assert_array_equal(server.predict(x), expected)

    def test_plan_cache_keys_on_compile_flag(self, tmp_path):
        plan, _ = build_plan("conv")
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        engine.clear_plan_cache()
        interp = engine.load_plan_cached(str(path))
        compiled = engine.load_plan_cached(str(path), compile=True)
        assert isinstance(interp, engine.ModelPlan)
        assert isinstance(compiled, engine.CompiledPlan)
        assert engine.load_plan_cached(str(path)) is interp
        assert engine.load_plan_cached(str(path), compile=True) is compiled
        engine.clear_plan_cache()

    def test_compile_is_cached_on_the_plan(self):
        plan, _ = build_plan("linear")
        assert plan.compiled is None
        compiled = plan.compile()
        assert plan.compile() is compiled and plan.compiled is compiled

    def test_delegated_surface(self):
        plan, _ = build_plan("conv")
        compiled = plan.compile()
        assert compiled.dtype == plan.dtype
        assert compiled.np_dtype == plan.np_dtype
        assert compiled.name == plan.name
        assert compiled.output_id == plan.output_id
        assert compiled.layer_plans is plan.layer_plans
        with pytest.raises(ValueError):
            compiled.set_mode("bogus")

    def test_call_aliases_execute(self):
        plan, x = build_plan("linear")
        compiled = plan.compile()
        np.testing.assert_array_equal(compiled(x), plan.execute(x))
