"""Differential test harness pinning the integer execution route.

The float route is the reference the integer route is measured against:
there is no declared drift bound any more — the integer route is defined
in plain integers and held bit for bit to a pure-Python oracle in
``test_int_oracle.py`` — so the fuzz matrix here sweeps seeded random
layer geometries across both layer kinds, both psum modes and several tile
shapes and checks that the stand-alone integer layer (``execute(x,
plan.dequant_fold(False))``) tracks the float one closely; model-level
tests demand equal top-1 predictions, serialization pins the requant
constants bit-exactly through the ``.npz`` round trip, and the error cases
pin the route contract: a layer's fold picks its route, a model's mode
picks its graph.  The ADC stage of the integer route runs on an
exact float64 carrier; it is held bit for bit to a plain ``int64``
reference (``requantize_up`` + an ``int64`` reduce) at the edges of its
exactness argument and across every sample-tile remainder, and loading
refuses constants outside that argument.
"""

import copy
import dataclasses
import gc
import importlib
import io
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme, VariationModel
from repro.core import CIMConv2d, CIMLinear
from repro.core.requant import (INT32_MAX, CarrierRangeError, adc_shift_cap,
                                carrier_multiplier, requantize_up)
from repro.engine import cpu
from repro.engine.hotpath import ScratchTable
from repro.models import resnet8
from repro.nn import Tensor
from repro.nn.tensor import no_grad

from planutil import save_layer_artifact

plan_module = importlib.import_module("repro.engine.plan")


def scheme(quantize_psum: bool, act_bits: int = 3,
           psum_bits: int = 3) -> QuantScheme:
    return QuantScheme(weight_bits=3, act_bits=act_bits, psum_bits=psum_bits,
                       weight_granularity="column", psum_granularity="column",
                       quantize_psum=quantize_psum)


# (array_rows, cell_bits): one array/one split, multi-array, multi-split
TILE_SHAPES = [(64, 1), (16, 1), (32, 2)]


def make_layer(kind: str, quantize_psum: bool, tile, seed: int):
    """A calibrated seeded layer plus a fresh eval batch."""
    rows, cell_bits = tile
    cfg = CIMConfig(array_rows=rows, array_cols=32, cell_bits=cell_bits,
                    adc_bits=3)
    rng = np.random.default_rng(seed)
    if kind == "conv":
        layer = CIMConv2d(3, 5, 3, padding=1, bias=True,
                          scheme=scheme(quantize_psum), cim_config=cfg,
                          rng=np.random.default_rng(seed + 1))
        calib = np.abs(rng.normal(size=(4, 3, 7, 7)))
        x = np.abs(rng.normal(size=(3, 3, 7, 7)))
    else:
        layer = CIMLinear(26, 6, bias=True, scheme=scheme(quantize_psum),
                          cim_config=cfg, rng=np.random.default_rng(seed + 1))
        calib = np.abs(rng.normal(size=(5, 26)))
        x = np.abs(rng.normal(size=(4, 26)))
    with no_grad():
        layer.eval()
        layer(Tensor(calib))
    return layer, x


def compile_layer(layer):
    if isinstance(layer, CIMConv2d):
        return engine.compile_conv_plan(layer)
    return engine.compile_linear_plan(layer)


def build_model_plan():
    """The fixture model of the model-level gate (seeded, deterministic)."""
    sch = scheme(True)
    cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
    rng = np.random.default_rng(17)
    model = resnet8(num_classes=4, scheme=sch, cim_config=cfg,
                    width_multiplier=0.25, seed=3)
    calib = np.abs(rng.normal(size=(4, 3, 8, 8)))
    with no_grad():
        model(Tensor(calib))
    model.eval()
    plan = engine.compile_model_plan(model, calibrate=calib)
    x = np.abs(rng.normal(size=(32, 3, 8, 8)))
    return plan, x


class TestLayerDifferential:
    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    @pytest.mark.parametrize("tile", TILE_SHAPES,
                             ids=[f"r{r}b{b}" for r, b in TILE_SHAPES])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_int_route_tracks_float_route(self, kind, quantize_psum, tile,
                                          seed):
        # a measurement, not a contract: the ADC codes match the float
        # route's, so only the 31-bit reduce mantissas separate the routes
        layer, x = make_layer(kind, quantize_psum, tile, seed)
        plan = compile_layer(layer)
        assert plan.requant is not None
        ref = plan.execute(x)
        out = plan.execute(x, plan.dequant_fold(False))
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_zero_row_and_single_sample_edges(self, kind, quantize_psum):
        layer, x = make_layer(kind, quantize_psum, (32, 1), 3)
        plan = compile_layer(layer)
        fold = plan.dequant_fold(False)
        empty = np.empty((0,) + x.shape[1:], dtype=np.float64)
        out_empty = plan.execute(empty, fold)
        assert out_empty.shape[0] == 0
        one = plan.execute(x[:1], fold)
        full = plan.execute(x, fold)
        np.testing.assert_array_equal(one, full[:1])

    def test_int_output_lies_on_the_output_grid(self):
        """The fused route's output is ``(acc + bias_q) * s_out * 2**-shift``
        bit for bit, with ``acc`` the ``int64`` accumulator of the codes —
        integer accumulation plus one dequant multiply."""
        layer, x = make_layer("linear", False, (32, 1), 5)
        plan = compile_layer(layer)
        rq = plan.requant
        codes = plan._quantize_acts_carrier(np.asarray(x, np.float64))
        codes = codes.astype(np.int64)
        acc = np.zeros((codes.shape[0], plan.out_channels), dtype=np.int64)
        # the weight codes: the cell codes shifted and added
        w_bar = np.tensordot(plan.shift_factors.astype(np.int64),
                             plan.splits.astype(np.int64), axes=1)
        for i, (start, stop) in enumerate(plan.row_slices):
            w = w_bar[i, :stop - start, :]
            acc += (codes[:, start:stop] @ w) * rq.m0_fused[i].astype(np.int64)
        if rq.bias_q is not None:
            acc += rq.bias_q
        unit = np.ldexp(rq.s_out.astype(np.float64), -rq.shift)
        want = np.multiply(acc, unit, dtype=np.float64)
        np.testing.assert_array_equal(
            plan.execute(x, plan.dequant_fold(False)), want)


class TestSerialization:
    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_requant_constants_round_trip_bit_exact(self, tmp_path, kind,
                                                    quantize_psum):
        layer, x = make_layer(kind, quantize_psum, (32, 2), 9)
        plan = compile_layer(layer)
        path = tmp_path / "plan.npz"
        save_layer_artifact(plan, path)
        loaded = engine.load_plan(path)
        rq, rq2 = plan.requant, loaded.layer_plans[0].requant
        assert rq2 is not None
        assert rq2.shift == rq.shift
        assert rq2.gemm_dtype == rq.gemm_dtype
        assert rq2.acc_bound == rq.acc_bound
        assert (rq2.z_in, rq2.z_w, rq2.z_out) == (rq.z_in, rq.z_w, rq.z_out)
        for name in type(rq)._ARRAYS:
            a, b = getattr(rq, name), getattr(rq2, name)
            if a is None:
                assert b is None
            else:
                assert b.dtype == a.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_loaded_int_route_matches_in_process(self, tmp_path,
                                                 quantize_psum):
        layer, x = make_layer("conv", quantize_psum, (16, 1), 2)
        plan = compile_layer(layer)
        out = plan.execute(x, plan.dequant_fold(False))
        path = tmp_path / "plan.npz"
        save_layer_artifact(plan, path)
        loaded = engine.load_plan(path)
        assert loaded.mode == "float"          # the mode is not on disk
        np.testing.assert_array_equal(loaded.with_mode("int").execute(x), out)
        np.testing.assert_array_equal(
            engine.load_plan(path, mode="int").execute(x), out)


class TestModelLevelGate:
    def test_model_top1_agreement(self):
        plan, x = build_model_plan()
        ref = plan.execute(x)
        int_plan = plan.with_mode("int")
        out = int_plan.execute(x)
        agree = float((out.argmax(axis=1) == ref.argmax(axis=1)).mean())
        assert agree == 1.0
        # and back: float mode restores the bit-exact reference
        np.testing.assert_array_equal(
            int_plan.with_mode("float").execute(x), ref)

    def test_model_round_trip_int_equality(self, tmp_path):
        plan, x = build_model_plan()
        plan = plan.with_mode("int")
        out = plan.execute(x)
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        loaded = engine.load_plan(path, mode="int")
        assert loaded.mode == "int"
        np.testing.assert_array_equal(loaded.execute(x), out)
        # default load is the float reference
        ref_plan = engine.load_plan(path)
        assert ref_plan.mode == "float"

    def test_runner_and_server_int_mode(self, tmp_path):
        plan, x = build_model_plan()
        ref = plan.execute(x)
        plan = plan.with_mode("int")
        expected = plan.execute(x)
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)

        runner = engine.InferenceRunner(engine.load_plan(path, mode="int"),
                                        batch_size=8)
        np.testing.assert_array_equal(runner.predict(x), expected)

        with engine.PlanServer(engine.load_plan(path, mode="int"), n_shards=2,
                               max_batch=8) as server:
            got = server.predict(x)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(expected.argmax(axis=1),
                                      ref.argmax(axis=1))

    def test_runner_follows_the_plan_mode(self, monkeypatch):
        """The runner has no route of its own: it runs the route of the
        plan it is given."""
        monkeypatch.setattr(cpu, "runner_workers", lambda: 1)
        float_plan, x = build_model_plan()
        outputs = {}
        for plan in (float_plan, float_plan.with_mode("int")):
            runner = engine.InferenceRunner(plan, batch_size=8)
            outputs[plan.mode] = np.concatenate(
                [plan.execute(x[i:i + 8]) for i in range(0, len(x), 8)])
            np.testing.assert_array_equal(runner.predict(x),
                                          outputs[plan.mode])
        assert outputs["int"].tobytes() != outputs["float"].tobytes()

    def test_one_path_mounted_per_mode_gets_a_plan_per_mode(self, tmp_path):
        """Each mount loads its own plan, so a float and an int mount of one
        artifact never share (and never flip) a plan object."""
        plan, x = build_model_plan()
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        with engine.NetServer() as net:
            as_float = net.add_model("f", str(path), n_shards=1).server.plan
            as_int = net.add_model("i", str(path), mode="int",
                                   n_shards=1).server.plan
            assert as_float is not as_int
            assert as_float.mode == "float" and as_int.mode == "int"
            np.testing.assert_array_equal(as_float.execute(x),
                                          plan.execute(x))
            np.testing.assert_array_equal(as_int.execute(x),
                                          plan.with_mode("int").execute(x))

    def test_one_plan_mounted_per_mode_serves_each_route(self, monkeypatch):
        """An in-memory plan mounted as int and as float serves each route:
        the mount takes ``with_mode``, so the caller's object and the other
        mount keep theirs."""
        monkeypatch.setattr(cpu, "runner_workers", lambda: 1)
        plan, x = build_model_plan()
        want = {mode: engine.InferenceRunner(
                    plan.with_mode(mode), batch_size=8).predict(x)
                for mode in ("int", "float")}
        assert want["int"].tobytes() != want["float"].tobytes()
        with engine.NetServer() as net:
            for name, mode in (("a", "int"), ("b", "float")):
                net.add_model(name, plan, mode=mode, n_shards=1, max_batch=8)
            assert plan.mode == "float"
            for name, mode in (("a", "int"), ("b", "float")):
                endpoint = net.endpoint(name)
                assert endpoint.metrics()["plan"]["mode"] == mode
                got = endpoint.server.predict(x)
                assert got.tobytes() == want[mode].tobytes(), name
            models = net.metrics()["models"]
            assert {name: models[name]["plan"]["mode"]
                    for name in ("a", "b")} == {"a": "int", "b": "float"}


class TestModeContract:
    def test_unknown_mode_raises(self):
        plan, _ = build_model_plan()
        with pytest.raises(ValueError, match="unknown execution mode"):
            plan.with_mode("int8")
        with pytest.raises(ValueError, match="unknown execution mode"):
            engine.ModelPlan(nodes=plan.nodes, layer_plans=plan.layer_plans,
                             output_id=plan.output_id, mode="int8")

    def test_serving_entry_points_refuse_unknown_mode(self, tmp_path):
        """Every entry point that picks a model's route checks the mode
        through the ``ModelPlan`` it builds."""
        plan, _ = build_model_plan()
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        with pytest.raises(ValueError, match="unknown execution mode"):
            engine.load_plan(path, mode="int8")
        with engine.NetServer() as net:
            for source in (str(path), plan):
                with pytest.raises(ValueError,
                                   match="unknown execution mode"):
                    net.add_model("m", source, mode="int8", n_shards=1)
            assert net.model_names() == []
        assert plan.mode == "float"

    def test_v1_model_refuses_int_mode(self):
        """Building an int ``ModelPlan`` is the one v1 check: a
        quantized-input layer without requant constants names its index,
        and the float plan it was asked of stays as it was."""
        plan, x = build_model_plan()
        ref = plan.execute(x)
        index = next(i for i, lp in enumerate(plan.layer_plans)
                     if lp.act_scale is not None)
        plan.layer_plans[index].requant = None
        with pytest.raises(engine.ModelPlanError,
                           match=rf"\[{index}\].*predates model-plan "
                                 "version 2"):
            plan.with_mode("int")
        assert plan.mode == "float"
        assert plan.execute(x).tobytes() == ref.tobytes()

    def test_execute_takes_no_variation(self):
        """A plan is a deterministic recipe: ``execute`` has no variation
        argument on either route (a frozen layer runs its seed forward
        while a variation model is enabled)."""
        for kind in ("conv", "linear"):
            layer, x = make_layer(kind, True, (32, 1), 1)
            plan = compile_layer(layer)
            for fold in (None, plan.dequant_fold(False)):
                with pytest.raises(TypeError):
                    plan.execute(x, fold,
                                 variation=VariationModel(sigma=0.1, seed=0))

    def test_route_follows_the_fold_alone(self):
        """A layer plan holds no route state: inside an int-mode model its
        ``execute(x)`` is still the float route."""
        plan, x = build_model_plan()
        layer = plan.layer_plans[1]
        codes = np.abs(np.random.default_rng(2).normal(
            size=(2, layer.in_channels, 8, 8)))
        ref = layer.execute(codes)
        assert plan.with_mode("int").layer_plans[1] is layer
        assert layer.execute(codes).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_codes_in_fold_takes_the_codes_as_given(self, kind):
        """``dequant_fold(True)`` skips the input quantizer: the layer's own
        ``float32`` codes give what ``dequant_fold(False)`` gives on the
        float input they came from."""
        layer, x = make_layer(kind, True, (32, 1), 6)
        plan = compile_layer(layer)
        codes = plan._quantize_acts_carrier(np.asarray(x)).copy()
        assert codes.dtype == np.float32
        np.testing.assert_array_equal(
            plan.execute(codes, plan.dequant_fold(True)),
            plan.execute(x, plan.dequant_fold(False)))

    def test_compile_state_is_float64(self):
        """Every float array a plan compiles from is float64, and the
        requant constants are compiled alongside them."""
        layer, _ = make_layer("conv", True, (32, 1), 4)
        state = layer.pipeline.compile_state()
        assert state["requant"] is not None
        floats = [v for v in state.values() if isinstance(v, np.ndarray)
                  and v.dtype.kind == "f"]
        assert floats and all(v.dtype == np.float64 for v in floats)

    def test_int_mode_widens_float32_input(self):
        """The int route quantizes a float32 batch exactly as its float64
        widening and returns float64."""
        layer, x = make_layer("conv", True, (32, 1), 4)
        plan = compile_layer(layer)
        fold = plan.dequant_fold(False)
        x32 = x.astype(np.float32)
        out = plan.execute(x32, fold)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(
            out, plan.execute(x32.astype(np.float64), fold))

    def test_plan_without_requant_refuses_int(self):
        layer, x = make_layer("linear", False, (32, 1), 1)
        plan = compile_layer(layer)
        plan.requant = None          # simulate a pre-v2 (float-only) artifact
        plan._build_derived()
        with pytest.raises(ValueError, match="carries no requant constants"):
            plan.dequant_fold(False)
        assert plan.execute(x).shape == (x.shape[0], plan.out_channels)

    def test_raw_input_layer_has_no_dequant_fold(self):
        """The first conv of every model takes unquantized input: it has no
        integer grid, so it runs the float route only, and asking it for
        an integer fold is a ``ValueError``, not an ``AttributeError``."""
        cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=1, adc_bits=3)
        layer = CIMConv2d(3, 4, 3, scheme=scheme(True), cim_config=cfg,
                          rng=np.random.default_rng(0),
                          quantize_input=False)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        with no_grad():
            layer.eval()
            layer(Tensor(np.abs(x)))
        plan = engine.compile_conv_plan(layer)
        assert plan.requant is None and plan.act_scale is None
        with pytest.raises(ValueError, match="carries no requant constants"):
            plan.dequant_fold(False)
        assert plan.execute(x).shape == (2, 4, 4, 4)


# --------------------------------------------------------------------------- #
# the float64-carrier ADC stage against its int64 reference
# --------------------------------------------------------------------------- #
def int64_reference(plan, cols: np.ndarray) -> np.ndarray:
    """The ADC route's contraction in plain ``int64``: ``requantize_up`` per
    (array, split, column), an ``int64`` reduce, bias fold, one dequant."""
    rq = plan.requant
    cols = cols.astype(np.int64)
    qmin, qmax = int(plan.psum_qmin), int(plan.psum_qmax)
    acc = np.zeros((cols.shape[0], plan.out_channels), dtype=np.int64)
    for i, (start, stop) in enumerate(plan.row_slices):
        w = plan.splits[:, i, :stop - start, :].astype(np.int64)
        p = np.einsum("nr,sro->nso", cols[:, start:stop], w)
        codes = requantize_up(p, rq.m0_adc[i], rq.shift_adc[i], qmin, qmax)
        acc += np.einsum("nso,so->no", codes, rq.m0_out[i].astype(np.int64))
    if rq.bias_q is not None:
        acc += rq.bias_q
    unit = np.ldexp(rq.s_out.astype(np.float64), -rq.shift)
    return np.multiply(acc, unit, dtype=np.float64)


def codes_fold(plan, carrier: str = "auto"):
    """The plan's stand-alone dequant fold on codes; ``carrier="float64"``
    forces the float64 ADC stage even where the float32 one is proved
    exact (``"auto"``, the executed choice)."""
    fold = plan.dequant_fold(True)
    if carrier == "float64":
        rq = plan.requant
        fold = dataclasses.replace(fold, mu_adc=carrier_multiplier(
            rq.m0_adc, rq.shift_adc)[..., None])
    return fold


def run_int(plan, cols: np.ndarray, carrier: str = "auto") -> np.ndarray:
    """The executed integer route on a ``(NL, in_features)`` code matrix.

    Each row runs as one ``1x1`` sample through the layer's tile loop, as
    a linear plan runs; a conv plan runs as a ``1x1`` convolution over the
    rows, which are its own im2col columns.
    """
    if isinstance(plan, engine.ConvPlan):
        plan = dataclasses.replace(plan, in_channels=cols.shape[1],
                                   kernel_size=(1, 1), stride=(1, 1),
                                   padding=(0, 0))
    n, oc = cols.shape[0], plan.out_channels
    out = plan._run(cols.reshape(n, cols.shape[1], 1, 1),
                    codes_fold(plan, carrier), (n, oc, 1, 1))
    return out.reshape(n, oc)


def retune(plan, case: str, rng):
    """Overwrite a compiled plan's ADC constants with an edge ``case``."""
    rq = plan.requant
    shape = rq.m0_adc.shape
    cap = adc_shift_cap(plan.psum_qmin, plan.psum_qmax)
    if case == "shift0":              # every nonzero partial sum saturates
        rq.m0_adc = np.full(shape, INT32_MAX, np.int32)
        rq.shift_adc = np.zeros(shape, np.int64)
    elif case == "cap":
        rq.m0_adc = rng.integers(2 ** 30, INT32_MAX, size=shape,
                                 endpoint=True).astype(np.int32)
        rq.shift_adc = np.full(shape, cap, np.int64)
    elif case == "int32max":          # codes ~ p / 8, largest mantissa
        rq.m0_adc = np.full(shape, INT32_MAX, np.int32)
        rq.shift_adc = np.full(shape, 34, np.int64)
    elif case == "ties":              # codes = half-up(p / 2): odd p ties
        rq.m0_adc = np.where(rng.random(shape) < 0.5, 1, 2 ** 30
                             ).astype(np.int32)
        rq.shift_adc = np.where(rq.m0_adc == 1, 1, 31).astype(np.int64)
    if case != "compiled":
        rq.m0_out = np.full(shape, INT32_MAX, np.int32)
    plan._build_derived()


def code_batch(plan, nl: int, rng) -> np.ndarray:
    """Integer activation codes; the first rows drive p to +-acc_bound."""
    width = plan.row_slices[-1][1]
    cols = rng.integers(int(plan.act_qmin), int(plan.act_qmax),
                        size=(nl, width), endpoint=True).astype(np.float64)
    cols[:2] = plan.act_qmax
    return cols


def saturating_splits(plan):
    """Cell codes of +1 on split 0 and -1 on split 1, so an all-max code
    row reaches the extreme partial sums of both signs."""
    plan.splits = plan.splits.copy()
    plan.splits[0] = 1
    plan.splits[1] = -1
    plan._build_derived()


class TestFloat64AdcStage:
    CASES = ["compiled", "shift0", "cap", "int32max", "ties"]

    @pytest.mark.parametrize("carrier", ["auto", "float64"])
    @pytest.mark.parametrize("kind,tile", [("linear", (16, 1)),
                                           ("conv", (32, 2)),
                                           ("conv", (16, 1))])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_int64_reference(self, kind, tile, case, carrier):
        layer, _ = make_layer(kind, True, tile, 11)
        plan = compile_layer(layer)
        rng = np.random.default_rng(len(case))
        saturating_splits(plan)
        retune(plan, case, rng)
        for nl in (0, 1, 2, 37, 300):
            cols = code_batch(plan, nl, rng)
            np.testing.assert_array_equal(run_int(plan, cols, carrier),
                                          int64_reference(plan, cols))

    def test_compiled_constants_run_the_float32_stage(self):
        # the narrow stage is the executed one for ordinary constants, and
        # only a float32 stage reduces through the float32 hi/lo rows
        layer, _ = make_layer("conv", True, (32, 1), 11)
        plan = compile_layer(layer)
        fold = plan.dequant_fold(True)
        a, s, oc = plan.n_arrays, plan.n_splits, plan.out_channels
        assert fold.mu_adc.dtype == np.float32
        assert fold.mu_adc.shape == (a, s, oc, 1)
        assert fold.reduce_split is not None
        wide = codes_fold(plan, "float64")
        assert wide.mu_adc.dtype == np.float64 and wide.reduce_split is None
        np.testing.assert_array_equal(wide.reduce_rows, fold.reduce_rows)

    def test_fused_folds_carry_no_adc_operands(self):
        layer, _ = make_layer("conv", False, (32, 1), 11)
        plan = compile_layer(layer)
        for fold in (plan.dequant_fold(True),
                     plan.int_fold(True, np.ones(plan.out_channels),
                                   np.zeros(plan.out_channels), 0, 7,
                                   np.float32)):
            assert fold.mu_adc is None and fold.reduce_split is None

    def test_compiled_constants_run_the_float32_reduce(self):
        # ordinary compiled constants certify every ADC fold of a model
        # graph, so the executed reduce is the float32 hi/lo one
        plan, x = build_model_plan()
        plan = plan.with_mode("int")
        nodes, _ = plan.graph()
        folds = [(plan.layer_plans[node.plan_index], node.attrs["fold"])
                 for node in nodes if node.op == "cim"
                 and node.attrs["fold"] is not None]
        assert folds
        for lp, fold in folds:
            assert lp.psum_quant_enabled
            assert fold.mu_adc.dtype == np.float32
            assert fold.reduce_split is not None
            assert lp.dequant_fold(True).reduce_split is not None

    @staticmethod
    def bounded_plan(last_hi: int):
        """A linear plan with ADC codes up to 128 whose reduce rows sum to
        ``|hi| = 4 * 32767 + last_hi`` (``lo = 0``) in every channel: the
        float32 reduce is certified below ``128 * sum|hi| = 2**24``."""
        layer, _ = make_layer("linear", True, (16, 1), 4)
        plan = compile_layer(layer)
        saturating_splits(plan)
        plan.psum_qmin, plan.psum_qmax = -128.0, 127.0
        rq = plan.requant
        rq.m0_adc = np.full(rq.m0_adc.shape, 2 ** 30, np.int32)  # code = p
        rq.shift_adc = np.full(rq.shift_adc.shape, 30, np.int64)
        rows = np.zeros(rq.m0_out.shape[:2], np.int32).reshape(-1)
        assert rows.size >= 5
        rows[:4] = 32767 << 16
        rows[4] = last_hi << 16
        rq.m0_out[:] = rows.reshape(rq.m0_out.shape[:2])[..., None]
        plan._build_derived()
        return plan

    @pytest.mark.parametrize("last_hi,certified", [(3, True), (4, False)])
    def test_reduce_certification_bound(self, last_hi, certified):
        plan = self.bounded_plan(last_hi)
        fold = plan.dequant_fold(True)
        assert fold.mu_adc.dtype == np.float32
        assert (fold.reduce_split is not None) == certified
        rng = np.random.default_rng(last_hi)
        for nl in (0, 1, 2, 37, 300):
            cols = code_batch(plan, nl, rng)
            got = run_int(plan, cols)
            np.testing.assert_array_equal(got, int64_reference(plan, cols))
            if nl:                       # codes reach the bound's 2**7
                start, stop = plan.row_slices[0]
                psums = cols[:1, start:stop] @ plan.mats[0]
                assert np.abs(psums).max() > 64

    @pytest.mark.parametrize("block", ["default", "tiny", "rows4", "rows3"])
    @pytest.mark.parametrize("nl", [0, 1, 2, 3, 4, 9, 13])
    def test_blocking_remainders(self, monkeypatch, block, nl):
        # the int route runs in tiles of rows sized by the tile bound; every
        # remainder shape (nl = 0, 1, k * rows + r) must stay exact, down to
        # the one-row tile
        layer, _ = make_layer("linear", True, (16, 1), 4)
        plan = compile_layer(layer)
        rng = np.random.default_rng(nl)
        saturating_splits(plan)
        retune(plan, "ties", rng)
        cols = code_batch(plan, nl, rng)
        itemsize = np.dtype(plan.requant.gemm_dtype).itemsize
        for carrier in ("auto", "float64"):
            # one row's tile buffers
            per_row = plan._column_bytes(codes_fold(plan, carrier), itemsize)
            size = {"default": plan_module._TILE_BYTES, "tiny": 1,
                    "rows4": 4 * per_row, "rows3": 3 * per_row}[block]
            monkeypatch.setattr(plan_module, "_TILE_BYTES", size)
            np.testing.assert_array_equal(run_int(plan, cols, carrier),
                                          int64_reference(plan, cols))

    def test_public_route_matches_reference(self):
        layer, x = make_layer("conv", True, (32, 1), 6)
        plan = compile_layer(layer)
        codes = plan._quantize_acts_carrier(x).astype(np.float64)
        cols = plan_module.F.unfold_array(codes, plan.kernel_size,
                                          plan.stride, plan.padding,
                                          layout="nlk")
        ref = int64_reference(plan, cols.reshape(-1, cols.shape[2]))
        n, oc = x.shape[0], plan.out_channels
        ref = ref.reshape(n, -1, oc).transpose(0, 2, 1)
        np.testing.assert_array_equal(
            plan.execute(x, plan.dequant_fold(False)).reshape(n, oc, -1), ref)


class TestCarrierGuard:
    def _tampered_layer_parts(self, key, value):
        layer, _ = make_layer("linear", True, (16, 1), 2)
        plan = compile_layer(layer)
        arrays = plan_module.plan_arrays(plan)
        arrays[key] = value(arrays[key])
        return plan_module.plan_meta(plan), arrays

    def test_shift_above_cap_is_refused(self):
        def lift(shift):
            shift = shift.copy()
            shift[0, 0, 0] = adc_shift_cap(-4, 3) + 1
            return shift
        meta, arrays = self._tampered_layer_parts("rq_shift_adc", lift)
        with pytest.raises(CarrierRangeError, match="ADC shifts"):
            plan_module.plan_from_parts(meta, arrays)

    def test_oversized_reduce_weights_are_refused(self):
        meta, arrays = self._tampered_layer_parts(
            "rq_m0_out", lambda m: np.full_like(m, INT32_MAX))
        plan_module.plan_from_parts(meta, arrays)   # int32 weights: exact
        meta, arrays = self._tampered_layer_parts(
            "rq_m0_out", lambda m: np.full(m.shape, 2 ** 52, np.int64))
        with pytest.raises(CarrierRangeError, match="mantissas"):
            plan_module.plan_from_parts(meta, arrays)

    def test_layer_artifact_load_raises_typed_error(self, tmp_path):
        layer, _ = make_layer("conv", True, (32, 1), 3)
        plan = compile_layer(layer)
        path = tmp_path / "plan.npz"
        save_layer_artifact(plan, path)
        with np.load(path) as archive:
            stored = {key: archive[key] for key in archive.files}
        key = "layer0.rq_shift_adc"
        stored[key] = np.full_like(stored[key], 55)
        np.savez(path, **stored)
        with pytest.raises(engine.ModelPlanError,
                           match="unsupported requant") as info:
            engine.load_plan(path, mode="int")
        assert isinstance(info.value.__cause__, CarrierRangeError)

    def test_model_artifact_load_raises_model_plan_error(self, tmp_path):
        plan, _ = build_model_plan()
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        with np.load(path) as archive:
            stored = {key: archive[key] for key in archive.files}
        key = next(k for k in stored if k.endswith(".rq_shift_adc"))
        stored[key] = stored[key] + 40
        np.savez(path, **stored)
        with pytest.raises(engine.ModelPlanError,
                           match="unsupported requant") as info:
            engine.load_plan(path)
        assert isinstance(info.value.__cause__, CarrierRangeError)


# --------------------------------------------------------------------------- #
# integer-only operands wait for the first integer fold
# --------------------------------------------------------------------------- #
class TestDeferredIntOperands:
    @staticmethod
    def spy(monkeypatch):
        """Record the requant constants of every ``adc_multiplier_f32``
        search: each integer fold of an ADC-route layer runs one."""
        searches = []
        search = plan_module.adc_multiplier_f32
        monkeypatch.setattr(plan_module, "adc_multiplier_f32",
                            lambda *args: searches.append(args[0])
                            or search(*args))
        return searches

    @staticmethod
    def saved(tmp_path):
        plan, x = build_model_plan()
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        return path, x

    def test_float_load_builds_no_int_operands(self, tmp_path, monkeypatch):
        path, x = self.saved(tmp_path)
        searches = self.spy(monkeypatch)
        plan = engine.load_plan(path)
        want = plan.execute(x)
        assert searches == []
        int_plan = engine.load_plan(path, mode="int")
        int_layers = [lp for lp in int_plan.layer_plans
                      if lp.requant is not None]
        assert int_layers and all(lp.psum_quant_enabled for lp in int_layers)
        # an int load builds each integer layer's operands, once
        assert sorted(map(id, searches)) == sorted(
            id(lp.requant) for lp in int_layers)
        got = int_plan.execute(x)
        np.testing.assert_array_equal(plan.execute(x), want)
        np.testing.assert_array_equal(int_plan.execute(x), got)
        assert len(searches) == len(int_layers)      # batches never build

    def test_bias_reach_is_refused_at_a_float_load(self, tmp_path):
        path, _ = self.saved(tmp_path)
        with np.load(path) as archive:
            stored = {key: archive[key] for key in archive.files}
        key = next(k for k in stored if k.endswith(".rq_bias_q"))
        stored[key] = np.full_like(stored[key], 2 ** 53)
        np.savez(path, **stored)
        with pytest.raises(engine.ModelPlanError,
                           match="unsupported requant") as info:
            engine.load_plan(path)
        assert isinstance(info.value.__cause__, CarrierRangeError)

    @pytest.mark.parametrize("quantize_psum,name", [
        (True, "rq_m0_out"), (True, "rq_s_out"), (False, "rq_m0_fused")])
    @pytest.mark.parametrize("damage", ["missing", "reshaped"])
    def test_damaged_constant_is_refused_at_a_float_load(
            self, tmp_path, quantize_psum, name, damage):
        layer, _ = make_layer("conv", quantize_psum, (16, 1), 5)
        path = tmp_path / "layer.npz"
        save_layer_artifact(compile_layer(layer), path)
        with np.load(path) as archive:
            stored = {key: archive[key] for key in archive.files}
        key = f"layer0.{name}"
        if damage == "missing":
            del stored[key]
        else:
            stored[key] = stored[key].reshape(-1)[1:]
        np.savez(path, **stored)
        with pytest.raises(engine.ModelPlanError, match=name):
            engine.load_plan(path)

# --------------------------------------------------------------------------- #
# hot-path scratch buffers belong to their plan
# --------------------------------------------------------------------------- #
def _scratch_tables(model_plan):
    """The distinct scratch tables of a model plan's layers."""
    return list({id(lp._scratch): lp._scratch
                 for lp in model_plan.layer_plans}.values())


def _scratch_refs(model_plan):
    """Weak references to every scratch buffer the calling thread holds."""
    return [weakref.ref(buf) for table in _scratch_tables(model_plan)
            for buf in table.buffers.values()]


class TestScratchOwnership:
    def test_dropped_plans_release_their_buffers(self, tmp_path):
        plan, x = build_model_plan()
        path = tmp_path / "model.npz"
        engine.save_model_plan(plan, path)
        del plan
        x = np.concatenate([x] * 4)
        tracemalloc.start()
        try:
            refs, traced = [], []
            for _ in range(8):
                loaded = engine.load_plan(path, mode="int")
                loaded.execute(x)
                per_plan = sum(buf.nbytes
                               for table in _scratch_tables(loaded)
                               for buf in table.buffers.values())
                refs.extend(_scratch_refs(loaded))
                del loaded
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert refs and per_plan > 0
        assert all(ref() is None for ref in refs)   # no live scratch buffer
        # a leak would grow by a whole plan's buffers per iteration
        assert traced[-1] - traced[0] < per_plan // 2, (traced, per_plan)

    def test_tables_are_private_per_thread_and_per_owner(self):
        table, other = ScratchTable(), ScratchTable()
        mine = table("k", (4,), np.float64)
        assert mine.shape == (4,) and mine.dtype == np.float64
        assert np.shares_memory(table("k", (4,), np.float64), mine)
        assert not np.shares_memory(other("k", (4,), np.float64), mine)
        # a request that fits reuses the key's buffer, in any shape/dtype
        small = table("k", (2, 3), np.int32)
        assert small.shape == (2, 3) and np.shares_memory(small, mine)
        grown = table("k", (5,), np.float64)          # outgrown: new buffer
        assert not np.shares_memory(grown, mine)
        seen = {}

        def worker():
            seen["buf"] = table("k", (5,), np.float64)
            seen["len"] = len(table)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert not np.shares_memory(seen["buf"], table("k", (5,), np.float64))
        assert seen["len"] == 1 and len(table) == 1

    def test_model_layers_share_one_table(self):
        """Layers run one after another, so a model plan keeps one set of
        intermediates per thread, sized by its largest layer."""
        plan, x = build_model_plan()
        plan = plan.with_mode("int")
        want = plan.execute(x)
        tables = _scratch_tables(plan)
        assert len(tables) == 1 and plan.n_cim_layers > 1
        np.testing.assert_array_equal(plan.execute(x), want)   # reused

    def test_plans_stay_copyable(self):
        # copies get an empty table of their own and execute identically
        layer, x = make_layer("conv", True, (16, 1), 8)
        plan = compile_layer(layer)
        out = plan.execute(x, plan.dequant_fold(False))
        for clone in (copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
            assert clone._scratch is not plan._scratch
            assert len(clone._scratch) == 0
            np.testing.assert_array_equal(
                clone.execute(x, clone.dequant_fold(False)), out)
