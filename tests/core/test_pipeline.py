"""CIMPipeline: stage list, geometry, adapters, static cache, plan state."""

import zipfile

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.cim.tiling import valid_rows_mask
from repro.core import CIMConv2d, CIMLinear, CIMPipeline, LayerGeometry
from repro.core.pipeline import DEFAULT_STAGES
from repro.nn import Tensor
from repro.nn.tensor import no_grad

EXPECTED_STAGE_NAMES = ["act_quant", "weight_tile_quant", "bit_split",
                        "variation", "mac", "record", "psum_quant",
                        "dequant_shift_add", "bias"]


@pytest.fixture
def cfg():
    return CIMConfig(array_rows=32, array_cols=32, cell_bits=2)


def make_conv(cfg, rng_seed=1, **scheme_kwargs):
    return CIMConv2d(6, 8, 3, padding=1, bias=True,
                     scheme=QuantScheme(**scheme_kwargs), cim_config=cfg,
                     rng=np.random.default_rng(rng_seed))


def make_linear(cfg, rng_seed=2, **scheme_kwargs):
    return CIMLinear(40, 10, scheme=QuantScheme(**scheme_kwargs),
                     cim_config=cfg, rng=np.random.default_rng(rng_seed))


class TestStageList:
    def test_both_layer_kinds_share_the_stage_order(self, cfg):
        conv, lin = make_conv(cfg), make_linear(cfg)
        assert [s.name for s in conv.pipeline.stages] == EXPECTED_STAGE_NAMES
        assert [s.name for s in lin.pipeline.stages] == EXPECTED_STAGE_NAMES
        assert [cls().name for cls in DEFAULT_STAGES] == EXPECTED_STAGE_NAMES

    def test_forward_is_pipeline_run(self, rng, cfg):
        """The layers own no stage math: forward delegates to the pipeline."""
        conv = make_conv(cfg)
        conv.eval()
        x = Tensor(np.abs(rng.normal(size=(2, 6, 6, 6))))
        np.testing.assert_array_equal(conv(x).data, conv.pipeline.run(x).data)


class TestGeometry:
    def test_conv_geometry_fields(self, cfg):
        conv = make_conv(cfg)
        g = conv.geometry
        assert isinstance(g, LayerGeometry)
        assert g.has_spatial and g.layer_type == "conv2d"
        assert g.in_features == 6 * 3 * 3
        assert g.out_channels == 8
        assert g.n_arrays == conv.mapping.n_arrays_row
        assert g.pad_rows == g.n_arrays * g.rows_per_array - g.in_features

    def test_linear_geometry_fields(self, cfg):
        lin = make_linear(cfg)
        g = lin.geometry
        assert not g.has_spatial and g.layer_type == "linear"
        assert g.in_features == 40 and g.out_channels == 10

    def test_valid_rows_mask_is_cached_and_correct(self):
        """The (A, R, 1) mask is built once (vectorised) and shared — the seed
        rebuilt it with a Python loop over tiles on every call."""
        cfg = CIMConfig(array_rows=30, array_cols=32, cell_bits=2)
        conv = CIMConv2d(6, 8, 3, scheme=QuantScheme(), cim_config=cfg,
                         rng=np.random.default_rng(0))
        first = conv._valid_rows_mask()
        assert first is conv._valid_rows_mask()  # cached object, not a rebuild
        # matches the reference loop-built mask
        reference = np.zeros((conv.mapping.n_arrays_row,
                              conv.mapping.rows_per_array, 1))
        for tile in conv.mapping.tiles:
            reference[tile.index, :tile.rows, :] = 1.0
        np.testing.assert_array_equal(first, reference)
        np.testing.assert_array_equal(valid_rows_mask(conv.mapping), reference)

    def test_conv_and_linear_masks_share_one_implementation(self, cfg):
        lin = make_linear(cfg)
        np.testing.assert_array_equal(lin._valid_rows_mask(),
                                      valid_rows_mask(lin.mapping))


class TestStaticCache:
    def _eval_forward(self, layer, x):
        layer.eval()
        with no_grad():
            return layer(x).data.copy()

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_cache_hits_on_repeated_eval_forwards(self, rng, cfg, kind):
        layer = make_conv(cfg) if kind == "conv" else make_linear(cfg)
        shape = (2, 6, 6, 6) if kind == "conv" else (2, 40)
        x = Tensor(np.abs(rng.normal(size=shape)))
        first = self._eval_forward(layer, x)
        hits0, misses0 = layer.pipeline.static_cache_info
        assert misses0 == 1
        second = self._eval_forward(layer, x)
        hits1, misses1 = layer.pipeline.static_cache_info
        assert misses1 == 1 and hits1 > hits0
        np.testing.assert_array_equal(first, second)

    def test_cache_matches_uncached_path(self, rng, cfg):
        """Served-from-cache outputs equal the live recompute bit for bit."""
        layer = make_conv(cfg)
        x = Tensor(np.abs(rng.normal(size=(2, 6, 6, 6))))
        layer.eval()
        live = layer(x).data.copy()        # grads on -> live path
        with no_grad():
            cached = layer(x).data
        np.testing.assert_array_equal(live, cached)

    def test_parameter_update_invalidates_cache(self, rng, cfg):
        layer = make_conv(cfg)
        x = Tensor(np.abs(rng.normal(size=(1, 6, 6, 6))))
        before = self._eval_forward(layer, x)
        layer.weight.data = layer.weight.data + 0.5   # optimizer-style assign
        after = self._eval_forward(layer, x)
        _, misses = layer.pipeline.static_cache_info
        assert misses == 2
        assert not np.allclose(before, after)

    def test_invalidate_static_forces_recompute(self, rng, cfg):
        layer = make_linear(cfg)
        x = Tensor(np.abs(rng.normal(size=(2, 40))))
        self._eval_forward(layer, x)
        layer.pipeline.invalidate_static()
        self._eval_forward(layer, x)
        _, misses = layer.pipeline.static_cache_info
        assert misses == 2

    def test_training_mode_bypasses_cache(self, rng, cfg):
        layer = make_conv(cfg)
        x = Tensor(np.abs(rng.normal(size=(1, 6, 6, 6))), requires_grad=True)
        (layer(x) ** 2).sum().backward()
        assert layer.pipeline.static_cache_info == (0, 0)
        assert layer.weight.grad is not None
        assert not layer.pipeline.static_eligible()

    def test_eval_with_learnable_params_bypasses_cache(self, rng, cfg):
        """Eval + grad tracking + learnable weights must stay on the live
        path, so a later backward through the output remains possible."""
        layer = make_conv(cfg)
        layer.eval()
        layer(Tensor(np.abs(rng.normal(size=(1, 6, 6, 6)))))
        assert layer.pipeline.static_cache_info == (0, 0)

    def test_variation_reuses_cached_splits_but_not_operand(self, rng, cfg):
        """With variation attached, the cached pre-variation cell codes are
        still served; only the perturbed MAC operand is rebuilt per forward."""
        from repro.cim import VariationModel
        layer = make_conv(cfg)
        x = Tensor(np.abs(rng.normal(size=(1, 6, 6, 6))))
        clean = self._eval_forward(layer, x)
        layer.set_variation(VariationModel(sigma=0.1, seed=3))
        layer.eval()
        with no_grad():
            varied = layer(x).data
        hits, misses = layer.pipeline.static_cache_info
        assert misses == 1 and hits >= 1
        assert not np.allclose(clean, varied)


#: (weight, partial-sum) granularities; ``None`` is no partial-sum
#: quantization (the fused path)
GRANULARITY_PAIRS = [(w, p) for w in ("layer", "array", "column")
                     for p in ("layer", "array", "column", None)]
#: (weight_bits, cell_bits): one to three splits, and one 8-bit cell
BIT_SPLITS = [(3, 1), (4, 2), (8, 3), (8, 8)]


class TestCompileState:
    REQUIRED_KEYS = {"out_channels", "n_arrays", "rows_per_array", "n_splits",
                     "pad_rows", "mapping", "w_bar", "s_w", "splits",
                     "shift_factors", "bias", "act_scale", "act_qmin",
                     "act_qmax", "psum_quant_enabled", "s_p", "psum_qmin",
                     "psum_qmax", "requant"}

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_stage_list_produces_the_full_plan_state(self, rng, cfg, kind):
        layer = make_conv(cfg) if kind == "conv" else make_linear(cfg)
        shape = (1, 6, 6, 6) if kind == "conv" else (2, 40)
        layer.eval()
        layer(Tensor(np.abs(rng.normal(size=shape))))
        state = layer.pipeline.compile_state()
        assert set(state) == self.REQUIRED_KEYS
        # the bit-split reconstruction invariant survives compilation
        shifts = state["shift_factors"].reshape(-1, 1, 1, 1)
        np.testing.assert_allclose((state["splits"] * shifts).sum(axis=0),
                                   state["w_bar"], atol=0)

    @pytest.mark.parametrize("weight_bits,cell_bits", BIT_SPLITS,
                             ids=[f"w{w}c{c}" for w, c in BIT_SPLITS])
    @pytest.mark.parametrize("weight_g,psum_g", GRANULARITY_PAIRS,
                             ids=[f"{w}-{p or 'no_psum'}"
                                  for w, p in GRANULARITY_PAIRS])
    def test_engine_compiles_from_the_stage_state(self, rng, tmp_path,
                                                  weight_g, psum_g,
                                                  weight_bits, cell_bits):
        """compile_plan keeps the stage state's cell codes, once, as
        integers; the fused operand is their shift-and-add, the QAT
        layer's own weight codes, and a save/load keeps every bit."""
        cfg = CIMConfig(array_rows=32, array_cols=32, cell_bits=cell_bits,
                        adc_bits=4)
        conv = make_conv(cfg, weight_bits=weight_bits, act_bits=4,
                         psum_bits=4, weight_granularity=weight_g,
                         psum_granularity=psum_g or "column",
                         quantize_psum=psum_g is not None)
        conv.eval()
        x = Tensor(np.abs(rng.normal(size=(2, 6, 6, 6))))
        conv(x)
        if weight_bits == cell_bits:
            # one weight far below the grid clips to the code -128, the
            # minimum of int8: a narrowed |code| would wrap to -128
            weight = conv.weight.data.copy()
            weight.reshape(-1)[0] = -1e6
            conv.weight.data = weight
        plan = engine.compile_conv_plan(conv)
        state = conv.pipeline.compile_state()
        w_bar = conv.quantized_weight()[0].data
        assert plan.splits.dtype == np.int8
        if weight_bits == cell_bits:
            assert plan.splits.min() == w_bar.min() == -128
        np.testing.assert_array_equal(plan.splits, state["splits"])
        np.testing.assert_array_equal(plan.s_w, state["s_w"])
        np.testing.assert_array_equal(
            np.tensordot(plan.shift_factors, plan.splits, axes=1), w_bar)

        # both routes' GEMM operands are the QAT codes: the cell codes
        # (rows, S*OC) with partial sums quantized, else the weight codes
        s, a, r, oc = plan.splits.shape
        codes = (state["splits"].transpose(1, 2, 0, 3).reshape(a, r, s * oc)
                 if plan.psum_quant_enabled else w_bar)
        for i, (start, stop) in enumerate(plan.row_slices):
            assert plan.mats[i].dtype == plan.carrier
            np.testing.assert_array_equal(plan.mats[i],
                                          codes[i, :stop - start])

        # the integer route's bounds, restated from float64 codes
        operand = state["splits"] if plan.psum_quant_enabled else w_bar
        act_amax = max(abs(plan.act_qmin), abs(plan.act_qmax))
        acc_bound = int(plan.rows_per_array * act_amax
                        * float(np.abs(operand.astype(np.float64)).max()))
        assert plan.requant.acc_bound == acc_bound
        assert plan.requant.gemm_dtype == (
            "float32" if acc_bound < 2 ** 24 else "float64")

        builder = engine.GraphBuilder()
        output_id = builder.add_layer_plan(plan, [builder.input_id])
        path = tmp_path / "conv.npz"
        engine.save_model_plan(engine.ModelPlan(
            nodes=builder.nodes, layer_plans=builder.layer_plans,
            output_id=output_id), path)
        with zipfile.ZipFile(path) as archive:
            assert "layer0.splits.npy" in archive.namelist()
            assert not any("w_bar" in name for name in archive.namelist())
        loaded = engine.load_plan(path)
        got = loaded.layer_plans[0]
        assert got.splits.dtype == plan.splits.dtype
        np.testing.assert_array_equal(got.splits, plan.splits)
        np.testing.assert_array_equal(loaded.execute(x.data),
                                      plan.execute(x.data))
        np.testing.assert_array_equal(
            got.execute(x.data, got.dequant_fold(False)),
            plan.execute(x.data, plan.dequant_fold(False)))
