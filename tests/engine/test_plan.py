"""Compiled plans: compilation, serialization, cached im2col helpers."""

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme
from repro.cim.tiling import build_mapping, mapping_from_dict, mapping_to_dict
from repro.core import CIMConv2d, CIMLinear
from repro.nn import Tensor
from repro.nn import functional as F

from planutil import save_layer_artifact


@pytest.fixture
def cfg():
    return CIMConfig(array_rows=32, array_cols=32, cell_bits=2)


class TestCompile:
    def test_dispatch(self, rng, cfg):
        conv = CIMConv2d(4, 4, 3, scheme=QuantScheme(), cim_config=cfg, rng=rng)
        lin = CIMLinear(16, 4, scheme=QuantScheme(), cim_config=cfg, rng=rng)
        conv.eval(); lin.eval()
        conv(Tensor(np.abs(rng.normal(size=(1, 4, 5, 5)))))
        lin(Tensor(np.abs(rng.normal(size=(2, 16)))))
        assert isinstance(engine.compile_plan(conv), engine.ConvPlan)
        assert isinstance(engine.compile_plan(lin), engine.LinearPlan)
        with pytest.raises(TypeError):
            engine.compile_plan(object())

    def test_uninitialized_quantizers_raise(self, rng, cfg):
        conv = CIMConv2d(4, 4, 3, scheme=QuantScheme(), cim_config=cfg, rng=rng)
        with pytest.raises(engine.PlanNotReadyError):
            engine.compile_conv_plan(conv)

    def test_plan_caches_detached_copies(self, rng, cfg):
        """Mutating the layer after compiling must not change the plan."""
        conv = CIMConv2d(4, 4, 3, scheme=QuantScheme(), cim_config=cfg, rng=rng)
        conv.eval()
        x = Tensor(np.abs(rng.normal(size=(1, 4, 5, 5))))
        conv(x)
        plan = engine.compile_conv_plan(conv)
        before = plan.execute(x.data).copy()
        conv.weight.data = conv.weight.data + 1.0
        np.testing.assert_allclose(plan.execute(x.data), before, atol=0)


class TestSerialization:
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_conv_plan_round_trip(self, rng, cfg, tmp_path, quantize_psum):
        conv = CIMConv2d(6, 8, 3, padding=1, bias=True,
                         scheme=QuantScheme(quantize_psum=quantize_psum),
                         cim_config=cfg, rng=np.random.default_rng(1))
        conv.eval()
        x = Tensor(np.abs(rng.normal(size=(2, 6, 6, 6))))
        conv(x)
        plan = engine.compile_conv_plan(conv)
        path = tmp_path / "conv_plan.npz"
        save_layer_artifact(plan, path)
        loaded = engine.load_plan(path)
        assert isinstance(loaded.layer_plans[0], engine.ConvPlan)
        assert loaded.layer_plans[0].signature == plan.signature
        np.testing.assert_allclose(loaded.execute(x.data), plan.execute(x.data), atol=0)

    def test_linear_plan_round_trip(self, rng, cfg, tmp_path):
        lin = CIMLinear(40, 10, scheme=QuantScheme(), cim_config=cfg,
                        rng=np.random.default_rng(2))
        lin.eval()
        x = Tensor(np.abs(rng.normal(size=(4, 40))))
        lin(x)
        plan = engine.compile_linear_plan(lin)
        path = tmp_path / "linear_plan.npz"
        save_layer_artifact(plan, path)
        loaded = engine.load_plan(path)
        assert isinstance(loaded.layer_plans[0], engine.LinearPlan)
        np.testing.assert_allclose(loaded.execute(x.data), plan.execute(x.data), atol=0)

    @pytest.mark.parametrize("strategy", ["kernel_preserving", "im2col"])
    def test_mapping_round_trip(self, strategy):
        cfg = CIMConfig(array_rows=30, array_cols=16, cell_bits=2, tiling=strategy)
        mapping = build_mapping(8, 12, (3, 3), weight_bits=4, config=cfg)
        rebuilt = mapping_from_dict(mapping_to_dict(mapping))
        assert rebuilt == mapping


class TestCachedIm2col:
    def test_unfold_array_matches_unfold(self, rng):
        x = rng.normal(size=(2, 3, 7, 7))
        ref = F.unfold(Tensor(x), (3, 3), stride=2, padding=1).data
        nkl = F.unfold_array(x, (3, 3), stride=2, padding=1, layout="nkl")
        nlk = F.unfold_array(x, (3, 3), stride=2, padding=1, layout="nlk")
        np.testing.assert_array_equal(nkl, ref)
        np.testing.assert_array_equal(nlk.transpose(0, 2, 1), ref)

    def test_unknown_layout_raises(self, rng):
        with pytest.raises(ValueError):
            F.unfold_array(rng.normal(size=(1, 1, 4, 4)), (2, 2), layout="bogus")

    def test_index_cache_reused(self):
        F._im2col_flat_index_cache.cache_clear()
        x = np.zeros((1, 2, 6, 6))
        F.unfold_array(x, (3, 3))
        F.unfold_array(x, (3, 3))
        info = F._im2col_flat_index_cache.cache_info()
        assert info.hits >= 1 and info.misses == 1
