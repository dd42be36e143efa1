"""Engine freeze/thaw: round-trips, fast-path equivalence, fallbacks."""

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme, VariationModel
from repro.core import (CIMConv2d, CIMLinear, PartialSumRecorder, apply_variation,
                        set_psum_quant_enabled)
from repro.engine.plan import ConvPlan, LinearPlan
from repro.models import TinyCNN
from repro.nn import Tensor


def eval_input(rng, shape):
    """Post-ReLU-like activations without gradient tracking (inference batch)."""
    return Tensor(np.abs(rng.normal(size=shape)))


def make_conv(cfg, scheme, seed=1):
    return CIMConv2d(6, 8, 3, padding=1, bias=True, scheme=scheme, cim_config=cfg,
                     rng=np.random.default_rng(seed))


@pytest.fixture
def cfg():
    return CIMConfig(array_rows=32, array_cols=32, cell_bits=2)


class TestEquivalence:
    """The frozen fast path must reproduce the seed forward bit-for-bit (well
    below the 1e-10 acceptance threshold) in every configuration."""

    @pytest.mark.parametrize("psum_granularity", ["layer", "array", "column"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_conv_matches_seed(self, rng, cfg, psum_granularity, quantize_psum):
        scheme = QuantScheme(weight_granularity="column",
                             psum_granularity=psum_granularity,
                             quantize_psum=quantize_psum)
        layer = make_conv(cfg, scheme)
        layer.eval()
        x = eval_input(rng, (2, 6, 6, 6))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    @pytest.mark.parametrize("strategy", ["kernel_preserving", "im2col"])
    def test_conv_across_tilings(self, rng, strategy):
        cfg = CIMConfig(array_rows=30, array_cols=32, cell_bits=2, tiling=strategy)
        layer = make_conv(cfg, QuantScheme())
        layer.eval()
        x = eval_input(rng, (2, 6, 5, 5))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv_stride_padding(self, rng, cfg, stride, padding):
        layer = CIMConv2d(4, 6, 3, stride=stride, padding=padding,
                          scheme=QuantScheme(), cim_config=cfg,
                          rng=np.random.default_rng(2))
        layer.eval()
        x = eval_input(rng, (1, 4, 7, 7))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_linear_matches_seed(self, rng, cfg, quantize_psum):
        layer = CIMLinear(40, 10, scheme=QuantScheme(quantize_psum=quantize_psum),
                          cim_config=cfg, rng=np.random.default_rng(3))
        layer.eval()
        x = eval_input(rng, (4, 40))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    def test_conv_without_input_quant(self, rng, cfg):
        layer = CIMConv2d(3, 4, 3, scheme=QuantScheme(), cim_config=cfg,
                          quantize_input=False, rng=np.random.default_rng(4))
        layer.eval()
        x = eval_input(rng, (1, 3, 5, 5))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    @pytest.mark.parametrize("target", ["cells", "weights"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    def test_variation_same_rng(self, rng, cfg, target, quantize_psum):
        """Frozen output equals seed output with variation on, given the same
        variation-model RNG state."""
        layer = make_conv(cfg, QuantScheme(quantize_psum=quantize_psum))
        layer.eval()
        x = eval_input(rng, (1, 6, 6, 6))
        layer(x)  # initialize quantizers before attaching variation
        layer.set_variation(VariationModel(sigma=0.1, target=target, seed=7))
        ref = layer(x).data.copy()
        layer.set_variation(VariationModel(sigma=0.1, target=target, seed=7))
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    def test_model_level_freeze(self, rng):
        model = TinyCNN(num_classes=4, scheme=QuantScheme(),
                        cim_config=CIMConfig(array_rows=32, array_cols=32, cell_bits=2))
        x = eval_input(rng, (2, 3, 8, 8))
        model.eval()
        ref = model(x).data.copy()
        engine.freeze(model, calibrate=x)
        assert engine.is_frozen(model)
        assert len(list(engine.frozen_layers(model))) == 3  # 2 convs + 1 linear
        np.testing.assert_allclose(model(x).data, ref, atol=1e-10)


class TestFreezeThaw:
    def test_round_trip_restores_layers_and_outputs(self, rng, cfg):
        model = TinyCNN(num_classes=4, scheme=QuantScheme(), cim_config=cfg)
        x = eval_input(rng, (2, 3, 8, 8))
        model.eval()
        ref = model(x).data.copy()
        original_types = [type(m).__name__ for m in model.modules()]
        engine.freeze(model, calibrate=x)
        engine.thaw(model)
        assert not engine.is_frozen(model)
        assert [type(m).__name__ for m in model.modules()] == original_types
        np.testing.assert_allclose(model(x).data, ref, atol=0)

    def test_thaw_restores_requires_grad(self, rng, cfg):
        layer = make_conv(cfg, QuantScheme())
        layer.eval()
        x = eval_input(rng, (1, 6, 6, 6))
        layer(x)
        frozen = engine.freeze(layer)
        assert all(not p.requires_grad for p in frozen.parameters())
        thawed = engine.thaw(frozen)
        assert thawed is layer
        assert layer.weight.requires_grad

    def test_freeze_is_idempotent(self, rng, cfg):
        model = TinyCNN(num_classes=4, scheme=QuantScheme(), cim_config=cfg)
        x = eval_input(rng, (1, 3, 8, 8))
        engine.freeze(model, calibrate=x)
        first = [m for _, m in engine.frozen_layers(model)]
        engine.freeze(model)
        second = [m for _, m in engine.frozen_layers(model)]
        assert len(first) == len(second) == 3
        assert all(a is b for a, b in zip(first, second))
        # regression: the second freeze must not clobber the recorded
        # requires_grad flags with the already-disabled state
        engine.thaw(model)
        assert any(p.requires_grad for p in model.parameters())

    def test_frozen_wrapper_delegates_config(self, rng, cfg):
        layer = make_conv(cfg, QuantScheme())
        layer.eval()
        layer(eval_input(rng, (1, 6, 6, 6)))
        frozen = engine.freeze(layer)
        assert frozen.scheme is layer.scheme
        assert frozen.mapping is layer.mapping
        assert frozen.n_arrays == layer.n_arrays
        assert frozen.n_splits == layer.n_splits
        assert frozen.weight is layer.weight
        assert "plan=compiled" in frozen.extra_repr()


class TestFallbacks:
    def test_recorder_falls_back_to_recording_path(self, rng, cfg):
        """Regression: a frozen layer with a recorder attached must still feed
        the recorder the raw (S, A, N, L, OC) partial sums."""
        layer = make_conv(cfg, QuantScheme())
        layer.eval()
        x = eval_input(rng, (1, 6, 6, 6))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        recorder = PartialSumRecorder()
        frozen.attach_recorder(recorder, "frozen0")
        out = frozen(x)
        assert "frozen0" in recorder.layers()
        columns = recorder.column_values("frozen0")
        assert len(columns) == layer.n_splits * layer.n_arrays * 8
        np.testing.assert_allclose(out.data, ref, atol=0)
        # detaching the recorder re-enables the fast path
        frozen.attach_recorder(None)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    def test_training_mode_falls_back_to_seed_path(self, rng, cfg):
        layer = make_conv(cfg, QuantScheme())
        layer.eval()
        x = eval_input(rng, (1, 6, 6, 6))
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        frozen.train()
        np.testing.assert_allclose(frozen(x).data, ref, atol=0)
        frozen.eval()
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)

    def test_freeze_before_calibration_initializes_lazily(self, rng, cfg):
        """Freezing an unrun layer works: the first call takes the seed path
        (initializing the LSQ scales), later calls use the compiled plan."""
        layer = make_conv(cfg, QuantScheme())
        reference = make_conv(cfg, QuantScheme())
        reference.eval()
        frozen = engine.freeze(layer)
        assert frozen.plan is None
        x = eval_input(rng, (1, 6, 6, 6))
        out_first = frozen(x).data.copy()
        np.testing.assert_allclose(out_first, reference(x).data, atol=0)
        assert frozen.plan is not None
        np.testing.assert_allclose(frozen(x).data, out_first, atol=1e-10)

    def test_psum_toggle_recompiles_plan(self, rng, cfg):
        """Toggling partial-sum quantization (two-stage QAT style) after
        freezing must recompile rather than serve a stale plan."""
        layer = make_conv(cfg, QuantScheme(psum_bits=2))
        layer.eval()
        x = eval_input(rng, (1, 6, 6, 6))
        out_quant = layer(x).data.copy()
        layer.set_psum_quant_enabled(False)
        out_full = layer(x).data.copy()
        layer.set_psum_quant_enabled(True)
        frozen = engine.freeze(layer)
        np.testing.assert_allclose(frozen(x).data, out_quant, atol=1e-10)
        frozen.set_psum_quant_enabled(False)
        np.testing.assert_allclose(frozen(x).data, out_full, atol=1e-10)
        frozen.set_psum_quant_enabled(True)
        np.testing.assert_allclose(frozen(x).data, out_quant, atol=1e-10)

    def test_set_psum_quant_enabled_reaches_wrapped_layers(self, rng, cfg):
        model = TinyCNN(num_classes=4, scheme=QuantScheme(), cim_config=cfg)
        x = eval_input(rng, (1, 3, 8, 8))
        engine.freeze(model, calibrate=x)
        assert set_psum_quant_enabled(model, False) == 3
        engine.thaw(model)
        assert all(not layer.psum_quant_enabled
                   for layer in [model.features[0], model.features[3], model.fc])


def refuse_plan_execute(monkeypatch):
    """Make every compiled plan raise if it is asked to execute."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("plan.execute ran under an enabled variation model")
    for plan_cls in (ConvPlan, LinearPlan):
        monkeypatch.setattr(plan_cls, "execute", refuse)


class TestVariationFallback:
    """A plan is a deterministic recipe: while an enabled variation model is
    attached, a frozen layer runs the seed forward and never its plan."""

    @staticmethod
    def calibrated(kind, cfg, rng):
        if kind == "conv":
            layer, x = make_conv(cfg, QuantScheme()), eval_input(rng, (2, 6, 6, 6))
        else:
            layer = CIMLinear(40, 10, scheme=QuantScheme(), cim_config=cfg,
                              rng=np.random.default_rng(3))
            x = eval_input(rng, (4, 40))
        layer.eval()
        layer(x)  # initialize quantizers, so freeze compiles a plan
        return layer, x

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_enabled_variation_never_runs_the_plan(self, rng, cfg, monkeypatch,
                                                   kind):
        layer, x = self.calibrated(kind, cfg, rng)
        frozen = engine.freeze(layer)
        assert frozen.plan is not None
        refuse_plan_execute(monkeypatch)
        frozen.set_variation(VariationModel(sigma=0.1, seed=7))
        out = frozen(x).data.copy()
        layer.set_variation(VariationModel(sigma=0.1, seed=7))
        np.testing.assert_array_equal(out, layer(x).data)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_disabled_variation_runs_the_plan(self, rng, cfg, monkeypatch,
                                              kind):
        layer, x = self.calibrated(kind, cfg, rng)
        ref = layer(x).data.copy()
        frozen = engine.freeze(layer)
        frozen.set_variation(VariationModel(sigma=0.0, seed=7))
        calls = []
        for plan_cls in (ConvPlan, LinearPlan):
            original = plan_cls.execute
            def counted(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(plan_cls, "execute", counted)
        np.testing.assert_allclose(frozen(x).data, ref, atol=1e-10)
        assert calls == [type(frozen.plan).__name__]

    def test_apply_variation_after_freeze_reaches_the_seed_path(
            self, rng, cfg, monkeypatch):
        """``apply_variation`` on a frozen model sets the variation model on
        the wrapped layers directly; the check at forward time still sees
        it, and the frozen model draws the unfrozen model's cells."""
        model = TinyCNN(num_classes=4, scheme=QuantScheme(), cim_config=cfg)
        x = eval_input(rng, (2, 3, 8, 8))
        engine.freeze(model, calibrate=x)
        assert apply_variation(model, VariationModel(sigma=0.1, seed=3)) == 3
        with monkeypatch.context() as patch:
            refuse_plan_execute(patch)
            out = model(x).data.copy()
        engine.thaw(model)
        apply_variation(model, VariationModel(sigma=0.1, seed=3))
        np.testing.assert_array_equal(out, model(x).data)
