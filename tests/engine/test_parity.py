"""Acceptance parity: QAT forward vs frozen engine, compiled from one stage list.

The frozen plans are compiled from the same
:class:`~repro.core.pipeline.CIMPipeline` stage list that executes the QAT
forward, so agreement is structural — these tests pin the parity bound
(``PARITY_BOUND`` max abs diff) for both layer kinds across every weight x
partial-sum granularity and both partial-sum quantization modes, plus the
variation and recorder behaviours riding on it.
"""

import numpy as np
import pytest

from repro import engine
from repro.cim import CIMConfig, QuantScheme, VariationModel
from repro.core import CIMConv2d, CIMLinear, PartialSumRecorder
from repro.nn import Tensor

#: Max |QAT - frozen| the parity tests allow.  The two sides add the same
#: float64 terms in a different order, so they agree to rounding: a 20-seed
#: sweep of these layers over every granularity pair, both kinds and both
#: psum modes read 8.9e-16 to 4.0e-15, never 0.0 (25x headroom here).
PARITY_BOUND = 1e-13

GRANULARITIES = ("layer", "array", "column")


@pytest.fixture
def cfg():
    return CIMConfig(array_rows=32, array_cols=32, cell_bits=2)


def build_layer(kind, cfg, quantize_psum, weight_granularity="column",
                psum_granularity="column"):
    scheme = QuantScheme(weight_granularity=weight_granularity,
                         psum_granularity=psum_granularity,
                         quantize_psum=quantize_psum)
    if kind == "conv":
        return CIMConv2d(6, 8, 3, padding=1, bias=True, scheme=scheme,
                         cim_config=cfg, rng=np.random.default_rng(1))
    return CIMLinear(40, 10, bias=True, scheme=scheme, cim_config=cfg,
                     rng=np.random.default_rng(1))


def eval_batch(rng, kind):
    shape = (2, 6, 6, 6) if kind == "conv" else (4, 40)
    return Tensor(np.abs(rng.normal(size=shape)))


class TestQATvsFrozenParity:
    """QAT forward and frozen engine agree to ``PARITY_BOUND`` for both
    layer types, every granularity pair, partial-sum quantization on and off.

    The agreement is to rounding, not bit for bit, because the two sides
    order the same float64 operations differently: the QAT stages scale each
    (split, array) partial sum step by step (ADC dequant, shift factor,
    weight scale) and sum over (S, A) at once, while the plan multiplies by
    the folded ``m_fold`` (or, with partial sums unquantized, runs one GEMM
    on the shift-added weight codes) and adds the arrays one by one.
    """

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("quantize_psum", [True, False])
    @pytest.mark.parametrize("psum_g", GRANULARITIES)
    @pytest.mark.parametrize("weight_g", GRANULARITIES)
    def test_parity(self, rng, cfg, kind, quantize_psum, weight_g, psum_g):
        layer = build_layer(kind, cfg, quantize_psum, weight_g, psum_g)
        layer.eval()
        x = eval_batch(rng, kind)
        qat_out = layer(x).data.copy()
        frozen = engine.freeze(layer)
        frozen_out = frozen(x).data
        assert np.abs(frozen_out - qat_out).max() <= PARITY_BOUND

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_parity_survives_psum_toggle(self, rng, cfg, kind):
        """Toggling the ADC between compiles keeps both modes in parity."""
        layer = build_layer(kind, cfg, quantize_psum=True)
        layer.eval()
        x = eval_batch(rng, kind)
        with_psum = layer(x).data.copy()
        layer.set_psum_quant_enabled(False)
        without_psum = layer(x).data.copy()
        frozen = engine.freeze(layer)
        assert np.abs(frozen(x).data - without_psum).max() <= PARITY_BOUND
        frozen.set_psum_quant_enabled(True)
        assert np.abs(frozen(x).data - with_psum).max() <= PARITY_BOUND


class TestVariationParity:
    """target="weights" vs target="cells" behave consistently across the two
    layer kinds, and the frozen engine matches (same RNG state) or falls back
    (recorder attached) when a variation model rides along."""

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("target", ["cells", "weights"])
    def test_variation_perturbs_both_layer_kinds(self, rng, cfg, kind, target):
        layer = build_layer(kind, cfg, quantize_psum=True)
        layer.eval()
        x = eval_batch(rng, kind)
        clean = layer(x).data.copy()
        layer.set_variation(VariationModel(sigma=0.2, target=target, seed=0))
        assert not np.allclose(layer(x).data, clean)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    def test_targets_coincide_for_single_cell_weights(self, rng, kind):
        """With one cell per weight (n_splits == 1) the two targets are the
        same physical perturbation, so identical RNG states must give
        identical outputs — for conv and linear alike."""
        cfg = CIMConfig(array_rows=64, array_cols=64, cell_bits=4)
        scheme_kwargs = dict(weight_bits=4, quantize_psum=False)
        outs = {}
        for target in ("cells", "weights"):
            if kind == "conv":
                layer = CIMConv2d(4, 5, 3, scheme=QuantScheme(**scheme_kwargs),
                                  cim_config=cfg, rng=np.random.default_rng(3))
                x = Tensor(np.abs(np.random.default_rng(0).normal(size=(1, 4, 5, 5))))
            else:
                layer = CIMLinear(30, 5, scheme=QuantScheme(**scheme_kwargs),
                                  cim_config=cfg, rng=np.random.default_rng(3))
                x = Tensor(np.abs(np.random.default_rng(0).normal(size=(2, 30))))
            assert layer.n_splits == 1
            layer.eval()
            layer(x)  # initialize quantizers before attaching variation
            layer.set_variation(VariationModel(sigma=0.15, target=target, seed=11))
            outs[target] = layer(x).data.copy()
        np.testing.assert_allclose(outs["cells"], outs["weights"], atol=1e-12)

    @pytest.mark.parametrize("kind", ["conv", "linear"])
    @pytest.mark.parametrize("target", ["cells", "weights"])
    def test_frozen_matches_seed_under_variation(self, rng, cfg, kind, target):
        layer = build_layer(kind, cfg, quantize_psum=True)
        layer.eval()
        x = eval_batch(rng, kind)
        layer(x)  # initialize quantizers
        layer.set_variation(VariationModel(sigma=0.1, target=target, seed=7))
        ref = layer(x).data.copy()
        layer.set_variation(VariationModel(sigma=0.1, target=target, seed=7))
        frozen = engine.freeze(layer)
        assert np.abs(frozen(x).data - ref).max() <= 1e-10

    def test_frozen_with_variation_and_recorder_falls_back(self, rng, cfg):
        """A recorder forces the seed path even with variation attached, and
        the recorder still sees the raw (S, A, N, L, OC) partial sums."""
        layer = build_layer("conv", cfg, quantize_psum=True)
        layer.eval()
        x = eval_batch(rng, "conv")
        layer(x)
        frozen = engine.freeze(layer)
        frozen.set_variation(VariationModel(sigma=0.1, target="cells", seed=5))
        recorder = PartialSumRecorder()
        frozen.attach_recorder(recorder, "varied")
        frozen(x)
        assert "varied" in recorder.layers()
        assert len(recorder.column_values("varied")) == \
            layer.n_splits * layer.n_arrays * 8
