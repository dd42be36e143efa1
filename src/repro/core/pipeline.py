"""Staged CIM execution pipeline shared by the QAT layers and the frozen engine.

The paper's CIM forward — activation LSQ, tiled weight LSQ, bit-splitting,
per-array MAC, ADC partial-sum quantization, folded dequant / shift-and-add —
used to be written out three times: once in :class:`~repro.core.cim_conv.CIMConv2d`,
once in :class:`~repro.core.cim_linear.CIMLinear`, and once more inside the
frozen engine's plan compiler.  This module is the single implementation:

* :class:`LayerGeometry` captures everything static about a layer's crossbar
  mapping (array/row/split counts, padding, the valid-rows mask) once;
* a pair of *adapters* (:class:`ConvAdapter` / :class:`LinearAdapter`) holds
  the only code that differs between the two layer kinds — the unfold that
  turns activations into per-array word-line drives and the fold that turns
  the reduced partial sums back into the layer's output layout.  Conv partial
  sums carry the spatial ``L`` axis of the canonical ``(S, A, N, L, OC)``
  layout (:mod:`repro.core.psum`); linear drops it;
* the :class:`CIMPipeline` runs an ordered list of small, individually
  testable stages (:class:`ActQuantStage` … :class:`BiasStage`).  The QAT
  forward of both layers is exactly ``pipeline.run(x)``, and
  :func:`repro.engine.plan.compile_plan` builds its frozen plans by asking
  the *same* stage list for its static state (:meth:`CIMPipeline.compile_state`)
  — QAT/engine numerical parity holds by construction rather than by keeping
  three hand-written copies in sync.

The pipeline also carries a parameter-versioned static cache: the integer
tiled weight, its bit-splits and the reshaped scale/shift views depend only on
the layer's parameters, so repeated no-grad eval forwards reuse them instead
of re-deriving them from Python loops every call.  The cache keys on the
identity of the parameter arrays (every optimizer step and LSQ init assigns a
fresh array) and is bypassed whenever gradients could flow, so QAT training
semantics are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from ..cim.tiling import WeightMapping, valid_rows_mask
from ..nn import functional as F
from ..nn.module import Module
from ..nn.tensor import Tensor, is_grad_enabled, no_grad
from ..quant.bitsplit import BitSplitConfig, split_signed, split_tensor_ste
from .requant import compile_requant

__all__ = [
    "LayerGeometry",
    "ConvAdapter",
    "LinearAdapter",
    "PipelineContext",
    "CIMPipeline",
    "CIMLayerBase",
    "ActQuantStage",
    "WeightTileQuantStage",
    "BitSplitStage",
    "VariationStage",
    "MacStage",
    "RecordStage",
    "PsumQuantStage",
    "DequantShiftAddStage",
    "BiasStage",
    "varied_splits",
]


# --------------------------------------------------------------------------- #
# geometry
# --------------------------------------------------------------------------- #
@dataclass
class LayerGeometry:
    """Static crossbar geometry of one CIM layer.

    Bundles the :class:`~repro.cim.tiling.WeightMapping` and the
    :class:`~repro.quant.bitsplit.BitSplitConfig` with the convolution
    hyper-parameters (identity values for linear layers) and caches the
    derived static tensors every stage needs — most importantly the
    ``(A, R, 1)`` valid-rows mask, which the seed layers used to rebuild with
    a Python loop over tiles on every ``quantized_weight()`` call.
    """

    layer_type: str                      # "conv2d" | "linear"
    mapping: WeightMapping
    bitsplit: BitSplitConfig
    in_channels: int = 0                 # conv only
    kernel_size: Tuple[int, int] = (1, 1)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    _valid_rows_mask: Optional[np.ndarray] = field(
        init=False, repr=False, default=None)

    # ------------------------------------------------------------------ #
    @property
    def has_spatial(self) -> bool:
        """True for conv layers, whose partial sums carry the ``L`` axis."""
        return self.layer_type == "conv2d"

    @property
    def in_features(self) -> int:
        """Rows of the unrolled weight matrix (``IC*kh*kw`` for conv)."""
        return self.mapping.in_features

    @property
    def out_channels(self) -> int:
        """Columns of the unrolled weight matrix (ADC column groups)."""
        return self.mapping.out_channels

    @property
    def n_arrays(self) -> int:
        """Number of crossbar arrays along the word-line (row) direction."""
        return self.mapping.n_arrays_row

    @property
    def rows_per_array(self) -> int:
        """Uniform zero-padded word-line count per array."""
        return self.mapping.rows_per_array

    @property
    def n_splits(self) -> int:
        """Number of per-cell weight bit-splits (the ``S`` axis)."""
        return self.bitsplit.n_splits

    @property
    def pad_rows(self) -> int:
        """Zero rows appended so ``in_features`` fills ``A * R`` word lines."""
        return self.n_arrays * self.rows_per_array - self.in_features

    @property
    def shift_factors(self) -> np.ndarray:
        """Per-split shift-and-add factors ``2**(j*cell_bits)``."""
        return self.bitsplit.shift_factors

    @property
    def valid_rows_mask(self) -> np.ndarray:
        """Cached ``(A, R, 1)`` mask of word lines holding real weights."""
        if self._valid_rows_mask is None:
            self._valid_rows_mask = valid_rows_mask(self.mapping)
        return self._valid_rows_mask


# --------------------------------------------------------------------------- #
# conv / linear adapters
# --------------------------------------------------------------------------- #
class ConvAdapter:
    """Unfold/fold pair mapping ``(N, C, H, W)`` activations onto the arrays.

    Owns every conv-specific reshape: weight unrolling (im2col row order),
    the activation unfold into ``(1, A, N, L, R)`` word-line drives, the
    broadcast views of the weight scale and shift factors over the
    ``(S, A, N, L, OC)`` partial-sum layout, and the fold of the reduced
    output back to ``(N, OC, out_h, out_w)``.
    """

    def __init__(self, geometry: LayerGeometry):
        self.geometry = geometry

    def validate(self, x: Tensor) -> None:
        """Raise ``ValueError`` unless ``x`` is ``(N, in_channels, H, W)``."""
        if x.ndim != 4 or x.shape[1] != self.geometry.in_channels:
            raise ValueError(
                f"expected {self.geometry.in_channels} input channels, "
                f"got {x.shape[1] if x.ndim == 4 else x.shape}")

    def weight_matrix(self, weight: Tensor) -> Tensor:
        """Unroll ``(OC, IC, kh, kw)`` to ``(D, OC)``; row order matches unfold."""
        g = self.geometry
        return weight.transpose(1, 2, 3, 0).reshape(g.in_features, g.out_channels)

    def matrix_to_weight(self, flat: Tensor) -> Tensor:
        """Inverse of :meth:`weight_matrix`: ``(D, OC)`` back to 4-D layout."""
        g = self.geometry
        kh, kw = g.kernel_size
        return flat.reshape(g.in_channels, kh, kw, g.out_channels).transpose(3, 0, 1, 2)

    def unfold(self, ctx: "PipelineContext") -> Tensor:
        """im2col + row tiling: quantized activations to ``(1, A, N, L, R)``."""
        g = self.geometry
        _, _, h, w = ctx.x.shape
        kh, kw = g.kernel_size
        out_h = F.conv_output_size(h, kh, g.stride[0], g.padding[0])
        out_w = F.conv_output_size(w, kw, g.stride[1], g.padding[1])
        ctx.out_spatial = (out_h, out_w)
        length = out_h * out_w
        cols = F.unfold(ctx.a_int, g.kernel_size, g.stride, g.padding,
                        layout="nlk")                       # (N, L, D)
        if g.pad_rows:
            cols = cols.pad(((0, 0), (0, 0), (0, g.pad_rows)))
        cols = cols.reshape(ctx.batch, length, g.n_arrays, g.rows_per_array)
        return cols.transpose(2, 0, 1, 3).expand_dims(0)    # (1, A, N, L, R)

    def split_operand(self, splits: Tensor) -> Tensor:
        """Reshape ``(S, A, R, OC)`` cell codes for the batched conv MAC."""
        g = self.geometry
        return splits.reshape(g.n_splits, g.n_arrays, 1, g.rows_per_array,
                              g.out_channels)

    def weight_scale_view(self, s_w: Tensor) -> Tensor:
        """Broadcast the weight scale over the ``(S, A, N, L, OC)`` layout."""
        return s_w.reshape(1, s_w.shape[0], 1, 1, s_w.shape[2])

    def shift_view(self) -> Tensor:
        """Shift-and-add factors broadcast over ``(S, A, N, L, OC)``."""
        g = self.geometry
        return Tensor(g.shift_factors.reshape(g.n_splits, 1, 1, 1, 1))

    def fold(self, ctx: "PipelineContext", out: Tensor) -> Tensor:
        """Reduced ``(N, L, OC)`` output back to ``(N, OC, out_h, out_w)``."""
        g = self.geometry
        out_h, out_w = ctx.out_spatial
        return out.transpose(0, 2, 1).reshape(ctx.batch, g.out_channels,
                                              out_h, out_w)

    def bias_view(self, bias: Tensor) -> Tensor:
        """Bias broadcastable over the folded conv output."""
        return bias.reshape(1, self.geometry.out_channels, 1, 1)

    def reshape_psum_scale(self, raw: np.ndarray) -> np.ndarray:
        """Collapse the stored psum scale to the plan's ``(S|1, A|1, OC|1)``."""
        return raw.reshape(raw.shape[0], raw.shape[1], raw.shape[4]).copy()


class LinearAdapter:
    """Adapter for linear layers: the conv pair with the ``L`` axis dropped.

    Partial sums are ``(S, A, N, OC)`` — the canonical layout of
    :mod:`repro.core.psum` without the spatial axis — so every view here is
    one rank lower than its :class:`ConvAdapter` counterpart; nothing else
    differs.
    """

    def __init__(self, geometry: LayerGeometry):
        self.geometry = geometry

    def validate(self, x: Tensor) -> None:
        """Raise ``ValueError`` unless ``x`` is ``(N, in_features)``."""
        g = self.geometry
        if x.ndim != 2 or x.shape[1] != g.in_features:
            raise ValueError(
                f"expected input of shape (N, {g.in_features}), got {x.shape}")

    def weight_matrix(self, weight: Tensor) -> Tensor:
        """Transpose ``(out, in)`` to the unrolled ``(in, out)`` layout."""
        return weight.transpose()

    def matrix_to_weight(self, flat: Tensor) -> Tensor:
        """Inverse of :meth:`weight_matrix`."""
        return flat.transpose()

    def unfold(self, ctx: "PipelineContext") -> Tensor:
        """Tile quantized activations into ``(1, A, N, R)`` word-line drives."""
        g = self.geometry
        a = ctx.a_int
        if g.pad_rows:
            a = a.pad(((0, 0), (0, g.pad_rows)))
        a = a.reshape(ctx.batch, g.n_arrays, g.rows_per_array).transpose(1, 0, 2)
        return a.expand_dims(0)                             # (1, A, N, R)

    def split_operand(self, splits: Tensor) -> Tensor:
        """``(S, A, R, OC)`` cell codes are already MAC-ready for linear."""
        return splits

    def weight_scale_view(self, s_w: Tensor) -> Tensor:
        """Broadcast the weight scale over the ``(S, A, N, OC)`` layout."""
        return s_w.reshape(1, s_w.shape[0], 1, s_w.shape[2])

    def shift_view(self) -> Tensor:
        """Shift-and-add factors broadcast over ``(S, A, N, OC)``."""
        g = self.geometry
        return Tensor(g.shift_factors.reshape(g.n_splits, 1, 1, 1))

    def fold(self, ctx: "PipelineContext", out: Tensor) -> Tensor:
        """Linear output is already ``(N, OC)``; fold is the identity."""
        return out

    def bias_view(self, bias: Tensor) -> Tensor:
        """Bias broadcastable over the ``(N, OC)`` output."""
        return bias

    def reshape_psum_scale(self, raw: np.ndarray) -> np.ndarray:
        """Collapse the stored psum scale to the plan's ``(S|1, A|1, OC|1)``."""
        return raw.reshape(raw.shape[0], raw.shape[1], raw.shape[3]).copy()


# --------------------------------------------------------------------------- #
# shared variation math
# --------------------------------------------------------------------------- #
def varied_splits(splits: np.ndarray, w_bar: np.ndarray, variation) -> np.ndarray:
    """Apply a device-variation model to programmed cell codes (Eq. 5).

    ``target="cells"`` perturbs every programmed bit-split cell independently;
    ``target="weights"`` moves all cells of one weight together by scaling
    each slice with the ratio between the varied and the ideal integer weight.
    :class:`VariationStage` runs it in the QAT forward; a frozen layer with
    an enabled variation model falls back to that forward, so frozen and
    unfrozen layers draw the same perturbed cells from the same RNG state.
    """
    if variation.target == "cells":
        return variation.perturb(splits)
    w_var = variation.perturb(w_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w_bar != 0, w_var / w_bar, 1.0)
    return splits * ratio[None, ...]


# --------------------------------------------------------------------------- #
# execution context and static cache
# --------------------------------------------------------------------------- #
@dataclass
class PipelineContext:
    """Mutable state threaded through the stages of one forward pass."""

    x: Tensor
    layer: "CIMLayerBase"
    geometry: LayerGeometry
    adapter: Any
    pipeline: "CIMPipeline"
    batch: int = 0
    use_static: bool = False             # serve parameter-cached weight state
    varied: bool = False                 # variation perturbed the cell codes
    out_spatial: Optional[Tuple[int, int]] = None
    a_int: Optional[Tensor] = None       # integer activation codes
    s_a: Optional[Tensor] = None         # activation scale
    w_bar: Optional[Tensor] = None       # (A, R, OC) integer weight codes
    s_w: Optional[Tensor] = None         # weight scale
    splits: Optional[Tensor] = None      # (S, A, R, OC) cell codes
    psum: Optional[Tensor] = None        # canonical (S, A, N[, L], OC)
    psum_deq: Optional[Tensor] = None    # dequantized partial sums
    out: Optional[Tensor] = None         # layer output


class _StaticCache:
    """Parameter-versioned cache of the input-independent pipeline state.

    Holds the quantized tiled weight, its bit-splits, the MAC-ready split
    operand and the broadcast scale view.  Versioning keys on the *identity*
    of the weight / weight-scale arrays: every optimizer step and every LSQ
    (re)initialisation assigns a fresh ``.data`` array, so ``is`` comparisons
    detect staleness without hashing tensor contents.  Strong references to
    the keyed arrays are kept, so an id can never be recycled while the entry
    lives.
    """

    __slots__ = ("weight_ref", "scale_ref", "w_bar", "s_w", "splits",
                 "split_operand", "s_w_view", "hits", "misses")

    def __init__(self):
        self.weight_ref = None
        self.scale_ref = None
        self.w_bar: Optional[Tensor] = None
        self.s_w: Optional[Tensor] = None
        self.splits: Optional[Tensor] = None
        self.split_operand: Optional[Tensor] = None
        self.s_w_view: Optional[Tensor] = None
        self.hits = 0
        self.misses = 0

    def fresh(self, layer: "CIMLayerBase") -> bool:
        return (self.w_bar is not None
                and self.weight_ref is layer.weight.data
                and self.scale_ref is layer.weight_quant.scale.data)

    def invalidate(self) -> None:
        self.weight_ref = None
        self.scale_ref = None
        self.w_bar = self.s_w = self.splits = None
        self.split_operand = self.s_w_view = None


# --------------------------------------------------------------------------- #
# stages
# --------------------------------------------------------------------------- #
class PipelineStage:
    """One composable step of the CIM forward.

    ``run`` executes the stage on a :class:`PipelineContext` (differentiable
    Tensor path, used by the QAT layers).  ``compile_into`` contributes the
    stage's static state to a frozen-plan snapshot; stages with no static
    state inherit the no-op.
    """

    name = "stage"

    def run(self, ctx: PipelineContext) -> None:
        """Execute the stage, reading and writing ``ctx`` fields."""
        raise NotImplementedError

    def compile_into(self, state: dict, layer: "CIMLayerBase",
                     geometry: LayerGeometry, adapter) -> None:
        """Add this stage's static arrays to a plan snapshot (default: none)."""


class ActQuantStage(PipelineStage):
    """LSQ activation quantization: integer DAC codes plus their scale."""

    name = "act_quant"

    def run(self, ctx: PipelineContext) -> None:
        """Produce ``ctx.a_int`` / ``ctx.s_a`` (identity when unquantized)."""
        layer = ctx.layer
        if layer.act_quant is not None:
            ctx.a_int, ctx.s_a = layer.act_quant.quantize_int(ctx.x)
        else:
            ctx.a_int, ctx.s_a = ctx.x, Tensor(np.ones(1))

    def compile_into(self, state, layer, geometry, adapter) -> None:
        """Snapshot the activation scale and clip range."""
        if layer.act_quant is not None:
            state["act_scale"] = layer.act_quant.scale.data.copy()
            state["act_qmin"] = float(layer.act_quant.qmin)
            state["act_qmax"] = float(layer.act_quant.qmax)
        else:
            state["act_scale"], state["act_qmin"], state["act_qmax"] = None, 0.0, 0.0


class WeightTileQuantStage(PipelineStage):
    """LSQ weight quantization on the zero-padded tiled ``(A, R, OC)`` layout."""

    name = "weight_tile_quant"

    def run(self, ctx: PipelineContext) -> None:
        """Produce integer weight codes ``ctx.w_bar`` and scale ``ctx.s_w``."""
        if ctx.use_static:
            cache = ctx.pipeline.ensure_static(ctx.layer)
            ctx.w_bar, ctx.s_w = cache.w_bar, cache.s_w
        else:
            ctx.w_bar, ctx.s_w = ctx.layer.quantized_weight()

    def compile_into(self, state, layer, geometry, adapter) -> None:
        """Snapshot detached integer weight codes and their scale."""
        with no_grad():
            w_bar_t, s_w_t = layer.quantized_weight()
        state["w_bar"] = np.array(w_bar_t.data, dtype=np.float64, copy=True)
        state["s_w"] = np.array(s_w_t.data, dtype=np.float64, copy=True)


class BitSplitStage(PipelineStage):
    """Split integer weights into per-cell slices (Fig. 5)."""

    name = "bit_split"

    def run(self, ctx: PipelineContext) -> None:
        """Produce ``ctx.splits`` of shape ``(S, A, R, OC)``."""
        if ctx.use_static:
            ctx.splits = ctx.pipeline.ensure_static(ctx.layer).splits
        else:
            ctx.splits = split_tensor_ste(ctx.w_bar, ctx.geometry.bitsplit)

    def compile_into(self, state, layer, geometry, adapter) -> None:
        """Snapshot the cell codes and shift-and-add factors."""
        state["splits"] = split_signed(state["w_bar"], geometry.bitsplit)
        state["shift_factors"] = np.asarray(geometry.shift_factors,
                                            dtype=np.float64).copy()


class VariationStage(PipelineStage):
    """Inference-time memory-cell variation (Eq. 5); no-op when detached."""

    name = "variation"

    def run(self, ctx: PipelineContext) -> None:
        """Perturb ``ctx.splits`` through the layer's variation model."""
        variation = ctx.layer.variation
        if variation is None or not variation.enabled:
            return
        ctx.splits = Tensor(varied_splits(ctx.splits.data, ctx.w_bar.data,
                                          variation))
        ctx.varied = True


class MacStage(PipelineStage):
    """Per-array MAC over all bit-splits — the group-convolution equivalent."""

    name = "mac"

    def run(self, ctx: PipelineContext) -> None:
        """Unfold activations (adapter) and contract into ``ctx.psum``."""
        cols = ctx.adapter.unfold(ctx)
        if ctx.use_static and not ctx.varied:
            operand = ctx.pipeline.ensure_static(ctx.layer).split_operand
        else:
            operand = ctx.adapter.split_operand(ctx.splits)
        ctx.psum = cols.matmul(operand)        # canonical (S, A, N[, L], OC)


class RecordStage(PipelineStage):
    """Feed raw partial sums to an attached recorder (Fig. 6 analysis)."""

    name = "record"

    def run(self, ctx: PipelineContext) -> None:
        """Record ``ctx.psum`` when a recorder is attached."""
        recorder = ctx.layer.recorder
        if recorder is not None:
            default = "cim_conv2d" if ctx.geometry.has_spatial else "cim_linear"
            recorder.record(ctx.layer.layer_name or default, ctx.psum.data)


class PsumQuantStage(PipelineStage):
    """ADC model: LSQ partial-sum quantization at the configured granularity."""

    name = "psum_quant"

    def run(self, ctx: PipelineContext) -> None:
        """Produce ``ctx.psum_deq`` (pass-through when disabled)."""
        layer = ctx.layer
        if layer.psum_quant_enabled:
            p_bar, s_p = layer.psum_quant.quantize_int(ctx.psum)
            ctx.psum_deq = p_bar * s_p
        else:
            ctx.psum_deq = ctx.psum

    def compile_into(self, state, layer, geometry, adapter) -> None:
        """Snapshot the partial-sum scale (``(S|1, A|1, OC|1)``) and range."""
        enabled = bool(layer.psum_quant_enabled)
        state["psum_quant_enabled"] = enabled
        if enabled:
            state["s_p"] = adapter.reshape_psum_scale(layer.psum_quant.scale.data)
            state["psum_qmin"] = float(layer.psum_quant.qmin)
            state["psum_qmax"] = float(layer.psum_quant.qmax)
        else:
            state["s_p"], state["psum_qmin"], state["psum_qmax"] = None, 0.0, 0.0


class DequantShiftAddStage(PipelineStage):
    """Folded dequantization and shift-and-add reduction over ``(S, A)``."""

    name = "dequant_shift_add"

    def run(self, ctx: PipelineContext) -> None:
        """Reduce partial sums into the folded layer output ``ctx.out``."""
        if ctx.use_static:
            s_w_b = ctx.pipeline.ensure_static(ctx.layer).s_w_view
        else:
            s_w_b = ctx.adapter.weight_scale_view(ctx.s_w)
        contrib = ctx.psum_deq * ctx.pipeline.shift_tensor * s_w_b
        out = contrib.sum(axis=(0, 1)) * ctx.s_a
        ctx.out = ctx.adapter.fold(ctx, out)


class BiasStage(PipelineStage):
    """Add the (optional) bias in the layer's output layout."""

    name = "bias"

    def run(self, ctx: PipelineContext) -> None:
        """Add the bias to ``ctx.out`` when the layer has one."""
        bias = ctx.layer.bias
        if bias is not None:
            ctx.out = ctx.out + ctx.adapter.bias_view(bias)

    def compile_into(self, state, layer, geometry, adapter) -> None:
        """Snapshot a detached copy of the bias."""
        state["bias"] = None if layer.bias is None else layer.bias.data.copy()


# --------------------------------------------------------------------------- #
# the pipeline
# --------------------------------------------------------------------------- #
#: Stage classes in execution order — the single definition of the CIM forward.
DEFAULT_STAGES = (ActQuantStage, WeightTileQuantStage, BitSplitStage,
                  VariationStage, MacStage, RecordStage, PsumQuantStage,
                  DequantShiftAddStage, BiasStage)

__all__.append("DEFAULT_STAGES")


class CIMPipeline:
    """Ordered stage list executing (and compiling) one CIM layer's forward.

    Both :class:`~repro.core.cim_conv.CIMConv2d` and
    :class:`~repro.core.cim_linear.CIMLinear` delegate their entire forward to
    :meth:`run`; :func:`repro.engine.plan.compile_plan` snapshots the plan
    state through :meth:`compile_state`.  One implementation, two consumers.
    """

    def __init__(self, layer: "CIMLayerBase", geometry: LayerGeometry):
        self.layer = layer
        self.geometry = geometry
        self.adapter = (ConvAdapter(geometry) if geometry.has_spatial
                        else LinearAdapter(geometry))
        self.stages: List[PipelineStage] = [cls() for cls in DEFAULT_STAGES]
        self.shift_tensor = self.adapter.shift_view()  # constant, reused
        self._static = _StaticCache()

    # ------------------------------------------------------------------ #
    # QAT / eval execution
    # ------------------------------------------------------------------ #
    def run(self, x: Tensor) -> Tensor:
        """Run every stage on ``x`` and return the layer output."""
        self.adapter.validate(x)
        ctx = PipelineContext(x=x, layer=self.layer, geometry=self.geometry,
                              adapter=self.adapter, pipeline=self,
                              batch=x.shape[0],
                              use_static=self.static_eligible())
        for stage in self.stages:
            stage.run(ctx)
        return ctx.out

    def static_eligible(self) -> bool:
        """True when cached weight state is semantically safe to serve.

        The cache returns graph-free tensors, so it must stay out of the way
        whenever a backward pass could need the weight-side graph: training
        mode, or gradient tracking enabled while the weight or its scale still
        require gradients.  (After :func:`repro.engine.freeze`, or inside
        ``no_grad`` evaluation, neither holds and the cache serves.)
        """
        layer = self.layer
        if layer.training:
            return False
        if not is_grad_enabled():
            return True
        return not (layer.weight.requires_grad
                    or layer.weight_quant.scale.requires_grad)

    def ensure_static(self, layer: "CIMLayerBase") -> _StaticCache:
        """Return the static cache, refreshing it if the parameters moved."""
        cache = self._static
        if cache.fresh(layer):
            cache.hits += 1
            return cache
        cache.misses += 1
        with no_grad():
            w_bar, s_w = layer.quantized_weight()
            splits = split_tensor_ste(w_bar, self.geometry.bitsplit)
            cache.w_bar, cache.s_w, cache.splits = w_bar, s_w, splits
            cache.split_operand = self.adapter.split_operand(splits)
            cache.s_w_view = self.adapter.weight_scale_view(s_w)
        cache.weight_ref = layer.weight.data
        cache.scale_ref = layer.weight_quant.scale.data
        return cache

    def invalidate_static(self) -> None:
        """Drop the cached weight state (e.g. after loading a state dict)."""
        self._static.invalidate()

    @property
    def static_cache_info(self) -> Tuple[int, int]:
        """``(hits, misses)`` counters of the parameter-versioned cache."""
        return (self._static.hits, self._static.misses)

    # ------------------------------------------------------------------ #
    # plan compilation
    # ------------------------------------------------------------------ #
    def compile_state(self) -> dict:
        """Snapshot the static state of every stage for a frozen plan.

        Returns the keyword arguments shared by
        :class:`~repro.engine.plan.ConvPlan` and
        :class:`~repro.engine.plan.LinearPlan` (everything except the
        layer-kind extras and the signature).  The geometry contributes the
        structural fields; each stage contributes its own arrays, in stage
        order — so the engine compiles from the same stage list the QAT
        forward executes.  Every array is ``float64`` (or integer), the
        precision of the QAT Tensor math, and plans execute in it.
        """
        g = self.geometry
        state = dict(
            out_channels=g.out_channels,
            n_arrays=g.n_arrays,
            rows_per_array=g.rows_per_array,
            n_splits=g.n_splits,
            pad_rows=g.pad_rows,
            mapping=g.mapping,
        )
        for stage in self.stages:
            stage.compile_into(state, self.layer, g, self.adapter)
        state["requant"] = compile_requant(state)
        return state


# --------------------------------------------------------------------------- #
# shared layer scaffolding
# --------------------------------------------------------------------------- #
class CIMLayerBase(Module):
    """Common behaviour of :class:`CIMConv2d` and :class:`CIMLinear`.

    Subclasses build their parameters, mapping and quantizers, then call
    :meth:`_finalize_cim` with their :class:`LayerGeometry`; everything else —
    the staged forward, weight tiling/quantization, runtime switches — lives
    here, once.
    """

    # set by subclasses / _finalize_cim
    scheme = None
    cim_config = None
    weight = None
    bias = None
    weight_quant = None
    act_quant = None
    psum_quant = None
    mapping: Optional[WeightMapping] = None

    def _finalize_cim(self, geometry: LayerGeometry) -> None:
        """Install the pipeline and the runtime switches (call last in init)."""
        self.geometry = geometry
        self.pipeline = CIMPipeline(self, geometry)
        self.psum_quant_enabled = self.scheme.quantize_psum
        self.variation = None
        self.recorder = None
        self.layer_name: str = ""

    # ------------------------------------------------------------------ #
    # configuration helpers
    # ------------------------------------------------------------------ #
    def set_psum_quant_enabled(self, enabled: bool) -> None:
        """Toggle partial-sum quantization (used by the two-stage QAT baseline)."""
        self.psum_quant_enabled = bool(enabled)

    def set_variation(self, variation) -> None:
        """Attach (or remove) a memory-cell variation model used at inference."""
        self.variation = variation

    def attach_recorder(self, recorder, layer_name: str = "") -> None:
        """Attach a :class:`~repro.core.psum.PartialSumRecorder` to this layer."""
        self.recorder = recorder
        if layer_name:
            self.layer_name = layer_name

    @property
    def n_arrays(self) -> int:
        """Number of row-direction crossbar arrays of this layer."""
        return self.geometry.n_arrays

    @property
    def n_splits(self) -> int:
        """Number of weight bit-splits of this layer."""
        return self.geometry.n_splits

    @property
    def bitsplit(self):
        """The layer's :class:`~repro.quant.bitsplit.BitSplitConfig`.

        Delegates to the geometry — the single owner of the static structure —
        rather than mirroring it as duplicated layer state.
        """
        return self.geometry.bitsplit

    @property
    def _shift_factors(self) -> np.ndarray:
        return self.geometry.shift_factors

    # ------------------------------------------------------------------ #
    # weight preparation (shared by stages, plans, PTQ and tests)
    # ------------------------------------------------------------------ #
    def _tiled_weight(self) -> Tensor:
        """Return the zero-padded tiled weight of shape ``(A, R, OC)``."""
        g = self.geometry
        w_mat = self.pipeline.adapter.weight_matrix(self.weight)
        if g.pad_rows:
            w_mat = w_mat.pad(((0, g.pad_rows), (0, 0)))
        return w_mat.reshape(g.n_arrays, g.rows_per_array, g.out_channels)

    def _valid_rows_mask(self) -> np.ndarray:
        """Cached ``(A, R, 1)`` mask over rows that hold real weights."""
        return self.geometry.valid_rows_mask

    def quantized_weight(self) -> Tuple[Tensor, Tensor]:
        """Return ``(integer tiled weight, weight scale)``; both differentiable."""
        tiled = self._tiled_weight()
        if not self.weight_quant.is_initialized():
            # exclude zero padding rows from the scale statistics
            self.weight_quant.initialize_from(tiled.data,
                                              valid_mask=self._valid_rows_mask())
        return self.weight_quant.quantize_int(tiled)

    def reconstructed_weight(self) -> Tensor:
        """Fake-quantized weight folded back to the layer's native layout.

        Used by tests and by the dequantization-equivalence analysis: running
        the plain (non-CIM) op with this weight must match the pipeline when
        partial-sum quantization is disabled.
        """
        g = self.geometry
        w_bar, s_w = self.quantized_weight()
        flat = (w_bar * s_w).reshape(g.n_arrays * g.rows_per_array,
                                     g.out_channels)
        return self.pipeline.adapter.matrix_to_weight(flat[:g.in_features, :])

    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        """Run the staged CIM pipeline — the layer adds no math of its own."""
        return self.pipeline.run(x)
