"""Compiled per-layer inference plans for the frozen CIM engine.

The QAT-oriented forward of :class:`~repro.core.cim_conv.CIMConv2d` /
:class:`~repro.core.cim_linear.CIMLinear` re-derives everything from the
learnable parameters on every call: it re-quantizes the weights, re-runs
bit-splitting, re-builds the tiled layout and re-broadcasts the dequantization
scales.  None of that depends on the input, so at inference time it is pure
overhead.  A *plan* snapshots all of it once, at freeze time:

* the integer tiled weight, stored once: as its per-cell bit-splits,
* the weight scale ``s_w``,
* the activation and partial-sum quantizer parameters (scales + clip ranges),
* the folded dequantization multiplier ``M = s_p * 2**(j*cell_bits) * s_w``
  (one multiplication per ADC column instead of three broadcast passes —
  the deployment folding of Fig. 4(d) of the paper),
* one per-array integer GEMM operand that both routes multiply by.

The snapshot is not re-derived here: :meth:`repro.core.pipeline.CIMPipeline.
compile_state` walks the *same stage list* that executes the QAT forward and
asks each stage for its static arrays.  Whatever math a stage computes at
training time is, by construction, the math the compiled plan caches.

Two execution strategies are compiled into every plan:

fused path (partial-sum quantization disabled, no recorder)
    The bit-splits are shifted and added back into the integer weight
    ``w_bar = sum_j split_j * 2**(j*cell_bits)`` (exact): one GEMM per array
    against ``w_bar``, whose ``(A, N*L, OC)`` result is scaled by ``s_w``
    per (array, column) and summed over arrays in a fixed order — the
    ``(S, A, N, L, OC)`` partial-sum intermediate (axis convention:
    :mod:`repro.core.psum`) is never materialized.

quantized path (partial-sum quantization enabled)
    The per-(split, array) partial sums are semantically observable — the ADC
    rounds each one — so the intermediate must exist; the plan computes it
    with one GEMM per array against the cell codes, quantizes every array
    in place at once, and reduces each array with one ``einsum`` against
    the folded multiplier ``M``.

Activation codes and weight or cell codes are integers, so every GEMM runs
on the plan's certified exact-integer :attr:`_PlanBase.carrier` (``float32``
for ordinary layers, see :mod:`repro.core.requant`) and a row's result does
not depend on the batch it arrives in.  Only a raw-input layer (no input
quantizer) multiplies real values, in ``float64``.

Both routes run a layer one tile of samples at a time
(:data:`_TILE_BYTES` bounds a tile's buffers, all taken from the plan's
:class:`~repro.engine.hotpath.ScratchTable`): a convolution pads each
tile, gathers its im2col rows with one ``np.take`` and finishes the tile
straight into its rows of the output; a linear layer runs as a ``1x1``
convolution over ``1x1`` maps.  ``execute(x)`` runs the float
route; ``execute(x, fold)`` runs either strategy on integer codes instead,
finished by that :class:`LayerFold` (see :meth:`_PlanBase._contract_int`
and :mod:`repro.core.requant`): the GEMMs run on the exact-integer
carrier; the quantized path's per-column ADC divide, rounding and clip run
on a ``float32`` carrier proved exact per column (else ``float64``), and
its reduce runs as one ``float32`` batched GEMM against the ``hi``/``lo``
halves of the reduce weights where :class:`LayerFold` certifies every
partial sum below ``2**24`` (else one ``float64`` GEMM) — bit-identical to
the ``int64`` fixed-point reference — and the fused path's multiply and
reduce run in ``int64``.  A :class:`LayerFold` decides
how the exact accumulator leaves the layer: as the next layer's codes or
residual-grid values through an exact per-channel requant (inside a folded
model graph, :mod:`repro.engine.intfold`), or through the one per-channel
dequant multiply (a stand-alone layer, or a model's logits).

Plans are plain data (NumPy arrays + geometry): :func:`plan_meta` /
:func:`plan_arrays` give the manifest entry and array payload a
:class:`~repro.engine.model_plan.ModelPlan` archive stores per layer, and
:func:`plan_from_parts` rebuilds the plan (:func:`plan_members` names the
arrays it cannot do without); the crossbar mapping travels along via
:func:`repro.cim.tiling.mapping_to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..cim.tiling import WeightMapping, mapping_from_dict, mapping_to_dict
from ..core.requant import (INT32_MAX, CarrierRangeError, IntRequant,
                             RequantConstants, RequantFoldError,
                             adc_multiplier_f32, carrier_multiplier,
                             check_adc_carrier, requantize_rint_f32,
                             requantize_up_f64)
from ..nn import functional as F
from .hotpath import ScratchTable, hot_path

__all__ = [
    "ConvPlan",
    "LayerFold",
    "LinearPlan",
    "PlanNotReadyError",
    "compile_plan",
    "compile_conv_plan",
    "compile_linear_plan",
    "layer_signature",
    "signature_ready",
    "plan_meta",
    "plan_arrays",
    "plan_members",
    "plan_from_parts",
]


#: Byte budget of one sample tile, on either route: a layer runs its
#: unfold, GEMMs, ADC, reduce and epilogue tile by tile, with as many
#: samples per tile as keep the tile's per-column buffers
#: (:meth:`_PlanBase._column_bytes`) within it (at least one sample).
_TILE_BYTES = 3 << 19


#: Exact-integer limit of the ``float64`` epilogue carrier.
_F64_EXACT = 2 ** 53
#: Exact-integer limit of the ``float32`` reduce.
_F32_EXACT = 2 ** 24
#: Largest left shift of a folded epilogue (keeps results far from overflow).
_MAX_LEFT_SHIFT = 256


@dataclass
class LayerFold:
    """How one CIM layer runs on the integer route: its reduce and epilogue.

    ``weights`` are the integer reduce multipliers of the accumulator
    (``(A, S, OC)`` ``float64`` for the ADC route, ``(A, 1, OC)`` ``int64``
    for the fused route); the ADC route reduces through ``reduce_rows``,
    the same values laid out ``(OC, 1, A*S)`` for one batched GEMM.
    ``mu_adc`` (ADC route) is the ``(A, S, OC, 1)`` ADC divide
    (:meth:`_PlanBase._adc_multiplier`), ``float32`` or ``float64``, and
    ``code_max`` bounds ``|code|``.  Where the ADC runs in ``float32`` and
    ``code_max`` certifies them, ``reduce_split`` holds the rows split
    exactly as ``w = hi * 2**16 + lo`` (``lo`` in ``[0, 2**16)``),
    ``(OC, 2, A*S)`` ``float32`` with ``hi`` then ``lo``: with ``code_max *
    sum|hi|`` and ``code_max * sum(lo)`` below ``2**24`` per channel, every
    partial sum of the reduce is an exact ``float32`` integer in any
    summation order.  With a ``requant`` the layer emits integer codes
    ``clip((acc + bias) >> shift, lo, hi)`` (an :class:`~repro.core.requant.
    IntRequant` with unit mantissas, so the multipliers live in
    ``weights``) in ``out_dtype``: the next layer's activation codes on its
    GEMM carrier, or residual values on a model's fine grid.  Without one,
    it dequantizes ``(acc + bias) * scale`` into ``out_dtype``,
    ``float64``.  ``codes_in`` says the input already arrives as the
    layer's activation codes, so no input quantizer runs.
    """

    codes_in: bool
    weights: np.ndarray
    out_dtype: np.dtype
    requant: Optional[IntRequant] = None
    bias: Optional[np.ndarray] = None     # dequant: (OC,) int64 bias_q
    scale: Optional[np.ndarray] = None    # dequant: (OC,) float64 unit value
    code_max: Optional[float] = None      # ADC route: max |code|
    mu_adc: Optional[np.ndarray] = None   # ADC route: (A, S, OC, 1) divide
    reduce_rows: Optional[np.ndarray] = field(init=False, repr=False,
                                              default=None)
    reduce_split: Optional[np.ndarray] = field(init=False, repr=False,
                                               default=None)

    def __post_init__(self):
        self.out_dtype = np.dtype(self.out_dtype)
        if self.weights.dtype != np.float64:
            return
        a, s, oc = self.weights.shape
        self.reduce_rows = np.ascontiguousarray(
            self.weights.transpose(2, 0, 1)).reshape(oc, 1, a * s)
        if self.mu_adc.dtype != np.float32:
            return
        rows = self.reduce_rows.astype(np.int64)
        hi, lo = rows >> 16, rows & 0xFFFF
        if self.code_max * max(
                int(np.abs(hi).sum(axis=2).max(initial=0)),
                int(lo.sum(axis=2).max(initial=0))) < _F32_EXACT:
            self.reduce_split = np.concatenate([hi, lo], axis=1).astype(
                np.float32)


class PlanNotReadyError(RuntimeError):
    """Raised when compiling a layer whose LSQ quantizers are not initialized.

    Activation and partial-sum scales are initialized from the first observed
    batch; until then there is nothing to snapshot.  Run one forward pass (or
    pass ``calibrate=`` to :func:`repro.engine.freeze`) and compile again.
    """


def layer_signature(layer) -> Tuple[bool, bool, bool]:
    """Snapshot of the layer state a compiled plan depends on.

    Returns ``(psum_quant_enabled, act_ready, psum_ready)``.  A plan compiled
    under one signature is stale once the layer's signature changes (e.g.
    partial-sum quantization was toggled by a two-stage trainer, or a lazy
    LSQ scale got initialized); :class:`~repro.engine.frozen.FrozenCIMConv2d`
    recompiles automatically when that happens.
    """
    act_ready = layer.act_quant is None or layer.act_quant.is_initialized()
    psum_enabled = bool(layer.psum_quant_enabled)
    psum_ready = (not psum_enabled) or layer.psum_quant.is_initialized()
    return (psum_enabled, act_ready, psum_ready)


def signature_ready(signature: Tuple[bool, bool, bool]) -> bool:
    """True when every quantizer a plan needs has been initialized."""
    _, act_ready, psum_ready = signature
    return act_ready and psum_ready


# --------------------------------------------------------------------------- #
# plan dataclasses
# --------------------------------------------------------------------------- #
@dataclass
class _PlanBase:
    """State shared by the convolution and linear plans.

    All arrays are detached copies — mutating the source layer after freezing
    does not change the plan (call :meth:`FrozenCIMConv2d.refresh` or re-freeze
    to pick up new parameters).
    """

    out_channels: int
    n_arrays: int
    rows_per_array: int
    n_splits: int
    pad_rows: int
    splits: np.ndarray            # (S, A, R, OC) integer cell codes
    s_w: np.ndarray               # weight scale, broadcastable to (A, R, OC)
    shift_factors: np.ndarray     # (S,) shift-and-add factors 2**(j*cell_bits)
    bias: Optional[np.ndarray]
    act_scale: Optional[np.ndarray]   # (1,) activation scale, None = raw input
    act_qmin: float
    act_qmax: float
    psum_quant_enabled: bool
    s_p: Optional[np.ndarray]     # (S|1, A|1, OC|1) partial-sum scale
    psum_qmin: float
    psum_qmax: float
    mapping: WeightMapping
    signature: Tuple[bool, bool, bool]
    requant: Optional[RequantConstants] = None  # None = float-only artifact
    # derived operands, rebuilt by _build_derived()
    row_slices: list = field(init=False, repr=False, default=None)
    carrier: np.dtype = field(init=False, repr=False, default=None)
    mats: list = field(init=False, repr=False, default=None)
    s_p_full: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    m_fold: np.ndarray = field(init=False, repr=False, default=None)
    # per-thread hot-path buffers, freed with the plan; a ModelPlan shares
    # one table across its layer plans
    _scratch: ScratchTable = field(init=False, repr=False, compare=False,
                                   default_factory=ScratchTable)

    def __post_init__(self):
        self._build_derived()

    def _build_derived(self) -> None:
        """Pre-reshape the cached arrays into GEMM-ready per-array operands.

        The tiled layout zero-pads every array to ``rows_per_array`` word
        lines, but zero rows contribute nothing to a partial sum; the derived
        operands keep only the valid rows of each tile (via the mapping's row
        partition), so the hot path never pads activation columns and never
        multiplies dead rows.  Both routes multiply by the same ``mats`` on
        the same :attr:`carrier`: the compiler's certified exact-integer
        ``requant.gemm_dtype``, else ``float64``.  ``m_fold`` is the
        ``(A, S|1, OC)`` ``float64`` multiplier of each GEMM column.
        """
        s, a, r, oc = self.splits.shape
        self.row_slices = [(t.row_start, t.row_stop) for t in self.mapping.tiles]
        self.carrier = np.dtype(np.float64 if self.requant is None
                                else self.requant.gemm_dtype)
        s_w_sq = self.s_w.reshape(self.s_w.shape[0], self.s_w.shape[2])
        if self.psum_quant_enabled:
            # (A, R, S*OC) bit-split weights
            weights = self.splits.transpose(1, 2, 0, 3).reshape(a, r, s * oc)
            self.s_p_full = np.ascontiguousarray(
                np.broadcast_to(self.s_p, (s, a, oc)).transpose(1, 0, 2))
            m = self.s_p * self.shift_factors[:, None, None] * s_w_sq[None, :, :]
        else:
            weights = np.tensordot(self.shift_factors, self.splits,
                                   axes=1)          # (A, R, OC) w_bar
            self.s_p_full = None
            m = s_w_sq[None, :, :]
        self.mats = [np.ascontiguousarray(
                         weights[i, :stop - start].astype(self.carrier))
                     for i, (start, stop) in enumerate(self.row_slices)]
        self.m_fold = np.ascontiguousarray(
            np.broadcast_to(m, (m.shape[0], a, oc)).transpose(1, 0, 2))
        self._check_int_constants()

    def _check_int_constants(self) -> None:
        """Refuse requant constants the integer route cannot run exactly.

        Runs at every build, in either mode, so a float load refuses what
        an integer one would.  Every constant the route reads must be
        present in its ``(OC,)``, ``(A, OC)`` or ``(A, S, OC)`` shape
        (else ``ValueError``; ``bias_q`` is optional).  On the ADC route,
        :func:`~repro.core.requant.check_adc_carrier` confirms the constants
        keep the ``float64`` carrier exact, and the stand-alone dequant's
        bias must keep the accumulator below ``2**53`` — either failure
        raises :class:`~repro.core.requant.CarrierRangeError`.  The operands
        themselves are built onto each integer fold (:meth:`_adc_multiplier`),
        so a float load builds none.
        """
        rq = self.requant
        if rq is None:
            return
        a, s, oc = self.n_arrays, self.n_splits, self.out_channels
        shapes = {"s_out": (oc,), "bias_q": (oc,)}
        shapes.update(dict.fromkeys(
            _ROUTE_REQUANT[self.psum_quant_enabled],
            (a, s, oc) if self.psum_quant_enabled else (a, oc)))
        for name, shape in shapes.items():
            value = getattr(rq, name)
            if (value is None and name != "bias_q") or (
                    value is not None and value.shape != shape):
                raise ValueError(
                    f"requant constant rq_{name} is "
                    f"{None if value is None else value.shape}, expected "
                    f"shape {shape}")
        if not self.psum_quant_enabled:
            return
        check_adc_carrier(rq, self.psum_qmin, self.psum_qmax)
        if rq.bias_q is not None and (
                self._acc_reach(rq.m0_out.astype(np.float64)).max()
                + float(np.abs(rq.bias_q).max()) >= _F64_EXACT):
            raise CarrierRangeError(
                "accumulator plus bias_q reaches 2**53; the float64 "
                "dequant would round before its multiply")

    def _adc_multiplier(self) -> Optional[np.ndarray]:
        """The ``(A, S, OC, 1)`` ADC divide ``m0_adc * 2**-shift_adc`` of
        the integer route (``None`` on the fused route), broadcast-ready so
        the hot loop applies every array's divide in one vectorized pass.

        A ``float32`` multiplier where :func:`~repro.core.requant.
        adc_multiplier_f32` proves that exact for every reachable partial
        sum, else the exact ``float64`` one.  Raises ``ValueError`` without
        requant constants (a raw-input layer, or a v1 artifact).
        """
        rq = self.requant
        if rq is None:
            raise ValueError(
                "this plan carries no requant constants (the artifact "
                "predates the integer execution path); recompile the layer "
                "or re-save the artifact to enable mode='int'")
        if not self.psum_quant_enabled:
            return None
        mu32 = adc_multiplier_f32(rq, self.psum_qmin, self.psum_qmax)
        return (carrier_multiplier(rq.m0_adc, rq.shift_adc)
                if mu32 is None else mu32)[..., None]

    def dequant_fold(self, codes_in: bool) -> LayerFold:
        """The stand-alone dequant fold, optionally fed activation codes:
        ``execute(x, plan.dequant_fold(False))`` runs the layer alone on the
        integer route through the stored reduce multipliers and bias.
        Raises ``ValueError`` without requant constants (a raw-input layer,
        or a v1 artifact)."""
        mu_adc = self._adc_multiplier()
        rq = self.requant
        weights = (rq.m0_out.astype(np.float64) if self.psum_quant_enabled
                   else rq.m0_fused.astype(np.int64)[:, None, :])
        return LayerFold(
            codes_in=codes_in, weights=weights, out_dtype=np.float64,
            bias=None if rq.bias_q is None else rq.bias_q.astype(np.int64),
            scale=np.ldexp(rq.s_out.astype(np.float64), -int(rq.shift)),
            code_max=self._code_max(), mu_adc=mu_adc)

    def _code_max(self) -> Optional[float]:
        """Largest ``|ADC code|``; ``None`` on the fused route."""
        if not self.psum_quant_enabled:
            return None
        return max(abs(self.psum_qmin), abs(self.psum_qmax))

    def _acc_reach(self, weights: np.ndarray) -> np.ndarray:
        """Per-channel bound on ``|acc|`` under reduce ``weights``.

        ``float64``: exact below ``2**53``, and rounding is monotone, so
        every comparison against ``2**53`` is decided correctly.
        """
        unit = self._code_max()
        if unit is None:
            unit = float(self.requant.acc_bound)
        return np.abs(weights).sum(axis=(0, 1), dtype=np.float64) * unit

    def int_fold(self, codes_in: bool, gain, offset, lo: int, hi: int,
                 out_dtype) -> LayerFold:
        """Fold a per-channel affine map and a quantizer into this layer.

        The layer's real output is ``y = s_a * X + bias``, where ``X`` is
        its accumulator in float units: each array's GEMM outputs (ADC codes
        on the ADC route) times ``m_fold``, summed.
        The returned fold emits ``clip(floor(y * gain + offset), lo, hi)``
        per channel: ``gain`` and ``offset`` (length ``OC``) carry the
        downstream BatchNorm affine, divided by the target scale, plus the
        ``+1/2`` of round-half-up.  The multiplier ``s_a * gain`` folds into
        the reduce weights — a signed int32 mantissa per (array, split,
        channel), with one shift per channel — so the epilogue is one exact
        power-of-two rescale on the ``float64`` carrier: the accumulator
        plus the integer bias stays below ``2**53``, which bounds each
        channel's shift.  Raises
        :class:`~repro.core.requant.RequantFoldError` when no shift fits,
        and ``ValueError`` without requant constants.
        """
        mu_adc = self._adc_multiplier()
        gain = np.asarray(gain, dtype=np.float64).reshape(-1)
        offset = np.asarray(offset, dtype=np.float64).reshape(-1)
        k = gain * float(self.act_scale.reshape(-1)[0])
        if self.bias is not None:
            offset = offset + gain * self.bias.astype(np.float64)
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(offset))):
            raise RequantFoldError("folded multipliers must be finite")
        scaled = self.m_fold * k                    # (A, S|1, OC)
        peak = np.abs(scaled).max(axis=(0, 1))
        # a negative shift (a grid finer than the layer's own resolution)
        # is an exact left shift of the integer accumulator
        shift = np.where(peak > 0, 31 - np.frexp(peak)[1], 0).astype(np.int64)
        while True:
            if int(shift.min()) < -_MAX_LEFT_SHIFT:
                raise RequantFoldError(
                    "a folded multiplier exceeds the float64 carrier range")
            w = np.round(np.ldexp(scaled, shift))
            over = np.abs(w).max(axis=(0, 1)) > INT32_MAX
            if over.any():
                shift = shift - over
                continue
            reach = self._acc_reach(w)
            # bias = floor(offset * 2**shift), exact (a power-of-two scale),
            # clamped where it would saturate every reachable accumulator
            bias = np.clip(np.floor(np.ldexp(offset, shift)),
                           np.floor(np.ldexp(float(lo), shift)) - reach - 1,
                           np.ceil(np.ldexp(float(hi + 1), shift)) + reach)
            retry = reach + np.abs(bias) >= _F64_EXACT
            if not retry.any():
                break
            shift = shift - retry
        requant = IntRequant((1,) * self.out_channels,
                             tuple(int(v) for v in bias),
                             tuple(int(v) for v in shift), int(lo), int(hi),
                             tuple(int(v) for v in reach))
        weights = (np.ascontiguousarray(w) if self.psum_quant_enabled
                   else w.astype(np.int64))
        return LayerFold(codes_in=codes_in, weights=weights,
                         out_dtype=out_dtype, requant=requant,
                         code_max=self._code_max(), mu_adc=mu_adc)

    @hot_path
    def _quantize_acts_carrier(self, x: np.ndarray) -> np.ndarray:
        """LSQ activation codes ``round(clamp(x / s_a))`` on :attr:`carrier`.

        The divide/clamp/round runs in ``float64`` and only the final
        (exact, small-integer) values land on the carrier, fused into the
        rounding pass; with a ``float32`` carrier every downstream unfold
        and GEMM then moves half the bytes.  Both routes quantize here.

        Registered hot: the code array is a thread-local buffer of the
        plan's :class:`~repro.engine.hotpath.ScratchTable`, fully
        overwritten by the rounding pass and consumed (by the unfold/GEMM)
        before this request returns — steady-state calls with a stable batch
        shape allocate nothing.
        """
        a = np.clip(x / self.act_scale, self.act_qmin, self.act_qmax)
        codes = self._scratch("act_codes", a.shape, self.carrier)
        return np.rint(a, out=codes, casting="unsafe")

    def _column_bytes(self, fold: Optional[LayerFold], itemsize: int) -> int:
        """Bytes of a tile's buffers per im2col column.

        ``fold`` is ``None`` on the float route; ``itemsize`` is the GEMM
        carrier's.  Counts the columns, the partial sums (with their
        ``float64`` copy where the ADC stage or reduce needs one) and the
        accumulators that :meth:`_contract_int` / :meth:`_float_tile` take
        from the scratch table.
        """
        oc = self.out_channels
        cols = self.mapping.in_features * itemsize
        if not self.psum_quant_enabled:
            wide = 0 if fold is None else 8      # the int64 products
            return cols + self.n_arrays * oc * (itemsize + wide) + 16 * oc
        lanes = self.n_arrays * self.n_splits * oc
        wide = 0 if itemsize == 8 else 8 * lanes
        if fold is None:
            return cols + lanes * itemsize + wide + 16 * oc
        if fold.reduce_split is not None:
            wide = 8 * oc                       # the hi/lo accumulators
        return cols + lanes * itemsize + wide + 8 * oc

    def _tile_samples(self, length: int, fold: Optional[LayerFold],
                      itemsize: int) -> int:
        """Samples per tile for ``length`` columns per sample."""
        return max(1, _TILE_BYTES
                   // (self._column_bytes(fold, itemsize) * length))

    @hot_path
    def _array_gemms(self, cols: np.ndarray, channel_major: bool) -> np.ndarray:
        """Every array's GEMM of one tile's ``(NL, in_features)`` columns.

        Multiplies each array's rows of ``cols`` by its operand in
        :attr:`mats` on the columns' dtype and returns the ``(A, NL, W)``
        products (``W`` is ``S*OC`` on the ADC path, ``OC`` on the fused
        path).  ``channel_major`` returns ``(A, W, NL)`` instead, through
        each operand's ``.T`` view, so the int route's ADC passes run along
        the long contiguous batch axis.  Registered hot: the products are a
        buffer of the scratch table.
        """
        nl, width = cols.shape[0], self.mats[0].shape[1]
        shape = (width, nl) if channel_major else (nl, width)
        p = self._scratch("tile_p", (len(self.mats),) + shape, cols.dtype)
        for i, (start, stop) in enumerate(self.row_slices):
            if channel_major:
                np.matmul(self.mats[i].T, cols[:, start:stop].T, out=p[i])
            else:
                np.matmul(cols[:, start:stop], self.mats[i], out=p[i])
        return p

    @hot_path
    def _contract_int(self, cols_flat: np.ndarray,
                      fold: LayerFold) -> np.ndarray:
        """Integer-route accumulator of one tile's ``(NL, in_features)`` codes.

        Returns the ``(OC, NL)`` ``float64`` accumulator reduced through
        ``fold.weights`` — exact integers throughout: the GEMMs multiply
        integer-valued operands in the certified exact-integer carrier
        dtype; the ADC stage — per-column divide, half-up rounding and
        saturation — runs on the carrier of ``fold.mu_adc``
        (:meth:`_adc_multiplier`), bit-identical to
        :func:`~repro.core.requant.requantize_up` (the argument is in
        :mod:`repro.core.requant`).  ``float32`` codes of a fold with a
        certified ``reduce_split`` stay in place and reduce through one
        ``float32`` batched GEMM against its ``hi`` and ``lo`` rows,
        recombined once as ``hi * 2**16 + lo`` in ``float64``: every
        partial sum is an integer below ``2**24`` and the result one below
        ``2**53``, so both are exact.  Other codes widen into a ``float64`` buffer for one
        ``float64`` reduce, exact below ``2**53``.  The fused route reduces
        in ``int64``.  A dequant fold's bias is already added.

        Registered hot: every intermediate lives in a thread-local buffer of
        the plan's :class:`~repro.engine.hotpath.ScratchTable`, fully
        overwritten before it is read; the returned accumulator is one of
        them, valid until the next call on this thread, so callers consume
        it at once (:meth:`_epilogue`).  Callers pass one sample tile
        (:meth:`_tile_samples`), which bounds every buffer and keeps the
        ADC passes cache-resident.  The ``int64`` section is fenced with
        ``int-pure`` markers for the static analyzer.
        """
        cols_c = cols_flat.astype(self.carrier, copy=False)
        nl = cols_flat.shape[0]
        s, oc = self.n_splits, self.out_channels
        n_arrays = len(self.row_slices)
        weights = fold.weights
        acc_t = self._scratch("tile_acc", (oc, nl), np.float64)
        p = self._array_gemms(cols_c, channel_major=self.psum_quant_enabled)
        if self.psum_quant_enabled:
            # one GEMM per array into a shared buffer, then one vectorized
            # ADC pass over all arrays at once; constants were validated and
            # verified at build time, so the hot loop carries no per-array
            # call or sign-handling overhead
            p = p.reshape(n_arrays, s, oc, nl)
            mu_adc, split = fold.mu_adc, fold.reduce_split
            if split is not None:
                codes = requantize_rint_f32(p, mu_adc, self.psum_qmin,
                                            self.psum_qmax, out=p)
            else:
                adc = (requantize_rint_f32 if mu_adc.dtype == np.float32
                       else requantize_up_f64)
                # float64 codes for the reduce; a float64 carrier is
                # rounded in place
                codes = (p if p.dtype == np.float64 else
                         self._scratch("tile_wide", p.shape, np.float64))
                adc(p, mu_adc, self.psum_qmin, self.psum_qmax, out=codes)
            # the reduce sum_{a,s} codes * weights as batched GEMMs per
            # channel over an (OC, A*S, NL) view of the codes (no copy)
            codes = codes.transpose(2, 0, 1, 3).reshape(oc, n_arrays * s, nl)
            if split is not None:
                part = self._scratch("tile_sum", (oc, 2, nl), np.float32)
                np.matmul(split, codes, out=part)
                np.multiply(part[:, 0], 65536.0, out=acc_t)     # hi * 2**16
                acc_t += part[:, 1]
            else:
                np.matmul(fold.reduce_rows, codes,
                          out=acc_t.reshape(oc, 1, nl))
            if fold.requant is None and fold.bias is not None:
                acc_t += fold.bias[:, None]      # exact: checked below 2**53
            return acc_t
        p64 = self._scratch("tile_wide", (n_arrays, nl, oc), np.int64)
        acc = self._scratch("tile_sum", (nl, oc), np.int64)
        # int-pure: begin
        np.multiply(p, weights, out=p64,         # (A, 1, OC) bcast
                    dtype=np.int64, casting="unsafe")
        np.add.reduce(p64, axis=0, out=acc)
        if fold.requant is None and fold.bias is not None:
            acc += fold.bias
        # int-pure: end
        # one conversion: exact for a requant fold (its bound keeps |acc|
        # below 2**53); a dequant rounds here, once, as float(acc + bias)
        np.copyto(acc_t, acc.T, casting="unsafe")
        return acc_t

    @hot_path
    def _epilogue(self, acc_t: np.ndarray, fold: LayerFold,
                  out: np.ndarray) -> None:
        """Finish a tile's ``(OC, NL)`` accumulator into its output rows.

        A requant fold runs :meth:`~repro.core.requant.IntRequant.execute`
        in place, ``floor(clip(acc * mu + beta, lo, hi))`` — exact, because
        ``mu`` is a power of two and ``|acc| + |bias| < 2**53`` (see
        :meth:`int_fold`); a dequant fold writes ``acc * scale``, the
        layer's one inexact multiply.  Either lands in ``out`` (the tile's
        rows of the ``(N, OC, H', W')`` ``fold.out_dtype`` result) through
        a strided view.
        """
        oc = self.out_channels
        rows, length = out.shape[0], out.shape[2] * out.shape[3]
        dst = out.reshape(rows, oc, length).transpose(1, 0, 2)
        src = acc_t.reshape(oc, rows, length)
        rq = fold.requant
        if rq is None:
            np.multiply(src, fold.scale[:, None, None], out=dst,
                        casting="unsafe")
            return
        # mu is a power of two and beta an integer / 2**shift: both exact
        rq.execute(src, dst, channel_axis=0, overwrite=True)

    @hot_path
    def _float_tile(self, cols: np.ndarray, out: np.ndarray) -> None:
        """Float route of one tile's ``(NL, in_features)`` columns into ``out``.

        Runs every array's GEMM (:meth:`_array_gemms`, the int route's
        too).  The fused path scales each array's products by ``m_fold``
        (``s_w`` per column) in ``float64``; the quantized path divides its
        partial sums by ``s_p`` in ``float64``, clips and rounds, and takes
        each array's ``einsum`` against ``m_fold``.  Either adds the arrays
        into the accumulator one by one, in array order.  Codes on the
        certified :attr:`carrier` make every GEMM exact and every later
        step elementwise, so a row's values do not depend on the tile or
        batch.  A raw-input layer's ``float64`` GEMM of real values is only
        as row-stable as BLAS, whose kernels may sum a row in another order
        for another row count (a single row runs as gemv), so there the
        tile size can move a row's last bits, within the summation-order
        error bound.  The activation scale and bias then land in ``out``,
        the tile's rows of the ``(N, OC, H', W')`` result, through a
        strided view.

        Registered hot: every intermediate comes from the plan's scratch
        table.
        """
        nl, oc = cols.shape[0], self.out_channels
        n_arrays, s = len(self.row_slices), self.n_splits
        p = self._array_gemms(cols, channel_major=False)
        if self.psum_quant_enabled:
            q = (p if p.dtype == np.float64 else
                 self._scratch("tile_wide", p.shape, np.float64))
            q = q.reshape(n_arrays, nl, s, oc)
            np.divide(p.reshape(q.shape), self.s_p_full[:, None], out=q)
            np.clip(q, self.psum_qmin, self.psum_qmax, out=q)
            np.round(q, out=q)                              # ADC codes
            # ``optimize=False`` skips the per-call path/parse machinery
            # (~50us/call).  It is only safe when no axis is singleton: the
            # optimizer can reach a BLAS kernel (different summation order,
            # different bits) solely by squeezing a length-1 axis, so with
            # every axis > 1 both settings resolve to the same ``c_einsum``
            # call and the results are bit-identical.
            optimize = not (nl > 1 and s > 1 and oc > 1)
        acc = self._scratch("tile_acc", (nl, oc), np.float64)
        term = self._scratch("tile_sum", (nl, oc), np.float64)
        acc.fill(0.0)
        for i in range(n_arrays):
            if self.psum_quant_enabled:
                np.einsum("xso,so->xo", q[i], self.m_fold[i], out=term,
                          optimize=optimize)
            else:
                np.multiply(p[i], self.m_fold[i, 0], out=term)
            acc += term
        rows, length = out.shape[0], out.shape[2] * out.shape[3]
        dst = out.reshape(rows, oc, length).transpose(0, 2, 1)
        acc = acc.reshape(rows, length, oc)
        if self.act_scale is None:
            np.copyto(dst, acc)
        else:
            np.multiply(acc, self.act_scale, out=dst)
        if self.bias is not None:
            dst += self.bias

    @hot_path
    def _tile(self, cols: np.ndarray, fold: Optional[LayerFold],
              out: np.ndarray) -> None:
        """One tile's columns into its rows of ``out``: the float route
        (:meth:`_float_tile`) when ``fold`` is ``None``, else the integer
        route (:meth:`_contract_int` then :meth:`_epilogue`)."""
        if fold is None:
            self._float_tile(cols, out)
        else:
            self._epilogue(self._contract_int(cols, fold), fold, out)

    @hot_path
    def _conv_tiles(self, a: np.ndarray, fold: Optional[LayerFold],
                    out: np.ndarray) -> None:
        """Either route of an ``(N, C, H, W)`` input into ``out``.

        The plan's ``kernel_size``, ``stride`` and ``padding`` set the
        unfold (a :class:`LinearPlan`'s are a ``1x1`` kernel, stride 1, no
        padding).  Each tile of :meth:`_tile_samples` samples is padded
        into a scratch buffer (its zero border written once per call),
        gathered into its im2col rows with one ``np.take`` and run by
        :meth:`_tile` into its rows of the ``(N, OC, H', W')`` result, so
        no buffer scales with the batch.  Registered hot: every buffer
        comes from the scratch table.
        """
        n, c, h, w = a.shape
        ph, pw = self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        index = F.unfold_index(c, hp, wp, self.kernel_size, self.stride,
                               layout="nlk")                # (L, D)
        length, depth = index.shape
        step = max(1, min(self._tile_samples(length, fold, a.dtype.itemsize),
                          n))
        padded = None
        if ph or pw:
            padded = self._scratch("tile_pad", (step, c, hp, wp), a.dtype)
            padded.fill(0)
        for k in range(0, n, step):
            rows = min(step, n - k)
            src = a[k:k + rows]
            if padded is not None:
                padded[:rows, :, ph:ph + h, pw:pw + w] = src
                src = padded[:rows]
            cols = self._scratch("tile_cols", (rows, length, depth), a.dtype)
            # mode="clip" skips the bounds-check buffering of mode="raise";
            # every index is in range by construction
            np.take(src.reshape(rows, c * hp * wp), index, axis=1, out=cols,
                    mode="clip")
            self._tile(cols.reshape(rows * length, depth), fold,
                       out[k:k + rows])

    def _run(self, x: np.ndarray, fold: Optional[LayerFold],
             out_shape: tuple) -> np.ndarray:
        """This plan's route from the layer input to a fresh layer output.

        ``fold`` picks the route: ``None`` is the float route, a
        :class:`LayerFold` the integer route it finishes.  Unless the fold
        says ``x`` holds its codes, ``x`` is taken as ``float64`` and, with
        an input quantizer, quantized onto the carrier.  ``x`` is
        ``(N, C, H, W)`` (a linear layer's rows as ``1x1`` maps) and
        :meth:`_conv_tiles` finishes every tile straight into its rows of
        the ``(N, OC, H', W')`` result.
        """
        if fold is None or not fold.codes_in:
            x = np.asarray(x, dtype=np.float64)
            if self.act_scale is not None:
                x = self._quantize_acts_carrier(x)
        out = np.empty(out_shape, dtype=np.float64 if fold is None
                       else fold.out_dtype)
        self._conv_tiles(x, fold, out)
        return out


@dataclass
class ConvPlan(_PlanBase):
    """Frozen inference plan of one :class:`~repro.core.cim_conv.CIMConv2d`."""

    in_channels: int = 0
    kernel_size: Tuple[int, int] = (1, 1)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)

    layer_type = "conv2d"

    def execute(self, x: np.ndarray,
                fold: Optional[LayerFold] = None) -> np.ndarray:
        """Run the frozen forward on a ``(N, C, H, W)`` activation array.

        Without ``fold`` this is the float route; with one, the integer
        route finished by that :class:`LayerFold` (a folded model graph's,
        or :meth:`dequant_fold` for a stand-alone layer).
        """
        x = np.asarray(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride[0], self.padding[0])
        out_w = F.conv_output_size(w, kw, self.stride[1], self.padding[1])
        return self._run(x, fold, (n, self.out_channels, out_h, out_w))


@dataclass
class LinearPlan(_PlanBase):
    """Frozen inference plan of one :class:`~repro.core.cim_linear.CIMLinear`."""

    in_features: int = 0

    layer_type = "linear"
    # a linear layer runs as a 1x1 convolution over 1x1 maps
    kernel_size = (1, 1)
    stride = (1, 1)
    padding = (0, 0)

    def execute(self, x: np.ndarray,
                fold: Optional[LayerFold] = None) -> np.ndarray:
        """Run the frozen forward on a ``(N, in_features)`` activation array.

        ``fold`` picks the route as documented on :meth:`ConvPlan.execute`.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N, {self.in_features}), got {x.shape}")
        n = x.shape[0]
        out = self._run(x.reshape(n, self.in_features, 1, 1), fold,
                        (n, self.out_channels, 1, 1))
        return out.reshape(n, self.out_channels)


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def _snapshot_common(layer, signature) -> dict:
    """Detached copies of everything both plan kinds cache.

    Compiled from the layer's own stage list: each
    :class:`~repro.core.pipeline.PipelineStage` contributes the static arrays
    it would compute in the QAT forward (weight codes, bit-splits, quantizer
    snapshots, the bias), and the
    :class:`~repro.core.pipeline.LayerGeometry` contributes the structural
    fields.  The plan never re-derives stage math.  It keeps the weights
    once, as ``splits`` in the narrowest signed integer dtype holding them.
    """
    state = layer.pipeline.compile_state()
    del state["w_bar"]
    codes = state["splits"]
    lo, hi = int(codes.min(initial=0)), int(codes.max(initial=0))
    state["splits"] = codes.astype(next(
        t for t in (np.int8, np.int16, np.int32, np.int64)
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max))
    state["signature"] = signature
    return state


def compile_conv_plan(layer) -> ConvPlan:
    """Compile a :class:`~repro.core.cim_conv.CIMConv2d` into a :class:`ConvPlan`.

    Raises :class:`PlanNotReadyError` if the layer's lazily-initialized LSQ
    scales have not yet observed a batch.  The plan executes in ``float64``,
    the precision of the QAT Tensor math it snapshots.
    """
    signature = layer_signature(layer)
    if not signature_ready(signature):
        raise PlanNotReadyError(
            "activation / partial-sum quantizers are uninitialized; run one "
            "forward pass (or freeze with calibrate=...) before compiling")
    return ConvPlan(in_channels=layer.in_channels,
                    kernel_size=layer.kernel_size,
                    stride=layer.stride,
                    padding=layer.padding,
                    **_snapshot_common(layer, signature))


def compile_linear_plan(layer) -> LinearPlan:
    """Compile a :class:`~repro.core.cim_linear.CIMLinear` into a :class:`LinearPlan`."""
    signature = layer_signature(layer)
    if not signature_ready(signature):
        raise PlanNotReadyError(
            "activation / partial-sum quantizers are uninitialized; run one "
            "forward pass (or freeze with calibrate=...) before compiling")
    return LinearPlan(in_features=layer.in_features,
                      **_snapshot_common(layer, signature))


def compile_plan(layer):
    """Compile a plan for any CIM layer (dispatch on the layer type)."""
    from ..core.cim_conv import CIMConv2d
    from ..core.cim_linear import CIMLinear
    if isinstance(layer, CIMConv2d):
        return compile_conv_plan(layer)
    if isinstance(layer, CIMLinear):
        return compile_linear_plan(layer)
    raise TypeError(f"cannot compile a plan for {type(layer).__name__}")


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #
_ARRAY_FIELDS = ("splits", "s_w", "shift_factors", "bias", "act_scale",
                 "s_p")

#: The multipliers of the ADC (partial sums quantized) and the fused
#: integer route, by ``psum_quant_enabled``.
_ROUTE_REQUANT = {True: ("m0_adc", "shift_adc", "m0_out"),
                  False: ("m0_fused",)}


def plan_meta(plan) -> dict:
    """JSON-serializable metadata of one layer plan (everything non-array).

    This is the single owner of the layer-plan manifest schema: the
    ``layers`` section of a :class:`~repro.engine.model_plan.ModelPlan`
    manifest embeds exactly this dictionary per layer.
    """
    meta = {
        "layer_type": plan.layer_type,
        "out_channels": plan.out_channels,
        "n_arrays": plan.n_arrays,
        "rows_per_array": plan.rows_per_array,
        "n_splits": plan.n_splits,
        "pad_rows": plan.pad_rows,
        "act_qmin": plan.act_qmin,
        "act_qmax": plan.act_qmax,
        "psum_quant_enabled": plan.psum_quant_enabled,
        "psum_qmin": plan.psum_qmin,
        "psum_qmax": plan.psum_qmax,
        "signature": list(plan.signature),
        "mapping": mapping_to_dict(plan.mapping),
        "requant": None if plan.requant is None else plan.requant.meta(),
    }
    if isinstance(plan, ConvPlan):
        meta.update(in_channels=plan.in_channels,
                    kernel_size=list(plan.kernel_size),
                    stride=list(plan.stride),
                    padding=list(plan.padding))
    else:
        meta.update(in_features=plan.in_features)
    return meta


def plan_arrays(plan) -> dict:
    """The plan's array payload, keyed by field name (``None`` fields omitted).

    Requant constants travel as additional ``rq_*`` entries so the archive
    stays a flat array namespace; float-only plans simply have none.
    """
    arrays = {name: getattr(plan, name) for name in _ARRAY_FIELDS
              if getattr(plan, name) is not None}
    if plan.requant is not None:
        arrays.update(plan.requant.arrays())
    return arrays


def plan_members(meta: dict) -> Tuple[str, ...]:
    """The array payload keys a layer with manifest entry ``meta`` requires.

    The weights (``splits``, ``s_w``, ``shift_factors``), ``s_p`` when
    partial sums are quantized, and the requant arrays the layer's integer
    route reads when ``meta`` carries requant constants (``rq_s_out``, then
    the ADC or the fused multipliers).  ``bias``, ``act_scale`` and
    ``rq_bias_q`` are optional, and keys older writers stored (``w_bar``)
    are never read.
    """
    adc = bool(meta["psum_quant_enabled"])
    names = ("splits", "s_w", "shift_factors") + (("s_p",) if adc else ())
    if meta.get("requant") is not None:
        names += tuple(f"rq_{name}"
                       for name in ("s_out",) + _ROUTE_REQUANT[adc])
    return names


def plan_from_parts(meta: dict, arrays: dict):
    """Rebuild a :class:`ConvPlan` / :class:`LinearPlan` from manifest + arrays.

    Inverse of (:func:`plan_meta`, :func:`plan_arrays`); used by the
    model-plan loader.
    """
    common = dict(
        out_channels=int(meta["out_channels"]),
        n_arrays=int(meta["n_arrays"]),
        rows_per_array=int(meta["rows_per_array"]),
        n_splits=int(meta["n_splits"]),
        pad_rows=int(meta["pad_rows"]),
        act_qmin=float(meta["act_qmin"]),
        act_qmax=float(meta["act_qmax"]),
        psum_quant_enabled=bool(meta["psum_quant_enabled"]),
        psum_qmin=float(meta["psum_qmin"]),
        psum_qmax=float(meta["psum_qmax"]),
        signature=tuple(meta["signature"]),
        mapping=mapping_from_dict(meta["mapping"]),
        requant=(None if meta.get("requant") is None else
                 RequantConstants.from_parts(meta["requant"], arrays)),
        **{name: arrays.get(name) for name in _ARRAY_FIELDS},
    )
    if meta["layer_type"] == "conv2d":
        return ConvPlan(in_channels=int(meta["in_channels"]),
                        kernel_size=tuple(meta["kernel_size"]),
                        stride=tuple(meta["stride"]),
                        padding=tuple(meta["padding"]),
                        **common)
    return LinearPlan(in_features=int(meta["in_features"]), **common)
