"""Compiled per-layer inference plans for the frozen CIM engine.

The QAT-oriented forward of :class:`~repro.core.cim_conv.CIMConv2d` /
:class:`~repro.core.cim_linear.CIMLinear` re-derives everything from the
learnable parameters on every call: it re-quantizes the weights, re-runs
bit-splitting, re-builds the tiled layout and re-broadcasts the dequantization
scales.  None of that depends on the input, so at inference time it is pure
overhead.  A *plan* snapshots all of it once, at freeze time:

* the integer tiled weight ``w_bar`` and its per-cell bit-splits,
* the weight scale ``s_w`` and the valid-rows mask of the tiling,
* the activation and partial-sum quantizer parameters (scales + clip ranges),
* the folded dequantization multiplier ``M = s_p * 2**(j*cell_bits) * s_w``
  (one multiplication per ADC column instead of three broadcast passes —
  the deployment folding of Fig. 4(d) of the paper),
* a pre-reshaped weight operand for a single batched GEMM per layer.

The snapshot is not re-derived here: :meth:`repro.core.pipeline.CIMPipeline.
compile_state` walks the *same stage list* that executes the QAT forward and
asks each stage for its static arrays.  Whatever math a stage computes at
training time is, by construction, the math the compiled plan caches.

Two execution strategies are compiled into every plan:

fused path (partial-sum quantization disabled, no recorder)
    The bit-splits are folded back into the integer weight (exact, since
    ``sum_j split_j * 2**(j*cell_bits) == w_bar``), the weight scale is folded
    in, and the whole layer collapses to **one** GEMM over the activation
    columns — the ``(S, A, N, L, OC)`` partial-sum intermediate (axis
    convention: :mod:`repro.core.psum`) is never materialized.

quantized path (partial-sum quantization enabled)
    The per-(split, array) partial sums are semantically observable — the ADC
    rounds each one — so the intermediate must exist; the plan computes it
    with a single batched GEMM over arrays, quantizes in place, and reduces
    with one ``einsum`` against the folded multiplier ``M``.

``mode="int"`` executes either strategy on integer codes instead (see
:meth:`_PlanBase._contract_int` and :mod:`repro.core.requant`), one tile
of samples at a time (:data:`_INT_TILE` bounds every tile buffer): the
GEMMs run on an exact-integer float carrier, the quantized path's
per-column ADC divide, rounding and clip run on a ``float32`` carrier
proved exact per column (else ``float64``) and its reduce, one batched
GEMM, on an exact ``float64`` carrier — bit-identical to the ``int64``
fixed-point reference — and the fused path's multiply and reduce run in
``int64``.  A :class:`LayerFold` decides
how the exact accumulator leaves the layer: as the next layer's codes or
residual-grid values through an exact per-channel requant (inside a folded
model graph, :mod:`repro.engine.intfold`), or through the one per-channel
dequant multiply (a stand-alone layer, or a model's logits).

Plans are plain data (NumPy arrays + geometry): :func:`plan_meta` /
:func:`plan_arrays` give the manifest entry and array payload a
:class:`~repro.engine.model_plan.ModelPlan` archive stores per layer, and
:func:`plan_from_parts` rebuilds the plan; the crossbar mapping travels
along via :func:`repro.cim.tiling.mapping_to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Tuple

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
    "plan_from_parts",
]


#: Element budget of one sample tile of the integer route: a layer runs
#: its unfold, GEMMs, ADC, reduce and epilogue tile by tile, with as many
#: samples per tile as keep the largest tile buffer, ``max(D, A*S*OC)``
#: by the tile's columns, within it (at least one sample).
_INT_TILE = 1 << 17


#: Exact-integer limit of the ``float64`` epilogue carrier.
_F64_EXACT = 2 ** 53
#: Largest left shift of a folded epilogue (keeps results far from overflow).
_MAX_LEFT_SHIFT = 256


@dataclass
class LayerFold:
    """How one CIM layer runs on the integer route: its reduce and epilogue.

    ``weights`` are the integer reduce multipliers of the accumulator
    (``(A, S, OC)`` ``float64`` for the ADC route, ``(A, 1, OC)`` ``int64``
    for the fused route); the ADC route reduces through ``reduce_rows``,
    the same values laid out ``(OC, 1, A*S)`` for one batched GEMM.  With
    a ``requant`` the layer emits integer codes
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
    reduce_rows: Optional[np.ndarray] = field(init=False, repr=False,
                                              default=None)

    def __post_init__(self):
        self.out_dtype = np.dtype(self.out_dtype)
        if self.weights.dtype == np.float64:
            a, s, oc = self.weights.shape
            self.reduce_rows = np.ascontiguousarray(
                self.weights.transpose(2, 0, 1)).reshape(oc, 1, a * s)


class _IntOperands(NamedTuple):
    """Integer-route operands of one layer plan (``_build_int_operands``)."""

    mats: list                      # per-array GEMM weights on the carrier
    mu_adc: Optional[np.ndarray]    # (A, S, OC, 1) ADC divide, ADC route
    dequant: LayerFold              # the stand-alone dequant fold


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
    w_bar: np.ndarray             # (A, R, OC) integer weight codes
    splits: np.ndarray            # (S, A, R, OC) integer cell codes
    s_w: np.ndarray               # weight scale, broadcastable to (A, R, OC)
    valid_mask: np.ndarray        # (A, R, 1) rows holding real weights
    shift_factors: np.ndarray     # (S,) shift-and-add factors 2**(j*cell_bits)
    w_eff_mat: np.ndarray         # (A*R, OC) folded weight for the fused path
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
    mode: str = field(default="float", repr=False)  # runtime, not serialized
    # derived operands, rebuilt by _build_derived()
    row_slices: list = field(init=False, repr=False, default=None)
    w_split_mats: list = field(init=False, repr=False, default=None)
    w_eff_valid: np.ndarray = field(init=False, repr=False, default=None)
    s_p_full: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    m_fold: Optional[np.ndarray] = field(init=False, repr=False, default=None)
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
        multiplies dead rows.
        """
        s, a, r, oc = self.splits.shape
        self.row_slices = [(t.row_start, t.row_stop) for t in self.mapping.tiles]
        # per-array (rows_a, S*OC) bit-split weights for the quantized path
        self.w_split_mats = [
            np.ascontiguousarray(
                self.splits[:, i, :stop - start, :].transpose(1, 0, 2)
            ).reshape(stop - start, s * oc)
            for i, (start, stop) in enumerate(self.row_slices)]
        # (in_features, OC) folded weight for the fused path (valid rows only)
        self.w_eff_valid = np.concatenate(
            [self.w_eff_mat[i * r:i * r + (stop - start)]
             for i, (start, stop) in enumerate(self.row_slices)], axis=0)
        if self.psum_quant_enabled and self.s_p is not None:
            self.s_p_full = np.ascontiguousarray(
                np.broadcast_to(self.s_p, (s, a, oc)).transpose(1, 0, 2))
            s_w_sq = self.s_w.reshape(self.s_w.shape[0], self.s_w.shape[2])
            m = self.s_p * self.shift_factors[:, None, None] * s_w_sq[None, :, :]
            self.m_fold = np.ascontiguousarray(
                np.broadcast_to(m, (s, a, oc)).transpose(1, 0, 2))
        else:
            self.s_p_full = None
            self.m_fold = None
        self._build_int_operands()

    def _build_int_operands(self) -> None:
        """GEMM-ready integer-route operands (``None`` for float-only plans).

        The integer weights are carried in the exact-integer GEMM dtype the
        compiler certified (``requant.gemm_dtype`` — see
        :mod:`repro.core.requant`).  On the ADC route,
        :func:`~repro.core.requant.check_adc_carrier` first confirms the
        constants keep the ``float64`` carrier exact, and the stand-alone
        dequant's bias must keep the accumulator below ``2**53`` — either
        failure raises :class:`~repro.core.requant.CarrierRangeError`.  The
        ADC divide ``m0_adc * 2**-shift_adc`` becomes a ``float32``
        multiplier where :func:`~repro.core.requant.adc_multiplier_f32`
        proves that exact for every reachable partial sum, else the exact
        ``float64`` one.  The stored reduce multipliers and bias form the
        layer's default :class:`LayerFold`, the dequant used when no folded
        graph supplies one.
        """
        self._int_ops = None
        rq = self.requant
        if rq is None:
            return
        carrier = np.dtype(rq.gemm_dtype)
        s, _, _, oc = self.splits.shape
        mu_adc = None
        if self.psum_quant_enabled:
            check_adc_carrier(rq, self.psum_qmin, self.psum_qmax)
            # per-array (S*OC, rows_a) weights: the GEMM writes partial sums
            # channel-major, (S*OC, NL), so the ADC passes run along the
            # long contiguous batch axis
            mats = [np.ascontiguousarray(
                        self.splits[:, i, :stop - start, :].transpose(0, 2, 1)
                        .astype(carrier)).reshape(s * oc, stop - start)
                    for i, (start, stop) in enumerate(self.row_slices)]
            # broadcast-ready (A, S, OC, 1) so the hot loop applies every
            # array's ADC divide in one vectorized pass
            mu32 = adc_multiplier_f32(rq, self.psum_qmin, self.psum_qmax)
            mu_adc = (carrier_multiplier(rq.m0_adc, rq.shift_adc)
                      if mu32 is None else mu32)[..., None]
            weights = rq.m0_out.astype(np.float64)
            if rq.bias_q is not None and (
                    self._acc_reach(weights).max()
                    + float(np.abs(rq.bias_q).max()) >= _F64_EXACT):
                raise CarrierRangeError(
                    "accumulator plus bias_q reaches 2**53; the float64 "
                    "dequant would round before its multiply")
        else:
            mats = [np.ascontiguousarray(
                        self.w_bar[i, :stop - start, :].astype(carrier))
                    for i, (start, stop) in enumerate(self.row_slices)]
            weights = rq.m0_fused.astype(np.int64)[:, None, :]
        dequant = LayerFold(
            codes_in=False, weights=weights, out_dtype=np.float64,
            bias=None if rq.bias_q is None else rq.bias_q.astype(np.int64),
            scale=np.ldexp(rq.s_out.astype(np.float64), -int(rq.shift)))
        self._int_ops = _IntOperands(mats, mu_adc, dequant)

    def dequant_fold(self, codes_in: bool) -> LayerFold:
        """The stand-alone dequant fold, optionally fed activation codes."""
        return replace(self._int_ops.dequant, codes_in=codes_in)

    def _acc_reach(self, weights: np.ndarray) -> np.ndarray:
        """Per-channel bound on ``|acc|`` under reduce ``weights``.

        ``float64``: exact below ``2**53``, and rounding is monotone, so
        every comparison against ``2**53`` is decided correctly.
        """
        if self.psum_quant_enabled:
            unit = max(abs(self.psum_qmin), abs(self.psum_qmax))
        else:
            unit = float(self.requant.acc_bound)
        return np.abs(weights).sum(axis=(0, 1), dtype=np.float64) * unit

    def int_fold(self, codes_in: bool, gain, offset, lo: int, hi: int,
                 out_dtype) -> LayerFold:
        """Fold a per-channel affine map and a quantizer into this layer.

        The layer's real output is ``y = s_a * X + bias``, where ``X`` is
        its accumulator in float units (``sum codes * m_fold`` on the ADC
        route, ``sum_a (cols_a @ w_bar_a) * s_w[a]`` on the fused route).
        The returned fold emits ``clip(floor(y * gain + offset), lo, hi)``
        per channel: ``gain`` and ``offset`` (length ``OC``) carry the
        downstream BatchNorm affine, divided by the target scale, plus the
        ``+1/2`` of round-half-up.  The multiplier ``s_a * gain`` folds into
        the reduce weights — a signed int32 mantissa per (array, split,
        channel), with one shift per channel — so the epilogue is one exact
        power-of-two rescale on the ``float64`` carrier: the accumulator
        plus the integer bias stays below ``2**53``, which bounds each
        channel's shift.  Raises
        :class:`~repro.core.requant.RequantFoldError` when no shift fits.
        """
        gain = np.asarray(gain, dtype=np.float64).reshape(-1)
        offset = np.asarray(offset, dtype=np.float64).reshape(-1)
        k = gain * float(self.act_scale.reshape(-1)[0])
        if self.bias is not None:
            offset = offset + gain * self.bias.astype(np.float64)
        if self.psum_quant_enabled:
            base = self.m_fold.astype(np.float64)
        else:
            base = self.s_w.astype(np.float64).reshape(self.s_w.shape[0], 1,
                                                       self.s_w.shape[2])
            base = np.broadcast_to(base, (self.n_arrays, 1, self.out_channels))
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(offset))):
            raise RequantFoldError("folded multipliers must be finite")
        scaled = base * k                           # (A, S|1, OC)
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
                         out_dtype=out_dtype, requant=requant)

    # ---------------------------------------------------------------- #
    def set_mode(self, mode: str) -> None:
        """Select the execution route: ``"float"`` (reference) or ``"int"``.

        Runtime state, not part of the artifact — a freshly loaded plan is
        always in float mode.  ``"int"`` requires the plan to carry
        :class:`~repro.core.requant.RequantConstants` (artifacts saved before
        the integer path exist but are float-only) and is accepted — as a
        recorded no-op — on raw-input plans (``act_scale is None``): without
        an input quantizer there is no integer grid to execute on, so such
        layers legitimately stay on the float route in integer mode.
        """
        if mode not in ("float", "int"):
            raise ValueError(f"unknown execution mode {mode!r}; "
                             "expected 'float' or 'int'")
        if mode == "int" and self.requant is None and self.act_scale is not None:
            raise ValueError(
                "this plan carries no requant constants (the artifact "
                "predates the integer execution path); recompile the layer "
                "or re-save the artifact to enable mode='int'")
        self.mode = mode

    def _int_route(self) -> bool:
        """True when this plan executes on the integer route."""
        return self.mode == "int" and self.requant is not None

    def _quantize_acts(self, x: np.ndarray) -> np.ndarray:
        """LSQ activation quantization: ``round(clamp(x / s_a))`` codes."""
        if self.act_scale is None:
            return x
        a = np.clip(x / self.act_scale, self.act_qmin, self.act_qmax)
        return np.round(a, out=a)

    @hot_path
    def _quantize_acts_carrier(self, x: np.ndarray) -> np.ndarray:
        """Activation codes cast onto the integer route's GEMM carrier.

        The divide/clamp/round runs in ``float64`` — bit-identical codes
        to :meth:`_quantize_acts` — and only the final (exact, small-integer)
        values land in the carrier, fused into the rounding pass; with a
        ``float32`` carrier every downstream unfold and GEMM then moves half
        the bytes.

        Registered hot: the code array is a thread-local buffer of the
        plan's :class:`~repro.engine.hotpath.ScratchTable`, fully
        overwritten by the rounding pass and consumed (by the unfold/GEMM)
        before this request returns — steady-state calls with a stable batch
        shape allocate nothing.
        """
        a = np.clip(x / self.act_scale, self.act_qmin, self.act_qmax)
        codes = self._scratch("act_codes", a.shape,
                              np.dtype(self.requant.gemm_dtype))
        return np.rint(a, out=codes, casting="unsafe")

    def _contract(self, cols_flat: np.ndarray) -> np.ndarray:
        """Contract activation columns ``(NL, in_features)`` into ``(NL, OC)``.

        Dispatches between the fused single-GEMM path and the quantized
        (ADC-observing) path; see the module docstring for when each applies.
        """
        if not self.psum_quant_enabled:
            return cols_flat @ self.w_eff_valid
        nl = cols_flat.shape[0]
        s, oc = self.n_splits, self.out_channels
        out = np.zeros((nl, oc), dtype=cols_flat.dtype)
        for i, (start, stop) in enumerate(self.row_slices):
            p = cols_flat[:, start:stop] @ self.w_split_mats[i]  # (NL, S*OC) psums
            p = p.reshape(nl, s, oc)
            p /= self.s_p_full[i]
            np.clip(p, self.psum_qmin, self.psum_qmax, out=p)
            np.round(p, out=p)                              # ADC codes
            # ``optimize=False`` skips the per-call path/parse machinery
            # (~50us/call).  It is only safe when no axis is singleton: the
            # optimizer can reach a BLAS kernel (different summation order,
            # different bits) solely by squeezing a length-1 axis, so with
            # every axis > 1 both settings resolve to the same ``c_einsum``
            # call and the results are bit-identical.
            m = self.m_fold[i]
            if nl > 1 and s > 1 and oc > 1:
                out += np.einsum("xso,so->xo", p, m, optimize=False)
            else:
                out += np.einsum("xso,so->xo", p, m, optimize=True)
        return out

    def _tile_samples(self, length: int) -> int:
        """Samples per integer-route tile for ``length`` columns per sample."""
        width = max(self.mapping.in_features,
                    self.n_arrays * self.n_splits * self.out_channels)
        return max(1, _INT_TILE // (width * length))

    @hot_path
    def _contract_int(self, cols_flat: np.ndarray,
                      fold: LayerFold) -> np.ndarray:
        """Integer-route accumulator of one tile's ``(NL, in_features)`` codes.

        Returns the ``(OC, NL)`` ``float64`` accumulator reduced through
        ``fold.weights`` — exact integers throughout: the GEMMs multiply
        integer-valued operands in the certified exact-integer carrier
        dtype; the ADC stage — per-column divide, half-up rounding and
        saturation — runs on the ``float32`` or ``float64`` carrier
        :meth:`_build_int_operands` chose and the reduce on ``float64``, together
        bit-identical to :func:`~repro.core.requant.requantize_up` plus an
        ``int64`` reduce (the argument is in :mod:`repro.core.requant`); the
        fused route reduces in ``int64``.  A dequant fold's bias is already
        added.

        Registered hot: every intermediate lives in a thread-local buffer of
        the plan's :class:`~repro.engine.hotpath.ScratchTable`, fully
        overwritten before it is read; the returned accumulator is one of
        them, valid until the next call on this thread, so callers consume
        it at once (:meth:`_epilogue`).  Callers pass one sample tile
        (:meth:`_tile_samples`), which bounds every buffer and keeps the
        ADC passes cache-resident.  The ``int64`` section is fenced with
        ``int-pure`` markers for the static analyzer.
        """
        ops = self._int_ops
        cols_c = cols_flat.astype(np.dtype(self.requant.gemm_dtype),
                                  copy=False)
        nl = cols_flat.shape[0]
        s, oc = self.n_splits, self.out_channels
        n_arrays = len(self.row_slices)
        weights = fold.weights
        acc_t = self._scratch("ci_acct", (oc, nl), np.float64)
        if self.psum_quant_enabled:
            # one GEMM per array into a shared buffer, then one vectorized
            # ADC pass over all arrays at once; constants were validated and
            # verified at build time, so the hot loop carries no per-array
            # call or sign-handling overhead
            p = self._scratch("ci_p", (n_arrays, s * oc, nl), cols_c.dtype)
            for i, (start, stop) in enumerate(self.row_slices):
                np.matmul(ops.mats[i], cols_c[:, start:stop].T, out=p[i])
            p = p.reshape(n_arrays, s, oc, nl)
            mu_adc = ops.mu_adc
            adc = (requantize_rint_f32 if mu_adc.dtype == np.float32
                   else requantize_up_f64)
            # float64 codes for the reduce; a float64 carrier is rounded
            # in place
            codes = (p if p.dtype == np.float64 else
                     self._scratch("ci_codes", p.shape, np.float64))
            adc(p, mu_adc, self.psum_qmin, self.psum_qmax, out=codes)
            # the reduce sum_{a,s} codes * weights as one batched GEMM per
            # channel over an (OC, A*S, NL) view of the codes (no copy):
            # every product and partial sum is an integer below 2**53, so
            # exact in any summation order
            np.matmul(fold.reduce_rows,
                      codes.transpose(2, 0, 1, 3).reshape(oc, n_arrays * s,
                                                          nl),
                      out=acc_t.reshape(oc, 1, nl))
            if fold.requant is None and fold.bias is not None:
                acc_t += fold.bias[:, None]      # exact: checked below 2**53
            return acc_t
        p = self._scratch("ci_pf", (n_arrays, nl, oc), cols_c.dtype)
        for i, (start, stop) in enumerate(self.row_slices):
            np.matmul(cols_c[:, start:stop], ops.mats[i], out=p[i])
        p64 = self._scratch("ci_pf64", (n_arrays, nl, oc), np.int64)
        acc = self._scratch("ci_acc", (nl, oc), np.int64)
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
        rows of the ``fold.out_dtype`` result, channel axis second: NCHW
        for convolutions) through a strided view.
        """
        oc = self.out_channels
        if out.ndim == 4:
            rows, length = out.shape[0], out.shape[2] * out.shape[3]
            dst = out.reshape(rows, oc, length).transpose(1, 0, 2)
            src = acc_t.reshape(oc, rows, length)
        else:
            dst, src = out.T, acc_t
        rq = fold.requant
        if rq is None:
            scale = fold.scale.reshape((oc,) + (1,) * (src.ndim - 1))
            np.multiply(src, scale, out=dst, casting="unsafe")
            return
        # mu is a power of two and beta an integer / 2**shift: both exact
        rq.execute(src, dst, channel_axis=0, overwrite=True)

    @hot_path
    def _row_tiles(self, cols: np.ndarray, fold: LayerFold,
                   out: np.ndarray) -> None:
        """Integer route of an ``(M, in_features)`` code matrix into ``out``.

        Runs :meth:`_contract_int` and :meth:`_epilogue` on tiles of
        :meth:`_tile_samples` rows; ``out`` is the ``(M, OC)`` result.
        Registered hot: tiles are views, buffers come from the scratch table.
        """
        step = self._tile_samples(1)
        for k in range(0, cols.shape[0], step):
            self._epilogue(self._contract_int(cols[k:k + step], fold), fold,
                           out[k:k + step])

    def _run_int(self, a: np.ndarray, fold: Optional[LayerFold],
                 out_shape: tuple) -> np.ndarray:
        """Integer route from activation codes to a fresh layer output.

        ``a`` is a code matrix (run by :meth:`_row_tiles`) or, for a
        convolution, the ``(N, C, H, W)`` input codes (run by
        :meth:`ConvPlan._conv_tiles`); either finishes every tile straight
        into its rows of the result.
        """
        fold = self._int_ops.dequant if fold is None else fold
        out = np.empty(out_shape, dtype=fold.out_dtype)
        if a.ndim == 4:
            self._conv_tiles(a, fold, out)
        else:
            self._row_tiles(a, fold, out)
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

        ``fold`` (integer route only) is the :class:`LayerFold` a folded
        model graph assigns this layer; without it the integer route
        quantizes a float input and dequantizes its output.
        """
        int_route = self._int_route()
        codes_in = int_route and fold is not None and fold.codes_in
        if not codes_in:
            x = np.asarray(x, dtype=np.float64)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride[0], self.padding[0])
        out_w = F.conv_output_size(w, kw, self.stride[1], self.padding[1])
        length = out_h * out_w

        if int_route:
            a = x if codes_in else self._quantize_acts_carrier(x)
            return self._run_int(a, fold, (n, self.out_channels, out_h, out_w))
        a = self._quantize_acts(x)
        cols = F.unfold_array(a, self.kernel_size, self.stride, self.padding,
                              layout="nlk")                 # (N, L, D)
        # explicit D (not -1): zero-row batches make -1 ambiguous
        cols_flat = cols.reshape(n * length, cols.shape[2])
        out = self._contract(cols_flat)                     # (NL, OC)
        if self.act_scale is not None:
            out *= self.act_scale
        out = out.reshape(n, length, self.out_channels).transpose(0, 2, 1)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out

    @hot_path
    def _conv_tiles(self, a: np.ndarray, fold: LayerFold,
                    out: np.ndarray) -> None:
        """Integer route of ``(N, C, H, W)`` input codes into ``out``.

        Each tile of :meth:`_tile_samples` samples is padded into a scratch
        buffer (its zero border written once per call), gathered into its
        im2col rows with one ``np.take``, contracted (:meth:`_contract_int`)
        and finished (:meth:`_epilogue`) into its rows of the
        ``(N, OC, H', W')`` result, so no buffer scales with the batch.
        Registered hot: every buffer comes from the scratch table.
        """
        n, c, h, w = a.shape
        ph, pw = self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        index = F.unfold_index(c, hp, wp, self.kernel_size, self.stride,
                               layout="nlk")                # (L, D)
        length, depth = index.shape
        step = max(1, min(self._tile_samples(length), n))
        padded = None
        if ph or pw:
            padded = self._scratch("ci_pad", (step, c, hp, wp), a.dtype)
            padded.fill(0)
        for k in range(0, n, step):
            rows = min(step, n - k)
            src = a[k:k + rows]
            if padded is not None:
                padded[:rows, :, ph:ph + h, pw:pw + w] = src
                src = padded[:rows]
            cols = self._scratch("ci_cols", (rows, length, depth), a.dtype)
            # mode="clip" skips the bounds-check buffering of mode="raise";
            # every index is in range by construction
            np.take(src.reshape(rows, c * hp * wp), index, axis=1, out=cols,
                    mode="clip")
            acc_t = self._contract_int(cols.reshape(rows * length, depth),
                                       fold)
            self._epilogue(acc_t, fold, out[k:k + rows])


@dataclass
class LinearPlan(_PlanBase):
    """Frozen inference plan of one :class:`~repro.core.cim_linear.CIMLinear`."""

    in_features: int = 0

    layer_type = "linear"

    def execute(self, x: np.ndarray,
                fold: Optional[LayerFold] = None) -> np.ndarray:
        """Run the frozen forward on a ``(N, in_features)`` activation array.

        ``fold`` has the meaning documented on :meth:`ConvPlan.execute`.
        """
        int_route = self._int_route()
        codes_in = int_route and fold is not None and fold.codes_in
        if not codes_in:
            x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N, {self.in_features}), got {x.shape}")
        if int_route:
            a = x if codes_in else self._quantize_acts_carrier(x)
            return self._run_int(a, fold, (x.shape[0], self.out_channels))
        a = self._quantize_acts(x)
        out = self._contract(a)                             # (N, OC)
        if self.act_scale is not None:
            out *= self.act_scale
        if self.bias is not None:
            out = out + self.bias
        return out


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def _snapshot_common(layer, signature) -> dict:
    """Detached copies of everything both plan kinds cache.

    Compiled from the layer's own stage list: each
    :class:`~repro.core.pipeline.PipelineStage` contributes the static arrays
    it would compute in the QAT forward (weight codes, bit-splits, quantizer
    snapshots, the fused dequant operand), and the
    :class:`~repro.core.pipeline.LayerGeometry` contributes the structural
    fields.  The plan never re-derives stage math.
    """
    state = layer.pipeline.compile_state()
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
_ARRAY_FIELDS = ("w_bar", "splits", "s_w", "valid_mask", "shift_factors",
                 "w_eff_mat", "bias", "act_scale", "s_p")


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
