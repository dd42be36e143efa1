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
:meth:`_PlanBase._contract_int` and :mod:`repro.core.requant`): the GEMMs
run on an exact-integer float carrier, the quantized path's per-column ADC
divide, rounding, clip and reduce run on an exact ``float64`` carrier —
bit-identical to the ``int64`` fixed-point reference — and the multipliers
of the fused path, the bias fold and the output rounding shift run in
``int64``.  Only the final per-channel dequant rounds.

Plans are plain data (NumPy arrays + geometry) and can be serialized with
:func:`save_plan` / :func:`load_plan`; the crossbar mapping travels along via
:func:`repro.cim.tiling.mapping_to_dict`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..cim.tiling import WeightMapping, mapping_from_dict, mapping_to_dict
from ..core.pipeline import varied_splits
from ..core.requant import (RequantConstants, carrier_multiplier,
                             check_adc_carrier, requantize_up_f64)
from ..nn import functional as F
from .hotpath import ScratchTable, hot_path

__all__ = [
    "ConvPlan",
    "LinearPlan",
    "PlanNotReadyError",
    "compile_plan",
    "compile_conv_plan",
    "compile_linear_plan",
    "layer_signature",
    "signature_ready",
    "normalize_dtype",
    "plan_meta",
    "plan_arrays",
    "plan_from_parts",
    "save_plan",
    "load_plan",
]


#: Target element count of one cache block of the integer route's ADC stage
#: (float64, so 512 KiB).
_ADC_BLOCK = 1 << 16


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
    dtype: str = "float64"        # execution dtype ("float64" | "float32")
    requant: Optional[RequantConstants] = None  # None = float-only artifact
    mode: str = field(default="float", repr=False)  # runtime, not serialized
    # derived operands, rebuilt by _build_derived()
    row_slices: list = field(init=False, repr=False, default=None)
    w_split_mats: list = field(init=False, repr=False, default=None)
    w_eff_valid: np.ndarray = field(init=False, repr=False, default=None)
    s_p_full: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    m_fold: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    # per-thread hot-path buffers, freed with the plan
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
        """GEMM-ready integer-route operands (no-ops for float-only plans).

        The integer operands are carried in the exact-integer GEMM dtype the
        compiler certified (``requant.gemm_dtype`` — see
        :mod:`repro.core.requant`).  The ADC stage's divide ``m0_adc *
        2**-shift_adc`` and reduce weights ``m0_out`` become exact
        ``float64`` operands, after :func:`~repro.core.requant.
        check_adc_carrier` has confirmed the constants keep that carrier
        exact (raising :class:`~repro.core.requant.CarrierRangeError` for an
        artifact that does not); the fused route's multipliers are widened
        to ``int64`` once so the hot loop multiplies without per-batch casts.
        """
        rq = self.requant
        self._w_int_mats = self._w_split_int_mats = None
        self._m0_fused64 = self._mu_adc = self._m0_out_f64 = None
        self._half_out = self._shift_out = None
        self._s_out_cast = None
        if rq is None:
            return
        carrier = np.dtype(rq.gemm_dtype)
        s, _, _, oc = self.splits.shape
        if self.psum_quant_enabled:
            check_adc_carrier(rq, self.psum_qmin, self.psum_qmax)
            # per-array (S*OC, rows_a) weights: the GEMM writes partial sums
            # channel-major, (S*OC, NL), so the ADC passes run along the
            # long contiguous batch axis
            self._w_split_int_mats = [
                np.ascontiguousarray(
                    self.splits[:, i, :stop - start, :].transpose(0, 2, 1)
                    .astype(carrier)).reshape(s * oc, stop - start)
                for i, (start, stop) in enumerate(self.row_slices)]
            # broadcast-ready (A, S, OC, 1) so the hot loop applies every
            # array's ADC divide in one vectorized pass
            self._mu_adc = carrier_multiplier(rq.m0_adc,
                                              rq.shift_adc)[..., None]
            self._m0_out_f64 = rq.m0_out.astype(np.float64)
        else:
            self._w_int_mats = [
                np.ascontiguousarray(
                    self.w_bar[i, :stop - start, :].astype(carrier))
                for i, (start, stop) in enumerate(self.row_slices)]
            self._m0_fused64 = rq.m0_fused.astype(np.int64)[:, None]
        self._half_out = (np.int64(1) << np.int64(rq.shift)) >> np.int64(1)
        self._shift_out = np.int64(rq.shift)
        self._s_out_cast = rq.s_out.astype(self.np_dtype)

    # ---------------------------------------------------------------- #
    @property
    def ready(self) -> bool:
        """Compiled plans are always executable for their signature."""
        return True

    @property
    def np_dtype(self) -> np.dtype:
        """NumPy dtype the plan's arrays are stored (and executed) in."""
        return np.dtype(self.dtype)

    def _cast_input(self, x: np.ndarray) -> np.ndarray:
        """View/copy the activation array in the plan's execution dtype."""
        return np.asarray(x, dtype=self.np_dtype)

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

    def _int_route(self, variation) -> bool:
        """True when this call executes on the integer route."""
        if self.mode != "int" or self.requant is None:
            return False
        if variation is not None:
            raise ValueError(
                "device variation perturbs the programmed cells with float "
                "noise and has no fixed-point equivalent; run variation "
                "studies in mode='float'")
        return True

    def _quantize_acts(self, x: np.ndarray) -> np.ndarray:
        """LSQ activation quantization: ``round(clamp(x / s_a))`` codes."""
        if self.act_scale is None:
            return x
        a = np.clip(x / self.act_scale, self.act_qmin, self.act_qmax)
        return np.round(a, out=a)

    @hot_path
    def _quantize_acts_carrier(self, x: np.ndarray) -> np.ndarray:
        """Activation codes cast onto the integer route's GEMM carrier.

        The divide/clamp/round runs in the plan dtype — bit-identical codes
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

    def _varied_splits(self, variation) -> np.ndarray:
        """Apply a device-variation model to the cached cell codes.

        Delegates to the layers' own
        :func:`~repro.core.pipeline.varied_splits` — same math, same RNG draw
        order — so a frozen layer with the same
        :class:`~repro.cim.variation.VariationModel` state produces the same
        perturbed cells as the unfrozen one.
        """
        return varied_splits(self.splits, self.w_bar, variation)

    def _varied_wsplit_mats(self, variation) -> list:
        """Per-array ``(rows_a, S*OC)`` operands under device variation."""
        s, _, _, oc = self.splits.shape
        sv = self._varied_splits(variation)
        return [np.ascontiguousarray(
                    sv[:, i, :stop - start, :].transpose(1, 0, 2)
                ).reshape(stop - start, s * oc)
                for i, (start, stop) in enumerate(self.row_slices)]

    def _varied_w_eff(self, variation) -> np.ndarray:
        """Fused ``(in_features, OC)`` weight with variation folded through the shifts."""
        sv = self._varied_splits(variation)
        w_eff = (sv * self.shift_factors.reshape(-1, 1, 1, 1)).sum(axis=0) * self.s_w
        return np.concatenate(
            [w_eff[i, :stop - start, :]
             for i, (start, stop) in enumerate(self.row_slices)], axis=0)

    def _contract(self, cols_flat: np.ndarray, variation) -> np.ndarray:
        """Contract activation columns ``(NL, in_features)`` into ``(NL, OC)``.

        Dispatches between the fused single-GEMM path and the quantized
        (ADC-observing) path; see the module docstring for when each applies.
        """
        if not self.psum_quant_enabled:
            w_eff = self.w_eff_valid if variation is None else self._varied_w_eff(variation)
            return cols_flat @ w_eff
        nl = cols_flat.shape[0]
        s, oc = self.n_splits, self.out_channels
        w_mats = self.w_split_mats if variation is None else self._varied_wsplit_mats(variation)
        out = np.zeros((nl, oc), dtype=cols_flat.dtype)
        for i, (start, stop) in enumerate(self.row_slices):
            p = cols_flat[:, start:stop] @ w_mats[i]        # (NL, S*OC) partial sums
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

    @hot_path
    def _contract_int(self, cols_flat: np.ndarray) -> np.ndarray:
        """Integer-route contraction: ``(NL, in_features)`` to ``(NL, OC)``.

        Between the incoming activation codes and the final per-channel
        output dequant (``* s_out``) every operation is exact integer
        arithmetic: the GEMMs multiply integer-valued operands in the
        certified exact-integer carrier dtype; the ADC stage — per-column
        divide, half-up rounding, saturation and the ``m0_out`` reduce —
        runs on an exact ``float64`` carrier, bit-identical to
        :func:`~repro.core.requant.requantize_up` plus an ``int64`` reduce
        (the argument is in :mod:`repro.core.requant`); the fused route's
        multipliers, the bias fold and the single output rounding shift run
        in ``int64``.  The returned array is the finished layer output
        (scale and bias already applied); callers must not re-apply
        ``act_scale`` or ``bias``.

        Registered hot: every intermediate lives in a thread-local buffer of
        the plan's :class:`~repro.engine.hotpath.ScratchTable`, fully
        overwritten before it is read and consumed before this call returns
        (the returned array is the fresh output of the final dequant
        multiply, never a scratch view), so steady-state calls with a stable
        batch shape allocate only the result.  The ``int64`` sections are
        fenced with ``int-pure`` markers for the static analyzer.
        """
        rq = self.requant
        cols_c = cols_flat.astype(np.dtype(rq.gemm_dtype), copy=False)
        nl = cols_flat.shape[0]
        s, oc = self.n_splits, self.out_channels
        n_arrays = len(self.row_slices)
        acc = self._scratch("ci_acc", (nl, oc), np.int64)
        if self.psum_quant_enabled:
            # one GEMM per array into a shared buffer, then one vectorized
            # ADC pass over all arrays at once; constants were validated and
            # verified at build time, so the hot loop carries no per-array
            # call or sign-handling overhead
            p = self._scratch("ci_p", (n_arrays, s * oc, nl), cols_c.dtype)
            for i, (start, stop) in enumerate(self.row_slices):
                np.matmul(self._w_split_int_mats[i], cols_c[:, start:stop].T,
                          out=p[i])
            p = p.reshape(n_arrays, s, oc, nl)
            # the ADC passes are memory-bound; blocking over channels (each
            # reduces on its own) and samples keeps every block of about
            # _ADC_BLOCK elements cache-resident across all of them
            per_sample = n_arrays * s
            n_blk = max(1, min(nl, _ADC_BLOCK // per_sample))
            c_blk = max(1, _ADC_BLOCK // (per_sample * n_blk))
            acc_t = self._scratch("ci_acct", (oc, nl), np.float64)
            buf = self._scratch("ci_buf", (n_arrays, s, min(c_blk, oc), n_blk),
                                np.float64)
            for j in range(0, oc, c_blk):
                cj = min(c_blk, oc - j)
                mu = self._mu_adc[:, :, j:j + cj]
                m0_out = self._m0_out_f64[:, :, j:j + cj]
                for k in range(0, nl, n_blk):
                    ck = min(n_blk, nl - k)
                    b = buf[:, :, :cj, :ck]
                    np.copyto(b, p[:, :, j:j + cj, k:k + ck])  # widen carrier
                    requantize_up_f64(b, mu, self.psum_qmin,    # ADC codes
                                      self.psum_qmax)
                    # fused multiply-reduce: sum_{a,s} codes * m0_out, an
                    # integer below 2**53, so exact in any summation order
                    np.einsum("asxn,asx->xn", b, m0_out,
                              out=acc_t[j:j + cj, k:k + ck])
            np.copyto(acc, acc_t.T, casting="unsafe")
        else:
            p = self._scratch("ci_pf", (n_arrays, nl, oc), cols_c.dtype)
            for i, (start, stop) in enumerate(self.row_slices):
                np.matmul(cols_c[:, start:stop], self._w_int_mats[i],
                          out=p[i])
            p64 = self._scratch("ci_pf64", (n_arrays, nl, oc), np.int64)
            # int-pure: begin
            np.multiply(p, self._m0_fused64, out=p64,   # (A, 1, OC) bcast
                        dtype=np.int64, casting="unsafe")
            np.add.reduce(p64, axis=0, out=acc)
            # int-pure: end
        # int-pure: begin
        if rq.bias_q is not None:
            acc += rq.bias_q
        acc += self._half_out                # one half-up rounding shift for
        acc >>= self._shift_out              # the whole layer (see requantize_up)
        # int-pure: end
        # output dequant fused with the cast, at the layer boundary: the one
        # inexact float multiply (codes are exact in float64; float32 plans
        # narrow here exactly as the float route's output does)
        return np.multiply(acc, self._s_out_cast, dtype=self.np_dtype,
                           casting="unsafe")


@dataclass
class ConvPlan(_PlanBase):
    """Frozen inference plan of one :class:`~repro.core.cim_conv.CIMConv2d`."""

    in_channels: int = 0
    kernel_size: Tuple[int, int] = (1, 1)
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)

    layer_type = "conv2d"

    def execute(self, x: np.ndarray, variation=None) -> np.ndarray:
        """Run the frozen forward on a ``(N, C, H, W)`` activation array."""
        x = self._cast_input(x)
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        kh, kw = self.kernel_size
        out_h = F.conv_output_size(h, kh, self.stride[0], self.padding[0])
        out_w = F.conv_output_size(w, kw, self.stride[1], self.padding[1])
        length = out_h * out_w

        int_route = self._int_route(variation)
        a = (self._quantize_acts_carrier(x) if int_route
             else self._quantize_acts(x))
        cols = F.unfold_array(a, self.kernel_size, self.stride, self.padding,
                              layout="nlk")                 # (N, L, D)
        # explicit D (not -1): zero-row batches make -1 ambiguous
        cols_flat = cols.reshape(n * length, cols.shape[2])
        if int_route:
            out = self._contract_int(cols_flat)  # scale + bias already folded
        else:
            out = self._contract(cols_flat, variation)      # (NL, OC)
            if self.act_scale is not None:
                out *= self.act_scale
        out = out.reshape(n, length, self.out_channels).transpose(0, 2, 1)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None and not int_route:
            out = out + self.bias.reshape(1, -1, 1, 1)
        return out


@dataclass
class LinearPlan(_PlanBase):
    """Frozen inference plan of one :class:`~repro.core.cim_linear.CIMLinear`."""

    in_features: int = 0

    layer_type = "linear"

    def execute(self, x: np.ndarray, variation=None) -> np.ndarray:
        """Run the frozen forward on a ``(N, in_features)`` activation array."""
        x = self._cast_input(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N, {self.in_features}), got {x.shape}")
        if self._int_route(variation):
            return self._contract_int(self._quantize_acts_carrier(x))
        a = self._quantize_acts(x)
        out = self._contract(a, variation)                  # (N, OC)
        if self.act_scale is not None:
            out *= self.act_scale
        if self.bias is not None:
            out = out + self.bias
        return out


# --------------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------------- #
def normalize_dtype(dtype) -> str:
    """Canonical plan-dtype name (``"float64"`` / ``"float32"``) for ``dtype``.

    Accepts the canonical strings, NumPy dtypes and dtype-like objects; any
    other width is rejected — plans are pure floating-point GEMM recipes and
    only ship in the two widths the engine supports.
    """
    name = np.dtype(dtype).name
    if name not in ("float64", "float32"):
        raise ValueError(f"unsupported plan dtype {name!r}; "
                         "expected 'float64' or 'float32'")
    return name


def _snapshot_common(layer, signature, dtype: str) -> dict:
    """Detached copies of everything both plan kinds cache.

    Compiled from the layer's own stage list: each
    :class:`~repro.core.pipeline.PipelineStage` contributes the static arrays
    it would compute in the QAT forward (weight codes, bit-splits, quantizer
    snapshots, the fused dequant operand), and the
    :class:`~repro.core.pipeline.LayerGeometry` contributes the structural
    fields.  The plan never re-derives stage math.
    """
    state = layer.pipeline.compile_state(dtype=np.dtype(dtype))
    state["signature"] = signature
    state["dtype"] = dtype
    return state


def compile_conv_plan(layer, dtype="float64") -> ConvPlan:
    """Compile a :class:`~repro.core.cim_conv.CIMConv2d` into a :class:`ConvPlan`.

    Raises :class:`PlanNotReadyError` if the layer's lazily-initialized LSQ
    scales have not yet observed a batch.  ``dtype`` selects the execution
    precision of the compiled plan (QAT Tensor math stays float64).
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
                    **_snapshot_common(layer, signature, normalize_dtype(dtype)))


def compile_linear_plan(layer, dtype="float64") -> LinearPlan:
    """Compile a :class:`~repro.core.cim_linear.CIMLinear` into a :class:`LinearPlan`."""
    signature = layer_signature(layer)
    if not signature_ready(signature):
        raise PlanNotReadyError(
            "activation / partial-sum quantizers are uninitialized; run one "
            "forward pass (or freeze with calibrate=...) before compiling")
    return LinearPlan(in_features=layer.in_features,
                      **_snapshot_common(layer, signature, normalize_dtype(dtype)))


def compile_plan(layer, dtype="float64"):
    """Compile a plan for any CIM layer (dispatch on the layer type)."""
    from ..core.cim_conv import CIMConv2d
    from ..core.cim_linear import CIMLinear
    if isinstance(layer, CIMConv2d):
        return compile_conv_plan(layer, dtype=dtype)
    if isinstance(layer, CIMLinear):
        return compile_linear_plan(layer, dtype=dtype)
    raise TypeError(f"cannot compile a plan for {type(layer).__name__}")


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #
_ARRAY_FIELDS = ("w_bar", "splits", "s_w", "valid_mask", "shift_factors",
                 "w_eff_mat", "bias", "act_scale", "s_p")


def plan_meta(plan) -> dict:
    """JSON-serializable metadata of one layer plan (everything non-array).

    This is the single owner of the layer-plan manifest schema: the per-layer
    :func:`save_plan` archives and the ``layers`` section of a
    :class:`~repro.engine.model_plan.ModelPlan` manifest both embed exactly
    this dictionary.
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
        "dtype": plan.dtype,
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

    Inverse of (:func:`plan_meta`, :func:`plan_arrays`); shared by
    :func:`load_plan` and the model-plan loader.
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
        dtype=normalize_dtype(meta.get("dtype", "float64")),
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


def save_plan(plan, path) -> None:
    """Serialize a plan to an ``.npz`` archive (arrays + JSON metadata)."""
    np.savez(path, __meta__=np.frombuffer(
        json.dumps(plan_meta(plan)).encode("utf-8"), dtype=np.uint8),
        **plan_arrays(plan))


def load_plan(path, mode: str = "float"):
    """Rebuild a :class:`ConvPlan` / :class:`LinearPlan` saved by :func:`save_plan`.

    ``mode`` selects the execution route of the returned plan (see
    :meth:`_PlanBase.set_mode`); ``"int"`` raises :class:`ValueError` on
    float-only artifacts saved before the integer path existed.
    """
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        arrays = {name: archive[name] for name in archive.files
                  if name != "__meta__"}
    plan = plan_from_parts(meta, arrays)
    if mode != "float":
        plan.set_mode(mode)
    return plan
