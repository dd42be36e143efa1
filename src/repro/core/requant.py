"""Fixed-point requantization: the integer-only execution constants.

The frozen plans of :mod:`repro.engine.plan` execute a CIM layer through
*float* dequantization: integer activation codes hit integer weight codes in
a GEMM, and the accumulator is rescaled by folded floating-point multipliers
(``s_a * s_w``, or ``s_a * s_p * 2**(j*cell_bits) * s_w`` on the ADC path).
Real CIM hardware has no float unit between the DAC and the output register —
it rescales with a **fixed-point multiplier**: an ``int32`` mantissa ``M0``
and an arithmetic right ``shift`` such that ``M0 * 2**-shift`` approximates
the real multiplier to ~31 bits.  This module owns that recipe, the same one
the PerClusterQuantization exemplar (and gemmlowp/TFLite before it) uses:

* :func:`quantize_multipliers` turns an array of positive real multipliers
  into ``int32`` mantissas sharing one layer-wide shift, so a whole
  accumulator tensor requantizes with integer multiplies and a single
  rounding shift;
* :func:`requantize` applies ``round_half_away(acc * M0 * 2**-shift)`` in
  pure ``int64`` arithmetic — no Python-float intermediate can round — with
  optional saturation bounds (the ADC clip range, or int8 output bounds);
* :func:`requantize_up` is the sign-uniform variant (``floor(q + 1/2)``,
  i.e. half-toward-+inf): one add and one floor, no sign handling — the
  convention the vectorized ADC stage executes, because it needs no
  per-sign passes and the exhaustive per-column verification below makes
  the tie convention irrelevant (the mantissas are *repaired* until the
  codes match the float oracle exactly).  It is the ``int64`` reference of
  the executed stage, which runs on an exact ``float64`` carrier (see
  below);
* :func:`compile_requant` derives a layer's full
  :class:`RequantConstants` — accumulator scale, fixed-point multipliers,
  the ``int64`` bias fold and the exact-integer GEMM carrier — from the
  same compile-state snapshot the float plan is built from;
* :class:`IntRequant` is the per-channel requant of the folded integer
  graph (:mod:`repro.engine.intfold`): ``clip((x * M0 + b) >> shift, lo,
  hi)`` on an integer input, the fold of a BatchNorm affine, a ReLU clamp
  and the next layer's activation quantizer.  Its ``float64`` execution is
  proved equal to that definition when it is built (exact by construction,
  or checked on both sides of every step).

There is no output rounding step and no declared drift bound: inside a
model the next layer's quantizer folds into each layer's reduce, so codes
flow from layer to layer, and the route's contract is bit-exactness
against its integer definition.  Agreement with the float route is a
measured statistic (``benchmarks/bench_int_requant.py``).

Zero-points: every quantizer in this reproduction is LSQ, i.e. *symmetric*
(signed weights/partial sums, unsigned post-ReLU activations anchored at 0),
so all zero-points are structurally zero.  They are still carried as explicit
schema fields (``z_in`` / ``z_w`` / ``z_out``) so the artifact format states
the assumption instead of hiding it.

Exact-integer GEMM carrier
--------------------------
NumPy's integer ``matmul`` never reaches BLAS, so a literal ``int32`` GEMM
would be an order of magnitude *slower* than the float path.  Instead the
integer operands are carried in ``float32`` (or ``float64`` for very deep
layers): every product and every partial sum of the GEMM is an integer whose
magnitude :func:`compile_requant` bounds at compile time (``acc_bound``)
below the carrier's exact-integer range (``2**24`` / ``2**53``), so the BLAS
GEMM performs *integer arithmetic in IEEE clothing* — bit-exactly the sums an
int32 MAC array would produce — at SIMD float speed.

Exact float64 ADC carrier
-------------------------
The same trick covers the per-column ADC stage, where NumPy has no SIMD
``int64`` multiply or variable shift.  The integer route computes each code
as ``clip(floor(p * mu + 1/2))`` in ``float64`` with ``mu = M0 * 2**-shift``
(exact: ``M0 < 2**31``), then reduces the codes against ``m0_out`` with a
``float64`` contraction.  Both are bit-identical to :func:`requantize_up`
followed by an ``int64`` reduce:

* inside the non-saturating region ``|p * M0| < (max|q| + 1) * 2**shift``
  the rounding numerator ``p * M0 + 2**(shift-1)`` is an integer below
  ``(max|q| + 1.5) * 2**shift <= 2**53`` — guaranteed by capping the ADC
  shift at :func:`adc_shift_cap` — so ``p * mu + 1/2`` is exact and its
  floor *is* the arithmetic shift, ties included;
* outside it the exact value lies beyond ``qmin - 1`` or ``qmax + 1``;
  float rounding is monotone and those integers are representable, so
  both routes saturate to the same bound;
* every reduce term is an integer and the whole sum stays below
  ``A * S * max|q| * max(m0_out) < 2**53``, so every summation order
  yields the same exact integer.

:func:`check_adc_carrier` enforces both preconditions on every plan that
executes the stage, compiled or loaded.  The fused route's multiply and
reduce stay genuine ``int64`` math.

With a ``float32`` GEMM carrier the codes themselves can run narrower:
:func:`requantize_rint_f32` computes ``clip(rint(p * mu32))`` in
``float32``, and :func:`adc_multiplier_f32` picks each column's ``mu32``
only after proving the result equal to :func:`requantize_up` for every
reachable partial sum — both are monotone step functions of ``p``, so both
sides of every step and the two ends of ``[-acc_bound, acc_bound]``
decide it.  A layer with any column that has no such ``mu32`` (e.g. exact
half ties, which ``rint`` rounds to even) keeps the ``float64`` stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "INT32_MIN",
    "INT32_MAX",
    "INT8_MIN",
    "INT8_MAX",
    "MAX_SHIFT",
    "quantize_multiplier",
    "quantize_multipliers",
    "requantize",
    "requantize_up",
    "adc_shift_cap",
    "CarrierRangeError",
    "check_adc_carrier",
    "carrier_multiplier",
    "requantize_up_f64",
    "adc_multiplier_f32",
    "requantize_rint_f32",
    "RequantConstants",
    "compile_requant",
    "RequantFoldError",
    "IntRequant",
]

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
INT8_MIN = -128
INT8_MAX = 127

#: Largest supported rounding shift.  Keeps ``|acc * M0| + 2**(shift-1)``
#: inside ``int64`` for any int32 accumulator and any int32 mantissa:
#: ``2**31 * 2**31 + 2**54 < 2**63``.
MAX_SHIFT = 55

#: Significand bits of ``float64``: every integer up to ``2**53`` is exact.
_FLOAT64_EXACT_BITS = 53


def adc_shift_cap(qmin: float, qmax: float) -> int:
    """Largest ADC shift the ``float64`` carrier executes exactly.

    ``53 - ceil(log2(max|q| + 1.5))`` for the ADC code range
    ``[qmin, qmax]``: the rounding numerator of every non-saturating partial
    sum then stays within ``2**53`` (see the module docstring).
    """
    amax = int(max(abs(qmin), abs(qmax)))
    # ceil(log2(amax + 1.5)) == ceil(log2(2*amax + 3)) - 1, in exact ints
    return _FLOAT64_EXACT_BITS - ((2 * amax + 2).bit_length() - 1)


class CarrierRangeError(ValueError):
    """ADC requant constants outside the exact range of the ``float64`` carrier.

    Raised when a plan is built from constants the integer route cannot
    execute bit-exactly — in practice an artifact from outside this
    program, since :func:`compile_requant` caps its shifts.
    """


def check_adc_carrier(rq: "RequantConstants", qmin: float,
                      qmax: float) -> None:
    """Raise :class:`CarrierRangeError` unless the ADC stage of ``rq`` is exact.

    Checks the two preconditions of the ``float64`` carrier for ADC codes in
    ``[qmin, qmax]``: every ``shift_adc`` within ``[0, adc_shift_cap]`` with
    int32 mantissas ``m0_adc``, and the reduce bound
    ``A * S * max|q| * max(m0_out) < 2**53``.
    """
    cap = adc_shift_cap(qmin, qmax)
    shift, m0_out = rq.shift_adc, rq.m0_out
    if int(shift.min()) < 0 or int(shift.max()) > cap:
        raise CarrierRangeError(
            f"ADC shifts span [{int(shift.min())}, {int(shift.max())}], "
            f"outside the exact float64 carrier range [0, {cap}]")
    for m0 in (rq.m0_adc, m0_out):
        if int(m0.min()) < 0 or int(m0.max()) > INT32_MAX:
            raise CarrierRangeError(
                "ADC mantissas must lie in [0, 2**31 - 1]")
    n_arrays, n_splits, _ = m0_out.shape
    amax = int(max(abs(qmin), abs(qmax)))
    mass = n_arrays * n_splits * amax * int(m0_out.max())
    if mass >= 2 ** _FLOAT64_EXACT_BITS:
        raise CarrierRangeError(
            f"ADC reduce bound {n_arrays} arrays x {n_splits} splits x "
            f"{amax} x max(m0_out) reaches 2**53; the float64 reduce "
            "would round")


def carrier_multiplier(m0, shift) -> np.ndarray:
    """The ADC divide ``M0 * 2**-shift`` as an exact ``float64`` array."""
    return np.ldexp(np.asarray(m0, dtype=np.float64),
                    -np.asarray(shift, dtype=np.int64))


def requantize_up_f64(b: np.ndarray, mu, qmin: float, qmax: float,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`requantize_up` on the exact ``float64`` carrier.

    ``b`` holds integer partial sums ``p`` (any float carrier); the result
    is ``clip(floor(p * mu + 1/2), qmin, qmax)`` with ``mu`` from
    :func:`carrier_multiplier` — bit-identical to ``requantize_up(p, M0,
    shift, qmin, qmax)`` whenever :func:`check_adc_carrier` accepts the
    constants (argument in the module docstring).  It is written in place
    into ``b`` (a ``float64`` array), or into the ``float64`` array ``out``,
    which then also absorbs the widening of a narrower carrier into the
    multiply.  Returns the result array.
    """
    if out is None:
        out = b
        b *= mu
    else:
        np.multiply(b, mu, out=out)
    out += 0.5
    np.clip(out, qmin, qmax, out=out)
    return np.floor(out, out=out)


def adc_multiplier_f32(rq: "RequantConstants", qmin: float,
                       qmax: float) -> Optional[np.ndarray]:
    """``float32`` ADC multipliers proved equal to :func:`requantize_up`.

    For an exact ``float32`` GEMM carrier (``acc_bound < 2**24``) the ADC
    code of a partial sum ``p`` can run as ``clip(rint(p * mu32), qmin,
    qmax)`` in ``float32`` (:func:`requantize_rint_f32`), half the bytes of
    the ``float64`` carrier, if that equals ``clip((p * M0 + 2**(shift-1))
    >> shift)`` for every reachable ``p`` in ``[-acc_bound, acc_bound]``.
    Both are monotone step functions of ``p`` with at most ``qmax - qmin``
    steps, so agreement on both sides of every step of the definition and
    at both ends of the range proves agreement everywhere.  ``mu32`` starts
    at the float nearest ``M0 * 2**-shift``; a column that disagrees tries
    the neighbouring floats (ties of ``rint`` round to even, the definition
    rounds up).  Returns the ``(A, S, OC)`` multipliers, or ``None`` when
    the carrier is not ``float32`` or some column has no such float.
    """
    if rq.gemm_dtype != "float32" or rq.m0_adc is None:
        return None
    m0 = rq.m0_adc.astype(np.int64).reshape(-1)
    shift = rq.shift_adc.astype(np.int64).reshape(-1)
    bound = int(rq.acc_bound)
    half = (np.int64(1) << shift) >> np.int64(1)
    lo, hi = int(qmin), int(qmax)
    # first p with code >= k: ceil((k * 2**shift - half) / M0), k > lo
    steps = np.arange(lo + 1, hi + 1, dtype=np.int64)[None, :]
    first = -((half[:, None] - (steps << shift[:, None]))
              // np.maximum(m0, 1)[:, None])
    ends = np.broadcast_to(np.array([-bound, bound], np.int64),
                           (m0.size, 2))
    p = np.clip(np.concatenate([first - 1, first, ends], axis=1),
                -bound, bound)                                # (cols, pts)
    want = np.clip((p * m0[:, None] + half[:, None]) >> shift[:, None],
                   lo, hi).astype(np.float32)
    p32 = p.astype(np.float32)
    nearest = np.ldexp(m0.astype(np.float64), -shift).astype(np.float32)
    mu = nearest.copy()
    bad = np.arange(m0.size)
    for step in (0, 1, -1, 2, -2):     # failing columns: neighbouring floats
        trial = nearest[bad]
        for _ in range(abs(step)):
            trial = np.nextafter(trial, np.float32(np.copysign(np.inf, step)))
        got = requantize_rint_f32(p32[bad], trial[:, None], qmin, qmax,
                                  out=np.empty((bad.size, p32.shape[1]),
                                               np.float32))
        fits = np.all(got == want[bad], axis=1)
        mu[bad[fits]] = trial[fits]
        bad = bad[~fits]
        if not bad.size:
            return mu.reshape(rq.m0_adc.shape)
    return None


def requantize_rint_f32(p: np.ndarray, mu32, qmin: float, qmax: float,
                        out: np.ndarray) -> np.ndarray:
    """ADC codes ``clip(rint(p * mu32), qmin, qmax)`` on ``float32``.

    Equal to :func:`requantize_up` only for multipliers from
    :func:`adc_multiplier_f32`, which proves it per column.  Writes into
    ``out`` and returns it.  The multiply and the rounding run in
    ``float32`` either way: in ``out`` when it is ``float32``; for a
    ``float64`` ``out`` (the exact carrier of a downstream reduce) in place
    in the ``float32`` array ``p``, which the call overwrites, and only the
    clip widens the (small-integer, so exact) codes into ``out``.
    """
    work = out if out.dtype == np.float32 else p
    np.multiply(p, mu32, out=work)
    np.rint(work, out=work)
    return np.clip(work, qmin, qmax, out=out)


def quantize_multipliers(m: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fixed-point encode positive real multipliers with one shared shift.

    Returns ``(M0, shift)`` with ``M0`` an ``int32`` array of the same shape
    as ``m`` and ``shift`` a plain int, such that ``M0 * 2**-shift ~= m``
    element-wise.  The shift is normalized on ``m.max()`` so the largest
    mantissa uses the full 31-bit range (relative error ``<= 2**-31`` for the
    dominant multipliers), then capped at :data:`MAX_SHIFT` so downstream
    ``int64`` accumulation cannot overflow; multipliers more than ``~2**31``
    below the maximum round to a zero mantissa, which is the correct
    fixed-point statement that their contribution is unrepresentable.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.size == 0:
        raise ValueError("cannot quantize an empty multiplier array")
    m_max = float(m.max())
    if not np.isfinite(m_max) or m_max <= 0.0 or float(m.min()) < 0.0:
        raise ValueError(
            "multipliers must be finite, non-negative, with a positive max; "
            f"got range [{float(m.min())!r}, {m_max!r}]")
    shift = int(np.floor(31.0 - np.log2(m_max)))
    while round(m_max * 2.0 ** shift) > INT32_MAX:
        shift -= 1
    if shift < 0:
        raise ValueError(f"multiplier {m_max!r} exceeds the int32 "
                         "fixed-point range (max ~2**31)")
    shift = min(shift, MAX_SHIFT)
    m0 = np.round(m * 2.0 ** shift)
    np.clip(m0, 0, INT32_MAX, out=m0)
    return m0.astype(np.int32), shift


def quantize_multiplier(m: float) -> Tuple[int, int]:
    """Scalar convenience wrapper of :func:`quantize_multipliers`."""
    m0, shift = quantize_multipliers(np.asarray([m], dtype=np.float64))
    return int(m0[0]), shift


def requantize(acc, m0, shift, qmin: Optional[int] = None,
               qmax: Optional[int] = None) -> np.ndarray:
    """Fixed-point rescale: ``round_half_away(acc * M0 * 2**-shift)``.

    Pure ``int64`` arithmetic end to end — the product, the rounding offset
    and the arithmetic shift never pass through a Python float, so results
    are exact even where ``float64`` would lose integer precision (e.g.
    ``acc = M0 = 2**31 - 1, shift = 0``).  Rounding is half-away-from-zero
    (the hardware convention), implemented as ``(|prod| + 2**(shift-1)) >>
    shift`` with the sign reapplied.  ``qmin`` / ``qmax`` optionally saturate
    the result (ADC clip range, int8 output bounds); both or neither must be
    given.

    ``acc``, ``m0`` and ``shift`` broadcast against each other; ``m0`` may be
    a scalar (``m0 = 1`` turns this into a bare rounding shift) and ``shift``
    may be a per-element ``int`` array (the ADC divide uses per-column
    shifts).  Inputs must already fit ``int64`` without overflow of
    ``acc * m0`` — callers bound ``acc`` at compile time (see
    ``RequantConstants.acc_bound``).
    """
    if (qmin is None) != (qmax is None):
        raise ValueError("pass both qmin and qmax, or neither")
    shift_arr = np.asarray(shift, dtype=np.int64)
    if np.any(shift_arr < 0) or np.any(shift_arr > MAX_SHIFT):
        raise ValueError(
            f"shift must be in [0, {MAX_SHIFT}], got "
            f"[{int(shift_arr.min())}, {int(shift_arr.max())}]")
    # int-pure: begin
    prod = np.asarray(acc, dtype=np.int64) * np.asarray(m0, dtype=np.int64)
    # (1 << shift) >> 1 is 2**(shift-1), and 0 when shift == 0 — the
    # shift-0 case degenerates to the identity without a branch.
    half = (np.int64(1) << shift_arr) >> np.int64(1)
    mag = (np.abs(prod) + half) >> shift_arr
    out = np.where(prod < 0, -mag, mag)
    if qmin is not None:
        out = np.clip(out, int(qmin), int(qmax))
    # int-pure: end
    return out


def requantize_up(acc, m0, shift, qmin: Optional[int] = None,
                  qmax: Optional[int] = None) -> np.ndarray:
    """Sign-uniform fixed-point rescale: ``floor(acc * M0 * 2**-shift + 1/2)``.

    Rounds halves toward +inf for *both* signs — ``(prod + 2**(shift-1)) >>
    shift`` with an arithmetic (flooring) right shift, no sign split.  This
    is the convention of the integer ADC stage — executed by
    :func:`requantize_up_f64` on the exact ``float64`` carrier, with this
    function as its ``int64`` reference: it needs no absolute-value /
    sign-restore passes in the hottest loop of the integer route, and the
    exhaustive window verification of
    :func:`_verified_adc_multipliers` repairs the mantissas under *this*
    convention, so the executed codes still match the float oracle exactly.
    Same broadcasting, overflow preconditions and saturation arguments as
    :func:`requantize`.
    """
    if (qmin is None) != (qmax is None):
        raise ValueError("pass both qmin and qmax, or neither")
    shift_arr = np.asarray(shift, dtype=np.int64)
    if np.any(shift_arr < 0) or np.any(shift_arr > MAX_SHIFT):
        raise ValueError(
            f"shift must be in [0, {MAX_SHIFT}], got "
            f"[{int(shift_arr.min())}, {int(shift_arr.max())}]")
    # int-pure: begin
    prod = np.asarray(acc, dtype=np.int64) * np.asarray(m0, dtype=np.int64)
    half = (np.int64(1) << shift_arr) >> np.int64(1)
    out = (prod + half) >> shift_arr
    if qmin is not None:
        out = np.clip(out, int(qmin), int(qmax))
    # int-pure: end
    return out


# --------------------------------------------------------------------------- #
# compiled per-layer constants
# --------------------------------------------------------------------------- #
@dataclass
class RequantConstants:
    """Everything the integer execution route of one layer plan needs.

    The integer route computes an exact integer accumulator per output
    channel through the fixed-point multipliers below; ``s_out * 2**-shift``
    is the real value of one accumulator unit.  Two mutually exclusive
    routes:

    fused (``psum_quant_enabled`` false)
        ``acc = sum_a (cols_a @ w_bar_a) * m0_fused[a]``.

    ADC (``psum_quant_enabled`` true)
        per-(split, array) partial sums requantize through ``m0_adc`` /
        ``shift_adc`` into saturated ADC codes, which then reduce through
        ``m0_out``.

    ``bias_q`` is the bias pre-folded onto the accumulator grid
    (``round(bias / (s_out * 2**-shift))``).  A stand-alone layer (and the
    last layer of a model) dequantizes ``(acc + bias_q) * s_out * 2**-shift``
    once, with no rounding step before it; inside a model the next
    layer's quantizer folds into the reduce instead (see
    :mod:`repro.engine.intfold`), which rebuilds its own multipliers from
    the float scales, so these stored mantissas serve only the dequant.
    Artifacts written before the output grid was dropped store ``s_out``
    scaled by ``2**-24`` and a ``shift`` smaller by 24: the same real unit,
    so they execute identically.
    """

    shift: int                           # accumulator fraction bits
    s_out: np.ndarray                    # (OC,) float64 per-channel scale
    gemm_dtype: str = "float32"          # exact-integer GEMM carrier dtype
    acc_bound: int = 0                   # compile-time max |per-array acc|
    bias_q: Optional[np.ndarray] = None  # (OC,) int64 accumulator-grid bias
    m0_fused: Optional[np.ndarray] = None   # (A, OC) int32, fused route
    m0_adc: Optional[np.ndarray] = None     # (A, S, OC) int32, ADC divide
    shift_adc: Optional[np.ndarray] = None  # (A, S, OC) per-column ADC shift
    m0_out: Optional[np.ndarray] = None     # (A, S, OC) int32, ADC reduce
    z_in: int = 0                        # zero-points: structurally 0 (LSQ
    z_w: int = 0                         # quantizers are symmetric); stored
    z_out: int = 0                       # so the schema states the assumption

    _ARRAYS = ("s_out", "bias_q", "m0_fused", "m0_adc", "shift_adc", "m0_out")

    # ------------------------------------------------------------------ #
    # (de)serialization — split into JSON scalars + npz arrays
    # ------------------------------------------------------------------ #
    def meta(self) -> dict:
        """JSON-serializable scalar fields (the ``requant`` manifest entry)."""
        return {
            "shift": int(self.shift),
            "gemm_dtype": self.gemm_dtype,
            "acc_bound": int(self.acc_bound),
            "zero_points": [int(self.z_in), int(self.z_w), int(self.z_out)],
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """Array payload keyed ``rq_<field>`` (``None`` fields omitted)."""
        return {f"rq_{name}": getattr(self, name) for name in self._ARRAYS
                if getattr(self, name) is not None}

    @classmethod
    def from_parts(cls, meta: dict, arrays: Dict[str, np.ndarray]
                   ) -> "RequantConstants":
        """Inverse of (:meth:`meta`, :meth:`arrays`).

        Keys that older versions wrote and this one no longer reads (the
        former declared drift bound) are ignored.
        """
        z_in, z_w, z_out = meta.get("zero_points", (0, 0, 0))
        return cls(shift=int(meta["shift"]),
                   gemm_dtype=str(meta.get("gemm_dtype", "float32")),
                   acc_bound=int(meta.get("acc_bound", 0)),
                   z_in=int(z_in), z_w=int(z_w), z_out=int(z_out),
                   **{name: arrays.get(f"rq_{name}") for name in cls._ARRAYS})


# --------------------------------------------------------------------------- #
# compile-time verification of the ADC stage
# --------------------------------------------------------------------------- #
def _repair_adc_multiplier(p: np.ndarray, oracle: np.ndarray, half: int,
                           m0: int, qmin: int, qmax: int) -> Optional[int]:
    """The int32 mantissa closest to ``m0`` that reproduces ``oracle`` exactly.

    ``oracle[j]`` is the ADC code the float route assigns to integer partial
    sum ``p[j]``.  Under the executed half-up convention
    (:func:`requantize_up`), ``M0`` lands ``p`` on code ``k`` iff
    ``(2k - 1) * 2**(shift-1) <= p * M0 <= (2k + 1) * 2**(shift-1) - 1`` —
    one sign-uniform integer interval per window entry, solved for ``M0`` by
    exact integer ceil/floor division (direction flipping with the sign of
    ``p``).  Entries whose code saturates drop the clipped-away side of the
    product constraint.  Returns ``None`` when the intersection is empty —
    i.e. no single multiply-shift can reproduce the float path's half-even
    tie decisions for this column.
    """
    keep = p != 0                        # p = 0 maps to code 0 under any M0
    p, k = p[keep], oracle[keep]
    a = (2 * k - 1) * half               # product lower bound (inclusive)
    b = (2 * k + 1) * half - 1           # product upper bound (inclusive)
    pos = p > 0
    # ceil(x/p) = -((-x) // p); numpy's // floors for either sign of p
    lo_vals = np.where(pos, -((-a) // p), -((-b) // p))
    hi_vals = np.where(pos, b // p, a // p)
    # k == qmax drops the product's upper bound, k == qmin its lower bound;
    # which side of the *M0* interval that removes depends on sign(p)
    drop_lo = np.where(pos, k == qmin, k == qmax)
    drop_hi = np.where(pos, k == qmax, k == qmin)
    lower = np.where(drop_lo, np.int64(1), lo_vals)
    upper = np.where(drop_hi, np.int64(2) ** 62, hi_vals)
    lo = max(1, int(lower.max()))
    hi = min(INT32_MAX, int(upper.min()))
    if lo > hi:
        return None
    return min(max(m0, lo), hi)


def _adc_multipliers(s_p_cols: np.ndarray, qmin: float, qmax: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest per-column ``(M0, shift)`` encoding of ``1/s_p``, unverified.

    Each shift uses the full 31-bit mantissa range, clipped to
    ``[0, adc_shift_cap(qmin, qmax)]``; returns ``int64`` arrays.
    """
    m = 1.0 / np.asarray(s_p_cols, dtype=np.float64)
    if m.size == 0 or not np.all(np.isfinite(m)) or float(m.min()) <= 0.0:
        raise ValueError("partial-sum scales must be finite and positive")
    shift = np.floor(31.0 - np.log2(m)).astype(np.int64)
    np.clip(shift, 0, adc_shift_cap(qmin, qmax), out=shift)
    m0 = np.round(m * np.exp2(shift.astype(np.float64)))
    over = (m0 > INT32_MAX) & (shift > 0)
    while np.any(over):
        shift[over] -= 1
        m0 = np.round(m * np.exp2(shift.astype(np.float64)))
        over = (m0 > INT32_MAX) & (shift > 0)
    return np.clip(m0, 0, INT32_MAX).astype(np.int64), shift


def _verified_adc_multipliers(s_p_cols: np.ndarray, qmin: float, qmax: float,
                              dtype: np.dtype
                              ) -> Tuple[np.ndarray, int, np.ndarray]:
    """ADC mantissas for ``1/s_p``, exhaustively verified per column.

    The float route computes ADC codes as ``round(clip(psum / s_p))`` in the
    plan's ``dtype`` — half-even ties and all.  The executed fixed-point
    divide (:func:`requantize_up`) rounds halves up, so near a tie the two
    can land one code apart.  But the *disagreement domain is enumerable*:
    outside ``|psum / s_p| <= qmax + 0.5`` both paths saturate identically,
    so only a small integer window of partial sums per column can ever
    disagree.  This walks that window, replays the float route's exact
    expression as the oracle, and repairs any mismatching mantissa via
    :func:`_repair_adc_multiplier`.

    Each column gets its *own* shift, not one shared layer-wide: ``s_p``
    spans orders of magnitude across columns (a near-dead weight column
    learns a near-zero partial-sum scale), and under a shared shift the
    ordinary columns would be left with one-bit mantissas.  A shift below 0
    (``1/s_p`` beyond int32) saturates at ``M0 = INT32_MAX, shift = 0`` —
    such a column clips every nonzero partial sum, exactly like the float
    route does.  Shifts are capped at :func:`adc_shift_cap` so the executed
    ``float64`` carrier stays exact; a very small ``1/s_p`` then gets a
    shorter mantissa, which the verification below still holds to the
    oracle's codes.

    Returns ``(m0, shift, unverified)`` with ``m0`` / ``shift`` / ``unverified``
    per-column arrays; ``unverified`` marks the columns whose float tie
    pattern no single mantissa can reproduce (conflicting half-even ties;
    possible but rare) — those columns stay on the nearest mantissa, which
    then *defines* the integer route's code for the tie.
    """
    m064, shift = _adc_multipliers(s_p_cols, qmin, qmax)
    p_lo = np.floor((qmin - 0.5) * s_p_cols).astype(np.int64) - 1
    p_hi = np.ceil((qmax + 0.5) * s_p_cols).astype(np.int64) + 1
    n_cols = int(s_p_cols.shape[0])
    width = int((p_hi - p_lo).max()) + 1
    unverified = np.zeros(n_cols, dtype=bool)
    offsets = np.arange(width, dtype=np.int64)[None, :]
    chunk = max(1, (1 << 22) // width)   # bound the window matrix to ~32MiB
    for start in range(0, n_cols, chunk):
        rows = slice(start, min(start + chunk, n_cols))
        p = p_lo[rows, None] + offsets
        in_window = p <= p_hi[rows, None]
        vals = p.astype(dtype) / s_p_cols[rows].astype(dtype)[:, None]
        np.clip(vals, qmin, qmax, out=vals)
        oracle = np.round(vals).astype(np.int64)
        codes = requantize_up(p, m064[rows, None], shift[rows, None],
                              int(qmin), int(qmax))
        mismatch = (codes != oracle) & in_window
        for idx in np.nonzero(mismatch.any(axis=1))[0]:
            col = start + int(idx)
            fixed = _repair_adc_multiplier(
                p[idx][in_window[idx]], oracle[idx][in_window[idx]],
                (1 << int(shift[col])) >> 1, int(m064[col]),
                int(qmin), int(qmax))
            if fixed is None:
                unverified[col] = True
            else:
                m064[col] = fixed
    return m064.astype(np.int32), shift, unverified


# --------------------------------------------------------------------------- #
# compilation from a plan snapshot
# --------------------------------------------------------------------------- #
def _collapse_weight_scale(s_w: np.ndarray, n_arrays: int,
                           out_channels: int) -> np.ndarray:
    """Weight scale broadcast to a dense ``(A, OC)`` grid (its row axis is 1)."""
    flat = s_w.reshape(s_w.shape[0], s_w.shape[2])
    return np.ascontiguousarray(
        np.broadcast_to(flat, (n_arrays, out_channels)).astype(np.float64))


def compile_requant(state: dict,
                    dtype: np.dtype = np.float64
                    ) -> Optional[RequantConstants]:
    """Derive a layer's :class:`RequantConstants` from its compile-state dict.

    ``state`` is the snapshot produced by
    :meth:`repro.core.pipeline.CIMPipeline.compile_state` *before* any
    narrowing dtype cast — the float64 scales are the ground truth the
    fixed-point constants approximate.  ``dtype`` is the float width the
    plan will *execute* in: the ADC verification replays the float route's
    rounding in exactly that dtype.  Returns ``None`` for layers without an
    activation quantizer (a raw-float input has no integer grid, so there is
    nothing for an integer route to execute on; such layers stay on the
    float path even in integer mode).
    """
    if state.get("act_scale") is None:
        return None
    s_a = float(np.asarray(state["act_scale"]).reshape(-1)[0])
    w_bar = np.asarray(state["w_bar"])
    n_arrays, rows_per_array, out_channels = w_bar.shape
    act_amax = max(abs(float(state["act_qmin"])), abs(float(state["act_qmax"])))

    if state["psum_quant_enabled"]:
        splits = np.asarray(state["splits"])
        n_splits = splits.shape[0]
        s_p = np.ascontiguousarray(np.broadcast_to(
            np.asarray(state["s_p"], dtype=np.float64),
            (n_splits, n_arrays, out_channels)))
        shift_factors = np.asarray(state["shift_factors"], dtype=np.float64)
        s_w_grid = _collapse_weight_scale(np.asarray(state["s_w"]),
                                          n_arrays, out_channels)
        # folded dequant multiplier of the float path, (S, A, OC) -> (A, S, OC)
        m_fold = (s_p * shift_factors[:, None, None]
                  * s_w_grid[None, :, :]).transpose(1, 0, 2)
        s_out = s_a * m_fold.max(axis=(0, 1))               # (OC,)
        m0_out, shift = quantize_multipliers(m_fold / (s_out[None, None, :] / s_a))
        s_p_aso = np.ascontiguousarray(s_p.transpose(1, 0, 2))  # (A, S, OC)
        m0_adc_flat, shift_adc_flat, _ = _verified_adc_multipliers(
            s_p_aso.reshape(-1), float(state["psum_qmin"]),
            float(state["psum_qmax"]), np.dtype(dtype))
        m0_adc = m0_adc_flat.reshape(s_p_aso.shape)
        shift_adc = shift_adc_flat.reshape(s_p_aso.shape)
        m0_fused = None
        operand_amax = float(np.abs(splits).max()) if splits.size else 0.0
    else:
        s_w_grid = _collapse_weight_scale(np.asarray(state["s_w"]),
                                          n_arrays, out_channels)
        s_out = s_a * s_w_grid.max(axis=0)                  # (OC,)
        m0_fused, shift = quantize_multipliers(s_w_grid / (s_out / s_a))
        m0_adc, shift_adc, m0_out = None, None, None
        operand_amax = float(np.abs(w_bar).max()) if w_bar.size else 0.0

    acc_bound = int(rows_per_array * act_amax * operand_amax)
    if acc_bound < 2 ** 24:
        gemm_dtype = "float32"
    elif acc_bound < 2 ** 30:
        gemm_dtype = "float64"
    else:  # pragma: no cover - needs a ~billion-count accumulator geometry
        raise ValueError(
            f"per-array accumulator bound {acc_bound} leaves no int64 "
            "headroom for the fixed-point multipliers (need < 2**30)")
    if n_arrays * max(acc_bound, 1) >= 2 ** 32:  # pragma: no cover - ditto
        raise ValueError(
            f"{n_arrays} arrays x accumulator bound {acc_bound} could "
            "overflow the int64 layer accumulator")

    bias = state.get("bias")
    bias_q = (None if bias is None else
              np.round(np.asarray(bias, dtype=np.float64)
                       / s_out * 2.0 ** shift).astype(np.int64))
    return RequantConstants(shift=shift, s_out=np.asarray(s_out, np.float64),
                            gemm_dtype=gemm_dtype, acc_bound=acc_bound,
                            bias_q=bias_q, m0_fused=m0_fused,
                            m0_adc=m0_adc, shift_adc=shift_adc, m0_out=m0_out)


# --------------------------------------------------------------------------- #
# per-channel integer requant of a folded graph
# --------------------------------------------------------------------------- #
class RequantFoldError(ValueError):
    """A folded per-channel requant the ``float64`` carrier cannot execute.

    Raised at load time, before any batch runs: for a real multiplier
    beyond the int32 fixed-point range, a non-finite constant, or an
    inexact executed multiply-add that no ulp nudge of its offset repairs.
    """


#: Widest code range (``hi - lo``) a threshold-verified requant may span.
_MAX_VERIFIED_STEPS = 1 << 12
#: Ulp nudges tried per channel before a requant is refused.
_MAX_NUDGES = 16


def _requant_step(x: np.ndarray, mu, beta, lo: int, hi: int, out: np.ndarray,
                  overwrite: bool) -> np.ndarray:
    """``floor(clip(x * mu + beta, lo, hi))`` into ``out``.

    The one executed form of :class:`IntRequant`: the hot path
    (:meth:`IntRequant.execute`) and the load-time proof
    (:meth:`IntRequant._verify`) both run it.  ``overwrite`` reuses ``x``
    as the working buffer.
    """
    # int-pure: begin
    t = np.multiply(x, mu, out=x if overwrite else None)
    t += beta
    np.clip(t, lo, hi, out=t)
    return np.floor(t, out=out, casting="unsafe")
    # int-pure: end


@dataclass
class IntRequant:
    """Per-channel integer requant ``clip((x * m0 + bias) >> shift, lo, hi)``.

    The *definition* is plain integer arithmetic on an integer input ``x``
    with ``|x| <= xmax``: one signed int32 mantissa ``m0``, an integer
    ``bias`` and a right ``shift`` per channel (``>>`` floors; a negative
    shift is a left shift), and a saturation range ``[lo, hi]`` shared by
    all channels.  A negative
    ``m0`` (a BatchNorm with negative gamma) makes the map decreasing.

    It *executes* as ``floor(clip(x * mu + beta, lo, hi))`` on ``float64``
    with ``mu = m0 * 2**-shift`` (exact) and ``beta`` the float nearest
    ``bias * 2**-shift``.  Equality is settled at construction:

    * when ``xmax * |m0| + |bias| < 2**53`` every executed operation is
      exact, so the two agree by construction;
    * otherwise the map is a monotone step function of ``x`` with at most
      ``hi - lo`` steps, and so is the executed one (float rounding is
      monotone).  Both sides of every step, plus both ends of the input
      range, are evaluated both ways; agreement there proves agreement on
      the whole range.  A mismatch nudges that channel's ``beta`` by one
      ulp at a time; if that does not converge, :class:`RequantFoldError`.
    """

    m0: Tuple[int, ...]
    bias: Tuple[int, ...]
    shift: Tuple[int, ...]
    lo: int
    hi: int
    xmax: Tuple[int, ...]

    def __post_init__(self):
        self.mu = np.array([m * 2.0 ** -s for m, s in zip(self.m0, self.shift)],
                           dtype=np.float64)
        self.beta = np.array([b / (1 << s) if s >= 0 else float(b << -s)
                              for b, s in zip(self.bias, self.shift)],
                             dtype=np.float64)
        self._verify()

    @classmethod
    def from_real(cls, mult, offset, lo: int, hi: int, xmax) -> "IntRequant":
        """Encode ``clip(floor(x * mult + offset), lo, hi)`` per channel.

        ``mult`` and ``offset`` are per-channel real constants (``offset``
        carries the ``+1/2`` of round-half-up).  Each mantissa uses the full
        31 bits; ``bias = floor(offset * 2**shift)`` is exact, so only the
        mantissa rounds.  An offset so large that it saturates every
        reachable input is clamped, which changes no code.
        """
        mult = np.asarray(mult, dtype=np.float64).reshape(-1)
        offset = np.broadcast_to(np.asarray(offset, dtype=np.float64),
                                 mult.shape)
        xmax = np.broadcast_to(np.asarray(xmax, dtype=object), mult.shape)
        if not (np.all(np.isfinite(mult)) and np.all(np.isfinite(offset))):
            raise RequantFoldError("requant multipliers and offsets must be "
                                   "finite")
        m0s, biases, shifts = [], [], []
        for m, off, bound in zip(mult.tolist(), offset.tolist(),
                                 xmax.tolist()):
            shift = 0
            if m != 0.0:
                shift = 31 - math.frexp(abs(m))[1]
                if round(abs(m) * 2.0 ** shift) > INT32_MAX:
                    shift -= 1
                if shift < 0:
                    raise RequantFoldError(
                        f"requant multiplier {m!r} exceeds the int32 "
                        "fixed-point range")
            m0 = int(round(m * 2.0 ** shift))
            unit = 1 << shift
            reach = int(bound) * abs(m0)
            bias = math.floor(Fraction(off) * unit)
            bias = min(max(bias, lo * unit - reach - 1),
                       (hi + 1) * unit + reach)
            m0s.append(m0)
            biases.append(bias)
            shifts.append(shift)
        return cls(tuple(m0s), tuple(biases), tuple(shifts), int(lo), int(hi),
                   tuple(int(b) for b in xmax.tolist()))

    # ------------------------------------------------------------------ #
    def apply(self, x: int, channel: int) -> int:
        """The definition on one Python ``int`` (the reference semantics).

        A single-channel requant applies to every channel.
        """
        channel = channel if len(self.m0) > 1 else 0
        return min(max(self._unclipped(x, channel), self.lo), self.hi)

    def _unclipped(self, x: int, channel: int) -> int:
        """``(x * m0 + bias) >> shift`` of one channel, before the clip."""
        # int-pure: begin
        value = x * self.m0[channel] + self.bias[channel]
        shift = self.shift[channel]
        return value >> shift if shift >= 0 else value << -shift
        # int-pure: end

    def span(self) -> Tuple[int, int]:
        """Smallest and largest unclipped value over ``|x| <= xmax``.

        Taken over every channel; the map is monotone in ``x``, so the two
        ends of each channel's input range decide it.
        """
        values = [self._unclipped(x, c) for c, bound in enumerate(self.xmax)
                  for x in (-bound, bound)]
        return min(values), max(values)

    def execute(self, x: np.ndarray, out: np.ndarray, channel_axis: int = 1,
                overwrite: bool = False) -> np.ndarray:
        """Executed form on a ``float64`` array of integers, written to ``out``.

        Per-channel constants broadcast along ``channel_axis``; a
        single-channel requant applies to every channel.  ``overwrite=True``
        uses ``x`` itself as the working buffer (a ``float64`` array the
        caller no longer needs), so the pass allocates nothing.
        """
        shape = [1] * x.ndim
        shape[channel_axis] = -1
        return _requant_step(x, self.mu.reshape(shape),
                             self.beta.reshape(shape), self.lo, self.hi, out,
                             overwrite)

    def _points(self, c: int) -> list:
        """Inputs around every step of channel ``c``, plus the range ends."""
        m0, bias, unit = self.m0[c], self.bias[c], 1 << self.shift[c]
        bound = self.xmax[c]
        points = {-bound, bound}
        if m0 != 0:
            for k in range(self.lo + 1, self.hi + 1):
                edge = k * unit - bias
                if m0 > 0:       # code >= k  iff  x >= ceil(edge / m0)
                    first = -((-edge) // m0)
                    points.update((first - 1, first))
                else:            # code >= k  iff  x <= floor(edge / m0)
                    last = edge // m0
                    points.update((last, last + 1))
        return sorted(p for p in points if -bound <= p <= bound)

    def _verify(self) -> None:
        """Prove the executed form equals the definition (see class doc)."""
        for c, (m0, bias) in enumerate(zip(self.m0, self.bias)):
            if self.xmax[c] * abs(m0) + abs(bias) < 2 ** _FLOAT64_EXACT_BITS:
                continue
            if self.hi - self.lo > _MAX_VERIFIED_STEPS or \
                    self.shift[c] < 0 or \
                    self.xmax[c] >= 2 ** _FLOAT64_EXACT_BITS:
                raise RequantFoldError(
                    f"channel {c}: an inexact requant over {self.hi - self.lo}"
                    f" steps and |x| <= {self.xmax[c]} cannot be verified")
            points = self._points(c)
            want = np.array([self.apply(p, c) for p in points],
                            dtype=np.float64)
            xs = np.array(points, dtype=np.float64)
            for _ in range(_MAX_NUDGES):
                got = _requant_step(xs, self.mu[c], self.beta[c], self.lo,
                                    self.hi, np.empty_like(xs), False)
                if np.array_equal(got, want):
                    break
                low, high = bool(np.any(got < want)), bool(np.any(got > want))
                if low and high:
                    break
                self.beta[c] = np.nextafter(self.beta[c],
                                            np.inf if low else -np.inf)
            else:
                got = None
            if got is None or not np.array_equal(got, want):
                raise RequantFoldError(
                    f"channel {c}: no float64 offset reproduces the integer "
                    "requant at every step")
