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
  :class:`RequantConstants` — output scale, fixed-point multipliers, the
  ``int32``/``int64`` bias fold and the exact-integer GEMM carrier — from the
  same compile-state snapshot the float plan is built from.

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
executes the stage, compiled or loaded.  The fused route's multipliers,
the bias fold and the single output rounding shift stay genuine ``int64``
math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "INT32_MIN",
    "INT32_MAX",
    "INT8_MIN",
    "INT8_MAX",
    "MAX_SHIFT",
    "OUTPUT_FRACTION_BITS",
    "quantize_multiplier",
    "quantize_multipliers",
    "requantize",
    "requantize_up",
    "adc_shift_cap",
    "CarrierRangeError",
    "check_adc_carrier",
    "carrier_multiplier",
    "requantize_up_f64",
    "RequantConstants",
    "compile_requant",
]

INT32_MIN = -(2 ** 31)
INT32_MAX = 2 ** 31 - 1
INT8_MIN = -128
INT8_MAX = 127

#: Largest supported rounding shift.  Keeps ``|acc * M0| + 2**(shift-1)``
#: inside ``int64`` for any int32 accumulator and any int32 mantissa:
#: ``2**31 * 2**31 + 2**54 < 2**63``.
MAX_SHIFT = 55

#: Fractional bits of the integer output code below the layer's natural
#: scale.  The output grid is ``s_a * max(multiplier) * 2**-24``, so the one
#: rounding step of the integer route perturbs the output by at most
#: ``2**-25`` of the natural scale — without this margin a layer's rounding
#: noise lands near the *next* layer's activation-quantizer boundaries often
#: enough to flip codes, and a flipped code cascades at unit scale through
#: the remaining layers (deeper/wider models flip argmaxes).  24 bits puts
#: the rounding term at the same order as the irreducible ``2**-32``-relative
#: mantissa error mass, so more bits would buy nothing.  The encoded
#: multipliers scale *up* by ``2**24`` correspondingly, which only lowers
#: the shared shift by 24; the ``int64`` overflow analysis is unchanged
#: because the mantissas still cap at ``2**31``.
OUTPUT_FRACTION_BITS = 24

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


def requantize_up_f64(b: np.ndarray, mu, qmin: float,
                      qmax: float) -> np.ndarray:
    """:func:`requantize_up` on the exact ``float64`` carrier, in place.

    ``b`` holds integer partial sums ``p`` as ``float64``; on return it holds
    ``clip(floor(p * mu + 1/2), qmin, qmax)`` with ``mu`` from
    :func:`carrier_multiplier` — bit-identical to ``requantize_up(p, M0,
    shift, qmin, qmax)`` whenever :func:`check_adc_carrier` accepts the
    constants (argument in the module docstring).  Returns ``b``.
    """
    b *= mu
    b += 0.5
    np.clip(b, qmin, qmax, out=b)
    return np.floor(b, out=b)


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

    The integer route computes ``int64`` accumulator sums on a per-channel
    *output grid* ``s_out`` (the only float constant left — it is applied
    once, at the layer's output-dequant boundary) and reaches that grid
    through the fixed-point multipliers below.  Two mutually exclusive
    routes:

    fused (``psum_quant_enabled`` false)
        ``acc64 = sum_a (cols_a @ w_bar_a) * m0_fused[a]``; one rounding
        ``shift`` at the end maps the accumulator onto the output grid.

    ADC (``psum_quant_enabled`` true)
        per-(split, array) partial sums requantize through ``m0_adc`` /
        ``shift_adc`` into saturated ADC codes, which then reduce through
        ``m0_out`` and the shared output ``shift``.

    ``bias_q`` is the bias pre-folded onto the *accumulator* grid
    (``round(bias / (s_out * 2**-shift))``) so it is added before the single
    rounding shift — the whole layer rounds exactly once.

    The output grid carries :data:`OUTPUT_FRACTION_BITS` fractional bits
    below the layer's natural scale (``s_a * max(multiplier)``), so the
    single output rounding costs ``2**-25`` of the natural scale instead of
    half of it; the output code is correspondingly wider than int8, which is
    free — it lives in the ``int64`` accumulator and is dequantized
    immediately.  ``drift_bound`` is the *declared* worst-case max-abs
    deviation from the float oracle, computed at compile time from the
    actual multiplier/rounding error terms of this layer (see
    :func:`compile_requant`); the differential test harness holds the
    integer route to it.
    """

    shift: int                           # output rounding shift
    s_out: np.ndarray                    # (OC,) float64 output-grid scale
    drift_bound: float = 0.0             # declared max-abs drift vs float
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
            "drift_bound": float(self.drift_bound),
            "zero_points": [int(self.z_in), int(self.z_w), int(self.z_out)],
        }

    def arrays(self) -> Dict[str, np.ndarray]:
        """Array payload keyed ``rq_<field>`` (``None`` fields omitted)."""
        return {f"rq_{name}": getattr(self, name) for name in self._ARRAYS
                if getattr(self, name) is not None}

    @classmethod
    def from_parts(cls, meta: dict, arrays: Dict[str, np.ndarray]
                   ) -> "RequantConstants":
        """Inverse of (:meth:`meta`, :meth:`arrays`)."""
        z_in, z_w, z_out = meta.get("zero_points", (0, 0, 0))
        return cls(shift=int(meta["shift"]),
                   gemm_dtype=str(meta.get("gemm_dtype", "float32")),
                   acc_bound=int(meta.get("acc_bound", 0)),
                   drift_bound=float(meta.get("drift_bound", 0.0)),
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
    possible but rare) — those columns stay on the nearest mantissa and
    their worst-case one-code slip is charged to the layer's declared drift
    bound instead.
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
        s_out = (s_a * m_fold.max(axis=(0, 1))              # (OC,)
                 * 2.0 ** -OUTPUT_FRACTION_BITS)
        m0_out, shift = quantize_multipliers(m_fold / (s_out[None, None, :] / s_a))
        s_p_aso = np.ascontiguousarray(s_p.transpose(1, 0, 2))  # (A, S, OC)
        m0_adc_flat, shift_adc_flat, unverified = _verified_adc_multipliers(
            s_p_aso.reshape(-1), float(state["psum_qmin"]),
            float(state["psum_qmax"]), np.dtype(dtype))
        m0_adc = m0_adc_flat.reshape(s_p_aso.shape)
        shift_adc = shift_adc_flat.reshape(s_p_aso.shape)
        m0_fused = None
        operand_amax = float(np.abs(splits).max()) if splits.size else 0.0
        # error budget: the ADC mantissas are verified to reproduce the float
        # route's codes exactly, so only *unverified* columns (conflicting
        # half-even ties, see _verified_adc_multipliers) can slip one code —
        # worth s_a * m_fold each, summed per output channel ...
        if unverified.any():
            slip = np.where(unverified.reshape(s_p_aso.shape), m_fold, 0.0)
            tie_margin = s_a * float(slip.sum(axis=(0, 1)).max())
        else:
            tie_margin = 0.0
        # ... and the 2**-31-relative mantissa error of m0_out acts on the
        # summed |code| mass, bounded by every code saturated at the clip.
        psum_amax = max(abs(float(state["psum_qmin"])),
                        abs(float(state["psum_qmax"])))
        mantissa_mass = n_splits * n_arrays * psum_amax
    else:
        s_w_grid = _collapse_weight_scale(np.asarray(state["s_w"]),
                                          n_arrays, out_channels)
        s_out = (s_a * s_w_grid.max(axis=0)                 # (OC,)
                 * 2.0 ** -OUTPUT_FRACTION_BITS)
        m0_fused, shift = quantize_multipliers(s_w_grid / (s_out / s_a))
        m0_adc, shift_adc, m0_out = None, None, None
        operand_amax = float(np.abs(w_bar).max()) if w_bar.size else 0.0
        tie_margin = 0.0
        mantissa_mass = None  # filled from acc_bound below

    acc_bound = int(rows_per_array * act_amax * operand_amax)
    if mantissa_mass is None:
        mantissa_mass = float(n_arrays * acc_bound)
    # two output-grid steps (one rounding shift + slack for the bias fold's
    # own rounding) plus the mantissa representation error scaled onto the
    # output grid, plus the ADC tie margin.
    drift_bound = (float(s_out.max())
                   * (2.0 + mantissa_mass * 2.0 ** -(shift + 1))
                   + tie_margin)
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
                            drift_bound=drift_bound,
                            gemm_dtype=gemm_dtype, acc_bound=acc_bound,
                            bias_q=bias_q, m0_fused=m0_fused,
                            m0_adc=m0_adc, shift_adc=shift_adc, m0_out=m0_out)
