"""Property tests of the fixed-point requantization primitives.

:func:`repro.core.requant.requantize_up` claims *exact* integer semantics:
``floor(acc * M0 / 2**shift + 1/2)`` with no float intermediate.  These
tests hold it to that claim against an arbitrary-precision
:class:`fractions.Fraction` oracle, including the int32/int64 boundary
magnitudes where any hidden float64 pass-through would corrupt low bits.
The executed ADC stage runs on an exact float carrier instead; its tests
hold it bit for bit to :func:`requantize_up` and an int64 reduce at the
edges of its exactness argument (largest shift, largest mantissa,
accumulator extremes, exact half ties, saturation).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.requant import (INT32_MAX, INT32_MIN, MAX_SHIFT,
                                CarrierRangeError, IntRequant,
                                RequantConstants, RequantFoldError,
                                _adc_multipliers, adc_multiplier_f32,
                                _verified_adc_multipliers, adc_shift_cap,
                                carrier_multiplier, check_adc_carrier,
                                quantize_multipliers, requantize_rint_f32,
                                requantize_up, requantize_up_f64)


def exact_requant_up(acc: int, m0: int, shift: int) -> int:
    """Arbitrary-precision oracle: ``floor(acc * m0 / 2**shift + 1/2)``."""
    q = Fraction(int(acc) * int(m0), 2 ** shift) + Fraction(1, 2)
    return q.numerator // q.denominator          # exact floor


class TestRequantizeUp:
    def test_matches_exact_rational_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for shift in (0, 1, 7, 19, 31, MAX_SHIFT):
            acc = rng.integers(-2 ** 30, 2 ** 30, size=256)
            m0 = rng.integers(0, 2 ** 20, size=256)
            got = requantize_up(acc, m0, shift)
            want = [exact_requant_up(a, m, shift) for a, m in zip(acc, m0)]
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))

    def test_rounds_halves_toward_plus_infinity(self):
        # the sign-uniform convention of the executed ADC stage: every .5
        # boundary moves up, for negatives too.
        acc = np.array([1, -1, 3, -3, 5, -5])
        np.testing.assert_array_equal(requantize_up(acc, 1, 1),
                                      [1, 0, 2, -1, 3, -2])

    def test_no_float_intermediate_at_int32_extremes(self):
        # (2**31 - 1)**2 is odd and > 2**53, so any float64 pass-through
        # would round the product and corrupt the result.
        prod = (2 ** 31 - 1) ** 2
        assert int(requantize_up(INT32_MAX, INT32_MAX, 0)) == prod
        assert float(prod) != prod                     # the trap is real
        assert int(requantize_up(INT32_MIN, INT32_MAX, 3)) == \
            exact_requant_up(INT32_MIN, INT32_MAX, 3)

    def test_max_shift_keeps_int64_headroom(self):
        # the documented invariant behind MAX_SHIFT: |acc * M0| +
        # 2**(shift-1) fits int64 for int32 acc and mantissa, both signs
        assert 2 ** 31 * INT32_MAX + 2 ** (MAX_SHIFT - 1) < 2 ** 63
        acc = np.array([INT32_MAX, INT32_MIN, -1, 1])
        np.testing.assert_array_equal(
            requantize_up(acc, INT32_MAX, MAX_SHIFT),
            [exact_requant_up(a, INT32_MAX, MAX_SHIFT) for a in acc])

    def test_saturation_bounds(self):
        acc = np.array([-1000, -5, -4, 0, 3, 5, 1000])
        np.testing.assert_array_equal(requantize_up(acc, 1, 0, -4, 3),
                                      [-4, -4, -4, 0, 3, 3, 3])
        np.testing.assert_array_equal(requantize_up(acc, 1, 0, -128, 127),
                                      np.clip(acc, -128, 127))

    def test_per_element_shift_array(self):
        # the ADC divide uses per-column shifts; broadcasting must apply
        # each element's own rounding offset.
        np.testing.assert_array_equal(
            requantize_up(np.array([5, 5, 5]), 1, np.array([0, 1, 2])),
            [5, 3, 1])

    def test_shift_zero_is_identity_times_m0(self):
        acc = np.array([-3, 0, 7])
        np.testing.assert_array_equal(requantize_up(acc, 9, 0), acc * 9)

    @pytest.mark.parametrize("shift", [-1, MAX_SHIFT + 1])
    def test_shift_out_of_range_raises(self, shift):
        with pytest.raises(ValueError, match="shift"):
            requantize_up(np.array([1]), 1, shift)

    @pytest.mark.parametrize("bound", [{"qmin": -4}, {"qmax": 3}],
                             ids=["qmin", "qmax"])
    def test_lone_saturation_bound_raises(self, bound):
        with pytest.raises(ValueError, match="both qmin and qmax"):
            requantize_up(np.array([1]), 1, 0, **bound)


class TestQuantizeMultipliers:
    def test_round_trip_accuracy(self):
        rng = np.random.default_rng(11)
        m = np.exp(rng.uniform(-8, 8, size=128))
        m0, shift = quantize_multipliers(m)
        assert m0.dtype == np.int32 and 0 <= shift <= MAX_SHIFT
        approx = m0.astype(np.float64) * 2.0 ** -shift
        # the shift is normalized on m.max(): error is half a mantissa ulp
        np.testing.assert_allclose(approx, m, atol=2.0 ** -(shift + 1))

    def test_dominant_multiplier_uses_full_mantissa_range(self):
        (m0,), shift = quantize_multipliers(np.array([1.0]))
        assert 2 ** 30 <= m0 <= INT32_MAX
        assert abs(int(m0) * 2.0 ** -shift - 1.0) <= 2.0 ** -31

    def test_huge_multiplier_raises(self):
        with pytest.raises(ValueError, match="int32"):
            quantize_multipliers(np.array([2.0 ** 33]))

    def test_tiny_multipliers_cap_at_max_shift(self):
        m0, shift = quantize_multipliers(np.array([2.0 ** -40]))
        assert shift == MAX_SHIFT

    @pytest.mark.parametrize("bad", [np.array([]), np.array([0.0]),
                                     np.array([-1.0, 2.0]),
                                     np.array([np.inf]), np.array([np.nan])])
    def test_invalid_inputs_raise(self, bad):
        with pytest.raises(ValueError):
            quantize_multipliers(bad)

    def test_wide_dynamic_range_zeroes_small_mantissas(self):
        # multipliers ~2**31 below the max are unrepresentable under the
        # shared shift; the correct fixed-point statement is a zero mantissa.
        m0, _ = quantize_multipliers(np.array([1.0, 2.0 ** -33]))
        assert m0[1] == 0 and m0[0] > 0


# --------------------------------------------------------------------------- #
# the per-channel integer requant of the folded graph
# --------------------------------------------------------------------------- #
def fraction_floor(x: int, mult: float, offset: float) -> int:
    q = Fraction(x) * Fraction(mult) + Fraction(offset)
    return q.numerator // q.denominator


def executed(rq: IntRequant, xs, channel: int) -> np.ndarray:
    x = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    out = np.empty(x.shape)
    if len(rq.m0) > 1:
        x = np.repeat(x, len(rq.m0), axis=1)
        out = np.empty(x.shape)
        return rq.execute(x, out)[:, channel]
    return rq.execute(x, out)[:, 0]


def probe_inputs(rq: IntRequant, channel: int, rng) -> list:
    """Random inputs plus every step edge and the range ends."""
    bound = rq.xmax[channel]
    xs = [int(v) for v in rng.integers(-bound, bound, size=64,
                                       endpoint=True)]
    return xs + rq._points(channel)


class TestIntRequant:
    @pytest.mark.parametrize("seed", range(6))
    def test_executed_equals_integer_definition(self, seed):
        rng = np.random.default_rng(seed)
        mult = rng.normal(size=5) * 2.0 ** rng.integers(-40, 2, size=5)
        mult[0] = 0.0                               # a zero-gamma channel
        mult[1] = -abs(mult[1])                     # a decreasing channel
        offset = rng.normal(size=5) * 4 + 0.5
        rq = IntRequant.from_real(mult, offset, 0, 7, 2 ** 40)
        for c in range(5):
            xs = probe_inputs(rq, c, rng)
            want = [rq.apply(x, c) for x in xs]
            np.testing.assert_array_equal(executed(rq, xs, c), want)

    def test_definition_tracks_the_real_map(self):
        rng = np.random.default_rng(3)
        mult, offset = np.array([3.1e-9]), np.array([0.5])
        rq = IntRequant.from_real(mult, offset, 0, 7, 2 ** 40)
        xs = [int(v) for v in rng.integers(0, 2 ** 32, size=2000)]
        flips = sum(rq.apply(x, 0) != min(max(fraction_floor(
            x, mult[0], offset[0]), 0), 7) for x in xs)
        assert flips <= 2        # only within 2**-31 of a step

    def test_exact_channels_skip_the_search(self):
        # unit mantissa, power-of-two scale: exact by construction, so the
        # executed form equals the definition at every input
        rq = IntRequant((1, 1), (5, -3), (2, -3), -100, 100, (1000, 1000))
        assert rq.mu.tolist() == [0.25, 8.0]
        for c in range(2):
            xs = list(range(-1000, 1001, 7))
            np.testing.assert_array_equal(executed(rq, xs, c),
                                          [rq.apply(x, c) for x in xs])

    def test_offsets_beyond_reach_are_clamped_harmlessly(self):
        rq = IntRequant.from_real([1e-12], [1e30], 0, 7, 2 ** 40)
        assert rq.bias[0] < 2 ** 80
        assert rq.apply(-2 ** 40, 0) == 7 == executed(rq, [-2 ** 40], 0)[0]

    def test_a_mistuned_offset_is_repaired(self):
        rq = IntRequant.from_real([2.0 ** -29 / 3], [0.5], 0, 7, 2 ** 40)
        edges = rq._points(0)
        rq.beta[0] = np.nextafter(rq.beta[0], -np.inf) - 2e-16
        rq._verify()
        np.testing.assert_array_equal(executed(rq, edges, 0),
                                      [rq.apply(x, 0) for x in edges])

    @pytest.mark.parametrize("mult,offset", [([np.inf], [0.5]),
                                             ([1.0], [np.nan]),
                                             ([2.0 ** 40], [0.5])])
    def test_unrepresentable_constants_are_refused(self, mult, offset):
        with pytest.raises(RequantFoldError):
            IntRequant.from_real(mult, offset, 0, 7, 2 ** 20)

    def test_unverifiable_range_is_refused(self):
        with pytest.raises(RequantFoldError):
            IntRequant.from_real([1.0 / 3], [0.5], -2 ** 40, 2 ** 40,
                                 2 ** 50)

    def test_single_channel_broadcasts(self):
        rq = IntRequant.from_real([0.25], [0.5], 0, 7, 64)
        x = np.arange(-8, 40, dtype=np.float64).reshape(2, 3, 8)
        out = rq.execute(x, np.empty(x.shape))
        want = [[[rq.apply(int(v), c) for v in row]
                 for c, row in enumerate(plane)] for plane in x]
        np.testing.assert_array_equal(out, want)


# --------------------------------------------------------------------------- #
# the exact float64 carrier of the ADC stage
# --------------------------------------------------------------------------- #
QMIN, QMAX = -4, 3                      # the 3-bit ADC code range
CAP = adc_shift_cap(QMIN, QMAX)
ACC_BOUNDS = (2 ** 24 - 1, 2 ** 30 - 1)  # float32 / float64 GEMM carriers


def carrier_codes(p, m0, shift, qmin=QMIN, qmax=QMAX) -> np.ndarray:
    """The executed float64 ADC stage on integer partial sums ``p``."""
    b = np.asarray(p, dtype=np.int64).astype(np.float64)
    return requantize_up_f64(b, carrier_multiplier(m0, shift), qmin, qmax)


def assert_carrier_matches_int64(p, m0, shift, qmin=QMIN, qmax=QMAX):
    got = carrier_codes(p, m0, shift, qmin, qmax)
    want = requantize_up(p, m0, shift, qmin, qmax)
    np.testing.assert_array_equal(got, want.astype(np.float64))


def int_window(m0: int, shift: int, amax: int = 4) -> np.ndarray:
    """Integer partial sums around the whole non-saturating region of
    ``M0 * 2**-shift`` (plus a few codes of saturation on each side)."""
    edge = ((amax + 3) << shift) // max(m0, 1) + 2
    if edge <= 4096:
        return np.arange(-edge, edge + 1, dtype=np.int64)
    rng = np.random.default_rng(m0 ^ shift)
    return np.unique(np.concatenate([
        rng.integers(-edge, edge + 1, size=4096),
        np.arange(-64, 65), edge - np.arange(64), -edge + np.arange(64)]))


class TestFloat64Carrier:
    def test_widening_into_out_matches_in_place(self):
        # the executed stage multiplies the float32 GEMM output straight
        # into a float64 block: same codes as widening first
        rng = np.random.default_rng(5)
        p = rng.integers(-(2 ** 20), 2 ** 20, size=(3, 4, 50))
        m0, shift = np.full((3, 4, 1), 2 ** 30 + 7), np.full((3, 4, 1), 40)
        mu = carrier_multiplier(m0, shift)
        out = np.empty(p.shape)
        got = requantize_up_f64(p.astype(np.float32), mu, QMIN, QMAX, out=out)
        assert got is out
        np.testing.assert_array_equal(got, carrier_codes(p, m0, shift))

    @pytest.mark.parametrize("seed", range(4))
    def test_float32_stage_equals_int64_on_the_whole_window(self, seed):
        # every reachable partial sum, exhaustively, for random constants;
        # a float64 out (the reduce's carrier) rounds in float32 all the same
        rng = np.random.default_rng(seed)
        shape = (2, 3, 5)
        bound = 300
        m0 = rng.integers(1, INT32_MAX, size=shape)
        shift = rng.integers(20, CAP + 1, size=shape)
        m0[0, 0, 0], shift[0, 0, 0] = 0, 7             # a dead column
        rq = RequantConstants(shift=0, s_out=np.ones(5), acc_bound=bound,
                              m0_adc=m0.astype(np.int32), shift_adc=shift)
        rq.m0_adc = (rng.integers(1, 2 ** 12, size=shape) << 30 >> shift
                     ).astype(np.int32)                 # codes in range
        mu32 = adc_multiplier_f32(rq, QMIN, QMAX)
        assert mu32 is not None and mu32.dtype == np.float32
        p = np.arange(-bound, bound + 1)
        for idx, out_dtype in itertools.product(np.ndindex(shape),
                                                (np.float32, np.float64)):
            got = requantize_rint_f32(p.astype(np.float32), mu32[idx],
                                      QMIN, QMAX, out=np.empty(p.size,
                                                              out_dtype))
            want = requantize_up(p, int(rq.m0_adc[idx]), int(shift[idx]),
                                 QMIN, QMAX)
            np.testing.assert_array_equal(got, want, err_msg=str(idx))

    def test_float32_stage_refuses_exact_ties(self):
        # p * M0 * 2**-shift = k + 1/2 exactly, for p of both signs: the
        # definition rounds every tie up, rint to even, and no float32
        # multiplier moves positive ties up and negative ones toward zero
        rq = RequantConstants(shift=0, s_out=np.ones(1), acc_bound=40,
                              m0_adc=np.array([[[1]]], np.int32),
                              shift_adc=np.array([[[2]]]))
        assert adc_multiplier_f32(rq, QMIN, QMAX) is None

    def test_float32_stage_needs_a_float32_gemm_carrier(self):
        rq = RequantConstants(shift=0, s_out=np.ones(1), acc_bound=40,
                              gemm_dtype="float64",
                              m0_adc=np.array([[[1]]], np.int32),
                              shift_adc=np.array([[[2]]]))
        assert adc_multiplier_f32(rq, QMIN, QMAX) is None

    def test_shift_cap_is_the_largest_exact_shift(self):
        assert CAP == 50
        for qmin, qmax in [(-4, 3), (0, 0), (-1, 1), (-128, 127), (0, 255)]:
            cap = adc_shift_cap(qmin, qmax)
            amax = max(abs(qmin), abs(qmax))
            bound = Fraction(2 * amax + 3, 2)          # max|q| + 1.5
            assert bound * 2 ** cap <= 2 ** 53 < bound * 2 ** (cap + 1)

    def test_carrier_multiplier_is_exact(self):
        m0 = np.array([1, 3, INT32_MAX, 2 ** 30 + 1])
        shift = np.array([0, CAP, CAP, 31])
        mu = carrier_multiplier(m0, shift)
        for value, m, s in zip(mu, m0, shift):
            assert Fraction(float(value)) == Fraction(int(m), 2 ** int(s))

    @pytest.mark.parametrize("m0,shift", [
        (1, 0), (INT32_MAX, 0), (3, 1), (INT32_MAX, 31), (2 ** 30, 31),
        (INT32_MAX, CAP), (1, CAP), (12345679, 27), (2 ** 27 + 1, CAP)])
    def test_whole_window_matches_int64(self, m0, shift):
        assert_carrier_matches_int64(int_window(m0, shift), m0, shift)

    @pytest.mark.parametrize("shift", [0, 1, 17, 31, CAP])
    @pytest.mark.parametrize("acc_bound", ACC_BOUNDS)
    def test_accumulator_extremes_saturate_identically(self, shift,
                                                       acc_bound):
        p = np.array([-acc_bound, -acc_bound + 1, acc_bound - 1, acc_bound])
        for m0 in (1, 2 ** 16 + 1, INT32_MAX):
            assert_carrier_matches_int64(p, m0, shift)

    @pytest.mark.parametrize("shift", [1, 2, 20, 31, CAP])
    def test_exact_half_ties_round_up(self, shift):
        # M0 = odd * 2**j and p = u * 2**(shift-1-j) with u odd puts p * M0 on
        # an odd multiple of 2**(shift-1): exactly halfway between two codes
        # (j is kept large enough that |p| stays within the accumulator)
        rng = np.random.default_rng(shift)
        for odd in (1, 3, 5, 2 ** 20 + 1):
            for j in range(max(0, shift - 26), min(shift, 31)):
                m0 = odd << j
                if m0 > INT32_MAX:
                    break
                u = 2 * rng.integers(-12, 12, size=16) + 1
                p = u * (1 << (shift - 1 - j))
                prod = [int(a) * m0 for a in p]
                assert all(x % (1 << shift) == 1 << (shift - 1) for x in prod)
                assert_carrier_matches_int64(p, m0, shift)
                np.testing.assert_array_equal(
                    carrier_codes(p, m0, shift),
                    np.clip([exact_requant_up(a, m0, shift) for a in p],
                            QMIN, QMAX))

    def test_saturation_on_both_sides(self):
        # first sums past qmax + 1/2 and below qmin - 1/2, then far beyond
        m0, shift = 1, 1                               # codes = p / 2
        p = np.array([-2 ** 29, -10, -9, -8, 5, 6, 7, 8, 2 ** 29])
        np.testing.assert_array_equal(carrier_codes(p, m0, shift),
                                      [-4, -4, -4, -4, 3, 3, 3, 3, 3])
        assert_carrier_matches_int64(p, m0, shift)

    def test_random_constants_match_int64(self):
        rng = np.random.default_rng(23)
        for _ in range(64):
            shift = int(rng.integers(0, CAP + 1))
            m0 = int(rng.integers(1, INT32_MAX, endpoint=True))
            assert_carrier_matches_int64(int_window(m0, shift), m0, shift)

    def test_other_code_ranges(self):
        for qmin, qmax in [(-128, 127), (0, 15), (-1, 1)]:
            cap = adc_shift_cap(qmin, qmax)
            for m0, shift in [(INT32_MAX, cap), (3, 1), (2 ** 29 + 7, 33)]:
                p = int_window(m0, shift, max(abs(qmin), abs(qmax)))
                assert_carrier_matches_int64(p, m0, shift, qmin, qmax)

    def test_float64_reduce_matches_int64_reduce(self):
        # codes x m0_out summed over every (array, split) — here at the
        # largest geometry the carrier guard admits with m0_out = INT32_MAX
        rng = np.random.default_rng(3)
        n_terms = (2 ** 53 - 1) // (4 * INT32_MAX)      # A * S at the bound
        assert n_terms * 4 * INT32_MAX < 2 ** 53
        codes = rng.integers(QMIN, QMAX, size=(3, n_terms), endpoint=True)
        codes[0] = QMIN                                 # every term maximal
        m0_out = np.full(n_terms, INT32_MAX, dtype=np.int64)
        m0_out[1:] = rng.integers(0, INT32_MAX, size=n_terms - 1)
        want = codes @ m0_out                           # int64 reference
        got = np.einsum("nt,t->n", codes.astype(np.float64),
                        m0_out.astype(np.float64))
        np.testing.assert_array_equal(got.astype(np.int64), want)


class TestAdcShiftCap:
    def test_compile_caps_the_shift(self):
        # 1/s_p = 2**-25 wants shift 56 for a full 31-bit mantissa; the
        # carrier cap keeps it at 50 with the exact 25-bit mantissa
        m0, shift = _adc_multipliers(np.array([2.0 ** 25, 0.37]), QMIN, QMAX)
        assert shift[0] == CAP and m0[0] == 2 ** (CAP - 25)
        assert shift[1] < CAP and 2 ** 30 <= m0[1] <= INT32_MAX

    def test_verified_multipliers_respect_the_cap(self):
        rng = np.random.default_rng(9)
        s_p = np.exp(rng.uniform(-4, 3, size=64))
        m0, shift, _ = _verified_adc_multipliers(s_p, QMIN, QMAX)
        assert int(shift.max()) <= CAP and int(shift.min()) >= 0
        assert int(m0.min()) >= 0

    def _constants(self, **overrides):
        a, s, oc = 2, 3, 4
        fields = dict(shift=20, s_out=np.ones(oc),
                      m0_adc=np.full((a, s, oc), 2 ** 30, dtype=np.int32),
                      shift_adc=np.full((a, s, oc), 33, dtype=np.int64),
                      m0_out=np.full((a, s, oc), INT32_MAX, dtype=np.int32))
        fields.update(overrides)
        return RequantConstants(**fields)

    def test_guard_accepts_compiled_ranges(self):
        check_adc_carrier(self._constants(), QMIN, QMAX)
        rq = self._constants(shift_adc=np.full((2, 3, 4), CAP))
        check_adc_carrier(rq, QMIN, QMAX)

    @pytest.mark.parametrize("shift", [CAP + 1, MAX_SHIFT, -1])
    def test_guard_rejects_shift_outside_the_cap(self, shift):
        shift_adc = np.full((2, 3, 4), 33, dtype=np.int64)
        shift_adc[1, 2, 3] = shift
        with pytest.raises(CarrierRangeError, match="ADC shifts"):
            check_adc_carrier(self._constants(shift_adc=shift_adc),
                              QMIN, QMAX)

    def test_guard_rejects_out_of_range_mantissas(self):
        m0_adc = np.full((2, 3, 4), 2 ** 32, dtype=np.int64)
        with pytest.raises(CarrierRangeError, match="mantissas"):
            check_adc_carrier(self._constants(m0_adc=m0_adc), QMIN, QMAX)

    def test_guard_rejects_an_inexact_reduce(self):
        n_terms = (2 ** 53) // (4 * INT32_MAX) + 1      # one term too many
        m0_out = np.full((n_terms, 1, 1), INT32_MAX, dtype=np.int32)
        rq = self._constants(m0_out=m0_out,
                             m0_adc=np.ones((n_terms, 1, 1), np.int32),
                             shift_adc=np.zeros((n_terms, 1, 1), np.int64))
        with pytest.raises(CarrierRangeError, match="2\\*\\*53"):
            check_adc_carrier(rq, QMIN, QMAX)
        assert issubclass(CarrierRangeError, ValueError)
