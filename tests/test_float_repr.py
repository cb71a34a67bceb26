"""The surface CSV's vectorized float formatter against repr, the oracle.

_repr_words must give exactly repr(float(x)) for every double: digits of
its own for 1e-4 <= |x| < 1e16, repr's for the rest. Every mismatch fails;
each test also checks the share of values left to repr.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from switchseq.ambiguity import _repr_words

CHUNK = 2 ** 16  # values formatted per call, so no test holds large tables


def formatted(values: np.ndarray) -> tuple[list[str], int]:
    """The formatter's strings for a 1-D float array, and how many of them
    it left to repr."""
    words = np.zeros((12, values.size), dtype=np.uint32)
    words[11] = ord("\n")
    slow = _repr_words(np.ascontiguousarray(values, dtype=float), words[:11])
    return words.T.tobytes().translate(None, b"\0").decode().splitlines(), slow


def repr_share(values) -> float:
    """Assert the formatter matches repr on every value; return the share
    of values it left to repr."""
    values = np.asarray(values, dtype=float).ravel()
    slow = 0
    for lo in range(0, values.size, CHUNK):
        chunk = values[lo:lo + CHUNK]
        got, n = formatted(chunk)
        want = [repr(x) for x in chunk.tolist()]
        if got != want:
            bad = [(w, g) for w, g in zip(want, got) if w != g]
            pytest.fail(f"{len(bad)} of {chunk.size} differ from repr: {bad[:5]}")
        slow += n
    return slow / values.size


def in_range(values) -> np.ndarray:
    a = np.abs(np.asarray(values, dtype=float))
    return (a >= 1e-4) & (a < 1e16)


def test_random_bit_patterns_match_repr():
    # random sign and mantissa bits under a biased exponent drawn uniformly
    # from the binades of 2**-14 to 2**53, which hold 1e-4 <= |x| < 1e16, so
    # most values take the formatter's own path; then random bit patterns
    # of every double (subnormals, NaN payloads and infinities, mostly left
    # to repr), the signed zeros and the extremes
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 2 * 10 ** 6, dtype=np.uint64)
    exponents = rng.integers(1023 - 14, 1023 + 54, bits.size, dtype=np.uint64)
    drawn = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)
             | exponents << np.uint64(52)).view(np.float64)
    values = np.concatenate([
        drawn, rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
         2.2250738585072014e-308, 1.7976931348623157e308]])
    share = repr_share(values)
    assert 1 - in_range(values).mean() <= share < 1
    # all but the parts of the two end binades outside the range, and
    # about 3% of the bit patterns, lie in it and are formatted directly
    assert (1 - share) * values.size > 0.95 * drawn.size


def test_values_over_decimal_exponents_match_repr():
    rng = np.random.default_rng(18)
    values = rng.choice([-1.0, 1.0], 10 ** 6) * 10.0 ** rng.uniform(-5, 17, 10 ** 6)
    share = repr_share(values)
    outside = 1 - in_range(values).mean()  # exponents -5..-4 and 16..17
    assert outside < share < outside + 0.06, share


def test_powers_of_ten_and_the_range_ends_match_repr():
    tens = np.array([float(f"1e{e}") for e in range(-5, 18)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, math.inf),
                             [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]])
    repr_share(np.concatenate([values, -values]))


def test_powers_of_two_go_to_repr():
    # the rounding interval of a power of two is asymmetric, so repr
    # formats it; 2**-13 and 2**53 are the first and last in range
    values = 2.0 ** np.arange(-13, 54)
    assert in_range(values).all()
    assert repr_share(np.concatenate([values, -values])) == 1.0


def test_odd_16_digit_candidates_above_2_pow_53_match_repr():
    # |x| rounded to 16 digits is an odd integer above 2**53, which is not
    # a double, so when 15 digits do not read back repr formats x
    rng = np.random.default_rng(19)
    values = []
    for k in range(-4, 16):
        for d16 in rng.integers(2 ** 53 + 1, 10 ** 16, 200).tolist():
            d16 |= 1
            values.append(float(Fraction(d16) * Fraction(10) ** (k - 15)))
    values = np.array(values)
    assert in_range(values).all()
    share = repr_share(np.concatenate([values, -values]))
    assert 0 < share < 1


def half_way_ties(digits: int, rng: np.random.Generator, tries: int = 40) -> list[float]:
    """Doubles exactly half-way between two neighbouring decimals of
    `digits` significant digits, a few per decade 1e-4..1e15.

    A tie (D + 1/2) * 10**(k + 1 - digits) is dyadic only when 5**(digits -
    1 - k) divides 2D + 1, so the search draws 2D + 1 as that power of five
    times an odd t and keeps the ties that Fraction shows to be doubles."""
    ties = []
    for k in range(-4, 16):
        scale = Fraction(10) ** (k + 1 - digits)
        five = 5 ** max(digits - 1 - k, 0)
        t_lo, t_hi = 2 * 10 ** (digits - 1) // five + 1, 2 * 10 ** digits // five
        for _ in range(tries):
            t = int(rng.integers(t_lo, t_hi)) | 1
            tie = Fraction(five * t, 2) * scale
            if Fraction(float(tie)) == tie:
                ties.append(float(tie))
    return ties


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_exact_half_way_ties_match_repr(digits):
    ties = half_way_ties(digits, np.random.default_rng(digits))
    assert len(ties) > 100
    repr_share(np.concatenate([ties, np.negative(ties)]))


@settings(max_examples=300, deadline=None)
@given(st.floats())
def test_any_float_matches_repr(x):
    (got,), _ = formatted(np.array([x]))
    assert got == repr(x)
