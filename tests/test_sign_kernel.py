"""The fixed-point sign kernel against the interval oracle.

`CyclotomicElement.part_bounds` sums each value's integer coefficients
against fixed-point bounds of cos and sin; `refined_sign`, `real_sign` and
`ceil_exact` decide on those bounds.  Every decision here is checked against
the same decision on complex interval enclosures (`oracle_refined_sign`,
`oracle_real_sign`, `oracle_ceil_exact`).
"""

import random
from fractions import Fraction

import pytest

from origami_rings import (
    CyclotomicElement,
    ParamRational,
    PrecisionError,
    Rational,
    approximate,
    ceil_exact,
    real_imag_parts,
    real_sign,
    root_of_unity,
    scalars,
)
from origami_rings.anglespec import parse_angle_list
from origami_rings.geometry import _imag_sign
from origami_rings.scalars import refined_sign
from helpers import (
    oracle_ceil_exact,
    oracle_inv,
    oracle_least_exponent,
    oracle_real_sign,
    oracle_refined_sign,
    random_cyclo,
)

ORDERS = list(range(3, 121)) + [240]


def near_tie(order, k=5):
    """y = p**k - q for p = cos(2*pi/order)/2 and a dyadic q with
    |y| < 2**-100, so y is nonzero but no 64-bit bound decides its sign."""
    z = root_of_unity(order, 1)
    x = ((z + z.conj()) * Fraction(1, 4)) ** k
    lo, hi = x.to_interval(512).real_bounds()
    q = Fraction(round((lo + hi) / 2 * 2**110), 2**110)
    y = x - q
    lo, hi = y.to_interval(512).real_bounds()
    assert max(abs(lo), abs(hi)) < Fraction(1, 2**100)
    return y


def test_part_bounds_enclose_the_value():
    rng = random.Random(7)
    for order in ORDERS:
        x = random_cyclo(rng, order) * rng.choice([1, 10**30, Fraction(1, 10**30)])
        iv = x.to_interval(256)
        for imag, (lo_iv, hi_iv) in ((False, iv.real_bounds()), (True, iv.imag_bounds())):
            for bits in (64, 128):
                lo, hi, scale = x.part_bounds(bits, imag)
                assert scale == x._den << bits
                assert Fraction(lo, scale) <= hi_iv and lo_iv <= Fraction(hi, scale)
    r = Rational(Fraction(-7, 3))
    assert r.part_bounds(64) == (-7 << 64, -7 << 64, 3 << 64)
    assert r.part_bounds(64, imag=True) == (0, 0, 3 << 64)


def test_signs_and_ceilings_match_the_oracle():
    """Random values at every order 3..120 and 240: the signs of both parts
    of a value, the sign of its real part as a real scalar, and ceilings of
    that real part at three scales."""
    rng = random.Random(11)
    for order in ORDERS:
        for _ in range(2):
            x = random_cyclo(rng, order)
            re2, im2 = x + x.conj(), x - x.conj()
            if not re2.is_zero():
                assert refined_sign(x) == oracle_refined_sign(x), (order, x)
            if not im2.is_zero():
                assert refined_sign(x, imag=True) == oracle_refined_sign(x, imag=True)
                assert _imag_sign(x) == oracle_refined_sign(x, imag=True)
            assert real_sign(re2) == oracle_real_sign(re2)
            for scale in (1, Fraction(1, 7), 10**12):
                v = re2 * scale
                assert ceil_exact(v) == oracle_ceil_exact(v), (order, v)
                assert ceil_exact(-v) == oracle_ceil_exact(-v), (order, v)


@pytest.mark.parametrize("order", [12, 120, 240])
def test_near_ties_refine_past_64_bits(order):
    y = near_tie(order)
    stats = {}
    assert real_sign(y, stats) == oracle_real_sign(y)
    assert stats["bits"] >= 128
    for shift in (7, -3):
        for v in (y + shift, shift - y):
            stats = {}
            assert ceil_exact(v, stats) == oracle_ceil_exact(v)
            assert stats["bits"] >= 128
            assert stats["climbs"] <= 1
    assert real_sign(y + Fraction(1, 3) - Fraction(1, 3)) == real_sign(y)


def test_exact_zeros():
    sqrt3 = root_of_unity(12, 1) + root_of_unity(12, 11)
    zero = sqrt3 * sqrt3 - 3
    stats = {}
    assert real_sign(zero, stats) == 0 and stats == {}
    assert real_sign(CyclotomicElement(12, [0, 0, 0, 0])) == 0
    assert real_sign(sqrt3.embed(24) - sqrt3) == 0
    assert _imag_sign(sqrt3) == 0
    assert ceil_exact(zero) == 0
    # a value whose real part is 0 has no sign to refine, its imaginary part does
    i = root_of_unity(4, 1)
    assert _imag_sign(i * sqrt3) == 1 and _imag_sign(-i) == -1


def test_precision_error_under_a_lowered_ceiling(monkeypatch):
    y = near_tie(120)
    wide = (root_of_unity(12, 1) + root_of_unity(12, 11)) * 2**80
    assert real_sign(y) != 0 and ceil_exact(wide)
    monkeypatch.setattr(scalars, "_MAX_SIGN_BITS", 64)
    with pytest.raises(PrecisionError):
        real_sign(y)
    with pytest.raises(PrecisionError):
        refined_sign(y * root_of_unity(4, 1), imag=True)
    with pytest.raises(PrecisionError, match="narrow below 1"):
        ceil_exact(wide)
    with pytest.raises(PrecisionError):
        ceil_exact(y + 7)


def test_parametric_and_non_real_inputs_are_refused():
    t = ParamRational.t_power(1)
    real_t = t + t.conj()  # 2*cos(t_arg): real for every t, but symbolic
    assert real_t.is_real() and not real_t.is_rational()
    for decide in (real_sign, ceil_exact, lambda v: refined_sign(v)):
        with pytest.raises(ValueError):
            decide(real_t)
    for decide in (real_sign, ceil_exact):
        with pytest.raises(ValueError):
            decide(root_of_unity(4, 1))


@pytest.mark.parametrize(
    "spec", ["0,pi*1/4,pi*1/3,pi*1/2", "0,pi*1/12,pi*1/6,pi*1/4", "0,pi*1/5,pi*1/4,pi*1/3"]
)
def test_tiny_epsilon_witness_matches_the_oracle(spec):
    """At epsilon 1e-30 the exponents are the scan's, each ceiling and the
    error certificate's sign the interval oracle's."""
    angles = parse_angle_list(spec)[0]
    eps = Fraction(1, 10**30)
    for tre, tim in [(Fraction(1, 3), Fraction(-7, 5)), (Fraction(-3, 2), Fraction(1, 9))]:
        w = approximate(tre, tim, eps, angles)
        re_z, im_z = real_imag_parts(w.z)
        abs_im = im_z if oracle_real_sign(im_z) > 0 else -im_z
        assert w.n2 == oracle_least_exponent(w.p, abs_im, eps / 2)
        assert w.n1 == oracle_least_exponent(w.p, Rational(1), eps / 2)
        assert w.b == oracle_ceil_exact(tim * oracle_inv(im_z * w.p**w.n2))
        residual = tre - w.b * w.p**w.n2 * re_z
        assert w.a == oracle_ceil_exact(residual * oracle_inv(w.p**w.n1))
        re, im = real_imag_parts(w.value)
        assert oracle_real_sign(eps**2 - (re - tre) ** 2 - (im - tim) ** 2) > 0
