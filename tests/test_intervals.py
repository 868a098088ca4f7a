"""Complex interval rectangles on top of mpmath's libmp intervals."""

import random
from fractions import Fraction

import pytest

from origami_rings import PrecisionError, Rational
from origami_rings.intervals import (
    MIN_PRECISION,
    ComplexInterval,
    interval_context,
    mpf_to_fraction,
    ratio_to_mpi,
    rational_to_iv,
)


def make(re, im, prec=64):
    re, im = Fraction(re), Fraction(im)
    return ComplexInterval(
        ratio_to_mpi(re.numerator, re.denominator, prec),
        ratio_to_mpi(im.numerator, im.denominator, prec),
        prec,
    )


def contains(iv, re, im):
    rl, rh = iv.real_bounds()
    il, ih = iv.imag_bounds()
    return rl <= re <= rh and il <= im <= ih


def test_rational_endpoints_enclose():
    ctx = interval_context(64)
    for value in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**30, 3), Fraction(0)):
        iv = rational_to_iv(value, ctx)
        lo, hi = (mpf_to_fraction(e) for e in iv._mpi_)
        assert lo <= value <= hi


def test_exact_dyadic_is_tight():
    iv = rational_to_iv(Fraction(3, 8), interval_context(64))
    lo, hi = (mpf_to_fraction(e) for e in iv._mpi_)
    assert lo == hi == Fraction(3, 8)


def test_min_precision_enforced():
    with pytest.raises(ValueError):
        Rational(1).to_interval(MIN_PRECISION - 1)


def test_division_encloses_exact_quotients():
    rng = random.Random(21)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        d = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        if c != 0 or d != 0:
            n = c * c + d * d
            assert contains(make(a, b) / make(c, d), (a * c + b * d) / n, (b * c - a * d) / n)


def test_division_by_zero_straddling_interval():
    with pytest.raises(PrecisionError):
        make(1, 0) / make(0, 0)


def test_cross_precision_division_preserves_enclosure():
    a = make(Fraction(1, 3), Fraction(-1, 7), 64)
    b = make(Fraction(1, 3), Fraction(-1, 7), 256)
    q = a / b
    assert contains(q, 1, 0)
    assert q.prec == 64  # the left operand's precision wins


def test_higher_precision_nests_inside_lower():
    value = Fraction(1, 3)
    coarse = rational_to_iv(value, interval_context(64))
    fine = rational_to_iv(value, interval_context(256))
    c_lo, c_hi = (mpf_to_fraction(e) for e in coarse._mpi_)
    f_lo, f_hi = (mpf_to_fraction(e) for e in fine._mpi_)
    assert c_lo <= f_lo <= f_hi <= c_hi


def test_encloses():
    outer = make(Fraction(1, 3), Fraction(1, 3), 64)
    inner = make(Fraction(1, 3), Fraction(1, 3), 256)
    assert outer.encloses(inner)
    assert not inner.encloses(outer)
    with pytest.raises(TypeError):
        outer.encloses(Fraction(1, 3))


def test_endpoint_strings_deterministic():
    z = make(Fraction(1, 3), Fraction(-2, 7), 64)
    assert z.endpoint_strings() == z.endpoint_strings()
    ctx = interval_context(64)
    assert ctx.prec == 64


def test_repr_prints_the_endpoint_strings():
    z = make(Fraction(1, 2), Fraction(-3, 4), 64)
    re_lo, re_hi, im_lo, im_hi = z.endpoint_strings()
    assert repr(z) == f"ComplexInterval(re=[{re_lo}, {re_hi}], im=[{im_lo}, {im_hi}], prec=64)"
    assert (re_lo, im_hi) == ("0.5", "-0.75")
