"""Complex interval arithmetic on top of mpmath's mpi type."""

import random
from fractions import Fraction

import pytest

from origami_rings import PrecisionError
from origami_rings.intervals import (
    MIN_PRECISION,
    ComplexInterval,
    interval_context,
    iv_endpoints,
    mpf_to_fraction,
    rational_to_iv,
)


def make(re, im, prec=64):
    return ComplexInterval.from_rationals(Fraction(re), Fraction(im), prec)


def test_rational_endpoints_enclose():
    ctx = interval_context(64)
    for value in (Fraction(1, 3), Fraction(-22, 7), Fraction(10**30, 3), Fraction(0)):
        iv = rational_to_iv(value, ctx)
        lo, hi = (mpf_to_fraction(e) for e in iv_endpoints(iv))
        assert lo <= value <= hi


def test_exact_dyadic_is_tight():
    iv = rational_to_iv(Fraction(3, 8), interval_context(64))
    lo, hi = (mpf_to_fraction(e) for e in iv_endpoints(iv))
    assert lo == hi == Fraction(3, 8)


def test_min_precision_enforced():
    with pytest.raises(ValueError):
        ComplexInterval.from_rationals(Fraction(1), Fraction(0), MIN_PRECISION - 1)


def test_arithmetic_encloses_exact_values():
    rng = random.Random(21)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        d = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        x = make(a, b)
        y = make(c, d)
        assert (x + y).contains_value(a + c, b + d)
        assert (x - y).contains_value(a - c, b - d)
        assert (x * y).contains_value(a * c - b * d, a * d + b * c)
        if c != 0 or d != 0:
            n = c * c + d * d
            assert (x / y).contains_value((a * c + b * d) / n, (b * c - a * d) / n)


def test_division_by_zero_straddling_interval():
    num = make(1, 0)
    wide = make(0, 0) - make(0, 0)  # exact zero interval
    with pytest.raises(PrecisionError):
        num / wide


def test_conj():
    z = make(Fraction(3), Fraction(-4))
    zc = z.conj()
    assert zc.contains_value(Fraction(3), Fraction(4))


def test_cross_precision_alignment_preserves_enclosure():
    a = make(Fraction(1, 3), Fraction(-1, 7), 64)
    b = make(Fraction(1, 3), Fraction(-1, 7), 256)
    s = a + b
    assert s.contains_value(Fraction(2, 3), Fraction(-2, 7))
    assert s.prec == 64  # coarsest precision wins


def test_higher_precision_nests_inside_lower():
    value = Fraction(1, 3)
    coarse = rational_to_iv(value, interval_context(64))
    fine = rational_to_iv(value, interval_context(256))
    c_lo, c_hi = (mpf_to_fraction(e) for e in iv_endpoints(coarse))
    f_lo, f_hi = (mpf_to_fraction(e) for e in iv_endpoints(fine))
    assert c_lo <= f_lo <= f_hi <= c_hi


def test_encloses_and_width():
    outer = make(0, 0) + make(Fraction(1, 3), Fraction(1, 3))
    inner = ComplexInterval.from_rationals(Fraction(1, 3), Fraction(1, 3), 256)
    assert outer.encloses(inner)
    assert outer.width() >= inner.width()


def test_endpoint_strings_deterministic():
    z = make(Fraction(1, 3), Fraction(-2, 7), 64)
    assert z.endpoint_strings() == z.endpoint_strings()
    ctx = interval_context(64)
    assert ctx.prec == 64
