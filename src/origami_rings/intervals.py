"""Complex interval enclosures on mpmath's libmp interval kernels.

A ComplexInterval is a rectangle [re] x [im] whose endpoints are binary
floats at a chosen working precision: the enclosure of an exact scalar that
its backend's `to_interval` builds, rounding outward, for exports and plots.
Refinement means recomputing at higher precision.

Each part is held as a raw libmp interval, a (lo, hi) pair of mpf tuples, and
the enclosures call mpmath.libmp directly (mpi_add, mpi_mul, ...), in the
order and at the precision mpmath's ivmpf operators would use.  ivmpf objects
appear only where mpmath evaluates pi, cos and sin.  `Enclosures` lets many
enclosures at one precision share their terms, polynomials and endpoint
strings.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd

from mpmath import ctx_iv
from mpmath.libmp import (
    fzero,
    from_int,
    mpf_le,
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    to_str,
)

from .errors import PrecisionError

MIN_PRECISION = 8

ZERO = (fzero, fzero)


def check_precision(bits: int) -> None:
    if bits < MIN_PRECISION:
        raise ValueError(f"interval precision below {MIN_PRECISION} bits")


@functools.lru_cache(maxsize=None)
def interval_context(bits: int):
    check_precision(bits)
    ctx = ctx_iv.MPIntervalContext()
    ctx.prec = bits
    return ctx


def ratio_to_mpi(num: int, den: int, bits: int):
    """Raw enclosure of num/den for den > 0.

    The fraction is reduced first, as Fraction(num, den) would be: from_int
    rounds integers wider than bits, so the endpoints depend on the reduced
    numerator and denominator.  The quotient is that of ctx.mpf(num) /
    ctx.mpf(den) in an interval context of bits.
    """
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return mpi_div(
        (from_int(num, bits, round_floor), from_int(num, bits, round_ceiling)),
        (from_int(den, bits, round_floor), from_int(den, bits, round_ceiling)),
        bits,
    )


def rational_to_iv(q: Fraction, ctx):
    """ivmpf enclosure of a rational in the interval context ctx."""
    q = Fraction(q)
    return ctx.make_mpf(ratio_to_mpi(q.numerator, q.denominator, ctx.prec))


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf, given as an mpf or as its raw tuple."""
    sign, man, exp, _ = getattr(x, "_mpf_", x)
    if not man and exp:
        raise PrecisionError("interval endpoint is not finite")
    if sign:
        man = -man
    if exp >= 0:
        return Fraction(man << exp)
    return Fraction(man, 1 << -exp)


def endpoint_str(x, bits: int) -> str:
    """Decimal string of a raw mpf endpoint."""
    # enough decimal digits to round-trip the binary precision
    return to_str(x, int(bits * 0.302) + 3)


class Enclosures:
    """The interval work of enclosing values at one precision, shared.

    Within the life of one object each distinct cyclotomic term
    c/den*zeta_n^j (`terms`), parametric polynomial (`polys`), coefficient
    ratio (`ratio`) and endpoint string (`endpoint_strings`) is computed
    once, and so is the enclosure of t = exp(i*t_arg) (`unit`, None until
    the parametric backend first needs it).  The backends' `to_interval`
    fill and read the tables, and sum each value's enclosure exactly as
    they would alone, so it keeps the same bits.
    An export holds one object for the whole call and a lone `to_interval`
    call a fresh one: nothing is kept from one request to the next.
    t_arg is the specialization angle of parametric values, None otherwise.
    """

    __slots__ = ("bits", "t_arg", "unit", "terms", "polys", "ratios", "strings")

    def __init__(self, bits: int, t_arg=None):
        check_precision(bits)
        self.bits = bits
        self.t_arg = t_arg
        self.unit = None
        self.terms = {}
        self.polys = {}
        self.ratios = {}
        self.strings = {}

    @classmethod
    def for_call(cls, bits: int, t_arg, memo) -> "Enclosures":
        """memo, or a fresh object when it is None; a memo made for other
        bits or another t_arg holds other enclosures and raises ValueError."""
        if memo is None:
            return cls(bits, t_arg)
        if (memo.bits, memo.t_arg) != (bits, t_arg):
            raise ValueError(f"memo is for bits={memo.bits}, t_arg={memo.t_arg!r}")
        return memo

    def ratio(self, num: int, den: int):
        """ratio_to_mpi(num, den, bits), once per (num, den)."""
        key = (num, den)
        r = self.ratios.get(key)
        if r is None:
            r = self.ratios[key] = ratio_to_mpi(num, den, self.bits)
        return r

    def endpoint_strings(self, iv: "ComplexInterval") -> tuple[str, str, str, str]:
        """(re_lo, re_hi, im_lo, im_hi) of iv, a rectangle at this precision,
        as decimal strings, each distinct raw endpoint printed once."""
        strings, bits = self.strings, self.bits
        out = []
        for x in (*iv._re, *iv._im):
            s = strings.get(x)
            if s is None:
                s = strings[x] = endpoint_str(x, bits)
            out.append(s)
        return tuple(out)


def _contains(outer, inner) -> bool:
    return mpf_le(outer[0], inner[0]) and mpf_le(inner[1], outer[1])


class ComplexInterval:
    """Axis-aligned rectangle enclosing a complex value: what a backend's
    `to_interval` returns and an export prints."""

    __slots__ = ("_re", "_im", "prec")

    def __init__(self, re, im, prec: int):
        """re and im are raw libmp intervals, (lo, hi) pairs of mpf tuples."""
        self._re = re
        self._im = im
        self.prec = prec

    def _parts(self, other):
        # endpoints carry over unchanged from another precision; the result
        # is rounded at self.prec, so the enclosure is kept
        if not isinstance(other, ComplexInterval):
            raise TypeError("expected a ComplexInterval")
        return other._re, other._im

    def __truediv__(self, other):
        c, d = self._parts(other)
        a, b, p = self._re, self._im, self.prec
        den = mpi_add(mpi_mul(c, c, p), mpi_mul(d, d, p), p)
        sign, man, _, _ = den[0]
        if sign or not man:
            # the lower end is negative, zero or not finite
            raise PrecisionError(
                "division by an interval that may contain zero; raise precision"
            )
        return ComplexInterval(
            mpi_div(mpi_add(mpi_mul(a, c, p), mpi_mul(b, d, p), p), den, p),
            mpi_div(mpi_sub(mpi_mul(b, c, p), mpi_mul(a, d, p), p), den, p),
            p,
        )

    def real_bounds(self) -> tuple[Fraction, Fraction]:
        lo, hi = self._re
        return mpf_to_fraction(lo), mpf_to_fraction(hi)

    def imag_bounds(self) -> tuple[Fraction, Fraction]:
        lo, hi = self._im
        return mpf_to_fraction(lo), mpf_to_fraction(hi)

    def encloses(self, other: "ComplexInterval") -> bool:
        c, d = self._parts(other)
        return _contains(self._re, c) and _contains(self._im, d)

    def midpoint(self) -> complex:
        rl, rh = self.real_bounds()
        il, ih = self.imag_bounds()
        return complex((rl + rh) / 2, (il + ih) / 2)

    def endpoint_strings(self) -> tuple[str, str, str, str]:
        """(re_lo, re_hi, im_lo, im_hi) as decimal strings."""
        return Enclosures(self.prec).endpoint_strings(self)

    def __repr__(self):
        re_lo, re_hi, im_lo, im_hi = self.endpoint_strings()
        return (
            f"ComplexInterval(re=[{re_lo}, {re_hi}], im=[{im_lo}, {im_hi}], "
            f"prec={self.prec})"
        )
