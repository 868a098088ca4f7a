"""Rational functions of a formal unit-circle parameter t.

ParamRational models Q(t) where t stands for a generic point on the unit
circle, so complex conjugation acts by t -> 1/t.  A value is stored as two
integer polynomials N/D in canonical form: gcd(N, D) = 1 in Q[t], the
coefficients of N and D together have gcd 1, and D has a positive leading
coefficient.  Structural equality is then semantic equality.  The public
`num` and `den` are the same value over Q with a monic denominator, built on
first use.

`ParamField` gives parametric values `AmbientField`'s bulk interface, and
`bulk_field` picks one of the two for a task, so the closure step, the
membership solver and certificate evaluation each have one body.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from mpmath.libmp import mpi_add, mpi_mul, mpi_sub

from . import _polys
from .cyclotomic import AmbientField, field_order
from .errors import BackendMismatchError, NonInvertibleError
from .intervals import (
    ZERO,
    ComplexInterval,
    Enclosures,
    interval_context,
    rational_to_iv,
)
from .scalars import FRACTION, ExactScalar, as_scalar, common_backend


def _canonical(n, d):
    """Canonical (N, D) for the integer polynomials n/d, d nonzero."""
    if not n:
        return (), (1,)
    if len(n) > 1 and len(d) > 1:
        g = _polys.zgcd(n, d)
        if len(g) > 1:
            n = _polys.zdiv(n, g)
            d = _polys.zdiv(d, g)
    return _primitive(n, d)


def _primitive(n, d):
    """n/d with the content of n and d together divided out and d leading
    positive; canonical when n is nonzero and coprime to d in Q[t]."""
    c = gcd(*n, *d)
    if d[-1] < 0:
        c = -c
    if c != 1:
        n = tuple(a // c for a in n)
        d = tuple(a // c for a in d)
    return n, d


def _reversed(p):
    """Coefficients of t^deg(p) * p(1/t), with no trailing zeros."""
    i = 0
    while not p[i]:
        i += 1
    return tuple(reversed(p[i:]))


def _ratio_str(c: int, lead: int) -> str:
    """str(Fraction(c, lead)) for lead > 0, without building the Fraction."""
    g = gcd(c, lead)
    return str(c // g) if g == lead else f"{c // g}/{lead // g}"


class ParamRational(ExactScalar):
    """Element of Q(t) with conjugation t -> 1/t."""

    __slots__ = ("_n", "_d", "_num", "_den", "_key")
    _rank = 2

    def __init__(self, num, den=(1,)):
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = lcm(*(c.denominator for c in num + den))
        n = _polys.ztrim(c.numerator * (scale // c.denominator) for c in num)
        d = _polys.ztrim(c.numerator * (scale // c.denominator) for c in den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        self._n, self._d = _canonical(n, d)
        self._num = self._key = None

    @classmethod
    def _of(cls, n, d) -> "ParamRational":
        """Wrap an (N, D) pair that is already canonical."""
        x = object.__new__(cls)
        x._n, x._d, x._num, x._key = n, d, None, None
        return x

    @classmethod
    def _reduced(cls, n, d) -> "ParamRational":
        return cls._of(*_canonical(n, d))

    @classmethod
    def t_power(cls, k: int = 1) -> "ParamRational":
        if k >= 0:
            return cls._of((0,) * k + (1,), (1,))
        return cls._of((1,), (0,) * -k + (1,))

    @classmethod
    def from_rational(cls, value) -> "ParamRational":
        value = Fraction(value)
        if not value:
            return cls._of((), (1,))
        return cls._of((value.numerator,), (value.denominator,))

    # -- coefficients over Q ----------------------------------------------------

    def _monic(self):
        lead = self._d[-1]
        self._num = tuple(Fraction(c, lead) for c in self._n)
        self._den = tuple(Fraction(c, lead) for c in self._d)

    @property
    def num(self) -> tuple:
        """Numerator coefficients over Q, for the monic denominator `den`."""
        if self._num is None:
            self._monic()
        return self._num

    @property
    def den(self) -> tuple:
        """Monic denominator coefficients over Q."""
        if self._num is None:
            self._monic()
        return self._den

    # -- backend hooks ------------------------------------------------------

    # a/b * N/D and (b*N + a*D) / (b*D) stay coprime in Q[t] for a nonzero
    # a, since gcd(b*N + a*D, D) = gcd(N, D) = 1, so only the content changes

    def _scale(self, q):
        a, b = q.numerator, q.denominator
        if not a:
            return ParamRational._of((), (1,))
        return ParamRational._of(
            *_primitive(tuple(a * c for c in self._n), tuple(b * c for c in self._d))
        )

    def _shift(self, q):
        a, b = q.numerator, q.denominator
        n = _polys.zadd(tuple(b * c for c in self._n), tuple(a * c for c in self._d))
        if not n:
            return ParamRational._of((), (1,))
        return ParamRational._of(*_primitive(n, tuple(b * c for c in self._d)))

    def _add_same(self, other):
        if self._d == other._d:
            return ParamRational._reduced(_polys.zadd(self._n, other._n), self._d)
        num = _polys.zadd(
            _polys.zmul(self._n, other._d), _polys.zmul(other._n, self._d)
        )
        return ParamRational._reduced(num, _polys.zmul(self._d, other._d))

    def _mul_same(self, other):
        return ParamRational._reduced(
            _polys.zmul(self._n, other._n), _polys.zmul(self._d, other._d)
        )

    def _eq_same(self, other):
        return self._n == other._n and self._d == other._d

    def neg(self):
        return ParamRational._of(tuple(-c for c in self._n), self._d)

    def inv(self):
        if not self._n:
            raise NonInvertibleError("inverse of zero")
        n, d = self._d, self._n
        if d[-1] < 0:
            n, d = tuple(-c for c in n), tuple(-c for c in d)
        return ParamRational._of(n, d)

    def conj(self):
        """Substitute t -> 1/t and clear negative powers.

        With N = t^a N' and D = t^b D', the value becomes
        t^(deg D - deg N) rev(N') / rev(D').  Reversals of coprime
        polynomials with nonzero constant terms stay coprime, and the
        coefficients do not change, so only the sign needs fixing.
        """
        n, d = self._n, self._d
        if not n:
            return self
        shift = len(d) - len(n)
        n, d = _reversed(n), _reversed(d)
        if shift > 0:
            n = (0,) * shift + n
        elif shift < 0:
            d = (0,) * -shift + d
        if d[-1] < 0:
            n, d = tuple(-c for c in n), tuple(-c for c in d)
        return ParamRational._of(n, d)

    # -- predicates and keys ------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_rational(self):
        return len(self._n) <= 1 and len(self._d) == 1

    def is_real(self):
        # realness under every unit-circle specialization of t
        return self._eq_same(self.conj())

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    def __hash__(self):
        # equal values share the canonical (N, D); rationals hash like their
        # Fraction, as for every scalar
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self._n, self._d))

    def canonical_key(self):
        if self._key is None:
            if self.is_rational():
                self._key = b"Q:%s" % str(self.as_fraction()).encode()
            else:
                lead = self._d[-1]
                num = ",".join(_ratio_str(c, lead) for c in self._n)
                den = ",".join(_ratio_str(c, lead) for c in self._d)
                self._key = b"P:%s|%s" % (num.encode(), den.encode())
        return self._key

    def canonical_sign(self):
        for c in self._n:
            if c:
                return 1 if c > 0 else -1
        return 0

    # -- numerics ------------------------------------------------------------

    def part_bounds(self, bits: int, imag: bool = False):
        raise ValueError("parametric scalar needs a specialization angle")

    def to_interval(self, bits: int, t_arg=None, memo=None) -> ComplexInterval:
        """Enclose the value at the specialization t = exp(i*t_arg).

        t_arg is an angle in radians: an int/Fraction (exact), a float, or a
        string "pi*p/q" for exact rational multiples of pi.  N and D are
        each enclosed once per memo (`_horner`).
        """
        memo = Enclosures.for_call(bits, t_arg, memo)
        if t_arg is None:
            raise ValueError("parametric scalar needs a specialization angle")
        lead = self._d[-1]
        return _horner(self._n, lead, memo) / _horner(self._d, lead, memo)

    def to_obj(self):
        if self.is_rational():
            return {"backend": "rational", "value": str(self.as_fraction())}
        return {
            "backend": "param",
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    def __repr__(self):
        num = ",".join(str(c) for c in self.num) or "0"
        den = ",".join(str(c) for c in self.den)
        return f"ParamRational({num} / {den})"


def pi_multiple(t_arg: str) -> Fraction:
    """p/q of a specialization angle written "pi*p/q", for integers p and
    q != 0 (`scalars.FRACTION`); any other string raises ValueError."""
    ratio = t_arg[3:] if t_arg.startswith("pi*") else ""
    if FRACTION.fullmatch(ratio) and int(ratio.partition("/")[2] or 1):
        return Fraction(ratio)
    raise ValueError(f"bad specialization {t_arg!r}")


def _unit_point(bits: int, t_arg) -> ComplexInterval:
    """Enclosure of t = exp(i*t_arg); a string other than "pi*p/q" raises
    ValueError."""
    ctx = interval_context(bits)
    if isinstance(t_arg, str):
        angle = ctx.pi * rational_to_iv(pi_multiple(t_arg), ctx)
    elif isinstance(t_arg, float):
        angle = ctx.mpf(t_arg)
    else:
        angle = rational_to_iv(Fraction(t_arg), ctx)
    return ComplexInterval(ctx.cos(angle)._mpi_, ctx.sin(angle)._mpi_, bits)


def _horner(coeffs, lead: int, memo) -> ComplexInterval:
    """Enclosure of the sum of c/lead * t^k over the coefficients c of t^k,
    at t = exp(i*memo.t_arg), once per (coeffs, lead) in memo, with t
    enclosed once per memo.

    The accumulator starts at the leading coefficient's rectangle
    [c/lead] x [0]; each later step is the complex product acc * t followed
    by the sum of c/lead with the real part, on raw libmp intervals.
    """
    key = (coeffs, lead)
    iv = memo.polys.get(key)
    if iv is not None:
        return iv
    bits = memo.bits
    re = im = ZERO
    if coeffs:
        t = memo.unit
        if t is None:
            t = memo.unit = _unit_point(bits, memo.t_arg)
        tr, ti = t._re, t._im
        re = memo.ratio(coeffs[-1], lead)
        for c in reversed(coeffs[:-1]):
            re, im = (
                mpi_sub(mpi_mul(re, tr, bits), mpi_mul(im, ti, bits), bits),
                mpi_add(mpi_mul(re, ti, bits), mpi_mul(im, tr, bits), bits),
            )
            re = mpi_add(re, memo.ratio(c, lead), bits)
    iv = memo.polys[key] = ComplexInterval(re, im, bits)
    return iv


# -- coordinates over a common denominator -----------------------------------------


def common_denominator(values) -> tuple:
    """Primitive integer lcm C of the denominators of parametric values,
    with a positive leading coefficient."""
    common = (1,)
    for v in values:
        common = _polys.zlcm(common, _polys.primitive(v._d))
    return common


def scaled_numerator(value: ParamRational, common) -> tuple[tuple, int] | None:
    """(integer coefficients, positive scale) of value * C / lc(C), the value
    times the monic form of `common`, or None when that is not a polynomial."""
    d = _polys.primitive(value._d)
    mult = _polys.zdiv(common, d)
    if mult is None:
        return None
    return _polys.zmul(mult, value._n), common[-1] * (value._d[-1] // d[-1])



# -- bulk arithmetic ---------------------------------------------------------------


class ParamField:
    """`AmbientField`'s bulk interface for parametric values: the vector of a
    value is [value] over denominator 1, a rational made a ParamRational, so
    by the canonical form equal values give equal tuples.  There is no
    cyclotomic order."""

    __slots__ = ()
    order = None
    degree = 1

    def vector(self, x) -> tuple[list, int]:
        if isinstance(x, ParamRational):
            return [x], 1
        if not x.is_rational():
            raise BackendMismatchError(f"cannot combine ParamRational with {type(x).__name__}")
        return [ParamRational.from_rational(x.as_fraction())], 1

    def vectors(self, values) -> tuple[list[list], int]:
        return [self.vector(v)[0] for v in values], 1

    def conj(self, num) -> list:
        return [num[0].conj()]

    def mul(self, a, b) -> list:
        return [a[0] * b[0]]

    def element(self, num, den: int, order=None) -> ParamRational:
        """The value num[0], which an empty sum leaves as the int 0; every
        vector of this field sits over `den` = 1, and `order` is ignored."""
        return self.vector(as_scalar(num[0]))[0][0]


def bulk_field(values) -> AmbientField | ParamField:
    """The field for bulk work on values: ParamField when their
    `common_backend` is parametric, else AmbientField at the lcm of their
    orders; values that do not combine raise BackendMismatchError."""
    values = list(values)
    if common_backend(values) is ParamRational:
        return ParamField()
    return AmbientField(lcm(*(field_order(v) for v in values)))
