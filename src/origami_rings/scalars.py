"""Exact scalar backends: shared base class, rational numbers, mixing.

Every value that the geometry touches is an ExactScalar.  Concrete backends
are Rational (here), CyclotomicElement and ParamRational, ranked in that
order.  Values of one backend combine through its `_same` hooks.  Any other
operand is folded into the value in place (`_scale`, `_shift`) as its
Fraction: an int or Fraction, or a rational value of a lower-ranked
backend; a non-rational value of a lower rank raises BackendMismatchError.
`_operand` is that one rule, and `common_backend` applies it to bulk work.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import BackendMismatchError, NonInvertibleError, PrecisionError
from .intervals import ComplexInterval, Enclosures

# refinement ceiling for exact sign tests; a nonzero algebraic number always
# resolves long before this
_MAX_SIGN_BITS = 1 << 20


def _operand(x, than):
    """What x brings to an operation with the scalar `than`: an int or
    Fraction as it is, the Fraction of a rational value of a lower-ranked
    backend, and None for a value of the same or a higher rank, which takes
    `than` in instead.  A non-rational value of a lower rank raises
    BackendMismatchError."""
    if isinstance(x, (int, Fraction)):
        return x
    if x._rank >= than._rank:
        return None
    if not x.is_rational():
        names = type(than).__name__, type(x).__name__
        raise BackendMismatchError("cannot combine %s with %s" % names)
    return x.as_fraction()


def _operators(same, rational):
    """The forward and reflected methods of one binary operator of
    ExactScalar: same(a, b) combines two values of one backend, and
    rational(x, q, x_first) a value x with the int or Fraction q that the
    other operand brings (`_operand`), on either side (x_first: x is the
    left operand)."""

    def forward(self, other):
        if type(other) is type(self):
            return same(*self._merge(other))
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        q = _operand(other, self)
        if q is not None:
            return rational(self, q, True)
        return rational(other, _operand(self, other), False)

    def reflected(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return rational(self, other, False)

    return forward, reflected


def _divide(x, q, x_first: bool):
    """x / q, or q / x when x is the right operand."""
    if not x_first:
        return x.inv()._scale(q)
    if not q:
        raise NonInvertibleError("inverse of zero")
    return x._scale(1 / Fraction(q))


class ExactScalar:
    """Common operator plumbing for exact field elements.

    Subclasses implement the ``_same``-suffixed hooks for operands already in
    the same backend (and, for cyclotomic elements, the same order), and
    `_scale` and `_shift` for a rational operand.
    """

    __slots__ = ()
    _rank = 0  # the order in which backends combine (`_operand`)

    # -- hooks ------------------------------------------------------------

    def _add_same(self, other):
        raise NotImplementedError

    def _mul_same(self, other):
        raise NotImplementedError

    def _eq_same(self, other) -> bool:
        raise NotImplementedError

    def _merge(self, other):
        """Align two values of this backend (order embedding etc.)."""
        return self, other

    def _scale(self, q):
        """The value times the int or Fraction q."""
        raise NotImplementedError

    def _shift(self, q):
        """The value plus the int or Fraction q."""
        raise NotImplementedError

    def neg(self):
        raise NotImplementedError

    def inv(self):
        raise NotImplementedError

    def conj(self):
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def is_real(self) -> bool:
        raise NotImplementedError

    def is_rational(self) -> bool:
        raise NotImplementedError

    def as_fraction(self) -> Fraction:
        raise NotImplementedError

    def canonical_key(self) -> bytes:
        raise NotImplementedError

    def canonical_sign(self) -> int:
        """Sign of the first nonzero coefficient of the canonical form."""
        raise NotImplementedError

    def part_bounds(self, bits: int, imag: bool = False) -> tuple[int, int, int]:
        """Integers (lo, hi, scale) with lo <= scale*part <= hi for the real
        part of the value, or its imaginary part, and scale = den * 2**bits
        for the value's denominator den."""
        raise NotImplementedError

    def to_interval(self, bits: int, t_arg=None, memo=None):
        """ComplexInterval enclosing the value at bits; t_arg specializes the
        parameter t of a parametric value to exp(i*t_arg).  memo, an
        `intervals.Enclosures` at bits and t_arg, shares the interval work
        of many calls; without it each call starts a fresh one.  A memo made
        for other bits or another t_arg raises ValueError."""
        raise NotImplementedError

    def to_obj(self):
        """JSON-serializable description of the exact value."""
        raise NotImplementedError

    # -- operators ----------------------------------------------------------

    __add__, __radd__ = _operators(
        lambda a, b: a._add_same(b), lambda x, q, x_first: x._shift(q)
    )
    __sub__, __rsub__ = _operators(
        lambda a, b: a._add_same(b.neg()),
        lambda x, q, x_first: x._shift(-q) if x_first else x.neg()._shift(q),
    )
    __mul__, __rmul__ = _operators(
        lambda a, b: a._mul_same(b), lambda x, q, x_first: x._scale(q)
    )
    __truediv__, __rtruediv__ = _operators(
        lambda a, b: a._mul_same(b.inv()), _divide
    )

    def __neg__(self):
        return self.neg()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self._scale(0)._shift(1)
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        if type(other) is type(self):
            a, b = self._merge(other)
            return a._eq_same(b)
        if isinstance(other, ExactScalar):
            # values of two backends agree only on shared rationals
            if not other.is_rational():
                return False
            other = other.as_fraction()
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.is_rational() and self.as_fraction() == other

    def __hash__(self):
        # rational-valued scalars hash like their Fraction so that mixed
        # dict keys behave
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self.canonical_key())

    def __bool__(self):
        return not self.is_zero()


class Rational(ExactScalar):
    """Exact rational scalar wrapping fractions.Fraction."""

    __slots__ = ("value",)

    def __init__(self, numerator=0, denominator=None):
        if denominator is None:
            self.value = Fraction(numerator)
        else:
            self.value = Fraction(numerator, denominator)

    def _add_same(self, other):
        return Rational(self.value + other.value)

    def _mul_same(self, other):
        return Rational(self.value * other.value)

    def _eq_same(self, other):
        return self.value == other.value

    def _scale(self, q):
        return Rational(self.value * q)

    def _shift(self, q):
        return Rational(self.value + q)

    def neg(self):
        return Rational(-self.value)

    def inv(self):
        if self.value == 0:
            raise NonInvertibleError("inverse of zero")
        return Rational(1 / self.value)

    def conj(self):
        return self

    def is_zero(self):
        return self.value == 0

    def is_real(self):
        return True

    def is_rational(self):
        return True

    def as_fraction(self):
        return self.value

    def canonical_key(self):
        return b"Q:%s" % str(self.value).encode()

    def canonical_sign(self):
        v = self.value
        return (v > 0) - (v < 0)

    def part_bounds(self, bits, imag=False):
        v = self.value
        exact = 0 if imag else v.numerator << bits
        return exact, exact, v.denominator << bits

    def to_interval(self, bits, t_arg=None, memo=None):
        memo = Enclosures.for_call(bits, t_arg, memo)
        v = self.value
        return ComplexInterval(
            memo.ratio(v.numerator, v.denominator), memo.ratio(0, 1), memo.bits
        )

    def to_obj(self):
        return {"backend": "rational", "value": str(self.value)}

    def __repr__(self):
        return f"Rational({self.value})"


def as_scalar(x) -> ExactScalar:
    """x as an ExactScalar: an int or Fraction made a Rational."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Rational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def common_backend(values) -> type:
    """The highest-ranked backend among values (Rational for none), which
    takes every other value in by `_operand`; a non-rational one raises
    BackendMismatchError."""
    values = list(values)
    top = max(values, key=lambda v: v._rank, default=Rational(0))
    for v in values:
        _operand(v, top)
    return type(top)


# a fraction string as str(Fraction) writes it
FRACTION = re.compile("-?[0-9]+(/[0-9]+)?")


def _fractions(values) -> list[Fraction]:
    """A JSON list of fraction strings, as str(Fraction) writes them, as
    Fractions; a JSON number or any other value raises ValueError."""
    if isinstance(values, list) and all(
        isinstance(v, str) and FRACTION.fullmatch(v) for v in values
    ):
        return [Fraction(v) for v in values]
    raise ValueError(f"{values!r} is not a list of fraction strings")


def scalar_from_obj(obj) -> ExactScalar:
    """Inverse of ExactScalar.to_obj; a value that is not a JSON object, a
    value or coefficient that is not a fraction string, or an order that is
    not a JSON integer raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"scalar is not a JSON object: {obj!r}")
    backend = obj.get("backend")
    if backend == "rational":
        return Rational(*_fractions([obj["value"]]))
    if backend == "cyclotomic":
        from .cyclotomic import CyclotomicElement

        return CyclotomicElement(obj["order"], _fractions(obj["coeffs"]))
    if backend == "param":
        from .ratfunc import ParamRational

        return ParamRational(_fractions(obj["num"]), _fractions(obj["den"]))
    raise ValueError(f"unknown scalar backend {backend!r}")


def real_sign(x, stats=None) -> int:
    """Exact sign of a real scalar: -1, 0 or +1.

    Rationals are compared directly; algebraic values go through fixed-point
    refinement after an exact zero test, so the loop terminates.  A
    ``stats`` dict, when given, keeps in ``"bits"`` the highest precision a
    refinement needed.
    """
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    if not x.is_real():
        raise ValueError("real_sign needs a real scalar")
    if x.is_zero():
        return 0
    if x.is_rational():
        v = x.as_fraction()
        return 1 if v > 0 else -1
    return refined_sign(x, stats=stats)


def refined_sign(x, imag: bool = False, stats=None, offset: int = 0) -> int:
    """Sign of the real part of a numeric scalar minus the integer offset,
    or of its imaginary part minus it, from its integer `part_bounds` at
    doubling precision.  The difference must be nonzero; callers test that
    exactly first, so the loop terminates."""
    bits = 64
    while bits <= _MAX_SIGN_BITS:
        lo, hi, scale = x.part_bounds(bits, imag)
        t = offset * scale
        if lo > t or hi < t:
            _note_bits(stats, bits)
            return 1 if lo > t else -1
        bits *= 2
    part = "imaginary" if imag else "real"
    raise PrecisionError(f"sign of nonzero {part} part did not resolve")


def _note_bits(stats, bits: int) -> None:
    if stats is not None:
        stats["bits"] = max(stats.get("bits", 0), bits)


def ceil_exact(x, stats=None) -> int:
    """Exact ceiling of a real scalar.

    The integer bounds lo <= scale*x <= hi (`part_bounds`) are refined at
    doubling precision until hi - lo < scale, so that the ceiling is
    n = ceil(lo/scale) or n + 1.  It is n when hi <= n*scale; otherwise one
    sign test of x - n, which is nonzero for an irrational x, picks it.  A
    ``stats`` dict, when given, keeps in ``"bits"`` the highest precision
    used and adds the unit steps taken to ``"climbs"``.
    """
    if isinstance(x, (int, Fraction)):
        return math.ceil(Fraction(x))
    if not x.is_real():
        raise ValueError("ceil_exact needs a real scalar")
    if x.is_rational():
        return math.ceil(x.as_fraction())
    bits = 64
    while True:
        lo, hi, scale = x.part_bounds(bits)
        if hi - lo < scale:
            break
        bits *= 2
        if bits > _MAX_SIGN_BITS:
            raise PrecisionError("enclosure for a ceiling did not narrow below 1")
    _note_bits(stats, bits)
    # n - 1 < lo/scale <= x <= hi/scale < n + 1
    n = -(-lo // scale)
    climb = hi > n * scale and refined_sign(x, stats=stats, offset=n) > 0
    if stats is not None:
        stats["climbs"] = stats.get("climbs", 0) + climb
    return n + climb


def real_imag_parts(x):
    """Split a scalar into exact real and imaginary parts.

    Both results satisfy is_real; the imaginary part is the real scalar b with
    x = a + b*i.  For cyclotomic values whose order lacks a fourth root of
    unity, the parts live in the extended order lcm(order, 4).  Parametric
    scalars are rejected: their coefficient field has no imaginary unit.
    """
    x = as_scalar(x)
    if x.is_real():
        return x, x._scale(0)
    from .cyclotomic import AmbientField, CyclotomicElement

    if not isinstance(x, CyclotomicElement):
        raise BackendMismatchError(
            f"no exact real/imaginary split for {type(x).__name__}"
        )
    # re = (x + conj x)/2 and im = (conj x - x)*i/2, on vectors of order m
    m = math.lcm(x.order, 4)
    field = AmbientField(m)
    num, den = field.vector(x)
    conj = field.conj(num)
    re = [a + b for a, b in zip(num, conj)]
    im = field.mul([b - a for a, b in zip(num, conj)], field.root(m // 4))
    return field.element(re, 2 * den, m), field.element(im, 2 * den, m)
