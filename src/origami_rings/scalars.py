"""Exact scalar backends: shared base class, rational numbers, coercion.

Every value that the geometry touches is an ExactScalar.  Concrete backends
are Rational (here), CyclotomicElement and ParamRational.  Mixing a Rational
with either other backend promotes the rational; mixing the two non-rational
backends raises BackendMismatchError.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BackendMismatchError, NonInvertibleError, PrecisionError

# refinement ceiling for exact sign tests; a nonzero algebraic number always
# resolves long before this
_MAX_SIGN_BITS = 1 << 20


class ExactScalar:
    """Common operator plumbing for exact field elements.

    Subclasses implement the ``_same``-suffixed hooks for operands already in
    the same backend (and, for cyclotomic elements, the same order); the
    operators here handle wrapping of int/Fraction operands and coercion.
    """

    __slots__ = ()

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

    def _promote(self, r: "Rational"):
        """Lift a Rational into this backend."""
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

    def to_interval(self, bits: int, t_arg=None):
        raise NotImplementedError

    def to_obj(self):
        """JSON-serializable description of the exact value."""
        raise NotImplementedError

    # -- derived ----------------------------------------------------------

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    def one_like(self):
        return self._promote(Rational(1))

    def zero_like(self):
        return self._promote(Rational(0))

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(self, other)
        return a._add_same(b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(self, other)
        return a._add_same(b.neg())

    def __rsub__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(other, self)
        return a._add_same(b.neg())

    def __mul__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(self, other)
        return a._mul_same(b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(self, other)
        return a._mul_same(b.inv())

    def __rtruediv__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        a, b = coerce(other, self)
        return a._mul_same(b.inv())

    def __neg__(self):
        return self.neg()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = self.one_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _wrap(other)
        if other is None:
            return NotImplemented
        try:
            a, b = coerce(self, other)
        except BackendMismatchError:
            # distinct non-rational backends agree only on shared rationals,
            # which the canonical key captures
            return self.canonical_key() == other.canonical_key()
        return a._eq_same(b)

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

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

    def _promote(self, r):
        return r

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

    def to_interval(self, bits, t_arg=None):
        from .intervals import ComplexInterval

        return ComplexInterval.from_rationals(self.value, Fraction(0), bits)

    def to_obj(self):
        return {"backend": "rational", "value": str(self.value)}

    def __repr__(self):
        return f"Rational({self.value})"


def _wrap(x):
    """Accept ExactScalar, int or Fraction operands; None otherwise."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Rational(x)
    return None


def as_scalar(x) -> ExactScalar:
    s = _wrap(x)
    if s is None:
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    return s


def coerce(a: ExactScalar, b: ExactScalar):
    """Bring two scalars into a common backend, or raise BackendMismatchError."""
    if type(a) is type(b):
        return a._merge(b)
    if isinstance(a, Rational):
        return b._promote(a), b
    if isinstance(b, Rational):
        return a, a._promote(b)
    raise BackendMismatchError(
        f"cannot combine {type(a).__name__} with {type(b).__name__}"
    )


def scalar_from_obj(obj) -> ExactScalar:
    """Inverse of ExactScalar.to_obj."""
    backend = obj.get("backend")
    if backend == "rational":
        return Rational(Fraction(obj["value"]))
    if backend == "cyclotomic":
        from .cyclotomic import CyclotomicElement

        coeffs = [Fraction(c) for c in obj["coeffs"]]
        return CyclotomicElement(int(obj["order"]), coeffs)
    if backend == "param":
        from .ratfunc import ParamRational

        num = [Fraction(c) for c in obj["num"]]
        den = [Fraction(c) for c in obj["den"]]
        return ParamRational(num, den)
    raise ValueError(f"unknown scalar backend {backend!r}")


def real_sign(x) -> int:
    """Exact sign of a real scalar: -1, 0 or +1.

    Rationals are compared directly; algebraic values go through interval
    refinement after an exact zero test, so the loop terminates.
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
    return refined_sign(x)


def refined_sign(x, imag: bool = False) -> int:
    """Sign of the real part of a numeric scalar, or of its imaginary part,
    from interval enclosures at doubling precision.  The part must be
    nonzero; callers test that exactly first, so the loop terminates."""
    bits = 64
    while bits <= _MAX_SIGN_BITS:
        iv = x.to_interval(bits)
        lo, hi = iv.imag_bounds() if imag else iv.real_bounds()
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    part = "imaginary" if imag else "real"
    raise PrecisionError(f"sign of nonzero {part} part did not resolve")


def real_compare(a, b) -> int:
    return real_sign(as_scalar(a) - b)


def ceil_exact(x) -> int:
    """Exact ceiling of a real scalar."""
    if isinstance(x, (int, Fraction)):
        return math.ceil(Fraction(x))
    if not x.is_real():
        raise ValueError("ceil_exact needs a real scalar")
    if x.is_rational():
        return math.ceil(x.as_fraction())
    lo, _ = x.to_interval(64).real_bounds()
    n = math.ceil(lo)
    # n <= ceil(x); climb with exact sign tests (the gap is at most a few units)
    while real_sign(x - n) > 0:
        n += 1
    return n


def floor_exact(x) -> int:
    return -ceil_exact(-as_scalar(x))


def real_imag_parts(x):
    """Split a scalar into exact real and imaginary parts.

    Both results satisfy is_real; the imaginary part is the real scalar b with
    x = a + b*i.  For cyclotomic values whose order lacks a fourth root of
    unity, the parts live in the extended order lcm(order, 4).  Parametric
    scalars are rejected: their coefficient field has no imaginary unit.
    """
    x = as_scalar(x)
    if isinstance(x, Rational):
        return x, Rational(0)
    if x.is_real():
        return x, x.zero_like()
    from .cyclotomic import CyclotomicElement

    if not isinstance(x, CyclotomicElement):
        raise BackendMismatchError(
            f"no exact real/imaginary split for {type(x).__name__}"
        )
    m = math.lcm(x.order, 4)
    xe = x.embed(m)
    i_unit = CyclotomicElement.root_of_unity(m, m // 4)
    re = (xe + xe.conj()) * Fraction(1, 2)
    im = (xe - xe.conj()) * (2 * i_unit).inv()
    return re, im
