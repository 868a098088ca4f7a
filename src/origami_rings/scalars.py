"""Exact scalar backends: shared base class, rational numbers, coercion.

Every value that the geometry touches is an ExactScalar.  Concrete backends
are Rational (here), CyclotomicElement and ParamRational, ranked in that
order.  Values combine in the highest-ranked backend among them, into which
a rational value of another backend is promoted; any other mix raises
BackendMismatchError (`common_backend`).
"""

from __future__ import annotations

import math
import re
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
    _rank = 0  # the order in which backends combine (`common_backend`)

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

    def _promote(self, r: "ExactScalar"):
        """Lift a rational value of a lower-ranked backend into this one."""
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
    """Bring two scalars into their `common_backend`."""
    if type(a) is type(b):
        return a._merge(b)
    if common_backend((a, b)) is type(b):
        return b._promote(a), b
    return a, a._promote(b)


def common_backend(values) -> type:
    """The highest-ranked backend among values (Rational for none), into
    which every other value is promoted; a non-rational one raises
    BackendMismatchError."""
    values = list(values)
    top = max(values, key=lambda v: v._rank, default=Rational(0))
    for v in values:
        if v._rank < top._rank and not v.is_rational():
            names = type(top).__name__, type(v).__name__
            raise BackendMismatchError("cannot combine %s with %s" % names)
    return type(top)


_FRACTION = re.compile("-?[0-9]+(/[0-9]+)?")


def _fractions(values) -> list[Fraction]:
    """A JSON list of fraction strings, as str(Fraction) writes them, as
    Fractions; a JSON number or any other value raises ValueError."""
    if isinstance(values, list) and all(
        isinstance(v, str) and _FRACTION.fullmatch(v) for v in values
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

    Rationals are compared directly; algebraic values go through interval
    refinement after an exact zero test, so the loop terminates.  A ``stats``
    dict, when given, keeps in ``"bits"`` the highest precision a refinement
    needed.
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


def refined_sign(x, imag: bool = False, stats=None) -> int:
    """Sign of the real part of a numeric scalar, or of its imaginary part,
    from interval enclosures at doubling precision.  The part must be
    nonzero; callers test that exactly first, so the loop terminates."""
    bits = 64
    while bits <= _MAX_SIGN_BITS:
        iv = x.to_interval(bits)
        lo, hi = iv.imag_bounds() if imag else iv.real_bounds()
        if lo > 0 or hi < 0:
            _note_bits(stats, bits)
            return 1 if lo > 0 else -1
        bits *= 2
    part = "imaginary" if imag else "real"
    raise PrecisionError(f"sign of nonzero {part} part did not resolve")


def _note_bits(stats, bits: int) -> None:
    if stats is not None:
        stats["bits"] = max(stats.get("bits", 0), bits)


def real_compare(a, b) -> int:
    return real_sign(as_scalar(a) - b)


def ceil_exact(x, stats=None) -> int:
    """Exact ceiling of a real scalar.

    The enclosure is refined at doubling precision until it is narrower than
    1, so that the ceiling is one of two integers and at most two exact sign
    tests pick it.  A ``stats`` dict, when given, keeps in ``"bits"`` the
    highest precision used and adds the unit steps taken to ``"climbs"``.
    """
    if isinstance(x, (int, Fraction)):
        return math.ceil(Fraction(x))
    if not x.is_real():
        raise ValueError("ceil_exact needs a real scalar")
    if x.is_rational():
        return math.ceil(x.as_fraction())
    bits = 64
    while True:
        lo, hi = x.to_interval(bits).real_bounds()
        if hi - lo < 1:
            break
        bits *= 2
        if bits > _MAX_SIGN_BITS:
            raise PrecisionError("enclosure for a ceiling did not narrow below 1")
    _note_bits(stats, bits)
    # lo <= x <= hi < lo + 1, so ceil(x) is n or n + 1
    n = start = math.ceil(lo)
    while real_sign(x - n, stats) > 0:
        n += 1
    if stats is not None:
        stats["climbs"] = stats.get("climbs", 0) + n - start
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
