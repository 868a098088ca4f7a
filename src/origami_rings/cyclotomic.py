"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as coefficient vectors of length phi(n) over the power
basis 1, z, ..., z^(phi(n)-1) with z = exp(2*pi*i/n), always reduced mod the
n-th cyclotomic polynomial, as integer numerators over one positive common
denominator in lowest terms.  Integer coordinates are the only format:
Phi_n comes from exact integer division, and every reduction (of products,
of exponent maps, of the arbitrary polynomials the constructor accepts)
folds through a per-order table of x^k mod Phi_n.  `AmbientField` hands the
same integer vectors to bulk work at one order, such as the closure step
and the membership solver (`ratfunc.bulk_field` picks it, or `ParamField`
for parametric values).  Canonical keys first descend to the smallest
cyclotomic field containing the value, so equal values constructed in
different orders compare and hash identically.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath.libmp import mpf_shift, mpi_add, mpi_mul, round_ceiling, round_floor, to_int

from . import _polys
from .errors import BackendMismatchError, NonInvertibleError
from .intervals import (
    ZERO,
    ComplexInterval,
    Enclosures,
    interval_context,
    ratio_to_mpi,
)
from .scalars import ExactScalar


@functools.lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> _polys.Poly:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending degree.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, so only a squarefree
    order divides: x^n - 1 exactly by Phi_d for every proper divisor d."""
    rad = math.prod(_prime_divisors(n))
    if rad < n:
        out = [0] * (n // rad * euler_phi(rad) + 1)
        out[:: n // rad] = cyclotomic_polynomial(rad)
        return tuple(out)
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num = _polys.zdiv(num, cyclotomic_polynomial(d))
    return num


@functools.lru_cache(maxsize=None)
def _power_table(n: int):
    """Rows x^k mod Phi_n for k < max(n, 2*phi(n)), as sparse (index, int) pairs.

    Phi_n is monic with integer coefficients, so every row is integral.
    Exponents below n cover roots of unity, Galois maps and embeddings into
    order n; exponents up to 2*phi(n) - 2 cover the product of two reduced
    vectors.
    """
    phi = euler_phi(n)
    low = cyclotomic_polynomial(n)[:phi]
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(max(n, 2 * phi)):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        # multiply by x and replace x^phi by -(Phi_n - x^phi)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [c - top * t for c, t in zip(row, low)]
    return tuple(rows)


def _vec_mul(n: int, a, b) -> list[int]:
    """Numerators of the product of two reduced numerator vectors of order n."""
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                prod[j] += x * y
    # x^k for k >= phi folds back through the table of x^k mod Phi_n
    out = prod[:phi]
    table = _power_table(n)
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            for i, t in table[k]:
                out[i] += c * t
    return out


def _vec_map(num, order: int, mult: int) -> list[int]:
    """Numerators with z^j sent to zeta_order^(j*mult), reduced in order."""
    table = _power_table(order)
    out = [0] * euler_phi(order)
    for j, c in enumerate(num):
        if c:
            for i, t in table[(j * mult) % order]:
                out[i] += c * t
    return out


@functools.lru_cache(maxsize=None)
def _norm_tower(n: int) -> tuple[tuple[int, int], ...]:
    """Steps (k, m) climbing a chain of subgroups 1 = H_0 < H_1 < ... of
    (Z/n)^x to the whole group: H_(i+1) = <H_i, k>, m the least exponent with
    k^m in H_i, and every m prime, so each step multiplies as few conjugates
    as it can."""
    units = [k for k in range(1, n) if math.gcd(k, n) == 1]
    group = {1}
    steps = []
    for g in units:
        while g not in group:
            m, h = 1, g
            while h not in group:
                m, h = m + 1, h * g % n
            p = _prime_divisors(m)[0]
            k = pow(g, m // p, n)  # k^p is the first power of k in the group
            steps.append((k, p))
            group = {h * pow(k, j, n) % n for h in group for j in range(p)}
    return tuple(steps)


def _normalize(num, den: int):
    """Integer numerators over a positive denominator, in lowest terms."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        return tuple(c // g for c in num), den // g
    return tuple(num), den


def _reduce(n: int, coeffs) -> tuple[list[int], int]:
    """Numerators over one denominator of sum(c_e * z^e) for arbitrary
    rational coefficients, reduced to the length-phi(n) basis."""
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in cs))
    return _vec_map([c.numerator * (den // c.denominator) for c in cs], n, 1), den


@functools.lru_cache(maxsize=None)
def _descent_rows(n: int, p: int):
    """Integer rows taking a vector of Q(zeta_n) down to Q(zeta_k), k = n/p.

    They give its coordinates along a relative power basis over Q(zeta_k):
    z^0, ..., z^(p-1) when p divides k, since z^p = zeta_k; otherwise
    zeta_p^0, ..., zeta_p^(p-2), with z = zeta_k^a * zeta_p^b for
    a*p + b*k = 1 and zeta_p^(p-1) minus the sum of the others.  The value
    lies in Q(zeta_k) exactly when its parts along every basis element but
    1 vanish, and its part along 1 is then its vector of order k.  Rows are
    returned sparse, as (coordinate rows, vanishing rows).
    """
    k = n // p
    if k % p == 0:  # z^i = z^(i mod p) * zeta_k^(i div p)
        width = p
        places = [(i % p, i // p) for i in range(euler_phi(n))]
    else:  # z^i = zeta_p^(b*i) * zeta_k^(a*i)
        width, a = p - 1, pow(p, -1, k)
        b = (1 - a * p) // k
        places = [(b * i % p, a * i % k) for i in range(euler_phi(n))]
    table = _power_table(k)
    rows = [[[] for _ in range(euler_phi(k))] for _ in range(width)]
    for i, (t, e) in enumerate(places):
        # zeta_p^(p-1) is minus the sum of the other powers
        for u, sign in [(t, 1)] if t < width else [(u, -1) for u in range(width)]:
            for s, c in table[e]:
                rows[u][s].append((i, sign * c))
    return tuple(map(tuple, rows[0])), tuple(tuple(row) for part in rows[1:] for row in part)


def _subfield_coords(n: int, m: int, num):
    """Numerators in Q(zeta_m), over the same denominator, of the vector num
    of Q(zeta_n), m | n; None when the value lies outside Q(zeta_m)."""
    while n != m:
        p = _prime_divisors(n // m)[0]
        coord_rows, vanishing_rows = _descent_rows(n, p)
        for row in vanishing_rows:
            if sum(t * num[k] for k, t in row):
                return None
        num = [sum(t * num[k] for k, t in row) for row in coord_rows]
        n //= p
    return num


def _check_order(order) -> None:
    if type(order) is not int or order < 1:
        raise ValueError("order must be a positive integer")


def _fixed(iv, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * x <= hi for every x in the raw interval iv."""
    return (
        to_int(mpf_shift(iv[0], bits), round_floor),
        to_int(mpf_shift(iv[1], bits), round_ceiling),
    )


@functools.lru_cache(maxsize=200_000)
def _trig(n: int, j: int, bits: int):
    """Raw enclosures of cos and sin of 2*pi*j/n, and the same enclosures
    as fixed-point integer bounds (`_fixed`) at bits, cos first."""
    ctx = interval_context(bits)
    angle = 2 * ctx.pi * j / n
    cos_j, sin_j = ctx.cos(angle)._mpi_, ctx.sin(angle)._mpi_
    return cos_j, sin_j, (_fixed(cos_j, bits), _fixed(sin_j, bits))


def _term(n: int, j: int, c: int, den: int, bits: int):
    """Raw enclosures of the real and imaginary parts of c/den * zeta_n^j."""
    cos_j, sin_j, _ = _trig(n, j, bits)
    civ = ratio_to_mpi(c, den, bits)
    return mpi_mul(civ, cos_j, bits), mpi_mul(civ, sin_j, bits)


class CyclotomicElement(ExactScalar):
    """Element of Q(zeta_n) in the reduced power basis."""

    __slots__ = ("order", "_num", "_den", "_coeffs", "_min", "_key")
    _rank = 1

    def __init__(self, order: int, coeffs):
        _check_order(order)
        # callers may pass any polynomial, so reduce it mod Phi_n; the
        # arithmetic below builds its results through _make instead, from
        # vectors that are already reduced to length phi(n)
        self._set(order, *_normalize(*_reduce(order, coeffs)))

    def _set(self, order, num, den):
        self.order = order
        self._num = num
        self._den = den
        self._coeffs = None
        self._min = None
        self._key = None

    @classmethod
    def _make(cls, order: int, num, den: int) -> "CyclotomicElement":
        """Element from integer numerators of a reduced length-phi(order) vector
        over a nonzero denominator."""
        obj = object.__new__(cls)
        obj._set(order, *_normalize(num, den))
        return obj

    @classmethod
    def root_of_unity(cls, order: int, k: int = 1) -> "CyclotomicElement":
        return cls._make(order, AmbientField(order).root(k), 1)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicElement":
        _check_order(order)
        value = Fraction(value)
        num = [value.numerator] + [0] * (euler_phi(order) - 1)
        return cls._make(order, num, value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coordinates over the power basis 1, z, ..., z^(phi(n)-1)."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(Fraction(c, den) for c in self._num)
        return self._coeffs

    # -- backend hooks ------------------------------------------------------

    def _merge(self, other):
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    def _scale(self, q):
        a = q.numerator
        return CyclotomicElement._make(
            self.order, [c * a for c in self._num], self._den * q.denominator
        )

    def _shift(self, q):
        b = q.denominator
        num = [c * b for c in self._num]
        num[0] += q.numerator * self._den
        return CyclotomicElement._make(self.order, num, self._den * b)

    def _add_same(self, other):
        da, db = self._den, other._den
        if da == db:
            num = [a + b for a, b in zip(self._num, other._num)]
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            num = [a * ma + b * mb for a, b in zip(self._num, other._num)]
            da *= ma
        return CyclotomicElement._make(self.order, num, da)

    def _mul_same(self, other):
        n = self.order
        return CyclotomicElement._make(
            n, _vec_mul(n, self._num, other._num), self._den * other._den
        )

    def _eq_same(self, other):
        return self._num == other._num and self._den == other._den

    def neg(self):
        return CyclotomicElement._make(self.order, [-c for c in self._num], self._den)

    def inv(self):
        if self.is_zero():
            raise NonInvertibleError("inverse of zero")
        n = self.order
        if self.is_rational():
            return CyclotomicElement.from_rational(1 / self.as_fraction(), n)
        # down a tower of fixed fields: y = num * cofactor is fixed by H, and
        # multiplying by its conjugates under k, ..., k^(m-1) makes it the
        # relative norm, fixed by <H, k>; at the top y = N(num) is rational
        y, cofactor = self._num, None
        for k, m in _norm_tower(n):
            c = _vec_map(y, n, k)
            for j in range(2, m):
                c = _vec_mul(n, c, _vec_map(y, n, pow(k, j, n)))
            y = _vec_mul(n, y, c)
            cofactor = c if cofactor is None else _vec_mul(n, cofactor, c)
        return CyclotomicElement._make(n, [c * self._den for c in cofactor], y[0])

    # -- field structure ------------------------------------------------------

    def _map_exponents(self, order: int, mult: int) -> "CyclotomicElement":
        """The value with z^j sent to zeta_order^(j*mult), reduced in order."""
        return CyclotomicElement._make(order, _vec_map(self._num, order, mult), self._den)

    def galois(self, k: int) -> "CyclotomicElement":
        """Apply the automorphism zeta -> zeta^k; requires gcd(k, order) = 1."""
        n = self.order
        k %= n
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} does not define an automorphism of order {n}")
        return self._map_exponents(n, k)

    def conj(self):
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def embed(self, order: int) -> "CyclotomicElement":
        """Re-express in Q(zeta_order); order must be a multiple of self.order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"{self.order} does not divide {order}")
        return self._map_exponents(order, order // self.order)

    def minimal_form(self) -> tuple[int, tuple[Fraction, ...]]:
        """Smallest cyclotomic order containing the value, with coordinates."""
        if self._min is not None:
            return self._min
        n, num, den = self.order, self._num, self._den
        while n > 1:
            if not any(num[1:]):
                n, num = 1, num[:1]
                break
            for p in _prime_divisors(n):
                sub = _subfield_coords(n, n // p, num)
                if sub is not None:
                    n, num = n // p, sub
                    break
            else:
                break
        self._min = (n, tuple(Fraction(c, den) for c in num))
        return self._min

    # -- predicates and keys ------------------------------------------------

    def is_zero(self):
        return not any(self._num)

    def is_rational(self):
        return not any(self._num[1:])

    def is_real(self):
        n = self.order
        return n <= 2 or list(self._num) == _vec_map(self._num, n, n - 1)

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self._num[0], self._den)

    def canonical_key(self):
        if self._key is None:
            n, cs = self.minimal_form()
            if n == 1:
                self._key = b"Q:%s" % str(cs[0]).encode()
            else:
                body = ",".join(str(c) for c in cs)
                self._key = b"C:%d:%s" % (n, body.encode())
        return self._key

    def canonical_sign(self):
        _, cs = self.minimal_form()
        for c in cs:
            if c:
                return 1 if c > 0 else -1
        return 0

    # -- numerics ------------------------------------------------------------

    def part_bounds(self, bits: int, imag: bool = False) -> tuple[int, int, int]:
        """Re(x) = (1/den) * sum of c_j*cos(2*pi*j/n), and Im(x) the same
        with sin, so the part times den*2**bits lies between the sums of
        each integer c_j against the lower and upper fixed-point bounds of
        its cosine or sine (`_trig`): exact integer arithmetic."""
        n = self.order
        lo = hi = 0
        for j, c in enumerate(self._num):
            if c:
                f_lo, f_hi = _trig(n, j, bits)[2][imag]
                if c > 0:
                    lo += c * f_lo
                    hi += c * f_hi
                else:
                    lo += c * f_hi
                    hi += c * f_lo
        return lo, hi, self._den << bits

    def to_interval(self, bits: int, t_arg=None, memo=None) -> ComplexInterval:
        """The sum over j of the terms c/den * zeta_n^j (`_term`), each
        enclosed once per memo, keyed by the order, j and c/den in lowest
        terms (the form `ratio_to_mpi` encloses)."""
        if t_arg is not None:
            raise TypeError("specialization applies only to parametric scalars")
        terms = Enclosures.for_call(bits, None, memo).terms
        n, den = self.order, self._den
        re = im = ZERO
        for j, c in enumerate(self._num):
            if c:
                g = math.gcd(c, den)
                key = (n, j, c // g, den // g)
                term = terms.get(key)
                if term is None:
                    term = terms[key] = _term(n, j, key[2], key[3], bits)
                re = mpi_add(re, term[0], bits)
                im = mpi_add(im, term[1], bits)
        return ComplexInterval(re, im, bits)

    def to_obj(self):
        if self.is_rational():
            return {"backend": "rational", "value": str(self.coeffs[0])}
        return {
            "backend": "cyclotomic",
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def __repr__(self):
        body = ",".join(str(c) for c in self.coeffs)
        return f"CyclotomicElement({self.order}; {body})"


def field_order(x) -> int:
    """Order of the cyclotomic field a scalar is stored in; 1 for any scalar
    that is not a CyclotomicElement."""
    return x.order if isinstance(x, CyclotomicElement) else 1


class AmbientField:
    """Integer coordinates in one field Q(zeta_n), for arithmetic in bulk.

    A value becomes its numerator vector over the reduced power basis of
    order n plus a positive denominator.  Conjugates and products of such
    vectors are again integer vectors, so a caller can hold many values over
    one common denominator, where equal values have equal numerators, and
    compare or hash them as tuples.  Only `element` builds a scalar again.
    """

    __slots__ = ("order", "degree")

    def __init__(self, order: int):
        _check_order(order)
        self.order = order
        self.degree = euler_phi(order)

    def vector(self, x) -> tuple[list[int], int] | None:
        """Numerators and denominator of a rational scalar or a
        CyclotomicElement in this field, or None when the value lies outside.
        A non-rational value of another backend raises BackendMismatchError."""
        n = self.order
        if not isinstance(x, CyclotomicElement):
            if not x.is_rational():
                raise BackendMismatchError(
                    f"cannot combine CyclotomicElement with {type(x).__name__}"
                )
            v = x.as_fraction()
            return [v.numerator] + [0] * (self.degree - 1), v.denominator
        if x.order == n:
            return list(x._num), x._den
        # Q(zeta_n) and Q(zeta_b) meet in Q(zeta_gcd(n, b))
        g = math.gcd(n, x.order)
        num = _subfield_coords(x.order, g, x._num)
        if num is None:
            return None
        return _vec_map(num, n, n // g), x._den

    def vectors(self, values) -> tuple[list[list[int]], int]:
        """Numerator vectors of values in this field over their common denominator."""
        vecs = [self.vector(v) for v in values]
        den = math.lcm(*(d for _, d in vecs))
        return [[c * (den // d) for c in num] for num, d in vecs], den

    def root(self, k: int) -> list[int]:
        """Numerators of zeta_n^k, over denominator 1."""
        num = [0] * self.degree
        for i, t in _power_table(self.order)[k % self.order]:
            num[i] = t
        return num

    def conj(self, num) -> list[int]:
        return _vec_map(num, self.order, self.order - 1)

    def mul(self, a, b) -> list[int]:
        return _vec_mul(self.order, a, b)

    def element(self, num, den: int, order: int) -> CyclotomicElement:
        """The value num/den, stored in Q(zeta_order); order divides this one
        and the field must hold the value."""
        if order != self.order:
            num = _subfield_coords(self.order, order, num)
            if num is None:
                raise ValueError(f"value does not lie in Q(zeta_{order})")
        return CyclotomicElement._make(order, num, den)
