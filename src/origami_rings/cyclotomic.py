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

from mpmath.libmp import mpi_add, mpi_mul

from . import _polys
from .errors import BackendMismatchError, NonInvertibleError
from .intervals import (
    ZERO,
    ComplexInterval,
    check_precision,
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
    """Integer coefficients of the n-th cyclotomic polynomial, ascending degree."""
    # x^n - 1 divided exactly by Phi_d for every proper divisor d of n
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
    table = _power_table(n)
    num = [0] * euler_phi(n)
    for e, c in enumerate(cs):
        if c:
            c = c.numerator * (den // c.denominator)
            for i, t in table[e % n]:
                num[i] += c * t
    return num, den


@functools.lru_cache(maxsize=None)
def _subfield_transform(n: int, m: int):
    """Integer row transform T with T*E in reduced echelon form, up to a scale.

    E has phi(n) rows and phi(m) columns; column j holds the coordinates of
    zeta_m^j inside Q(zeta_n).  E has full column rank, so T*E is `scale`
    times the identity stacked on zero rows: solving E*y = c reads y off the
    first phi(m) entries of T*c / scale and demands the rest vanish.  Rows are
    returned sparse, as (coordinate rows, vanishing rows, scale).
    """
    assert n % m == 0
    pn, pm = euler_phi(n), euler_phi(m)
    step = n // m
    table = _power_table(n)
    cols = [dict(table[j * step]) for j in range(pm)]  # zeta_m^j = z^(j*step)
    rows = []
    for i in range(pn):
        aug = [Fraction(col.get(i, 0)) for col in cols]
        aug += [Fraction(1) if k == i else Fraction(0) for k in range(pn)]
        rows.append(aug)
    r = 0
    for c in range(pm):
        pivot = next(i for i in range(r, pn) if rows[i][c] != 0)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(pn):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    scale = math.lcm(*(v.denominator for row in rows for v in row[pm:]))
    sparse = tuple(
        tuple((k, int(v * scale)) for k, v in enumerate(row[pm:]) if v) for row in rows
    )
    return sparse[:pm], sparse[pm:], scale


def _subfield_coords(n: int, m: int, num):
    """Numerators in Q(zeta_m) of the vector num of Q(zeta_n), with the extra
    denominator they carry, or None when the value lies outside Q(zeta_m)."""
    coord_rows, vanishing_rows, scale = _subfield_transform(n, m)
    for row in vanishing_rows:
        if sum(t * num[k] for k, t in row):
            return None
    return [sum(t * num[k] for k, t in row) for row in coord_rows], scale


def _check_order(order) -> None:
    if type(order) is not int or order < 1:
        raise ValueError("order must be a positive integer")


@functools.lru_cache(maxsize=200_000)
def _trig(n: int, j: int, bits: int):
    """Raw enclosures of cos and sin of 2*pi*j/n."""
    ctx = interval_context(bits)
    angle = 2 * ctx.pi * j / n
    return ctx.cos(angle)._mpi_, ctx.sin(angle)._mpi_


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
        _check_order(order)
        num = [0] * euler_phi(order)
        for i, t in _power_table(order)[k % order]:
            num[i] = t
        return cls._make(order, num, 1)

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

    def _promote(self, r: ExactScalar):
        return CyclotomicElement.from_rational(r.as_fraction(), self.order)

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
                sol = _subfield_coords(n, n // p, num)
                if sol is not None:
                    n //= p
                    num, den = _normalize(sol[0], den * sol[1])
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
        return self._eq_same(self.conj())

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

    def to_interval(self, bits: int, t_arg=None) -> ComplexInterval:
        if t_arg is not None:
            raise TypeError("specialization applies only to parametric scalars")
        check_precision(bits)
        n, den = self.order, self._den
        re = im = ZERO
        for j, c in enumerate(self._num):
            if c:
                cos_j, sin_j = _trig(n, j, bits)
                civ = ratio_to_mpi(c, den, bits)
                re = mpi_add(re, mpi_mul(civ, cos_j, bits), bits)
                im = mpi_add(im, mpi_mul(civ, sin_j, bits), bits)
        return ComplexInterval._of(re, im, bits)

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
        if n % x.order == 0:
            return _vec_map(x._num, n, n // x.order), x._den
        # lift to the compositum, then come back down to this field
        m = math.lcm(n, x.order)
        sol = _subfield_coords(m, n, _vec_map(x._num, m, m // x.order))
        if sol is None:
            return None
        return sol[0], x._den * sol[1]

    def vectors(self, values) -> tuple[list[list[int]], int]:
        """Numerator vectors of values in this field over their common denominator."""
        vecs = [self.vector(v) for v in values]
        den = math.lcm(*(d for _, d in vecs))
        return [[c * (den // d) for c in num] for num, d in vecs], den

    def conj(self, num) -> list[int]:
        return _vec_map(num, self.order, self.order - 1)

    def mul(self, a, b) -> list[int]:
        return _vec_mul(self.order, a, b)

    def element(self, num, den: int, order: int) -> CyclotomicElement:
        """The value num/den, stored in Q(zeta_order); order divides this one
        and the field must hold the value."""
        if order != self.order:
            sol = _subfield_coords(self.order, order, num)
            if sol is None:
                raise ValueError(f"value does not lie in Q(zeta_{order})")
            num, scale = sol
            den *= scale
        return CyclotomicElement._make(order, num, den)
