"""Unit directions, lines, and exact line intersections.

A direction is a unit-modulus scalar taken mod sign, since a line through p
with direction v equals the line with direction -v.  The intersection of two
non-parallel lines is expressed through the skew bracket [x, y] = x*conj(y) -
y*conj(x), which is zero exactly when x and y are parallel over the reals.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import sub

from .cyclotomic import AmbientField, field_order
from .errors import ParallelLinesError
from .ratfunc import ParamRational, bulk_field
from .scalars import ExactScalar, Rational, as_scalar, refined_sign


def bracket(x, y) -> ExactScalar:
    """Skew-symmetric bracket x*conj(y) - y*conj(x)."""
    x = as_scalar(x)
    y = as_scalar(y)
    return x * y.conj() - y * x.conj()


class UnitAngle:
    """A line direction: unit-modulus scalar, canonical mod sign."""

    __slots__ = ("value",)

    def __init__(self, value):
        v = as_scalar(value)
        if v * v.conj() != 1:
            raise ValueError(f"{value!r} is not a unit direction")
        if v.canonical_sign() < 0:
            v = -v
        self.value = v

    @classmethod
    def real_axis(cls) -> "UnitAngle":
        return cls(Rational(1))

    def is_one(self) -> bool:
        # a rational unit is +-1, and the canonical sign made it 1
        return self.value.is_rational()

    def __eq__(self, other):
        if not isinstance(other, UnitAngle):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"UnitAngle({self.value!r})"


def intersect(alpha: UnitAngle, beta: UnitAngle, p, q) -> ExactScalar:
    """Intersection of the line through p with direction alpha and the line
    through q with direction beta."""
    a = alpha.value
    b = beta.value
    denom = bracket(a, b)
    if denom.is_zero():
        raise ParallelLinesError("directions coincide mod sign")
    p = as_scalar(p)
    q = as_scalar(q)
    return (bracket(a, p) * b - bracket(b, q) * a) / denom


def slide_to_axis(field, x, v) -> tuple:
    """The vector v of `field` slid to the real axis along a direction gamma:
    -[gamma, v]/[1, gamma] = -(w + conj(w)) with w = x*conj(v), where
    x = gamma/(conj(gamma) - gamma) is the x of `pair_multipliers` for the
    pair (1, gamma).  The result sits over the product of the denominators
    of x and v."""
    w = field.mul(x, field.conj(v))
    return tuple(-(p + q) for p, q in zip(w, field.conj(w)))


def pair_multipliers(pairs, field) -> tuple[int, list[tuple]]:
    """Per direction pair (alpha, beta), the multipliers (x, y, y') that write
    the line offsets of the closure step as U_p = x*conj(p) - y*p and
    V_q = x*conj(q) - y'*q, so intersect(alpha, beta, p, q) = U_p - V_q:
    x = alpha*beta/[alpha, beta], y = conj(alpha)*beta/[alpha, beta] and
    y' = alpha*conj(beta)/[alpha, beta].  Returns (den, rows), one row
    (x, y, y', order) per pair: vectors of `field` over one denominator, and
    the order lcm(ord alpha, ord beta).

    In a cyclotomic field of order n, where alpha = +-zeta_n^a and
    beta = +-zeta_n^b (`AmbientField.exponent`), the multipliers depend on
    alpha^2 and beta^2 alone: with w = (beta/alpha)^2 = zeta_n^d of order m,
    y' = 1/(1 - w) = -(1/m)*sum_{0<j<m} j*w^j, since
    sum_{j<m} j*w^j = m/(w - 1), and then y = y' - 1 and x = beta^2*y'.
    Such a pair takes no inverse.  A parametric direction, or a numeric unit
    that is no root of unity, makes its pair work in its own bulk field, of
    order lcm(ord alpha, ord beta), where it takes one inverse, of its
    bracket.
    """
    pairs = list(pairs)
    exponents = {}  # by id: every direction is held by `pairs`
    if isinstance(field, AmbientField):
        for angle in itertools.chain.from_iterable(pairs):
            if id(angle) not in exponents:
                exponents[id(angle)] = field.exponent(angle.value)
    values, orders = [], []
    for alpha, beta in pairs:
        order = math.lcm(field_order(alpha.value), field_order(beta.value))
        a, b = exponents.get(id(alpha)), exponents.get(id(beta))
        if a is None or b is None:
            values.extend(_bracket_multipliers(alpha, beta, field, order))
        else:
            n = field.order
            d = 2 * (b - a) % n
            if not d:
                raise ParallelLinesError("directions coincide mod sign")
            m = n // math.gcd(n, d)
            y2 = field.power_sum((d * j, -j) for j in range(1, m))
            x = field.power_sum((2 * b + d * j, -j) for j in range(1, m))
            # x/y' is a root of unity and y' - y = 1, so the three share
            # the denominator of y'
            g = math.gcd(m, *y2)
            for num in (x, [y2[0] - m] + y2[1:], y2):
                values.append(([c // g for c in num], m // g))
        orders.append(order)
    den = math.lcm(*(d for _, d in values))
    vectors = [[c * (den // d) for c in num] for num, d in values]
    return den, [(*vectors[3 * k : 3 * k + 3], order) for k, order in enumerate(orders)]


def _bracket_multipliers(alpha, beta, field, order):
    """(x, y, y') of one pair as vectors of `field` over their denominators,
    from one inverse of the bracket in the pair's own bulk field."""
    ends = (alpha.value, beta.value)
    pair = bulk_field(ends)
    # the products and the bracket share a denominator, which cancels
    (a, b), _ = pair.vectors(ends)
    acb = pair.mul(a, pair.conj(b))
    denom = list(map(sub, acb, pair.conj(acb)))
    if not any(denom):
        raise ParallelLinesError("directions coincide mod sign")
    inv, d = pair.vector(pair.element(denom, 1, order).inv())
    for p in (pair.mul(a, b), pair.mul(pair.conj(a), b), acb):
        yield field.vector(pair.element(pair.mul(p, inv), d, order))


def _imag_sign(v: ExactScalar) -> int:
    """Exact sign of the imaginary part of a numeric scalar."""
    return 0 if v.is_real() else refined_sign(v, imag=True)


def _param_exponent(v: ParamRational):
    """Exponent k when v is t**k, else None."""
    num_terms = [(i, c) for i, c in enumerate(v.num) if c]
    den_terms = [(i, c) for i, c in enumerate(v.den) if c]
    if len(num_terms) == 1 and len(den_terms) == 1 and num_terms[0][1] == den_terms[0][1]:
        return num_terms[0][0] - den_terms[0][0]
    return None


def angle_arg_compare(a: UnitAngle, b: UnitAngle) -> int:
    """Order directions by argument in [0, pi).

    Numeric directions compare by exact argument.  Parametric monomials t**k
    sort by exponent (the small-positive-angle convention); other parametric
    units fall back to canonical-key order, which is deterministic but has no
    geometric meaning.
    """
    va, vb = a.value, b.value
    if va == vb:
        return 0
    ra, rb = va.is_rational(), vb.is_rational()
    if ra or rb:
        # a rational unit direction is the real axis, argument 0
        return -1 if ra else 1
    if isinstance(va, ParamRational) or isinstance(vb, ParamRational):
        ka, kb = _param_exponent(va), _param_exponent(vb)
        if ka is not None and kb is not None and ka != kb:
            return -1 if ka < kb else 1
        return -1 if va.canonical_key() < vb.canonical_key() else 1
    # upper-half representatives have argument in (0, pi), where the argument
    # is strictly decreasing in the real part, so distinct ones differ in it
    ua = va if _imag_sign(va) > 0 else -va
    ub = vb if _imag_sign(vb) > 0 else -vb
    return refined_sign(ub - ua)


class AngleSet:
    """Pairwise-distinct unit directions, sorted by argument."""

    __slots__ = ("angles", "_table", "_projections")

    def __init__(self, angles):
        wrapped = [a if isinstance(a, UnitAngle) else UnitAngle(a) for a in angles]
        if len(wrapped) < 2:
            raise ValueError("need at least two directions to intersect")
        # directions that cannot share a bulk field raise BackendMismatchError
        bulk_field(a.value for a in wrapped)
        seen = set()
        for a in wrapped:
            k = a.value.canonical_key()
            if k in seen:
                raise ValueError(f"duplicate direction {a!r} (directions are mod sign)")
            seen.add(k)
        self.angles = tuple(
            sorted(wrapped, key=functools.cmp_to_key(angle_arg_compare))
        )
        self._table = None
        self._projections = None  # `construction.nontrivial_projections`, once built

    def contains_one(self) -> bool:
        return any(a.is_one() for a in self.angles)

    def non_unit(self) -> tuple[UnitAngle, ...]:
        return tuple(a for a in self.angles if not a.is_one())

    def is_parametric(self) -> bool:
        return any(isinstance(a.value, ParamRational) for a in self.angles)

    def pairs(self):
        """Unordered direction pairs (i < j) in argument order."""
        return itertools.combinations(self.angles, 2)

    def _elementary_table(self):
        """(field, den, multipliers, elementary, nontrivial), computed once per
        instance in the bulk field of the directions: ``multipliers`` are the
        rows of `pair_multipliers` for `pairs` over den, and every
        intersect(alpha, beta, 0, 1) is a numerator tuple over den, read off
        its pair's row as U_0 - V_1 = y' - x (and x - y with the pair
        swapped).  ``elementary`` maps each value to (alpha, beta, order) of
        the first ordered pair giving it, and ``nontrivial`` the values of
        non-axis pairs other than 0 and 1 alike; order is the pair's, at
        which `intersect` stores the value."""
        if self._table is None:
            field = bulk_field(a.value for a in self.angles)
            den, multipliers = pair_multipliers(self.pairs(), field)
            zero = (0,) * field.degree
            one = (den,) + zero[1:]
            elementary, nontrivial = {}, {}
            for (a, b), (x, y, y2, order) in zip(self.pairs(), multipliers):
                ab = tuple(map(sub, y2, x))
                elementary.setdefault(ab, (a, b, order))
                elementary.setdefault(tuple(map(sub, x, y)), (b, a, order))
                if not (a.is_one() or b.is_one()) and ab != zero and ab != one:
                    nontrivial.setdefault(ab, (a, b, order))
            self._table = field, den, multipliers, elementary, nontrivial
        return self._table

    def __len__(self):
        return len(self.angles)

    def __iter__(self):
        return iter(self.angles)

    def __getitem__(self, i):
        return self.angles[i]

    def __repr__(self):
        return f"AngleSet({list(self.angles)!r})"
