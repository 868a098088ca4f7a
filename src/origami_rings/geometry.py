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
from fractions import Fraction
from operator import sub

from .cyclotomic import field_order
from .errors import ParallelLinesError
from .ratfunc import ParamRational, bulk_field
from .scalars import ExactScalar, Rational, as_scalar, real_compare, refined_sign


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
        return self.value == 1

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


def project_to_real_axis(z, along: UnitAngle) -> ExactScalar:
    """Slide z to the real axis along the direction gamma of `along`.

    That is intersect(1, gamma, 0, z) = -[gamma, z]/[1, gamma], which is
    -(w + conj(w)) for w = x*conj(z) and x = gamma/(conj(gamma) - gamma), the
    x of `pair_multipliers` for the pair (1, gamma).  The operands are those
    of the intersect call, so the value is stored at the same order.
    """
    if along.is_one():
        raise ParallelLinesError("projection direction is parallel to the axis")
    g = along.value
    w = g * (g.conj() - g).inv() * as_scalar(z).conj()
    return -(w + w.conj())


def pair_multipliers(pairs, field) -> tuple[int, list[tuple]]:
    """Per direction pair (alpha, beta), the multipliers (x, y, y') that write
    the line offsets of the closure step as U_p = x*conj(p) - y*p and
    V_q = x*conj(q) - y'*q, so intersect(alpha, beta, p, q) = U_p - V_q:
    x = alpha*beta/[alpha, beta], y = conj(alpha)*beta/[alpha, beta] and
    y' = alpha*conj(beta)/[alpha, beta].  Each pair works in its own bulk
    field, of order lcm(ord alpha, ord beta), where it takes one inverse, of
    its bracket.  Returns (den, rows), one row (x, y, y', order) per pair:
    vectors of `field` over one denominator, and that order.
    """
    values, orders = [], []
    for alpha, beta in pairs:
        ends = (alpha.value, beta.value)
        pair = bulk_field(ends)
        # the products and the bracket share a denominator, which cancels
        (a, b), _ = pair.vectors(ends)
        acb = pair.mul(a, pair.conj(b))
        denom = list(map(sub, acb, pair.conj(acb)))
        if not any(denom):
            raise ParallelLinesError("directions coincide mod sign")
        order = math.lcm(field_order(alpha.value), field_order(beta.value))
        inv, d = pair.vector(pair.element(denom, 1, order).inv())
        for p in (pair.mul(a, b), pair.mul(pair.conj(a), b), acb):
            values.append(pair.element(pair.mul(p, inv), d, order))
        orders.append(order)
    vectors, den = field.vectors(values)
    return den, [(*vectors[3 * k : 3 * k + 3], order) for k, order in enumerate(orders)]


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
    # is strictly decreasing in the real part
    ua = va if _imag_sign(va) > 0 else -va
    ub = vb if _imag_sign(vb) > 0 else -vb
    rea = (ua + ua.conj()) * Fraction(1, 2)
    reb = (ub + ub.conj()) * Fraction(1, 2)
    return real_compare(reb, rea)


class AngleSet:
    """Pairwise-distinct unit directions, sorted by argument."""

    __slots__ = ("angles", "_table")

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
