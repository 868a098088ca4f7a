"""Unit directions, lines, and exact line intersections.

A direction is a unit-modulus scalar taken mod sign, since a line through p
with direction v equals the line with direction -v.  The intersection of two
non-parallel lines is expressed through the skew bracket [x, y] = x*conj(y) -
y*conj(x), which is zero exactly when x and y are parallel over the reals.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import BackendMismatchError, ParallelLinesError
from .ratfunc import ParamRational
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

    def conj_value(self) -> ExactScalar:
        return self.value.conj()

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
    """Slide z to the real axis along the direction `along`."""
    if along.is_one():
        raise ParallelLinesError("projection direction is parallel to the axis")
    return intersect(UnitAngle.real_axis(), along, Rational(0), z)


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

    __slots__ = ("angles", "_multipliers")

    def __init__(self, angles):
        wrapped = [a if isinstance(a, UnitAngle) else UnitAngle(a) for a in angles]
        if len(wrapped) < 2:
            raise ValueError("need at least two directions to intersect")
        has_param = any(isinstance(a.value, ParamRational) for a in wrapped)
        has_cyclo = any(
            not isinstance(a.value, (ParamRational, Rational)) for a in wrapped
        )
        if has_param and has_cyclo:
            raise BackendMismatchError(
                "parametric and numeric directions cannot be mixed"
            )
        seen = set()
        for a in wrapped:
            k = a.value.canonical_key()
            if k in seen:
                raise ValueError(f"duplicate direction {a!r} (directions are mod sign)")
            seen.add(k)
        self.angles = tuple(
            sorted(wrapped, key=functools.cmp_to_key(angle_arg_compare))
        )
        self._multipliers = None

    def contains_one(self) -> bool:
        return any(a.is_one() for a in self.angles)

    def non_unit(self) -> tuple[UnitAngle, ...]:
        return tuple(a for a in self.angles if not a.is_one())

    def is_parametric(self) -> bool:
        return any(isinstance(a.value, ParamRational) for a in self.angles)

    def pairs(self):
        """Unordered direction pairs (i < j) in argument order."""
        n = len(self.angles)
        for i in range(n):
            for j in range(i + 1, n):
                yield self.angles[i], self.angles[j]

    def offset_multipliers(self) -> tuple[tuple[ExactScalar, ExactScalar, ExactScalar], ...]:
        """Per direction pair, in `pairs` order, the scalars (x, y, y') that
        write the line offsets of the closure step as U_p = x*conj(p) - y*p and
        V_q = x*conj(q) - y'*q, so intersect(alpha, beta, p, q) = U_p - V_q:
        x = alpha*beta/[alpha, beta], y = conj(alpha)*beta/[alpha, beta] and
        y' = alpha*conj(beta)/[alpha, beta].  Computed once per instance.
        """
        if self._multipliers is None:
            out = []
            for alpha, beta in self.pairs():
                a, b = alpha.value, beta.value
                denom = bracket(a, b)
                if denom.is_zero():
                    raise ParallelLinesError("directions coincide mod sign")
                inv = denom.inv()
                out.append((a * b * inv, a.conj() * b * inv, a * b.conj() * inv))
            self._multipliers = tuple(out)
        return self._multipliers

    def __len__(self):
        return len(self.angles)

    def __iter__(self):
        return iter(self.angles)

    def __getitem__(self, i):
        return self.angles[i]

    def __repr__(self):
        return f"AngleSet({list(self.angles)!r})"
