"""Constructive density: approximating complex targets by closure points.

With four or more directions including the real axis, the closure contains
a*p**N1 + b*p**N2*z for any projection value p in (0, 1), any nontrivial
elementary monomial z, and all integers a, b.  Shrinking p**N2 makes the rows
b*p**N2*z fine enough vertically, then p**N1 fixes the real residue, giving a
witness within any epsilon of any target.  Everything is exact: the steps,
the ceilings, and the final error comparison.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .construction import nontrivial_monomials, nontrivial_projections
from .cyclotomic import field_order
from .errors import ScalingProjectionNotFoundError, UnsupportedConfigurationError
from .geometry import AngleSet
from .ratfunc import ParamRational
from .scalars import (
    ExactScalar,
    Rational,
    ceil_exact,
    real_imag_parts,
    real_sign,
)

log = logging.getLogger(__name__)


def find_scaling_projection(projections) -> ExactScalar:
    """First projection-derived value strictly inside (0, 1), from P, a
    sequence of projections in canonical-key order
    (`nontrivial_projections`).

    Tiers, each walked in canonical-key order: the projection values
    themselves, their complements 1 - p, then products of two values from
    the union of both.  Sign tests are exact.
    """
    pool = list(projections)
    if not pool:
        raise ScalingProjectionNotFoundError("no nontrivial projections")
    if any(isinstance(p, ParamRational) for p in pool):
        raise UnsupportedConfigurationError(
            "formal parameter values have no canonical order"
        )

    def in_unit_interval(v):
        return real_sign(v) > 0 and real_sign(1 - v) > 0

    for v in pool:
        if in_unit_interval(v):
            return v
    complements = [1 - p for p in pool]
    for v in complements:
        if in_unit_interval(v):
            return v
    combined = sorted(
        {w.canonical_key(): w for w in pool + complements}.items()
    )
    values = [w for _, w in combined]
    for i in range(len(values)):
        for j in range(i, len(values)):
            v = values[i] * values[j]
            if in_unit_interval(v):
                return v
    raise ScalingProjectionNotFoundError(
        "no projection value in (0, 1) up to degree 2"
    )


@dataclass(frozen=True)
class DensityWitness:
    """Exact closure point a*p**n1 + b*p**n2*z within epsilon of the target."""

    target_re: Fraction
    target_im: Fraction
    epsilon: Fraction
    p: ExactScalar
    z: ExactScalar
    a: int
    b: int
    n1: int
    n2: int
    value: ExactScalar

    def value_interval(self, bits: int = 64):
        return self.value.to_interval(bits)

    def to_obj(self) -> dict:
        return {
            "target": {"re": str(self.target_re), "im": str(self.target_im)},
            "epsilon": str(self.epsilon),
            "p": self.p.to_obj(),
            "z": self.z.to_obj(),
            "a": str(self.a),
            "b": str(self.b),
            "n1": self.n1,
            "n2": self.n2,
            "value": self.value.to_obj(),
        }


def _least_exponent(p, c, half: Fraction, stats=None):
    """(n, p**n, t): the least n >= 0 with half - c*p**n > 0, and the number
    t of exact sign tests that found it.

    For 0 < p < 1 and c > 0 the predicate is monotone in n.  An estimate from
    64-bit upper bounds of p and c is confirmed by exact sign tests at n and
    n - 1.  When it misses, or cannot be formed, a gallop from it and a
    bisection find n, so the sign tests stay O(log n) in number either way.
    ``stats`` goes to the sign tests (see real_sign).
    """
    powers = {}
    tests = 0

    def holds(k):
        nonlocal tests
        if k not in powers:
            powers[k] = powers[k - 1] * p if k - 1 in powers else p**k
        tests += 1
        return real_sign(half - c * powers[k], stats) > 0

    n = _estimate(p, c, half)
    if n:
        powers[n - 1] = p ** (n - 1)
    # bracket: lo fails (or is -1), hi holds
    step = 1
    if holds(n):
        lo, hi = n - 1, n
        while lo >= 0 and holds(lo):
            hi, lo = lo, max(lo - 2 * step, -1)
            step *= 2
    else:
        lo, hi = n, n + 1
        while not holds(hi):
            lo, hi = hi, hi + 2 * step
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi, powers[hi], tests


def _estimate(p, c, half: Fraction) -> int:
    """Least n with c_hi * p_hi**n < half for upper bounds c_hi >= c and
    p_hi >= p, from logarithms of integer numerators and denominators (a
    float of a tiny half would underflow); 0 when p_hi reaches 1, in floats
    too.  The upper bounds are hi/scale of the 64-bit `part_bounds`."""

    def ln(num: int, den: int) -> float:
        return math.log(num) - math.log(den)

    p_hi, c_hi = (v.part_bounds(64)[1:] for v in (p, c))
    drop = -ln(*p_hi)
    if drop <= 0:
        return 0
    return max(0, math.floor((ln(*c_hi) - ln(half.numerator, half.denominator)) / drop) + 1)


def approximate(target_re, target_im, epsilon, angles: AngleSet) -> DensityWitness:
    """Produce a witness with |value - target| < epsilon, certified exactly.

    The final error bound is checked as a sign test on epsilon**2 minus the
    squared error, both exact real scalars, so no floating point enters the
    verdict.
    """
    target_re = Fraction(target_re)
    target_im = Fraction(target_im)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(angles) < 4 or not angles.contains_one():
        raise UnsupportedConfigurationError(
            "density needs at least four directions including the real axis"
        )
    if angles.is_parametric():
        raise UnsupportedConfigurationError(
            "density needs numeric directions; specialize the parameter first"
        )
    p = find_scaling_projection(nontrivial_projections(angles))
    candidates = [
        m.value for m in nontrivial_monomials(angles) if not m.value.is_real()
    ]
    z = min(candidates, key=lambda v: v.canonical_key())
    re_z, im_z = real_imag_parts(z)
    abs_im = im_z if real_sign(im_z) > 0 else -im_z
    half = epsilon / 2
    stats = {"order": field_order(p), "climbs": 0, "bits": 0}

    n2, p_n2, stats["n2_tests"] = _least_exponent(p, abs_im, half, stats)
    theta = im_z * p_n2  # signed vertical step
    b = ceil_exact(target_im * theta.inv(), stats)

    n1, p_n1, stats["n1_tests"] = _least_exponent(p, Rational(1), half, stats)
    residual = target_re - b * p_n2 * re_z
    a = ceil_exact(residual * p_n1.inv(), stats)

    value = a * p_n1 + b * p_n2 * z
    re_v, im_v = real_imag_parts(value)
    err_sq = (re_v - target_re) ** 2 + (im_v - target_im) ** 2
    if real_sign(epsilon**2 - err_sq, stats) <= 0:
        raise RuntimeError("witness failed its exact error certification")
    if log.isEnabledFor(logging.DEBUG):
        stats.update(n1=n1, n2=n2)
        log.debug(
            "density witness: p of order %(order)d, N1 %(n1)d after %(n1_tests)d "
            "sign tests, N2 %(n2)d after %(n2_tests)d, %(climbs)d ceiling "
            "climbs, refinement up to %(bits)d bits",
            stats,
        )
    return DensityWitness(
        target_re=target_re,
        target_im=target_im,
        epsilon=epsilon,
        p=p,
        z=z,
        a=a,
        b=b,
        n1=n1,
        n2=n2,
        value=value,
    )
