"""Iterated intersection closures and their distinguished values.

Starting from S0 = {0, 1}, each generation adds every intersection of two
lines drawn through existing points with directions from the angle set.
Since a point p is the intersection of two lines through p itself, each
generation contains the previous one.  Alongside the raw closure live the
elementary monomials (intersections seeded at 0 and 1), their products, and
their real-axis projections.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from operator import sub

from .cyclotomic import AmbientField, CyclotomicElement, field_order
from .errors import CapExceededError, ParallelLinesError
from .geometry import AngleSet, UnitAngle, bracket, intersect, project_to_real_axis
from .scalars import ExactScalar, Rational

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstructionConfig:
    angles: AngleSet
    max_depth: int = 3
    max_points: int = 250_000

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_points < 2:
            raise ValueError("max_points must allow at least the seed points")


class GenerationSet:
    """Deduplicated point set of one construction depth, canonically ordered."""

    __slots__ = ("depth", "points", "_keys")

    def __init__(self, depth: int, points):
        by_key = {}
        for p in points:
            by_key.setdefault(p.canonical_key(), p)
        self.depth = depth
        self.points = tuple(by_key[k] for k in sorted(by_key))
        self._keys = frozenset(by_key)

    def contains(self, value: ExactScalar) -> bool:
        return value.canonical_key() in self._keys

    def __contains__(self, value):
        return self.contains(value)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self):
        return f"GenerationSet(depth={self.depth}, size={len(self.points)})"


def initial_generation() -> GenerationSet:
    return GenerationSet(0, [Rational(0), Rational(1)])


def step(gen: GenerationSet, angles: AngleSet, max_points: int = 250_000) -> GenerationSet:
    """One closure step: all intersections of point-pair lines, plus the old points.

    For a direction pair (alpha, beta) the bracket formula splits as
    intersect(alpha, beta, p, q) = U_p - V_q with the line offsets
    U_p = ([alpha, p] / [alpha, beta]) * beta and
    V_q = ([beta, q] / [alpha, beta]) * alpha: U_p names the line through p
    with direction alpha, V_q the line through q with direction beta.  So the
    pair's intersections form the grid U - V over the distinct offsets, and
    each candidate costs one subtraction.  Offsets and candidates run in the
    order of their first point, so every value is first met at the same
    (pair, p, q) as with one intersect call per ordered point pair, and is
    stored as that intersect call would store it.

    Numeric sets run on integer vectors in one cyclotomic field (see
    `_vector_step`); parametric sets run on scalars.  Each step logs one
    DEBUG record to the ``origami_rings.construction`` logger, with the
    ambient order, the distinct offsets (|U|, |V|) per pair, the candidates,
    the new points and the seconds taken.
    """
    start = time.perf_counter()
    numeric = not angles.is_parametric() and all(
        isinstance(p, (Rational, CyclotomicElement)) for p in gen.points
    )
    if numeric:
        order, points, sizes = _vector_step(gen, angles, max_points)
    else:
        order = None
        points, sizes = _scalar_step(gen, angles, max_points)
    out = GenerationSet(gen.depth + 1, points)
    if log.isEnabledFor(logging.DEBUG):
        stats = {
            "depth": out.depth,
            "order": order,
            "offsets": sizes,
            "candidates": sum(nu * nv for nu, nv in sizes),
            "new_points": len(out) - len(gen),
            "seconds": time.perf_counter() - start,
        }
        log.debug(
            "closure step to depth %(depth)d: order %(order)s, offsets %(offsets)s, "
            "%(candidates)d candidates, %(new_points)d new points, %(seconds).6f s",
            stats,
        )
    return out


def _cap_exceeded(gen: GenerationSet, max_points: int, points) -> CapExceededError:
    return CapExceededError(
        f"generation {gen.depth + 1} exceeds {max_points} points",
        partial=GenerationSet(gen.depth + 1, points),
    )


def _vector_step(gen: GenerationSet, angles: AngleSet, max_points: int):
    """The step on integer vectors at one ambient order N, the lcm of the
    direction orders and of the point orders.

    With the multipliers of `AngleSet.offset_multipliers`, each offset is
    U_p = x*conj(p) - y*p and V_q = x*conj(q) - y'*q, where x*conj(p) serves
    both sides.  Every value of the step sits over one common denominator, so
    a value's numerator tuple names it and no canonical key is computed.  A
    new point becomes a scalar at the order the scalar formula gives it, the
    lcm of the orders of alpha, beta, p and q, so stored representatives
    match `intersect`.  Returns (N, points, offset sizes per pair).
    """
    point_orders = [field_order(p) for p in gen.points]
    n = math.lcm(*(field_order(a.value) for a in angles), *point_orders)
    field = AmbientField(n)
    mults = [[field.vector(m) for m in triple] for triple in angles.offset_multipliers()]
    d = math.lcm(*(den for triple in mults for _, den in triple))
    vecs = [field.vector(p) for p in gen.points]
    g = math.lcm(*(den for _, den in vecs))
    nums = [[c * (g // den) for c in num] for num, den in vecs]
    conjs = [field.conj(num) for num in nums]
    seen = {tuple(c * d for c in num) for num in nums}
    new = []

    def build():
        return list(gen.points) + [field.element(z, d * g, o) for z, o in new]

    sizes = []
    for (alpha, beta), triple in zip(angles.pairs(), mults):
        x, y, y2 = ([c * (d // den) for c in num] for num, den in triple)
        pair_order = math.lcm(field_order(alpha.value), field_order(beta.value))
        us, vs = {}, {}
        for num, conj, p_order in zip(nums, conjs, point_orders):
            xc = field.mul(x, conj)
            order = math.lcm(pair_order, p_order)
            us.setdefault(tuple(map(sub, xc, field.mul(y, num))), order)
            vs.setdefault(tuple(map(sub, xc, field.mul(y2, num))), order)
        sizes.append((len(us), len(vs)))
        for u, ou in us.items():
            for v, ov in vs.items():
                z = tuple(map(sub, u, v))
                if z not in seen:
                    seen.add(z)
                    new.append((z, math.lcm(ou, ov)))
                    if len(seen) > max_points:
                        raise _cap_exceeded(gen, max_points, build())
    return n, build(), sizes


def _scalar_step(gen: GenerationSet, angles: AngleSet, max_points: int):
    """The step on scalars, deduplicated by canonical key.  Returns (points,
    offset sizes per pair)."""
    found = {p.canonical_key(): p for p in gen.points}
    sizes = []
    for alpha, beta in angles.pairs():
        a, b = alpha.value, beta.value
        denom = bracket(a, b)
        if denom.is_zero():
            raise ParallelLinesError("directions coincide mod sign")
        b_scaled, a_scaled = b / denom, a / denom
        us = _distinct(bracket(a, p) * b_scaled for p in gen.points)
        vs = _distinct(bracket(b, q) * a_scaled for q in gen.points)
        sizes.append((len(us), len(vs)))
        for u in us:
            for v in vs:
                z = u - v
                k = z.canonical_key()
                if k not in found:
                    found[k] = z
                    if len(found) > max_points:
                        raise _cap_exceeded(gen, max_points, found.values())
    return found.values(), sizes


def _distinct(values) -> list[ExactScalar]:
    """Values deduplicated by canonical key, each at its first occurrence."""
    out = {}
    for v in values:
        out.setdefault(v.canonical_key(), v)
    return list(out.values())


def closure_to_depth(config: ConstructionConfig) -> list[GenerationSet]:
    """The chain S0, S1, ..., S_max_depth.

    On a cap overflow the raised CapExceededError carries the partial chain,
    ending with the truncated generation.
    """
    gens = [initial_generation()]
    for _ in range(config.max_depth):
        try:
            gens.append(step(gens[-1], config.angles, config.max_points))
        except CapExceededError as err:
            err.partial = gens + [err.partial]
            raise
    return gens


@dataclass(frozen=True)
class ElementaryMonomial:
    """Value intersect(alpha, beta, 0, 1) together with its direction pair."""

    alpha: UnitAngle
    beta: UnitAngle
    value: ExactScalar


def elementary_monomials(angles: AngleSet) -> tuple[ElementaryMonomial, ...]:
    """All intersect(alpha, beta, 0, 1) over ordered direction pairs, deduplicated
    by value (the first ordered pair producing a value names it)."""
    out = {}
    for a, b in angles.pairs():
        for alpha, beta in ((a, b), (b, a)):
            v = intersect(alpha, beta, Rational(0), Rational(1))
            out.setdefault(v.canonical_key(), ElementaryMonomial(alpha, beta, v))
    return tuple(out.values())


def nontrivial_monomials(angles: AngleSet) -> tuple[ElementaryMonomial, ...]:
    """Elementary monomials from non-axis direction pairs in argument order,
    dropping 0 and 1."""
    out = {}
    nu = angles.non_unit()
    for i in range(len(nu)):
        for j in range(i + 1, len(nu)):
            v = intersect(nu[i], nu[j], Rational(0), Rational(1))
            if v == 0 or v == 1:
                continue
            out.setdefault(v.canonical_key(), ElementaryMonomial(nu[i], nu[j], v))
    return tuple(out.values())


@dataclass(frozen=True)
class ProjectionSet:
    """Real-axis projections of the elementary monomials.

    ``projections`` is the full set including the trivial values 0 and 1;
    ``nontrivial`` keeps only projections of nontrivial monomials that are
    themselves neither 0 nor 1.  For four directions containing the real
    axis, ``x`` is the projection of the widest intersection along the middle
    direction, and ``family`` is its closure under inversion x -> 1/x, the
    slide x -> x/(x-1), and complements: every projection lies there.
    """

    projections: tuple[ExactScalar, ...]
    nontrivial: tuple[ExactScalar, ...]
    x: ExactScalar | None
    family: tuple[ExactScalar, ...] | None


def projection_set(angles: AngleSet) -> ProjectionSet:
    nu = angles.non_unit()
    all_proj = {Rational(0).canonical_key(): Rational(0), Rational(1).canonical_key(): Rational(1)}
    for e in elementary_monomials(angles):
        for gamma in nu:
            v = project_to_real_axis(e.value, gamma)
            all_proj.setdefault(v.canonical_key(), v)
    nontrivial = {}
    for e in nontrivial_monomials(angles):
        for gamma in nu:
            v = project_to_real_axis(e.value, gamma)
            if v == 0 or v == 1:
                continue
            nontrivial.setdefault(v.canonical_key(), v)
    x = None
    family = None
    if len(nu) == 3 and angles.contains_one():
        u, v_mid, w = nu
        z1 = intersect(u, w, Rational(0), Rational(1))
        cand = project_to_real_axis(z1, v_mid)
        if cand != 0 and cand != 1:
            x = cand
            orbit = (x, x.inv(), x * (x - 1).inv())
            family = orbit + tuple(1 - f for f in orbit)
            allowed = {f.canonical_key() for f in family}
            allowed.add(Rational(0).canonical_key())
            allowed.add(Rational(1).canonical_key())
            stray = [p for k, p in all_proj.items() if k not in allowed]
            if stray:
                raise RuntimeError(
                    f"projections escape the x-family: {stray!r}"
                )
    order = lambda d: tuple(d[k] for k in sorted(d))
    return ProjectionSet(
        projections=order(all_proj),
        nontrivial=order(nontrivial),
        x=x,
        family=family,
    )
