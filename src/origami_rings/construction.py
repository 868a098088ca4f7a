"""Iterated intersection closures and their distinguished values.

Starting from S0 = {0, 1}, each generation adds every intersection of two
lines drawn through existing points with directions from the angle set.
Since a point p is the intersection of two lines through p itself, each
generation contains the previous one.  Alongside the raw closure live the
elementary monomials (intersections seeded at 0 and 1), their products, and
their real-axis projections.  A step and the projection set run on the
vectors of one bulk field (`ratfunc.bulk_field`), for numeric and
parametric sets alike.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from operator import sub

from .cyclotomic import field_order
from .errors import CapExceededError
from .geometry import AngleSet, UnitAngle, pair_multipliers
from .ratfunc import bulk_field
from .scalars import ExactScalar, Rational, as_scalar

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

    def contains(self, value) -> bool:
        return as_scalar(value).canonical_key() in self._keys

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

    The step runs on the vectors of one bulk field (`ratfunc.bulk_field`):
    integer vectors in one cyclotomic field for numeric sets, one-entry
    vectors of ParamRational for parametric ones.  Each step logs one DEBUG
    record to the ``origami_rings.construction`` logger, with the ambient
    order (None for a parametric set), the distinct offsets (|U|, |V|) per
    pair, the candidates, the new points and the seconds taken.
    """
    start = time.perf_counter()
    order, points, sizes = _vector_step(gen, angles, max_points)
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


def _vector_step(gen: GenerationSet, angles: AngleSet, max_points: int):
    """The step on the vectors of the bulk field of the directions and the
    points: for numeric sets the cyclotomic field of order N, the lcm of
    their orders.

    With the multipliers (x, y, y') of the angle set's elementary table,
    built again when the points need a larger field, each offset is
    U_p = x*conj(p) - y*p and V_q = x*conj(q) - y'*q, where x*conj(p) serves
    both sides.  Every value of the step sits over one common denominator,
    so a value's numerator tuple names it, and numeric sets compute no
    canonical key.  A new point becomes a scalar at the order the scalar
    formula gives it, the lcm of the orders of alpha, beta, p and q, so
    stored representatives match `intersect`.  Returns (N or None, points,
    offset sizes per pair).
    """
    point_orders = [field_order(p) for p in gen.points]
    field = bulk_field([a.value for a in angles] + list(gen.points))
    table_field, d, multipliers = angles._elementary_table()[:3]
    if field.order != table_field.order:
        d, multipliers = pair_multipliers(angles.pairs(), field)
    nums, g = field.vectors(gen.points)
    conjs = [field.conj(num) for num in nums]
    seen = {tuple(c * d for c in num) for num in nums}
    new = []

    def build():
        return list(gen.points) + [field.element(z, d * g, o) for z, o in new]

    sizes = []
    for x, y, y2, pair_order in multipliers:
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
                        raise CapExceededError(
                            f"generation {gen.depth + 1} exceeds {max_points} points",
                            partial=GenerationSet(gen.depth + 1, build()),
                        )
    return field.order, build(), sizes


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
    by value (the first ordered pair producing a value names it), read off
    the angle set's elementary table (`AngleSet._elementary_table`), each
    at the order the intersect call would give it."""
    field, d, _, elementary, _ = angles._elementary_table()
    return tuple(
        ElementaryMonomial(a, b, field.element(v, d, o)) for v, (a, b, o) in elementary.items()
    )


def nontrivial_monomials(angles: AngleSet) -> tuple[ElementaryMonomial, ...]:
    """Elementary monomials from non-axis direction pairs in argument order,
    dropping 0 and 1, read off the same table."""
    field, d, _, _, nontrivial = angles._elementary_table()
    return tuple(
        ElementaryMonomial(a, b, field.element(v, d, o)) for v, (a, b, o) in nontrivial.items()
    )


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


def _x_family(x, projections: dict) -> tuple:
    """The closure of x under inversion, the slide and complements; raises
    RuntimeError when a projection (by canonical key) lies outside it and
    outside {0, 1}."""
    orbit = (x, x.inv(), x * (x - 1).inv())
    family = orbit + tuple(1 - f for f in orbit)
    allowed = {f.canonical_key() for f in family}
    allowed.add(Rational(0).canonical_key())
    allowed.add(Rational(1).canonical_key())
    stray = [p for k, p in projections.items() if k not in allowed]
    if stray:
        raise RuntimeError(f"projections escape the x-family: {stray!r}")
    return family


def projection_set(angles: AngleSet) -> ProjectionSet:
    """The projection set, computed on the vectors of the angle set's
    elementary table (`AngleSet._elementary_table`), for numeric and
    parametric sets alike.

    The projection of an elementary value v along a non-axis direction gamma
    is -(w + conj(w)) with w = x*conj(v), x the multiplier of the pair
    (1, gamma), as in `project_to_real_axis`; those pairs lead the table when
    the axis is in the set.  All projections sit over one denominator, so
    their numerator tuples name them; only the distinct ones become scalars,
    each at the order the scalar formula gives it, the lcm of the orders of
    its first pair and of the direction.
    """
    nu = angles.non_unit()
    field, d, multipliers, elementary, nontrivial = angles._elementary_table()
    if angles.contains_one():
        s, slides = d, multipliers[: len(nu)]
    else:
        s, slides = pair_multipliers([(UnitAngle.real_axis(), g) for g in nu], field)
    zero = (0,) * field.degree
    # projections over d*s: per monomial the vector along each direction, and
    # per distinct vector its order in `projections` and in `nontrivial`
    den = d * s
    one = (den,) + zero[1:]
    along, table = {}, {}
    for mono, (_, _, order) in elementary.items():
        conj = field.conj(mono)
        along[mono] = row = []
        for slide, _, _, g_order in slides:
            w = field.mul(slide, conj)
            v = tuple(-(p + q) for p, q in zip(w, field.conj(w)))
            row.append(v)
            if v != zero and v != one:
                table.setdefault(v, [math.lcm(order, g_order), None])
    for mono, (_, _, order) in nontrivial.items():
        for v, (_, _, _, g_order) in zip(along[mono], slides):
            if v != zero and v != one and table[v][1] is None:
                table[v][1] = math.lcm(order, g_order)
    all_proj = {Rational(0).canonical_key(): Rational(0), Rational(1).canonical_key(): Rational(1)}
    nontrivial_proj = {}
    for v, (order, nt_order) in table.items():
        value = field.element(v, den, order)
        key = value.canonical_key()
        all_proj[key] = value
        if nt_order is not None:
            nontrivial_proj[key] = value if nt_order == order else field.element(v, den, nt_order)
    x = family = None
    if len(nu) == 3 and angles.contains_one():
        # directions 1 and 3, after the axis, meet widest (the fifth of the
        # six pairs); project along 2
        x1, _, y2, order = multipliers[4]
        cand = along[tuple(map(sub, y2, x1))][1]
        if cand != zero and cand != one:
            x = field.element(cand, den, math.lcm(order, slides[1][3]))
            family = _x_family(x, all_proj)
    by_key = lambda values: tuple(values[k] for k in sorted(values))
    return ProjectionSet(
        projections=by_key(all_proj),
        nontrivial=by_key(nontrivial_proj),
        x=x,
        family=family,
    )
