"""Algebraic structure of intersection closures: lattices, modules, rings.

For three directions the closure is the lattice Z + xZ and ring-ness is the
decidable question of whether x is a quadratic integer.  For four or more
directions the closure is spanned over Z[P] (P the projection values) by the
nontrivial elementary monomials together with 1, and ring-ness is certified
by expressing every pairwise product of generators back in the module; the
search is complete up to a monomial degree bound, so its failure reports
Unknown rather than NotRing.  The membership solver and certificate
evaluation work on the vectors of one bulk field (`ratfunc.bulk_field`),
for numeric and parametric values alike.
"""

from __future__ import annotations

import functools
import itertools
import logging
import re
from dataclasses import dataclass

from .construction import nontrivial_monomials, projection_set
from .diophantine import RationalRowSolver
from .errors import CapExceededError, UnsupportedConfigurationError
from .geometry import AngleSet, UnitAngle, angle_arg_compare, intersect
from .ratfunc import ParamField, bulk_field, common_denominator, scaled_numerator
from .scalars import ExactScalar, Rational, as_scalar

log = logging.getLogger(__name__)

# ceiling on a certificate's degree bound; check_ring searches no higher, so
# every certificate it emits can be evaluated again
_MAX_CERT_DEGREE = 64

# -- quadratic integers and lattices ------------------------------------------


def quadratic_integer_test(x):
    """(lam, mu) with x*x = lam*x + mu when x is a quadratic integer, else None.

    That is x*x = mu + lam*x in Z + xZ (`lattice_coordinates`), and then lam
    is the trace x + conj(x) and mu the negated norm -x*conj(x); x must not
    be real (the lattice Z + xZ would degenerate).
    """
    coords = lattice_coordinates(x, as_scalar(x) * x)
    return None if coords is None else coords[::-1]


def same_lattice(x, y) -> bool:
    """Whether Z + xZ = Z + yZ: each generator lies in the other's lattice."""
    x = as_scalar(x)
    y = as_scalar(y)
    if x.is_real() or y.is_real():
        raise ValueError("degenerate lattice: generator is real")
    return lattice_coordinates(x, y) is not None and lattice_coordinates(y, x) is not None


def lattice_coordinates(x, z):
    """(m, n) with z = m + n*x, integers, or None when z is outside Z + xZ."""
    x = as_scalar(x)
    z = as_scalar(z)
    if x.is_real():
        raise ValueError("degenerate lattice: generator is real")
    dx = x - x.conj()
    dz = z - z.conj()
    if dz.is_zero():
        n = 0
    else:
        ratio = dz * dx.inv()
        if not ratio.is_integer():
            return None
        n = int(ratio.as_fraction())
    rest = z - n * x
    if not rest.is_integer():
        return None
    return int(rest.as_fraction()), n


def tangent_point(theta: UnitAngle, phi: UnitAngle) -> ExactScalar:
    """Intersection of the line through 0 at angle phi with the line through 1
    at angle theta, via the in-field tangent form T = (w - conj w)/(w + conj w).

    Requires 0 < arg(phi) < arg(theta) < pi.  A vertical direction makes its
    tangent undefined, so that case falls back to the direct intersection.
    """
    w = theta.value
    u = phi.value
    if w.is_real() or u.is_real():
        raise ValueError("angles must lie strictly inside (0, pi)")
    if angle_arg_compare(phi, theta) >= 0:
        raise ValueError("expected arg(phi) < arg(theta)")
    direct = intersect(phi, theta, Rational(0), Rational(1))
    ws = w + w.conj()
    us = u + u.conj()
    if ws.is_zero() or us.is_zero():
        return direct
    t_theta = (w - w.conj()) * ws.inv()
    t_phi = (u - u.conj()) * us.inv()
    x = t_theta * (1 + t_phi) * (t_theta - t_phi).inv()
    if x != direct:
        raise RuntimeError("tangent form disagrees with the direct intersection")
    return x


# -- Z[P]-module membership ----------------------------------------------------


def _exponent_vectors(count: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples over `count` variables with total degree <= degree,
    by ascending degree, lexicographic within a degree."""
    return [
        tuple(combo.count(i) for i in range(count))
        for d in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(count), d)
    ]


@dataclass(frozen=True)
class CertTerm:
    generator: int
    monomial: tuple[tuple[int, int], ...]  # (projection index, exponent), sorted
    coefficient: int


@dataclass(frozen=True)
class Certificate:
    """Integer combination Sum coeff * (product of projections) * generator.

    ``product`` names the generator pair whose product the certificate
    expresses, or None for a free-standing membership target.
    """

    product: tuple[int, int] | None
    terms: tuple[CertTerm, ...]
    degree_bound: int


def _cap_degree(degree_bound: int) -> None:
    if degree_bound > _MAX_CERT_DEGREE:
        raise CapExceededError(
            f"degree bound {degree_bound} is above the ceiling {_MAX_CERT_DEGREE}"
        )


def evaluate_certificate(cert: Certificate, generators, projections) -> ExactScalar:
    """Sum of the certificate's terms, with the generator combination of each
    distinct monomial formed first and the monomial evaluated once.

    A term must name a generator in range and projections in range, in
    increasing order, with exponents of at least 1 (an inverse power would
    leave Z[P]); its coefficient must be nonzero, its total degree at most
    ``cert.degree_bound``, and no other term may name the same (generator,
    monomial) pair.  Anything else raises ValueError, and a degree bound
    above _MAX_CERT_DEGREE raises CapExceededError, all before any
    arithmetic, so the work is bounded by the number of terms and the
    ceiling.  The sum is taken in the inputs' bulk field
    (`ratfunc.bulk_field`), so parametric and cyclotomic inputs do not mix.
    """
    _cap_degree(cert.degree_bound)
    generators = [as_scalar(g) for g in generators]
    projections = [as_scalar(p) for p in projections]
    combos = {}  # monomial -> {generator: coefficient}
    for term in cert.terms:
        gen, monomial = term.generator, term.monomial
        if not 0 <= gen < len(generators):
            raise ValueError(f"unknown generator id {gen}")
        if not term.coefficient:
            raise ValueError("certificate term with coefficient 0")
        degree, last = 0, -1
        for pid, exp in monomial:
            if not last < pid < len(projections):
                raise ValueError(f"projection id {pid} unknown or out of order")
            if exp < 1:
                raise ValueError(f"exponent {exp} of projection {pid} is not positive")
            degree += exp
            last = pid
        if degree > cert.degree_bound:
            raise ValueError(
                f"term of degree {degree} above the degree bound {cert.degree_bound}"
            )
        parts = combos.setdefault(monomial, {})
        if gen in parts:
            raise ValueError(f"repeated term: generator {gen}, monomial {monomial}")
        parts[gen] = term.coefficient
    return _vector_evaluate(combos, generators, projections)


def _vector_evaluate(combos, generators, projections) -> ExactScalar:
    """The sum on vectors of the inputs' bulk field: generators over one
    denominator G, projections over one denominator Q, so a monomial of
    degree k sits over G*Q^k and the sum over G*Q^K for the top degree K."""
    field = bulk_field(generators + projections)
    gens, g = field.vectors(generators)
    projs, q = field.vectors(projections)
    power = _projection_powers(field, projs)
    top = max((sum(exp for _, exp in m) for m in combos), default=0)
    total = [0] * field.degree
    for monomial, parts in combos.items():
        value = [0] * field.degree
        for gen, coeff in parts.items():
            value = [v + coeff * c for v, c in zip(value, gens[gen])]
        for pid, exp in monomial:
            value = field.mul(value, power(pid, exp))
        scale = q ** (top - sum(exp for _, exp in monomial))
        total = [t + scale * v for t, v in zip(total, value)]
    return field.element(total, g * q**top, field.order)


def _projection_powers(field, projs):
    """power(pid, exp): numerators of projs[pid]**exp in field over the
    exp-th power of their denominator, each power formed once."""
    known = [[p] for p in projs]

    def power(pid, exp):
        while len(known[pid]) < exp:
            known[pid].append(field.mul(known[pid][-1], projs[pid]))
        return known[pid][exp - 1]

    return power


def verify_certificate(cert: Certificate, generators, projections, expected=None) -> bool:
    """Exact re-evaluation; for product certificates the expected value is the
    generator product itself."""
    if expected is None:
        if cert.product is None:
            raise ValueError("free-standing certificate needs an expected value")
        i, j = cert.product
        generators = [as_scalar(g) for g in generators]
        if min(i, j) < 0 or max(i, j) >= len(generators):
            raise ValueError(f"unknown generator id in product {cert.product}")
        expected = generators[i] * generators[j]
    return evaluate_certificate(cert, generators, projections) == as_scalar(expected)


class MembershipSolver:
    """Reusable search for integer Z[P]-combinations over fixed generators.

    The columns (monomial times generator) are built once, as products in
    the bulk field (`ratfunc.bulk_field`) of the values in some column.  Only
    their integer rows depend on the field: numeric columns are integer
    vectors in Q(zeta_N), one denominator per column; parametric ones are the
    coefficients of each column times their common denominator D.  That
    matrix is diagonalized once; a target is mapped to rows the same way, or
    rejected when it lies outside.  Construction logs one DEBUG record to the
    ``origami_rings.analysis`` logger, whose args dict holds the order N
    (None for parametric columns), the matrix's rows, columns and rank, and
    the diagonalization's logged column operations and pivot passes.
    """

    def __init__(self, generators, projections, degree_bound: int):
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if not generators:
            raise ValueError("need at least one generator")
        self.generators = tuple(as_scalar(g) for g in generators)
        self.projections = tuple(as_scalar(p) for p in projections)
        self.degree_bound = degree_bound
        self.exponents = _exponent_vectors(len(self.projections), degree_bound)
        projs = self.projections if degree_bound else ()  # those in some column
        field = bulk_field(self.generators + projs)
        gens, g = field.vectors(self.generators)
        projs, q = field.vectors(projs)
        columns = self._columns(gens, _projection_powers(field, projs), field.mul)
        if isinstance(field, ParamField):
            common = common_denominator(c for c, in columns)
            cols = [scaled_numerator(c, common) for c, in columns]
            self._rows = lambda x: scaled_numerator(field.vector(x)[0][0], common)
        else:
            dens = [g * q ** sum(vec) for vec in self.exponents for _ in gens]
            cols = list(zip(columns, dens))
            self._rows = field.vector
        self._width = max(len(num) for num, _ in cols)
        rows = [[num[i] if i < len(num) else 0 for num, _ in cols] for i in range(self._width)]
        self._solver = RationalRowSolver(rows, [den for _, den in cols])
        if log.isEnabledFor(logging.DEBUG):
            stats = {
                "order": field.order,
                "rows": self._width,
                "columns": len(cols),
                "rank": self._solver.rank,
                "column_ops": self._solver.column_ops,
                "passes": self._solver.passes,
            }
            log.debug(
                "membership solver: order %(order)s, %(rows)d x %(columns)d "
                "coordinate matrix, rank %(rank)d, %(column_ops)d column "
                "operations in %(passes)d pivot passes",
                stats,
            )

    def _columns(self, gens, power, mul):
        """Monomial times generator for each column, the monomial a product
        of power(pid, exp) under mul; the empty monomial leaves gen as is."""
        out = []
        for vec in self.exponents:
            factors = [power(pid, exp) for pid, exp in enumerate(vec) if exp]
            mono = functools.reduce(mul, factors) if factors else None
            out += [gen if mono is None else mul(mono, gen) for gen in gens]
        return out

    def _term_of_index(self, idx: int, coeff: int) -> CertTerm:
        gen = idx % len(self.generators)
        vec = self.exponents[idx // len(self.generators)]
        monomial = tuple((pid, exp) for pid, exp in enumerate(vec) if exp)
        return CertTerm(generator=gen, monomial=monomial, coefficient=coeff)

    def solve(self, target) -> Certificate | None:
        coords = self._rows(as_scalar(target))
        if coords is None or len(coords[0]) > self._width:
            return None  # outside Q(zeta_N), not cleared by D, or of too high degree
        num, den = coords
        solution = self._solver.solve(list(num) + [0] * (self._width - len(num)), den)
        if solution is None:
            return None
        terms = tuple(
            self._term_of_index(i, c) for i, c in enumerate(solution) if c
        )
        return Certificate(product=None, terms=terms, degree_bound=self.degree_bound)


# -- ring verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class RingContext:
    angles: AngleSet
    generators: tuple[ExactScalar, ...]
    projections: tuple[ExactScalar, ...]


@dataclass(frozen=True)
class Ring:
    context: RingContext
    certificates: tuple[Certificate, ...]

    verdict = "ring"


@dataclass(frozen=True)
class NotRing:
    context: RingContext
    witness: ExactScalar
    trace: ExactScalar
    norm: ExactScalar

    verdict = "not_ring"


@dataclass(frozen=True)
class Unknown:
    context: RingContext
    degree_bound: int
    unresolved: tuple[tuple[int, int], ...]

    verdict = "unknown"


def ring_context(angles: AngleSet) -> RingContext:
    """The generators and projections of a verdict, from the angles alone:
    1 followed by the values of `nontrivial_monomials`, and for four or more
    directions P = `projection_set(angles).nontrivial`.  Three directions
    give generators (1, x), x = intersect(nu_0, nu_1, 0, 1) the one
    nontrivial value, and no projections.  An angle set without the real
    axis, or with fewer than three directions, raises
    UnsupportedConfigurationError.
    """
    if not angles.contains_one():
        raise UnsupportedConfigurationError(
            "the real axis direction must belong to the angle set"
        )
    if len(angles) < 3:
        raise UnsupportedConfigurationError("need at least three directions")
    generators = (Rational(1),) + tuple(m.value for m in nontrivial_monomials(angles))
    projections = projection_set(angles).nontrivial if len(angles) > 3 else ()
    return RingContext(angles=angles, generators=generators, projections=projections)


def check_ring(angles: AngleSet, degree_bound: int = 3):
    """Decide (three directions) or certify (four or more) ring-ness of the
    closure.

    Three directions: decidable both ways through the quadratic integer test.
    Four or more: a full set of pairwise product certificates yields Ring; a
    failed bounded search yields Unknown, never NotRing.  For a parametric
    angle set the verdict is about the formal parameter field: individual
    specializations of t may behave differently.  A degree bound above
    _MAX_CERT_DEGREE raises CapExceededError, as `verify` would refuse the
    certificates.
    """
    _cap_degree(degree_bound)
    context = ring_context(angles)
    if len(angles) == 3:
        x = context.generators[1]
        pair = quadratic_integer_test(x)
        if pair is None:
            return NotRing(
                context=context,
                witness=x,
                trace=x + x.conj(),
                norm=x * x.conj(),
            )
        lam, mu = pair
        terms = []
        if lam:
            terms.append(CertTerm(generator=1, monomial=(), coefficient=lam))
        if mu:
            terms.append(CertTerm(generator=0, monomial=(), coefficient=mu))
        cert = Certificate(product=(1, 1), terms=tuple(terms), degree_bound=0)
        return Ring(context=context, certificates=(cert,))
    generators, projections = context.generators, context.projections
    solver = MembershipSolver(generators, projections, degree_bound)
    certificates = []
    unresolved = []
    for i in range(1, len(generators)):
        for j in range(i, len(generators)):
            cert = solver.solve(generators[i] * generators[j])
            if cert is None:
                unresolved.append((i, j))
            else:
                certificates.append(
                    Certificate(
                        product=(i, j),
                        terms=cert.terms,
                        degree_bound=degree_bound,
                    )
                )
    if unresolved:
        return Unknown(
            context=context,
            degree_bound=degree_bound,
            unresolved=tuple(unresolved),
        )
    return Ring(context=context, certificates=tuple(certificates))


# -- JSON forms -------------------------------------------------------------------


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "product": list(cert.product) if cert.product is not None else None,
        "degree_bound": cert.degree_bound,
        "terms": [
            {
                "generator": t.generator,
                "monomial": {str(pid): exp for pid, exp in t.monomial},
                "coefficient": str(t.coefficient),
            }
            for t in cert.terms
        ],
    }


def _json_int(value, text: bool = False) -> int:
    """A JSON integer (not a bool or a float) or, when text is set, a string
    of an optional '-' and decimal digits, as an int; else ValueError."""
    if type(value) is int:
        return value
    if text and isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def certificate_from_obj(obj) -> Certificate:
    """Inverse of certificate_to_obj; a certificate, term or monomial that is
    not a JSON object raises ValueError.  So does an id, exponent or degree
    bound that is not a JSON integer, and a coefficient or projection id (a
    JSON key) that is neither that nor a string of an optional '-' and
    decimal digits."""
    if not isinstance(obj, dict) or not all(
        isinstance(t, dict) and isinstance(t.get("monomial"), dict) for t in obj["terms"]
    ):
        raise ValueError("certificate, term or monomial is not a JSON object")
    terms = tuple(
        CertTerm(
            generator=_json_int(t["generator"]),
            monomial=tuple(sorted(
                (_json_int(pid, text=True), _json_int(exp)) for pid, exp in t["monomial"].items()
            )),
            coefficient=_json_int(t["coefficient"], text=True),
        )
        for t in obj["terms"]
    )
    product = obj.get("product")
    return Certificate(
        product=tuple(_json_int(v) for v in product) if product is not None else None,
        terms=terms,
        degree_bound=_json_int(obj.get("degree_bound", 0)),
    )


def _rational_or_obj(value):
    """A rational value as its fraction string, any other as its scalar object."""
    return str(value.as_fraction()) if value.is_rational() else value.to_obj()


def verdict_to_obj(verdict) -> dict:
    ctx = verdict.context
    out = {
        "verdict": verdict.verdict,
        "generators": [g.to_obj() for g in ctx.generators],
        "projections": [p.to_obj() for p in ctx.projections],
    }
    if isinstance(verdict, Ring):
        out["certificates"] = [certificate_to_obj(c) for c in verdict.certificates]
    elif isinstance(verdict, NotRing):
        out["witness"] = verdict.witness.to_obj()
        out["trace"] = _rational_or_obj(verdict.trace)
        out["norm"] = _rational_or_obj(verdict.norm)
    else:
        out["degree_bound"] = verdict.degree_bound
        out["unresolved"] = [list(p) for p in verdict.unresolved]
    return out
