"""Algebraic structure of intersection closures: lattices, modules, rings.

For three directions the closure is the lattice Z + xZ and ring-ness is the
decidable question of whether x is a quadratic integer.  For four or more
directions the closure is spanned over Z[P] (P the projection values) by the
nontrivial elementary monomials together with 1, and ring-ness is certified
by expressing every pairwise product of generators back in the module; the
search is complete up to a monomial degree bound, so its failure reports
Unknown rather than NotRing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .construction import nontrivial_monomials, projection_set
from .cyclotomic import CyclotomicElement, euler_phi
from .diophantine import RationalRowSolver
from .errors import UnsupportedConfigurationError
from .geometry import AngleSet, UnitAngle, angle_arg_compare, intersect
from .ratfunc import ParamRational, common_denominator, scaled_numerator
from .scalars import ExactScalar, Rational, as_scalar


# -- quadratic integers and lattices ------------------------------------------


def quadratic_integer_test(x):
    """(lam, mu) with x*x = lam*x + mu when x is a quadratic integer, else None.

    lam is the trace x + conj(x) and mu the negated norm -x*conj(x); x must
    not be real (the lattice Z + xZ would degenerate).
    """
    x = as_scalar(x)
    if x.is_real():
        raise ValueError("x is real; the lattice Z + xZ is degenerate")
    trace = x + x.conj()
    norm = x * x.conj()
    if trace.is_integer() and norm.is_integer():
        return int(trace.as_fraction()), -int(norm.as_fraction())
    return None


def minimal_polynomial_pair(x) -> tuple[ExactScalar, ExactScalar]:
    """Coefficients (c1, c0) of X^2 + c1*X + c0 = (X - x)(X - conj x)."""
    x = as_scalar(x)
    return -(x + x.conj()), x * x.conj()


@dataclass(frozen=True)
class LatticeDescriptor:
    """The lattice Z + xZ with the exact real/imaginary split of x."""

    x: ExactScalar
    re_part: ExactScalar
    im_part: ExactScalar


def lattice_descriptor(x) -> LatticeDescriptor:
    from .scalars import real_imag_parts

    x = as_scalar(x)
    if x.is_real():
        raise ValueError("x is real; the lattice Z + xZ is degenerate")
    re, im = real_imag_parts(x)
    return LatticeDescriptor(x=x, re_part=re, im_part=im)


def same_lattice(x, y) -> bool:
    """Whether Z + xZ = Z + yZ, via x -+ y in Z on matching imaginary parts.

    Works without an imaginary unit: x - conj(x) compares the imaginary
    parts, the half-sum of traces compares the real parts.
    """
    x = as_scalar(x)
    y = as_scalar(y)
    if x.is_real() or y.is_real():
        raise ValueError("degenerate lattice: generator is real")
    dx = x - x.conj()
    dy = y - y.conj()
    tx = x + x.conj()
    ty = y + y.conj()
    if dx == dy and ((tx - ty) * Fraction(1, 2)).is_integer():
        return True
    if dx == -dy and ((tx + ty) * Fraction(1, 2)).is_integer():
        return True
    return False


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


def _cyclotomic_row(value, order: int) -> list[Fraction]:
    """Q-linear coordinates of a rational or cyclotomic scalar in Q(zeta_order)."""
    if not isinstance(value, CyclotomicElement):
        value = CyclotomicElement.from_rational(value.as_fraction(), order)
    return list(value.embed(order).coeffs)


def _exponent_vectors(count: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples over `count` variables with total degree <= degree,
    by ascending degree, lexicographic within a degree."""
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(count), d):
            vec = [0] * count
            for i in combo:
                vec[i] += 1
            out.append(tuple(vec))
    return out


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


def evaluate_certificate(cert: Certificate, generators, projections) -> ExactScalar:
    """Sum of the certificate's terms, with the generator combination of each
    distinct monomial formed first and the monomial evaluated once."""
    generators = [as_scalar(g) for g in generators]
    projections = [as_scalar(p) for p in projections]
    combos = {}
    for term in cert.terms:
        if term.generator >= len(generators):
            raise ValueError(f"unknown generator id {term.generator}")
        part = generators[term.generator] * term.coefficient
        prev = combos.get(term.monomial)
        combos[term.monomial] = part if prev is None else prev + part
    total = None
    for monomial, value in combos.items():
        for pid, exp in monomial:
            if pid >= len(projections):
                raise ValueError(f"unknown projection id {pid}")
            value = value * projections[pid] ** exp
        total = value if total is None else total + value
    if total is None:
        total = Rational(0)
    return total


def verify_certificate(cert: Certificate, generators, projections, expected=None) -> bool:
    """Exact re-evaluation; for product certificates the expected value is the
    generator product itself."""
    if expected is None:
        if cert.product is None:
            raise ValueError("free-standing certificate needs an expected value")
        i, j = cert.product
        generators = [as_scalar(g) for g in generators]
        if max(i, j) >= len(generators):
            raise ValueError(f"unknown generator id in product {cert.product}")
        expected = generators[i] * generators[j]
    return evaluate_certificate(cert, generators, projections) == as_scalar(expected)


@dataclass(frozen=True)
class MembershipProblem:
    target: ExactScalar
    generators: tuple[ExactScalar, ...]
    projections: tuple[ExactScalar, ...]
    degree_bound: int = 3


class MembershipSolver:
    """Reusable search for integer Z[P]-combinations over fixed generators.

    Column values (monomial times generator) are fixed at construction, and
    so is their coordinate space.  Parametric columns are written over their
    common monic denominator D; the coordinate matrix and its integer
    diagonalization are built once.  Cyclotomic and rational columns get one
    matrix per cyclotomic order, the columns' own order or its lcm with a
    target's, built on first use.  A target is then reduced to its coordinate
    vector and solved against the cached matrix.
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
        self.columns = []
        for vec in self.exponents:
            mono = Rational(1)
            for pid, exp in enumerate(vec):
                if exp:
                    mono = mono * self.projections[pid] ** exp
            for gen in self.generators:
                self.columns.append(mono * gen)
        self._order = 1  # cyclotomic order of the columns
        for v in self.columns:
            if isinstance(v, CyclotomicElement):
                self._order = lcm(self._order, v.order)
        self._solvers: dict = {}  # cyclotomic order -> row solver
        self._param = None  # (common denominator D, row count, row solver)
        if any(isinstance(c, ParamRational) for c in self.columns):
            common = common_denominator(_as_param(c) for c in self.columns)
            polys = [scaled_numerator(_as_param(c), common) for c in self.columns]
            width = max((len(q) for q in polys), default=1)
            self._param = (common, width, RationalRowSolver(_columns_to_rows(polys, width)))

    def _term_of_index(self, idx: int, coeff: int) -> CertTerm:
        gen = idx % len(self.generators)
        vec = self.exponents[idx // len(self.generators)]
        monomial = tuple((pid, exp) for pid, exp in enumerate(vec) if exp)
        return CertTerm(generator=gen, monomial=monomial, coefficient=coeff)

    def _system(self, target):
        """(row solver, target coordinates), or None when the target lies
        outside the columns' coordinate space."""
        if self._param is not None:
            common, width, solver = self._param
            num = scaled_numerator(_as_param(target), common)
            if num is None or len(num) > width:
                return None  # denominator does not divide D, or degree too high
            return solver, list(num) + [Fraction(0)] * (width - len(num))
        order = self._order
        if isinstance(target, CyclotomicElement):
            order = lcm(order, target.order)
        solver = self._solvers.get(order)
        if solver is None:
            rows = [_cyclotomic_row(c, order) for c in self.columns]
            solver = RationalRowSolver(_columns_to_rows(rows, len(rows[0])))
            self._solvers[order] = solver
        return solver, _cyclotomic_row(target, order)

    def solve(self, target) -> Certificate | None:
        system = self._system(as_scalar(target))
        solution = None if system is None else system[0].solve(system[1])
        if solution is None:
            return None
        terms = tuple(
            self._term_of_index(i, c) for i, c in enumerate(solution) if c
        )
        return Certificate(product=None, terms=terms, degree_bound=self.degree_bound)


def _as_param(value) -> ParamRational:
    if isinstance(value, ParamRational):
        return value
    return ParamRational.from_rational(value.as_fraction())


def _columns_to_rows(columns, width: int) -> list[list[Fraction]]:
    """Coordinate matrix with one column per coordinate vector, zero-padded."""
    return [
        [col[i] if i < len(col) else Fraction(0) for col in columns]
        for i in range(width)
    ]


def membership(problem: MembershipProblem) -> Certificate | None:
    solver = MembershipSolver(
        problem.generators, problem.projections, problem.degree_bound
    )
    return solver.solve(problem.target)


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


def check_ring(angles: AngleSet, degree_bound: int = 3):
    """Decide (three directions) or certify (four or more) ring-ness of the
    closure.

    Three directions: decidable both ways through the quadratic integer test.
    Four or more: a full set of pairwise product certificates yields Ring; a
    failed bounded search yields Unknown, never NotRing.  For a parametric
    angle set the verdict is about the formal parameter field: individual
    specializations of t may behave differently.
    """
    if not angles.contains_one():
        raise UnsupportedConfigurationError(
            "the real axis direction must belong to the angle set"
        )
    if len(angles) < 3:
        raise UnsupportedConfigurationError("need at least three directions")
    nu = angles.non_unit()
    if len(angles) == 3:
        x = intersect(nu[0], nu[1], Rational(0), Rational(1))
        context = RingContext(
            angles=angles, generators=(Rational(1), x), projections=()
        )
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
    monomials = nontrivial_monomials(angles)
    generators = (Rational(1),) + tuple(m.value for m in monomials)
    projections = projection_set(angles).nontrivial
    context = RingContext(
        angles=angles, generators=generators, projections=projections
    )
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


def certificate_from_obj(obj) -> Certificate:
    terms = tuple(
        CertTerm(
            generator=int(t["generator"]),
            monomial=tuple(
                sorted((int(pid), int(exp)) for pid, exp in t["monomial"].items())
            ),
            coefficient=int(t["coefficient"]),
        )
        for t in obj["terms"]
    )
    product = obj.get("product")
    return Certificate(
        product=tuple(int(v) for v in product) if product is not None else None,
        terms=terms,
        degree_bound=int(obj.get("degree_bound", 0)),
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
