"""Lattice structure, Z[P]-module membership, ring verdicts."""

import itertools
import logging
import random
from fractions import Fraction

import pytest

from origami_rings import (
    AngleSet,
    BackendMismatchError,
    CapExceededError,
    Certificate,
    ConstructionConfig,
    CyclotomicElement,
    MembershipSolver,
    NotRing,
    ParamRational,
    Rational,
    Ring,
    Unknown,
    UnitAngle,
    UnsupportedConfigurationError,
    check_ring,
    closure_to_depth,
    intersect,
    lattice_coordinates,
    nontrivial_monomials,
    projection_set,
    root_of_unity,
    same_lattice,
    verify_certificate,
)
from origami_rings.analysis import (
    CertTerm,
    certificate_from_obj,
    certificate_to_obj,
    evaluate_certificate,
    ring_context,
    verdict_to_obj,
)
from origami_rings import analysis
from origami_rings.anglespec import parse_angle_list
from helpers import (
    brute_lattice_points,
    divmod_,
    membership_columns,
    mul,
    oracle_cyclotomic_membership,
    oracle_evaluate_certificate,
    oracle_lattice_coordinates,
    oracle_param_membership,
    oracle_tangent_point,
    param_coordinate_rows,
    quadratic_oracle,
    random_cyclo,
    random_fraction,
    random_rational,
    same_lattice_oracle,
)


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


def example_angles():
    return AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])


def example_generators():
    z6 = root_of_unity(6, 1)
    z1 = (1 + z6) * Fraction(2, 3)
    z2 = 1 + z6
    z3 = z6 * 2
    return z1, z2, z3


def param_angles():
    t = ParamRational.t_power
    return AngleSet(
        [UnitAngle(ParamRational.from_rational(Fraction(1)))]
        + [UnitAngle(t(k)) for k in (1, 2, 3)]
    )


# --- quadratic integers ----------------------------------------------------------
# x is a quadratic integer when x*x = mu + lam*x lies in Z + xZ, so
# lattice_coordinates(x, x*x) reads (mu, lam); quadratic_oracle gives (lam, mu)


def test_quadratic_golden_values():
    assert lattice_coordinates(root_of_unity(6, 1), root_of_unity(6, 1) ** 2) == (-1, 1)
    assert lattice_coordinates(root_of_unity(4, 1), root_of_unity(4, 1) ** 2) == (-1, 0)
    z1, _, _ = example_generators()
    assert lattice_coordinates(z1, z1 * z1) is None  # norm 4/3 is not an integer
    with pytest.raises(ValueError):
        lattice_coordinates(Rational(Fraction(2)), Rational(Fraction(4)))


def test_quadratic_matches_polynomial_expansion():
    rng = random.Random(81)
    count = 0
    while count < 100:
        order = rng.choice([3, 4, 6, 8, 12])
        a = random_fraction(rng, 6, 3)
        b = random_fraction(rng, 6, 3)
        x = Rational(a) + root_of_unity(order, 1) * b
        if x.is_real():
            continue
        count += 1
        coords = lattice_coordinates(x, x * x)
        oracle = quadratic_oracle(x)
        assert coords == (None if oracle is None else oracle[::-1])
        if coords is not None:
            mu, lam = coords
            assert x * x == x * lam + mu


# --- lattices -----------------------------------------------------------------


def make_point(a, b):
    """a + b*i with Fraction inputs."""
    return Rational(Fraction(a)) + root_of_unity(4, 1) * Fraction(b)


def test_same_lattice_golden():
    # integer translation preserves the lattice
    assert same_lattice(make_point(Fraction(1, 2), 3), make_point(Fraction(3, 2), 3))
    # scaling the imaginary part does not
    assert not same_lattice(make_point(0, 1), make_point(0, 2))
    # sign flip of the generator is the same lattice
    assert same_lattice(make_point(Fraction(1, 3), Fraction(1, 2)),
                        make_point(Fraction(-1, 3), Fraction(-1, 2)))
    x = root_of_unity(6, 1)
    assert same_lattice(x, x + 1)
    assert same_lattice(x, -x + 5)
    assert not same_lattice(x, x + Fraction(1, 2))
    with pytest.raises(ValueError):
        same_lattice(x, Rational(Fraction(1)))
    with pytest.raises(ValueError):
        same_lattice(Rational(Fraction(1)), x)


def test_same_lattice_is_equivalence():
    rng = random.Random(82)
    pts = [
        make_point(random_fraction(rng, 4, 3), Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        for _ in range(12)
    ]
    for x in pts:
        assert same_lattice(x, x)
        for y in pts:
            assert same_lattice(x, y) == same_lattice(y, x)
            for z in pts:
                if same_lattice(x, y) and same_lattice(y, z):
                    assert same_lattice(x, z)


def test_same_lattice_agrees_with_brute_force():
    rng = random.Random(83)
    box = (Fraction(-5, 4), Fraction(5, 4), Fraction(-5, 4), Fraction(5, 4))
    checked_equal = 0
    for _ in range(50):
        a = Fraction(rng.randint(-6, 6), 6)
        c = Fraction(rng.randint(-6, 6), 6)
        b = Fraction(rng.randint(2, 7), 6)
        d = Fraction(rng.randint(2, 7), 6)
        x = make_point(a, b)
        y = make_point(c, d)
        # the box is wide enough that distinct lattices always disagree inside
        # it, and |m|,|n| <= 6 covers every lattice point that can reach it
        same_sets = brute_lattice_points(a, b, box) == brute_lattice_points(c, d, box)
        assert same_lattice(x, y) == same_sets
        checked_equal += same_sets
    assert checked_equal >= 1  # the sample should hit at least one equal pair


def test_same_lattice_matches_oracle():
    # generators over orders 3 to 12, each compared with an integer
    # translate or negation of itself and with an independent generator
    rng = random.Random(85)
    equal = 0
    for _ in range(150):
        zeta = root_of_unity(rng.choice([3, 4, 6, 8, 12]), 1)
        point = lambda: Rational(random_fraction(rng, 6, 3)) + zeta * random_fraction(rng, 6, 3)
        x = point()
        if x.is_real():
            continue
        shift = Fraction(rng.randint(1, 5), rng.randint(2, 3))
        for y in (rng.choice([1, -1]) * x + rng.randint(-4, 4), x + shift, point()):
            if not y.is_real():
                assert same_lattice(x, y) == same_lattice_oracle(x, y)
                equal += same_lattice(x, y)
    assert equal >= 100


def test_same_lattice_builds_one_solver(caplog):
    # y = m + n*x decides equality by |n| = 1, without solving x in Z + yZ
    x = root_of_unity(6, 1)
    for y, equal in ((-x + 5, True), (x * 2, False), (x + Fraction(1, 2), False)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="origami_rings.analysis"):
            assert same_lattice(x, y) == equal
        assert [r.msg.split(":")[0] for r in caplog.records] == ["membership solver"]


def test_lattice_coordinates():
    x = root_of_unity(6, 1)
    z = Rational(Fraction(3)) - x * 2
    assert lattice_coordinates(x, z) == (3, -2)
    assert lattice_coordinates(x, Rational(Fraction(7))) == (7, 0)
    assert lattice_coordinates(x, Rational(Fraction(1, 2))) is None
    assert lattice_coordinates(x, root_of_unity(4, 1)) is None
    m, n = lattice_coordinates(x, x)
    assert (m, n) == (0, 1)


def test_lattice_coordinates_round_trip():
    rng = random.Random(84)
    x = root_of_unity(6, 1)
    for _ in range(50):
        m = rng.randint(-20, 20)
        n = rng.randint(-20, 20)
        z = Rational(Fraction(m)) + x * n
        assert lattice_coordinates(x, z) == (m, n)


def test_lattice_coordinates_parametric():
    x = ParamRational.t_power(1) / 2
    assert lattice_coordinates(x, 3 + 5 * x) == (3, 5)
    assert lattice_coordinates(x, x * x) is None  # dz/dx = (t + 1/t)/2
    assert lattice_coordinates(x, 3 + x / 2) is None  # dz/dx = 1/2


def _lattice_outcome(coordinates, x, z):
    try:
        return coordinates(x, z)
    except (ValueError, BackendMismatchError) as err:
        return type(err)


def test_lattice_coordinates_match_the_dz_dx_oracle():
    # the membership solve against the dz/dx body it replaced, on random x
    # and z of orders 1 to 120: z in the lattice, off it by a fraction, at
    # half a lattice step, rational, real and irrational, from a larger
    # field; parametric values; and mixed backends, compared by exception
    # type (a real x raises ValueError on both paths)
    rng = random.Random(2028)
    orders = [1, 3, 4, 5, 7, 8, 9, 12, 15, 20, 24, 30, 40, 60, 120]
    t = ParamRational.t_power(1)
    cases = []
    for _ in range(30):
        order = rng.choice(orders)
        x = random_cyclo(rng, order) if order > 1 else random_rational(rng)
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        w = random_cyclo(rng, rng.choice(orders[1:]))
        lattice = m + n * x
        cases += [
            (x, lattice),
            (x, x * x),
            (x, lattice + random_fraction(rng)),
            (x, lattice + x * Fraction(1, 2)),
            (x, Rational(Fraction(m))),
            (x, random_rational(rng)),
            (x, w + w.conj()),
            (x, lattice + root_of_unity(7 * order, 1)),
            (x, random_cyclo(rng, 2 * order)),
            (x, t),
        ]
    for k in (1, 2, 3):
        x = t**k * random_fraction(rng, den_bound=3) + random_fraction(rng)
        if x.is_real():
            continue
        m, n = rng.randint(-9, 9), rng.randint(-9, 9)
        cases += [
            (x, m + n * x),
            (x, x * x),
            (x, m + n * x + Fraction(1, 3)),
            (x, m + t + t.inv()),
            (x, random_rational(rng)),
            (x, root_of_unity(12, 1)),
        ]
    assert len(cases) > 300
    found = 0
    for x, z in cases:
        got = _lattice_outcome(lattice_coordinates, x, z)
        assert got == _lattice_outcome(oracle_lattice_coordinates, x, z)
        found += isinstance(got, tuple)
    assert found >= 60


# every {0, pi*a/n, pi*b/n} with 0 < a < b < n <= 12, as sets
THREE_DIRECTION_SETS = sorted(
    {
        ",".join(["0"] + [f"pi*{f.numerator}/{f.denominator}" for f in sorted(s)])
        for s in {
            frozenset(Fraction(k, n) for k in ks)
            for n in range(3, 13)
            for ks in itertools.combinations(range(1, n), 2)
        }
    }
)
THREE_DIRECTION_RINGS = [
    "0,pi*1/2,pi*2/3",
    "0,pi*1/2,pi*3/4",
    "0,pi*1/3,pi*1/2",
    "0,pi*1/3,pi*2/3",
    "0,pi*1/4,pi*1/2",
    "0,pi*1/6,pi*1/3",
    "0,pi*2/3,pi*5/6",
]


def test_three_direction_verdicts():
    # Z + xZ is the whole closure, so the degree-0 search is complete: Ring
    # exactly when x is a quadratic integer, and NotRing otherwise
    assert len(THREE_DIRECTION_SETS) == 196
    rings, not_rings = [], 0
    for spec in THREE_DIRECTION_SETS:
        angles = parse_angle_list(spec)[0]
        verdict = check_ring(angles)
        ctx = verdict.context
        x = ctx.generators[1]
        assert isinstance(verdict, Ring) == (quadratic_oracle(x) is not None), spec
        if isinstance(verdict, Ring):
            rings.append(spec)
            (cert,) = verdict.certificates
            assert (cert.product, cert.degree_bound) == ((1, 1), 0), spec
            assert verify_certificate(cert, ctx.generators, ctx.projections), spec
            assert check_ring(angles, degree_bound=5).certificates == (cert,), spec
        else:
            assert isinstance(verdict, NotRing), spec
            assert verdict.witness == x, spec
            assert (verdict.trace, verdict.norm) == (x + x.conj(), x * x.conj()), spec
            not_rings += 1
    assert rings == THREE_DIRECTION_RINGS
    assert not_rings == 189


@pytest.mark.parametrize(
    "spec, verdict",
    [
        ("0,pi*1/3,pi*2/3", Ring),
        ("0,pi*1/4,pi*1/2", Ring),
        ("0,pi*1/6,pi*1/3", Ring),
        ("0,pi*1/3,pi*1/2", Ring),
        ("0,pi*1/6,pi*1/2", NotRing),
    ],
)
def test_three_direction_check_ring_takes_one_inverse(spec, verdict, monkeypatch):
    # x is one intersect call, which inverts one bracket, and the lattice
    # test is a membership solve on integer rows, which inverts nothing
    calls = []
    inv = CyclotomicElement.inv
    monkeypatch.setattr(CyclotomicElement, "inv", lambda self: calls.append(self) or inv(self))
    assert isinstance(check_ring(parse_angle_list(spec)[0]), verdict)
    assert len(calls) == 1


# --- the apex x against its tangent form -----------------------------------------


def test_tangent_point_golden():
    # phi = pi/3, theta = 2pi/3 meet at e^{i pi/3}
    got = intersect(ua(6, 1), ua(3, 1), Rational(0), Rational(1))
    assert got == oracle_tangent_point(ua(3, 1), ua(6, 1)) == root_of_unity(6, 1)


def test_tangent_point_vertical_fallback():
    # theta = pi/2 has no tangent; the oracle solves the lines directly
    got = intersect(ua(6, 1), ua(4, 1), Rational(0), Rational(1))
    assert got == oracle_tangent_point(ua(4, 1), ua(6, 1))
    assert got == root_of_unity(6, 1) * 2  # 1 + i sqrt3


def test_tangent_point_matches_intersect_random():
    args = [(12, 1), (8, 1), (6, 1), (12, 5), (8, 3), (3, 1), (4, 1), (12, 4)]
    from origami_rings.geometry import angle_arg_compare

    for i, a in enumerate(args):
        for b in args[i + 1 :]:
            phi, theta = ua(*a), ua(*b)
            if angle_arg_compare(phi, theta) > 0:
                phi, theta = theta, phi
            if angle_arg_compare(phi, theta) == 0:
                continue
            assert oracle_tangent_point(theta, phi) == intersect(
                phi, theta, Rational(0), Rational(1)
            )


# --- membership ------------------------------------------------------------------


def example_problem_parts():
    z1, z2, z3 = example_generators()
    generators = (Rational(1), z1, z2, z3)
    projections = tuple(projection_set(example_angles()).nontrivial)
    return generators, projections


def test_membership_square_decomposes_at_degree_one():
    generators, projections = example_problem_parts()
    z1, z2, z3 = example_generators()
    cert = MembershipSolver(generators, projections, degree_bound=1).solve(z1 * z1)
    assert cert is not None
    assert verify_certificate(cert, generators, projections, expected=z1 * z1)
    assert all(sum(e for _, e in t.monomial) <= 1 for t in cert.terms)
    # the canonical decomposition (2/3) * z3 is itself a valid certificate
    proj_index = {p.canonical_key(): i for i, p in enumerate(projections)}
    two_thirds = proj_index[Rational(Fraction(2, 3)).canonical_key()]
    hand = Certificate(
        product=None,
        terms=(CertTerm(generator=3, monomial=((two_thirds, 1),), coefficient=1),),
        degree_bound=1,
    )
    assert verify_certificate(hand, generators, projections, expected=z1 * z1)


def test_membership_degree_zero_combination():
    generators, projections = example_problem_parts()
    z1, z2, z3 = example_generators()
    target = z3 * z3  # equals 4*z3 - 6*z1
    assert target == z3 * 4 - z1 * 6
    cert = MembershipSolver(generators, projections, 1).solve(target)
    assert cert is not None
    assert verify_certificate(cert, generators, projections, expected=target)


def test_membership_zero_target_empty_certificate():
    generators, projections = example_problem_parts()
    cert = MembershipSolver(generators, projections, 2).solve(Rational(0))
    assert cert is not None
    assert cert.terms == ()
    assert evaluate_certificate(cert, generators, projections) == 0


def test_membership_planted_instances():
    generators, projections = example_problem_parts()
    solver = MembershipSolver(generators, projections, degree_bound=2)
    rng = random.Random(85)
    vectors = solver.exponents
    for _ in range(60):
        terms = []
        for _ in range(rng.randint(1, 3)):
            vec = rng.choice(vectors)
            terms.append(
                CertTerm(
                    generator=rng.randrange(len(generators)),
                    monomial=tuple((pid, e) for pid, e in enumerate(vec) if e),
                    coefficient=rng.choice([c for c in range(-9, 10) if c]),
                )
            )
        planted = Certificate(product=None, terms=tuple(terms), degree_bound=2)
        target = evaluate_certificate(planted, generators, projections)
        found = solver.solve(target)
        assert found is not None
        assert verify_certificate(found, generators, projections, expected=target)


def test_membership_honest_negatives():
    generators, projections = example_problem_parts()
    # the imaginary unit is not an integer Z[P]-combination of these generators
    assert MembershipSolver(generators, projections, 2).solve(root_of_unity(4, 1)) is None
    # denominators of degree<=2 monomials divide 36, so 1/5 is unreachable
    assert MembershipSolver(generators, projections, 2).solve(Rational(Fraction(1, 5))) is None


def test_membership_solver_reuse_across_targets():
    generators, projections = example_problem_parts()
    z1, z2, z3 = example_generators()
    solver = MembershipSolver(generators, projections, degree_bound=2)
    for target in (z1 * z2, z2 * z3, z1 * z3, z2 * z2, Rational(0)):
        cert = solver.solve(target)
        assert cert is not None
        assert verify_certificate(cert, generators, projections, expected=target)


def stored_targets():
    """Targets stored at orders 12, 60 and 24 around the columns' order 12,
    plus two that have no solution: zeta_5, outside Q(zeta_12), and
    zeta_60^5 = zeta_12, inside it but outside the module."""
    z1, z2, z3 = example_generators()
    return (
        (z1 * z2).embed(12),
        (z1 * z2).embed(60),
        (z2 * z3).embed(24),
        root_of_unity(5),
        root_of_unity(60, 5),
    )


def test_cyclotomic_space_matches_per_order_assembly():
    generators, projections = example_problem_parts()
    solver = MembershipSolver(generators, projections, degree_bound=2)
    targets = stored_targets()
    assert [t.order for t in targets] == [12, 60, 24, 5, 60]
    for target in targets:
        cert = solver.solve(target)
        assert cert == oracle_cyclotomic_membership(solver, target)
        if cert is not None:
            assert verify_certificate(cert, generators, projections, expected=target)
    assert solver.solve(targets[3]) is None and solver.solve(targets[4]) is None


def test_targets_at_other_orders_reuse_one_row_solver(monkeypatch):
    built = []

    class Counting(analysis.RationalRowSolver):
        def __init__(self, rows, dens):
            built.append((len(rows), len(dens)))
            super().__init__(rows, dens)

    monkeypatch.setattr(analysis, "RationalRowSolver", Counting)
    generators, projections = example_problem_parts()
    solver = MembershipSolver(generators, projections, degree_bound=2)
    for target in stored_targets()[:3]:
        assert solver.solve(target) is not None
    # one matrix, over the phi(12) = 4 coordinates and the 40 columns
    assert built == [(4, 40)]


def test_membership_parametric():
    t = ParamRational.t_power(1)
    t2 = t * t
    z1 = (1 + t2 + t2 * t2) / (1 + t2)
    z2 = 1 + t2
    z3 = 1 + t2 + t2 * t2
    p1 = z1 / z2
    generators = (ParamRational.from_rational(Fraction(1)), z1, z2, z3)
    projections = tuple(projection_set(param_angles()).nontrivial)
    cert = MembershipSolver(generators, projections, 2).solve(z1 * z2)
    assert cert is not None
    assert verify_certificate(cert, generators, projections, expected=z1 * z2)
    assert z1 * z2 == z3  # the parametric analogue of the numeric identity


def param_solver(degree_bound):
    angles = param_angles()
    generators = (Rational(1),) + tuple(m.value for m in nontrivial_monomials(angles))
    return MembershipSolver(generators, projection_set(angles).nontrivial, degree_bound)


def test_parametric_space_matches_per_target_assembly():
    solver = param_solver(2)
    s2 = closure_to_depth(ConstructionConfig(param_angles(), max_depth=2))[2]
    assert len(s2) == 88
    for point in s2.points:
        cert = solver.solve(point)
        assert cert is not None
        assert cert == oracle_param_membership(solver, point)


def test_parametric_space_rejects_like_per_target_assembly():
    solver = param_solver(2)
    common, rows = param_coordinate_rows(membership_columns(solver))
    width = len(rows[0])
    t = ParamRational.t_power(1)
    one = ParamRational.from_rational(Fraction(1))
    d = ParamRational(common)
    # denominators that do not divide D: t + 5, and D + 1, which leaves
    # D = 1 * (D + 1) - 1, so D/(D + 1) would pass as the column 1 if the
    # remainder were ignored
    off_denominators = (one / (t + 5), d / (d + 1))
    for target in off_denominators:
        assert divmod_(common, target.den)[1]
    # t^width: a polynomial with more coefficients than the matrix has rows
    too_long = ParamRational.t_power(width)
    assert len(mul(too_long.num, common)) > width
    for target in off_denominators + (too_long,):
        assert solver.solve(target) is None
        assert oracle_param_membership(solver, target) is None


def test_parametric_space_with_non_primitive_denominators():
    # denominators 2 + 2t and 3t carry integer content 2 and 3
    t = ParamRational.t_power(1)
    half = ParamRational((1,), (2, 2))
    third = ParamRational((1, 0, 1), (0, 3))
    solver = MembershipSolver((Rational(1), half, third), (t + t.inv(),), 1)
    solvable = (half * 3 + 1, third * (t + t.inv()) - half, half * (t + t.inv()) * -2)
    unsolvable = (half / 2, third / 3, t * t * t * t)
    for target in solvable + unsolvable:
        cert = solver.solve(target)
        assert (cert is not None) == (target in solvable)
        assert cert == oracle_param_membership(solver, target)


def test_verify_rejects_corruption():
    generators, projections = example_problem_parts()
    z1, z2, z3 = example_generators()
    cert = MembershipSolver(generators, projections, 2).solve(z1 * z2)
    assert cert is not None and cert.terms
    first = cert.terms[0]
    corrupted = Certificate(
        product=None,
        terms=(
            CertTerm(first.generator, first.monomial, first.coefficient + 1),
        ) + cert.terms[1:],
        degree_bound=cert.degree_bound,
    )
    assert not verify_certificate(corrupted, generators, projections, expected=z1 * z2)


# Terms no Z[P] certificate holds: an inverse power, added with its negation
# so the value does not change, a negative generator id, a negative
# projection id and a zero exponent.
BAD_TERMS = (
    CertTerm(generator=1, monomial=((0, -2),), coefficient=5),
    CertTerm(generator=1, monomial=((0, -2),), coefficient=-5),
    CertTerm(generator=-1, monomial=(), coefficient=0),
    CertTerm(generator=1, monomial=((-1, 1),), coefficient=1),
    CertTerm(generator=1, monomial=((0, 0),), coefficient=1),
)


@pytest.mark.parametrize("bad", BAD_TERMS)
@pytest.mark.parametrize("backend", ["cyclotomic", "param"])
def test_malformed_terms_are_rejected(backend, bad):
    angles = example_angles() if backend == "cyclotomic" else param_angles()
    verdict = check_ring(angles, degree_bound=2)
    gens, projs = verdict.context.generators, verdict.context.projections
    good = verdict.certificates[0]
    assert verify_certificate(good, gens, projs)
    cert = Certificate(good.product, good.terms + (bad,), good.degree_bound)
    with pytest.raises(ValueError):
        evaluate_certificate(cert, gens, projs)
    with pytest.raises(ValueError):
        verify_certificate(cert, gens, projs)


def test_forged_terms_are_rejected():
    """A zero coefficient, a repeated (generator, monomial) pair, a term above
    the degree bound and a projection named twice in one monomial."""
    verdict = check_ring(example_angles(), degree_bound=2)
    gens, projs = verdict.context.generators, verdict.context.projections
    good = verdict.certificates[0]
    forged = [
        good.terms + (CertTerm(generator=1, monomial=(), coefficient=0),),
        good.terms + (good.terms[0],),
        good.terms + (CertTerm(generator=1, monomial=((0, 2), (1, 1)), coefficient=1),),
        good.terms + (CertTerm(generator=1, monomial=((0, 1), (0, 1)), coefficient=1),),
    ]
    for terms in forged:
        with pytest.raises(ValueError):
            evaluate_certificate(Certificate(good.product, terms, good.degree_bound), gens, projs)


def test_certificate_degree_ceiling():
    generators, projections = example_problem_parts()
    top = analysis._MAX_CERT_DEGREE
    # a term at the ceiling is evaluated, one bound above it is refused
    term = CertTerm(generator=1, monomial=((0, top),), coefficient=1)
    cert = Certificate(product=None, terms=(term,), degree_bound=top)
    value = evaluate_certificate(cert, generators, projections)
    assert value == oracle_evaluate_certificate(cert, generators, projections)
    with pytest.raises(CapExceededError):
        evaluate_certificate(Certificate(None, (term,), top + 1), generators, projections)
    with pytest.raises(CapExceededError):
        check_ring(example_angles(), degree_bound=top + 1)
    with pytest.raises(CapExceededError):
        MembershipSolver(generators, projections, top + 1)


def test_negative_product_id_is_rejected():
    generators, projections = example_problem_parts()
    cert = Certificate(product=(-1, 1), terms=(), degree_bound=0)
    with pytest.raises(ValueError):
        verify_certificate(cert, generators, projections)


def merged(terms):
    """The terms with coefficients of a repeated (generator, monomial) pair
    summed and zero terms dropped: the same value, in the form
    evaluate_certificate accepts."""
    sums = {}
    for t in terms:
        key = (t.generator, t.monomial)
        sums[key] = sums.get(key, 0) + t.coefficient
    return tuple(CertTerm(g, m, c) for (g, m), c in sums.items() if c)


def bumped(cert):
    """The certificate with its first coefficient raised by one."""
    first = cert.terms[0]
    return Certificate(
        cert.product,
        merged((CertTerm(first.generator, first.monomial, first.coefficient + 1),) + cert.terms[1:]),
        cert.degree_bound,
    )


@pytest.mark.parametrize(
    "spec, degree",
    [
        ("0,pi*1/6,pi*1/3,pi*1/2", 3),
        ("0,pi*1/4,pi*1/2,pi*3/4", 3),
        ("0,pi*1/12,pi*1/6,pi*1/4", 2),
    ],
)
def test_certificate_values_match_scalar_oracle(spec, degree):
    """Every S_2 point's certificate evaluates to the point on integer vectors
    and on scalars alike, and so does a certificate off by one coefficient."""
    angles = parse_angle_list(spec)[0]
    gens = (Rational(1),) + tuple(m.value for m in nontrivial_monomials(angles))
    projs = projection_set(angles).nontrivial
    solver = MembershipSolver(gens, projs, degree)
    for point in closure_to_depth(ConstructionConfig(angles, max_depth=2))[-1]:
        cert = solver.solve(point)
        assert cert is not None
        assert evaluate_certificate(cert, gens, projs) == point
        assert oracle_evaluate_certificate(cert, gens, projs) == point
        if cert.terms:
            off = bumped(cert)
            value = evaluate_certificate(off, gens, projs)
            assert value == oracle_evaluate_certificate(off, gens, projs)
            assert value != point


@pytest.mark.parametrize("backend", ["cyclotomic", "param"])
def test_random_certificates_match_scalar_oracle(backend):
    """Certificates with monomials of mixed degrees and mixed projections."""
    angles = example_angles() if backend == "cyclotomic" else param_angles()
    verdict = check_ring(angles, degree_bound=2)
    gens, projs = verdict.context.generators, verdict.context.projections
    exponents = MembershipSolver(gens, projs, 3).exponents
    rng = random.Random(19)
    for _ in range(40):
        terms = merged(
            CertTerm(
                generator=rng.randrange(len(gens)),
                monomial=tuple((pid, e) for pid, e in enumerate(rng.choice(exponents)) if e),
                coefficient=rng.randint(-10**12, 10**12),
            )
            for _ in range(rng.randint(1, 6))
        )
        cert = Certificate(product=None, terms=terms, degree_bound=3)
        assert evaluate_certificate(cert, gens, projs) == oracle_evaluate_certificate(
            cert, gens, projs
        )


def test_membership_solver_logs_its_shape(caplog):
    # hand values: phi(12) = 4 and phi(120) = 32 coordinate rows; 80 columns,
    # the 20 monomials of degree <= 3 in 3 projections times 4 generators.
    # At degree 0 the columns are the generators alone, so the order is the
    # lcm of the generator orders: 12 for (1, zeta_12), although the
    # projection zeta_5 + 1/zeta_5 lies in Q(zeta_60) only.  Parametric
    # columns have no order; their rows are the coefficients of t^k over the
    # common denominator: 40 columns (10 monomials of degree <= 2 in 3
    # projections times 4 generators) in 31 rows at degree 2.  The columns
    # of (1, zeta_12) at degree 0 are the unit vectors e_0 and e_1, so the
    # diagonalization logs no column operation and makes one pivot pass per
    # column; a rank below min(rows, columns) ends on one more, empty search
    caplog.set_level(logging.DEBUG, logger="origami_rings.analysis")
    check_ring(example_angles(), degree_bound=3)
    check_ring(parse_angle_list("0,pi*1/5,pi*1/4,pi*1/3")[0], degree_bound=3)
    check_ring(example_angles(), degree_bound=0)
    fifth = root_of_unity(5, 1)
    generators, projections = (Rational(1), root_of_unity(12, 1)), (fifth + fifth.conj(),)
    MembershipSolver(generators, projections, degree_bound=0)
    MembershipSolver(generators, projections, degree_bound=1)
    check_ring(param_angles(), degree_bound=2)
    check_ring(param_angles(), degree_bound=0)
    stats = [r.args for r in caplog.records if r.name == "origami_rings.analysis"]
    assert stats == [
        {"order": 12, "rows": 4, "columns": 80, "rank": 2, "column_ops": 248, "passes": 9},
        {"order": 120, "rows": 32, "columns": 80, "rank": 16, "column_ops": 2930, "passes": 83},
        {"order": 12, "rows": 4, "columns": 4, "rank": 2, "column_ops": 8, "passes": 4},
        {"order": 12, "rows": 4, "columns": 2, "rank": 2, "column_ops": 0, "passes": 2},
        {"order": 60, "rows": 16, "columns": 4, "rank": 4, "column_ops": 2, "passes": 4},
        {"order": None, "rows": 31, "columns": 40, "rank": 16, "column_ops": 206, "passes": 17},
        {"order": None, "rows": 7, "columns": 4, "rank": 4, "column_ops": 5, "passes": 4},
    ]


def test_parametric_and_cyclotomic_values_do_not_mix():
    # generators (1, zeta_12) with the projection t: the solver and the
    # certificate evaluation refuse the pair instead of treating zeta_12 as
    # a rational
    generators = (Rational(1), root_of_unity(12, 1))
    projections = (ParamRational.t_power(1),)
    with pytest.raises(BackendMismatchError):
        MembershipSolver(generators, projections, degree_bound=1)
    cert = Certificate(
        product=None,
        terms=(CertTerm(generator=1, monomial=((0, 1),), coefficient=1),),
        degree_bound=1,
    )
    with pytest.raises(BackendMismatchError):
        evaluate_certificate(cert, generators, projections)
    # a rational stored in a cyclotomic field goes with t
    one = root_of_unity(12, 3) * root_of_unity(12, 9)
    assert evaluate_certificate(cert, (Rational(1), one), projections) == projections[0]


def test_solver_target_of_the_other_backend_is_a_mismatch():
    # a numeric solver asked about t and a parametric solver asked about
    # zeta_12 both refuse the target as a backend mismatch
    t, zeta = ParamRational.t_power(1), root_of_unity(12, 1)
    with pytest.raises(BackendMismatchError):
        MembershipSolver([1, zeta], [], 0).solve(t)
    with pytest.raises(BackendMismatchError):
        MembershipSolver([1, t], [], 0).solve(zeta)


def test_certificate_json_round_trip():
    generators, projections = example_problem_parts()
    z1, z2, z3 = example_generators()
    cert = MembershipSolver(generators, projections, 2).solve(z2 * z3)
    assert cert is not None
    again = certificate_from_obj(certificate_to_obj(cert))
    assert again == cert
    assert verify_certificate(again, generators, projections, expected=z2 * z3)


# --- ring verdicts ----------------------------------------------------------------


def test_check_ring_three_angles_positive():
    verdict = check_ring(AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)]))
    assert isinstance(verdict, Ring)
    assert verdict.verdict == "ring"
    (cert,) = verdict.certificates
    assert cert.product == (1, 1)
    gens = verdict.context.generators
    x = gens[1]
    # x^2 = x - 1 for x = e^{i pi/3}
    assert verify_certificate(cert, gens, verdict.context.projections)
    assert x * x == x - 1


def test_check_ring_three_angles_negative():
    verdict = check_ring(AngleSet([ua(1, 0), ua(12, 1), ua(4, 1)]))
    assert isinstance(verdict, NotRing)
    assert verdict.verdict == "not_ring"
    # witness 1 + i/sqrt3 has trace 2 but norm 4/3
    assert verdict.trace.as_fraction() == 2
    assert verdict.norm.as_fraction() == Fraction(4, 3)


def test_check_ring_example_certifies_all_products():
    verdict = check_ring(example_angles(), degree_bound=2)
    assert isinstance(verdict, Ring)
    gens = verdict.context.generators
    projs = verdict.context.projections
    assert len(verdict.certificates) == 6
    for cert in verdict.certificates:
        assert verify_certificate(cert, gens, projs)
    # golden closed forms, checked as value identities
    z1, z2, z3 = example_generators()
    assert z1 * z1 == z3 * Fraction(2, 3)
    assert z1 * z2 == z3
    assert z1 * z3 == z1 * 4 - 4
    assert z2 * z2 == z3 * Fraction(3, 2)
    assert z2 * z3 == z1 * 6 - 6
    assert z3 * z3 == z3 * 4 - z1 * 6
    # the generator tuple is (1, <the three nontrivial values in pair order>)
    keys = {g.canonical_key() for g in gens}
    for z in (z1, z2, z3):
        assert z.canonical_key() in keys


def test_check_ring_parametric():
    verdict = check_ring(param_angles(), degree_bound=2)
    assert isinstance(verdict, Ring)
    gens = verdict.context.generators
    projs = verdict.context.projections
    for cert in verdict.certificates:
        assert verify_certificate(cert, gens, projs)
    t = ParamRational.t_power(1)
    t2 = t * t
    z2 = 1 + t2
    z3 = 1 + t2 + t2 * t2
    # product expansions in the parameter
    assert z2 * z3 == ParamRational(
        tuple(Fraction(c) for c in (1, 0, 2, 0, 2, 0, 1))
    )
    assert z3 * z3 == ParamRational(
        tuple(Fraction(c) for c in (1, 0, 2, 0, 3, 0, 2, 0, 1))
    )


def test_check_ring_unknown_is_honest():
    angles = AngleSet([ua(1, 0), ua(10, 1), ua(8, 1), ua(6, 1)])
    verdict = check_ring(angles, degree_bound=1)
    assert isinstance(verdict, Unknown)
    assert verdict.verdict == "unknown"
    assert verdict.degree_bound == 1
    assert len(verdict.unresolved) >= 1
    # never NotRing for four or more directions
    assert not isinstance(verdict, NotRing)


@pytest.mark.parametrize(
    "spec", ["0,pi*1/3,pi*2/3", "0,pi*1/4,pi*1/2", "0,pi*1/6,pi*1/3", "0,pi*1/3,pi*1/2",
             "0,pi*1/6,pi*1/2"],
)
def test_three_direction_context_is_one_and_the_intersection(spec):
    # the three-direction sets of the certify pool: the one nontrivial value
    # is x = intersect(nu_0, nu_1, 0, 1), stored as the intersect call stores it
    angles = parse_angle_list(spec)[0]
    nu = angles.non_unit()
    context = ring_context(angles)
    x = intersect(nu[0], nu[1], Rational(0), Rational(1))
    assert [g.to_obj() for g in context.generators] == [Rational(1).to_obj(), x.to_obj()]
    assert context.projections == ()


def test_check_ring_unsupported_configurations():
    with pytest.raises(UnsupportedConfigurationError):
        check_ring(AngleSet([ua(12, 1), ua(6, 1), ua(4, 1)]))  # missing the axis
    with pytest.raises(UnsupportedConfigurationError):
        check_ring(AngleSet([ua(1, 0), ua(4, 1)]))


def test_verdict_json_forms():
    ring = check_ring(example_angles(), degree_bound=2)
    obj = verdict_to_obj(ring)
    assert obj["verdict"] == "ring"
    assert len(obj["certificates"]) == 6
    assert len(obj["generators"]) == 4
    not_ring = check_ring(AngleSet([ua(1, 0), ua(12, 1), ua(4, 1)]))
    obj = verdict_to_obj(not_ring)
    assert obj["verdict"] == "not_ring"
    assert obj["norm"] == "4/3"
    unknown = check_ring(AngleSet([ua(1, 0), ua(10, 1), ua(8, 1), ua(6, 1)]), 1)
    obj = verdict_to_obj(unknown)
    assert obj["verdict"] == "unknown"
    assert obj["degree_bound"] == 1
    assert obj["unresolved"]
