"""Lines, intersections, projections, and the five intersection identities."""

import random
from fractions import Fraction

import pytest

from origami_rings import (
    AngleSet,
    BackendMismatchError,
    ParallelLinesError,
    ParamRational,
    Rational,
    UnitAngle,
    bracket,
    intersect,
    nontrivial_monomials,
    project_to_real_axis,
    root_of_unity,
)
from helpers import (
    oracle_intersect,
    oracle_project_to_real_axis,
    random_angle_pair,
    random_point,
    random_rational,
    random_unit,
)


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


# --- bracket -----------------------------------------------------------------


def test_bracket_golden_values():
    one = root_of_unity(1, 0)
    assert bracket(one, one).is_zero()
    i = root_of_unity(4, 1)
    # [1, i] = 1*(-i) - i*1 = -2i
    assert bracket(one, i) == -2 * i
    # [z12, z12^4] = 2i sin(pi/6 - 2pi/3) = -2i = -2 * z12^3
    z = root_of_unity(12, 1)
    val = bracket(z, z ** 4)
    assert val == -2 * root_of_unity(12, 3)
    iv = val.to_interval(64)
    assert iv.contains_value(Fraction(0), Fraction(-2))


def test_bracket_antisymmetric_and_imaginary():
    rng = random.Random(51)
    for _ in range(60):
        x = random_point(rng)
        y = random_point(rng)
        b = bracket(x, y)
        assert bracket(y, x) == -b
        # purely imaginary: conj(b) = -b
        assert b.conj() == -b


def test_bracket_detects_parallel():
    z = root_of_unity(6, 1)
    assert bracket(z, -z).is_zero()
    assert not bracket(z, z * z).is_zero()


# --- UnitAngle ---------------------------------------------------------------


def test_unit_angle_validation():
    with pytest.raises(ValueError):
        UnitAngle(Rational(Fraction(1, 2)))
    with pytest.raises(ValueError):
        UnitAngle(root_of_unity(6, 1) * 2)
    UnitAngle(root_of_unity(8, 3))  # fine


def test_unit_angle_mod_sign():
    a = UnitAngle(root_of_unity(6, 1))
    b = UnitAngle(-root_of_unity(6, 1))
    assert a == b
    assert hash(a) == hash(b)
    assert a.value == b.value  # normalized representative is shared


def test_real_axis():
    e = UnitAngle.real_axis()
    assert e.is_one()
    assert e == UnitAngle(root_of_unity(2, 1))  # -1 is the same direction


# --- intersect golden values ---------------------------------------------------


def test_intersect_golden_equilateral():
    # lines through 0 and 1 at pi/3 and 2pi/3 meet at (1 + i sqrt 3)/... check:
    # L_{pi/3}(0) and L_{2pi/3}(1) meet at 1 + i*sqrt(3) scaled: compute exactly
    a = ua(6, 1)  # e^{i pi/3}
    b = ua(3, 1)  # e^{i 2pi/3}
    z = intersect(a, b, Rational(Fraction(0)), Rational(Fraction(1)))
    # the meet of y = sqrt3 x and y = -sqrt3(x-1) is x=1/2, y=sqrt3/2 = e^{i pi/3}
    assert z == root_of_unity(6, 1)


def test_intersect_same_point_on_both_lines():
    rng = random.Random(52)
    for _ in range(30):
        alpha, beta = random_angle_pair(rng)
        p = random_point(rng)
        assert intersect(alpha, beta, p, p) == p


def test_intersect_parallel_error():
    a = ua(6, 1)
    b = UnitAngle(-root_of_unity(6, 1))
    with pytest.raises(ParallelLinesError):
        intersect(a, b, Rational(Fraction(0)), Rational(Fraction(1)))


def test_intersect_lies_on_both_lines():
    rng = random.Random(53)
    for _ in range(120):
        alpha, beta = random_angle_pair(rng)
        p = random_point(rng)
        q = random_point(rng)
        z = intersect(alpha, beta, p, q)
        assert bracket(alpha.value, z - p).is_zero()
        assert bracket(beta.value, z - q).is_zero()


def test_intersect_matches_independent_2x2_solve():
    rng = random.Random(54)
    for _ in range(200):
        alpha, beta = random_angle_pair(rng)
        p = random_point(rng)
        q = random_point(rng)
        assert intersect(alpha, beta, p, q) == oracle_intersect(alpha, beta, p, q)


# --- the five identities -------------------------------------------------------


def identity_instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        alpha, beta = random_angle_pair(rng)
        p = random_point(rng)
        q = random_point(rng)
        yield alpha, beta, p, q, rng


def test_identity_symmetry():
    for u, v, p, q, _ in identity_instances(55, 100):
        assert intersect(u, v, p, q) == intersect(v, u, q, p)


def test_identity_reduction():
    zero = Rational(Fraction(0))
    for u, v, p, q, _ in identity_instances(56, 100):
        assert intersect(u, v, p, q) == intersect(u, v, p, zero) + intersect(v, u, q, zero)


def test_identity_linearity():
    zero = Rational(Fraction(0))
    for u, v, p, q, rng in identity_instances(57, 100):
        r = random_rational(rng).as_fraction()
        lhs = intersect(u, v, p * r + q, zero)
        rhs = intersect(u, v, p, zero) * r + intersect(u, v, q, zero)
        assert lhs == rhs


def test_identity_rotation():
    for u, v, p, q, rng in identity_instances(58, 100):
        w = random_unit(rng)
        lhs = w.value * intersect(u, v, p, q)
        rhs = intersect(
            UnitAngle(w.value * u.value), UnitAngle(w.value * v.value), w.value * p, w.value * q
        )
        assert lhs == rhs


def test_identity_parallelogram():
    for u, v, p, q, _ in identity_instances(59, 100):
        assert intersect(u, v, p, q) + intersect(v, u, p, q) == p + q


def test_identities_parametric():
    t = ParamRational.t_power
    angles = [UnitAngle(t(1)), UnitAngle(t(2)), UnitAngle(t(3))]
    pts = [ParamRational.from_rational(Fraction(1)), 1 + t(2), (1 + t(2)) * t(1)]
    zero = ParamRational.from_rational(Fraction(0))
    for u in angles:
        for v in angles:
            if u == v:
                continue
            for p in pts:
                for q in pts:
                    assert intersect(u, v, p, q) == intersect(v, u, q, p)
                    assert intersect(u, v, p, q) + intersect(v, u, p, q) == p + q
                    assert intersect(u, v, p, q) == intersect(u, v, p, zero) + intersect(
                        v, u, q, zero
                    )


# --- projection ----------------------------------------------------------------


def test_project_golden_values():
    # z3 = 1 + i sqrt3 = 2 e^{i pi/3}; the line z3 + s e^{i pi/3} passes
    # through the origin (s = -2), so projecting along pi/3 gives 0
    z3 = root_of_unity(6, 1) * 2
    assert project_to_real_axis(z3, ua(6, 1)).is_zero()
    # along 2pi/3: imag part sqrt3 + s sqrt3/2 = 0 at s = -2, real part 1 + 1 = 2
    got = project_to_real_axis(z3, ua(3, 1))
    assert got == Rational(Fraction(2))
    # real input projects to itself
    r = Rational(Fraction(5, 3))
    assert project_to_real_axis(r, ua(4, 1)) == r


def test_project_requires_transversal_direction():
    with pytest.raises(ParallelLinesError):
        project_to_real_axis(root_of_unity(4, 1), UnitAngle.real_axis())


def test_project_is_real_random():
    rng = random.Random(61)
    for _ in range(80):
        z = random_point(rng)
        w = random_unit(rng)
        if w.is_one():
            continue
        x = project_to_real_axis(z, w)
        assert x.is_real()
        assert x.to_obj() == oracle_project_to_real_axis(z, w).to_obj()
        # the projected point lies on the line through z with direction w
        assert bracket(w.value, x - z).is_zero()


# --- AngleSet ------------------------------------------------------------------


def test_angle_set_sorting_and_containment():
    # directions 1, e^{i pi/6}, e^{i pi/3}, i in scrambled input order
    angles = AngleSet([ua(4, 1), ua(1, 0), ua(6, 1), ua(12, 1)])
    assert len(angles) == 4
    assert angles.contains_one()
    # rational direction first, then ascending argument
    assert angles[0].is_one()
    vals = [a.value for a in angles]
    assert vals[1] == root_of_unity(12, 1)
    assert vals[2] == root_of_unity(6, 1)
    assert vals[3] == root_of_unity(4, 1)
    assert len(angles.non_unit()) == 3
    assert not angles.is_parametric()


def test_angle_set_sorting_mod_sign():
    # -e^{i pi/6} normalizes to e^{i pi/6}
    angles = AngleSet([UnitAngle(-root_of_unity(12, 1)), ua(1, 0)])
    assert angles[1].value == root_of_unity(12, 1)


def test_angle_set_rejects_duplicates():
    with pytest.raises(ValueError):
        AngleSet([ua(1, 0), ua(6, 1), UnitAngle(-root_of_unity(6, 1))])
    with pytest.raises(ValueError):
        AngleSet([ua(4, 1)])


def test_angle_set_rejects_backend_mixing():
    with pytest.raises(BackendMismatchError):
        AngleSet([UnitAngle(ParamRational.t_power(1)), ua(6, 1)])
    # the axis as a cyclotomic 1 is rational, so it goes with t, as in
    # arithmetic and in bulk work
    t = ParamRational.t_power
    mixed = AngleSet([ua(1, 0), UnitAngle(t(1)), UnitAngle(t(2))])
    plain = AngleSet([UnitAngle(ParamRational.from_rational(1)), UnitAngle(t(1)), UnitAngle(t(2))])
    assert [m.value for m in nontrivial_monomials(mixed)] == [
        m.value for m in nontrivial_monomials(plain)
    ]


def test_angle_set_parametric_ordering():
    t = ParamRational.t_power
    angles = AngleSet([UnitAngle(t(3)), UnitAngle(t(1)), UnitAngle(ParamRational.from_rational(Fraction(1))), UnitAngle(t(2))])
    assert angles.is_parametric()
    exps = []
    for a in angles:
        if a.is_one():
            exps.append(0)
        else:
            exps.append(a.value.num.index(1))
    assert exps == [0, 1, 2, 3]


def test_angle_set_pairs():
    angles = AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)])
    pairs = list(angles.pairs())
    assert len(pairs) == 3
    for a, b in pairs:
        assert a != b


def test_permutation_invariance():
    a = AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)])
    b = AngleSet([ua(3, 1), ua(1, 0), ua(6, 1)])
    assert [x.value for x in a] == [y.value for y in b]
