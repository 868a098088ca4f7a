"""Constructive density witnesses and the scaling projection search."""

import json
import random
from fractions import Fraction

import pytest

from origami_rings import (
    AngleSet,
    MembershipSolver,
    ParamRational,
    ProjectionSet,
    Rational,
    ScalingProjectionNotFoundError,
    UnitAngle,
    UnsupportedConfigurationError,
    approximate,
    find_scaling_projection,
    projection_set,
    real_imag_parts,
    real_sign,
    root_of_unity,
)


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


def example_angles():
    return AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])


def fake_projections(*fracs):
    vals = tuple(Rational(Fraction(f)) for f in fracs)
    return ProjectionSet(projections=vals, nontrivial=vals, x=None, family=None)


def test_scaling_projection_first_tier():
    p = find_scaling_projection(projection_set(example_angles()))
    assert p.as_fraction() == Fraction(2, 3)
    assert find_scaling_projection(fake_projections(Fraction(1, 2), 3)).as_fraction() == Fraction(1, 2)


def test_scaling_projection_product_tier():
    # neither {3/2, -2} nor the complements {-1/2, 3} lie in (0,1); the
    # first qualifying product is (-1/2)*(-1/2) = 1/4
    p = find_scaling_projection(fake_projections(Fraction(3, 2), -2))
    assert p.as_fraction() == Fraction(1, 4)


def test_scaling_projection_failures():
    with pytest.raises(ScalingProjectionNotFoundError):
        find_scaling_projection(fake_projections())
    t = ParamRational.t_power(1)
    ps = ProjectionSet(projections=(t,), nontrivial=(t,), x=None, family=None)
    with pytest.raises(UnsupportedConfigurationError):
        find_scaling_projection(ps)


def test_approximate_zero_target():
    w = approximate(0, 0, Fraction(1, 1000), example_angles())
    assert w.a == 0 and w.b == 0
    assert w.value.is_zero()


def test_approximate_real_target_keeps_b_zero():
    w = approximate(5, 0, Fraction(1, 2), example_angles())
    assert w.b == 0
    re, im = real_imag_parts(w.value)
    assert im.is_zero()
    assert abs(re.as_fraction() - 5) < Fraction(1, 2)


def test_approximate_imaginary_unit():
    eps = Fraction(1, 1000)
    w = approximate(0, 1, eps, example_angles())
    re, im = real_imag_parts(w.value)
    err_sq = re * re + (im - 1) ** 2
    assert real_sign(err_sq * -1 + eps**2) > 0


def test_exponents_are_minimal():
    w = approximate(Fraction(3, 7), Fraction(-5, 9), Fraction(1, 100), example_angles())
    half = w.epsilon / 2
    p = w.p
    _, im_z = real_imag_parts(w.z)
    abs_im = im_z if real_sign(im_z) > 0 else -im_z
    # n2 satisfies the bound and n2 - 1 does not
    assert real_sign(half - abs_im * p**w.n2) > 0
    if w.n2 > 0:
        assert real_sign(half - abs_im * p ** (w.n2 - 1)) <= 0
    assert real_sign(half - p**w.n1) > 0
    if w.n1 > 0:
        assert real_sign(half - p ** (w.n1 - 1)) <= 0


def test_witness_error_certified_random():
    rng = random.Random(91)
    angles = example_angles()
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        for _ in range(100):
            tre = Fraction(rng.randint(-200, 200), 100)
            tim = Fraction(rng.randint(-200, 200), 100)
            w = approximate(tre, tim, eps, angles)
            re, im = real_imag_parts(w.value)
            err_sq = (re - tre) ** 2 + (im - tim) ** 2
            assert real_sign(err_sq * -1 + eps**2) > 0
            # the stored components reproduce the value
            assert w.value == w.p ** w.n1 * w.a + w.p ** w.n2 * w.z * w.b


def test_witness_values_live_in_the_module():
    rng = random.Random(92)
    angles = example_angles()
    for _ in range(10):
        tre = Fraction(rng.randint(-20, 20), 10)
        tim = Fraction(rng.randint(-20, 20), 10)
        w = approximate(tre, tim, Fraction(1, 10), angles)
        generators = (Rational(1), w.z)
        projections = (w.p,)
        bound = max(w.n1, w.n2)
        cert = MembershipSolver(generators, projections, degree_bound=bound).solve(w.value)
        assert cert is not None


def test_witness_serialization():
    w = approximate(Fraction(1, 3), Fraction(1, 7), Fraction(1, 50), example_angles())
    obj = w.to_obj()
    json.dumps(obj)
    assert obj["target"] == {"re": "1/3", "im": "1/7"}
    assert obj["epsilon"] == "1/50"
    assert int(obj["n1"]) == w.n1
    iv = w.value_interval(64)
    assert iv.encloses(w.value.to_interval(256))


def test_approximate_validation():
    with pytest.raises(ValueError):
        approximate(0, 0, 0, example_angles())
    with pytest.raises(UnsupportedConfigurationError):
        approximate(0, 0, Fraction(1, 10), AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)]))
    t = ParamRational.t_power
    param = AngleSet(
        [UnitAngle(ParamRational.from_rational(Fraction(1)))]
        + [UnitAngle(t(k)) for k in (1, 2, 3)]
    )
    with pytest.raises(UnsupportedConfigurationError):
        approximate(0, 0, Fraction(1, 10), param)
