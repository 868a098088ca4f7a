"""Scalar protocol: rational backend, coercion, exact predicates."""

import math
import random
from fractions import Fraction

import pytest

from origami_rings import (
    BackendMismatchError,
    NonInvertibleError,
    ParamRational,
    Rational,
    ceil_exact,
    coerce,
    floor_exact,
    real_compare,
    real_imag_parts,
    real_sign,
    root_of_unity,
    scalar_from_obj,
)
from origami_rings.ratfunc import bulk_field
from helpers import random_cyclo, random_rational


def test_rational_basics():
    a = Rational(Fraction(2, 3))
    b = Rational(Fraction(-1, 6))
    assert (a + b).as_fraction() == Fraction(1, 2)
    assert (a * b).as_fraction() == Fraction(-1, 9)
    assert (a - a).is_zero()
    assert (a / b).as_fraction() == Fraction(-4)
    assert a.conj() == a
    assert a.is_real() and a.is_rational()
    assert not a.is_integer()
    assert Rational(Fraction(-7)).is_integer()


def test_int_interop():
    a = Rational(Fraction(1, 2))
    assert (a + 1).as_fraction() == Fraction(3, 2)
    assert (1 + a).as_fraction() == Fraction(3, 2)
    assert (2 * a).as_fraction() == 1
    assert (a - 2).as_fraction() == Fraction(-3, 2)
    assert (1 / a).as_fraction() == 2
    assert a == Fraction(1, 2)
    assert a != 1


def test_pow():
    a = Rational(Fraction(2, 3))
    assert (a ** 0).as_fraction() == 1
    assert (a ** 3).as_fraction() == Fraction(8, 27)
    assert (a ** -2).as_fraction() == Fraction(9, 4)
    z = root_of_unity(12, 1)
    assert z ** 12 == 1
    assert z ** -1 == z.conj()


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (random_rational(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == 1


def test_zero_division():
    with pytest.raises(NonInvertibleError):
        Rational(Fraction(0)).inv()
    with pytest.raises(NonInvertibleError):
        Rational(Fraction(1)) / Rational(Fraction(0))


def test_coercion_rational_into_cyclotomic():
    a = Rational(Fraction(1, 2))
    z = root_of_unity(4, 1)
    s = a + z
    assert s - z == a
    assert (a * z) * z == a * (z * z)


def test_param_cyclotomic_mix_rejected():
    t = ParamRational.t_power(1)
    z = root_of_unity(4, 1)
    with pytest.raises(BackendMismatchError):
        _ = t + z
    # equality across backends still answers (via canonical keys) instead of raising
    assert t != z


def test_coerce_mixes_backends_as_bulk_field_does():
    # a rational stored in a cyclotomic field goes with t, in arithmetic as in
    # bulk work; a non-rational cyclotomic value never does
    t = ParamRational.t_power(1)
    one = root_of_unity(12, 3) * root_of_unity(12, 9)
    values = [Rational(2), one, root_of_unity(12, 1), ParamRational.from_rational(2), t]
    for a in values:
        for b in values:
            try:
                bulk_field([a, b])
            except BackendMismatchError:
                with pytest.raises(BackendMismatchError):
                    coerce(a, b)
            else:
                x, y = coerce(a, b)
                assert type(x) is type(y)
                assert (x, y) == (a, b)
    assert t + one == t + 1
    assert isinstance(one + t, ParamRational)


def test_real_sign_and_compare():
    assert real_sign(Rational(Fraction(-3, 7))) == -1
    assert real_sign(Rational(Fraction(0))) == 0
    z6 = root_of_unity(6, 1)
    # z6 + conj(z6) = 1
    assert real_sign(z6 + z6.conj()) == 1
    assert real_compare(Rational(Fraction(1, 3)), Rational(Fraction(1, 2))) == -1
    with pytest.raises(ValueError):
        real_sign(root_of_unity(4, 1))  # not a real value


def test_ceil_floor_exact():
    assert ceil_exact(Rational(Fraction(7, 2))) == 4
    assert ceil_exact(Rational(Fraction(-7, 2))) == -3
    assert ceil_exact(Rational(Fraction(3))) == 3
    assert floor_exact(Rational(Fraction(7, 2))) == 3
    # 2*cos(pi/6) = sqrt(3): ceil must climb past 1.732...
    z12 = root_of_unity(12, 1)
    sqrt3 = z12 + z12.conj()
    assert ceil_exact(sqrt3) == 2
    assert floor_exact(sqrt3) == 1


def test_real_imag_parts():
    z = root_of_unity(4, 1)
    val = Rational(Fraction(3, 5)) + Rational(Fraction(-2, 7)) * z
    re, im = real_imag_parts(val)
    assert re.as_fraction() == Fraction(3, 5)
    assert im.as_fraction() == Fraction(-2, 7)
    # reassembly: val == re + im * i in the merged field
    i = root_of_unity(4, 1)
    assert re + im * i == val
    with pytest.raises(BackendMismatchError):
        real_imag_parts(ParamRational.t_power(2))


def test_real_imag_parts_match_the_inverse_of_2i():
    # the imaginary part is (conj(x) - x) * i / 2; compare with dividing
    # x - conj(x) by 2i through the field inverse
    rng = random.Random(12)
    for order in (3, 5, 7, 8, 9, 12, 15, 20, 24, 40, 60, 120):
        for _ in range(4):
            x = random_cyclo(rng, order)
            if x.is_real():
                continue
            m = math.lcm(order, 4)
            i, xe = root_of_unity(m, m // 4), x.embed(m)
            want = (xe - xe.conj()) * (2 * i).inv()
            re, im = real_imag_parts(x)
            assert im.order == want.order and im == want
            assert im.to_obj() == want.to_obj()
            assert re + im * i == x


def test_hash_consistency_across_backends():
    a = Rational(Fraction(5, 4))
    b = root_of_unity(8, 0) * Fraction(5, 4)  # rational value in a cyclotomic coat
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_scalar_from_obj_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a = random_rational(rng)
        assert scalar_from_obj(a.to_obj()) == a
    z = root_of_unity(12, 5) + Fraction(1, 3)
    assert scalar_from_obj(z.to_obj()) == z
    t = ParamRational((Fraction(1), Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)))
    assert scalar_from_obj(t.to_obj()) == t


@pytest.mark.parametrize(
    "obj",
    [
        {"backend": "rational", "value": 1.0},
        {"backend": "rational", "value": 1},
        {"backend": "rational", "value": "1e0"},
        {"backend": "rational", "value": " 1 "},
        {"backend": "cyclotomic", "order": 4, "coeffs": ["1", 0]},
        {"backend": "cyclotomic", "order": 4, "coeffs": "10"},
        {"backend": "cyclotomic", "order": "4", "coeffs": ["1", "0"]},
        {"backend": "cyclotomic", "order": 4.5, "coeffs": ["1", "0"]},
        {"backend": "cyclotomic", "order": True, "coeffs": ["1", "0"]},
        {"backend": "param", "num": ["0", "1.0"], "den": ["1"]},
    ],
)
def test_scalar_from_obj_reads_only_what_to_obj_writes(obj):
    # values and coefficients are fraction strings and orders JSON integers,
    # as to_obj writes them; a number of another JSON form is refused, not
    # rounded or parsed
    with pytest.raises(ValueError):
        scalar_from_obj(obj)


def test_ceil_exact_of_large_values():
    # sqrt(3) shifted by 10**k: the enclosure must narrow below 1 before the
    # climb, which then takes at most one unit step
    sqrt3 = root_of_unity(12, 1) + root_of_unity(12, 11)
    for k in (0, 20, 40, 80):
        stats = {}
        assert ceil_exact(sqrt3 * 10**k, stats) == math.isqrt(3 * 10 ** (2 * k)) + 1
        assert ceil_exact(sqrt3 + 10**k, stats) == 10**k + 2
        assert stats["climbs"] <= 2
        assert floor_exact(-sqrt3 * 10**k) == -math.isqrt(3 * 10 ** (2 * k)) - 1
