"""Scalar protocol: rational backend, mixing of backends, exact predicates."""

import math
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from origami_rings import (
    BackendMismatchError,
    CyclotomicElement,
    NonInvertibleError,
    ParamRational,
    Rational,
    ceil_exact,
    real_imag_parts,
    real_sign,
    root_of_unity,
    scalar_from_obj,
)
from origami_rings import _polys, cyclotomic
from origami_rings.ratfunc import bulk_field
from helpers import (
    oracle_combine,
    random_cyclo,
    random_fraction,
    random_rational,
    stored_form,
)


def test_rational_basics():
    a = Rational(Fraction(2, 3))
    b = Rational(Fraction(-1, 6))
    assert (a + b).as_fraction() == Fraction(1, 2)
    assert (a * b).as_fraction() == Fraction(-1, 9)
    assert (a - a).is_zero()
    assert (a / b).as_fraction() == Fraction(-4)
    assert a.conj() == a
    assert a.is_real() and a.is_rational()


def test_int_interop():
    a = Rational(Fraction(1, 2))
    assert (a + 1).as_fraction() == Fraction(3, 2)
    assert (1 + a).as_fraction() == Fraction(3, 2)
    assert (2 * a).as_fraction() == 1
    assert (a - 2).as_fraction() == Fraction(-3, 2)
    assert (1 / a).as_fraction() == 2
    assert a == Fraction(1, 2)
    assert a != 1


def test_ne_negates_eq_against_foreign_types():
    # `!=` is Python's default, the negation of `__eq__`, whose
    # NotImplemented for a str, a float or None falls back to identity
    z12 = root_of_unity(12, 1)
    values = [
        Rational(Fraction(1, 2)),
        z12,
        z12 + z12.conj() - z12 - z12.conj() + Fraction(1, 2),
        ParamRational.t_power(1),
        ParamRational([Fraction(1, 2)]),
    ]
    for x in values:
        for other in ("1/2", 0.5, None):
            for eq, ne in ((x == other, x != other), (other == x, other != x)):
                assert type(eq) is bool and type(ne) is bool
                assert eq is False and ne is True
        assert (x != x) is False
        for y in values:
            assert (x != y) is (not (x == y))


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
    # equality across backends still answers instead of raising
    assert t != z


def test_operators_mix_backends_as_bulk_field_does():
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
                    a + b
            else:
                assert stored_form(a + b) == stored_form(oracle_combine("+", a, b))
    assert t + one == t + 1
    assert isinstance(one + t, ParamRational)


def test_real_sign():
    assert real_sign(Rational(Fraction(-3, 7))) == -1
    assert real_sign(Rational(Fraction(0))) == 0
    z6 = root_of_unity(6, 1)
    # z6 + conj(z6) = 1
    assert real_sign(z6 + z6.conj()) == 1
    with pytest.raises(ValueError):
        real_sign(root_of_unity(4, 1))  # not a real value


def test_ceil_exact():
    assert ceil_exact(Rational(Fraction(7, 2))) == 4
    assert ceil_exact(Rational(Fraction(-7, 2))) == -3
    assert ceil_exact(Rational(Fraction(3))) == 3
    # 2*cos(pi/6) = sqrt(3): ceil must climb past 1.732...
    z12 = root_of_unity(12, 1)
    sqrt3 = z12 + z12.conj()
    assert ceil_exact(sqrt3) == 2


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
    # a real value is its own real part, over a zero of its own backend
    t = ParamRational.t_power(1)
    for x, zero in ((Fraction(3, 5), Rational(0)), (t + t.inv(), ParamRational.from_rational(0))):
        re, im = real_imag_parts(x)
        assert re == x and stored_form(im) == stored_form(zero)


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
            assert stored_form(im) == stored_form(want)
            assert stored_form(re) == stored_form(oracle_combine("/", xe + xe.conj(), 2))
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


# -- rational operands -----------------------------------------------------------

OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "==": operator.eq,
}


def rational_operands(rng, sample=False):
    """0, a negative integer and a random rational, each as an int (when
    integral), a Fraction and a Rational; or a sample of them, one of each
    type."""
    values = (Fraction(0), Fraction(-rng.randint(1, 9)), random_fraction(rng, 10**6, 10**4))
    if sample:
        return [int(rng.choice(values[:2])), rng.choice(values), Rational(rng.choice(values))]
    out = []
    for q in values:
        if q.denominator == 1:
            out.append(int(q))
        out += [q, Rational(q)]
    return out


def assert_matches_oracle(x, y):
    """Every operator on (x, y) and on (y, x) stores what `oracle_combine`
    stores, or raises the same error."""
    for a, b in ((x, y), (y, x)):
        for op, fn in OPS.items():
            try:
                want = oracle_combine(op, a, b)
            except (NonInvertibleError, BackendMismatchError) as err:
                with pytest.raises(type(err)):
                    fn(a, b)
                continue
            assert stored_form(fn(a, b)) == stored_form(want), (op, a, b)
            if op == "==":
                assert (a != b) is not want


def random_param(rng):
    while True:
        den = [random_fraction(rng) for _ in range(rng.randint(1, 4))]
        if any(den):
            num = [random_fraction(rng) for _ in range(rng.randint(1, 4))]
            return ParamRational(num, den)


def test_rational_operands_match_the_oracle_cyclotomic(monkeypatch):
    # the operators and the oracle divide by a value through the same
    # inverse, computed once
    inverses = {}
    inv = CyclotomicElement.inv

    def held_inv(x):
        key = stored_form(x)
        if key not in inverses:
            inverses[key] = inv(x)
        return inverses[key]

    monkeypatch.setattr(CyclotomicElement, "inv", held_inv)
    rng = random.Random(24)
    for order in range(1, 121):
        values = [
            random_cyclo(rng, order),
            CyclotomicElement.from_rational(random_fraction(rng), order),
            CyclotomicElement(order, []),
        ]
        if order == 1:
            values.append(random_rational(rng))
        for x in values:
            for q in rational_operands(rng, sample=order > 12):
                assert_matches_oracle(x, q)


def test_rational_operands_match_the_oracle_param():
    rng = random.Random(25)
    t = ParamRational.t_power(1)
    values = [random_param(rng) for _ in range(40)]
    values += [t, -t.inv(), ParamRational.from_rational(0), ParamRational.from_rational(Fraction(-3, 7))]
    for x in values:
        for q in rational_operands(rng):
            assert_matches_oracle(x, q)
    # a rational-valued cyclotomic value combines with t, a non-rational one
    # raises
    for y in (CyclotomicElement.from_rational(Fraction(5, 3), 12), root_of_unity(12, 1)):
        for x in (t, values[0], ParamRational.from_rational(2)):
            assert_matches_oracle(x, y)


def test_rational_operands_build_no_field_elements(monkeypatch):
    """x * 1/2, x + 1, 1 - x, x / 3 and x == 1 scale or shift x: no vector
    product, no rational promoted to a field element, no inverse, and for a
    parametric x no polynomial gcd."""
    rng = random.Random(26)
    values = [random_cyclo(rng, 120), random_cyclo(rng, 7), random_param(rng)]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cyclotomic, "_vec_mul", counted("_vec_mul", cyclotomic._vec_mul))
    monkeypatch.setattr(_polys, "zgcd", counted("zgcd", _polys.zgcd))
    for cls in (CyclotomicElement, ParamRational):
        build = counted("from_rational", cls.from_rational.__func__)
        monkeypatch.setattr(cls, "from_rational", classmethod(build))
        monkeypatch.setattr(cls, "inv", counted("inv", cls.inv))
    got = [(x * Fraction(1, 2), x + 1, 1 - x, x / 3, x == 1) for x in values]
    assert not calls
    monkeypatch.undo()
    for x, results in zip(values, got):
        cases = [("*", x, Fraction(1, 2)), ("+", x, 1), ("-", 1, x), ("/", x, 3), ("==", x, 1)]
        for (op, a, b), result in zip(cases, results):
            assert stored_form(result) == stored_form(oracle_combine(op, a, b))


def test_pow_matches_repeated_products():
    rng = random.Random(27)
    for order in (1, 5, 12, 60):
        x = random_cyclo(rng, order)
        want = CyclotomicElement.from_rational(1, order)
        for n in range(10):
            assert stored_form(x**n) == stored_form(want)
            want = want * x
    x = random_param(rng)
    want = ParamRational.from_rational(1)
    for n in range(4):
        assert stored_form(x**n) == stored_form(want)
        want = want * x


def test_is_real_matches_the_conjugate():
    rng = random.Random(28)
    for order in range(1, 61):
        x = random_cyclo(rng, order)
        for v in (x, x + x.conj(), x * x.conj(), x - x.conj()):
            assert v.is_real() == (v == v.conj())


def test_mixing_rule_matches_the_oracle_table():
    # every pair of an int, a Fraction, a Rational, rational and non-rational
    # cyclotomic values and rational and non-rational parametric values, on
    # both sides of + - * / == !=: the same stored form and type as the
    # oracle, and BackendMismatchError exactly where it raises
    t = ParamRational.t_power(1)
    operands = [3, Fraction(-2, 5), Rational(Fraction(7, 3)), CyclotomicElement.from_rational(Fraction(5, 3))]
    for order in (12, 120):
        operands += [
            CyclotomicElement.from_rational(Fraction(-4, 9), order),
            root_of_unity(order, 1) + Fraction(1, 2),
        ]
    operands += [ParamRational.from_rational(Fraction(3, 4)), (t + 2) / (t - 3)]
    mismatches = 0
    for i, x in enumerate(operands):
        for y in operands[i:]:
            if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
                continue
            assert_matches_oracle(x, y)
            try:
                oracle_combine("+", x, y)
            except BackendMismatchError:
                mismatches += 1
    # the two non-rational cyclotomic values against the two parametric ones
    assert mismatches == 4
