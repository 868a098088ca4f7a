"""Rational functions of a unit-circle parameter t."""

import math
import random
from fractions import Fraction

import pytest

from origami_rings import NonInvertibleError, ParamRational, Rational, ratfunc, scalar_from_obj

from helpers import (
    mul,
    oracle_param_add,
    oracle_param_conj,
    oracle_param_inv,
    oracle_param_key,
    oracle_param_mul,
    oracle_param_neg,
    oracle_param_normalize,
    oracle_param_obj,
    oracle_param_to_interval,
    shift,
    trim,
)


def f(*vals):
    return tuple(Fraction(v) for v in vals)


def rand_param(rng, max_deg=4):
    num = f(*[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))])
    while True:
        den = f(*[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, max_deg + 1))])
        if any(den):
            break
    return ParamRational(num, den)


def test_normalization_invariants():
    rng = random.Random(41)
    for _ in range(150):
        x = rand_param(rng)
        # monic denominator
        assert x.den[-1] == 1
        # numerator and denominator share no factor: multiplying by (t-1)/(t-1)
        # must normalize back to the same representation
        lin = f(-1, 1)
        y = ParamRational(mul(x.num, lin), mul(x.den, lin))
        assert y.num == x.num and y.den == x.den


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ParamRational(f(1), f(0))


def test_basic_arithmetic():
    t = ParamRational.t_power(1)
    t2 = ParamRational.t_power(2)
    assert t * t == t2
    one = ParamRational.from_rational(Fraction(1))
    assert t * t.inv() == one
    assert (t + 1) * (t - 1) == t2 - 1
    # t/(t-1) + (-1)/(t-1) = 1
    a = t / (t - 1)
    b = ParamRational.from_rational(Fraction(-1)) / (t - 1)
    assert a + b == one


def test_field_axioms_random():
    rng = random.Random(42)
    for _ in range(80):
        a, b, c = rand_param(rng, 3), rand_param(rng, 3), rand_param(rng, 3)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not a.is_zero():
            assert (b / a) * a == b
    with pytest.raises(NonInvertibleError):
        ParamRational.from_rational(Fraction(0)).inv()


def test_conj_is_inverse_substitution():
    t = ParamRational.t_power(1)
    # conj(t) = 1/t because |t| = 1 on the unit circle
    assert t.conj() == t.inv()
    # conj(1 + t^2) = 1 + t^{-2} = (t^2 + 1)/t^2
    z2 = 1 + t * t
    expected = (t * t + 1) / (t * t)
    assert z2.conj() == expected
    # t * conj(t) = 1
    assert (t * t.conj()).as_fraction() == 1


def test_conj_involution_and_homomorphism():
    rng = random.Random(43)
    for _ in range(80):
        a, b = rand_param(rng, 3), rand_param(rng, 3)
        assert a.conj().conj() == a
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()


def test_is_real_means_conj_invariant():
    t = ParamRational.t_power(1)
    sym = t + t.inv()  # 2*cos of the parameter angle
    assert sym.is_real()
    assert not t.is_real()
    assert ParamRational.from_rational(Fraction(3, 4)).is_real()


def test_as_fraction_only_for_constants():
    c = ParamRational.from_rational(Fraction(5, 9))
    assert c.is_rational() and c.as_fraction() == Fraction(5, 9)
    with pytest.raises(ValueError):
        ParamRational.t_power(1).as_fraction()


def test_interval_specialization():
    # t^2 at t = e^{i*1}: encloses (cos 2, sin 2)
    import mpmath

    from origami_rings.intervals import mpf_to_fraction

    t2 = ParamRational.t_power(2)
    iv = t2.to_interval(64, t_arg=1)
    with mpmath.workprec(200):
        cos2 = mpf_to_fraction(mpmath.cos(mpmath.mpf(2)))
        sin2 = mpf_to_fraction(mpmath.sin(mpmath.mpf(2)))
    rl, rh = iv.real_bounds()
    il, ih = iv.imag_bounds()
    assert rl <= cos2 <= rh
    assert il <= sin2 <= ih
    assert math.isclose(iv.midpoint().real, math.cos(2.0), abs_tol=1e-12)
    assert math.isclose(iv.midpoint().imag, math.sin(2.0), abs_tol=1e-12)


def test_interval_specialization_pi_string():
    # (1 + t^2) at t = e^{i pi/4}: value = 1 + i
    z2 = 1 + ParamRational.t_power(2)
    iv = z2.to_interval(64, t_arg="pi*1/4")
    rl, rh = iv.real_bounds()
    il, ih = iv.imag_bounds()
    assert rl <= 1 <= rh and il <= 1 <= ih


def test_interval_requires_specialization():
    with pytest.raises(ValueError):
        ParamRational.t_power(1).to_interval(64)
    with pytest.raises(ValueError):
        ParamRational.t_power(1).to_interval(64, t_arg="sideways")


def test_canonical_key_and_demotion():
    t = ParamRational.t_power(1)
    r = (t + 1) - t  # constant 1 in parametric clothing
    assert r.is_rational()
    assert r.canonical_key() == Rational(Fraction(1)).canonical_key()
    assert r == Rational(Fraction(1))
    obj = r.to_obj()
    assert obj["backend"] == "rational"
    full = (1 + t * t).to_obj()
    assert full["backend"] == "param"
    assert scalar_from_obj(full) == 1 + t * t


# (num, den) pairs with the shapes canonical forms must absorb: a shared
# factor, integer content, a negative leading denominator coefficient, zero,
# and powers of t in the denominator
SPECIAL_PAIRS = [
    (f(-1, 0, 1), f(-1, 1)),  # (t^2 - 1)/(t - 1)
    (f(0, 2), f(4)),  # 2t/4
    (f(1, 3), f(2, -5)),
    (f(), f(3, 1)),
    (f(1, 1), f(0, 0, 1)),  # (1 + t)/t^2
    (f(0, 0, 3), f(0, 6)),  # 3t^2/(6t)
    (f(Fraction(1, 2), Fraction(-2, 3)), f(Fraction(3, 4), 0, Fraction(-1, 5))),
    (f(7), f(-14)),
]


def random_pair(rng):
    def poly():
        return trim(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 4)))

    num, den = poly(), poly()
    while not den:
        den = poly()
    shared = rng.choice([f(1), f(-1, 1), f(1, 0, 1), f(Fraction(2, 3), 3)])
    return mul(num, shared), shift(mul(den, shared), rng.randint(0, 2))


def assert_matches(x, pair):
    num, den = pair
    assert x.num == num and x.den == den
    assert all(type(c) is Fraction for c in x.num + x.den)
    assert x.canonical_key() == oracle_param_key(pair)
    assert x.to_obj() == oracle_param_obj(pair)
    y = ParamRational(num, den)
    assert x == y and hash(x) == hash(y)
    if x.is_rational():
        assert hash(x) == hash(x.as_fraction())


def test_arithmetic_matches_fraction_oracle():
    rng = random.Random(44)
    values = []
    for pair in SPECIAL_PAIRS + [random_pair(rng) for _ in range(40)]:
        x, px = ParamRational(*pair), oracle_param_normalize(*pair)
        assert_matches(x, px)
        values.append((x, px))
    operands = [(a, b) for a in values[: len(SPECIAL_PAIRS)] for b in values[: len(SPECIAL_PAIRS)]]
    operands += [(rng.choice(values), rng.choice(values)) for _ in range(250)]
    for (a, pa), (b, pb) in operands:
        assert_matches(a + b, oracle_param_add(pa, pb))
        assert_matches(a - b, oracle_param_add(pa, oracle_param_neg(pb)))
        assert_matches(a * b, oracle_param_mul(pa, pb))
        assert_matches(-a, oracle_param_neg(pa))
        assert_matches(a.conj(), oracle_param_conj(pa))
        assert a.is_real() == (oracle_param_conj(pa) == pa)
        if not b.is_zero():
            assert_matches(b.inv(), oracle_param_inv(pb))
            assert_matches(a / b, oracle_param_mul(pa, oracle_param_inv(pb)))


@pytest.mark.parametrize("bits", [53, 200])
@pytest.mark.parametrize("t_arg", ["pi*1/7", 0.3, Fraction(2, 5), 0.5, Fraction(1, 2)])
def test_cached_interval_matches_fresh_enclosure(bits, t_arg):
    rng = random.Random(45)
    for pair in SPECIAL_PAIRS + [random_pair(rng) for _ in range(12)]:
        x = ParamRational(*pair)
        fresh = oracle_param_to_interval((x.num, x.den), bits, t_arg).endpoint_strings()
        # the second call reads the cached enclosure of t
        assert x.to_interval(bits, t_arg).endpoint_strings() == fresh
        assert x.to_interval(bits, t_arg).endpoint_strings() == fresh


def test_canonical_key_is_built_once(monkeypatch):
    calls = []
    ratio_str = ratfunc._ratio_str
    monkeypatch.setattr(ratfunc, "_ratio_str", lambda c, lead: calls.append(c) or ratio_str(c, lead))
    x = ParamRational([1, Fraction(-2, 3)], [5, 0, 2])
    key = x.canonical_key()
    assert key == oracle_param_key((x.num, x.den)) and len(calls) == 5
    assert x.canonical_key() is key and len(calls) == 5
    # a value built by arithmetic has its own key
    y = x + 1
    assert y.canonical_key() == oracle_param_key((y.num, y.den)) != key


def test_hash_follows_equality(monkeypatch):
    t = ParamRational.t_power(1)
    one = ParamRational.from_rational(1)
    pairs = [
        ((t * t - one) / (t - one), t + one),  # reduced by the polynomial gcd
        (ParamRational([Fraction(1, 2), Fraction(1, 2)]), (t + one) / 2),  # content
        (ParamRational([0, -3], [0, 0, -6]), t.inv() / 2),  # sign and power of t
        (t.conj().conj(), t),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    # rational values hash like their Fraction, whatever path built them
    for x, v in [(t / t, 1), (ParamRational([3], [6]), Fraction(1, 2)), (t - t, 0)]:
        assert x == v and hash(x) == hash(Fraction(v))
    # a non-rational hash comes from the canonical pair, not the key string
    monkeypatch.setattr(ParamRational, "canonical_key", None)
    assert hash(t + one) == hash(one + t)
