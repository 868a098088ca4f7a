"""Cyclotomic field arithmetic: reduction, conjugation, embeddings, intervals."""

import math
import random
from fractions import Fraction

import pytest

from origami_rings import (
    BackendMismatchError,
    CyclotomicElement,
    NonInvertibleError,
    ParamRational,
    Rational,
    euler_phi,
    root_of_unity,
    scalar_from_obj,
)
from origami_rings.cyclotomic import (
    AmbientField,
    _subfield_coords,
    _vec_map,
    cyclotomic_polynomial,
)
from helpers import (
    mul,
    oracle_cyclotomic_division,
    oracle_cyclotomic_polynomial,
    oracle_inv,
    oracle_reduce,
    oracle_subfield_coords,
    random_cyclo,
    random_fraction,
    trim,
    xgcd,
)


def test_euler_phi_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4, 24: 8, 120: 32}
    for n, phi in known.items():
        assert euler_phi(n) == phi


def test_cyclotomic_polynomial_values():
    f = Fraction
    assert cyclotomic_polynomial(1) == (f(-1), f(1))
    assert cyclotomic_polynomial(2) == (f(1), f(1))
    assert cyclotomic_polynomial(3) == (f(1), f(1), f(1))
    assert cyclotomic_polynomial(4) == (f(1), f(0), f(1))
    assert cyclotomic_polynomial(6) == (f(1), f(-1), f(1))
    assert cyclotomic_polynomial(12) == (f(1), f(0), f(-1), f(0), f(1))
    for n in (5, 8, 15, 24, 60, 120):
        assert cyclotomic_polynomial(n) == oracle_cyclotomic_polynomial(n)
        assert all(type(c) is int for c in cyclotomic_polynomial(n))


def test_cyclotomic_polynomial_matches_division_oracle():
    # through the radical for every order up to 300, and at 1,980 = 2^2 3^2 5 11
    for n in [*range(1, 301), 1980]:
        assert cyclotomic_polynomial(n) == oracle_cyclotomic_division(n)


def test_root_relations():
    z3 = root_of_unity(3, 1)
    # 1 + z3 + z3^2 = 0
    assert (1 + z3 + z3 * z3).is_zero()
    z6 = root_of_unity(6, 1)
    # z6 + conj(z6) = 2cos(pi/3) = 1
    s = z6 + z6.conj()
    assert s.is_rational() and s.as_fraction() == 1
    z4 = root_of_unity(4, 1)
    assert z4.conj() == -z4
    assert (z4 * z4).as_fraction() == -1


def test_inverse_is_conjugate_power():
    z5 = root_of_unity(5, 1)
    assert z5.inv() == root_of_unity(5, 4)
    assert (z5 * z5.inv()).as_fraction() == 1
    with pytest.raises(NonInvertibleError):
        (z5 - z5).inv()


@pytest.mark.parametrize("order", [3, 5, 7, 8, 9, 11, 12, 15, 20, 21, 24, 40, 60, 120])
def test_inv_matches_conjugate_product_oracle(order):
    # odd cyclic factors (7, 9, 11, 21) give norm-tower steps of index 3 and 5
    rng = random.Random(order)
    checked = 0
    while checked < 4:
        x = random_cyclo(rng, order) * rng.choice([1, 2, -3, Fraction(5, 7)])
        if x.is_rational():
            continue
        got, want = x.inv(), oracle_inv(x)
        assert (got.order, got._num, got._den) == (want.order, want._num, want._den)
        checked += 1


def _folded(order, exponent_coeffs):
    """Full reduction of sum(c * x^e) from an exponent list below order."""
    out = [Fraction(0)] * order
    for e, c in exponent_coeffs:
        out[e] += c
    return oracle_reduce(order, out)


def test_reduced_paths_match_full_reduction():
    # orders with n < 2*phi(n) (1, 3, 5, 15) use the product bound of the
    # power table, the others its exponent-map bound
    rng = random.Random(38)
    for order in (1, 3, 4, 5, 8, 12, 15, 24, 120):
        phi = euler_phi(order)
        units = [k for k in range(1, order + 1) if math.gcd(k, order) == 1]
        for trial in range(12 if phi <= 8 else 3):
            a = random_cyclo(rng, order)
            b = random_cyclo(rng, order) if trial else CyclotomicElement(order, [Fraction(2, 3)])
            product = mul(trim(a.coeffs), trim(b.coeffs))
            assert (a * b).coeffs == oracle_reduce(order, product)
            assert (a + b).coeffs == oracle_reduce(
                order, [x + y for x, y in zip(a.coeffs, b.coeffs)]
            )
            assert (-a).coeffs == oracle_reduce(order, [-x for x in a.coeffs])
            k = rng.choice(units)
            assert a.galois(k).coeffs == _folded(
                order, [(j * k % order, c) for j, c in enumerate(a.coeffs)]
            )
            if order > 2:
                assert a.conj().coeffs == _folded(
                    order, [(j * (order - 1) % order, c) for j, c in enumerate(a.coeffs)]
                )
            for m in (2 * order, 3 * order):
                assert a.embed(m).coeffs == _folded(
                    m, [(j * (m // order), c) for j, c in enumerate(a.coeffs)]
                )
            j = rng.randrange(order)
            assert root_of_unity(order, j).coeffs == _folded(order, [(j, Fraction(1))])
            if not b.is_zero():
                _, s, _ = xgcd(trim(b.coeffs), oracle_cyclotomic_polynomial(order))
                assert b.inv().coeffs == oracle_reduce(order, s)


def test_constructor_matches_oracle_reduction():
    # arbitrary polynomials up to length 3n, so exponents wrap past n twice
    rng = random.Random(39)
    for order in (1, 3, 4, 5, 8, 12, 15, 24, 120):
        for _ in range(8 if order <= 24 else 3):
            coeffs = [
                random_fraction(rng) if rng.random() < 0.6 else 0
                for _ in range(rng.randint(0, 3 * order))
            ]
            x = CyclotomicElement(order, coeffs)
            assert x.coeffs == oracle_reduce(order, coeffs)
            # stored in lowest terms, like every value built by arithmetic
            y = x * 1
            assert (x._num, x._den) == (y._num, y._den)
            assert x._den > 0 and math.gcd(x._den, *x._num) == 1


def test_field_axioms_random():
    rng = random.Random(31)
    for order in (8, 12):
        for _ in range(120):
            a = random_cyclo(rng, order)
            b = random_cyclo(rng, order)
            c = random_cyclo(rng, order)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - b) + b == a
            if not a.is_zero():
                assert (b / a) * a == b


def test_conjugation_is_ring_homomorphism():
    rng = random.Random(32)
    for _ in range(100):
        a = random_cyclo(rng, 12)
        b = random_cyclo(rng, 12)
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        norm = a * a.conj()
        assert norm.is_real()


def test_galois_multiplicative():
    rng = random.Random(33)
    for _ in range(60):
        a = random_cyclo(rng, 12)
        b = random_cyclo(rng, 12)
        for k in (1, 5, 7, 11):
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    with pytest.raises(ValueError):
        random_cyclo(rng, 12).galois(2)  # gcd(2, 12) != 1


def test_embedding_homomorphism_and_merge():
    rng = random.Random(34)
    for _ in range(60):
        a = random_cyclo(rng, 6)
        b = random_cyclo(rng, 8)
        # arithmetic across orders lands in the compositum (order 24)
        s = a + b
        p = a * b
        assert s.order == 24
        assert s - b == a.embed(24)
        assert p == a.embed(24) * b.embed(24)


def test_embed_preserves_value_keys():
    rng = random.Random(35)
    for _ in range(60):
        order = rng.choice([3, 4, 6, 8, 12])
        a = random_cyclo(rng, order)
        lifted = a.embed(order * rng.choice([2, 3]))
        assert lifted == a
        assert lifted.canonical_key() == a.canonical_key()


def test_minimal_form_descends():
    # z12^3 = i lives in the order-4 subfield
    z = root_of_unity(12, 3)
    order, coeffs = z.minimal_form()
    assert order == 4
    assert CyclotomicElement(order, coeffs) == root_of_unity(4, 1)
    # a rational disguised at order 12
    r = root_of_unity(12, 0) * Fraction(5, 7)
    order, coeffs = r.minimal_form()
    assert order == 1
    assert r.is_rational() and r.as_fraction() == Fraction(5, 7)


def _subfield_pairs():
    pairs = [(n, m) for n in range(1, 61) for m in range(1, n + 1) if n % m == 0]
    return pairs + [(n, m) for n in (120, 240) for m in range(1, n + 1) if n % m == 0]


def test_descent_matches_gauss_jordan_oracle():
    # every m | n <= 60 and every divisor m of 120 and 240, on a vector
    # inside Q(zeta_m) and on a random one (outside unless the fields agree)
    rng = random.Random(38)
    for n, m in _subfield_pairs():
        inside = [rng.randint(-9, 9) for _ in range(euler_phi(m))]
        embedded = _vec_map(inside, n, n // m)
        outside = [rng.randint(-9, 9) for _ in range(euler_phi(n))]
        for x in (embedded, outside):
            got = _subfield_coords(n, m, x)
            want = oracle_subfield_coords(n, m, x)
            assert (got is None) == (want is None), (n, m, x)
            if got is not None:
                assert got == want, (n, m, x)
        assert _subfield_coords(n, m, embedded) == inside


@pytest.mark.parametrize("order, ambient", [(7, 120), (9, 12), (40, 24)])
def test_ambient_vector_descends_to_the_gcd(order, ambient):
    # a value of order b meets Q(zeta_n) in Q(zeta_gcd(n, b)); compare with
    # the lift to the lcm field and the descent from there to Q(zeta_n)
    rng = random.Random(order * ambient)
    field = AmbientField(ambient)
    g, lcm = math.gcd(order, ambient), math.lcm(order, ambient)
    lifted = AmbientField(lcm)
    for trial in range(8):
        x = random_cyclo(rng, g if trial % 2 else order).embed(order)
        try:
            want = lifted.element(*lifted.vector(x.embed(lcm)), ambient)
        except ValueError:
            want = None
        got = field.vector(x)
        if want is None:
            assert got is None
        else:
            assert CyclotomicElement._make(ambient, *got) == want == x
    with pytest.raises(BackendMismatchError):
        field.vector(ParamRational.t_power(1))


def test_order_12_value_at_order_1980():
    x = CyclotomicElement(12, [Fraction(1, 3), 2, 0, -5])
    field = AmbientField(1980)
    num, den = field.vector(x)
    y = CyclotomicElement._make(1980, num, den)
    assert y.minimal_form() == x.minimal_form()
    assert y.minimal_form()[0] == 12
    back = field.element(num, den, 12)
    assert back.order == 12 and back == x


def test_canonical_key_identities():
    z3 = root_of_unity(3, 1)
    zero = 1 + z3 + z3 * z3
    assert zero.canonical_key() == Rational(Fraction(0)).canonical_key()
    z4 = root_of_unity(4, 1)
    assert z4.canonical_key() != (-z4).canonical_key()
    # same value reached through different orders
    assert root_of_unity(12, 3).canonical_key() == root_of_unity(4, 1).canonical_key()
    assert root_of_unity(12, 4).canonical_key() == root_of_unity(3, 1).canonical_key()


def test_canonical_sign_is_order_independent():
    rng = random.Random(36)
    for _ in range(40):
        a = random_cyclo(rng, 8)
        if a.is_zero():
            continue
        assert a.canonical_sign() == a.embed(24).canonical_sign()
        assert a.canonical_sign() == -((-a).canonical_sign())


def test_is_real_and_integer_predicates():
    z12 = root_of_unity(12, 1)
    sqrt3 = z12 + z12.conj()
    assert sqrt3.is_real()
    assert not sqrt3.is_rational()
    three = sqrt3 * sqrt3
    assert three.is_rational() and three.as_fraction() == 3
    assert not z12.is_real()


def test_interval_enclosure_golden():
    # 2 * e^{i pi/3} = 1 + i*sqrt(3)
    z = root_of_unity(6, 1) * 2
    iv = z.to_interval(64)
    rl, rh = iv.real_bounds()
    il, ih = iv.imag_bounds()
    assert rl <= 1 <= rh
    assert il <= Fraction(17320508075688772935, 10**19) <= ih
    assert rh - rl < Fraction(1, 2**40)


def test_interval_nesting_precisions():
    rng = random.Random(37)
    for _ in range(1000):
        order = rng.choice([3, 4, 5, 6, 8, 12])
        a = random_cyclo(rng, order)
        coarse = a.to_interval(128)
        fine = a.to_interval(256)
        assert coarse.encloses(fine)


def test_to_obj_round_trip_and_rational_demotion():
    z = root_of_unity(12, 5) + Fraction(1, 3)
    obj = z.to_obj()
    assert obj["backend"] == "cyclotomic"
    assert scalar_from_obj(obj) == z
    # rational-valued elements serialize as plain rationals
    r = root_of_unity(6, 3)  # equals -1
    obj = r.to_obj()
    assert obj["backend"] == "rational"
    assert scalar_from_obj(obj) == Rational(Fraction(-1))


def test_rejects_param_argument():
    with pytest.raises(TypeError):
        root_of_unity(4, 1).to_interval(64, t_arg=1)
