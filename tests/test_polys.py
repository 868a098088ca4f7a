"""Dense rational polynomial helpers."""

import random
from fractions import Fraction

from origami_rings._polys import degree, divmod_, primitive, trim, zadd, zdiv, zgcd, zlcm, zmul, ztrim

from helpers import ONE, ZERO, add, const, gcd, lcm, monic, mul, scale, shift, sub, xgcd


def rand_poly(rng, max_deg=5):
    d = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d + 1)]
    return trim(tuple(coeffs))


def test_trim_and_degree():
    assert trim((Fraction(0), Fraction(0))) == ()
    assert degree(ZERO) == -1
    assert degree(ONE) == 0
    assert degree((Fraction(1), Fraction(0), Fraction(2))) == 2
    assert const(Fraction(0)) == ZERO


def test_shift_is_multiplication_by_x():
    p = (Fraction(3), Fraction(1))
    assert shift(p, 2) == (Fraction(0), Fraction(0), Fraction(3), Fraction(1))
    assert shift(ZERO, 4) == ZERO


def test_divmod_identity_random():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b == ZERO:
            continue
        q, r = divmod_(a, b)
        assert add(mul(q, b), r) == a
        assert degree(r) < degree(b)


def test_xgcd_bezout_random():
    rng = random.Random(102)
    for _ in range(150):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if a == ZERO and b == ZERO:
            continue
        g, s, t = xgcd(a, b)
        assert add(mul(s, a), mul(t, b)) == g
        # g divides both inputs
        if a != ZERO:
            assert divmod_(a, g)[1] == ZERO
        if b != ZERO:
            assert divmod_(b, g)[1] == ZERO
        # and is monic
        assert g[-1] == 1


def test_gcd_of_common_multiple():
    rng = random.Random(103)
    for _ in range(100):
        a = rand_poly(rng, 3)
        b = rand_poly(rng, 3)
        c = rand_poly(rng, 2)
        if a == ZERO or b == ZERO or c == ZERO:
            continue
        g = gcd(mul(a, c), mul(b, c))
        # gcd must be divisible by c (up to the monic normalization)
        assert divmod_(g, monic(c))[1] == ZERO


def test_lcm_divisibility():
    a = (Fraction(-1), Fraction(1))  # x - 1
    b = (Fraction(1), Fraction(1))  # x + 1
    m = lcm(a, b)
    assert degree(m) == 2
    assert divmod_(m, a)[1] == ZERO
    assert divmod_(m, b)[1] == ZERO


def test_scale_and_sub():
    p = (Fraction(1), Fraction(2))
    assert scale(p, Fraction(3)) == (Fraction(3), Fraction(6))
    assert scale(p, Fraction(0)) == ZERO
    assert sub(p, p) == ZERO


def rand_zpoly(rng, max_deg=4, bound=6):
    return ztrim(rng.randint(-bound, bound) for _ in range(rng.randint(1, max_deg + 1)))


def test_integer_gcd_matches_rational_gcd():
    rng = random.Random(104)
    for _ in range(200):
        a, b, c = rand_zpoly(rng, 3), rand_zpoly(rng, 3), rand_zpoly(rng, 2)
        if not (a and b and c):
            continue
        pa, pb = zmul(a, c), zmul(b, c)
        g = zgcd(pa, pb)
        assert g[-1] > 0 and primitive(g) == g
        assert monic(trim(g)) == gcd(trim(pa), trim(pb))
        for p in (pa, pb):
            q = zdiv(p, g)
            assert q is not None and zmul(q, g) == p


def test_integer_exact_division_and_lcm():
    t_minus_1, t_plus_1 = (-1, 1), (1, 1)
    assert zdiv((-1, 0, 1), t_minus_1) == t_plus_1
    assert zdiv((1, 0, 1), t_plus_1) is None  # remainder 2
    assert zdiv((1, 1), (2, 2)) is None  # quotient 1/2 is not integral
    assert zdiv((), t_plus_1) == ()
    assert zlcm(t_minus_1, t_plus_1) == (-1, 0, 1)
    assert zlcm((1,), (3, 2)) == (3, 2)
    assert zadd((1, 2, 3), (0, 0, -3)) == (1, 2)
