"""The libmp interval kernels reproduce the ivmpf operators bit for bit.

Every enclosure is compared with the oracle in `helpers` through its raw
endpoint tuples, so a change of rounding, precision, operation order or
coefficient reduction shows as a failure even where the enclosure stays
valid.
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    OracleInterval,
    oracle_cyclotomic_interval,
    oracle_param_to_interval,
    random_cyclo,
)
from origami_rings import CyclotomicElement, ParamRational, PrecisionError, euler_phi
from origami_rings.intervals import MIN_PRECISION, ComplexInterval, ratio_to_mpi

BITS = [MIN_PRECISION, 64, 113, 200]
ORDERS = [1, 3, 4, 5, 8, 12, 15, 24, 120]
T_ARGS = ["pi*1/7", 0.3, Fraction(2, 5)]


def mpi(iv):
    return iv._re, iv._im


def wide_cyclo(rng, order):
    """Coordinates over one common denominator wider than every bit count
    tested, sharing factors with it (10**30/3 next to -7/(10**25 + 1))."""
    coeffs = [Fraction(0)] * euler_phi(order)
    coeffs[0] = Fraction(10**30, 3)
    coeffs[-1] += Fraction(-7, 10**25 + 1)
    coeffs[rng.randrange(len(coeffs))] += Fraction(rng.randint(1, 10**12), 21)
    return CyclotomicElement(order, coeffs)


def cyclo_values(order):
    rng = random.Random(7000 + order)
    values = [random_cyclo(rng, order) for _ in range(4)]
    # products carry larger numerators over larger common denominators
    values.append(values[0] * values[1] * values[2])
    values.append(wide_cyclo(rng, order))
    return values


@pytest.mark.parametrize("order", ORDERS)
def test_cyclotomic_endpoints_match_oracle(order):
    for x in cyclo_values(order):
        for bits in BITS:
            iv = x.to_interval(bits)
            oracle = oracle_cyclotomic_interval(x, bits)
            assert mpi(iv) == oracle.mpi(), (x, bits)
            assert iv.endpoint_strings() == oracle.endpoint_strings()


def param_values():
    rng = random.Random(7101)
    values = [
        ParamRational([Fraction(10**30, 3), 1], [1, Fraction(7, 10**20)]),
        ParamRational([0, 0, Fraction(-5, 6)], [Fraction(9, 4), 0, 3]),
        ParamRational([Fraction(1, 3)]),
        ParamRational([]),
    ]
    for _ in range(8):
        num = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
        den = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        if any(den):
            values.append(ParamRational(num, den))
    return values


@pytest.mark.parametrize("t_arg", T_ARGS, ids=str)
def test_param_endpoints_match_oracle(t_arg):
    for x in param_values():
        for bits in BITS:
            try:
                oracle = oracle_param_to_interval((x.num, x.den), bits, t_arg)
            except PrecisionError:
                # the denominator's enclosure reaches zero at this precision
                with pytest.raises(PrecisionError):
                    x.to_interval(bits, t_arg)
                continue
            iv = x.to_interval(bits, t_arg)
            assert mpi(iv) == oracle.mpi(), (x, bits, t_arg)


# The Horner scheme starts at the leading coefficient and adds no zero to
# the imaginary part; the oracle runs every step from a zero accumulator.
HORNER_T_ARGS = ["pi*1/7", "pi*3/5", "pi*1/2", 0.3, 1]


@pytest.mark.parametrize("t_arg", HORNER_T_ARGS, ids=str)
def test_horner_shortcut_matches_oracle(t_arg):
    rng = random.Random(f"horner {t_arg}")
    for _ in range(40):
        bits = rng.randint(MIN_PRECISION, 200)

        def poly(length):
            return [Fraction(rng.randint(-10**rng.randint(1, 40), 10**6), rng.randint(1, 10**4))
                    for _ in range(length)]

        x = ParamRational(poly(rng.randint(1, 9)), poly(rng.randint(1, 4)) + [1])
        try:
            oracle = oracle_param_to_interval((x.num, x.den), bits, t_arg)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                x.to_interval(bits, t_arg)
            continue
        assert mpi(x.to_interval(bits, t_arg)) == oracle.mpi(), (x, bits, t_arg)


def rectangles(rng, bits):
    """Point rectangles of random rationals, and wider ones the oracle
    builds from them, as (ComplexInterval, OracleInterval) pairs with the
    same endpoints."""
    oracles = []
    for _ in range(6):
        re = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        im = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ox = OracleInterval.from_rationals(re, im, bits)
        parts = (ratio_to_mpi(q.numerator, q.denominator, bits) for q in (re, im))
        assert tuple(parts) == ox.mpi()
        oracles.append(ox)
    oa, ob, oc = oracles[:3]
    oracles += [oa * ob + oc, oa - ob * oc]
    return [(ComplexInterval(*ox.mpi(), bits), ox) for ox in oracles]


@pytest.mark.parametrize("bits", BITS)
def test_division_matches_oracle(bits):
    rng = random.Random(7200 + bits)
    pairs = rectangles(rng, bits)
    for x, ox in pairs:
        for y, oy in pairs:
            assert x.encloses(y) == ox.encloses(oy)
            try:
                expected = (ox / oy).mpi()
            except PrecisionError:
                with pytest.raises(PrecisionError):
                    x / y
                continue
            assert mpi(x / y) == expected


def test_cross_precision_division_matches_oracle():
    rng = random.Random(7300)
    coarse = rectangles(rng, 64)
    fine = rectangles(rng, 200)
    for (x, ox), (y, oy) in zip(coarse, fine):
        assert mpi(x / y) == (ox / oy).mpi()
        assert mpi(y / x) == (oy / ox).mpi()
        assert x.encloses(y) == ox.encloses(oy)


def test_zero_straddling_division_raises_in_both():
    othird = OracleInterval.from_rationals(Fraction(1, 3), Fraction(0), 64)
    ostraddle = othird - othird
    third = ComplexInterval(*othird.mpi(), 64)
    straddle = ComplexInterval(*ostraddle.mpi(), 64)
    with pytest.raises(PrecisionError):
        othird / ostraddle
    with pytest.raises(PrecisionError):
        third / straddle
