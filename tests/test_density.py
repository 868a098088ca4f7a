"""Constructive density witnesses and the scaling projection search."""

import json
import logging
import random
from fractions import Fraction

import pytest

from origami_rings import (
    AngleSet,
    MembershipSolver,
    ParamRational,
    Rational,
    ScalingProjectionNotFoundError,
    UnitAngle,
    UnsupportedConfigurationError,
    approximate,
    find_scaling_projection,
    real_imag_parts,
    real_sign,
    root_of_unity,
)
from origami_rings import cli, construction, density
from origami_rings.analysis import ring_context
from origami_rings.construction import nontrivial_projections
from origami_rings.anglespec import parse_angle_list
from helpers import oracle_least_exponent, oracle_witness


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


def example_angles():
    return AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])


def fake_projections(*fracs):
    return tuple(Rational(Fraction(f)) for f in fracs)


def test_scaling_projection_first_tier():
    p = find_scaling_projection(nontrivial_projections(example_angles()))
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
    with pytest.raises(UnsupportedConfigurationError):
        find_scaling_projection((ParamRational.t_power(1),))


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


def tie_epsilons(ks=range(1, 7)):
    """epsilon = 2*(2/3)**k: the example set's p is 2/3, so half - p**k is
    exactly 0 and the strict inequality puts N1 at k + 1."""
    return [(k, 2 * Fraction(2, 3) ** k) for k in ks]


def test_exponents_are_minimal():
    cases = [(Fraction(1, 100), None)] + [(eps, k) for k, eps in tie_epsilons()]
    for eps, tie in cases:
        w = approximate(Fraction(3, 7), Fraction(-5, 9), eps, example_angles())
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
        if tie is not None:
            assert real_sign(half - p**tie) == 0
            assert w.n1 == tie + 1


# the five angle sets of the benchmark's density pool, orders 12 to 120
POOL = [
    "0,pi*1/6,pi*1/3,pi*1/2",
    "0,pi*1/4,pi*1/3,pi*1/2",
    "0,pi*1/12,pi*1/6,pi*1/4",
    "0,pi*1/10,pi*1/4,pi*1/2",
    "0,pi*1/5,pi*1/4,pi*1/3",
]


@pytest.mark.parametrize("spec", POOL)
def test_witness_matches_oracle(spec):
    """Same witness, byte for byte, as the exponent scans and enclosure
    ceilings build, over epsilon 1e-1 .. 1e-8, the example set's exact ties
    and seeded targets."""
    angles = parse_angle_list(spec)[0]
    rng = random.Random(spec)
    targets = [(Fraction(0), Fraction(1))]
    targets += [
        (Fraction(rng.randint(-2000, 2000), 1000), Fraction(rng.randint(-2000, 2000), 1000))
        for _ in range(2)
    ]
    epsilons = [Fraction(1, 10**k) for k in range(1, 9)]
    epsilons += [eps for _, eps in tie_epsilons()]
    for eps in epsilons:
        for tre, tim in targets:
            got = approximate(tre, tim, eps, angles).to_obj()
            assert got == oracle_witness(tre, tim, eps, angles).to_obj()


@pytest.mark.parametrize("spec", POOL)
def test_tiny_epsilon_witness_matches_oracle(spec):
    """The same at epsilon 1e-12, 1e-20 and 1e-30, where a and b have up to
    about 30 digits."""
    angles = parse_angle_list(spec)[0]
    tre, tim = Fraction(1, 3), Fraction(-7, 5)
    for k in (12, 20, 30):
        eps = Fraction(1, 10**k)
        got = approximate(tre, tim, eps, angles).to_obj()
        assert got == oracle_witness(tre, tim, eps, angles).to_obj()


def test_least_exponent_ties_and_fallback(monkeypatch):
    """Exact ties, and estimates that miss in either direction or cannot be
    formed: the gallop and bisection still find the least n, in O(log n)
    sign tests."""
    p = Rational(Fraction(2, 3))
    cases = []
    for k in (0, 1, 5, 40):
        cases.append((Rational(1), Fraction(2, 3) ** k))  # tie at n = k
        cases.append((Rational(Fraction(1, 2)), Fraction(2, 3) ** k / 2))
    _, im_z = real_imag_parts(root_of_unity(12, 1))
    cases.append((im_z, Fraction(1, 10**12)))
    for c, half in cases:
        want = oracle_least_exponent(p, c, half)
        n, power, _ = density._least_exponent(p, c, half)
        assert (n, power) == (want, p**want)
        for guess in (0, 1, want - 3, want + 1, want + 7, 4 * want + 9):
            monkeypatch.setattr(density, "_estimate", lambda *_: max(guess, 0))
            n, power, tests = density._least_exponent(p, c, half)
            assert (n, power) == (want, p**want)
            assert tests <= 2 * (abs(guess - want) + 1).bit_length() + 2
        monkeypatch.undo()
    # a bound of p that rounds to 1 gives no estimate; the search starts at 0
    near_one = Rational(1 - Fraction(1, 2**70))
    assert density._estimate(near_one, Rational(1), Fraction(1, 10)) == 0


def density_records(caplog, run):
    with caplog.at_level(logging.DEBUG, logger="origami_rings.density"):
        run()
    return [r.args for r in caplog.records if r.name == "origami_rings.density"]


def test_search_logs_few_sign_tests(caplog):
    angles = example_angles()
    rng = random.Random(93)
    targets = [
        (Fraction(rng.randint(-2000, 2000), 1000), Fraction(rng.randint(-2000, 2000), 1000))
        for _ in range(3)
    ]
    epsilons = [Fraction(1, 10**k) for k in range(1, 23)]
    epsilons += [eps for _, eps in tie_epsilons()]

    def run():
        for eps in epsilons:
            for tre, tim in targets:
                approximate(tre, tim, eps, angles)

    records = density_records(caplog, run)
    assert len(records) == len(epsilons) * len(targets)
    for rec in records:
        assert rec["order"] == 12  # p = 2/3, held in Q(zeta_12)
        assert 1 <= rec["n1_tests"] <= 3 and 1 <= rec["n2_tests"] <= 3
        assert rec["climbs"] <= 2
    assert max(rec["n1"] for rec in records) > 100


@pytest.mark.parametrize("spec", ["0,pi*1/4,pi*1/3,pi*1/2", "0,pi*1/12,pi*1/6,pi*1/4"])
def test_tiny_epsilon_ceilings_stay_short(caplog, spec):
    """At epsilon 1e-30 the coefficients a and b have about 30 digits; their
    ceilings come from an enclosure narrower than 1, not a climb by units."""
    eps = Fraction(1, 10**30)
    tre, tim = Fraction(1, 3), Fraction(-7, 5)
    box = []
    records = density_records(
        caplog, lambda: box.append(approximate(tre, tim, eps, parse_angle_list(spec)[0]))
    )
    (w,) = box
    re, im = real_imag_parts(w.value)
    assert real_sign(eps**2 - (re - tre) ** 2 - (im - tim) ** 2) > 0
    assert abs(w.a) > 10**20
    (rec,) = records
    assert rec["climbs"] <= 2 and rec["bits"] > 64
    assert rec["n1_tests"] <= 3 and rec["n2_tests"] <= 3


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


def test_request_path_builds_only_p_once_per_instance(monkeypatch, capsys, tmp_path):
    # approximate, ring_context and the check-ring, verify and density
    # commands read P alone: the full projection set and its x-family
    # check never run, and each angle set builds P once
    def refuse(*args):
        raise AssertionError("the full projection set was built")

    monkeypatch.setattr(construction, "projection_set", refuse)
    monkeypatch.setattr(construction, "_x_family", refuse)
    builds = []
    slides = construction._slides
    monkeypatch.setattr(construction, "_slides", lambda a: builds.append(a) or slides(a))
    # exit codes of check-ring, verify and density, and the P builds of
    # those three requests: verify of an unknown verdict needs no P
    for spec, codes, requests in (
        ("0,pi*1/6,pi*1/3,pi*1/2", [0, 0, 0], 3),
        ("0,pi*1/5,pi*1/4,pi*1/3", [4, 4, 0], 2),
    ):
        angles = parse_angle_list(spec)[0]
        first = approximate(Fraction(1, 3), Fraction(-1, 2), Fraction(1, 1000), angles)
        second = approximate(Fraction(1, 3), Fraction(-1, 2), Fraction(1, 1000), angles)
        assert first == second
        assert ring_context(angles).projections is construction.nontrivial_projections(angles)
        assert builds == [angles]
        out = tmp_path / "verdict.json"
        got = [
            cli.run(["check-ring", "--angles", spec, "--out", str(out)]),
            cli.run(["verify", str(out)]),
            cli.run(["density", "--angles", spec, "--target=1/3,-1/2", "--epsilon", "1/1000"]),
        ]
        capsys.readouterr()
        assert got == codes
        # each command parses an instance of its own
        assert len(builds) == 1 + requests
        assert len({id(a) for a in builds}) == len(builds)
        builds.clear()
