"""Closure construction, elementary monomials, projections."""

import hashlib
import itertools
import json
import logging
from fractions import Fraction

import pytest

from origami_rings import (
    AngleSet,
    CapExceededError,
    ConstructionConfig,
    CyclotomicElement,
    GenerationSet,
    ParamRational,
    Rational,
    UnitAngle,
    closure_to_depth,
    elementary_monomials,
    initial_generation,
    intersect,
    nontrivial_monomials,
    projection_set,
    root_of_unity,
    step,
)
from origami_rings import construction
from origami_rings.anglespec import parse_angle_list
from origami_rings.cli import run
from origami_rings.construction import nontrivial_projections
from origami_rings.geometry import pair_multipliers
from helpers import (
    oracle_elementary_monomials,
    oracle_nontrivial_monomials,
    oracle_offset_multipliers,
    oracle_projection_set,
    oracle_slide,
    oracle_step,
    oracle_vector_projection_set,
)

# angle sets of orders 4 to 120, five directions, one without the real axis
# and the parametric family
ORACLE_SETS = [
    "0,pi*1/6,pi*1/3,pi*1/2",
    "0,pi*1/4,pi*1/2,pi*3/4",
    "0,pi*1/5,pi*1/4,pi*1/3",
    "0,pi*1/6,pi*1/2,pi*5/6",
    "0,pi*1/6,pi*1/3,pi*1/2,pi*2/3",
    "0,pi*1/12,pi*1/6,pi*1/4",
    "0,pi*1/10,pi*1/4,pi*1/2",
    "0,pi*1/10,pi*1/12",
    "pi*1/5,pi*1/3,pi*1/2",
    "0,param:1,param:2,param:3",
]


def ua(order, k):
    return UnitAngle(root_of_unity(order, k))


def example_angles():
    """Directions 1, e^{i pi/6}, e^{i pi/3}, i."""
    return AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])


def three_angles():
    return AngleSet([ua(1, 0), ua(6, 1), ua(3, 1)])


def param_angles():
    t = ParamRational.t_power
    return AngleSet(
        [UnitAngle(ParamRational.from_rational(Fraction(1)))]
        + [UnitAngle(t(k)) for k in (1, 2, 3)]
    )


def test_config_validation():
    with pytest.raises(ValueError):
        ConstructionConfig(example_angles(), max_depth=-1)
    with pytest.raises(ValueError):
        ConstructionConfig(example_angles(), max_points=1)


def test_initial_generation():
    g = initial_generation()
    assert g.depth == 0
    assert len(g) == 2
    assert Rational(0) in g and Rational(1) in g
    assert Rational(Fraction(1, 2)) not in g
    # plain numbers are scalars too
    assert 1 in g and 0 in g
    assert Fraction(1, 2) not in g and Fraction(1) in g


def test_generation_set_dedup_and_order():
    g = GenerationSet(0, [Rational(1), Rational(0), Rational(1), Rational(0)])
    assert len(g) == 2
    assert list(g) == sorted(g.points, key=lambda p: p.canonical_key())


def test_step_monotone_and_sizes():
    gens = closure_to_depth(ConstructionConfig(example_angles(), max_depth=2))
    assert [len(g) for g in gens] == [2, 8, 84]
    for earlier, later in zip(gens, gens[1:]):
        assert later.depth == earlier.depth + 1
        for p in earlier:
            assert p in later


def test_first_generation_golden():
    gens = closure_to_depth(ConstructionConfig(example_angles(), max_depth=1))
    s1 = gens[1]
    z6 = root_of_unity(6, 1)
    z1 = (1 + z6) * Fraction(2, 3)  # 1 + i/sqrt3
    z2 = 1 + z6                     # sqrt3 e^{i pi/6}
    z3 = z6 * 2                     # 1 + i sqrt3
    for v in (Rational(0), Rational(1), z1, z2, z3):
        assert v in s1
    # the complements are forced by the axis/vertical line pair
    for v in (z1, z2, z3):
        assert (Rational(1) - v) in s1
    assert len(s1) == 8


def test_two_angle_closure_is_finite():
    angles = AngleSet([ua(1, 0), ua(4, 1)])
    gens = closure_to_depth(ConstructionConfig(angles, max_depth=4))
    # only the two seed lines exist, so nothing new ever appears
    assert [len(g) for g in gens] == [2, 2, 2, 2, 2]


def test_three_angle_first_generation():
    gens = closure_to_depth(ConstructionConfig(three_angles(), max_depth=1))
    s1 = gens[1]
    # the apex of the equilateral triangle over [0, 1] and its complement
    z = root_of_unity(6, 1)
    assert z in s1
    assert (Rational(1) - z) in s1
    assert len(s1) == 4


def test_complement_symmetry():
    # 1 - S_n = S_n whenever both seeds are present: check at depth 2
    gens = closure_to_depth(ConstructionConfig(example_angles(), max_depth=2))
    for g in gens:
        for p in g:
            assert (Rational(1) - p) in g


def test_permuted_angle_order_same_closure():
    a = AngleSet([ua(1, 0), ua(12, 1), ua(6, 1), ua(4, 1)])
    b = AngleSet([ua(4, 1), ua(6, 1), ua(12, 1), ua(1, 0)])
    ga = closure_to_depth(ConstructionConfig(a, max_depth=2))
    gb = closure_to_depth(ConstructionConfig(b, max_depth=2))
    for x, y in zip(ga, gb):
        assert [p.canonical_key() for p in x] == [q.canonical_key() for q in y]


def test_cap_exceeded_carries_partial():
    with pytest.raises(CapExceededError) as err:
        closure_to_depth(ConstructionConfig(example_angles(), max_depth=2, max_points=50))
    partial = err.value.partial
    assert isinstance(partial, list)
    assert [g.depth for g in partial] == [0, 1, 2]
    assert len(partial[-1]) >= 50


def test_parametric_closure_runs():
    gens = closure_to_depth(ConstructionConfig(param_angles(), max_depth=1))
    t = ParamRational.t_power(1)
    z2 = 1 + t * t
    assert z2 in gens[1]


def _point_records(gen):
    return [(p.canonical_key(), p.to_obj()) for p in gen]


def test_step_matches_oracle_step():
    # the line-offset step meets every value at the same (pair, p, q) as one
    # intersect call per ordered point pair, so keys and stored
    # representations (which exports print) agree at every depth
    mixed = AngleSet([ua(1, 0), ua(10, 1), ua(8, 1), ua(6, 1)])
    cases = [
        (example_angles(), 2),
        (AngleSet([ua(1, 0), ua(12, 1), ua(6, 1)]), 3),
        (mixed, 2),
        (AngleSet([ua(1, 0), ua(20, 1), ua(24, 1)]), 3),  # order 120
        (AngleSet([ua(1, 0), ua(10, 1), ua(6, 1)]), 3),  # order 30
        (param_angles(), 2),  # 88 points
    ]
    for angles, depth in cases:
        fast = slow = initial_generation()
        for _ in range(depth):
            fast, slow = step(fast, angles), oracle_step(slow, angles)
            assert _point_records(fast) == _point_records(slow)
    # a generation built under other directions: its points' orders (up to
    # 60) do not divide the directions' order 24, and the new points are
    # stored at orders 24, 60 and 120
    foreign = step(initial_generation(), AngleSet([ua(1, 0), ua(20, 1), ua(12, 1)]))
    other = AngleSet([ua(1, 0), ua(24, 1), ua(4, 1)])
    fast, slow = step(foreign, other), oracle_step(foreign, other)
    assert len(fast) == 32
    assert _point_records(fast) == _point_records(slow)
    # a cap overflow truncates both at the same point
    for angles, cap in ((example_angles(), 30), (mixed, 60), (param_angles(), 40)):
        s1 = step(initial_generation(), angles)
        with pytest.raises(CapExceededError) as fast_err:
            step(s1, angles, max_points=cap)
        with pytest.raises(CapExceededError) as slow_err:
            oracle_step(s1, angles, max_points=cap)
        fast_partial, slow_partial = fast_err.value.partial, slow_err.value.partial
        assert len(fast_partial) == cap + 1
        assert _point_records(fast_partial) == _point_records(slow_partial)


def test_numeric_step_keys_only_new_points(monkeypatch):
    # offsets and candidates are compared as integer vectors; canonical keys
    # (and so minimal forms) are computed only for the points a step adds
    for angles in (example_angles(), AngleSet([ua(1, 0), ua(10, 1), ua(8, 1), ua(6, 1)])):
        s1 = step(initial_generation(), angles)
        calls = []
        minimal_form = CyclotomicElement.minimal_form

        def counting(self):
            calls.append(self)
            return minimal_form(self)

        monkeypatch.setattr(CyclotomicElement, "minimal_form", counting)
        s2 = step(s1, angles)
        monkeypatch.setattr(CyclotomicElement, "minimal_form", minimal_form)
        assert 0 < len(calls) <= len(s2)


def test_step_logs_counts(caplog):
    # hand counts: distinct line offsets |U| + |V| summed over the six
    # direction pairs, the |U|*|V| candidates, the new points; a parametric
    # set has no cyclotomic order
    caplog.set_level(logging.DEBUG, logger="origami_rings.construction")
    cases = [
        (example_angles(), 12, [(1, 21, 18, 6), (2, 57, 132, 76)]),
        (param_angles(), None, [(1, 21, 18, 6), (2, 57, 132, 80)]),
    ]
    for angles, order, expected in cases:
        caplog.clear()
        closure_to_depth(ConstructionConfig(angles, max_depth=2))
        stats = [r.args for r in caplog.records if r.name == "origami_rings.construction"]
        assert len(stats) == 2
        for st, (depth, offsets, candidates, new) in zip(stats, expected):
            assert st["depth"] == depth and st["order"] == order
            assert len(st["offsets"]) == 6
            assert sum(nu + nv for nu, nv in st["offsets"]) == offsets
            assert st["candidates"] == candidates
            assert st["new_points"] == new
            assert st["seconds"] >= 0


# --- the angle set's multiplier table ---------------------------------------------


@pytest.mark.parametrize("spec", ORACLE_SETS)
def test_multiplier_table_matches_scalar_oracle(spec):
    # every (x, y, y') of the table, as a scalar at its pair's order, equals
    # the scalar formula, and so does every slide x of a pair (1, gamma),
    # read off the table when the axis leads the set
    angles = parse_angle_list(spec)[0]
    field, den, multipliers, _, _ = angles._elementary_table()
    oracle = oracle_offset_multipliers(angles)
    assert len(multipliers) == len(oracle)
    for (*row, order), want in zip(multipliers, oracle):
        assert [field.element(v, den, order) for v in row] == list(want)
    nu = angles.non_unit()
    tables = [pair_multipliers([(UnitAngle.real_axis(), g) for g in nu], field)]
    if angles.contains_one():
        tables.append((den, multipliers[: len(nu)]))
    for s, slides in tables:
        assert len(slides) == len(nu)
        for (x, _, _, order), gamma in zip(slides, nu):
            assert field.element(x, s, order) == oracle_slide(gamma)


def test_closure_takes_one_inverse_per_direction_pair(monkeypatch):
    # the table's brackets are the only inverses of a closure; the step reads
    # the table and computes no slides
    calls = []
    inv = CyclotomicElement.inv

    def counting(self):
        calls.append(self)
        return inv(self)

    monkeypatch.setattr(CyclotomicElement, "inv", counting)
    angles = example_angles()
    closure_to_depth(ConstructionConfig(angles, max_depth=2))
    assert len(calls) == len(list(angles.pairs())) == 6


# --- elementary monomials -------------------------------------------------------


def test_elementary_monomials_example():
    ems = elementary_monomials(example_angles())
    values = {m.value.canonical_key(): m.value for m in ems}
    z6 = root_of_unity(6, 1)
    z1 = intersect(ua(12, 1), ua(4, 1), Rational(0), Rational(1))
    for v in (Rational(0), Rational(1), z6 * 2, 1 + z6, z1):
        assert v.canonical_key() in values
    # ordered pairs of 4 directions dedup to at most 12 values
    assert len(ems) <= 12
    # each stored value really is intersect(alpha, beta, 0, 1)
    for m in ems:
        assert m.value == intersect(m.alpha, m.beta, Rational(0), Rational(1))


def test_nontrivial_monomials_example():
    ems = nontrivial_monomials(example_angles())
    for m in ems:
        assert m.value != 0 and m.value != 1
        assert not m.alpha.is_one() and not m.beta.is_one()
    # the three pairwise intersections of the non-axis directions
    assert len(ems) == 3


def monomial_objs(monomials):
    return [(m.alpha.value.to_obj(), m.beta.value.to_obj(), m.value.to_obj()) for m in monomials]


@pytest.mark.parametrize("spec", ORACLE_SETS)
def test_monomials_match_intersect_oracle(spec):
    """Names, order and stored representatives (to_obj) equal those of one
    intersect call per value."""
    angles = parse_angle_list(spec)[0]
    assert monomial_objs(elementary_monomials(angles)) == monomial_objs(
        oracle_elementary_monomials(angles)
    )
    assert monomial_objs(nontrivial_monomials(angles)) == monomial_objs(
        oracle_nontrivial_monomials(angles)
    )


@pytest.mark.parametrize("spec", ORACLE_SETS)
def test_monomials_compute_no_canonical_key(spec, monkeypatch):
    # values are deduplicated as numerator tuples of the angle set's
    # elementary table, so no value needs a key; the angle set is parsed
    # (and keys its directions) before the count starts
    angles = parse_angle_list(spec)[0]
    calls = []
    for cls in (CyclotomicElement, ParamRational, Rational):
        key = cls.canonical_key

        def counting(self, key=key):
            calls.append(self)
            return key(self)

        monkeypatch.setattr(cls, "canonical_key", counting)
    assert elementary_monomials(angles) and nontrivial_monomials(angles)
    assert calls == []


# --- projections ----------------------------------------------------------------


# (angles, command) -> (exit code, sha256 of the JSON body without meta, as
# the CLI indents it) for every certify- and density-pool set of
# perfbench/jobs.py, recorded on the scalar projection set, before it ran
# on bulk-field vectors
POOL_BYTES = {
    ('0,param:1,param:2,param:3', 'elementary'): (0, '5081ccb105dbc89b9072ada4652456c9e6f5e61ba8805e747e231c287e9163ee'),
    ('0,param:1,param:2,param:3', 'projections'): (0, '124bda1bc710f95b987ed417a63d6cfce09970807175165dbf8896ff8c167672'),
    ('0,pi*1/10,pi*1/4,pi*1/2', 'elementary'): (0, 'c259d2971199dd361c5880322101a8ba290846b2849aa7da7f6f57fef7bdd6a0'),
    ('0,pi*1/10,pi*1/4,pi*1/2', 'projections'): (0, '6f2d9be7eb60fa98c0c31249d0899810c70a2d628c9bf28e66c0698ad8c7ac8d'),
    ('0,pi*1/12,pi*1/6,pi*1/4', 'elementary'): (0, '6ee06cd285cc2ed85b03efe07e9e753cd5fda47ecbb95bbe7333056a681d1418'),
    ('0,pi*1/12,pi*1/6,pi*1/4', 'projections'): (0, 'd42c5567e2972c52e8fd2211e43afb3d17bf8bfe3111b30ad78c31102f3bd5d9'),
    ('0,pi*1/3,pi*1/2', 'elementary'): (0, '350c778f5f1fcf0e24be558523201341022d3bec8d4989536c3279694ce4a0f4'),
    ('0,pi*1/3,pi*1/2', 'projections'): (0, '081a7f14d3f901d77d2ca2925a6b7dd90cdf282560197005d5ec2de3da53ed2c'),
    ('0,pi*1/3,pi*2/3', 'elementary'): (0, 'cf1229d8dc17f5f420c48b638df24a7db92b30c2ddbe8ce945e533dac559af46'),
    ('0,pi*1/3,pi*2/3', 'projections'): (0, '081a7f14d3f901d77d2ca2925a6b7dd90cdf282560197005d5ec2de3da53ed2c'),
    ('0,pi*1/4,pi*1/2', 'elementary'): (0, '23b0d2211aa98a3b68d7a4b439560503c0632efd39d7bd032470423cac4b0d8a'),
    ('0,pi*1/4,pi*1/2', 'projections'): (0, '081a7f14d3f901d77d2ca2925a6b7dd90cdf282560197005d5ec2de3da53ed2c'),
    ('0,pi*1/4,pi*1/2,pi*3/4', 'elementary'): (0, 'afc4ac19736271cb294cddf4eef2c776329d4d2c25f86439dd679122081274f6'),
    ('0,pi*1/4,pi*1/2,pi*3/4', 'projections'): (0, '570a52ca63f441efea9f9d01e4c590c1d3b6c077cf5ac4286326c5c96225e758'),
    ('0,pi*1/4,pi*1/3,pi*1/2', 'elementary'): (0, '7a44e0070770438c0b0f77cf590f4bda548cf503d0a65dfc4fd3e53c13df0cb3'),
    ('0,pi*1/4,pi*1/3,pi*1/2', 'projections'): (0, '94b279766ade03073d6ff7882fd23e39590b094c592cddc566ca9dd110816c10'),
    ('0,pi*1/5,pi*1/4,pi*1/3', 'elementary'): (0, '27cfde36f33fb82e4f1abfc0cbdd95da93728f69b121d8c8e3f4a920077ff0b9'),
    ('0,pi*1/5,pi*1/4,pi*1/3', 'projections'): (0, 'bf7ebe17004ce9e2517558c1fe9aa87eafa066e4aebcaf312339b29bc34e19c3'),
    ('0,pi*1/6,pi*1/2', 'elementary'): (0, 'bf6986d5da36d0bcac1ed0a15cbdd2e8830689f7cac854cd347fcd6068351003'),
    ('0,pi*1/6,pi*1/2', 'projections'): (0, '081a7f14d3f901d77d2ca2925a6b7dd90cdf282560197005d5ec2de3da53ed2c'),
    ('0,pi*1/6,pi*1/2,pi*5/6', 'elementary'): (0, '778bf67b153d2618b7add0c513beefd7eca726f6c693e88408d5746289042ce6'),
    ('0,pi*1/6,pi*1/2,pi*5/6', 'projections'): (0, '570a52ca63f441efea9f9d01e4c590c1d3b6c077cf5ac4286326c5c96225e758'),
    ('0,pi*1/6,pi*1/3', 'elementary'): (0, '643423630db40a29a40f409a0679b53e60cd68fe5a86468188e9424d6d25b91f'),
    ('0,pi*1/6,pi*1/3', 'projections'): (0, '081a7f14d3f901d77d2ca2925a6b7dd90cdf282560197005d5ec2de3da53ed2c'),
    ('0,pi*1/6,pi*1/3,pi*1/2', 'elementary'): (0, '157352d4020a8367f143537336a98c34864aaedf0370be9572444e19d5ed6f04'),
    ('0,pi*1/6,pi*1/3,pi*1/2', 'projections'): (0, 'f16558339059211e9ef358d99780c8f9d9e38ad46a2572644eca4fd2111d02af'),
    ('0,pi*1/6,pi*1/3,pi*1/2,pi*2/3', 'elementary'): (0, 'b9d7878f44f32e70901a5000f5394fcc086cc603679c361102ac66065672e370'),
    ('0,pi*1/6,pi*1/3,pi*1/2,pi*2/3', 'projections'): (0, '6f3fc92e5fa9d29e065614960bc1fd55188cc70c661449b81fd1ccbee07b8e8a'),
}
POOL_SETS = sorted({spec for spec, _ in POOL_BYTES} - set(ORACLE_SETS))


# a set with a nontrivial projection stored at another order than in
# `projections`, where another monomial or direction meets it first
MIXED_ORDERS = "0,pi*1/10,pi*1/5,pi*3/5,pi*4/5"


# every {0, pi*a/n, pi*b/n, pi*c/n} with 0 < a < b < c < n <= 12, as sets
FAMILY_SETS = sorted(
    {
        ",".join(["0"] + [f"pi*{f.numerator}/{f.denominator}" for f in sorted(s)])
        for s in {
            frozenset(Fraction(k, n) for k in ks)
            for n in range(4, 13)
            for ks in itertools.combinations(range(1, n), 3)
        }
    }
)
AXISLESS = "pi*1/6,pi*1/3,pi*1/2,pi*2/3"


def objs(values):
    return None if values is None else [v.to_obj() for v in values]


@pytest.mark.parametrize("spec", ORACLE_SETS + POOL_SETS + [MIXED_ORDERS])
def test_projection_set_matches_intersect_oracle(spec, capsys):
    angles = parse_angle_list(spec)[0]
    got, want = projection_set(angles), oracle_projection_set(angles)
    assert objs(nontrivial_projections(parse_angle_list(spec)[0])) == objs(want.nontrivial)
    assert objs(got.projections) == objs(want.projections)
    assert objs(got.nontrivial) == objs(want.nontrivial)
    assert objs(got.family) == objs(want.family)
    assert (got.x is None) == (want.x is None)
    if got.x is not None:
        assert got.x.to_obj() == want.x.to_obj()
    for command in ("elementary", "projections"):
        if (spec, command) in POOL_BYTES:
            code = run([command, "--angles", spec])
            obj = json.loads(capsys.readouterr().out)
            obj.pop("meta")
            body = json.dumps(obj, indent=2, sort_keys=True).encode()
            assert (code, hashlib.sha256(body).hexdigest()) == POOL_BYTES[spec, command]


def test_nontrivial_projections_match_the_projection_set():
    # P on a fresh instance against the full set's `nontrivial` and against
    # the one-pass vector build that P's builder replaced, which also gives
    # the full set's other fields
    assert len(FAMILY_SETS) == 479
    for spec in ORACLE_SETS + POOL_SETS + [MIXED_ORDERS, AXISLESS] + FAMILY_SETS:
        fresh = lambda: parse_angle_list(spec)[0]
        p = nontrivial_projections(fresh())
        got, want = projection_set(fresh()), oracle_vector_projection_set(fresh())
        assert objs(p) == objs(got.nontrivial) == objs(want.nontrivial), spec
        assert objs(got.projections) == objs(want.projections), spec
        assert objs(got.family) == objs(want.family), spec
        assert (got.x is None) == (want.x is None), spec
        if got.x is not None:
            assert got.x.to_obj() == want.x.to_obj(), spec


def test_nontrivial_projections_are_held_per_instance(monkeypatch):
    builds = []
    slides = construction._slides
    monkeypatch.setattr(construction, "_slides", lambda a: builds.append(a) or slides(a))
    angles = example_angles()
    first = nontrivial_projections(angles)
    assert nontrivial_projections(angles) is first
    assert projection_set(angles).nontrivial is first
    assert builds == [angles, angles]  # P once, then the rest of the full set
    projection_set(angles)  # the full set is built again on each call
    assert builds == [angles] * 3
    nontrivial_projections(example_angles())  # a new instance builds its own
    assert len(builds) == 4


def test_family_projections_lie_in_the_x_family():
    # `_x_family` raises on a stray projection; the containment is also
    # checked here directly
    with_x = 0
    for spec in FAMILY_SETS:
        ps = projection_set(parse_angle_list(spec)[0])
        if ps.x is None:
            continue
        with_x += 1
        allowed = {f.canonical_key() for f in ps.family + (Rational(0), Rational(1))}
        assert {p.canonical_key() for p in ps.projections} <= allowed, spec
    assert with_x > 0


def test_projection_set_rejects_a_wrong_x(monkeypatch):
    # the family of x + 1 = 5/3 misses projections of the example set
    family = construction._x_family
    monkeypatch.setattr(construction, "_x_family", lambda x, proj: family(x + 1, proj))
    with pytest.raises(RuntimeError, match="escape the x-family"):
        projection_set(example_angles())
    # a parametric set takes the same path
    with pytest.raises(RuntimeError, match="escape the x-family"):
        projection_set(parse_angle_list("0,param:1,param:2,param:3")[0])


def test_projection_set_example():
    ps = projection_set(example_angles())
    frac_values = {p.as_fraction() for p in ps.projections if p.is_rational()}
    expected = {
        Fraction(0),
        Fraction(1),
        Fraction(2, 3),
        Fraction(3, 2),
        Fraction(-2),
        Fraction(1, 3),
        Fraction(-1, 2),
        Fraction(3),
    }
    assert frac_values == expected
    assert ps.x is not None and ps.x.as_fraction() == Fraction(2, 3)
    nontrivial = {p.as_fraction() for p in ps.nontrivial}
    assert nontrivial == {Fraction(2, 3), Fraction(3, 2), Fraction(-2)}
    assert ps.family is not None
    fam = {p.as_fraction() for p in ps.family}
    assert frac_values <= fam | {Fraction(0), Fraction(1)}


def test_projection_values_are_real():
    for angles in (example_angles(), three_angles()):
        ps = projection_set(angles)
        for p in ps.projections:
            assert p.is_real()


def test_three_angle_projections_trivial():
    ps = projection_set(three_angles())
    assert {p.as_fraction() for p in ps.projections} == {Fraction(0), Fraction(1)}
    assert ps.nontrivial == ()
    # x is still reported for the three-angle lattice even though the
    # projection list is trivial
    assert ps.x is None or ps.x.is_real()


def test_parametric_projection_family():
    ps = projection_set(param_angles())
    t = ParamRational.t_power(1)
    t2 = t * t
    p1 = (1 + t2 + t2 * t2) / ((1 + t2) * (1 + t2))
    keys = {p.canonical_key() for p in ps.nontrivial}
    assert p1.canonical_key() in keys
    assert ps.x is not None and ps.x == p1


@pytest.mark.parametrize("spec", ORACLE_SETS + POOL_SETS + [MIXED_ORDERS])
def test_is_one_agrees_with_scalar_equality(spec):
    for a in parse_angle_list(spec)[0]:
        assert a.is_one() == (a.value == 1)


def test_is_one_of_stored_and_parametric_axes():
    one_at_12 = UnitAngle(CyclotomicElement.from_rational(1, 12))
    param_one = UnitAngle(ParamRational.from_rational(Fraction(1)))
    minus_one = UnitAngle(CyclotomicElement.from_rational(-1, 12))
    for a in (one_at_12, param_one, minus_one, UnitAngle.real_axis()):
        assert a.is_one() and a.value == 1
    for a in (UnitAngle(ParamRational.t_power(1)), ua(12, 1), ua(4, 1)):
        assert not a.is_one() and a.value != 1
