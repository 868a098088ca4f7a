"""Closure construction, elementary monomials, projections."""

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
from helpers import oracle_step


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
        (param_angles(), 1),
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
    for angles, cap in ((example_angles(), 30), (mixed, 60)):
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
    # hand counts for the example set: distinct line offsets |U| + |V| summed
    # over the six direction pairs, the |U|*|V| candidates, the new points
    caplog.set_level(logging.DEBUG, logger="origami_rings.construction")
    closure_to_depth(ConstructionConfig(example_angles(), max_depth=2))
    stats = [r.args for r in caplog.records if r.name == "origami_rings.construction"]
    assert len(stats) == 2
    expected = [(1, 21, 18, 6), (2, 57, 132, 76)]
    for st, (depth, offsets, candidates, new) in zip(stats, expected):
        assert st["depth"] == depth and st["order"] == 12
        assert len(st["offsets"]) == 6
        assert sum(nu + nv for nu, nv in st["offsets"]) == offsets
        assert st["candidates"] == candidates
        assert st["new_points"] == new
        assert st["seconds"] >= 0


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


# --- projections ----------------------------------------------------------------


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
