"""Integer linear systems: unimodular diagonalization and solvers."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from origami_rings import diophantine
from origami_rings.analysis import check_ring
from origami_rings.anglespec import parse_angle_list
from origami_rings.diophantine import RationalRowSolver

from helpers import (
    OracleRationalRowSolver,
    diagonalize,
    oracle_diagonalize,
    oracle_linear_solve,
)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)] for i in range(rows)]


def mat_vec(a, x):
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


def det(m):
    """Fraction-pivot Gaussian elimination; fine for the small sizes here."""
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    sign = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    out = Fraction(sign)
    for k in range(n):
        out *= a[k][k]
    return out


def integer_solver(a):
    """The solver of an integer matrix: every column over denominator 1."""
    return RationalRowSolver(a, [1] * len(a[0]))


def rand_matrix(rng, r, c, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]


def test_diagonalize_factorization_random():
    rng = random.Random(71)
    for _ in range(120):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = rand_matrix(rng, r, c)
        u, d, v = diagonalize(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0


def test_planted_solutions_recovered():
    rng = random.Random(72)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = rand_matrix(rng, r, c)
        x = [rng.randint(-5, 5) for _ in range(c)]
        b = mat_vec(a, x)
        got = integer_solver(a).solve(b, 1)
        assert got is not None
        assert mat_vec(a, got) == b


def test_no_solution_detected_against_brute_force():
    rng = random.Random(73)
    checked = 0
    while checked < 60:
        a = rand_matrix(rng, 2, 2, bound=4)
        b = [rng.randint(-6, 6), rng.randint(-6, 6)]
        got = integer_solver(a).solve(b, 1)
        if got is not None:
            assert mat_vec(a, got) == b
            continue
        # verify emptiness over a window comfortably larger than any solution
        # a unimodular transform of this small system could produce
        for x in product(range(-60, 61), repeat=2):
            assert mat_vec(a, list(x)) != b
        checked += 1


def test_parity_obstruction():
    assert integer_solver([[2]]).solve([1], 1) is None
    assert integer_solver([[2]]).solve([-4], 1) == [-2]
    assert integer_solver([[2, 2], [0, 2]]).solve([1, 0], 1) is None


def test_zero_rows_constrain():
    # second row is all zero: rhs must vanish there
    a = [[1, 2], [0, 0]]
    assert integer_solver(a).solve([3, 1], 1) is None
    got = integer_solver(a).solve([3, 0], 1)
    assert got is not None and got[0] + 2 * got[1] == 3


def test_solver_reuse():
    s = integer_solver([[1, 2], [3, 4]])
    assert s.solve([1, 1], 1) == [1, 0] or mat_vec([[1, 2], [3, 4]], s.solve([1, 1], 1)) == [1, 1]
    assert s.solve([0, 0], 1) == [0, 0]


def over_column_denominators(matrix):
    """(integer numerators, one denominator per column) of a Fraction matrix,
    each column over the lcm of its entries' denominators."""
    dens = [math.lcm(*(Fraction(v).denominator for v in col)) for col in zip(*matrix)]
    return [[int(Fraction(v) * d) for v, d in zip(row, dens)] for row in matrix], dens


def over_one_denominator(b):
    """(integer numerators, denominator) of a Fraction vector."""
    den = math.lcm(*(Fraction(v).denominator for v in b))
    return [int(Fraction(v) * den) for v in b], den


def test_rational_row_solver_scaling():
    # the matrix [[1/2, 1/3], [0, 1]]: column denominators 2 and 3
    s = RationalRowSolver([[1, 1], [0, 3]], [2, 3])
    # x/2 + y/3 = 4/3, y = 1  ->  x = 2, y = 1
    got = s.solve([4, 3], 3)
    assert got == [2, 1]
    # a target that stays fractional after clearing denominators is impossible
    assert s.solve([1, 5], 5) is None


def test_rational_row_solver_rejects_wrong_length():
    # cut to two entries, [2, 1, 5] would be solved as [2, 1]
    s = RationalRowSolver([[1, 0], [0, 1]], [1, 1])
    for b in ([2, 1, 5], [2]):
        with pytest.raises(ValueError):
            s.solve(b, 1)


def test_rational_row_solver_random_agreement():
    rng = random.Random(74)
    for _ in range(80):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        x = [rng.randint(-4, 4) for _ in range(3)]
        b = [sum(r[j] * x[j] for j in range(3)) for r in rows]
        got = RationalRowSolver(*over_column_denominators(rows)).solve(*over_one_denominator(b))
        assert got is not None
        assert [sum(r[j] * got[j] for j in range(3)) for r in rows] == b


def test_rational_row_solver_matches_fraction_oracle():
    """Integer numerators over column denominators against the Fraction-row
    oracle, with unreduced entries such as 2/4, negative numerators, zero
    entries and column denominators that share factors: equal row scales,
    equal solutions and equal Nones."""
    rng = random.Random(77)
    unreduced = found = missing = 0
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 6)
        dens = [rng.choice((1, 2, 3, 4, 6, 9, 12)) for _ in range(c)]
        rows = [[rng.choice((0, rng.randint(-8, 8))) for _ in range(c)] for _ in range(r)]
        unreduced += sum(v != 0 and math.gcd(v, d) > 1 for row in rows for v, d in zip(row, dens))
        matrix = [[Fraction(v, d) for v, d in zip(row, dens)] for row in rows]
        solver, oracle = RationalRowSolver(rows, dens), OracleRationalRowSolver(matrix)
        assert solver.scales == oracle.scales
        x = [rng.randint(-4, 4) for _ in range(c)]
        planted = over_one_denominator([sum(m * v for m, v in zip(row, x)) for row in matrix])
        targets = [
            planted,
            ([2 * v for v in planted[0]], 2 * planted[1]),  # the same, unreduced
            ([rng.randint(-9, 9) for _ in range(r)], rng.choice((1, 2, 4, 6, 12))),
        ]
        for b, den in targets:
            got = solver.solve(b, den)
            assert got == oracle.solve([Fraction(v, den) for v in b])
            if got is None:
                missing += 1
            else:
                found += 1
                assert [sum(m * v for m, v in zip(row, got)) for row in matrix] == [
                    Fraction(v, den) for v in b
                ]
        assert solver.solve(*planted) is not None
    assert unreduced and found and missing


def low_rank_matrix(rng, r, c, rank, bound=3):
    """r x c integer matrix of rank <= rank, as a product of random factors."""
    left = rand_matrix(rng, r, rank, bound)
    right = rand_matrix(rng, rank, c, bound)
    return mat_mul(left, right) if rank else [[0] * c for _ in range(r)]


def test_back_substitution_matches_dense_oracle():
    rng = random.Random(75)
    shapes = [(3, 12), (5, 40), (4, 80), (2, 7), (4, 4), (6, 3), (1, 9)]
    for _ in range(25):
        for r, c in shapes:
            kind = rng.randrange(3)
            if kind == 0:
                a = rand_matrix(rng, r, c)
            elif kind == 1:
                a = low_rank_matrix(rng, r, c, rng.randint(0, min(r, c) - 1))
            else:
                a = rand_matrix(rng, r, c)
                for i in rng.sample(range(r), rng.randint(1, r)):
                    a[i] = [0] * c
            s = integer_solver(a)
            planted = mat_vec(a, [rng.randint(-4, 4) for _ in range(c)])
            free = [rng.randint(-20, 20) for _ in range(r)]
            for b in (planted, free, [0] * r):
                got = s.solve(b, 1)
                assert got == oracle_linear_solve(a, b)
                if got is not None:
                    assert mat_vec(a, got) == b
            assert s.solve(planted, 1) is not None


def test_back_substitution_rejects_unsolvable_targets():
    rng = random.Random(76)
    rejected = 0
    for _ in range(200):
        r, c = rng.choice([(3, 12), (5, 40), (3, 3)])
        a = low_rank_matrix(rng, r, c, rng.randint(1, r - 1))
        b = [rng.randint(-9, 9) for _ in range(r)]
        got = integer_solver(a).solve(b, 1)
        assert got == oracle_linear_solve(a, b)
        rejected += got is None
    # rank-deficient systems leave most random targets without a solution
    assert rejected > 100
    # a divisibility obstruction on a wide system: every entry of row 0 is even
    a = [[2 * v for v in row] for row in rand_matrix(rng, 1, 12)] + rand_matrix(rng, 2, 12)
    x = [rng.randint(-3, 3) for _ in range(12)]
    b = mat_vec(a, x)
    b[0] += 1
    assert integer_solver(a).solve(b, 1) is None
    assert oracle_linear_solve(a, b) is None


def assert_matches_oracle(a):
    """diagonalize returns the oracle's U, D and V, and the solver keeps
    U, the nonzero diagonal and exactly the nonzero entries (j, V[j][i]) of
    the oracle's pivot columns."""
    u, d, v = oracle_diagonalize(a)
    assert diagonalize(a) == (u, d, v)
    s = integer_solver(a)
    assert s.u == u
    pivots = [i for i in range(min(len(d), len(v))) if d[i][i]]
    assert [i for i, _, _ in s._pivots] == pivots
    for i, di, column in s._pivots:
        assert di == d[i][i]
        assert column == [(j, row[i]) for j, row in enumerate(v) if row[i]]


def test_diagonalize_matches_oracle_random():
    rng = random.Random(78)
    cases = []
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 9)
        cases.append(rand_matrix(rng, r, c, bound=rng.choice((1, 3, 9, 50))))
    for r, c, rank in [(4, 385, 2), (32, 80, 16), (4, 80, 2), (31, 40, 16), (12, 6, 3)]:
        cases.append(low_rank_matrix(rng, r, c, rank))
    for r, c in [(3, 12), (5, 40), (6, 3)]:
        for _ in range(10):
            a = low_rank_matrix(rng, r, c, rng.randint(0, min(r, c) - 1))
            for i in rng.sample(range(r), rng.randint(1, r)):
                a[i] = [0] * c  # zero rows
            cases.append(a)
    cases += [[[0] * 5 for _ in range(3)], [[0, 0, 7]], [[5], [0], [-3]]]
    for a in cases:
        assert_matches_oracle(a)


@pytest.mark.parametrize(
    "spec, degree",
    [
        ("0,pi*1/6,pi*1/3,pi*1/2", 3),
        ("0,pi*1/4,pi*1/2,pi*3/4", 3),
        ("0,pi*1/5,pi*1/4,pi*1/3", 3),
        ("0,pi*1/6,pi*1/3,pi*1/2,pi*2/3", 2),
        ("0,param:1,param:2,param:3", 2),
    ],
)
def test_diagonalize_matches_oracle_on_membership_matrices(spec, degree, monkeypatch):
    # the integer matrices MembershipSolver hands to the kernel in check_ring
    matrices = []
    reduce = diophantine._reduce

    def recording(matrix):
        matrices.append(matrix)
        return reduce(matrix)

    monkeypatch.setattr(diophantine, "_reduce", recording)
    check_ring(parse_angle_list(spec)[0], degree_bound=degree)
    monkeypatch.undo()
    assert matrices
    for a in matrices:
        assert_matches_oracle(a)
