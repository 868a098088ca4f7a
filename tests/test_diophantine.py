"""Integer linear systems: unimodular diagonalization and solvers."""

import random
from fractions import Fraction
from itertools import product

import pytest

from origami_rings.diophantine import LinearSolver, RationalRowSolver, diagonalize

from helpers import oracle_linear_solve


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
        got = LinearSolver(a).solve(b)
        assert got is not None
        assert mat_vec(a, got) == b


def test_no_solution_detected_against_brute_force():
    rng = random.Random(73)
    checked = 0
    while checked < 60:
        a = rand_matrix(rng, 2, 2, bound=4)
        b = [rng.randint(-6, 6), rng.randint(-6, 6)]
        got = LinearSolver(a).solve(b)
        if got is not None:
            assert mat_vec(a, got) == b
            continue
        # verify emptiness over a window comfortably larger than any solution
        # a unimodular transform of this small system could produce
        for x in product(range(-60, 61), repeat=2):
            assert mat_vec(a, list(x)) != b
        checked += 1


def test_parity_obstruction():
    assert LinearSolver([[2]]).solve([1]) is None
    assert LinearSolver([[2]]).solve([-4]) == [-2]
    assert LinearSolver([[2, 2], [0, 2]]).solve([1, 0]) is None


def test_zero_rows_constrain():
    # second row is all zero: rhs must vanish there
    a = [[1, 2], [0, 0]]
    assert LinearSolver(a).solve([3, 1]) is None
    got = LinearSolver(a).solve([3, 0])
    assert got is not None and got[0] + 2 * got[1] == 3


def test_solver_reuse():
    s = LinearSolver([[1, 2], [3, 4]])
    assert s.solve([1, 1]) == [1, 0] or mat_vec([[1, 2], [3, 4]], s.solve([1, 1])) == [1, 1]
    assert s.solve([0, 0]) == [0, 0]


def test_rational_row_solver_scaling():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(1)]]
    s = RationalRowSolver(rows)
    # x/2 + y/3 = 4/3, y = 1  ->  x = 2, y = 1
    got = s.solve([Fraction(4, 3), Fraction(1)])
    assert got == [2, 1]
    # a target that stays fractional after clearing denominators is impossible
    assert s.solve([Fraction(1, 5), Fraction(1)]) is None


def test_rational_row_solver_rejects_wrong_length():
    # cut to two entries, [2, 1, 5] would be solved as [2, 1]
    s = RationalRowSolver([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    for b in ([Fraction(2), Fraction(1), Fraction(5)], [Fraction(2)]):
        with pytest.raises(ValueError):
            s.solve(b)


def test_rational_row_solver_random_agreement():
    rng = random.Random(74)
    for _ in range(80):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        x = [rng.randint(-4, 4) for _ in range(3)]
        b = [sum(r[j] * x[j] for j in range(3)) for r in rows]
        got = RationalRowSolver(rows).solve(b)
        assert got is not None
        assert [sum(r[j] * got[j] for j in range(3)) for r in rows] == b


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
            s = LinearSolver(a)
            planted = mat_vec(a, [rng.randint(-4, 4) for _ in range(c)])
            free = [rng.randint(-20, 20) for _ in range(r)]
            for b in (planted, free, [0] * r):
                got = s.solve(b)
                assert got == oracle_linear_solve(a, b)
                if got is not None:
                    assert mat_vec(a, got) == b
            assert s.solve(planted) is not None


def test_back_substitution_rejects_unsolvable_targets():
    rng = random.Random(76)
    rejected = 0
    for _ in range(200):
        r, c = rng.choice([(3, 12), (5, 40), (3, 3)])
        a = low_rank_matrix(rng, r, c, rng.randint(1, r - 1))
        b = [rng.randint(-9, 9) for _ in range(r)]
        got = LinearSolver(a).solve(b)
        assert got == oracle_linear_solve(a, b)
        rejected += got is None
    # rank-deficient systems leave most random targets without a solution
    assert rejected > 100
    # a divisibility obstruction on a wide system: every entry of row 0 is even
    a = [[2 * v for v in row] for row in rand_matrix(rng, 1, 12)] + rand_matrix(rng, 2, 12)
    x = [rng.randint(-3, 3) for _ in range(12)]
    b = mat_vec(a, x)
    b[0] += 1
    assert LinearSolver(a).solve(b) is None
    assert oracle_linear_solve(a, b) is None
