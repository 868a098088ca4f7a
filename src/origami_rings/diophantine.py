"""Integer solutions of linear systems via unimodular diagonalization.

diagonalize reduces an integer matrix A to U*A*V = D with U, V unimodular
and D diagonal (no divisibility chain is enforced; none is needed to solve
systems).  A solution of A*x = b is then x = V*y with y_i = (U*b)_i / d_i,
which exists over the integers iff every division is exact and the zero rows
of D meet zero entries of U*b.
"""

from __future__ import annotations

from math import gcd, lcm


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonalize(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal."""
    a = [[int(v) for v in row] for row in matrix]
    r = len(a)
    c = len(a[0]) if r else 0
    u = _identity(r)
    v = _identity(c)
    k = 0
    while k < min(r, c):
        # smallest nonzero entry of the trailing submatrix becomes the pivot
        pivot = None
        for i in range(k, r):
            for j in range(k, c):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        p = a[k][k]
        dirty = False
        for i in range(k + 1, r):
            if a[i][k]:
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                dirty = dirty or a[i][k] != 0
        for j in range(k + 1, c):
            if a[k][j]:
                q = a[k][j] // p
                for row in a:
                    row[j] -= q * row[k]
                for row in v:
                    row[j] -= q * row[k]
                dirty = dirty or a[k][j] != 0
        if dirty:
            continue  # remainders became new, smaller candidates
        k += 1
    return u, a, v


class LinearSolver:
    """Reusable integer solver for a fixed coefficient matrix."""

    def __init__(self, matrix):
        self.rows = len(matrix)
        self.cols = len(matrix[0]) if self.rows else 0
        self.u, d, v = diagonalize(matrix)
        self.diag = [d[i][i] for i in range(min(self.rows, self.cols))]
        # pivot i with d_i != 0 and the nonzero entries (j, V[j][i]) of column i
        self._pivots = [
            (i, di, [(j, row[i]) for j, row in enumerate(v) if row[i]])
            for i, di in enumerate(self.diag)
            if di
        ]
        self._zero_rows = [
            i for i in range(self.rows) if i >= len(self.diag) or not self.diag[i]
        ]
        self.rank = len(self._pivots)

    def solve(self, b) -> list[int] | None:
        """x with A*x = b, or None.  x = V*y with y_i = (U*b)_i / d_i, where y
        is nonzero only at pivots, so only the pivot columns of V are used."""
        if len(b) != self.rows:
            raise ValueError("right-hand side has the wrong length")
        b = [int(x) for x in b]
        ub = [sum(uij * bj for uij, bj in zip(row, b)) for row in self.u]
        if any(ub[i] for i in self._zero_rows):
            return None
        x = [0] * self.cols
        for i, d, column in self._pivots:
            q, r = divmod(ub[i], d)
            if r:
                return None
            if q:
                for j, vji in column:
                    x[j] += q * vji
        return x


class RationalRowSolver:
    """Integer-solution solver for a rational matrix, precomputed once.

    The matrix is integer numerators `rows` over one positive denominator per
    column, `dens`.  Row i is scaled by the lcm of its reduced denominators
    dens[j] // gcd(rows[i][j], dens[j]).  On an integer vector the scaled left
    side is integral, so a target entry that stays fractional after the same
    scaling rules out any integer solution.
    """

    def __init__(self, rows, dens):
        self.scales = [lcm(*(d // gcd(v, d) for v, d in zip(row, dens))) for row in rows]
        self._solver = LinearSolver(
            [[v * s // d for v, d in zip(row, dens)] for row, s in zip(rows, self.scales)]
        )
        self.rank = self._solver.rank

    def solve(self, b, den: int) -> list[int] | None:
        """x with A*x = b/den, for integer numerators b over a positive den."""
        if len(b) != len(self.scales):
            raise ValueError("right-hand side has the wrong length")
        scaled = [divmod(v * s, den) for s, v in zip(self.scales, b)]
        if any(r for _, r in scaled):
            return None
        return self._solver.solve([q for q, _ in scaled])
