"""Integer solutions of linear systems via unimodular diagonalization.

`_reduce` takes an integer matrix A to U*A*V = D with U, V unimodular and D
diagonal (no divisibility chain is enforced; none is needed to solve
systems).  A solution of A*x = b is then x = V*y with y_i = (U*b)_i / d_i,
which exists over the integers iff every division is exact and the zero rows
of D meet zero entries of U*b.  `RationalRowSolver` does this for a rational
matrix, one reduction per matrix.

The reduction applies its row operations to A and U, but keeps V only as the
log of its column operations.  V = E_1 ... E_m for the logged elementary
matrices, so columns of V are formed by replaying the log in reverse on unit
vectors, where each operation becomes a row operation (`_replay`); the
solver forms only the pivot columns it reads.
"""

from __future__ import annotations

from math import gcd, lcm


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _reduce(matrix):
    """(U, D, log, passes) with U*A*V = D, V the product of the logged column
    operations and passes the number of pivot searches.

    A log entry (k, j, q) is col_j -= q*col_k, and (k, j, None) swaps columns
    k and j.  The pivot is the first entry of smallest nonzero |a_ij| in
    row-major order of the trailing block; a pass whose remainders leave
    column or row k unfinished searches again at the same k.
    """
    a = [[int(v) for v in row] for row in matrix]
    r = len(a)
    c = len(a[0]) if r else 0
    u = _identity(r)
    log = []
    # smallest nonzero |a_ij| of row i in the trailing block, 0 for none and
    # None when stale; column k of the rows below k is zero when k advances,
    # so only the rows an operation touches go stale
    mins = [None] * r
    passes = 0
    k = 0
    while k < min(r, c):
        passes += 1
        for i in range(k, r):
            if mins[i] is None:
                mins[i] = min(map(abs, filter(None, a[i][k:])), default=0)
        best = min(filter(None, mins[k:]), default=0)
        if not best:
            break
        pi = mins.index(best, k)
        pj = next(j for j in range(k, c) if a[pi][j] in (best, -best))
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
            mins[k], mins[pi] = mins[pi], mins[k]
        if pj != k:
            for row in a[k:]:  # rows above k are zero in columns k and pj
                row[k], row[pj] = row[pj], row[k]
            log.append((k, pj, None))
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        pivot, p = a[k], a[k][k]
        dirty = False
        for i in range(k + 1, r):
            if a[i][k]:
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], pivot)]
                u[i] = [x - q * y for x, y in zip(u[i], u[k])]
                mins[i] = None
                dirty = dirty or a[i][k] != 0
        # every quotient comes from row k before any update: col_j -= q_j*col_k
        # changes only column j, so the operations do not interact
        qs = [0] * (k + 1) + [x // p for x in pivot[k + 1 :]]
        if any(qs):
            log += [(k, j, q) for j, q in enumerate(qs) if q]
            for i in range(k, r):
                f = a[i][k]
                if f:
                    a[i] = [x - q * f for x, q in zip(a[i], qs)]
                    mins[i] = None
            dirty = dirty or any(a[k][k + 1 :])
        if dirty:
            continue  # remainders became new, smaller candidates
        k += 1
    return u, a, log, passes


def _replay(log, c: int, columns) -> list[list[int]]:
    """Rows of the given columns of the c x c matrix V that `log` stands for:
    entry [j][t] is V[j][columns[t]].  The log runs in reverse on unit
    vectors, col_j -= q*col_k becoming W[k] -= q*W[j] and a swap a row swap."""
    w = [[0] * len(columns) for _ in range(c)]
    for t, i in enumerate(columns):
        w[i][t] = 1
    for k, j, q in reversed(log):
        if q is None:
            w[k], w[j] = w[j], w[k]
        elif any(w[j]):
            w[k] = [x - q * y for x, y in zip(w[k], w[j])]
    return w


class RationalRowSolver:
    """Integer-solution solver for a rational matrix, precomputed once.

    The matrix is integer numerators `rows` over one positive denominator per
    column, `dens`.  Row i is scaled by the lcm of its reduced denominators
    dens[j] // gcd(rows[i][j], dens[j]).  On an integer vector the scaled left
    side is integral, so a target entry that stays fractional after the same
    scaling rules out any integer solution.  The scaled integer matrix is
    reduced once (`_reduce`), and only the pivot columns of V are replayed.
    `column_ops` is the length of the reduction's column log and `passes`
    its number of pivot searches.
    """

    def __init__(self, rows, dens):
        self.scales = [lcm(*(d // gcd(v, d) for v, d in zip(row, dens))) for row in rows]
        matrix = [[v * s // d for v, d in zip(row, dens)] for row, s in zip(rows, self.scales)]
        self.u, reduced, log, self.passes = _reduce(matrix)
        self.column_ops = len(log)
        r, c = len(matrix), len(dens)
        diag = [reduced[i][i] for i in range(min(r, c))]
        pivots = [i for i, di in enumerate(diag) if di]
        w = _replay(log, c, pivots)
        # pivot i with d_i != 0 and the nonzero entries (j, V[j][i]) of column i
        self._pivots = [
            (i, diag[i], [(j, row[t]) for j, row in enumerate(w) if row[t]])
            for t, i in enumerate(pivots)
        ]
        self._zero_rows = [i for i in range(r) if i >= len(diag) or not diag[i]]
        self._cols = c
        self.rank = len(pivots)

    def solve(self, b, den: int) -> list[int] | None:
        """x with A*x = b/den, for integer numerators b over a positive den.

        x = V*y with y_i = (U*b')_i / d_i for the scaled target b', where y is
        nonzero only at pivots, so only the pivot columns of V are used."""
        if len(b) != len(self.scales):
            raise ValueError("right-hand side has the wrong length")
        scaled = []
        for s, v in zip(self.scales, b):
            q, r = divmod(v * s, den)
            if r:
                return None
            scaled.append(q)
        ub = [sum(uij * bj for uij, bj in zip(row, scaled)) for row in self.u]
        if any(ub[i] for i in self._zero_rows):
            return None
        x = [0] * self._cols
        for i, d, column in self._pivots:
            q, r = divmod(ub[i], d)
            if r:
                return None
            if q:
                for j, vji in column:
                    x[j] += q * vji
        return x
