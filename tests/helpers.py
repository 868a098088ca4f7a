"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
line intersection is re-derived from a 2x2 real linear solve, the closure
step from one intersect call per ordered point pair, elementary monomials
and projections from one intersect call per value, quadratic
integrality from expanding (X - x)(X - conj(x)), lattice comparison from
brute-force enumeration of truncated lattices, lattice coordinates from
dz/dx read off one coordinate (`oracle_lattice_coordinates`), and the
direction order from the sign of the difference of real parts
(`oracle_angle_arg_compare`).  Diagonalization forms the
dense V and applies every column operation to it (`oracle_diagonalize`); the
integer solve multiplies out the dense V*y from it (`oracle_linear_solve`),
and the rational row solver scales rows of Fractions and solves with that
(`OracleRationalRowSolver`).  `diagonalize` is the one helper built on the
production kernel (`_reduce`, then `_replay` on every column), so that its
U, D and V can be checked against the oracle's; likewise
`oracle_vector_projection_set`, the one-pass vector projection set that
P's own builder replaced, runs on the production elementary table.  Membership rebuilds the solver's columns as
scalar products (`membership_columns`) and assembles a fresh Fraction
coordinate matrix for every target: parametric targets over the target's
and the columns' denominators, cyclotomic ones at the lcm of the target's
and the columns' orders.  Certificates are evaluated on scalars, term by term
(`oracle_evaluate_certificate`).  Signs and ceilings of real scalars are
decided on complex interval enclosures at doubling precision
(`oracle_refined_sign`, `oracle_real_sign`, `oracle_ceil_exact`), without
`part_bounds`.  Density witnesses take their exponents from a scan
n = 0, 1, 2, ... (`oracle_least_exponent`) and their ceilings from
`oracle_ceil_exact`; `oracle_witness` puts them together from the oracle
projection set and monomials.  Mixed arithmetic promotes the operand of
the lower backend, in the fixed order Rational < cyclotomic < parametric,
by the higher backend's `from_rational` (`oracle_coerce`) and combines by
the `_same` hooks (`oracle_combine`), where the operators fold an operand
into the other value in place.
The cyclotomic inverse multiplies all other Galois conjugates
(`oracle_inv`).  Phi_n is x^n - 1 divided by Phi_d for every proper
divisor d, over Q (`oracle_cyclotomic_polynomial`) and in Z[x]
(`oracle_cyclotomic_division`).  Cyclotomic reduction is a Fraction polynomial division by Phi_n
(`oracle_reduce`), and descent to a subfield a Fraction Gauss-Jordan
elimination per pair of orders (`oracle_subfield_transform`).  Parametric
arithmetic is redone over Q with a Fraction polynomial Euclid on every
operation (`oracle_param_*`).  Interval
enclosures are redone with mpmath's ivmpf operators (`OracleInterval`),
without shared caches.
"""

import functools
import math
from fractions import Fraction

from mpmath import make_mpf, mp, nstr

from origami_rings import (
    BackendMismatchError,
    CapExceededError,
    CyclotomicElement,
    ElementaryMonomial,
    GenerationSet,
    ParamRational,
    PrecisionError,
    ProjectionSet,
    Rational,
    UnitAngle,
    bracket,
    euler_phi,
    find_scaling_projection,
    intersect,
    real_imag_parts,
    real_sign,
    root_of_unity,
)
from origami_rings._polys import zdiv
from origami_rings.analysis import Certificate, CertTerm
from origami_rings.density import DensityWitness
from origami_rings.diophantine import _reduce, _replay
from origami_rings.geometry import _imag_sign, _param_exponent, pair_multipliers
from origami_rings.ratfunc import bulk_field
from origami_rings.scalars import as_scalar
from origami_rings.intervals import interval_context

# -- polynomials over Q ---------------------------------------------------------
# Tuples of Fraction in ascending degree with no trailing zeros; the zero
# polynomial is the empty tuple.


def trim(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    # degree of the zero polynomial reported as -1
    return len(p) - 1


def divmod_(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lead = q[-1]
    quo = [Fraction(0)] * max(0, len(p) - dq)
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        f = rem[-1] / lead
        k = len(rem) - 1 - dq
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem.pop()
    return trim(quo), trim(rem)


def const(c):
    return trim([c])


ZERO = ()
ONE = const(1)


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p, c):
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def shift(p, k):
    """Multiply by x**k."""
    if not p:
        return ZERO
    return (Fraction(0),) * k + tuple(p)


def monic(p):
    if not p:
        return ZERO
    lead = p[-1]
    if lead == 1:
        return p
    return tuple(c / lead for c in p)


def gcd(p, q):
    # Euclid over Q[x]; result is monic (or zero when both inputs are zero)
    while q:
        p, q = q, divmod_(p, q)[1]
    return monic(p)


def lcm(p, q):
    if not p or not q:
        return ZERO
    g = gcd(p, q)
    return monic(divmod_(mul(p, q), g)[0])


def xgcd(p, q):
    """Extended Euclid: returns (g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = p, q
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        quo, rem = divmod_(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, mul(quo, s1))
        t0, t1 = t1, sub(t0, mul(quo, t1))
    if not r0:
        return ZERO, ZERO, ZERO
    lead = r0[-1]
    inv = 1 / lead
    return scale(r0, inv), scale(s0, inv), scale(t0, inv)


# -- cyclotomic reduction over Q -------------------------------------------------


def oracle_cyclotomic_polynomial(n):
    """Phi_n over Q, from x^n - 1 by Fraction division by every Phi_d, d | n."""
    num = trim([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num, rem = divmod_(num, oracle_cyclotomic_polynomial(d))
            assert not rem
    return num


@functools.lru_cache(maxsize=None)
def oracle_cyclotomic_division(n):
    """Phi_n in Z[x], from x^n - 1 by exact integer division by every Phi_d
    for a proper divisor d of n, whether n is squarefree or not."""
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num = zdiv(num, oracle_cyclotomic_division(d))
    return num


def oracle_reduce(n, coeffs):
    """Coordinates of sum(c_e * x^e) in the length-phi(n) power basis, as the
    remainder of a Fraction polynomial division by Phi_n."""
    cs = [Fraction(c) for c in coeffs]
    if len(cs) > n:
        folded = [Fraction(0)] * n
        for e, c in enumerate(cs):
            folded[e % n] += c
        cs = folded
    _, rem = divmod_(trim(cs), oracle_cyclotomic_polynomial(n))
    return tuple(rem) + (Fraction(0),) * (euler_phi(n) - len(rem))


def oracle_subfield_transform(n, m):
    """Integer row transform T with T*E in reduced echelon form, up to a scale,
    by Fraction Gauss-Jordan elimination.

    E has phi(n) rows and phi(m) columns; column j holds the coordinates of
    zeta_m^j inside Q(zeta_n).  E has full column rank, so T*E is `scale`
    times the identity stacked on zero rows: solving E*y = c reads y off the
    first phi(m) entries of T*c / scale and demands the rest vanish.  Rows are
    returned sparse, as (coordinate rows, vanishing rows, scale).
    """
    assert n % m == 0
    pn, pm = euler_phi(n), euler_phi(m)
    step = n // m
    cols = [root_of_unity(n, j * step).coeffs for j in range(pm)]  # zeta_m^j
    rows = []
    for i in range(pn):
        aug = [Fraction(col[i]) for col in cols]
        aug += [Fraction(1) if k == i else Fraction(0) for k in range(pn)]
        rows.append(aug)
    r = 0
    for c in range(pm):
        pivot = next(i for i in range(r, pn) if rows[i][c] != 0)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(pn):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    scale = math.lcm(*(v.denominator for row in rows for v in row[pm:]))
    sparse = tuple(
        tuple((k, int(v * scale)) for k, v in enumerate(row[pm:]) if v) for row in rows
    )
    return sparse[:pm], sparse[pm:], scale


def oracle_subfield_coords(n, m, coords):
    """Coordinates in Q(zeta_m) of the vector coords of Q(zeta_n), as
    Fractions, or None when the value lies outside (`oracle_subfield_transform`)."""
    coord_rows, vanishing_rows, scale = oracle_subfield_transform(n, m)
    if any(sum(t * coords[k] for k, t in row) for row in vanishing_rows):
        return None
    return [Fraction(sum(t * coords[k] for k, t in row), scale) for row in coord_rows]


# -- parametric values over Q -----------------------------------------------------
# A value is a pair (num, den) of Fraction polynomials, normalised as
# ParamRational exposes it: gcd 1 and a monic denominator.


def oracle_param_normalize(num, den):
    num = trim(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), ONE
    g = gcd(num, den)
    if degree(g) > 0:
        num = divmod_(num, g)[0]
        den = divmod_(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num = scale(num, 1 / lead)
        den = scale(den, 1 / lead)
    return num, den


def oracle_param_add(a, b):
    return oracle_param_normalize(add(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1]))


def oracle_param_mul(a, b):
    return oracle_param_normalize(mul(a[0], b[0]), mul(a[1], b[1]))


def oracle_param_neg(a):
    return neg(a[0]), a[1]


def oracle_param_inv(a):
    if not a[0]:
        raise ZeroDivisionError("inverse of zero")
    return oracle_param_normalize(a[1], a[0])


def oracle_param_conj(a):
    """Substitute t -> 1/t and clear negative powers."""
    num, den = a
    if not num:
        return a
    return oracle_param_normalize(
        shift(tuple(reversed(num)), degree(den)), shift(tuple(reversed(den)), degree(num))
    )


def oracle_param_is_rational(a):
    return degree(a[0]) <= 0 and a[1] == ONE


def oracle_param_key(a):
    if oracle_param_is_rational(a):
        return b"Q:%s" % str(a[0][0] if a[0] else Fraction(0)).encode()
    num = ",".join(str(c) for c in a[0])
    den = ",".join(str(c) for c in a[1])
    return b"P:%s|%s" % (num.encode(), den.encode())


def oracle_param_obj(a):
    if oracle_param_is_rational(a):
        return {"backend": "rational", "value": str(a[0][0] if a[0] else Fraction(0))}
    return {"backend": "param", "num": [str(c) for c in a[0]], "den": [str(c) for c in a[1]]}


def oracle_param_to_interval(a, bits, t_arg):
    """Enclosure of a at t = exp(i*t_arg), every interval built afresh with
    ivmpf operators."""
    ctx = interval_context(bits)
    if isinstance(t_arg, str):
        angle = ctx.pi * oracle_rational_iv(Fraction(t_arg[3:]), ctx)
    elif isinstance(t_arg, float):
        angle = ctx.mpf(t_arg)
    else:
        angle = oracle_rational_iv(Fraction(t_arg), ctx)
    t = OracleInterval(ctx.cos(angle), ctx.sin(angle), bits)

    def horner(poly):
        acc = OracleInterval.from_rationals(0, 0, bits)
        for c in reversed(poly):
            acc = acc * t + OracleInterval.from_rationals(c, 0, bits)
        return acc

    return horner(a[0]) / horner(a[1])


# -- complex intervals on ivmpf objects ----------------------------------------
# The interval layer as it was before it moved onto raw libmp tuples: every
# operation goes through mpmath's ivmpf operators.  origami_rings.intervals
# must reproduce its endpoints bit for bit.


def oracle_rational_iv(q, ctx):
    q = Fraction(q)
    return ctx.mpf(q.numerator) / ctx.mpf(q.denominator)


class OracleInterval:
    """Rectangle [re] x [im] of two ivmpf intervals."""

    __slots__ = ("re", "im", "prec")

    def __init__(self, re, im, prec):
        self.re = re
        self.im = im
        self.prec = prec

    @classmethod
    def from_rationals(cls, re, im, bits):
        ctx = interval_context(bits)
        return cls(oracle_rational_iv(re, ctx), oracle_rational_iv(im, ctx), bits)

    def _align(self, other):
        if other.prec == self.prec:
            return other
        ctx = interval_context(self.prec)
        return OracleInterval(ctx.convert(other.re), ctx.convert(other.im), self.prec)

    def __add__(self, other):
        other = self._align(other)
        return OracleInterval(self.re + other.re, self.im + other.im, self.prec)

    def __sub__(self, other):
        other = self._align(other)
        return OracleInterval(self.re - other.re, self.im - other.im, self.prec)

    def __mul__(self, other):
        other = self._align(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return OracleInterval(a * c - b * d, a * d + b * c, self.prec)

    def __truediv__(self, other):
        other = self._align(other)
        c, d = other.re, other.im
        den = c * c + d * d
        lo = make_mpf(den._mpi_[0])
        if not mp.isfinite(lo) or lo <= 0:
            raise PrecisionError("division by an interval that may contain zero")
        a, b = self.re, self.im
        return OracleInterval((a * c + b * d) / den, (b * c - a * d) / den, self.prec)

    def encloses(self, other):
        other = self._align(other)
        return other.re in self.re and other.im in self.im

    def mpi(self):
        """(re, im) as raw libmp intervals."""
        return self.re._mpi_, self.im._mpi_

    def endpoint_strings(self):
        digits = int(self.prec * 0.302) + 3
        ends = (*self.re._mpi_, *self.im._mpi_)
        return tuple(nstr(make_mpf(e), digits) for e in ends)


def oracle_cyclotomic_interval(x, bits):
    """Enclosure of a CyclotomicElement: the sum of coefficient * zeta^j, with
    cos and sin evaluated afresh for every term."""
    ctx = interval_context(bits)
    re = ctx.mpf(0)
    im = ctx.mpf(0)
    for j, c in enumerate(x.coeffs):
        if c:
            angle = 2 * ctx.pi * j / x.order
            civ = oracle_rational_iv(c, ctx)
            re += civ * ctx.cos(angle)
            im += civ * ctx.sin(angle)
    return OracleInterval(re, im, bits)


# Orders kept small so compositums stay within Q(zeta_24) in randomized
# loops; order 5 would push merges into the 32-dimensional Q(zeta_120).
UNIT_ORDERS = [3, 4, 6, 8, 12]
POINT_ORDERS = [1, 3, 4, 6, 8, 12]


def oracle_inv(x):
    """Inverse of a scalar.  For a non-rational CyclotomicElement it is the
    product of all its other Galois conjugates over the rational norm N(x),
    which is x times that product; any other scalar inverts through `inv`."""
    if not isinstance(x, CyclotomicElement) or x.is_rational():
        return x.inv()
    n = x.order
    others = None
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            c = x.galois(k)
            others = c if others is None else others * c
    return others * Rational(1 / (x * others).as_fraction())


def random_fraction(rng, num_bound=9, den_bound=5):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_rational(rng):
    return Rational(random_fraction(rng))


def random_cyclo(rng, order):
    """Random element of the degree-phi(order) field, small coefficients."""
    phi = euler_phi(order)
    coeffs = [random_fraction(rng) for _ in range(phi)]
    return CyclotomicElement(order, coeffs)


def random_point(rng, order=None):
    if order is None:
        order = rng.choice(POINT_ORDERS)
    if order == 1:
        return random_rational(rng)
    return random_cyclo(rng, order)


def random_root(rng, order=None):
    if order is None:
        order = rng.choice(UNIT_ORDERS)
    k = rng.randrange(order)
    return root_of_unity(order, k)


def random_angle_pair(rng):
    """Two non-parallel unit directions, possibly from different fields."""
    while True:
        u = random_root(rng)
        v = random_root(rng)
        if not bracket(u, v).is_zero():
            return UnitAngle(u), UnitAngle(v)


def random_unit(rng):
    return UnitAngle(random_root(rng))


def _cross(a, b):
    a_re, a_im = real_imag_parts(a)
    b_re, b_im = real_imag_parts(b)
    return a_re * b_im - a_im * b_re


def oracle_intersect(alpha, beta, p, q):
    """Solve p + s*alpha = q + t*beta as a real 2x2 system (Cramer).

    Independent of the bracket-based production formula.
    """
    a = alpha.value if isinstance(alpha, UnitAngle) else alpha
    b = beta.value if isinstance(beta, UnitAngle) else beta
    d = _cross(a, b)
    if d.is_zero():
        raise ValueError("parallel directions")
    diff = q - p
    s = _cross(diff, b) / d
    return p + s * a


def _is_integer(x):
    """Whether the scalar x is a rational integer."""
    return x.is_rational() and x.as_fraction().denominator == 1


def quadratic_oracle(x):
    """Coefficients of (X - x)(X - conj(x)) if both are integers, else None."""
    s = x + x.conj()
    n = x * x.conj()
    if not (s.is_rational() and n.is_rational()):
        return None
    if not (_is_integer(s) and _is_integer(n)):
        return None
    # x*x = s*x - n, so the (lam, mu) convention is x^2 = lam*x + mu.
    return int(s.as_fraction()), int(-n.as_fraction())


def same_lattice_oracle(x, y):
    """Whether Z + xZ = Z + yZ, from x -+ y in Z on matching imaginary
    parts: x - conj(x) compares the imaginary parts, the half-sum of traces
    the real parts."""
    dx, dy = x - x.conj(), y - y.conj()
    tx, ty = x + x.conj(), y + y.conj()
    if dx == dy and _is_integer((tx - ty) * Fraction(1, 2)):
        return True
    return dx == -dy and _is_integer((tx + ty) * Fraction(1, 2))


def oracle_lattice_coordinates(x, z):
    """(m, n) with z = m + n*x, or None: n = dz/dx for dz = z - conj(z) and
    dx = x - conj(x), read off one nonzero coordinate of dx in their bulk
    field and checked on every coordinate, then m = z - n*x tested for an
    integer.  The body `lattice_coordinates` had before it became a
    membership solve."""
    x = as_scalar(x)
    z = as_scalar(z)
    if x.is_real():
        raise ValueError("degenerate lattice: generator is real")
    dx = x - x.conj()
    dz = z - z.conj()
    if dz.is_zero():
        n = 0
    else:
        (vx, vz), _ = bulk_field([dx, dz]).vectors([dx, dz])
        i = next(i for i, c in enumerate(vx) if c)
        ratio = as_scalar(vz[i]) * as_scalar(vx[i]).inv()
        if not _is_integer(ratio):
            return None
        n = int(ratio.as_fraction())
        if any(b != n * a for a, b in zip(vx, vz)):
            return None
    rest = z - n * x
    if not _is_integer(rest):
        return None
    return int(rest.as_fraction()), n


def oracle_angle_arg_compare(a, b):
    """Direction order by argument in [0, pi), numeric directions compared
    on the real parts (u + conj(u))/2 of their upper-half representatives
    by the sign of their difference: the comparator `angle_arg_compare`
    replaced by one sign test of the difference of the representatives."""
    va, vb = a.value, b.value
    if va == vb:
        return 0
    ra, rb = va.is_rational(), vb.is_rational()
    if ra or rb:
        return -1 if ra else 1
    if isinstance(va, ParamRational) or isinstance(vb, ParamRational):
        ka, kb = _param_exponent(va), _param_exponent(vb)
        if ka is not None and kb is not None and ka != kb:
            return -1 if ka < kb else 1
        return -1 if va.canonical_key() < vb.canonical_key() else 1
    ua = va if _imag_sign(va) > 0 else -va
    ub = vb if _imag_sign(vb) > 0 else -vb
    rea = (ua + ua.conj()) * Fraction(1, 2)
    reb = (ub + ub.conj()) * Fraction(1, 2)
    return real_sign(reb - rea)


def brute_lattice_points(a, b, box, coeff_bound=6):
    """All m + n*(a + b*i) with |m|, |n| <= coeff_bound that land in the box.

    box is (re_min, re_max, im_min, im_max) with Fraction entries.
    Returns a frozenset of (Fraction, Fraction) pairs.
    """
    re_min, re_max, im_min, im_max = box
    pts = set()
    for n in range(-coeff_bound, coeff_bound + 1):
        for m in range(-coeff_bound, coeff_bound + 1):
            re = Fraction(m) + n * a
            im = n * b
            if re_min <= re <= re_max and im_min <= im <= im_max:
                pts.add((re, im))
    return frozenset(pts)


def oracle_step(gen, angles, max_points=250_000):
    """One closure step with one intersect call per direction pair and
    ordered point pair: the reference the line-offset step is checked against."""
    found = {p.canonical_key(): p for p in gen.points}
    for alpha, beta in angles.pairs():
        for p in gen.points:
            for q in gen.points:
                z = intersect(alpha, beta, p, q)
                k = z.canonical_key()
                if k not in found:
                    found[k] = z
                    if len(found) > max_points:
                        raise CapExceededError(
                            f"generation {gen.depth + 1} exceeds {max_points} points",
                            partial=GenerationSet(gen.depth + 1, found.values()),
                        )
    return GenerationSet(gen.depth + 1, found.values())


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_diagonalize(matrix):
    """(U, D, V) with U*A*V = D, V formed as a dense c x c matrix and every
    column operation applied to all of its rows, one scalar loop per column:
    the reference the logged reduction is checked against."""
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


def diagonalize(matrix):
    """(U, D, V) with U*A*V = D from the production kernel: `_reduce`, then
    `_replay` of its column log on every column of V."""
    u, d, log, _ = _reduce(matrix)
    c = len(d[0]) if d else 0
    return u, d, _replay(log, c, range(c))


def oracle_linear_solve(matrix, b):
    """Integer solution of matrix * x = b as the full product V*y, with
    y_i = (U*b)_i / d_i from the oracle diagonalization U*A*V = D; None if
    none."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    u, d, v = oracle_diagonalize(matrix)
    diag = [d[i][i] for i in range(min(rows, cols))]
    ub = [sum(uij * int(bj) for uij, bj in zip(row, b)) for row in u]
    y = [0] * cols
    for i in range(rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
    return [sum(vij * yj for vij, yj in zip(row, y)) for row in v]


class OracleRationalRowSolver:
    """Integer-solution solver for a matrix of Fractions: each row scaled by
    the lcm of its entries' denominators, targets scaled the same way and
    solved by `oracle_linear_solve`."""

    def __init__(self, rows):
        self.scales = []
        self._scaled = []
        for row in rows:
            s = math.lcm(*(Fraction(v).denominator for v in row))
            self.scales.append(s)
            self._scaled.append([int(Fraction(v) * s) for v in row])

    def solve(self, b):
        if len(b) != len(self.scales):
            raise ValueError("right-hand side has the wrong length")
        bi = []
        for s, v in zip(self.scales, b):
            w = Fraction(v) * s
            if w.denominator != 1:
                return None
            bi.append(int(w))
        return oracle_linear_solve(self._scaled, bi)


def membership_columns(solver):
    """A MembershipSolver's column values, monomial times generator in the
    solver's column order, as scalar products."""
    columns = []
    for vec in solver.exponents:
        mono = Rational(1)
        for pid, exp in enumerate(vec):
            if exp:
                mono = mono * solver.projections[pid] ** exp
        columns += [mono * gen for gen in solver.generators]
    return columns


def param_coordinate_rows(values):
    """(D, rows): the monic lcm D of the denominators of parametric scalars,
    and for each value the coefficients of D*value, zero-padded to one width."""
    ps = [v if isinstance(v, ParamRational) else ParamRational.from_rational(v.as_fraction()) for v in values]
    common = ONE
    for p in ps:
        common = lcm(common, p.den)
    polys = []
    for p in ps:
        mult, rem = divmod_(common, p.den)
        assert not rem
        polys.append(mul(p.num, mult))
    width = max((len(q) for q in polys), default=1)
    return common, [list(q) + [Fraction(0)] * (width - len(q)) for q in polys]


def oracle_param_membership(solver, target):
    """Certificate for target over the columns of a parametric MembershipSolver,
    from a coordinate matrix assembled over the target and the columns together."""
    _, rows = param_coordinate_rows([target] + membership_columns(solver))
    matrix = [list(col) for col in zip(*rows[1:])]
    solution = OracleRationalRowSolver(matrix).solve(rows[0])
    return None if solution is None else _certificate_of_solution(solver, solution)


def _certificate_of_solution(solver, solution):
    n = len(solver.generators)
    terms = tuple(
        CertTerm(
            generator=i % n,
            monomial=tuple((pid, e) for pid, e in enumerate(solver.exponents[i // n]) if e),
            coefficient=c,
        )
        for i, c in enumerate(solution)
        if c
    )
    return Certificate(product=None, terms=terms, degree_bound=solver.degree_bound)


def oracle_cyclotomic_membership(solver, target):
    """Certificate for target over the columns of a numeric MembershipSolver,
    from a matrix of Fraction coordinates at the lcm of the columns' and the
    target's orders, every value embedded there separately."""
    values = [target] + membership_columns(solver)
    order = 1
    for v in values:
        if isinstance(v, CyclotomicElement):
            order = math.lcm(order, v.order)

    def row(v):
        if not isinstance(v, CyclotomicElement):
            v = CyclotomicElement.from_rational(v.as_fraction(), order)
        return list(v.embed(order).coeffs)

    rows = [row(v) for v in values]
    matrix = [list(col) for col in zip(*rows[1:])]
    solution = OracleRationalRowSolver(matrix).solve(rows[0])
    return None if solution is None else _certificate_of_solution(solver, solution)


def oracle_offset_multipliers(angles):
    """Per direction pair, in `pairs` order, the scalars (x, y, y') of the
    line offsets U_p = x*conj(p) - y*p and V_q = x*conj(q) - y'*q: a
    bracket, its inverse and three products."""
    out = []
    for alpha, beta in angles.pairs():
        a, b = alpha.value, beta.value
        inv = bracket(a, b).inv()
        out.append((a * b * inv, a.conj() * b * inv, a * b.conj() * inv))
    return out


def oracle_slide(gamma):
    """x = gamma/(conj(gamma) - gamma), with which a projection along gamma
    is -(w + conj(w)) for w = x*conj(z)."""
    g = gamma.value
    return g * (g.conj() - g).inv()


def oracle_project_to_real_axis(z, along):
    """Slide z to the real axis along `along` with one intersect call."""
    return intersect(UnitAngle.real_axis(), along, Rational(0), z)


def oracle_elementary_monomials(angles):
    """intersect(alpha, beta, 0, 1) over ordered direction pairs, the first
    ordered pair producing a value naming it."""
    out = {}
    for a, b in angles.pairs():
        for alpha, beta in ((a, b), (b, a)):
            v = intersect(alpha, beta, Rational(0), Rational(1))
            out.setdefault(v.canonical_key(), ElementaryMonomial(alpha, beta, v))
    return tuple(out.values())


def oracle_nontrivial_monomials(angles):
    """intersect(nu_i, nu_j, 0, 1) over non-axis pairs i < j, without 0 and 1."""
    out = {}
    nu = angles.non_unit()
    for i in range(len(nu)):
        for j in range(i + 1, len(nu)):
            v = intersect(nu[i], nu[j], Rational(0), Rational(1))
            if v == 0 or v == 1:
                continue
            out.setdefault(v.canonical_key(), ElementaryMonomial(nu[i], nu[j], v))
    return tuple(out.values())


def oracle_projection_set(angles):
    """The projection set with one intersect call per projection."""
    nu = angles.non_unit()
    all_proj = {Rational(0).canonical_key(): Rational(0), Rational(1).canonical_key(): Rational(1)}
    for e in oracle_elementary_monomials(angles):
        for gamma in nu:
            v = oracle_project_to_real_axis(e.value, gamma)
            all_proj.setdefault(v.canonical_key(), v)
    nontrivial = {}
    for e in oracle_nontrivial_monomials(angles):
        for gamma in nu:
            v = oracle_project_to_real_axis(e.value, gamma)
            if v == 0 or v == 1:
                continue
            nontrivial.setdefault(v.canonical_key(), v)
    x = family = None
    if len(nu) == 3 and angles.contains_one():
        u, v_mid, w = nu
        cand = oracle_project_to_real_axis(intersect(u, w, Rational(0), Rational(1)), v_mid)
        if cand != 0 and cand != 1:
            x = cand
            orbit = (x, oracle_inv(x), x * oracle_inv(x - 1))
            family = orbit + tuple(1 - f for f in orbit)
    order = lambda d: tuple(d[k] for k in sorted(d))
    return ProjectionSet(
        projections=order(all_proj), nontrivial=order(nontrivial), x=x, family=family
    )


def oracle_vector_projection_set(angles):
    """The projection set in one pass on the vectors of the elementary
    table, as `construction.projection_set` built it before P had a builder
    of its own: every elementary value projected along every direction,
    with the order of each distinct nontrivial value noted in the same
    pass.  The family is not checked against the projections."""
    nu = angles.non_unit()
    field, d, multipliers, elementary, nontrivial = angles._elementary_table()
    if angles.contains_one():
        s, slides = d, multipliers[: len(nu)]
    else:
        s, slides = pair_multipliers([(UnitAngle.real_axis(), g) for g in nu], field)
    zero = (0,) * field.degree
    den = d * s
    one = (den,) + zero[1:]
    along, table = {}, {}
    for mono, (_, _, order) in elementary.items():
        conj = field.conj(mono)
        along[mono] = row = []
        for slide, _, _, g_order in slides:
            w = field.mul(slide, conj)
            v = tuple(-(p + q) for p, q in zip(w, field.conj(w)))
            row.append(v)
            if v != zero and v != one:
                table.setdefault(v, [math.lcm(order, g_order), None])
    for mono, (_, _, order) in nontrivial.items():
        for v, (_, _, _, g_order) in zip(along[mono], slides):
            if v != zero and v != one and table[v][1] is None:
                table[v][1] = math.lcm(order, g_order)
    all_proj = {Rational(0).canonical_key(): Rational(0), Rational(1).canonical_key(): Rational(1)}
    nontrivial_proj = {}
    for v, (order, nt_order) in table.items():
        value = field.element(v, den, order)
        key = value.canonical_key()
        all_proj[key] = value
        if nt_order is not None:
            nontrivial_proj[key] = value if nt_order == order else field.element(v, den, nt_order)
    x = family = None
    if len(nu) == 3 and angles.contains_one():
        x1, _, y2, order = multipliers[4]
        cand = along[tuple(y - z for y, z in zip(y2, x1))][1]
        if cand != zero and cand != one:
            x = field.element(cand, den, math.lcm(order, slides[1][3]))
            orbit = (x, x.inv(), x * (x - 1).inv())
            family = orbit + tuple(1 - f for f in orbit)
    by_key = lambda values: tuple(values[k] for k in sorted(values))
    return ProjectionSet(
        projections=by_key(all_proj), nontrivial=by_key(nontrivial_proj), x=x, family=family
    )


def oracle_evaluate_certificate(cert, generators, projections):
    """Sum of coefficient * generator * product of projection powers, term by
    term on scalars."""
    total = Rational(0)
    for term in cert.terms:
        value = generators[term.generator] * term.coefficient
        for pid, exp in term.monomial:
            value = value * projections[pid] ** exp
        total = total + value
    return total


# -- density ----------------------------------------------------------------------


def oracle_refined_sign(x, imag=False):
    """Sign of the real or imaginary part of a nonzero numeric scalar from
    its complex interval enclosure (`to_interval`) at doubling precision,
    from 64 bits up to 2**20."""
    bits = 64
    while bits <= 1 << 20:
        iv = x.to_interval(bits)
        lo, hi = iv.imag_bounds() if imag else iv.real_bounds()
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2
    raise PrecisionError("sign of nonzero part did not resolve")


def oracle_real_sign(x):
    """Exact sign of a real scalar: exact zero and rational tests, then
    `oracle_refined_sign`."""
    if x.is_zero():
        return 0
    if x.is_rational():
        return 1 if x.as_fraction() > 0 else -1
    return oracle_refined_sign(x)


def oracle_ceil_exact(x):
    """Ceiling of a real scalar, refining its interval enclosure until it is
    narrower than 1 and taking at most two unit steps up from ceil(lo), each
    an exact sign test of x - n (`oracle_real_sign`)."""
    if x.is_rational():
        return math.ceil(x.as_fraction())
    bits = 64
    while True:
        lo, hi = x.to_interval(bits).real_bounds()
        if hi - lo < 1:
            break
        bits *= 2
    n = math.ceil(lo)
    for _ in range(2):
        if oracle_real_sign(x - n) <= 0:
            return n
        n += 1
    raise AssertionError("ceiling above an enclosure narrower than 1")


def oracle_least_exponent(p, c, half):
    """Least n >= 0 with half - c*p**n > 0, testing n = 0, 1, 2, ... in turn."""
    n = 0
    while real_sign(half - c * p**n) <= 0:
        n += 1
    return n


ORACLE_BACKENDS = (Rational, CyclotomicElement, ParamRational)


def oracle_coerce(a, b):
    """Scalars a and b in one backend: the later of the two in
    `ORACLE_BACKENDS`, into which the other is promoted (`oracle_promote`)."""
    if type(a) is type(b):
        return a._merge(b)
    rank = ORACLE_BACKENDS.index
    if rank(type(a)) > rank(type(b)):
        return a, oracle_promote(b, a)
    return oracle_promote(a, b), b


def oracle_promote(r, into):
    """A rational value r in the backend of `into`, by its `from_rational`
    (at the order of `into`, for a cyclotomic one); a non-rational r raises
    BackendMismatchError."""
    if not r.is_rational():
        names = type(into).__name__, type(r).__name__
        raise BackendMismatchError("cannot combine %s with %s" % names)
    if isinstance(into, CyclotomicElement):
        return CyclotomicElement.from_rational(r.as_fraction(), into.order)
    return ParamRational.from_rational(r.as_fraction())


def oracle_combine(op, a, b):
    """a op b for op one of + - * / ==, on the general path of mixed
    operands: an int or Fraction made a Rational, both brought into one
    backend (`oracle_coerce`), then combined by the `_same` hooks; values of
    two backends that do not combine are equal when their canonical keys
    are."""
    a, b = (Rational(v) if isinstance(v, (int, Fraction)) else v for v in (a, b))
    try:
        x, y = oracle_coerce(a, b)
    except BackendMismatchError:
        if op == "==":
            return a.canonical_key() == b.canonical_key()
        raise
    if op == "==":
        return x._eq_same(y)
    if op == "+":
        return x._add_same(y)
    if op == "-":
        return x._add_same(y.neg())
    if op == "*":
        return x._mul_same(y)
    return x._mul_same(y.inv())


def stored_form(x):
    """What a scalar stores: its backend and its canonical integers (order,
    numerators and denominator, or the polynomial pair N, D); other values
    as they are."""
    if isinstance(x, CyclotomicElement):
        return "cyclotomic", x.order, x._num, x._den
    if isinstance(x, ParamRational):
        return "param", x._n, x._d
    if isinstance(x, Rational):
        return "rational", type(x.value), x.value.numerator, x.value.denominator
    return x


def oracle_witness(target_re, target_im, epsilon, angles):
    """The witness a*p**N1 + b*p**N2*z with the least exponents, from the
    scans and the enclosure ceilings above."""
    target_re, target_im, epsilon = Fraction(target_re), Fraction(target_im), Fraction(epsilon)
    p = find_scaling_projection(oracle_projection_set(angles).nontrivial)
    z = min(
        (m.value for m in oracle_nontrivial_monomials(angles) if not m.value.is_real()),
        key=lambda v: v.canonical_key(),
    )
    re_z, im_z = real_imag_parts(z)
    abs_im = im_z if real_sign(im_z) > 0 else -im_z
    half = epsilon / 2
    n2 = oracle_least_exponent(p, abs_im, half)
    b = oracle_ceil_exact(target_im * oracle_inv(im_z * p**n2))
    n1 = oracle_least_exponent(p, Rational(1), half)
    a = oracle_ceil_exact((target_re - b * p**n2 * re_z) * oracle_inv(p**n1))
    value = a * p**n1 + b * p**n2 * z
    return DensityWitness(
        target_re=target_re, target_im=target_im, epsilon=epsilon, p=p, z=z,
        a=a, b=b, n1=n1, n2=n2, value=value,
    )
