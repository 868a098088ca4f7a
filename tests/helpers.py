"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
line intersection is re-derived from a 2x2 real linear solve, the closure
step from one intersect call per ordered point pair, quadratic
integrality from expanding (X - x)(X - conj(x)), lattice comparison from
brute-force enumeration of truncated lattices.  The integer solve multiplies
out the dense V*y, and membership assembles a fresh coordinate matrix for
every target: parametric targets over the target's and the columns'
denominators, cyclotomic ones at the lcm of the target's and the columns'
orders.  Cyclotomic reduction is a Fraction polynomial division by Phi_n
(`oracle_reduce`).  Parametric arithmetic is redone over Q with a Fraction
polynomial Euclid on every operation (`oracle_param_*`).  Interval
enclosures are redone with mpmath's ivmpf operators (`OracleInterval`),
without shared caches.
"""

import math
from fractions import Fraction

from mpmath import make_mpf, mp, nstr

from origami_rings import (
    CapExceededError,
    CyclotomicElement,
    GenerationSet,
    ParamRational,
    PrecisionError,
    Rational,
    UnitAngle,
    bracket,
    euler_phi,
    intersect,
    real_imag_parts,
    root_of_unity,
)
from origami_rings.analysis import Certificate, CertTerm
from origami_rings.diophantine import RationalRowSolver, diagonalize
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

    def __neg__(self):
        return OracleInterval(-self.re, -self.im, self.prec)

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

    def conj(self):
        return OracleInterval(self.re, -self.im, self.prec)

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


def quadratic_oracle(x):
    """Coefficients of (X - x)(X - conj(x)) if both are integers, else None."""
    s = x + x.conj()
    n = x * x.conj()
    if not (s.is_rational() and n.is_rational()):
        return None
    if not (s.is_integer() and n.is_integer()):
        return None
    # x*x = s*x - n, so the (lam, mu) convention is x^2 = lam*x + mu.
    return int(s.as_fraction()), int(-n.as_fraction())


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


def oracle_linear_solve(matrix, b):
    """Integer solution of matrix * x = b as the full product V*y, with
    y_i = (U*b)_i / d_i from the diagonalization U*A*V = D; None if none."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    u, d, v = diagonalize(matrix)
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
    _, rows = param_coordinate_rows([target] + list(solver.columns))
    matrix = [list(col) for col in zip(*rows[1:])]
    solution = RationalRowSolver(matrix).solve(rows[0])
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
    values = [target] + list(solver.columns)
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
    solution = RationalRowSolver(matrix).solve(rows[0])
    return None if solution is None else _certificate_of_solution(solver, solution)
