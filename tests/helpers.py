"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths they check:
line intersection is re-derived from a 2x2 real linear solve, the closure
step from one intersect call per ordered point pair, quadratic
integrality from expanding (X - x)(X - conj(x)), lattice comparison from
brute-force enumeration of truncated lattices.  The integer solve multiplies
out the dense V*y, and parametric membership assembles a fresh coordinate
matrix for every target.
"""

from fractions import Fraction

from origami_rings import (
    CapExceededError,
    CyclotomicElement,
    GenerationSet,
    ParamRational,
    Rational,
    UnitAngle,
    bracket,
    euler_phi,
    intersect,
    real_imag_parts,
    root_of_unity,
)
from origami_rings import _polys
from origami_rings.analysis import Certificate, CertTerm
from origami_rings.diophantine import RationalRowSolver, diagonalize

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
    common = _polys.ONE
    for p in ps:
        common = _polys.lcm(common, p.den)
    polys = []
    for p in ps:
        mult, rem = _polys.divmod_(common, p.den)
        assert not rem
        polys.append(_polys.mul(p.num, mult))
    width = max((len(q) for q in polys), default=1)
    return common, [list(q) + [Fraction(0)] * (width - len(q)) for q in polys]


def oracle_param_membership(solver, target):
    """Certificate for target over the columns of a parametric MembershipSolver,
    from a coordinate matrix assembled over the target and the columns together."""
    _, rows = param_coordinate_rows([target] + list(solver.columns))
    matrix = [list(col) for col in zip(*rows[1:])]
    solution = RationalRowSolver(matrix).solve(rows[0])
    if solution is None:
        return None
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
