"""Dense univariate polynomial helpers.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.

Over Q (tuples of Fraction), `trim` and `divmod_` reduce by cyclotomic
polynomials.  Over Z (tuples of int), the `z`-prefixed helpers carry the
parametric backend: sums, products, exact division and a primitive
pseudo-remainder gcd, all in integer arithmetic (Knuth, TAOCP vol. 2,
4.6.1; Cohen, A Course in Computational Algebraic Number Theory, 3.3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Poly = tuple


def trim(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    # degree of the zero polynomial reported as -1
    return len(p) - 1


def divmod_(p: Poly, q: Poly) -> tuple[Poly, Poly]:
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


# -- integer polynomials ---------------------------------------------------------


def ztrim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def zadd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return ztrim(out)


def zmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    if len(q) == 1:
        c = q[0]
        return p if c == 1 else tuple(a * c for a in p)
    if len(p) == 1:
        return zmul(q, p)
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)  # leading coefficient is a product of nonzeros


def primitive(p: Poly) -> Poly:
    """p divided by the gcd of its coefficients, leading coefficient kept in sign."""
    c = gcd(*p)
    return p if c == 1 else tuple(a // c for a in p)


def zdiv(p: Poly, q: Poly) -> Poly | None:
    """Exact quotient p / q in Z[x], or None when q does not divide p there.

    For a primitive q this is divisibility in Q[x] as well (Gauss's lemma).
    """
    nq = len(q)
    if len(p) < nq:
        return None if p else ()
    rem = list(p)
    lead = q[-1]
    quo = [0] * (len(p) - nq + 1)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + nq - 1], lead)
        if r:
            return None
        if c:
            quo[k] = c
            for j in range(nq - 1):
                rem[k + j] -= c * q[j]
    if any(rem[: nq - 1]):
        return None
    return tuple(quo)


def _prem(a: Poly, b: Poly) -> list:
    """Pseudo-remainder of a by b (len(a) >= len(b) >= 2), up to a unit scale."""
    rem = list(a)
    lead = b[-1]
    nb = len(b)
    while len(rem) >= nb:
        top = rem.pop()
        k = len(rem) + 1 - nb
        if lead != 1:
            rem = [lead * c for c in rem]
        for j in range(nb - 1):
            rem[k + j] -= top * b[j]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def zgcd(p: Poly, q: Poly) -> Poly:
    """Primitive gcd of two nonzero polynomials, positive leading coefficient."""
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        return (1,)
    p, q = primitive(p), primitive(q)
    while True:
        r = _prem(p, q)
        if not r:
            break
        if len(r) == 1:
            return (1,)
        p, q = q, primitive(r)
    return q if q[-1] > 0 else tuple(-c for c in q)


def zlcm(p: Poly, q: Poly) -> Poly:
    """Least common multiple of two primitive polynomials with positive
    leading coefficients, itself primitive with a positive leading coefficient."""
    return zmul(p, zdiv(q, zgcd(p, q)))
