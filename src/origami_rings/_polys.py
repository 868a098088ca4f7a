"""Dense univariate integer polynomials.

Polynomials are tuples of int coefficients in ascending degree order with no
trailing zeros; the zero polynomial is the empty tuple.  These helpers are
the integer kernel of the parametric backend: sums, products, exact
division and a primitive pseudo-remainder gcd, all in integer arithmetic
(Knuth, TAOCP vol. 2, 4.6.1; Cohen, A Course in Computational Algebraic
Number Theory, 3.3).  Exact division also gives the cyclotomic polynomials.
"""

from __future__ import annotations

from math import gcd

Poly = tuple


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
