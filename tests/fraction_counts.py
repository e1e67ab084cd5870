"""Twisted point counts in dense Fraction polynomials: the test oracle.

The package computes the trace polynomials of ``cuspmotive.genus0`` over
the integers, sharing each partition's numerator with its prefixes.  This
module is the independent reference the tests compare it against: every
partition multiplies out its whole numerator afresh, with the closed-point
counts m_d(q) = (1/d) sum_{e | d} mu(d/e) (q^e + 1) kept as rational
polynomials, and divides by q^3 - q with long division over Q.

Polynomials are lists of Fractions, constant term first, with no trailing
zeros.
"""

from __future__ import annotations

from fractions import Fraction

from cuspmotive.combinatorics import Partition, divisors, moebius


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_scale(a, c):
    return _trim([x * c for x in a])


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_divexact(num, den):
    """Long division over Q; a nonzero remainder raises ArithmeticError."""
    num = _trim(list(num))
    out = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while num and len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        out[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _trim(num)
    if num:
        raise ArithmeticError("division was not exact")
    return _trim(out)


def closed_point_poly(d: int) -> list[Fraction]:
    """m_d(q), the number of degree-d closed points of P^1 over F_q."""
    total: list[Fraction] = []
    for e in divisors(d):
        term = [Fraction(1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
        total = poly_add(total, poly_scale(term, Fraction(moebius(d // e), d)))
    return total


def twisted_count_poly(lam) -> list[Fraction]:
    """prod_d prod_{t < r_d} d (m_d(q) - t) / (q^3 - q), recomputed in full."""
    num = [Fraction(1)]
    for d, m in Partition(lam).multiplicities().items():
        md = closed_point_poly(d)
        for t in range(m):
            factor = poly_scale(poly_add(md, [Fraction(-t)]), Fraction(d))
            num = poly_mul(num, factor)
    return poly_divexact(num, [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
