"""Equivariant Euler characteristics of spaces of distinct points on a line.

The degree-n piece of :func:`a0_series` is the symmetric-group-equivariant
compactly-supported Euler characteristic of the space of configurations of
n distinct labelled points on the projective line modulo Aut(P^1), with
coefficients written as polynomials in the Lefschetz class L.

The trace of a permutation of cycle type lam is found by counting twisted
fixed points over a finite field with q elements and reading the count as
a polynomial in q.  A configuration fixed by a cycle type lam corresponds
to a choice, for each part d of lam, of a closed point of degree d of P^1
together with a starting phase on its Frobenius orbit, all points distinct;
PGL_2(F_q), which acts freely on such configurations once n >= 3, has
order q^3 - q.  Writing m_d(q) for the number of degree-d closed points,

    trace(lam) = prod_d d^(m-th falling factorials of m_d(q)) / (q^3 - q)

with one falling-factorial step per repeated part.  The division is exact
in Q[q]; a nonzero remainder would mean the formula is being misused and
raises immediately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import symfunc as sf
from .combinatorics import (
    Partition,
    divisors,
    moebius,
    partitions_of,
    z_of,
)
from .motive import MotiveClass

# Polynomials in q are dense coefficient lists, constant term first.


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(out)


def _poly_scale(a, c):
    return _poly_trim([x * c for x in a])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divexact(num, den):
    """Exact polynomial division; a nonzero remainder is a hard failure."""
    num = list(num)
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while _poly_trim(num) and len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        out[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _poly_trim(num)
    if _poly_trim(num):
        raise ArithmeticError("twisted point-count division was not exact")
    return _poly_trim(out)


def _poly_eval(p, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def _poly_to_motive(p) -> MotiveClass:
    return MotiveClass(tate={j: c for j, c in enumerate(p) if c})


@cache
def _closed_point_poly(d: int) -> tuple[Fraction, ...]:
    # number of closed points of degree d on P^1 over F_q:
    # (1/d) sum_{e | d} mu(d/e) (q^e + 1)
    total: list[Fraction] = []
    for e in divisors(d):
        term = [Fraction(1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
        total = _poly_add(total, _poly_scale(term, Fraction(moebius(d // e), d)))
    return tuple(total)


def closed_point_count(d: int) -> MotiveClass:
    """Number of degree-d closed points of P^1, as a polynomial in L."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _poly_to_motive(_closed_point_poly(d))


@cache
def twisted_count_poly(lam) -> tuple[Fraction, ...]:
    """Trace polynomial of a cycle-type-lam permutation on the degree-n piece.

    Exposed separately so the finite-field oracle can compare against it
    value by value.
    """
    lam = Partition(lam)
    if lam.size < 3:
        raise ValueError("needs at least 3 points")
    num = [Fraction(1)]
    for d, m in lam.multiplicities().items():
        md = list(_closed_point_poly(d))
        for t in range(m):
            factor = _poly_add(md, [Fraction(-t)])
            factor = _poly_scale(factor, Fraction(d))
            num = _poly_mul(num, factor)
    den = [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]  # q^3 - q
    return tuple(_poly_divexact(num, den))


@cache
def a0_series(max_degree: int) -> sf.SymSeries:
    """Equivariant e_c of n distinct points on P^1 mod PGL_2, degrees 3..N."""
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    terms = {}
    for n in range(3, max_degree + 1):
        for lam in partitions_of(n):
            coeff = _poly_to_motive(twisted_count_poly(lam))
            if not coeff.is_zero():
                terms[lam] = coeff * Fraction(1, z_of(lam))
    return sf.SymSeries(max_degree, terms)


@cache
def a0_first_derivative(max_degree: int) -> sf.SymSeries:
    return a0_series(max_degree + 1).p_derivative(1)


@cache
def a0_second_derivative(max_degree: int) -> sf.SymSeries:
    return a0_series(max_degree + 2).p_derivative(1).p_derivative(1)


@cache
def a0_p2_derivative(max_degree: int) -> sf.SymSeries:
    return a0_series(max_degree + 2).p_derivative(2)


# ---------------------------------------------------------------------------
# The characteristic of the Lie operad, for cross-checking a0.


@cache
def ch_lie(max_degree: int) -> sf.SymSeries:
    """sum_{n>=3} ch_n of Lie((n)): (1-p_1) sum mu(n)/n log(1-p_n) + h_1 - h_2."""
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    n = max_degree
    total = sf.zero(n)
    for m in range(1, n + 1):
        mm = moebius(m)
        if mm:
            total = total + sf.log_one_minus(sf.power_sum(m, n)).scaled(Fraction(mm, m))
    lie = (sf.one(n) - sf.power_sum(1, n)) * total + sf.complete(1, n) - sf.complete(2, n)
    return lie


@cache
def signed_lie(max_degree: int) -> sf.SymSeries:
    """Alternating sum of the sign-twisted Lie characteristics.

    sum_n (-1)^(n-3) ch_n(sgn (x) Lie((n))); equals ch_lie with p_k -> -p_k
    followed by a global sign.
    """
    lie = ch_lie(max_degree)
    return sf.SymSeries(
        max_degree,
        {lam: c * (-1) ** (lam.rows + 1) for lam, c in lie.items()},
    )


# ---------------------------------------------------------------------------
# Fixed point series for the boundary composition.


@cache
def b0_prime(max_degree: int) -> sf.SymSeries:
    """Unique solution of b = a0' o (h_1 + b), degrees 2..N.

    The degree-t piece of the right side only involves degrees < t of b,
    so the fixed point is found degree by degree; the closing assertion
    reverifies the full equation at once.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    n = max_degree
    a0p = a0_first_derivative(n)
    terms: dict[Partition, MotiveClass] = {}
    for t in range(2, n + 1):
        cur = sf.SymSeries(t, {l: c for l, c in terms.items() if l.size <= t})
        g = sf.complete(1, t) + cur
        rhs = a0p.truncate(t).plethysm(g)
        for lam, c in rhs.degree_terms(t).items():
            terms[lam] = c
    b = sf.SymSeries(n, terms)
    if a0p.plethysm(sf.complete(1, n) + b) != b:
        raise RuntimeError("fixed-point solve failed to close")
    return b


# ---------------------------------------------------------------------------
# Cohomology of the open configuration spaces as representations.


def poincare_schur(n: int):
    """Schur constituents of H^i of the degree-n open configuration space.

    Returns a list indexed by i = 0..n-3 of dicts mapping partitions to
    nonnegative integer multiplicities.  H^i is Tate of weight 2(n-3-i)
    in compact support, so as a representation it is (-1)^i times the
    L^(n-3-i) layer of the degree-n piece of a0.
    """
    if not 3 <= n <= 10:
        raise ValueError("poincare_schur supports 3 <= n <= 10")
    piece = sf.SymSeries(n, a0_series(n).degree_terms(n))
    out = []
    for i in range(n - 2):
        layer = piece.tate_layer(n - 3 - i)
        table = layer.to_schur(n)
        rep: dict[Partition, int] = {}
        for lam, c in table.items():
            v = c.as_rational() * (-1) ** i
            if v.denominator != 1 or v < 0:
                raise RuntimeError(
                    f"H^{i} of the {n}-point space is not an honest representation"
                )
            if v:
                rep[lam] = int(v)
        out.append(rep)
    return out
