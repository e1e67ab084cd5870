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
order q^3 - q.  Writing m_d(q) for the number of degree-d closed points
and r_d for the number of parts of lam equal to d,

    trace(lam) = prod_d prod_{t < r_d} (d m_d(q) - d t) / (q^3 - q).

Each factor is a monic polynomial in Z[q], since
d m_d(q) = sum_{e | d} mu(d/e) (q^e + 1).  The division by the monic
q^3 - q is exact in Z[q]; a nonzero remainder would mean the formula is
being misused and raises immediately.

The series :func:`a0_series` is stored by exactly these traces, integer
polynomials, so building it makes no Fraction (:mod:`~cuspmotive.symfunc`).
They come from one depth-first walk of the partitions, each node a
prefix that carries its product and each child one more factor.  The
division happens where a prefix first reaches size 3, 21 times at
N = 20 for 2,710 traces; below such a node a quotient times a factor is
the child's trace.  :func:`twisted_count_poly` is the second route, one
partition at a time with its own division.  The p-derivatives of a0 are
index shifts of the same traces; a0' has trace
``twisted_count_poly(mu + (1,))`` on mu.

The boundary needs only the alternating images of the derivatives a0',
a0'' (both in p_1) and a0dot (in p_2).  Over every cycle type at once the
twisted counts form Getzler's cycle-index product prod_d (1 + p_d)^(m_d),
whose Alt is (1 + t)(1 + qt); :func:`a0_alt_derivatives` reads the three
images off it in Z[q][[t]], each degree cached once for every truncation
and no partition walked, and hands them to ``AltSeries`` as integer
polynomials over the denominators 1, 1 and 2, so no ``MotiveClass`` or
Fraction is made on the way.  :func:`b0_prime` is solved one cached
degree at a time, each degree one integer plethysm a0' o (h_1 + b).  The
``SymSeries`` derivatives :func:`a0_first_derivative`,
:func:`a0_second_derivative` and :func:`a0_p2_derivative` serve b0', the
boundary series and the reference route of the battery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import symfunc as sf
from .combinatorics import Partition, divisors, moebius, partitions_of

# Polynomials in q are tuples of integer coefficients, constant term first.


@cache
def _closed_point_poly(d: int) -> tuple[int, ...]:
    # d times the number of closed points of degree d on P^1 over F_q:
    # sum_{e | d} mu(d/e) (q^e + 1)
    out = [0] * (d + 1)
    for e in divisors(d):
        mu = moebius(d // e)
        out[0] += mu
        out[e] += mu
    return tuple(out)


@cache
def _point_factor(d: int, t: int) -> tuple[int, ...]:
    """d m_d(q) - d t: the factor of a part d with t equal parts ahead of it."""
    factor = list(_closed_point_poly(d))
    factor[0] -= d * t
    return tuple(factor)


def _divide_by_q3_minus_q(num) -> tuple[int, ...]:
    """Exact quotient of an integer polynomial by q^3 - q.

    Synthetic division by the monic divisor stays in Z[q]; a nonzero
    remainder is a hard failure.
    """
    rem = list(num)
    quot = [0] * max(len(rem) - 3, 0)
    for i in range(len(rem) - 1, 2, -1):
        quot[i - 3] = rem[i]
        rem[i - 2] += rem[i]
    if any(rem[:3]):
        raise ArithmeticError("twisted point-count division was not exact")
    return tuple(quot)


@cache
def twisted_count_poly(lam) -> tuple[int, ...]:
    """Trace polynomial of a cycle-type-lam permutation on the degree-n piece.

    Integer coefficients, constant term first: one factor per part, then
    one division.  This per-partition route is independent of the walk
    in :func:`a0_series`, so the finite-field oracle and the tests can
    compare against it value by value.
    """
    lam = Partition(lam)
    if lam.size < 3:
        raise ValueError("needs at least 3 points")
    num, t = (1,), 0
    for i, d in enumerate(lam):
        t = t + 1 if i and lam[i - 1] == d else 0
        num = sf._poly_mul(_point_factor(d, t), num)
    return _divide_by_q3_minus_q(num)


def _walked_traces(max_degree: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The trace of every partition of size 3..N, from one depth-first walk.

    A node is a weakly decreasing tuple of parts and carries its product
    of factors; a child appends a part d no larger than the last, so the
    t of its factor is the run of d ending the parent.  The product is
    divided by q^3 - q where a prefix first reaches size 3, and from
    there on each child's trace is its parent's trace times the factor.
    """
    traces = {}

    def visit(parts, size, poly, run):
        top = parts[-1] if parts else max_degree
        for d in range(min(top, max_degree - size), 0, -1):
            t = run if d == top else 0
            child, grown = parts + (d,), size + d
            p = sf._poly_mul(_point_factor(d, t), poly)
            if grown >= 3:
                if size < 3:
                    p = _divide_by_q3_minus_q(p)
                traces[child] = p
            visit(child, grown, p, t + 1)

    visit((), 0, (1,), 0)
    return traces


@cache
def a0_series(max_degree: int) -> sf.SymSeries:
    """Equivariant e_c of n distinct points on P^1 mod PGL_2, degrees 3..N.

    Its trace on the class lam is ``twisted_count_poly(lam)``, read off
    one walk over the partitions and stored in the series' key order.
    """
    if max_degree < 3:
        raise ValueError("max_degree must be >= 3")
    walked = _walked_traces(max_degree)
    return sf.SymSeries._make(
        max_degree,
        {0: {lam: walked[lam] for n in range(3, max_degree + 1) for lam in partitions_of(n)}},
    )


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
# Alt of a0 and its derivatives from the cycle-index product formula.


@cache
def _alt_product_layer(n: int) -> tuple[tuple[int, ...], ...]:
    """[t^n] of Alt(F), Alt(F)/(1 + t), Alt(F)/(1 + t)^2 and Alt(F)/(1 - t^2) in Z[q].

    F = prod_d (1 + p_d)^(m_d) sums the twisted counts of distinct points
    on P^1 over every cycle type (Getzler 1995).  Alt sends p_d to
    (-1)^(d-1) t^d, so log Alt(F) = sum_n (-1)^(n-1) s_n t^n / n with
    s_n = sum_{d | n} d m_d(q), and n [t^n] Alt(F) is
    sum_{k=1..n} (-1)^(k-1) s_k [t^(n-k)] Alt(F), divided exactly by n.
    Each division by 1 + t or 1 - t^2 is a running sum over the layers.
    """
    if n == 0:
        return ((1,),) * 4
    total: tuple[int, ...] = ()
    for k in range(1, n + 1):
        s_k = sf._lincomb((1, _closed_point_poly(d)) for d in divisors(k))
        term = sf._poly_mul(s_k, _alt_product_layer(n - k)[0])
        total = sf._lincomb([(1, total), ((-1) ** (k - 1), term)])
    f = sf._divide_exact(total, n)
    prev = _alt_product_layer(n - 1)
    by_1 = sf._lincomb([(1, f), (-1, prev[1])])
    by_2 = sf._lincomb([(1, f), (1, _alt_product_layer(n - 2)[3] if n >= 2 else ())])
    return f, by_1, sf._lincomb([(1, by_1), (-1, prev[2])]), by_2


@cache
def _alt_derivative_layer(n: int) -> tuple[tuple[int, ...], ...]:
    """[t^n] of Alt(a0'), Alt(a0'') and 2 Alt(a0dot) in Z[q], from the product formula.

    Alt is a ring homomorphism, so Alt(d/dp_1 F) = m_1 Alt(F)/(1 + t),
    Alt(d^2/dp_1^2 F) = m_1 (m_1 - 1) Alt(F)/(1 + t)^2 and
    Alt(d/dp_2 F) = m_2 Alt(F)/(1 - t^2).  a0 is F without its degrees
    below 3, divided by q^3 - q; those degrees reach only t^0 and t^1 of
    the first derivative and t^0 of the others, so Alt(a0') is kept from
    t^2 on.  The factor 2 m_2 = q^2 - q keeps the third in Z[q].
    """
    _, by_1, by_11, by_2 = _alt_product_layer(n)
    m1, two_m2 = _closed_point_poly(1), _closed_point_poly(2)
    first = sf._poly_mul(m1, by_1) if n >= 2 else ()
    second = sf._poly_mul(sf._poly_mul(m1, (m1[0] - 1, *m1[1:])), by_11)
    return tuple(
        _divide_by_q3_minus_q(p) for p in (first, second, sf._poly_mul(two_m2, by_2))
    )


def a0_alt_derivatives(max_degree: int) -> tuple[sf.AltSeries, sf.AltSeries, sf.AltSeries]:
    """Alt(a0'), Alt(a0'') and Alt(a0dot) through t^N, one cached degree at a time.

    Equal to the ``.alt()`` of :func:`a0_first_derivative`,
    :func:`a0_second_derivative` and :func:`a0_p2_derivative`, without
    building those series or walking a partition; every truncation
    shares the lower degrees.  The layers are integer polynomials, and
    the 1/2 of Alt(a0dot) is its series denominator.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    layers = {n: _alt_derivative_layer(n) for n in range(1, max_degree + 1)}
    return tuple(
        sf.AltSeries._make(max_degree, {0: {n: layer[i] for n, layer in layers.items()}}, den)
        for i, den in enumerate((1, 1, 2))
    )


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
    followed by a global sign, so the trace on lam flips by (-1)^(rows + 1).
    """
    lie = ch_lie(max_degree)
    traces = {
        k: {lam: p if lam.rows % 2 else tuple(-c for c in p) for lam, p in ch.items()}
        for k, ch in lie._traces.items()
    }
    return sf.SymSeries._make(max_degree, traces, lie._den)


# ---------------------------------------------------------------------------
# Fixed point series for the boundary composition.


@cache
def _b0_layer(t: int) -> sf.SymSeries:
    """Degree-t part of b0', at truncation t: the degree-t piece of a0' o (h_1 + b).

    That piece only involves the degrees < t of b, which are the earlier
    layers, so each layer is solved once for every truncation.
    """
    g = sf.complete(1, t)
    for s in range(2, t):
        g = g + _b0_layer(s).zero_extended(t)
    return a0_first_derivative(t).plethysm(g).homogeneous(t)


@cache
def b0_prime(max_degree: int) -> sf.SymSeries:
    """Unique solution of b = a0' o (h_1 + b), degrees 2..N.

    Assembled from the cached layers, so b0'(12) is a slice of the work
    done for b0'(14).  The whole equation is re-checked by the acceptance
    battery (criterion 5), not here.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    total = sf.zero(max_degree)
    for t in range(2, max_degree + 1):
        total = total + _b0_layer(t).zero_extended(max_degree)
    return total


# ---------------------------------------------------------------------------
# Cohomology of the open configuration spaces as representations.


def poincare_schur(n: int):
    """Schur constituents of H^i of the degree-n open configuration space.

    Returns a list indexed by i = 0..n-3 of dicts mapping partitions to
    nonnegative integer multiplicities.  H^i is Tate of weight 2(n-3-i)
    in compact support, so as a representation it is (-1)^i times the
    L^(n-3-i) layer of the degree-n piece of a0.  One Schur expansion of
    that piece serves every layer.
    """
    if not 3 <= n <= 10:
        raise ValueError("poincare_schur supports 3 <= n <= 10")
    table = a0_series(n).to_schur(n)
    out = []
    for i in range(n - 2):
        rep: dict[Partition, int] = {}
        for lam, c in table.items():
            v = c.tate_coefficient(n - 3 - i) * (-1) ** i
            if v.denominator != 1 or v < 0:
                raise RuntimeError(
                    f"H^{i} of the {n}-point space is not an honest representation"
                )
            if v:
                rep[lam] = int(v)
        out.append(rep)
    return out
