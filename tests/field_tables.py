"""Finite fields by tabulating powers of x: the test oracle.

``cuspmotive.verification`` certifies a modulus f of GF(p^k) = F_p[x]/(f)
by checking that x has order exactly p^k - 1 with a few powers computed by
square-and-multiply.  This module is the direct reference: it multiplies
by x, one shift-and-reduce at a time, through every power, and accepts f
only when it sees p^k - 1 distinct nonzero powers before returning to 1.

A modulus is given by its low coefficients ``tail``, so that
f = x^k + sum_i tail[i] x^i.  The points of exact degree d over F_(p^e)
are listed by stepping Frobenius from each discrete logarithm in turn,
where the package walks each orbit once.
"""

from __future__ import annotations

from itertools import product


def exponent_table(p: int, tail) -> tuple[tuple[int, ...], ...] | None:
    """Powers x^0 .. x^(p^k - 2) modulo f, or None when x is not primitive."""
    k = len(tail)
    order = p**k - 1
    one = (1,) + (0,) * (k - 1)

    def times_x(cur):
        head = cur[-1]
        cur = (0,) + cur[:-1]
        if head:
            cur = tuple((c - head * t) % p for c, t in zip(cur, tail))
        return cur

    table = [one]
    cur = one
    for _ in range(order - 1):
        cur = times_x(cur)
        if cur == one:
            return None
        table.append(cur)
    if times_x(cur) != one or len(set(table)) != order:
        return None
    return tuple(table)


def first_primitive_modulus(p: int, k: int) -> tuple[int, ...]:
    """The first tail, in the package's search order, that the table accepts."""
    for tail in product(range(p), repeat=k):
        if tail[0] and exponent_table(p, tail) is not None:
            return tail
    raise RuntimeError(f"no generator found for GF({p}^{k})")


def frobenius_point_ids(p: int, e: int, d: int):
    """(point, orbit id) pairs as ``verification._exact_degree_point_ids``
    lists them: for each index i of GF(p^(e*d))^*, the orbit size by
    stepping i -> i q, and the least index over d steps as the orbit id."""
    q = p**e
    order = p ** (e * d) - 1
    pts = []
    for i in range(order):
        s, j = 1, (i * q) % order
        while j != i and s <= d:
            j = (j * q) % order
            s += 1
        if s == d:
            oid = min((i * pow(q, t, order)) % order for t in range(d))
            pts.append((("e", i), ("o", oid)))
    if d == 1:
        pts += [(("zero",), ("zero",)), (("inf",), ("inf",))]
    return pts
