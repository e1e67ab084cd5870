"""Frobenius orbits on exponents by stepping: the test oracle.

A nonzero element of GF(p^k) is g^i for a generator g of the cyclic
group GF(p^k)^*, and Frobenius over F_(p^e) sends the exponent i to i q,
q = p^e.  ``cuspmotive.verification`` walks each orbit once; this module
steps Frobenius from every exponent in turn and takes the least exponent
it meets as the orbit's name.
"""


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
