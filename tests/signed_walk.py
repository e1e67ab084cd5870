"""Alt of a0', a0'' and a0dot by a signed walk over partitions: the test oracle.

The package gets these alternating images from the cycle-index product
formula, one degree at a time in Z[q][[t]], and walks no partition.  This
module is the independent reference the tests compare it against: it sums
the trace polynomials ``genus0.twisted_count_poly`` over every partition
of n + 1 and n + 2, each weighted by the sign of its class and by the
multiplicity of the part the derivative removes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from cuspmotive import genus0, symfunc as sf
from cuspmotive.combinatorics import class_sign, partitions_of, z_of
from cuspmotive.motive import MotiveClass


@cache
def signed_count_sums(size: int) -> tuple[MotiveClass, MotiveClass, MotiveClass]:
    """sum_{lam |- size} w(lam) eps(lam) c_lam for w = m_1, m_1 (m_1 - 1) and -m_2.

    c_lam is the coefficient of p_lam in a0, eps(lam) the sign of the class
    lam and m_d the number of parts d.  Every z_lam divides size!, so each
    sum is kept in integers over that one denominator.
    """
    sums = [[0] * max(size - 2, 0) for _ in range(3)]
    fact = math.factorial(size)
    if size >= 3:
        for lam in partitions_of(size):
            scale = fact // z_of(lam) * class_sign(lam)
            m1, m2 = lam.count(1), lam.count(2)
            poly = genus0.twisted_count_poly(lam)
            for acc, weight in zip(sums, (m1, m1 * (m1 - 1), -m2)):
                w = weight * scale
                if w:
                    for j, c in enumerate(poly):
                        acc[j] += w * c
    return tuple(MotiveClass(tate={j: Fraction(c, fact) for j, c in enumerate(acc)}) for acc in sums)


def alt_derivative_layer(n: int) -> tuple[MotiveClass, MotiveClass, MotiveClass]:
    """[t^n] of Alt(a0'), Alt(a0'') and Alt(a0dot) by the walk.

    Alt sends p_lam to eps(lam) t^|lam|.  d/dp_1 removes a part 1, which
    keeps eps, and d/dp_2 removes a part 2, which flips it; so
    [t^n] Alt(a0') sums m_1 eps c_lam over lam |- n+1, [t^n] Alt(a0'')
    sums m_1 (m_1 - 1) eps c_lam over lam |- n+2, and [t^n] Alt(a0dot)
    sums -m_2 eps c_lam over lam |- n+2.
    """
    return signed_count_sums(n + 1)[0], *signed_count_sums(n + 2)[1:]


def alt_derivatives(max_degree: int) -> tuple[sf.AltSeries, sf.AltSeries, sf.AltSeries]:
    """Alt(a0'), Alt(a0'') and Alt(a0dot) through t^N by the walk."""
    layers = {n: alt_derivative_layer(n) for n in range(1, max_degree + 1)}
    return tuple(
        sf.AltSeries(max_degree, {n: layer[i] for n, layer in layers.items()}) for i in range(3)
    )
