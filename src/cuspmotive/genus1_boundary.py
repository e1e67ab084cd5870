"""Boundary contributions of the stable-curve compactification in genus one.

Stable degenerations of a pointed genus-one curve are either irreducible
(a cycle of rational components with trees of rational curves attached)
or carry the genus on a single component.  After composing with the
stabilized tree series h_1 + b0', the full boundary contribution to the
equivariant e_c is assembled from two genus-zero ingredients:

* the necklace series: cycles of rational curves, counted by orbits of
  the rotation action, giving -(1/2) sum_m phi(m)/m log(1 - psi_m(a0''))
  with psi_m = p_m o (.); the 1/2 accounts for the reflection;
* a correction series for the shortest cycles, where the dihedral count
  needs the two marked branches to be handled directly:
  (a0dot^2 + a0dot + (1/4) psi_2(a0'')) / (1 - psi_2(a0''))
  with a0dot the p_2-derivative of a0.

Everything here is a formal identity in symmetric functions over the
Tate subring, written once for both series types with psi_m as their
``adams(m)``.  Its log(1 - .) and 1/(1 - .) are solved one degree at a
time from the homogeneous parts of their argument, O(N^2) products of
parts at truncation N (:mod:`~cuspmotive.symfunc`).  The theorem needs
only the alternating image, and Alt is the ring homomorphism
p_k -> (-1)^(k-1) t^k, so :func:`boundary_alt` never builds the
symmetric-function sum: it runs the same formula on the one-variable
series Alt(a0'') and Alt(a0dot).  Those series come from
:func:`~cuspmotive.genus0.a0_alt_derivatives`, the cycle-index product
formula one cached degree at a time, so no symmetric-function derivative
is built and no partition walked either.  ``AltSeries`` stores integer
channels over one denominator, as ``SymSeries`` does, so the whole
solve is integer arithmetic: no ``MotiveClass`` or Fraction is made
until a caller reads a coefficient.  Every truncation is a prefix of one
growing solved series.  The result is the closed form t/(1 - t^2), i.e.
exactly 1 in each odd degree.

The composition with h_1 + b0' does not move the alternating image.
Alt(a0' o (h_1 + b)) is a0' evaluated at p_k -> Alt(psi_k(h_1 + b)), so
Alt(a0') = 0 and the uniqueness of the fixed point give Alt(b0') = 0,
and then every Alt(psi_k(h_1 + b0')) is (-1)^(k-1) t^k.  The boundary
route checks Alt(a0') = 0 exactly at every truncation it runs; the
symmetric-function sum :func:`boundary_sum` and its composition with
h_1 + b0' are rebuilt and compared in the acceptance battery.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from . import genus0, symfunc as sf
from .combinatorics import euler_phi


def necklace_from(a0pp: sf.TruncatedSeries) -> sf.TruncatedSeries:
    """Necklace series from a given second-derivative input of either series type.

    psi_m is a ring endomorphism, so one logarithm serves every m.
    """
    n = a0pp.max_degree
    log = sf.log_one_minus(a0pp)
    total = type(a0pp)(n)
    for m in range(1, n + 1):
        total = total + log.adams(m).scaled(Fraction(euler_phi(m), m))
    return total.scaled(Fraction(-1, 2))


def correction_from(a0dot: sf.TruncatedSeries, a0pp: sf.TruncatedSeries) -> sf.TruncatedSeries:
    """Short-cycle correction from given derivative inputs of either series type."""
    psi2 = a0pp.adams(2)
    num = a0dot * a0dot + a0dot + psi2.scaled(Fraction(1, 4))
    return num * sf.geometric(psi2)


@cache
def necklace_series(max_degree: int) -> sf.SymSeries:
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return necklace_from(genus0.a0_second_derivative(max_degree))


@cache
def correction_series(max_degree: int) -> sf.SymSeries:
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return correction_from(
        genus0.a0_p2_derivative(max_degree), genus0.a0_second_derivative(max_degree)
    )


@cache
def boundary_sum(max_degree: int) -> sf.SymSeries:
    return necklace_series(max_degree) + correction_series(max_degree)


def boundary_alt_from(
    a0p: sf.AltSeries, a0pp: sf.AltSeries, a0dot: sf.AltSeries
) -> sf.AltSeries:
    """Alternating image of the boundary sum from Alt(a0'), Alt(a0''), Alt(a0dot).

    Alt is a ring homomorphism that turns psi_m into ``AltSeries.adams(m)``,
    so this is :func:`necklace_from` plus :func:`correction_from` on the
    alternating images.  A nonzero Alt(a0') would let the composition with
    h_1 + b0' move the result, and is fatal.
    """
    if not a0p.is_zero():
        raise RuntimeError("Alt(a0') is nonzero, so composition could move Alt")
    return necklace_from(a0pp) + correction_from(a0dot, a0pp)


# The largest alternating boundary series solved so far; boundary_alt slices it.
_grown: list[sf.AltSeries] = []


@cache
def boundary_alt(max_degree: int) -> sf.AltSeries:
    """Alternating image of the boundary sum through t^N, a prefix of one growing series.

    An N past the built degree b solves once at max(N, 2b), capped at
    max(N, ``pipeline.MAX_POINTS``); any other N solves nothing.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    if not _grown or _grown[0].max_degree < max_degree:
        from .pipeline import MAX_POINTS  # pipeline imports this module

        built = _grown[0].max_degree if _grown else 0
        top = min(max(max_degree, 2 * built), max(max_degree, MAX_POINTS))
        _grown[:] = [boundary_alt_from(*genus0.a0_alt_derivatives(top))]
    return _grown[0].truncate(max_degree)


def b1_series(max_degree: int, a1_input: sf.SymSeries) -> sf.SymSeries:
    """Genus-one equivariant e_c series: (a1 + boundary) o (h_1 + b0').

    ``a1_input`` supplies the interior term; it must share the truncation
    degree.  Degrees of the output above the highest trusted degree of
    the input are only as good as the input."""
    if a1_input.max_degree != max_degree:
        raise ValueError(
            f"a1 input is truncated at {a1_input.max_degree}, expected {max_degree}"
        )
    inner = a1_input + boundary_sum(max_degree)
    return inner.plethysm(sf.complete(1, max_degree) + genus0.b0_prime(max_degree))
