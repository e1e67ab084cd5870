"""Cohomology of powers of a genus-one fiber, with its twisted S_n action.

The open stratum of interest is the complement of the big diagonals in the
(n-1)-st power of a pointed genus-one curve E: configurations
(0, x_2, ..., x_n) with all coordinates distinct.  As a graded S_n-module,
H^*(E^(n-1)) is the exterior algebra on V (x) std, where V = H^1(E) has
SL_2-weights +1 and -1 and std is the reduced permutation representation
(Getzler, "Resolving mixed Hodge modules on configuration spaces", 1999).
Graded traces are therefore products over the cycles of a permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    class_sign,
    cycle_type,
    partitions_of,
    perm_from_cycle_type,
    stable_poset_mobius,
    stable_set_partitions,
    z_of,
)
from .motive import MotiveClass

MAX_STRATUM_POINTS = 6


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (d1, w1), c1 in a.items():
        for (d2, w2), c2 in b.items():
            key = (d1 + d2, w1 + w2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


@cache
def graded_traces(n: int, ct) -> dict:
    """Trace of a cycle-type-ct permutation per (degree, weight) block.

    With u marking degree and x marking weight, the generating function is
    prod over cycles k of (1 - (-ux)^k)(1 - (-u/x)^k), divided by
    (1 + ux)(1 + u/x) to remove the trivial summand of the permutation
    representation.  The division is exact against the first cycle, whose
    factor becomes sum_(i<k) (-ux)^i times sum_(i<k) (-u/x)^i.
    """
    ct = Partition(ct)
    if ct.size != n:
        raise ValueError("cycle type size mismatch")
    first, *rest = ct
    traces = {(0, 0): 1}
    for sign in (1, -1):
        traces = _poly_mul(traces, {(i, sign * i): (-1) ** i for i in range(first)})
        for k in rest:
            traces = _poly_mul(traces, {(0, 0): 1, (k, sign * k): (-1) ** (k + 1)})
    return traces


def alternating_component(n: int) -> dict:
    """Dimensions of the sign-isotypic part per (degree, weight).

    Computed as the trace of the exact averaging projector
    (1/n!) sum sgn(sigma) sigma^*, class by class.
    """
    if n < 2:
        raise ValueError("alternating_component needs n >= 2")
    order = math.factorial(n)
    acc: dict[tuple[int, int], int] = {}
    for lam in partitions_of(n):
        weight = class_sign(lam) * (order // z_of(lam))
        for key, tr in graded_traces(n, lam).items():
            acc[key] = acc.get(key, 0) + weight * tr
    out = {}
    for key, total in acc.items():
        v, rem = divmod(total, order)
        if rem or v < 0:
            raise RuntimeError(
                f"projector trace is not a dimension at {key}: {Fraction(total, order)}"
            )
        if v:
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# Equivariant Euler characteristic of the open stratum.


@dataclass(frozen=True)
class EquivariantClass:
    """Signed trace table of e_c on the open stratum of E^(n-1).

    ``bins[(m, w)][ct]`` is the trace of any permutation of cycle type
    ``ct`` on the weight-m, SL_2-weight-w part of e_c (cohomological
    signs already folded in; m is also the motivic weight, and the Tate
    twist is j = (m - w) / 2).
    """

    n: int
    bins: dict

    def trace(self, m: int, w: int, ct) -> int:
        return self.bins.get((m, w), {}).get(Partition(ct), 0)

    def is_weight_symmetric(self) -> bool:
        for (m, w), vec in self.bins.items():
            if self.bins.get((m, -w), {}) != vec:
                return False
        return True

    def identity_trace(self) -> int:
        """Plain e_c of the stratum: the trace table at the identity class."""
        ident = Partition((1,) * self.n)
        return sum(vec.get(ident, 0) for vec in self.bins.values())

    def sym_multiplicities(self) -> dict:
        """Virtual multiplicity of Sym^k (x) L^j per class, by weight differencing.

        The block of motivic weight m = k + 2j contains Sym^k with
        multiplicity trace(w = k) - trace(w = k + 2).
        """
        out: dict[tuple[int, int], dict[Partition, int]] = {}
        for (m, w), vec in self.bins.items():
            if w < 0 or (m - w) % 2:
                continue
            upper = self.bins.get((m, w + 2), {})
            diff = {}
            for ct in set(vec) | set(upper):
                v = vec.get(ct, 0) - upper.get(ct, 0)
                if v:
                    diff[ct] = v
            if diff:
                out[(w, (m - w) // 2)] = diff
        return out

    def alternating_parts(self) -> dict:
        """Multiplicity of the sign character in each Sym^k (x) L^j slot."""
        result = {}
        for (k, j), vec in self.sym_multiplicities().items():
            total = Fraction(0)
            for ct, v in vec.items():
                total += Fraction(class_sign(ct) * v, z_of(ct))
            if total.denominator != 1:
                raise RuntimeError(f"non-integral sign multiplicity at {(k, j)}")
            if total:
                result[(k, j)] = int(total)
        return result


def ec_open_stratum(n: int) -> EquivariantClass:
    """Equivariant e_c of the distinct-coordinate stratum in E^(n-1).

    Inclusion-exclusion over the diagonal strata: for each permutation
    the fixed set partitions form a sub-poset of the partition lattice,
    and the trace on the open stratum is the Moebius-weighted sum of
    traces on the sub-tori E_P, each of which is a smaller fiber power
    carrying the induced block permutation.
    """
    if not 1 <= n <= MAX_STRATUM_POINTS:
        raise ValueError(f"ec_open_stratum supports 1 <= n <= {MAX_STRATUM_POINTS}")
    bins: dict[tuple[int, int], dict[Partition, int]] = {}
    for lam in partitions_of(n):
        perm = perm_from_cycle_type(lam)
        stable = stable_set_partitions(perm)
        mob = stable_poset_mobius([p for p, _ in stable])
        for p, pi in stable:
            mu = mob[p]
            traces = graded_traces(p.block_count, cycle_type(pi))
            for (m, w), tr in traces.items():
                signed = mu * tr * (-1) ** (m & 1)
                vec = bins.setdefault((m, w), {})
                vec[lam] = vec.get(lam, 0) + signed
    bins = {
        key: {ct: v for ct, v in vec.items() if v}
        for key, vec in bins.items()
    }
    return EquivariantClass(n, {k: v for k, v in bins.items() if v})


# ---------------------------------------------------------------------------
# From the stratum to the interior Euler characteristics.


def local_system_euler(k: int) -> MotiveClass:
    """e_c of the open modular curve with coefficients in Sym^k.

    L for the trivial system, 0 in odd symmetric powers, and
    -S[k+2] - 1 for even k >= 2, where S[k+2] is the cusp symbol.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return MotiveClass.lefschetz()
    if k % 2 == 1:
        return MotiveClass.zero()
    return -MotiveClass.cusp(k + 2) - MotiveClass.one()


def interior_alternating(n: int) -> MotiveClass:
    """Sign-isotypic e_c of the open genus-one moduli space with n points.

    The fiberwise sign component is (-1)^(n-1) Sym^(n-1) in weight n - 1,
    so only the weight-(n-1) local system survives.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sign = (-1) ** (n - 1)
    return local_system_euler(n - 1) * sign


def interior_exact_series(max_degree: int):
    """Symmetric-function lift of the interior placing each degree on s_(1^n).

    Only the sign-isotypic information is retained, which is all the
    alternating functional ever reads.
    """
    from . import symfunc as sf

    total = sf.zero(max_degree)
    for n in range(1, max_degree + 1):
        c = interior_alternating(n)
        if not c.is_zero():
            total = total + sf.elementary(n, max_degree).scaled(c)
    return total


def interior_small_series(max_degree: int, n_max: int | None = None):
    """Full equivariant interior e_c for degrees up to min(n_max, 6).

    Degree n is assembled from the open-stratum trace table: every
    Sym^k (x) L^j multiplicity is paired with the Euler characteristic
    of the corresponding local system on the open modular curve.
    """
    from . import symfunc as sf

    if n_max is None:
        n_max = MAX_STRATUM_POINTS
    n_max = min(n_max, MAX_STRATUM_POINTS, max_degree)
    terms: dict[Partition, MotiveClass] = {}
    for n in range(1, n_max + 1):
        ec = ec_open_stratum(n)
        for (k, j), vec in ec.sym_multiplicities().items():
            factor = local_system_euler(k) * MotiveClass.lefschetz(j)
            if factor.is_zero():
                continue
            for ct, v in vec.items():
                add = factor * Fraction(v, z_of(ct))
                prev = terms.get(ct)
                terms[ct] = add if prev is None else prev + add
    return sf.SymSeries(max_degree, terms)
