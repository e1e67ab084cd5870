"""Cohomology of powers of a genus-one fiber, with its twisted S_n action.

The open stratum of interest is F(E, n)/E, n distinct points on a
genus-one curve E up to translation: fixing the first point at 0, the
complement of the big diagonals in E^(n-1).  As a graded S_n-module,
H^*(E^(n-1)) is the exterior algebra on V (x) std, where V = H^1(E) has
SL_2-weights +1 and -1 and std is the reduced permutation representation
(Getzler, "Resolving mixed Hodge modules on configuration spaces", 1999).
Graded traces are therefore products over the cycles of a permutation,
read off as f(ux) f(u/x) from one list f per cycle type.

The equivariant e_c of the open stratum comes from twisted point counts
on E, off the same partition walk as genus zero's counts on P^1; the
interior series pairs them with e_c of the local systems, on integer
channels.  No table is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

from . import symfunc as sf
from .combinatorics import Partition, class_sign, divisors, moebius, partitions_of, prefix_walk, z_of
from .motive import MotiveClass


def _fiber_factor(ct: Partition) -> list[int]:
    """f(a) = sum_(i<ct_1) (-a)^i prod_(k in the rest of ct) (1 - (-a)^k), degree n - 1."""
    first, *rest = ct
    f = [(-1) ** i for i in range(first)]
    for k in rest:  # times 1 - (-a)^k
        f += [0] * k
        for i in range(len(f) - 1, k - 1, -1):
            f[i] -= (-1) ** k * f[i - k]
    return f


def _sign_weights(n: int) -> tuple[int, dict[Partition, int]]:
    """n! and sgn(lam) n!/z_lam per partition lam of n: n! times the sign projector's weights."""
    order = math.factorial(n)
    return order, {lam: class_sign(lam) * (order // z_of(lam)) for lam in partitions_of(n)}


@cache
def graded_traces(n: int, ct) -> dict:
    """Trace of a cycle-type-ct permutation per (degree, weight) block.

    With u marking degree and x marking weight, the generating function is
    prod over cycles k of (1 - (-ux)^k)(1 - (-u/x)^k), divided by
    (1 + ux)(1 + u/x) to remove the trivial summand of the permutation
    representation.  The division is exact against the first cycle, so the
    function is f(ux) f(u/x) with f from :func:`_fiber_factor`, and the
    block (i + j, i - j) carries f_i f_j.
    """
    ct = Partition(ct)
    if ct.size != n:
        raise ValueError("cycle type size mismatch")
    f = _fiber_factor(ct)
    return {(i + j, i - j): a * b for i, a in enumerate(f) if a for j, b in enumerate(f) if b}


def alternating_component(n: int) -> dict:
    """Dimensions of the sign-isotypic part per (degree, weight).

    Computed as the trace of the exact averaging projector
    (1/n!) sum sgn(sigma) sigma^*, class by class: n! times it is the n x n
    matrix sum_lam w_lam f_lam(a) f_lam(b), with entry (i, j) on block (i + j, i - j).
    """
    if n < 2:
        raise ValueError("alternating_component needs n >= 2")
    order, weights = _sign_weights(n)
    acc = [[0] * n for _ in range(n)]
    for lam, weight in weights.items():
        f = _fiber_factor(lam)
        for i, a in enumerate(f):
            acc[i] = [x + weight * a * b for x, b in zip(acc[i], f)]
    out = {}
    for i, row in enumerate(acc):
        for j, total in enumerate(row):
            key, (v, rem) = (i + j, i - j), divmod(total, order)
            if rem or v < 0:
                raise RuntimeError(f"projector trace is not a dimension at {key}: {total}/{order}")
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

    def is_weight_symmetric(self) -> bool:
        return all(self.bins.get((m, -w), {}) == vec for (m, w), vec in self.bins.items())

    def identity_trace(self) -> int:
        """Plain e_c of the stratum: the trace table at the identity class."""
        ident = Partition((1,) * self.n)
        return sum(vec.get(ident, 0) for vec in self.bins.values())

    @cached_property
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
            diff = {ct: v for ct in vec.keys() | upper if (v := vec.get(ct, 0) - upper.get(ct, 0))}
            if diff:
                out[(w, (m - w) // 2)] = diff
        return out

    def alternating_parts(self) -> dict:
        """Sign multiplicity per Sym^k (x) L^j slot, from :attr:`sym_multiplicities`."""
        order, weight = _sign_weights(self.n)
        result = {}
        for (k, j), vec in self.sym_multiplicities.items():
            total, rem = divmod(sum(weight[ct] * v for ct, v in vec.items()), order)
            if rem:
                raise RuntimeError(f"non-integral sign multiplicity at {(k, j)}")
            if total:
                result[(k, j)] = total
        return result


@cache
def _stratum_factor(d: int, t: int, first: bool) -> dict:
    """d N_d - d t by bin, for a part d after t equal parts; the first part's is divided by #E.

    d N_d = sum_{e | d} mu(d/e) (1 - alpha^e)(1 - alphabar^e) is d times the
    number of degree-d closed points of E, and #E(F_q) = (1 - alpha)(1 - alphabar).
    """
    factor = {(0, 0): -d * t}
    for e in divisors(d):
        mu = moebius(d // e)
        if first:  # mu (sum_{a<e} alpha^a)(sum_{b<e} alphabar^b)
            terms = (((a + b, a - b), mu) for a in range(e) for b in range(e))
        else:  # mu (1 - alpha^e)(1 - alphabar^e)
            terms = {(0, 0): mu, (e, e): -mu, (e, -e): -mu, (2 * e, 0): mu}.items()
        for key, c in terms:
            factor[key] = factor.get(key, 0) + c
    return factor


def _stratum_step(table: dict, d: int, t: int, size: int) -> dict:
    """A prefix's table times the factor of one more part d; (degree, weight) bins add."""
    out, factor = {}, _stratum_factor(d, t, size == 0).items()
    for (d1, w1), c1 in table.items():
        for (d2, w2), c2 in factor:
            key = (d1 + d2, w1 + w2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _open_strata(max_points: int, sizes) -> dict[int, EquivariantClass]:
    """The strata of the given sizes, from one walk through max_points; no other size is stored.

    With r_d the number of parts of lam equal to d, the trace of a
    cycle-type-lam permutation is prod_d prod_{t < r_d} (d N_d - d t) / #E(F_q),
    as E acts freely by translation.  The monomial alpha^i alphabar^j of the
    Frobenius eigenvalues is the bin (m, w) = (i + j, i - j), with the
    cohomological signs already folded in.
    """
    strata: dict[int, dict] = {n: {} for n in sizes}
    for lam, n, table in prefix_walk(max_points, _stratum_step, {(0, 0): 1}):
        if n in strata:
            for key, c in table.items():
                strata[n].setdefault(key, {})[lam] = c
    return {n: EquivariantClass(n, bins) for n, bins in strata.items()}


def ec_open_strata(max_points: int) -> dict[int, EquivariantClass]:
    """Equivariant e_c of the open stratum F(E, n)/E for every n = 1..N, from one walk."""
    return _open_strata(max_points, range(1, max_points + 1))


def ec_open_stratum(n: int) -> EquivariantClass:
    """Equivariant e_c of the open stratum F(E, n)/E, keeping only size n of the walk."""
    if n < 1:
        raise ValueError("ec_open_stratum needs n >= 1")
    return _open_strata(n, (n,))[n]


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
    total = sf.zero(max_degree)
    for n in range(1, max_degree + 1):
        c = interior_alternating(n)
        if not c.is_zero():
            total = total + sf.elementary(n, max_degree).scaled(c)
    return total


def interior_small_series(max_degree: int, n_max: int | None = None):
    """Full equivariant interior e_c for degrees up to min(n_max, max_degree).

    Degree n is assembled from the open-stratum trace table: every
    Sym^k (x) L^j multiplicity v on ct is paired with the Euler characteristic
    of the local system on the open modular curve, so the trace on ct is
    sum v e_c(Sym^k) L^j, an integer polynomial in each channel.
    """
    n_max = max_degree if n_max is None else min(n_max, max_degree)
    traces: dict[int, dict[Partition, list]] = {}
    for n, ec in ec_open_strata(n_max).items():
        for (k, j), vec in ec.sym_multiplicities.items():
            for (channel, i), c in local_system_euler(k).terms():
                if c.denominator != 1:
                    raise ArithmeticError(f"e_c(Sym^{k}) has a non-integer coefficient {c}")
                table = traces.setdefault(channel, {})
                for ct, v in vec.items():  # i + j <= n: the stratum has weights <= 2n - 2
                    table.setdefault(ct, [0] * (n + 1))[i + j] += c.numerator * v
    channels = {k: {ct: sf._trim(p) for ct, p in table.items()} for k, table in traces.items()}
    return sf.SymSeries._make(max_degree, channels)
