"""Symmetric functions with Fraction-valued coefficients: the test oracle.

The package stores a ``SymSeries`` by its integer traces f_lam = z_lam c_lam
and multiplies, composes and expands them as packed integers.  This
module is the independent reference the tests compare it against: a
``FractionSeries`` keeps one ``MotiveClass`` coefficient c_lam per
partition and runs every operation on those coefficients directly, the
product by multiplying out every pair of terms, the plethysm by
multiplying out p_lam o g = prod_i psi_(lam_i)(g), the derivative by the
multiplicity of the part and the Schur expansion by the character
recursion of ``tests/character_oracle.py``, whose recursive partition
generator also orders every table here.  ``log_one_minus`` and
``geometric`` come from the power chain of ``tests/power_chain.py``.  On
top of these sit the oracle routes to a0, b0', the Lie series, the
boundary series, the interior series and the Schur tables of the open
configuration spaces.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import fraction_counts
import power_chain
from character_oracle import character, partitions_of

from cuspmotive import genus1_fiber, symfunc as sf
from cuspmotive.combinatorics import (
    Partition,
    class_sign,
    euler_phi,
    moebius,
    z_of,
)
from cuspmotive.motive import MotiveClass, UnsupportedCuspOperation


def _coerce(c) -> MotiveClass:
    return c if isinstance(c, MotiveClass) else MotiveClass.from_rational(c)


class FractionSeries:
    """Symmetric function truncated above ``max_degree``, power-sum basis."""

    _UNIT_KEY = ()

    def __init__(self, max_degree: int, terms=None):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[Partition, MotiveClass] = {}
        for lam, c in (terms or {}).items():
            lam = Partition(lam)
            if lam.size > max_degree:
                raise ValueError(f"term p_{tuple(lam)} exceeds truncation degree {max_degree}")
            c = _coerce(c)
            clean[lam] = clean[lam] + c if lam in clean else c
        self.max_degree = max_degree
        self.terms = {lam: c for lam, c in clean.items() if not c.is_zero()}

    @classmethod
    def of(cls, series: sf.SymSeries) -> "FractionSeries":
        return cls(series.max_degree, dict(series.items()))

    def to_series(self) -> sf.SymSeries:
        return sf.SymSeries(self.max_degree, self.terms)

    def coefficient(self, lam) -> MotiveClass:
        return self.terms.get(Partition(lam), MotiveClass.zero())

    def items(self):
        return tuple(self.terms.items())

    def degree_terms(self, n: int) -> dict[Partition, MotiveClass]:
        return {lam: c for lam, c in self.terms.items() if lam.size == n}

    def is_zero(self) -> bool:
        return not self.terms

    def is_tate_only(self) -> bool:
        return all(c.is_tate_only() for c in self.terms.values())

    def constant_term(self) -> MotiveClass:
        return self.coefficient(())

    def __eq__(self, other):
        if not isinstance(other, FractionSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and self.terms == other.terms

    def _require_same_degree(self, other: "FractionSeries"):
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degrees differ")

    def __add__(self, other):
        self._require_same_degree(other)
        terms = dict(self.terms)
        for lam, c in other.terms.items():
            terms[lam] = terms[lam] + c if lam in terms else c
        return FractionSeries(self.max_degree, terms)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "FractionSeries":
        return FractionSeries(self.max_degree, {lam: v * c for lam, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FractionSeries):
            return self.scaled(other)
        self._require_same_degree(other)
        n = self.max_degree
        terms: dict[Partition, MotiveClass] = {}
        for lam, a in self.terms.items():
            for mu, b in other.terms.items():
                if lam.size + mu.size <= n:
                    key = Partition(sorted(lam + mu, reverse=True))
                    terms[key] = terms[key] + a * b if key in terms else a * b
        return FractionSeries(n, terms)

    def p_derivative(self, k: int) -> "FractionSeries":
        if k < 1 or self.max_degree < k:
            raise ValueError("cannot differentiate")
        terms: dict[Partition, MotiveClass] = {}
        for lam, c in self.terms.items():
            m = lam.count(k)
            if m:
                rest = list(lam)
                rest.remove(k)
                key = Partition(rest)
                terms[key] = terms.get(key, MotiveClass.zero()) + c * m
        return FractionSeries(self.max_degree - k, terms)

    def alt(self) -> sf.AltSeries:
        coeffs: dict[int, MotiveClass] = {}
        for lam, c in self.terms.items():
            coeffs[lam.size] = coeffs.get(lam.size, MotiveClass.zero()) + c * class_sign(lam)
        return sf.AltSeries(self.max_degree, coeffs)

    def tate_layer(self, j: int) -> "FractionSeries":
        return FractionSeries(
            self.max_degree, {lam: c.tate_coefficient(j) for lam, c in self.terms.items()}
        )

    def adams(self, m: int) -> "FractionSeries":
        return FractionSeries(
            self.max_degree,
            {
                Partition(tuple(part * m for part in lam)): c.adams(m)
                for lam, c in self.terms.items()
                if lam.size * m <= self.max_degree
            },
        )

    def plethysm(self, g: "FractionSeries") -> "FractionSeries":
        """f[g] = sum_lam c_lam prod_i psi_(lam_i)(g), products shared by common tails."""
        self._require_same_degree(g)
        if not g.constant_term().is_zero():
            raise ValueError("plethysm requires the inner series to have zero constant term")
        if not g.is_tate_only():
            raise UnsupportedCuspOperation("plethysm requires a Tate-only inner series")
        n = self.max_degree
        partial = {(): FractionSeries(n, {(): 1})}

        def product(lam):
            if lam not in partial:
                partial[lam] = product(lam[1:]) * g.adams(lam[0])
            return partial[lam]

        total = FractionSeries(n)
        for lam, c in self.terms.items():
            total = total + product(tuple(lam)).scaled(c)
        return total

    def to_schur(self, n: int) -> dict[Partition, MotiveClass]:
        piece = self.degree_terms(n)
        out = {}
        for lam in partitions_of(n):
            total = MotiveClass.zero()
            for mu, c in piece.items():
                total = total + c * character(lam, mu)
            if not total.is_zero():
                out[lam] = total
        return out

    def to_json(self, basis: str = "power") -> dict:
        if basis == "power":
            source = self.terms
        else:
            source = {}
            for n in sorted({lam.size for lam in self.terms}):
                source.update(self.to_schur(n))
        entries = [
            {"degree": lam.size, "partition": list(lam), "coeff": source[lam].to_json()}
            for lam in sorted(source, key=lambda l: (l.size, partitions_of(l.size).index(l)))
        ]
        return {"max_degree": self.max_degree, "basis": basis, "terms": entries}


def complete(k: int, max_degree: int) -> FractionSeries:
    return FractionSeries(max_degree, {lam: Fraction(1, z_of(lam)) for lam in partitions_of(k)})


def power_sum(k: int, max_degree: int) -> FractionSeries:
    return FractionSeries(max_degree, {(k,): 1})


log_one_minus = power_chain.log_one_minus
geometric = power_chain.geometric


# -- oracle routes to the package's series ---------------------------------


@cache
def a0_series(max_degree: int) -> FractionSeries:
    """c_lam = (Fraction point count of lam) / z_lam, degrees 3..N."""
    return FractionSeries(
        max_degree,
        {
            lam: MotiveClass(
                tate={
                    j: c / z_of(lam)
                    for j, c in enumerate(fraction_counts.twisted_count_poly(lam))
                }
            )
            for n in range(3, max_degree + 1)
            for lam in partitions_of(n)
        },
    )


@cache
def _b0_layer(t: int) -> dict[Partition, MotiveClass]:
    """Degree t of b = a0' o (h_1 + b), solved at truncation t from the layers below."""
    lower = {lam: c for s in range(2, t) for lam, c in _b0_layer(s).items()}
    g = complete(1, t) + FractionSeries(t, lower)
    return a0_series(t + 1).p_derivative(1).plethysm(g).degree_terms(t)


def b0_prime(max_degree: int) -> FractionSeries:
    return FractionSeries(
        max_degree, {lam: c for t in range(2, max_degree + 1) for lam, c in _b0_layer(t).items()}
    )


def ch_lie(n: int) -> FractionSeries:
    total = FractionSeries(n)
    for m in range(1, n + 1):
        if moebius(m):
            total = total + log_one_minus(power_sum(m, n)).scaled(Fraction(moebius(m), m))
    one = FractionSeries(n, {(): 1})
    return (one - power_sum(1, n)) * total + complete(1, n) - complete(2, n)


def necklace_series(n: int) -> FractionSeries:
    """-1/2 sum_m phi(m)/m log(1 - p_m o a0''), one logarithm per m."""
    a0pp = a0_series(n + 2).p_derivative(1).p_derivative(1)
    total = FractionSeries(n)
    for m in range(1, n + 1):
        log = log_one_minus(power_sum(m, n).plethysm(a0pp))
        total = total + log.scaled(Fraction(euler_phi(m), m))
    return total.scaled(Fraction(-1, 2))


def correction_series(n: int) -> FractionSeries:
    a0pp = a0_series(n + 2).p_derivative(1).p_derivative(1)
    a0dot = a0_series(n + 2).p_derivative(2)
    psi2 = power_sum(2, n).plethysm(a0pp)
    return (a0dot * a0dot + a0dot + psi2.scaled(Fraction(1, 4))) * geometric(psi2)


def interior_small_series(max_degree: int) -> FractionSeries:
    """sum over the stratum's Sym^k (x) L^j multiplicities v on ct of
    e_c(Sym^k) L^j v / z_ct p_ct, in MotiveClass and Fraction arithmetic."""
    terms: dict[Partition, MotiveClass] = {}
    for n in range(1, max_degree + 1):
        for (k, j), vec in genus1_fiber.ec_open_stratum(n).sym_multiplicities.items():
            factor = genus1_fiber.local_system_euler(k) * MotiveClass.lefschetz(j)
            for ct, v in vec.items():
                add = factor * Fraction(v, z_of(ct))
                terms[ct] = terms[ct] + add if ct in terms else add
    return FractionSeries(max_degree, terms)


def poincare_schur(n: int) -> list[dict[Partition, int]]:
    """(-1)^i times the Schur expansion of the L^(n-3-i) layer of a0's degree-n piece."""
    piece = FractionSeries(n, a0_series(n).degree_terms(n))
    out = []
    for i in range(n - 2):
        table = piece.tate_layer(n - 3 - i).to_schur(n)
        out.append({lam: int(c.as_rational() * (-1) ** i) for lam, c in table.items()})
    return out

