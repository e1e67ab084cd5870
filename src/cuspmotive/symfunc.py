"""Truncated symmetric functions with motive-class coefficients.

A :class:`SymSeries` is a symmetric function of bounded degree written in
the power-sum basis: a finite sum ``sum_lam c_lam * p_lam`` with ``c_lam``
a :class:`~cuspmotive.motive.MotiveClass` and ``lam`` ranging over
partitions of size at most the truncation degree.  The power-sum basis is
canonical here because every operation the package needs (products,
plethysms, derivatives, the alternating functional) is diagonal or
monomial in it; Schur expansions are provided as a view.

Degree bookkeeping is strict: all binary operations require both operands
to carry the same truncation degree, and every operation that loses
precision (``p_derivative``) returns a series with the correspondingly
lower truncation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    character,
    class_sign,
    partitions_of,
    z_of,
)
from .motive import MotiveClass, UnsupportedCuspOperation


def _coerce_coeff(c) -> MotiveClass:
    if isinstance(c, MotiveClass):
        return c
    if isinstance(c, (int, Fraction)):
        return MotiveClass(tate={0: c})
    raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")


class SymSeries:
    """Symmetric function truncated above ``max_degree``, power-sum basis."""

    __slots__ = ("max_degree", "_terms")
    _UNIT_KEY = ()

    def __init__(self, max_degree: int, terms=None):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[Partition, MotiveClass] = {}
        for lam, c in (terms or {}).items():
            lam = Partition(lam)
            if lam.size > max_degree:
                raise ValueError(
                    f"term p_{tuple(lam)} exceeds truncation degree {max_degree}"
                )
            c = _coerce_coeff(c)
            if not c.is_zero():
                prev = clean.get(lam)
                clean[lam] = c if prev is None else prev + c
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "_terms", {l: c for l, c in clean.items() if not c.is_zero()})

    def __setattr__(self, name, value):
        raise AttributeError("SymSeries is immutable")

    # -- inspection ---------------------------------------------------

    def coefficient(self, lam) -> MotiveClass:
        return self._terms.get(Partition(lam), MotiveClass.zero())

    def items(self):
        return tuple(self._terms.items())

    def degree_terms(self, n: int) -> dict[Partition, MotiveClass]:
        return {lam: c for lam, c in self._terms.items() if lam.size == n}

    def is_zero(self) -> bool:
        return not self._terms

    def is_tate_only(self) -> bool:
        return all(c.is_tate_only() for c in self._terms.values())

    def constant_term(self) -> MotiveClass:
        return self.coefficient(())

    # -- degree management ---------------------------------------------

    def truncate(self, new_max: int) -> "SymSeries":
        if new_max > self.max_degree:
            raise ValueError("cannot truncate upwards; use zero_extended")
        return SymSeries(
            new_max, {l: c for l, c in self._terms.items() if l.size <= new_max}
        )

    def zero_extended(self, new_max: int) -> "SymSeries":
        """Reinterpret at a higher truncation, treating missing degrees as 0."""
        if new_max < self.max_degree:
            raise ValueError("use truncate to lower the degree")
        return SymSeries(new_max, dict(self._terms))

    def _require_same_degree(self, other: "SymSeries"):
        if self.max_degree != other.max_degree:
            raise ValueError(
                f"truncation degrees differ: {self.max_degree} vs {other.max_degree}"
            )

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymSeries):
            return NotImplemented
        self._require_same_degree(other)
        terms = dict(self._terms)
        for lam, c in other._terms.items():
            prev = terms.get(lam)
            terms[lam] = c if prev is None else prev + c
        return SymSeries(self.max_degree, terms)

    def __neg__(self):
        return SymSeries(self.max_degree, {l: -c for l, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self + (-other)

    def scaled(self, c) -> "SymSeries":
        """Each coefficient times c, an int, Fraction or MotiveClass."""
        return SymSeries(self.max_degree, {l: v * c for l, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MotiveClass)):
            return self.scaled(other)
        if not isinstance(other, SymSeries):
            return NotImplemented
        self._require_same_degree(other)
        n = self.max_degree
        terms: dict[Partition, MotiveClass] = {}
        for lam, a in self._terms.items():
            la = lam.size
            for mu, b in other._terms.items():
                if la + mu.size > n:
                    continue
                key = Partition(sorted(lam + mu, reverse=True))
                c = a * b
                prev = terms.get(key)
                terms[key] = c if prev is None else prev + c
        return SymSeries(n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MotiveClass)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, SymSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and self._terms == other._terms

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return f"SymSeries(<= {self.max_degree}; 0)"
        bits = []
        for lam in sorted(self._terms, key=lambda l: (l.size, l)):
            bits.append(f"({self._terms[lam]!r})*p{tuple(lam)}")
        return f"SymSeries(<= {self.max_degree}; " + " + ".join(bits) + ")"

    # -- inner product, derivative, functionals -------------------------

    def inner(self, other: "SymSeries", n: int) -> MotiveClass:
        """Hall inner product of the degree-n pieces; <p_lam, p_mu> = z delta."""
        self._require_same_degree(other)
        total = MotiveClass.zero()
        for lam, a in self.degree_terms(n).items():
            b = other._terms.get(lam)
            if b is not None:
                total = total + a * b * z_of(lam)
        return total

    def p_derivative(self, k: int) -> "SymSeries":
        """Formal partial derivative with respect to p_k.

        The computations downstream use k = 1 and k = 2.  The result is
        truncated at max_degree - k since higher terms are not determined.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.max_degree < k:
            raise ValueError("truncation too small to differentiate")
        terms: dict[Partition, MotiveClass] = {}
        for lam, c in self._terms.items():
            m = sum(1 for part in lam if part == k)
            if not m:
                continue
            rest = list(lam)
            rest.remove(k)
            key = Partition(rest)
            add = c * m
            prev = terms.get(key)
            terms[key] = add if prev is None else prev + add
        return SymSeries(self.max_degree - k, terms)

    def alt(self) -> "AltSeries":
        """Alternating functional: sum_n <s_(1^n), f_n> t^n.

        In the power-sum basis <s_(1^n), p_lam> is the sign of the class
        lam, so this is a signed sum of coefficients.
        """
        coeffs: dict[int, MotiveClass] = {}
        for lam, c in self._terms.items():
            n = lam.size
            signed = c if class_sign(lam) > 0 else -c
            prev = coeffs.get(n)
            coeffs[n] = signed if prev is None else prev + signed
        return AltSeries(self.max_degree, coeffs)

    def sign_twist(self) -> "SymSeries":
        """Degreewise tensor with the sign character: p_lam picks up
        (-1)^(|lam| - #parts)."""
        return SymSeries(
            self.max_degree,
            {lam: c * class_sign(lam) for lam, c in self._terms.items()},
        )

    def dimension(self, n: int) -> MotiveClass:
        """Rank functional on the degree-n piece: n! * coefficient of p_(1^n)."""
        import math

        return self.coefficient((1,) * n) * math.factorial(n)

    def tate_layer(self, j: int) -> "SymSeries":
        """Rational-coefficient sub-series picking the L^j part of each term."""
        terms = {}
        for lam, c in self._terms.items():
            t = c.tate_coefficient(j)
            if t:
                terms[lam] = MotiveClass(tate={0: t})
        return SymSeries(self.max_degree, terms)

    # -- plethysm -------------------------------------------------------

    def adams(self, m: int) -> "SymSeries":
        """p_m o f for a Tate-only f: p_lam -> p_(m*lam), each coefficient
        by the m-th Adams operation, terms past the truncation dropped."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return SymSeries(
            self.max_degree,
            {
                Partition(tuple(part * m for part in lam)): c.adams(m)
                for lam, c in self._terms.items()
                if lam.size * m <= self.max_degree
            },
        )

    def plethysm(self, g: "SymSeries") -> "SymSeries":
        """Plethystic composition f[g].

        p_lam o g is the product of ``g.adams(k)`` over the parts k of
        lam, shared by every lam with the same tail; the outer
        coefficients of f pass through unchanged.  Requires g to have zero
        constant term (else the result is not a finite computation) and
        Tate-only coefficients (Adams operations do not act on cusp symbols).
        """
        self._require_same_degree(g)
        if not g.constant_term().is_zero():
            raise ValueError("plethysm requires the inner series to have zero constant term")
        if not g.is_tate_only():
            raise UnsupportedCuspOperation(
                "plethysm requires Tate-only coefficients in the inner series"
            )
        n = self.max_degree
        psi: dict[int, SymSeries] = {}
        partial: dict[Partition, SymSeries] = {Partition(()): one(n)}

        def partial_product(lam: Partition) -> SymSeries:
            got = partial.get(lam)
            if got is None:
                k = lam[0]
                if k not in psi:
                    psi[k] = g.adams(k)
                got = partial[lam] = partial_product(Partition(lam[1:])) * psi[k]
            return got

        terms: dict[Partition, MotiveClass] = {}
        for lam, c in self._terms.items():
            for mu, inner_c in partial_product(lam)._terms.items():
                add = c * inner_c
                prev = terms.get(mu)
                terms[mu] = add if prev is None else prev + add
        return SymSeries(n, terms)

    # -- Schur views ------------------------------------------------------

    def to_schur(self, n: int) -> dict[Partition, MotiveClass]:
        """Schur expansion of the degree-n piece: <f, s_lam> per lam."""
        piece = self.degree_terms(n)
        out: dict[Partition, MotiveClass] = {}
        for lam in partitions_of(n):
            total = MotiveClass.zero()
            for mu, c in piece.items():
                chi = character(lam, mu)
                if chi:
                    total = total + c * chi
            if not total.is_zero():
                out[lam] = total
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self, basis: str = "power") -> dict:
        if basis not in ("power", "schur"):
            raise ValueError(f"unknown basis {basis!r}")
        entries = []
        if basis == "power":
            source = self._terms
        else:
            source = {}
            for n in sorted({lam.size for lam in self._terms}):
                source.update(self.to_schur(n))
        for lam in sorted(source, key=lambda l: (l.size, partitions_of(l.size).index(l))):
            entries.append(
                {
                    "degree": lam.size,
                    "partition": list(lam),
                    "coeff": source[lam].to_json(),
                }
            )
        return {"max_degree": self.max_degree, "basis": basis, "terms": entries}

    @classmethod
    def from_json(cls, data: dict) -> "SymSeries":
        if data.get("basis", "power") != "power":
            raise ValueError("only power-basis series can be read back")
        terms = {
            Partition(entry["partition"]): MotiveClass.from_json(entry["coeff"])
            for entry in data["terms"]
        }
        return cls(data["max_degree"], terms)


class AltSeries:
    """A power series in one variable t with MotiveClass coefficients.

    Used for images of the alternating functional; degree 0 is allowed
    but every series arising here starts at t^1.
    """

    __slots__ = ("max_degree", "_coeffs")
    _UNIT_KEY = 0

    def __init__(self, max_degree: int, coeffs=None):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[int, MotiveClass] = {}
        for n, c in (coeffs or {}).items():
            n = int(n)
            if n < 0 or n > max_degree:
                raise ValueError(f"coefficient degree {n} out of range")
            c = _coerce_coeff(c)
            if not c.is_zero():
                clean[n] = c
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AltSeries is immutable")

    def coefficient(self, n: int) -> MotiveClass:
        if n > self.max_degree:
            raise ValueError(f"degree {n} beyond truncation {self.max_degree}")
        return self._coeffs.get(n, MotiveClass.zero())

    def items(self):
        return tuple(sorted(self._coeffs.items()))

    def degree_terms(self, n: int) -> dict[int, MotiveClass]:
        return {n: self._coeffs[n]} if n in self._coeffs else {}

    def is_zero(self) -> bool:
        return not self._coeffs

    def constant_term(self) -> MotiveClass:
        return self.coefficient(0)

    def scaled(self, c) -> "AltSeries":
        """Each coefficient times c, an int, Fraction or MotiveClass."""
        return AltSeries(self.max_degree, {n: v * c for n, v in self._coeffs.items()})

    def adams(self, m: int) -> "AltSeries":
        """Alt(p_m o g) from Alt(g) for a Tate-only g.

        Alt is the ring homomorphism p_k -> (-1)^(k-1) t^k, so the
        degree-d part of Alt(g) moves to degree d*m with the sign
        (-1)^((m-1)d), and its coefficient takes the m-th Adams operation.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        return AltSeries(
            self.max_degree,
            {
                n * m: c.adams(m) * (-1) ** ((m - 1) * n)
                for n, c in self._coeffs.items()
                if n * m <= self.max_degree
            },
        )

    def __add__(self, other):
        if not isinstance(other, AltSeries):
            return NotImplemented
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degrees differ")
        coeffs = dict(self._coeffs)
        for n, c in other._coeffs.items():
            prev = coeffs.get(n)
            coeffs[n] = c if prev is None else prev + c
        return AltSeries(self.max_degree, coeffs)

    def __neg__(self):
        return AltSeries(self.max_degree, {n: -c for n, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, AltSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, AltSeries):
            return NotImplemented
        if self.max_degree != other.max_degree:
            raise ValueError("truncation degrees differ")
        coeffs: dict[int, MotiveClass] = {}
        for n1, c1 in self._coeffs.items():
            for n2, c2 in other._coeffs.items():
                n = n1 + n2
                if n > self.max_degree:
                    continue
                c = c1 * c2
                prev = coeffs.get(n)
                coeffs[n] = c if prev is None else prev + c
        return AltSeries(self.max_degree, coeffs)

    def __eq__(self, other):
        if not isinstance(other, AltSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self):
        if not self._coeffs:
            return f"AltSeries(<= {self.max_degree}; 0)"
        bits = [f"({c!r})*t^{n}" for n, c in sorted(self._coeffs.items())]
        return f"AltSeries(<= {self.max_degree}; " + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "coeffs": [[n, c.to_json()] for n, c in self.items()],
        }


# -- constructors --------------------------------------------------------


def zero(max_degree: int) -> SymSeries:
    return SymSeries(max_degree, {})


def one(max_degree: int) -> SymSeries:
    return SymSeries(max_degree, {(): 1})


def power_sum(k: int, max_degree: int) -> SymSeries:
    """The power sum p_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return SymSeries(max_degree, {(k,): 1})


@cache
def _complete_expansion(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    # h_k = sum over partitions of k of p_lam / z_lam
    return tuple((lam, Fraction(1, z_of(lam))) for lam in partitions_of(k))


def complete(k: int, max_degree: int) -> SymSeries:
    """The complete homogeneous symmetric function h_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return SymSeries(max_degree, dict(_complete_expansion(k)))


def elementary(k: int, max_degree: int) -> SymSeries:
    """The elementary symmetric function e_k = sign-twisted h_k."""
    return complete(k, max_degree).sign_twist()


def schur(lam, max_degree: int) -> SymSeries:
    """The Schur function s_lam = sum_mu chi^lam(mu) p_mu / z_mu."""
    lam = Partition(lam)
    terms = {}
    for mu in partitions_of(lam.size):
        chi = character(lam, mu)
        if chi:
            terms[mu] = Fraction(chi, z_of(mu))
    return SymSeries(max_degree, terms)


# -- series functions ------------------------------------------------------


def _degree_recurrence(g: SymSeries | AltSeries, x0: dict, lead: int) -> list:
    """[x_0, ..., x_N] with x_n = lead * n * g_n + sum_{k=1..n} g_k x_(n-k).

    g must have zero constant term.  Its homogeneous parts g_n are split
    off once, so this is O(N^2) products of parts, zero factors skipped.
    """
    if not g.constant_term().is_zero():
        raise ValueError("series function requires zero constant term")
    parts = [type(g)(g.max_degree, g.degree_terms(n)) for n in range(g.max_degree + 1)]
    x = [type(g)(g.max_degree, x0)]
    for n in range(1, len(parts)):
        x_n = parts[n].scaled(lead * n) if lead else parts[0]
        for k in range(1, n + 1):
            if not (parts[k].is_zero() or x[n - k].is_zero()):
                x_n = x_n + parts[k] * x[n - k]
        x.append(x_n)
    return x


def log_one_minus(g: SymSeries | AltSeries) -> SymSeries | AltSeries:
    """log(1 - g) for g with zero constant term, one degree at a time.

    With E the Euler derivation (the degree-n part times n),
    (1 - g) E(log(1 - g)) = -E(g), so e_n = n [log(1 - g)]_n satisfies
    e_n = -n g_n + sum_{k=1..n-1} e_k g_(n-k).  The result has the type
    of ``g``, as has :func:`geometric`.
    """
    e = _degree_recurrence(g, {}, -1)
    terms = {key: c * Fraction(1, n) for n, e_n in enumerate(e) for key, c in e_n.items()}
    return type(g)(g.max_degree, terms)


def geometric(g: SymSeries | AltSeries) -> SymSeries | AltSeries:
    """1/(1 - g) for g with zero constant term: G_0 = 1 and
    G_n = sum_{k=1..n} g_k G_(n-k), one degree at a time."""
    geo = _degree_recurrence(g, {g._UNIT_KEY: 1}, 0)
    return type(g)(g.max_degree, {key: c for G_n in geo for key, c in G_n.items()})
