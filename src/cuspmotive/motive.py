"""Coefficient ring for all series in this package.

A :class:`MotiveClass` is a finite rational linear combination of

* Tate powers ``L^j`` (j >= 0), and
* cusp symbols ``S[k]*L^j`` with k even, k >= 4.

``S[k]`` stands for the weight-k cusp-form summand in the cohomology of a
symmetric power of the universal elliptic curve.  It is treated as an
opaque ring element: products of two cusp symbols never arise in the
computations here and are rejected loudly.  ``S[2]`` is not a basis
element; it rewrites to ``-L - 1`` on construction, which keeps every
identity uniform in small degrees.

A class is stored as one dict ``{(k, j): c}`` of nonzero Fractions, k = 0
for ``L^j`` and k for ``S[k]*L^j``, as the series channels are numbered.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class UnsupportedCuspOperation(ValueError):
    """Raised for ring operations that would leave the supported span."""


def dim_cusp_forms(k: int) -> int:
    """Dimension of the space of level-one cusp forms of weight k."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    if k % 2 == 1 or k < 4:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _as_int(x) -> int:
    """x as an int when it is an integer; a float, a str or a Fraction is refused."""
    if type(x) is int:
        return x
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"Tate twists and cusp weights must be integers, got {x!r}") from None


class MotiveClass:
    """Immutable element of the Tate-plus-cusp coefficient ring."""

    __slots__ = ("_terms",)

    def __init__(self, tate=None, cusp=None):
        terms: dict[tuple[int, int], Fraction] = {}

        def add(key, c):
            terms[key] = terms.get(key, 0) + c

        for j, c in (tate or {}).items():
            j = _as_int(j)
            if j < 0:
                raise ValueError("negative Tate twists are not supported")
            add((0, j), _as_fraction(c))
        for (k, j), c in (cusp or {}).items():
            k, j = _as_int(k), _as_int(j)
            if k < 2 or k % 2 == 1:
                raise ValueError(f"cusp symbols need even weight >= 2, got {k}")
            if j < 0:
                raise ValueError("negative Tate twists are not supported")
            c = _as_fraction(c)
            if k == 2:
                # S[2] = -L - 1, so it never survives as a basis element
                add((0, j + 1), -c)
                add((0, j), -c)
            else:
                add((k, j), c)
        object.__setattr__(self, "_terms", {key: c for key, c in terms.items() if c})

    @classmethod
    def _make(cls, terms: dict) -> "MotiveClass":
        """The class with ``terms``, already normal: nonzero Fractions on valid keys."""
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("MotiveClass is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MotiveClass":
        return cls()

    @classmethod
    def one(cls) -> "MotiveClass":
        return cls(tate={0: 1})

    @classmethod
    def lefschetz(cls, power: int = 1) -> "MotiveClass":
        return cls(tate={power: 1})

    @classmethod
    def cusp(cls, k: int, twist: int = 0) -> "MotiveClass":
        return cls(cusp={(k, twist): 1})

    @classmethod
    def from_rational(cls, c) -> "MotiveClass":
        return cls(tate={0: _as_fraction(c)})

    # -- inspection ---------------------------------------------------

    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """Sorted ((k, j), c) pairs: k = 0 for L^j, k for S[k]*L^j."""
        return tuple(sorted(self._terms.items()))

    def tate_items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((j, c) for (k, j), c in self.terms() if not k)

    def cusp_items(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        return tuple(item for item in self.terms() if item[0][0])

    def tate_coefficient(self, j: int) -> Fraction:
        return self._terms.get((0, j), Fraction(0))

    def cusp_coefficient(self, k: int, j: int = 0) -> Fraction:
        return self._terms.get((k, j), Fraction(0)) if k else Fraction(0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_tate_only(self) -> bool:
        return not any(k for k, _ in self._terms)

    def is_rational(self) -> bool:
        """True when the class is a plain rational multiple of L^0."""
        return set(self._terms) <= {(0, 0)}

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self!r}")
        return self._terms.get((0, 0), Fraction(0))

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, MotiveClass):
            return x
        if isinstance(x, (int, Fraction)):
            return MotiveClass(tate={0: x})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, 0) + c
        return MotiveClass._make({key: c for key, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _scaled(self, s) -> "MotiveClass":
        """Product with an int or Fraction, scaled coefficient by coefficient.

        A nonzero scalar keeps every key and every value nonzero, so the
        result needs none of the checks in ``__init__``; zero gives zero.
        """
        return MotiveClass._make({key: c * s for key, c in self._terms.items()} if s else {})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, MotiveClass):
            return NotImplemented
        terms: dict[tuple[int, int], Fraction] = {}
        for (k1, j1), c1 in self._terms.items():
            for (k2, j2), c2 in other._terms.items():
                if k1 and k2:
                    raise UnsupportedCuspOperation(
                        "product of two cusp symbols is outside the supported ring"
                    )
                key = (k1 + k2, j1 + j2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return MotiveClass._make({key: c for key, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MotiveClass":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = MotiveClass(tate={0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return not self.is_zero()

    __hash__ = None

    # -- extra structure ----------------------------------------------

    def adams(self, k: int) -> "MotiveClass":
        """k-th Adams operation: L^j -> L^(j*k).

        Defined on the Tate subring only; a cusp symbol has no canonical
        Adams image in this ring, so its presence is an error.
        """
        if k < 1:
            raise ValueError("Adams operations need k >= 1")
        if not self.is_tate_only():
            raise UnsupportedCuspOperation(
                "Adams operations are only defined on Tate-only classes"
            )
        return MotiveClass._make({(0, j * k): c for (_, j), c in self._terms.items()})

    def dual_in_dimension(self, d: int) -> "MotiveClass":
        """Poincare dual for a class on a smooth proper space of dimension d.

        L^j pairs with L^(d-j); S[k]*L^j pairs with S[k]*L^(d-(k-1)-j).
        """
        terms = {(k, d - max(k - 1, 0) - j): c for (k, j), c in self._terms.items()}
        if any(j < 0 for _, j in terms):
            raise ValueError("negative Tate twists are not supported")
        return MotiveClass._make(terms)

    def rank(self) -> Fraction:
        """Rank of the associated virtual Galois representation."""
        return sum(
            (c * (2 * dim_cusp_forms(k) if k else 1) for (k, _), c in self._terms.items()),
            Fraction(0),
        )

    def hodge_numbers(self) -> dict[tuple[int, int], Fraction]:
        """Virtual Hodge numbers; S[k] realizes in bidegrees (k-1,0),(0,k-1)."""
        hodge: dict[tuple[int, int], Fraction] = {}
        for (k, j), c in self._terms.items():
            keys = ((k - 1 + j, j), (j, k - 1 + j)) if k else ((j, j),)
            c = dim_cusp_forms(k) * c if k else c
            for key in keys:
                hodge[key] = hodge.get(key, 0) + c
        return {key: c for key, c in hodge.items() if c}

    def realize(self):
        """(rank, sorted list of (p, q, multiplicity)) of the realization."""
        rank = self.rank()
        if rank.denominator == 1:
            rank = int(rank)
        hodge = []
        for (p, q), c in sorted(self.hodge_numbers().items()):
            hodge.append((p, q, int(c) if c.denominator == 1 else c))
        return rank, hodge

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "tate": [[j, f"{c.numerator}/{c.denominator}"] for j, c in self.tate_items()],
            "cusp": [
                [k, j, f"{c.numerator}/{c.denominator}"]
                for (k, j), c in self.cusp_items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MotiveClass":
        """The class of a :meth:`to_json` document; the constructor checks its keys."""

        def exact(c) -> Fraction:
            if isinstance(c, float):  # Fraction(c) would be its binary approximation
                raise ValueError(f"coefficients must be exact, got the float {c!r}")
            return Fraction(c)

        tate_items, cusp_items = data.get("tate", []), data.get("cusp", [])
        tate = {j: exact(c) for j, c in tate_items}
        cusp = {(k, j): exact(c) for k, j, c in cusp_items}
        if len(tate) < len(tate_items) or len(cusp) < len(cusp_items):  # 1 and 1.0 collide too
            raise ValueError("a Tate twist or cusp symbol is listed twice")
        return cls(tate=tate, cusp=cusp)

    # -- display ------------------------------------------------------

    @staticmethod
    def _fmt_coeff(c: Fraction, leading: bool, symbol: str) -> str:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if symbol and mag == 1:
            body = symbol
        elif symbol:
            body = f"{mag}*{symbol}"
        else:
            body = str(mag)
        if leading:
            return body if c > 0 else f"-{body}"
        return f" {sign} {body}"

    def __repr__(self):
        if self.is_zero():
            return "0"
        chunks = []
        # sorted keys put the cusp terms first, then the Tate powers
        for (k, j), c in sorted(self._terms.items(), reverse=True):
            sym = "" if j == 0 else ("L" if j == 1 else f"L^{j}")
            if k:
                sym = f"S[{k}]*{sym}" if sym else f"S[{k}]"
            chunks.append(self._fmt_coeff(c, not chunks, sym))
        return "".join(chunks)


L = MotiveClass.lefschetz()
ONE = MotiveClass.one()
ZERO = MotiveClass.zero()
