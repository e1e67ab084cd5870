"""Truncated series with integer channels: symmetric functions and their Alt images.

Both series types share one stored form, :class:`TruncatedSeries`: the
coefficient at a key k is a :class:`~cuspmotive.motive.MotiveClass`
stored as polynomials in L with integer coefficients (tuples, constant
term first) in one channel per kind of class, channel 0 for the Tate
part and channel k for the coefficient of the cusp symbol S[k], divided
by weight(k) D.  One positive integer denominator D per series covers
rational coefficients, coprime to the content of the channels, so equal
series are stored equally; construction, this normal form, sums,
scaling, truncation and equality are written once for both types.

A :class:`SymSeries` is a symmetric function of bounded degree,
``sum_lam c_lam p_lam`` over partitions lam of size at most the
truncation degree, keyed by lam with weight z_lam: it is stored by its
traces f_lam = z_lam c_lam, the value of the class function at a
permutation of cycle type lam.  D is 1 for a0, b0', h_k and s_lam.  An
:class:`AltSeries` is a power series in one variable t, keyed by the
degree n with weight 1; it holds images of the alternating functional.

Every operation is integer arithmetic on traces:

* product: f_(lam u mu) += B(lam, mu) f_lam g_mu, where
  B = z_(lam u mu) / (z_lam z_mu) is a product of binomial coefficients;
  for an ``AltSeries`` the channels of degrees i and n - i multiply into
  degree n;
* psi_k = p_k o (.): f_(k lam) = k^l(lam) f_lam(L^k) (``adams``), and on
  Alt images degree d moves to dk with the sign (-1)^((k-1)d);
* d/dp_k: f'_mu = f_(mu u (k)) / k, an index shift, with k moved into D;
* plethysm: f o g = sum_lam (f_lam / z_lam) prod_i psi_(lam_i)(g) is
  accumulated with the integer weights N!/z_lam and divided by N! once.
  Integer-valued class functions are closed under plethysm, so the
  quotient is exact and a remainder raises ``ArithmeticError``;
* Alt, inner products and ranks are integer dot products over the
  traces of one degree, divided once; Schur coefficients add border
  strips to the same traces, one Horner pass over a trie of the classes.

Polynomial products of symmetric functions run on Kronecker-packed ints:
a polynomial whose coefficients are at most B in absolute value is
stored as its value at L = 2^w with w = bitlength(B) + 1, and is
unpacked in balanced digits.  Each operation takes B from a proven bound
on its own output and unpacks through a guard that refuses a width below
that bound.  Between operations the traces are kept unpacked, so no
width is carried from one operation to the next.

``MotiveClass`` is the public coefficient type of both series types:
``coefficient()``, ``items()``, ``degree_terms()``, ``to_schur()`` and
``to_json()`` convert, and the constructors take MotiveClass, int or
Fraction coefficients.  Degree bookkeeping is strict: all binary
operations require both operands to carry the same truncation degree,
and ``p_derivative`` returns a series with the correspondingly lower
truncation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache

from .combinatorics import (
    Partition,
    character,
    class_sign,
    divisors,
    partitions_of,
    z_of,
)
from .motive import MotiveClass, UnsupportedCuspOperation

_z = cache(z_of)


# -- integer polynomials in L and their packing ----------------------------


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _lincomb(pairs) -> tuple[int, ...]:
    """sum w * poly over (int w, poly) pairs."""
    acc: list[int] = []
    for w, poly in pairs:
        if len(acc) < len(poly):
            acc.extend([0] * (len(poly) - len(acc)))
        for j, c in enumerate(poly):
            acc[j] += w * c
    return _trim(acc)


def _poly_mul(a, b) -> tuple[int, ...]:
    """Product in Z[L], skipping the zero coefficients of a."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _l1(poly) -> int:
    return sum(map(abs, poly))


def _width(bound: int) -> int:
    """Bits per power of L for balanced digits of absolute value at most bound."""
    return bound.bit_length() + 1


def _pack(poly, width: int, stride: int = 1) -> int:
    """poly(L^stride) at L = 2^width."""
    shift, x = width * stride, 0
    for c in reversed(poly):
        x = (x << shift) + c
    return x


def _unpack(x: int, width: int, bound: int) -> tuple[int, ...]:
    """The polynomial packed in x, given a proven bound on its coefficients.

    Balanced digits of ``width`` bits recover every coefficient of
    absolute value below 2^(width - 1), and only those, so a width too
    narrow for the bound is refused rather than read.
    """
    if bound >> (width - 1):
        raise ArithmeticError(f"packing width {width} is too narrow for coefficient bound {bound}")
    half, mask = 1 << (width - 1), (1 << width) - 1
    out = []
    while x:
        d = ((x + half) & mask) - half
        out.append(d)
        x = (x - d) >> width
    return tuple(out)


@cache
def _union(lam: Partition, mu: Partition) -> tuple[Partition, int]:
    """lam u mu and B = z_(lam u mu) / (z_lam z_mu)."""
    nu = Partition(sorted(lam + mu, reverse=True))
    return nu, _z(nu) // (_z(lam) * _z(mu))


def _packed_product(a: dict, b: dict, n: int) -> dict:
    """Packed traces of a product: out[lam u mu] += B(lam, mu) a[lam] b[mu], sizes <= n."""
    by_size: dict[int, list] = {}
    for mu, y in b.items():
        by_size.setdefault(sum(mu), []).append((mu, y))
    groups = sorted(by_size.items())
    out: dict = {}
    for lam, x in a.items():
        room = n - sum(lam)
        for size, group in groups:
            if size > room:
                break
            for mu, y in group:
                nu, w = _union(lam, mu)
                out[nu] = out.get(nu, 0) + w * x * y
    return out


def _trace_product(a: dict, b: dict, n: int) -> dict:
    """Unpacked traces of the product of two channels.

    The weights B(lam, mu) over the splittings of nu sum to 2^l(nu), so
    every coefficient is at most 2^n max|a|_1 max|b|_inf.
    """
    bound = (1 << n) * max(map(_l1, a.values())) * max(max(map(abs, p)) for p in b.values())
    w = _width(bound)
    packed = _packed_product(
        {lam: _pack(p, w) for lam, p in a.items()}, {mu: _pack(p, w) for mu, p in b.items()}, n
    )
    return {nu: _unpack(x, w, bound) for nu, x in packed.items()}


def _plethysm_bound(outer: dict, inner: dict, inner_den: int, lmax: int, n: int) -> int:
    """Bound on the accumulated plethysm numerators of :meth:`SymSeries.plethysm`.

    In the power-sum basis the L1 norm of the coefficients, graded by
    degree, is submultiplicative and psi_k only moves it to degree k
    times as high.  So with s_d the norm of the degree-d part of g and
    G(x) = sum_m max_(d | m) s_d x^m, the degree-m part of
    prod_i psi_(lam_i)(g) has norm at most [x^m] G^l(lam), and a trace is
    at most z_nu <= m! times its coefficient's norm.
    """
    s = [Fraction(0)] * (n + 1)
    for mu, p in inner.items():
        s[sum(mu)] += Fraction(_l1(p), _z(mu))
    hat = [0] + [max(math.ceil(s[d]) for d in divisors(m)) for m in range(1, n + 1)]
    fact = math.factorial(n)
    weight = [0] * (lmax + 1)
    for channel in outer.values():
        for lam, p in channel.items():
            weight[len(lam)] += fact // _z(lam) * _l1(p) * inner_den ** (lmax - len(lam))
    total, power = [0] * (n + 1), [1] + [0] * n
    for a in weight:
        for m in range(n + 1):
            total[m] += a * power[m]
        power = [sum(power[i] * hat[m - i] for i in range(m)) for m in range(n + 1)]
    return max(math.factorial(m) * t for m, t in enumerate(total))


@cache
def _bead_shapes(n: int) -> dict[int, Partition]:
    """lam |- n by its n-bead mask: a bead at lam_i + n - i for i = 1..n."""
    return {
        sum(1 << (part + n - 1 - i) for i, part in enumerate(lam + (0,) * (n - len(lam)))): lam
        for lam in partitions_of(n)
    }


def _strip_expansion(coeffs: dict, n: int) -> dict[int, int]:
    """sum_mu coeffs[mu] p_mu, mu |- n, in the Schur basis as {n-bead mask: coefficient}.

    The mu are put in a trie on their parts and expanded by Horner:
    s(node) = c_node s_0 + sum_k p_k s(child_k).  Murnaghan-Nakayama on
    beads (Macdonald I.3, Ex. 11): p_k s_nu moves each bead at i to an
    empty i + k, with the sign (-1)^(beads strictly between).  Every shape
    on the way has at most n rows, so n beads place them all and s_0 is
    (1 << n) - 1.
    """
    trie: dict = {}
    for mu, c in coeffs.items():
        node = trie
        for k in mu:
            node = node.setdefault(k, {})
        node[0] = c  # parts are positive, so 0 keys the constant
    empty = (1 << n) - 1

    def expand(node) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, child in node.items():
            if not k:
                out[empty] = out.get(empty, 0) + child
                continue
            between = (1 << (k - 1)) - 1
            for mask, x in expand(child).items():
                targets = (mask << k) & ~mask
                while targets:
                    low = targets & -targets
                    targets ^= low
                    moved = mask ^ (low | low >> k)
                    if (mask >> (low.bit_length() - k) & between).bit_count() & 1:
                        out[moved] = out.get(moved, 0) - x
                    else:
                        out[moved] = out.get(moved, 0) + x
        return out

    return expand(trie)


def _divide_exact(poly, d: int) -> tuple[int, ...]:
    out = []
    for c in poly:
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError(f"numerator is not divisible by {d}")
        out.append(q)
    return tuple(out)


def _add_traces(into: dict, traces: dict, scale: int = 1) -> None:
    """into[lam] += scale * traces[lam], channel by channel."""
    for k, channel in traces.items():
        target = into.setdefault(k, {})
        for lam, p in channel.items():
            prev = target.get(lam)
            target[lam] = _lincomb([(scale, p)] if prev is None else [(1, prev), (scale, p)])


def _motive(channels: dict, den: int) -> MotiveClass:
    """The class with channel polynomials ``channels`` over the denominator den."""
    return MotiveClass._make(
        {(k, j): Fraction(c, den) for k, p in channels.items() for j, c in enumerate(p) if c}
    )


class TruncatedSeries:
    """A series truncated above ``max_degree``, stored by integer channels.

    The coefficient at a key k is the class whose channel polynomials are
    ``_traces[channel][k]`` over weight(k) D: channel 0 holds the Tate
    part and channel j the coefficient of S[j], over one positive integer
    denominator D per series, coprime to the content of the traces.  A
    subclass fixes the keys through ``_key`` (a key from its input form),
    ``_size`` (its degree) and ``_weight``, names the key of the unit
    ``_UNIT_KEY`` and multiplies two channels in ``_channel_product``.
    """

    __slots__ = ("max_degree", "_traces", "_den")

    def __init__(self, max_degree: int, terms=None):
        fractions: dict[int, dict] = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            if not 0 <= self._size(key) <= max_degree:
                raise ValueError(f"term {key!r} is outside truncation degree {max_degree}")
            w = self._weight(key)
            m = MotiveClass._coerce(c)
            if m is None:
                raise TypeError(f"cannot use {type(c).__name__} as a series coefficient")
            for (k, j), v in m.terms():
                fractions.setdefault(k, {}).setdefault(key, {})[j] = v * w
        den = math.lcm(
            1,
            *(v.denominator for ch in fractions.values() for p in ch.values() for v in p.values()),
        )
        traces = {
            k: {
                key: _trim([int(p.get(j, 0) * den) for j in range(max(p) + 1)])
                for key, p in ch.items()
            }
            for k, ch in fractions.items()
        }
        self._setup(max_degree, traces, den)

    def _setup(self, max_degree: int, traces: dict, den: int) -> None:
        """Store traces in normal form: no zero trace, no empty channel, D coprime to them."""
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean = {}
        for k, channel in traces.items():
            channel = {key: p for key, p in channel.items() if p}
            if channel:
                clean[k] = channel
        if den != 1:
            g = math.gcd(den, *(c for ch in clean.values() for p in ch.values() for c in p))
            if g != 1:
                clean = {
                    k: {key: tuple(c // g for c in p) for key, p in ch.items()}
                    for k, ch in clean.items()
                }
                den //= g
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "_traces", clean)
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, max_degree: int, traces: dict, den: int = 1):
        """A series from trimmed integer traces over den, without coercion."""
        out = object.__new__(cls)
        out._setup(max_degree, traces, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- inspection ---------------------------------------------------

    def _keys(self) -> list:
        return sorted(set().union(*self._traces.values()))

    def coefficient(self, key) -> MotiveClass:
        key = self._key(key)
        channels = {k: ch[key] for k, ch in self._traces.items() if key in ch}
        return _motive(channels, self._weight(key) * self._den)

    def items(self):
        return tuple((key, self.coefficient(key)) for key in self._keys())

    def degree_terms(self, n: int) -> dict:
        return {key: self.coefficient(key) for key in self._keys() if self._size(key) == n}

    def is_zero(self) -> bool:
        return not self._traces

    def is_tate_only(self) -> bool:
        return all(k == 0 for k in self._traces)

    def constant_term(self) -> MotiveClass:
        return self.coefficient(self._UNIT_KEY)

    # -- degree management ---------------------------------------------

    def _restricted(self, keep, max_degree: int | None = None):
        traces = {
            k: {key: p for key, p in ch.items() if keep(self._size(key))}
            for k, ch in self._traces.items()
        }
        if max_degree is None:
            max_degree = self.max_degree
        return self._make(max_degree, traces, self._den)

    def truncate(self, new_max: int):
        if new_max > self.max_degree:
            raise ValueError("cannot truncate upwards")
        return self._restricted(lambda size: size <= new_max, new_max)

    def homogeneous(self, n: int):
        """The degree-n part, at the same truncation."""
        return self._restricted(lambda size: size == n)

    def _require_same_degree(self, other):
        if self.max_degree != other.max_degree:
            raise ValueError(
                f"truncation degrees differ: {self.max_degree} vs {other.max_degree}"
            )

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_degree(other)
        den = math.lcm(self._den, other._den)
        traces: dict = {}
        _add_traces(traces, self._traces, den // self._den)
        _add_traces(traces, other._traces, den // other._den)
        return self._make(self.max_degree, traces, den)

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scaled(self, c):
        """Each coefficient times c, an int, Fraction or MotiveClass.

        Anything else, a float or a string included, is a ``TypeError``:
        ``Fraction`` would read either without complaint.
        """
        if isinstance(c, MotiveClass):
            return self * type(self)(self.max_degree, {self._UNIT_KEY: c})
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot scale a series by {type(c).__name__}")
        c = Fraction(c)
        if not c:
            return self._make(self.max_degree, {})
        traces = {
            k: {key: tuple(c.numerator * x for x in p) for key, p in ch.items()}
            for k, ch in self._traces.items()
        }
        return self._make(self.max_degree, traces, self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MotiveClass)):
            return self.scaled(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_degree(other)
        n = self.max_degree
        traces: dict = {}
        for ka, a in self._traces.items():
            for kb, b in other._traces.items():
                if ka and kb:
                    if min(map(self._size, a)) + min(map(self._size, b)) <= n:
                        raise UnsupportedCuspOperation(
                            "product of two cusp symbols is outside the supported ring"
                        )
                    continue
                _add_traces(traces, {ka or kb: self._channel_product(a, b, n)})
        return self._make(n, traces, self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MotiveClass)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.max_degree == other.max_degree
            and self._den == other._den
            and self._traces == other._traces
        )

    __hash__ = None

    def _stretched(self, m: int, image):
        """psi_m on the Tate traces: key -> image(key) = (new key, scale) and
        L -> L^m; terms moved past the truncation are dropped."""
        if m < 1:
            raise ValueError("m must be >= 1")
        n = self.max_degree
        for k, channel in self._traces.items():
            if k and any(self._size(key) * m <= n for key in channel):
                raise UnsupportedCuspOperation(
                    "Adams operations are only defined on Tate-only classes"
                )
        traces = {}
        for key, p in self._traces.get(0, {}).items():
            if self._size(key) * m <= n:
                new_key, scale = image(key)
                stretched = [0] * (m * (len(p) - 1) + 1)
                stretched[::m] = [scale * c for c in p]
                traces[new_key] = tuple(stretched)
        return self._make(n, {0: traces}, self._den)


class SymSeries(TruncatedSeries):
    """Symmetric function truncated above ``max_degree``, stored by traces.

    Keyed by partitions lam with weight z_lam.
    """

    __slots__ = ()
    _UNIT_KEY = ()
    _key = Partition
    _size = staticmethod(sum)
    _weight = staticmethod(_z)
    _channel_product = staticmethod(_trace_product)

    # Bound in this class's own dict too: perfbench/tracing.py wraps them in vars(SymSeries).
    __add__, __sub__, __neg__, __mul__, __rmul__, __eq__ = (
        TruncatedSeries.__add__, TruncatedSeries.__sub__, TruncatedSeries.__neg__,
        TruncatedSeries.__mul__, TruncatedSeries.__rmul__, TruncatedSeries.__eq__,
    )
    scaled, truncate, degree_terms = (
        TruncatedSeries.scaled, TruncatedSeries.truncate, TruncatedSeries.degree_terms,
    )

    @classmethod
    def from_traces(cls, max_degree: int, traces: dict) -> "SymSeries":
        """Series with Tate traces f_lam (integer polynomials in L, constant
        term first), that is with coefficients f_lam / z_lam."""
        for lam in traces:
            if sum(lam) > max_degree:
                raise ValueError(f"term p_{tuple(lam)} exceeds truncation degree {max_degree}")
        trimmed = {
            Partition(lam): p if not p or p[-1] else _trim(list(p)) for lam, p in traces.items()
        }
        return cls._make(max_degree, {0: trimmed})

    def zero_extended(self, new_max: int) -> "SymSeries":
        """Reinterpret at a higher truncation, treating missing degrees as 0."""
        if new_max < self.max_degree:
            raise ValueError("use truncate to lower the degree")
        return SymSeries._make(new_max, self._traces, self._den)

    def _keys(self) -> list:
        """By size, each size in the order of ``partitions_of``."""
        keys = set().union(*self._traces.values())
        sizes = sorted({sum(lam) for lam in keys})
        return [lam for n in sizes for lam in partitions_of(n) if lam in keys]

    def __repr__(self):
        if not self._traces:
            return f"SymSeries(<= {self.max_degree}; 0)"
        bits = []
        for lam in sorted(self._keys(), key=lambda l: (l.size, l)):
            bits.append(f"({self.coefficient(lam)!r})*p{tuple(lam)}")
        return f"SymSeries(<= {self.max_degree}; " + " + ".join(bits) + ")"

    # -- inner product, derivative, functionals -------------------------

    def inner(self, other: "SymSeries", n: int) -> MotiveClass:
        """Hall inner product of the degree-n pieces; <p_lam, p_mu> = z delta.

        In traces it is sum_lam f_lam g_lam / z_lam: the weights n!/z_lam
        are integers, and the sum is divided by n! once.
        """
        self._require_same_degree(other)
        fact = math.factorial(n)
        channels: dict = {}
        for ka, a in self._traces.items():
            for kb, b in other._traces.items():
                common = [lam for lam in a if sum(lam) == n and lam in b]
                if not common:
                    continue
                if ka and kb:
                    raise UnsupportedCuspOperation(
                        "product of two cusp symbols is outside the supported ring"
                    )
                weights = {lam: fact // _z(lam) for lam in common}
                bound = sum(weights[lam] * _l1(a[lam]) * _l1(b[lam]) for lam in common)
                w = _width(bound)
                x = sum(weights[lam] * _pack(a[lam], w) * _pack(b[lam], w) for lam in common)
                k = ka or kb
                channels[k] = _lincomb([(1, channels.get(k, ())), (1, _unpack(x, w, bound))])
        return _motive(channels, fact * self._den * other._den)

    def p_derivative(self, k: int) -> "SymSeries":
        """Formal partial derivative with respect to p_k.

        In traces, f'_mu = f_(mu u (k)) / k: an index shift, with k moved
        into the denominator.  The result is truncated at max_degree - k
        since higher terms are not determined.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.max_degree < k:
            raise ValueError("truncation too small to differentiate")
        traces = {}
        for channel_key, channel in self._traces.items():
            shifted = traces[channel_key] = {}
            for lam, p in channel.items():
                if k in lam:
                    i = lam.index(k)
                    shifted[Partition(lam[:i] + lam[i + 1:])] = p
        return SymSeries._make(self.max_degree - k, traces, self._den * k)

    def alt(self) -> "AltSeries":
        """Alternating functional: sum_n <s_(1^n), f_n> t^n.

        In the power-sum basis <s_(1^n), p_lam> is the sign of the class
        lam, so [t^n] is sum_(lam |- n) sign(lam) (N!/z_lam) f_lam over N! D
        at truncation N, one integer sum per degree and channel.
        """
        fact = math.factorial(self.max_degree)
        traces = {}
        for k, channel in self._traces.items():
            pairs: dict[int, list] = {}
            for lam, p in channel.items():
                pairs.setdefault(sum(lam), []).append((class_sign(lam) * (fact // _z(lam)), p))
            traces[k] = {n: _lincomb(ps) for n, ps in pairs.items()}
        return AltSeries._make(self.max_degree, traces, fact * self._den)

    def sign_twist(self) -> "SymSeries":
        """Degreewise tensor with the sign character: p_lam picks up
        (-1)^(|lam| - #parts)."""
        traces = {
            k: {lam: p if class_sign(lam) > 0 else tuple(-c for c in p) for lam, p in ch.items()}
            for k, ch in self._traces.items()
        }
        return SymSeries._make(self.max_degree, traces, self._den)

    def dimension(self, n: int) -> MotiveClass:
        """Rank functional on the degree-n piece: n! * coefficient of p_(1^n),
        which is the trace at the identity."""
        ones = Partition((1,) * n)
        return _motive({k: ch[ones] for k, ch in self._traces.items() if ones in ch}, self._den)

    def tate_layer(self, j: int) -> "SymSeries":
        """Rational-coefficient sub-series picking the L^j part of each term."""
        tate = self._traces.get(0, {})
        return SymSeries._make(
            self.max_degree,
            {0: {lam: (p[j],) for lam, p in tate.items() if len(p) > j and p[j]}},
            self._den,
        )

    # -- plethysm -------------------------------------------------------

    def adams(self, m: int) -> "SymSeries":
        """p_m o f for a Tate-only f: p_lam -> p_(m*lam), each coefficient
        by the m-th Adams operation, terms past the truncation dropped.

        In traces, f_(m lam) = m^l(lam) f_lam(L^m).
        """
        return self._stretched(
            m, lambda lam: (Partition(tuple(part * m for part in lam)), m ** len(lam))
        )

    def plethysm(self, g: "SymSeries") -> "SymSeries":
        """Plethystic composition f[g].

        p_lam o g is the product of psi_k(g) over the parts k of lam,
        shared by every lam with the same tail; the outer coefficients of
        f pass through unchanged.  The packed numerators
        sum_lam (N!/z_lam) D_g^(l_max - l(lam)) f_lam (p_lam o g)
        are unpacked at a width from :func:`_plethysm_bound` and divided
        by N! exactly.  Requires g to have zero constant term (else the
        result is not a finite computation) and Tate-only coefficients
        (Adams operations do not act on cusp symbols).
        """
        self._require_same_degree(g)
        if not g.constant_term().is_zero():
            raise ValueError("plethysm requires the inner series to have zero constant term")
        if not g.is_tate_only():
            raise UnsupportedCuspOperation(
                "plethysm requires Tate-only coefficients in the inner series"
            )
        n = self.max_degree
        inner = g._traces.get(0, {})
        lmax = max((len(lam) for ch in self._traces.values() for lam in ch), default=0)
        bound = _plethysm_bound(self._traces, inner, g._den, lmax, n)
        w = _width(bound)
        psi: dict[int, dict] = {}
        partial: dict[tuple, dict] = {(): {Partition(()): 1}}

        def partial_product(lam: tuple) -> dict:
            got = partial.get(lam)
            if got is None:
                k = lam[0]
                if k not in psi:
                    psi[k] = {
                        Partition(tuple(k * part for part in mu)): k ** len(mu) * _pack(p, w, k)
                        for mu, p in inner.items()
                        if k * sum(mu) <= n
                    }
                got = partial[lam] = _packed_product(partial_product(lam[1:]), psi[k], n)
            return got

        fact = math.factorial(n)
        traces = {}
        for k, channel in self._traces.items():
            acc: dict = {}
            for lam, p in channel.items():
                product = partial_product(tuple(lam))
                if product:
                    x = fact // _z(lam) * g._den ** (lmax - len(lam)) * _pack(p, w)
                    for nu, y in product.items():
                        acc[nu] = acc.get(nu, 0) + x * y
            traces[k] = {nu: _divide_exact(_unpack(x, w, bound), fact) for nu, x in acc.items()}
        return SymSeries._make(n, traces, self._den * g._den**lmax)

    # -- Schur views ------------------------------------------------------

    def to_schur(self, n: int) -> dict[Partition, MotiveClass]:
        """Schur expansion of the degree-n piece: <f, s_lam> per lam.

        <f, s_lam> = sum_mu chi^lam(mu) f_mu / z_mu, the s_lam coefficient
        of sum_mu (n!/z_mu) f_mu p_mu over n!.  That sum is expanded by
        adding border strips (:func:`_strip_expansion`), not one character
        per (lam, mu).  By the orthonormality of chi^lam,
        sum_mu (n!/z_mu) |chi^lam(mu)| <= n!, which bounds each packed
        coefficient by n! times the largest trace coefficient.
        """
        fact = math.factorial(n)
        rows: dict[Partition, dict] = {}
        shapes = _bead_shapes(n)
        for k, channel in self._traces.items():
            piece = {mu: p for mu, p in channel.items() if sum(mu) == n}
            if not piece:
                continue
            bound = fact * max(max(map(abs, p)) for p in piece.values())
            w = _width(bound)
            packed = {mu: fact // _z(mu) * _pack(p, w) for mu, p in piece.items()}
            for mask, x in _strip_expansion(packed, n).items():
                if x:
                    rows.setdefault(shapes[mask], {})[k] = _unpack(x, w, bound)
        return {
            lam: _motive(rows[lam], fact * self._den) for lam in partitions_of(n) if lam in rows
        }

    # -- serialization ----------------------------------------------------

    def to_json(self, basis: str = "power") -> dict:
        if basis not in ("power", "schur"):
            raise ValueError(f"unknown basis {basis!r}")
        entries = []
        if basis == "power":
            gcd = math.gcd
            tate_traces = self._traces.get(0, {})
            cusp_traces = sorted((k, ch) for k, ch in self._traces.items() if k)
            for lam in self._keys():
                zd = _z(lam) * self._den
                tate, cusp = [], []
                for j, c in enumerate(tate_traces.get(lam, ())):
                    if c:
                        g = gcd(c, zd)
                        tate.append([j, f"{c // g}/{zd // g}"])
                for k, ch in cusp_traces:
                    for j, c in enumerate(ch.get(lam, ())):
                        if c:
                            g = gcd(c, zd)
                            cusp.append([k, j, f"{c // g}/{zd // g}"])
                coeff = {"tate": tate, "cusp": cusp}
                entries.append({"degree": lam.size, "partition": list(lam), "coeff": coeff})
        else:
            for n in sorted({sum(lam) for lam in self._keys()}):
                for lam, c in self.to_schur(n).items():
                    entries.append({"degree": n, "partition": list(lam), "coeff": c.to_json()})
        return {"max_degree": self.max_degree, "basis": basis, "terms": entries}

    @classmethod
    def from_json(cls, data: dict) -> "SymSeries":
        if data.get("basis", "power") != "power":
            raise ValueError("only power-basis series can be read back")
        terms = {
            Partition(entry["partition"]): MotiveClass.from_json(entry["coeff"])
            for entry in data["terms"]
        }
        if len(terms) < len(data["terms"]):
            raise ValueError("a partition is listed twice")
        return cls(operator.index(data["max_degree"]), terms)


class AltSeries(TruncatedSeries):
    """A power series in one variable t, the image of the alternating functional.

    Keyed by the degree n with weight 1, so [t^n] has the channel
    polynomials ``_traces[channel][n]`` over D.  Degree 0 is allowed but
    every series arising here starts at t^1.
    """

    __slots__ = ()
    _UNIT_KEY = 0
    _key = _size = int
    _weight = staticmethod(lambda n: 1)

    def coefficient(self, n: int) -> MotiveClass:
        if n > self.max_degree:
            raise ValueError(f"degree {n} beyond truncation {self.max_degree}")
        return super().coefficient(n)

    def adams(self, m: int) -> "AltSeries":
        """Alt(p_m o g) from Alt(g) for a Tate-only g.

        Alt is the ring homomorphism p_k -> (-1)^(k-1) t^k, so the
        degree-d part of Alt(g) moves to degree d*m with the sign
        (-1)^((m-1)d), and its coefficient takes the m-th Adams operation.
        """
        return self._stretched(m, lambda d: (d * m, (-1) ** ((m - 1) * d)))

    @staticmethod
    def _channel_product(a: dict, b: dict, n: int) -> dict:
        """The product of two channels: [t^d] sums a_i b_(d - i), for d <= n."""
        sums: dict[int, list] = {}
        for i, p in a.items():
            for j, q in b.items():
                if i + j <= n:
                    sums.setdefault(i + j, []).append((1, _poly_mul(p, q)))
        return {d: _lincomb(ps) for d, ps in sums.items()}

    def __repr__(self):
        if not self._traces:
            return f"AltSeries(<= {self.max_degree}; 0)"
        bits = [f"({c!r})*t^{n}" for n, c in self.items()]
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


def complete(k: int, max_degree: int) -> SymSeries:
    """The complete homogeneous symmetric function h_k: trace 1 on every class."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return SymSeries.from_traces(max_degree, {lam: (1,) for lam in partitions_of(k)})


def elementary(k: int, max_degree: int) -> SymSeries:
    """The elementary symmetric function e_k = sign-twisted h_k."""
    return complete(k, max_degree).sign_twist()


def schur(lam, max_degree: int) -> SymSeries:
    """The Schur function s_lam, whose trace on the class mu is chi^lam(mu)."""
    lam = Partition(lam)
    return SymSeries.from_traces(
        max_degree, {mu: (character(lam, mu),) for mu in partitions_of(lam.size)}
    )


# -- series functions ------------------------------------------------------


def _degree_recurrence(g: TruncatedSeries, x0, lead: int) -> list:
    """[x_0, ..., x_N] with x_n = lead * n * g_n + sum_{k=1..n} g_k x_(n-k).

    g must have zero constant term.  Its homogeneous parts g_n are split
    off once, so this is O(N^2) products of parts, zero factors skipped.
    """
    if not g.constant_term().is_zero():
        raise ValueError("series function requires zero constant term")
    parts = [g.homogeneous(n) for n in range(g.max_degree + 1)]
    x = [x0]
    for n in range(1, len(parts)):
        x_n = parts[n].scaled(lead * n) if lead else parts[0]
        for k in range(1, n + 1):
            if not (parts[k].is_zero() or x[n - k].is_zero()):
                x_n = x_n + parts[k] * x[n - k]
        x.append(x_n)
    return x


def log_one_minus(g: TruncatedSeries) -> TruncatedSeries:
    """log(1 - g) for g with zero constant term, one degree at a time.

    With E the Euler derivation (the degree-n part times n),
    (1 - g) E(log(1 - g)) = -E(g), so e_n = n [log(1 - g)]_n satisfies
    e_n = -n g_n + sum_{k=1..n-1} e_k g_(n-k).  The result has the type
    of ``g``, as has :func:`geometric`.
    """
    e = _degree_recurrence(g, type(g)(g.max_degree), -1)
    total = e[0]
    for n in range(1, len(e)):
        total = total + e[n].scaled(Fraction(1, n))
    return total


def geometric(g: TruncatedSeries) -> TruncatedSeries:
    """1/(1 - g) for g with zero constant term: G_0 = 1 and
    G_n = sum_{k=1..n} g_k G_(n-k), one degree at a time."""
    geo = _degree_recurrence(g, type(g)(g.max_degree, {g._UNIT_KEY: 1}), 0)
    total = geo[0]
    for G_n in geo[1:]:
        total = total + G_n
    return total
