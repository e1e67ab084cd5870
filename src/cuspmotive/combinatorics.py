"""Partitions, symmetric-group characters, and set-partition lattices.

Partitions of n are listed by the loop-free algorithm ZS1 (Zoghbi and
Stojmenovic, "Fast algorithms for generating integer partitions", 1998),
and chi^lam(mu) by Murnaghan-Nakayama on a bead bitmask of lam.

Conventions used throughout the package:

* partitions are weakly decreasing tuples of positive integers;
* lists of partitions of n are in reverse lexicographic order, i.e.
  (n) first and (1,...,1) last;
* permutations of {1,...,n} are tuples ``sigma`` of length n with
  ``sigma[i-1]`` the image of i.
"""

from __future__ import annotations

import math
import operator
from functools import cache

# Set partitions of larger ground sets are never needed here and the
# enumeration grows like the Bell numbers, so refuse early.
MAX_SET_PARTITION_GROUND = 12


class Partition(tuple):
    """An integer partition stored as a weakly decreasing tuple."""

    def __new__(cls, parts=()):
        if type(parts) is cls:  # immutable and already validated
            return parts
        try:
            parts = tuple(map(operator.index, parts))
        except TypeError:  # a float would be truncated and a str parsed
            raise ValueError(f"partition parts must be integers, got {parts!r}") from None
        for p in parts:
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def rows(self) -> int:
        return len(self)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> number of occurrences."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest part first (reverse lexicographic).

    ZS1: x[:m] is the current partition, x[h] its last part above 1, and
    every later entry of x is 1.  Each step lowers x[h] by one and refills
    the parts after it greedily.  The results are weakly decreasing by
    construction, so ``tuple.__new__`` builds them without validation.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    new, x, m, h = tuple.__new__, [n] + [1] * n, min(n, 1), 0
    out = [new(Partition, x[:m])]
    while x[0] > 1:
        if x[h] == 2:
            x[h], m, h = 1, m + 1, h - 1
        else:
            r, t = x[h] - 1, m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h], t = r, t - r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        out.append(new(Partition, x[:m]))
    return tuple(out)


def z_of(lam) -> int:
    """Order of the centralizer of a permutation of cycle type lam.

    z = prod_i i^{m_i} m_i! where m_i is the multiplicity of i in lam: the
    r-th copy of a part contributes part * r, one pass over the parts.
    """
    z, run, prev = 1, 0, 0
    for part in Partition(lam):
        run = run + 1 if part == prev else 1
        prev = part
        z *= part * run
    return z


def class_sign(lam) -> int:
    """Sign of any permutation of cycle type lam: (-1)^(n - #parts)."""
    lam = Partition(lam)
    return -1 if (lam.size - lam.rows) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def moebius(n: int) -> int:
    """Number-theoretic Moebius function."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


# ---------------------------------------------------------------------------
# Irreducible characters of the symmetric group.
#
# Murnaghan-Nakayama on a bead bitmask: lam with l parts has a bead at each
# first-column hook length lam_i + l - i.  Removing a border strip of length
# k moves a bead from b to an empty b - k, so the targets are
# (mask >> k) & ~mask, and the strip's height is the bit_count of the beads
# jumped over.  A bead at 0 is a zero part: masks shift off their trailing
# filled positions.  Values below the top call are memoised by (mask, parts
# left); the memo starts over past _STRIP_MEMO_LIMIT entries.  Only the
# verification battery and ``symfunc.schur`` read characters one at a time
# (``SymSeries.to_schur`` adds border strips instead); every table through
# n = 12 together takes 1,403 entries.

_STRIP_MEMO: dict[tuple[int, tuple[int, ...]], int] = {}
_STRIP_MEMO_LIMIT = 1 << 17


@cache
def _beads(lam: Partition) -> int:
    return sum(1 << (part + len(lam) - 1 - i) for i, part in enumerate(lam))


def _strip_sum(mask: int, parts: tuple[int, ...]) -> int:
    """chi on the class ``parts`` of the partition with beads ``mask``."""
    if not parts:
        return 1
    k, rest, total = parts[0], parts[1:], 0
    targets = (mask >> k) & ~mask
    while targets:
        low = targets & -targets
        targets ^= low
        moved = mask ^ (low | low << k)
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        value = _STRIP_MEMO.get((moved, rest))
        if value is None:
            value = _STRIP_MEMO[moved, rest] = _strip_sum(moved, rest)
        height = (mask >> low.bit_length() & ((1 << (k - 1)) - 1)).bit_count()
        total += -value if height & 1 else value
    return total


def character(lam, mu) -> int:
    """Value of the irreducible character chi^lam on the class mu."""
    lam, mu = Partition(lam), Partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if len(_STRIP_MEMO) > _STRIP_MEMO_LIMIT:
        _STRIP_MEMO.clear()
    return _strip_sum(_beads(lam), mu)


def character_dimension(lam) -> int:
    """dim chi^lam by the hook length formula."""
    lam = Partition(lam)
    if not lam:
        return 1
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])]
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j) + (cols[j] - i) - 1
    return math.factorial(lam.size) // hooks


# ---------------------------------------------------------------------------
# Set partitions.


class SetPartition(tuple):
    """Partition of {1,...,n} into blocks.

    Stored as a tuple of blocks, each block a sorted tuple, blocks ordered
    by their minima.  The block containing 1 therefore always comes first.
    """

    def __new__(cls, blocks):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for x in b:
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError("blocks must cover {1,...,n}")
        return super().__new__(cls, blocks)

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self)

    @property
    def block_count(self) -> int:
        return len(self)

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self lies inside a block of other."""
        where = {}
        for i, b in enumerate(other):
            for x in b:
                where[x] = i
        return all(len({where[x] for x in b}) == 1 for b in self)

    def block_sizes(self) -> Partition:
        return Partition(sorted((len(b) for b in self), reverse=True))


@cache
def set_partitions_of(n: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1,...,n}; guarded against Bell-number blowup."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SET_PARTITION_GROUND:
        raise ValueError(
            f"set partitions of more than {MAX_SET_PARTITION_GROUND} elements are not supported"
        )
    parts: list[tuple[tuple[int, ...], ...]] = [((1,),)]
    for x in range(2, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append(p[:i] + (p[i] + (x,),) + p[i + 1 :])
            nxt.append(p + ((x,),))
        parts = nxt
    return tuple(SetPartition(p) for p in parts)


# ---------------------------------------------------------------------------
# Permutations.


def perm_from_cycle_type(lam) -> tuple[int, ...]:
    """A representative permutation with the given cycle type.

    Cycles occupy consecutive runs: (3,2) -> (2,3,1,5,4).
    """
    lam = Partition(lam)
    image = []
    start = 1
    for part in lam:
        block = list(range(start, start + part))
        image.extend(block[1:] + block[:1])
        start += part
    return tuple(image)


def cycle_type(perm: tuple[int, ...]) -> Partition:
    n = len(perm)
    seen = [False] * (n + 1)
    lens = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        l, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j - 1]
            l += 1
        lens.append(l)
    return Partition(sorted(lens, reverse=True))


def apply_perm_to_set_partition(perm: tuple[int, ...], p: SetPartition) -> SetPartition:
    return SetPartition(tuple(perm[x - 1] for x in b) for b in p)


def stable_set_partitions(perm: tuple[int, ...]):
    """Set partitions fixed by perm, with the induced block permutations.

    Returns a list of pairs (p, pi) where pi is the permutation of the
    blocks of p (in their canonical order) induced by perm.
    """
    n = len(perm)
    out = []
    for p in set_partitions_of(n):
        q = apply_perm_to_set_partition(perm, p)
        if q != p:
            continue
        index = {b: i + 1 for i, b in enumerate(p)}
        pi = tuple(index[tuple(sorted(perm[x - 1] for x in b))] for b in p)
        out.append((p, pi))
    return out
