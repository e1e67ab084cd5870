"""Partitions, symmetric-group characters, and set-partition lattices.

Conventions used throughout the package:

* partitions are weakly decreasing tuples of positive integers;
* lists of partitions of n are in reverse lexicographic order, i.e.
  (n) first and (1,...,1) last;
* permutations of {1,...,n} are tuples ``sigma`` of length n with
  ``sigma[i-1]`` the image of i.
"""

from __future__ import annotations

import math
from functools import cache

# Set partitions of larger ground sets are never needed here and the
# enumeration grows like the Bell numbers, so refuse early.
MAX_SET_PARTITION_GROUND = 12


class Partition(tuple):
    """An integer partition stored as a weakly decreasing tuple."""

    def __new__(cls, parts=()):
        if type(parts) is cls:  # immutable and already validated
            return parts
        parts = tuple(int(p) for p in parts)
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
    """All partitions of n, largest part first (reverse lexicographic)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


def z_of(lam) -> int:
    """Order of the centralizer of a permutation of cycle type lam.

    z = prod_i i^{m_i} m_i! where m_i is the multiplicity of i in lam.
    """
    lam = Partition(lam)
    z = 1
    for part, m in lam.multiplicities().items():
        z *= part**m * math.factorial(m)
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
# Murnaghan-Nakayama in beta-set form: removing a border strip of length k
# from lam corresponds to lowering one first-column hook length by k, and the
# height of the strip is the number of hook lengths jumped over.


@cache
def character(lam, mu) -> int:
    """Value of the irreducible character chi^lam on the class mu."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    k, rest = mu[0], Partition(mu[1:])
    beta = [lam[i] + (len(lam) - 1 - i) for i in range(len(lam))]
    beta_set = set(beta)
    total = 0
    for b in beta:
        b2 = b - k
        if b2 < 0 or b2 in beta_set:
            continue
        height = sum(1 for c in beta if b2 < c < b)
        new_beta = sorted((beta_set - {b}) | {b2}, reverse=True)
        new_lam = tuple(c - (len(new_beta) - 1 - i) for i, c in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * character(Partition(new_lam), rest)
    return total


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


def lattice_mobius(p: SetPartition) -> int:
    """Moebius value mu(0, p) in the full partition lattice.

    For the lattice of set partitions ordered by refinement this is the
    product over blocks B of (-1)^(|B|-1) (|B|-1)!.
    """
    result = 1
    for b in p:
        result *= (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
    return result


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


def stable_poset_mobius(stable: list[SetPartition]) -> dict[SetPartition, int]:
    """mu(0, p) inside the sub-poset formed by the given partitions.

    The input must contain the finest partition (all singletons) and be
    closed enough to contain every element below any of its members that
    lies in the sub-poset; for the fixed-point sets used here that is
    automatic.  Computed by the defining recursion, so it agrees with
    lattice_mobius only when the sub-poset is the whole lattice.
    """
    order = sorted(stable, key=lambda p: -p.block_count)
    finest = order[0]
    if finest.block_count != finest.ground_size:
        raise ValueError("finest partition missing from the poset")
    mob: dict[SetPartition, int] = {}
    for p in order:
        if p == finest:
            mob[p] = 1
            continue
        mob[p] = -sum(mob[q] for q in order if q != p and q in mob and q.refines(p))
    return mob


def bell_number(n: int) -> int:
    """Bell number via the triangle recurrence (used as a test oracle too)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
