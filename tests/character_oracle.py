"""Partitions and symmetric-group characters by plain recursion: the test oracle.

``cuspmotive.combinatorics`` lists the partitions of n with the loop-free
algorithm ZS1 and evaluates chi^lam(mu) by Murnaghan-Nakayama on a bead
bitmask.  This module is the direct reference the tests compare them
against: partitions come from a recursive generator over the first part,
validated by the ``Partition`` constructor, and chi^lam(mu) from the
Murnaghan-Nakayama recursion on sorted beta-sets, one ``Partition`` per
removed border strip.
"""

from __future__ import annotations

from functools import cache

from cuspmotive.combinatorics import Partition


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


@cache
def character(lam, mu) -> int:
    """chi^lam(mu): removing a border strip of length k from lam lowers one
    first-column hook length by k, and the strip's height is the number of
    hook lengths jumped over."""
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
