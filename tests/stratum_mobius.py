"""The open-stratum trace table by Moebius inclusion-exclusion: the test oracle.

The package computes ``genus1_fiber.ec_open_stratum`` from twisted point
counts on E.  This module is the independent reference the tests compare
it against: for each permutation, the set partitions it fixes form a
sub-poset of the partition lattice, and the trace on the open stratum is
the Moebius-weighted sum of the traces on the diagonal sub-tori E_P, each
a smaller fiber power carrying the induced block permutation.  The sum
runs over set partitions, so it grows like the Bell numbers.  The Moebius
function of each sub-poset comes from its defining recursion; the tests
check it on the whole lattice against the product formula
``lattice_mobius``, and count set partitions against ``bell_number``.
"""

from __future__ import annotations

import math

from cuspmotive.combinatorics import (
    SetPartition,
    cycle_type,
    partitions_of,
    perm_from_cycle_type,
    stable_set_partitions,
)
from cuspmotive.genus1_fiber import graded_traces


def lattice_mobius(p: SetPartition) -> int:
    """Moebius value mu(0, p) in the full partition lattice.

    For the lattice of set partitions ordered by refinement this is the
    product over blocks B of (-1)^(|B|-1) (|B|-1)!.
    """
    result = 1
    for b in p:
        result *= (-1) ** (len(b) - 1) * math.factorial(len(b) - 1)
    return result


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
    """Bell number via the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def stratum_bins(n: int) -> dict:
    """``bins[(m, w)][lam]``: the signed trace of cycle type lam on bin (m, w)."""
    bins: dict = {}
    for lam in partitions_of(n):
        perm = perm_from_cycle_type(lam)
        stable = stable_set_partitions(perm)
        mob = stable_poset_mobius([p for p, _ in stable])
        for p, pi in stable:
            traces = graded_traces(p.block_count, cycle_type(pi))
            for (m, w), tr in traces.items():
                vec = bins.setdefault((m, w), {})
                vec[lam] = vec.get(lam, 0) + mob[p] * tr * (-1) ** (m & 1)
    bins = {key: {ct: v for ct, v in vec.items() if v} for key, vec in bins.items()}
    return {key: vec for key, vec in bins.items() if vec}
