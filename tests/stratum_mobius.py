"""The open-stratum trace table by Moebius inclusion-exclusion: the test oracle.

The package computes ``genus1_fiber.ec_open_stratum`` from twisted point
counts on E.  This module is the independent reference the tests compare
it against: for each permutation, the set partitions it fixes form a
sub-poset of the partition lattice, and the trace on the open stratum is
the Moebius-weighted sum of the traces on the diagonal sub-tori E_P, each
a smaller fiber power carrying the induced block permutation.  The sum
runs over set partitions, so it grows like the Bell numbers.
"""

from __future__ import annotations

from cuspmotive.combinatorics import (
    cycle_type,
    partitions_of,
    perm_from_cycle_type,
    stable_poset_mobius,
    stable_set_partitions,
)
from cuspmotive.genus1_fiber import graded_traces


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
