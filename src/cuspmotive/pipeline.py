"""Top-level assembly: the sign-isotypic motive of the compactified spaces.

The alternating part of the equivariant e_c of the n-pointed stable
genus-one space splits as interior plus boundary.  Both sides are
computed independently elsewhere in the package; here they are combined
and realized.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import genus1_boundary, genus1_fiber
from .motive import MotiveClass

MAX_POINTS = 20


@dataclass(frozen=True)
class MainResult:
    """Sign-isotypic e_c of the n-pointed compactified space."""

    n: int
    interior: MotiveClass
    boundary: MotiveClass
    total: MotiveClass
    rank: object
    hodge: tuple

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "interior": self.interior.to_json(),
            "boundary": self.boundary.to_json(),
            "total": self.total.to_json(),
            "rank": int(self.rank),
            "hodge": [list(entry) for entry in self.hodge],
        }


def main_theorem(n: int) -> MainResult:
    """Alternating-part motive for n marked points.

    The boundary coefficient is read off the alternating image of the
    necklace-plus-correction series, computed through the Alt ring
    homomorphism from Alt(a0'') and Alt(a0dot) alone: no plethysm, no
    b0', no symmetric-function derivative and no partition walk, since
    those images come from the cycle-index product formula one degree at
    a time, and every n reads a prefix of one growing boundary series
    (composition with the stable-tree series provably does not move
    the result, given Alt(a0') = 0, which is checked on the way).  The
    interior coefficient comes from the symmetric-power decomposition of
    the fiberwise sign component.  The total is -S[n+1] for odd n and 0
    for even n, with S[2] = -L - 1 making n = 1 come out as L + 1.
    """
    if not 1 <= n <= MAX_POINTS:
        raise ValueError(f"main_theorem supports 1 <= n <= {MAX_POINTS}")
    interior = genus1_fiber.interior_alternating(n)
    boundary = genus1_boundary.boundary_alt(max(n, 2)).coefficient(n)
    total = interior + boundary
    rank, hodge = total.realize()
    return MainResult(n, interior, boundary, total, rank, tuple(hodge))


def expected_total(n: int) -> MotiveClass:
    """Closed form of the theorem the pipeline reproduces, for comparison."""
    if n % 2 == 0:
        return MotiveClass.zero()
    return -MotiveClass.cusp(n + 1)
