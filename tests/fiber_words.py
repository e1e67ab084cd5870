"""Word model of H^*(E^(n-1)) with its twisted S_n action: the test oracle.

The package computes fiber traces from the exterior-algebra formula in
``cuspmotive.genus1_fiber``.  This module is the independent reference
the tests compare it against: it builds every permutation's action on
an explicit basis and reads traces off the diagonal.  For sizes past the
reach of that basis, ``product_traces`` multiplies the traces' generating
function out factor by factor over two-variable (degree, weight) bins.

The open stratum of interest is the complement of the big diagonals in the
(n-1)-st power of a pointed genus-one curve E: configurations
(0, x_2, ..., x_n) with all coordinates distinct.  H^*(E^(n-1)) is the
(n-1)-st graded tensor power of H^*(E) = <1, alpha, beta, point> with

    |1| = 0,  |alpha| = |beta| = 1,  |point| = 2,
    alpha . beta = point,  alpha^2 = beta^2 = 0,

and SL_2-weights +1 for alpha and -1 for beta.  Basis elements are words
over the four letters, one letter per coordinate slot (slot t holds the
class pulled back from coordinate x_(t+2)).  Products follow the Koszul
rule: letters anticommute when both are odd, across slots as well as
inside a slot, so for words u, v the sign is
(-1)^(sum over pairs k < j of |v_k| |u_j|).

Transpositions (i, i+1) with i >= 2 just swap two slots, with a Koszul
sign.  The transposition (1 2) moves the marked point: it sends
(0, x_2, x_3, ...) to (0, -x_2, x_3 - x_2, ...), so on classes from the
first slot it is the inversion, and on a class z from slot t >= 1 it
pulls back to (slot-t copy of z) minus (slot-0 copy of z), with the
degree-2 letter expanding by the Kuenneth formula.

Worked example at n = 3 (slots for x_2, x_3): writing a@0 for alpha in
slot 0, the action of (1 2) gives

    a@0          |->  -a@0
    a@1          |->  a@1 - a@0
    a@0 . b@1    |->  (-a@0)(b@1 - b@0) = p@0 - a@0 . b@1

where a@0 . b@0 = p@0 by the in-slot product.  Every permutation action
is composed from these generators; the Coxeter relations are verified in
the tests rather than assumed.
"""

from functools import cache
from itertools import product

from cuspmotive.combinatorics import Partition, perm_from_cycle_type

# letters: 0 = unit, 1 = alpha, 2 = beta, 3 = point
DEG = (0, 1, 1, 2)
WT = (0, 1, -1, 0)

_SLOT_MUL = {
    (0, 0): (1, 0),
    (0, 1): (1, 1),
    (0, 2): (1, 2),
    (0, 3): (1, 3),
    (1, 0): (1, 1),
    (2, 0): (1, 2),
    (3, 0): (1, 3),
    (1, 2): (1, 3),
    (2, 1): (-1, 3),
}


def word_degree(w) -> int:
    return sum(DEG[x] for x in w)


def word_weight(w) -> int:
    return sum(WT[x] for x in w)


def word_mul(u, v):
    """Product of basis words: (sign, word), or None when it vanishes."""
    exp = 0
    odd_v_prefix = 0
    letters = []
    for a, b in zip(u, v):
        if DEG[a] & 1:
            exp += odd_v_prefix
        if DEG[b] & 1:
            odd_v_prefix += 1
        got = _SLOT_MUL.get((a, b))
        if got is None:
            return None
        s, c = got
        if s < 0:
            exp += 1
        letters.append(c)
    return ((-1) ** (exp & 1), tuple(letters))


class FiberAlgebra:
    """The graded algebra H^*(E^(n-1)) on its word basis."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    @property
    def dimension(self) -> int:
        return 4 ** (self.n - 1)

    def words(self):
        return product(range(4), repeat=self.n - 1)


def combo_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            got = word_mul(u, v)
            if got is None:
                continue
            s, w = got
            out[w] = out.get(w, 0) + s * cu * cv
    return {w: c for w, c in out.items() if c}


def apply_map(mp: dict, combo: dict) -> dict:
    out: dict = {}
    for w, c in combo.items():
        for w2, c2 in mp[w].items():
            out[w2] = out.get(w2, 0) + c * c2
    return {w: c for w, c in out.items() if c}


def _placed(n: int, placements) -> tuple:
    word = [0] * (n - 1)
    for slot, letter in placements:
        word[slot] = letter
    return tuple(word)


def _tau_slot_image(n: int, t: int, letter: int) -> dict:
    """Image of a single-slot class under the (1 2) pullback."""
    if letter == 0:
        return {_placed(n, ()): 1}
    if t == 0:
        # inversion on the slot of x_2: -1 on odd letters
        sign = -1 if DEG[letter] & 1 else 1
        return {_placed(n, ((0, letter),)): sign}
    if letter in (1, 2):
        return {
            _placed(n, ((0, letter),)): -1,
            _placed(n, ((t, letter),)): 1,
        }
    # letter == 3: the point class expands by Kuenneth
    return {
        _placed(n, ((0, 3),)): 1,
        _placed(n, ((0, 1), (t, 2))): -1,
        _placed(n, ((0, 2), (t, 1))): 1,
        _placed(n, ((t, 3),)): 1,
    }


@cache
def transposition_action(n: int, i: int) -> dict:
    """Pullback of the transposition (i, i+1) as a map on basis words.

    Returned as a dict from each word to its image combination.
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
    alg = FiberAlgebra(n)
    out = {}
    if i >= 2:
        s, t = i - 2, i - 1
        for w in alg.words():
            img = list(w)
            img[s], img[t] = img[t], img[s]
            sign = -1 if (DEG[w[s]] & 1) and (DEG[w[t]] & 1) else 1
            out[w] = {tuple(img): sign}
        return out
    for w in alg.words():
        combo = {_placed(n, ()): 1}
        for t, letter in enumerate(w):
            combo = combo_mul(combo, _tau_slot_image(n, t, letter))
        out[w] = combo
    return out


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def compose_perms(sigma: tuple[int, ...], tau: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma o tau)(i) = sigma(tau(i))."""
    return tuple(sigma[tau[i - 1] - 1] for i in range(1, len(sigma) + 1))


def adjacent_transposition_word(perm: tuple[int, ...]) -> list[int]:
    """Write perm as a composition of adjacent transpositions.

    Returns indices [i1,...,ik] meaning perm = t_{ik} o ... o t_{i1} where
    t_i swaps i and i+1.  Obtained by bubble sort; swapping the entries at
    positions j, j+1 of the one-line word multiplies by t_j on the right.
    """
    w = list(perm)
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(w) - 1):
            if w[j] > w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                word.append(j + 1)
                changed = True
    return word


def permutation_action(n: int, perm) -> dict:
    """Pullback map of an arbitrary permutation, composed from generators."""
    dec = adjacent_transposition_word(tuple(perm))
    gens = [transposition_action(n, i) for i in dec]
    out = {}
    for w in FiberAlgebra(n).words():
        combo = {w: 1}
        for g in reversed(gens):
            combo = apply_map(g, combo)
        out[w] = combo
    return out


def graded_traces(n: int, ct) -> dict:
    """Trace of a cycle-type-ct permutation per nonzero (degree, weight) block."""
    mp = permutation_action(n, perm_from_cycle_type(Partition(ct)))
    traces: dict[tuple[int, int], int] = {}
    for w, combo in mp.items():
        d = combo.get(w)
        if d:
            key = (word_degree(w), word_weight(w))
            traces[key] = traces.get(key, 0) + d
    return {key: tr for key, tr in traces.items() if tr}


def _bin_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (d1, w1), c1 in a.items():
        for (d2, w2), c2 in b.items():
            key = (d1 + d2, w1 + w2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def product_traces(n: int, ct) -> dict:
    """The same traces from prod over cycles k of (1 - (-ux)^k)(1 - (-u/x)^k)
    over (1 + ux)(1 + u/x), one two-variable factor at a time: the first
    cycle's factor, divided exactly, is sum_(i<k) (-ux)^i, and likewise in u/x."""
    first, *rest = Partition(ct)
    if first + sum(rest) != n:
        raise ValueError("cycle type size mismatch")
    traces = {(0, 0): 1}
    for sign in (1, -1):
        traces = _bin_product(traces, {(i, sign * i): (-1) ** i for i in range(first)})
        for k in rest:
            traces = _bin_product(traces, {(0, 0): 1, (k, sign * k): (-1) ** (k + 1)})
    return traces
