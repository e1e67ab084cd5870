"""Acceptance battery: every headline identity, each with its own oracle.

The checks are deliberately redundant with the unit tests: they are the
single place where the whole computation is exercised end to end, and
the command line exposes them (``cuspmotive verify-all``).  Each check
returns a :class:`CheckResult`; nothing is cached between checks beyond
the package's own memoization.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import genus0, genus1_boundary, genus1_fiber, pipeline, symfunc as sf
from .combinatorics import (
    Partition,
    character,
    character_dimension,
    partitions_of,
    z_of,
)
from .motive import MotiveClass


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        passed, detail = True, detail or ""
    except Exception as exc:  # noqa: BLE001 - any failure means a red check
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def _expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


# ---------------------------------------------------------------------------
# Closed-form alternating targets.


def _check_two_routes(name, derivative, index, want, label, form, max_degree) -> CheckResult:
    """Alt of an a0 derivative against the rational ``want(n)`` at each t^n:
    through ``max_degree`` from the SymSeries ``derivative``, through
    ``pipeline.MAX_POINTS`` from entry ``index`` of the product formula."""

    def body():
        alt = derivative(max_degree).alt()
        product = genus0.a0_alt_derivatives(pipeline.MAX_POINTS)[index]
        for route, series in (("SymSeries", alt), ("product", product)):
            for n in range(1, series.max_degree + 1):
                _expect(
                    series.coefficient(n) == MotiveClass.from_rational(want(n)),
                    f"{route}: coefficient t^{n}{label} is {series.coefficient(n)!r}",
                )
        return f"{form} through t^{max_degree}, product formula through t^{pipeline.MAX_POINTS}"

    return _run(name, body)


def check_alt_a0pp(max_degree: int = 14) -> CheckResult:
    """Alt(a0'') = t/(1+t), by both routes of ``_check_two_routes``."""
    return _check_two_routes("alt-a0pp", genus0.a0_second_derivative, 1,
                             lambda n: (-1) ** (n - 1), " of Alt(a0'')", "t/(1+t)", max_degree)


def check_alt_a0dot(max_degree: int = 14) -> CheckResult:
    """Alt(a0dot) = (1/2) t/(1-t), by both routes of ``_check_two_routes``."""
    return _check_two_routes("alt-a0dot", genus0.a0_p2_derivative, 2,
                             lambda n: Fraction(1, 2), "", "(1/2) t/(1-t)", max_degree)


def check_alt_psi_k(max_degree: int = 14) -> CheckResult:
    def body():
        a0pp = genus0.a0_second_derivative(max_degree)
        for k in range(2, min(5, max_degree) + 1):
            alt = sf.power_sum(k, max_degree).plethysm(a0pp).alt()
            for n in range(1, max_degree + 1):
                want = Fraction(-((-1) ** n)) if n % k == 0 else Fraction(0)
                _expect(
                    alt.coefficient(n) == MotiveClass.from_rational(want),
                    f"k={k}: coefficient t^{n} is {alt.coefficient(n)!r}",
                )
        return f"-(-t)^k/(1-(-t)^k) for k = 2..{min(5, max_degree)} through t^{max_degree}"

    return _run("alt-psi-k", body)


def check_alt_boundary(max_degree: int = 14) -> CheckResult:
    """Closed form of the boundary's alternating image, and the fast
    Alt-homomorphism route against the symmetric-function sum at every
    truncation N = 2..max_degree, each slice of the growing series
    against a solve at N itself."""

    def body():
        alt = genus1_boundary.boundary_sum(max_degree).alt()
        for n in range(2, max_degree + 1):
            fast = genus1_boundary.boundary_alt(n)
            direct = genus1_boundary.boundary_alt_from(*genus0.a0_alt_derivatives(n))
            _expect(fast == direct, f"N={n}: the slice differs from a solve at N: {fast!r}")
            _expect(
                all(fast.coefficient(k) == alt.coefficient(k) for k in range(n + 1)),
                f"N={n}: boundary_alt differs from the SymSeries route: {fast!r}",
            )
        for n in range(1, max_degree + 1):
            want = 1 if n % 2 else 0
            _expect(
                alt.coefficient(n) == MotiveClass.from_rational(want),
                f"coefficient t^{n} is {alt.coefficient(n)!r}",
            )
        return (
            f"t/(1-t^2) through t^{max_degree}, all coefficients weight 0; "
            f"both routes agree for N = 2..{max_degree}"
        )

    return _run("alt-boundary", body)


def check_composition_invariance(max_degree: int = 14) -> CheckResult:
    def body():
        n = max_degree
        b = genus0.b0_prime(n)
        stable = sf.complete(1, n) + b
        _expect(
            genus0.a0_first_derivative(n).plethysm(stable) == b,
            "b0' does not solve the fixed point b = a0' o (h_1 + b)",
        )
        u = genus1_boundary.boundary_sum(n)
        _expect(
            u.plethysm(stable).alt() == u.alt(),
            "boundary alternating image moved under composition",
        )
        a1 = genus1_fiber.interior_small_series(n, 5)
        _expect(
            a1.plethysm(stable).alt() == a1.alt(),
            "small-n interior alternating image moved under composition",
        )
        a1e = genus1_fiber.interior_exact_series(n)
        _expect(
            a1e.plethysm(stable).alt() == a1e.alt(),
            "lifted interior alternating image moved under composition",
        )
        return f"b0' is the fixed point; boundary and interior fixed by composition at N={n}"

    return _run("composition-invariance", body)


def check_interior(max_degree: int = 14) -> CheckResult:
    def body():
        for n, ec in genus1_fiber.ec_open_strata(pipeline.MAX_POINTS).items():
            _expect(ec.is_weight_symmetric(), f"n={n}: weight table asymmetric")
            euler = ec.identity_trace()
            want = (-1) ** (n - 1) * math.factorial(n - 1)
            _expect(euler == want, f"n={n}: e_c of the stratum is {euler}, want {want}")
            got = ec.alternating_parts()
            _expect(
                got == {(n - 1, 0): (-1) ** (n - 1)},
                f"n={n}: sign component is {got}",
            )
        for n in range(1, max_degree + 1):
            got = genus1_fiber.interior_alternating(n)
            if n == 1:
                want = MotiveClass.lefschetz()
            elif n % 2 == 0:
                want = MotiveClass.zero()
            else:
                want = -MotiveClass.cusp(n + 1) - MotiveClass.one()
            _expect(got == want, f"interior at n={n} is {got!r}")
        return f"stratum sign parts for n <= {pipeline.MAX_POINTS}; table through n = {max_degree}"

    return _run("interior", body)


def check_alternating_component() -> CheckResult:
    def body():
        for n in range(2, pipeline.MAX_POINTS + 1):
            dims = genus1_fiber.alternating_component(n)
            want = {(n - 1, w): 1 for w in range(-(n - 1), n, 2)}
            _expect(dims == want, f"n={n}: got {dims}")
        return f"dimension n in degree n-1 with Sym^(n-1) weights, n = 2..{pipeline.MAX_POINTS}"

    return _run("alternating-component", body)


def check_main_theorem(max_degree: int = 14) -> CheckResult:
    def body():
        for n in range(1, max_degree + 1):
            res = pipeline.main_theorem(n)
            _expect(
                res.total == pipeline.expected_total(n),
                f"n={n}: total is {res.total!r}",
            )
        r5 = pipeline.main_theorem(5)
        _expect(r5.rank == 0 and r5.hodge == (), f"realization at n=5: {r5}")
        r11 = pipeline.main_theorem(11)
        _expect(r11.rank == -2, f"rank at n=11 is {r11.rank}")
        _expect(
            r11.hodge == ((0, 11, -1), (11, 0, -1)),
            f"hodge at n=11 is {r11.hodge}",
        )
        r13 = pipeline.main_theorem(13)
        _expect(r13.rank == 0 and r13.hodge == (), f"realization at n=13: {r13}")
        return f"-S[n+1] odd / 0 even through n = {max_degree}; ranks at 5, 11, 13"

    return _run("main-theorem", body)


def check_row_bounds() -> CheckResult:
    def body():
        for n in range(3, 9):
            tables = genus0.poincare_schur(n)
            for i, rep in enumerate(tables):
                for lam in rep:
                    _expect(
                        lam.rows <= i + 1,
                        f"n={n}: H^{i} contains {tuple(lam)} with {lam.rows} rows",
                    )
            _expect(
                tables[0] == {Partition((n,)): 1},
                f"n={n}: H^0 is {tables[0]}",
            )
        t4 = genus0.poincare_schur(4)
        _expect(t4[1] == {Partition((2, 2)): 1}, f"n=4 H^1 is {t4[1]}")
        t5 = genus0.poincare_schur(5)
        rank_h1 = sum(v * character_dimension(l) for l, v in t5[1].items())
        _expect(rank_h1 == 5, f"n=5 H^1 has rank {rank_h1}")
        return "constituents of H^i have <= i+1 rows for n <= 8"

    return _run("row-bounds", body)


# ---------------------------------------------------------------------------
# Finite-field oracle.
#
# The multiplicative group of a finite field is cyclic (Lidl-Niederreiter,
# *Finite Fields*, Thm 2.8), so with a generator g of GF(p^k)^* every
# nonzero element is g^i for one exponent i mod p^k - 1.  Frobenius
# x -> x^q sends g^i to g^(iq), so it acts on exponents as multiplication
# by q, and every count below is a count of orbits of i -> iq: no count
# depends on a model of the field.  The points of each (p, e, d) are
# listed once and cached.

# Fields F_(p^e) for the brute-force counts, and the degrees counted.
ORACLE_FIELDS = ((2, 1), (3, 1), (5, 1), (2, 2))
ORACLE_DEGREES = (4, 5)


@cache
def _exact_degree_point_ids(p: int, e: int, d: int):
    """Exact-degree-d points of P^1 over F_(p^e), inside GF(p^(e*d)).

    Returns (point, orbit id) pairs: a nonzero field element is labelled
    by its exponent i mod p^(e*d) - 1; zero and infinity only appear for
    d = 1.  Its Frobenius orbit is the orbit of i under multiplication by
    q = p^e, walked once and named by its least exponent.
    """
    q = p**e
    order = p ** (e * d) - 1
    orbit_of = [None] * order
    for i in range(order):
        if orbit_of[i] is None:
            orbit, j = [i], (i * q) % order
            while j != i:
                orbit.append(j)
                j = (j * q) % order
            for j in orbit:
                orbit_of[j] = (("o", i), len(orbit))
    pts = [(("e", i), oid) for i, (oid, size) in enumerate(orbit_of) if size == d]
    if d == 1:
        pts.append((("zero",), ("zero",)))
        pts.append((("inf",), ("inf",)))
    return tuple(pts)


def twisted_config_count(lam, p: int, e: int) -> int:
    """Brute count of tuples of distinct P^1 points permuted by a
    cycle-type-lam Frobenius twist: each d-cycle carries one exact-degree-d
    point orbit with a starting phase, all orbits disjoint."""
    lam = Partition(lam)
    total = 1
    for d, mult in lam.multiplicities().items():
        pts = _exact_degree_point_ids(p, e, d)

        def count(remaining: int, used: frozenset) -> int:
            if remaining == 0:
                return 1
            acc = 0
            for _, oid in pts:
                if oid not in used:
                    acc += count(remaining - 1, used | {oid})
            return acc

        total *= count(mult, frozenset())
    return total


def check_secondary_oracles() -> CheckResult:
    """The brute counts equal P_lam(q)(q^3 - q) at every oracle field,
    P_lam = ``twisted_count_poly(lam)``; P_lam has degree n - 3, so the
    agreement at more than n - 3 distinct q pins it down."""

    def body():
        for n in ORACLE_DEGREES:
            for lam in partitions_of(n):
                want_poly = genus0.twisted_count_poly(lam)
                for p, e in ORACLE_FIELDS:
                    q = p**e
                    count = twisted_config_count(lam, p, e)
                    want = sum(c * q**i for i, c in enumerate(want_poly)) * (q**3 - q)
                    _expect(count == want, f"lam={tuple(lam)}, q={q}: brute count {count}")
        # Lie cross-check: weight-0 layer of a0 is the signed Lie characteristic
        N = 10
        _expect(
            genus0.a0_series(N).tate_layer(0) == genus0.signed_lie(N),
            "L^0 layer of a0 differs from the signed Lie characteristic",
        )
        # Betti cross-check for the stable genus-zero series
        b = genus0.b0_prime(4)
        ranks = [b.tate_layer(j).dimension(4).as_rational() for j in range(3)]
        _expect(ranks == [1, 5, 1], f"degree-4 layer ranks {ranks}")
        return "brute-force counts at degrees 4-5 over F_2,F_3,F_5,F_4; Lie and Betti cross-checks"

    return _run("secondary-oracles", body)


# ---------------------------------------------------------------------------
# Randomized property batteries.


def _random_motive(rng, allow_cusp=False) -> MotiveClass:
    tate = {}
    for _ in range(rng.randint(0, 2)):
        tate[rng.randint(0, 3)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    cusp = {}
    if allow_cusp and rng.random() < 0.3:
        cusp[(2 * rng.randint(2, 6), rng.randint(0, 2))] = Fraction(rng.randint(-3, 3))
    return MotiveClass(tate=tate, cusp=cusp)


def _random_series(rng, max_degree, allow_cusp=False, min_degree=0) -> sf.SymSeries:
    terms = {}
    for n in range(min_degree, max_degree + 1):
        parts = partitions_of(n)
        for lam in rng.sample(parts, k=min(len(parts), rng.randint(0, 2))):
            terms[lam] = _random_motive(rng, allow_cusp)
    return sf.SymSeries(max_degree, terms)


def _strip_sign_component(f: sf.SymSeries) -> sf.SymSeries:
    out = f
    for n in range(1, f.max_degree + 1):
        c = out.alt().coefficient(n)
        if not c.is_zero():
            out = out - sf.elementary(n, f.max_degree).scaled(c)
    return out


def property_alt_multiplicative() -> int:
    """Alt(fg) = Alt(f) Alt(g) on random pairs; returns the case count."""
    rng, cases = random.Random(20260817), 120
    for i in range(cases):
        n = rng.randint(3, 6)
        f = _random_series(rng, n, allow_cusp=False)
        g = _random_series(rng, n, allow_cusp=True)
        lhs = (f * g).alt()
        rhs = f.alt() * g.alt()
        _expect(lhs == rhs, f"case {i}: Alt not multiplicative")
    return cases


def property_sign_free_composition() -> int:
    """For sign-free u: Alt(psi_k(u)) = 0 and Alt(f o (h1+u)) = Alt(f)."""
    rng, cases = random.Random(714), 120
    for i in range(cases):
        n = rng.randint(3, 6)
        u = _strip_sign_component(_random_series(rng, n, min_degree=2))
        k = rng.randint(1, min(4, n))
        psik = sf.power_sum(k, n).plethysm(u)
        _expect(
            all(psik.alt().coefficient(m).is_zero() for m in range(1, n + 1)),
            f"case {i}: Alt(psi_{k}(sign-free)) != 0",
        )
        f = _random_series(rng, n, allow_cusp=True)
        composed = f.plethysm(sf.complete(1, n) + u)
        _expect(composed.alt() == f.alt(), f"case {i}: composition moved Alt")
    return cases


def property_plethysm_associative() -> int:
    rng, cases = random.Random(3571), 100
    for i in range(cases):
        n = rng.randint(3, 5)
        f = _random_series(rng, n)
        g = _random_series(rng, n, min_degree=1)
        h = _random_series(rng, n, min_degree=1)
        lhs = f.plethysm(g).plethysm(h)
        rhs = f.plethysm(g.plethysm(h))
        _expect(lhs == rhs, f"case {i}: plethysm not associative")
    return cases


def property_character_orthogonality() -> int:
    cases = 0
    for n in range(2, 9):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                dot = sum(
                    Fraction(character(lam, nu) * character(mu, nu), z_of(nu))
                    for nu in parts
                )
                _expect(dot == (1 if lam == mu else 0), f"rows {lam},{mu}")
                cases += 1
        for mu in parts:
            for nu in parts:
                dot = sum(character(lam, mu) * character(lam, nu) for lam in parts)
                _expect(dot == (z_of(mu) if mu == nu else 0), f"cols {mu},{nu}")
                cases += 1
    return cases


def property_schur_strips() -> int:
    """``to_schur``, which adds border strips to packed traces, equals the
    per-pair dot products sum_mu chi^lam(mu) c_mu in MotiveClass arithmetic
    on random series through degree 12, with cusp channels and
    denominators; returns the number of series tried."""
    rng, cases = random.Random(2813), 100
    for i in range(cases):
        f = _random_series(rng, 12, allow_cusp=True)
        for n in range(13):
            terms = f.degree_terms(n)
            want = {}
            for lam in partitions_of(n):
                c = sum(
                    (coeff * character(lam, mu) for mu, coeff in terms.items()),
                    MotiveClass.zero(),
                )
                if not c.is_zero():
                    want[lam] = c
            _expect(f.to_schur(n) == want, f"case {i}, degree {n}: Schur tables differ")
    return cases


def property_fiber_characters() -> int:
    """Each (degree, weight) block of the fiber traces is a genuine
    representation: its multiplicities against the irreducible characters
    are non-negative integers, and the identity traces total 4^(n-1)."""
    cases = 0
    for n in range(2, 8):
        parts = partitions_of(n)
        traces = {mu: genus1_fiber.graded_traces(n, mu) for mu in parts}
        dims = traces[Partition((1,) * n)]
        _expect(sum(dims.values()) == 4 ** (n - 1), f"n={n}: total dimension")
        for block in dims:
            for lam in parts:
                mult = sum(
                    Fraction(character(lam, mu) * traces[mu].get(block, 0), z_of(mu))
                    for mu in parts
                )
                _expect(
                    mult.denominator == 1 and mult >= 0,
                    f"n={n}, block {block}: multiplicity of {tuple(lam)} is {mult}",
                )
                cases += 1
    return cases


def property_alt_adams() -> int:
    """Alt(p_m o g) = Alt(g).adams(m) on random Tate-only g, through the
    SymSeries plethysm; returns the number of series g tried."""
    rng, cases = random.Random(8128), 100
    for i in range(cases):
        n = rng.randint(3, 6)
        g = _random_series(rng, n, min_degree=1)
        for m in range(1, min(4, n) + 1):
            lhs = sf.power_sum(m, n).plethysm(g).alt()
            _expect(lhs == g.alt().adams(m), f"case {i}, m={m}: Alt(p_m o g) != adams")
    return cases


def property_b0_palindromic(max_degree: int = 12) -> int:
    b = genus0.b0_prime(max_degree)
    cases = 0
    for n in range(2, max_degree + 1):
        for lam, c in b.degree_terms(n).items():
            _expect(
                c == c.dual_in_dimension(n - 2),
                f"degree {n}, p_{tuple(lam)}: {c!r} not palindromic",
            )
            cases += 1
    return cases


def check_property_suites(max_degree: int = 14) -> CheckResult:
    """Palindromy reads b0'(max(12, max_degree)), the battery's own b0'."""

    def body():
        counts = {
            "alt-multiplicative": property_alt_multiplicative(),
            "sign-free-composition": property_sign_free_composition(),
            "plethysm-associative": property_plethysm_associative(),
            "alt-adams": property_alt_adams(),
            "character-orthogonality": property_character_orthogonality(),
            "schur-strips": property_schur_strips(),
            "fiber-characters": property_fiber_characters(),
            "b0-palindromic": property_b0_palindromic(max(12, max_degree)),
        }
        weak = {k: v for k, v in counts.items() if v < 100}
        _expect(not weak, f"suites below 100 cases: {weak}")
        return ", ".join(f"{k}: {v}" for k, v in counts.items())

    return _run("property-suites", body)


# ---------------------------------------------------------------------------


def run_all(max_degree: int = 14) -> list[CheckResult]:
    """Run the full battery; series checks truncate at ``max_degree``."""
    return [
        check_alt_a0pp(max_degree),
        check_alt_psi_k(max_degree),
        check_alt_a0dot(max_degree),
        check_alt_boundary(max_degree),
        check_composition_invariance(max_degree),
        check_interior(max_degree),
        check_alternating_component(),
        check_main_theorem(max_degree),
        check_row_bounds(),
        check_secondary_oracles(),
        check_property_suites(max_degree),
    ]
