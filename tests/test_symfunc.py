import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import fraction_series as fs
import power_chain
import pytest

from cuspmotive import genus0, symfunc as sf
from cuspmotive.combinatorics import Partition, partitions_of, z_of
from cuspmotive.motive import L, ONE, MotiveClass, UnsupportedCuspOperation
from cuspmotive.verification import _random_motive, _random_series


def P(*parts):
    return Partition(parts)


def test_constructors_small_expansions():
    half = Fraction(1, 2)
    h2 = sf.complete(2, 4)
    assert h2.coefficient(P(1, 1)) == MotiveClass.from_rational(half)
    assert h2.coefficient(P(2)) == MotiveClass.from_rational(half)
    e2 = sf.elementary(2, 4)
    assert e2.coefficient(P(1, 1)) == MotiveClass.from_rational(half)
    assert e2.coefficient(P(2)) == MotiveClass.from_rational(-half)
    s21 = sf.schur(P(2, 1), 4)
    assert s21.coefficient(P(1, 1, 1)) == MotiveClass.from_rational(Fraction(1, 3))
    assert s21.coefficient(P(2, 1)).is_zero()
    assert s21.coefficient(P(3)) == MotiveClass.from_rational(Fraction(-1, 3))
    assert sf.power_sum(3, 5).coefficient(P(3)) == ONE


def test_series_degree_discipline():
    f = sf.power_sum(2, 4)
    g = sf.power_sum(2, 6)
    with pytest.raises(ValueError):
        f + g
    assert f + g.truncate(4) == sf.power_sum(2, 4).scaled(2)
    assert f.zero_extended(6) + g == g.scaled(2)
    with pytest.raises(ValueError):
        sf.SymSeries(3, {P(2, 2): ONE})


def test_multiplication_truncates():
    f = sf.power_sum(3, 5)
    g = sf.power_sum(4, 5)
    assert (f * g).is_zero()  # degree 7 > truncation 5
    h = sf.power_sum(2, 5) * sf.power_sum(3, 5)
    assert h.coefficient(P(3, 2)) == ONE


def test_inner_products_schur_orthonormal():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                dot = sf.schur(lam, n).inner(sf.schur(mu, n), n)
                assert dot == (ONE if lam == mu else MotiveClass.zero())


def test_p_derivative():
    f = sf.power_sum(1, 4) * sf.power_sum(1, 4) * sf.power_sum(2, 4)
    d = f.p_derivative(1)
    assert d.max_degree == 3
    assert d.coefficient(P(2, 1)) == 2 * ONE
    d2 = f.p_derivative(2)
    assert d2.coefficient(P(1, 1)) == ONE


# -- plethysm oracle: evaluate in finitely many variables ------------------


def _monomials(sym_series, n, nvars):
    """Degree-n part as a polynomial: dict from exponent tuple to Fraction."""
    poly = {}
    for lam, coeff in sym_series.degree_terms(n).items():
        assert coeff.is_rational()
        base = {(0,) * nvars: coeff.as_rational()}
        for part in lam:
            nxt = {}
            for expo, c in base.items():
                for i in range(nvars):
                    bumped = list(expo)
                    bumped[i] += part
                    key = tuple(bumped)
                    nxt[key] = nxt.get(key, Fraction(0)) + c
            base = nxt
        for key, c in base.items():
            poly[key] = poly.get(key, Fraction(0)) + c
    return {k: v for k, v in poly.items() if v}


def test_plethysm_h2_of_h2_by_brute_force():
    nvars = 4
    lhs = sf.complete(2, 4).plethysm(sf.complete(2, 4))
    # independent expansion: h2 evaluated on the 10 monomials of h2(x1..x4)
    h2_monoms = []
    for i, j in combinations_with_replacement(range(nvars), 2):
        expo = [0] * nvars
        expo[i] += 1
        expo[j] += 1
        h2_monoms.append(tuple(expo))
    brute = {}
    for a, b in combinations_with_replacement(h2_monoms, 2):
        key = tuple(x + y for x, y in zip(a, b))
        brute[key] = brute.get(key, Fraction(0)) + 1
    assert _monomials(lhs, 4, nvars) == brute
    # and the classical closed form
    rhs = sf.complete(4, 4) + sf.schur(P(2, 2), 4)
    assert lhs == rhs


def test_plethysm_adams_on_coefficients():
    g = sf.power_sum(1, 4).scaled(L)
    out = sf.power_sum(2, 4).plethysm(g)
    assert out.coefficient(P(2)) == L * L
    out3 = sf.power_sum(3, 6).plethysm(sf.power_sum(2, 6).scaled(L + ONE))
    assert out3.coefficient(P(6)) == L**3 + ONE


def test_symseries_adams():
    f = sf.SymSeries(7, {P(2, 1): L, P(3): ONE})
    assert f.adams(2) == sf.SymSeries(7, {P(4, 2): L * L, P(6): ONE})
    assert f.adams(1) == f
    # p_(2,1) -> p_(4,2) and p_3 -> p_6 pass the truncation at 5 and drop
    low = sf.SymSeries(5, {P(2, 1): L, P(3): ONE, P(2): L + ONE})
    assert low.adams(2) == sf.SymSeries(5, {P(4): L * L + ONE})
    # p_m o g for a Tate-only g
    g = sf.complete(2, 6).scaled(L) + sf.power_sum(1, 6) * sf.power_sum(2, 6)
    for m in range(1, 7):
        assert g.adams(m) == sf.power_sum(m, 6).plethysm(g)
    with pytest.raises(ValueError):
        f.adams(0)
    with pytest.raises(UnsupportedCuspOperation):
        sf.SymSeries(4, {P(1): MotiveClass.cusp(12)}).adams(2)


def test_plethysm_guards():
    with_constant = sf.one(4) + sf.power_sum(1, 4)
    with pytest.raises(ValueError):
        sf.power_sum(1, 4).plethysm(with_constant)
    cuspy = sf.power_sum(1, 4).scaled(MotiveClass.cusp(12))
    with pytest.raises(UnsupportedCuspOperation):
        sf.power_sum(2, 4).plethysm(cuspy)
    # cusp coefficients on the outside are fine
    out = cuspy.plethysm(sf.power_sum(1, 4).scaled(L))
    assert out.coefficient(P(1)) == MotiveClass.cusp(12, twist=1)


def test_plethysm_identity_and_linearity():
    ident = sf.power_sum(1, 5)
    rng = random.Random(3)
    for _ in range(20):
        terms = {}
        for n in range(1, 6):
            for lam in rng.sample(partitions_of(n), k=min(2, len(partitions_of(n)))):
                terms[lam] = MotiveClass(tate={rng.randint(0, 2): rng.randint(-3, 3)})
        f = sf.SymSeries(5, terms)
        assert f.plethysm(ident) == f
        assert ident.plethysm(f) == f


def test_alt_values():
    for n in range(1, 7):
        assert sf.elementary(n, n).alt().coefficient(n) == ONE
        assert sf.power_sum(n, n).alt().coefficient(n) == (-1) ** (n - 1) * ONE
        expected = ONE if n == 1 else MotiveClass.zero()
        assert sf.complete(n, n).alt().coefficient(n) == expected


def test_alt_of_schur_picks_out_sign():
    for n in range(1, 6):
        for lam in partitions_of(n):
            got = sf.schur(lam, n).alt().coefficient(n)
            want = ONE if lam == P(*([1] * n)) else MotiveClass.zero()
            assert got == want


def test_sign_twist_swaps_h_and_e():
    for n in range(1, 7):
        assert sf.complete(n, n).sign_twist() == sf.elementary(n, n)
        assert sf.elementary(n, n).sign_twist() == sf.complete(n, n)
    f = sf.schur(P(3, 1), 4)
    assert f.sign_twist().sign_twist() == f
    assert f.sign_twist() == sf.schur(P(2, 1, 1), 4)  # conjugate shape


def test_dimension_counts():
    # h_n carries the trivial representation: dimension 1
    assert sf.complete(4, 4).dimension(4) == ONE
    # p_1^n carries the regular representation
    f = sf.power_sum(1, 3) * sf.power_sum(1, 3) * sf.power_sum(1, 3)
    assert f.dimension(3) == 6 * ONE


def test_tate_layer():
    f = sf.power_sum(2, 4).scaled(L * L + 2 * ONE)
    assert f.tate_layer(2) == sf.power_sum(2, 4)
    assert f.tate_layer(0) == sf.power_sum(2, 4).scaled(2)
    assert f.tate_layer(5).is_zero()


def test_to_schur_round_trip():
    for n in range(1, 6):
        for lam in partitions_of(n):
            table = sf.schur(lam, n).to_schur(n)
            assert table == {lam: ONE}


def _schur_sources():
    """a0, b0', ch_lie and a dense series with cusp channels over D = 12."""
    rng = random.Random(28)
    terms = {}
    for n in range(13):
        for lam in partitions_of(n):
            if rng.random() < 0.4:
                cusp = {(2 * rng.randint(2, 8), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), 4)}
                tate = {rng.randint(0, 4): Fraction(rng.randint(-9, 9), 3)}
                terms[lam] = MotiveClass(tate=tate, cusp=cusp)
    cuspy = sf.SymSeries(12, terms)
    assert cuspy._den > 1 and len(cuspy._traces) > 1
    return [genus0.a0_series(12), genus0.b0_prime(12), genus0.ch_lie(12), cuspy]


def test_to_schur_matches_character_oracle():
    """Adding border strips gives the tables of the per-pair route, one
    ``character_oracle`` value per (lam, mu), through n = 12."""
    for f in _schur_sources():
        F = fs.FractionSeries.of(f)
        for n in range(13):
            assert f.to_schur(n) == F.to_schur(n), n


def test_to_schur_reads_no_character(monkeypatch):
    from cuspmotive import combinatorics

    sources = _schur_sources()
    want = [[f.to_schur(n) for n in range(13)] for f in sources]

    def refuse(*args, **kwargs):
        raise AssertionError("to_schur read a character")

    monkeypatch.setattr(sf, "character", refuse)
    monkeypatch.setattr(combinatorics, "character", refuse)
    monkeypatch.setattr(combinatorics, "_strip_sum", refuse)
    assert [[f.to_schur(n) for n in range(13)] for f in sources] == want


def test_scaled_refuses_floats_and_strings():
    f = sf.power_sum(1, 3)
    assert f.scaled(True) == f and f.scaled(Fraction(1, 3)) * 3 == f
    for c in (0.1, 2.0, "1/3", None):
        with pytest.raises(TypeError):
            f.scaled(c)
        with pytest.raises(TypeError):
            f.alt().scaled(c)
    with pytest.raises(TypeError):
        f * 0.5


def test_keys_keep_the_size_then_reverse_lexicographic_order():
    """Keys come out by size, then in reverse lexicographic order, as the
    sort key (size, negated parts) orders them."""

    def sort_key(lam):
        return sum(lam), tuple(-part for part in lam)

    a0 = genus0.a0_series(20)
    keys = a0._keys()
    assert len(keys) == 2710 and keys == sorted(keys, key=sort_key)
    rng = random.Random(15)
    for _ in range(40):
        f = _random_series(rng, rng.randint(0, 9), allow_cusp=True)
        g = f * _random_series(rng, f.max_degree)
        for series in (f, g):
            keys = series._keys()
            assert keys == sorted(set().union(*series._traces.values()), key=sort_key)
            assert all(type(lam) is Partition for lam in keys)


def test_log_geometric_inverse():
    g = sf.complete(1, 6) + sf.complete(2, 6)
    geo = sf.geometric(g)
    assert geo * (sf.one(6) - g) == sf.one(6)
    # -log(1-p1) = sum p1^m / m
    lg = sf.log_one_minus(sf.power_sum(1, 5))
    for m in range(1, 6):
        assert lg.coefficient(P(*([1] * m))) == MotiveClass.from_rational(
            Fraction(-1, m)
        )


def test_alt_series_ops():
    a = sf.power_sum(1, 4).alt()
    b = sf.elementary(2, 4).alt()
    assert (a + b).coefficient(2) == ONE
    prod = a * b
    assert prod.coefficient(3) == ONE
    assert (a - a).coefficient(1) == MotiveClass.zero()
    with pytest.raises(ValueError):
        a + sf.power_sum(1, 5).alt()


def _random_alt(rng, max_degree, allow_cusp=True):
    coeffs = {
        n: _random_motive(rng, allow_cusp) for n in range(max_degree + 1) if rng.random() < 0.7
    }
    return sf.AltSeries(max_degree, coeffs), coeffs


def test_coefficient_terms_are_the_series_channels():
    """MotiveClass keys (k, j) number the series channels: the coefficient
    at a key reads channel k's polynomial p as p[j] / (weight D), with S[2]
    stored on channel 0."""
    rng = random.Random(24)
    cusp_terms = 0
    for _ in range(60):
        n = rng.randint(0, 7)
        for series in (_random_series(rng, n, allow_cusp=True), _random_alt(rng, n)[0]):
            for key in set().union(*series._traces.values()):
                den = series._weight(key) * series._den
                want = tuple(sorted(
                    ((k, j), Fraction(c, den))
                    for k, ch in series._traces.items() if key in ch
                    for j, c in enumerate(ch[key]) if c
                ))
                got = series.coefficient(key).terms()
                assert got == want and all(type(c) is Fraction for _, c in got), key
                cusp_terms += sum(1 for (k, _), _ in got if k)
    assert cusp_terms
    for j in range(3):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        s2 = MotiveClass(cusp={(2, j): c})
        for series, key in ((sf.SymSeries(3, {P(2, 1): s2}), P(2, 1)), (sf.AltSeries(3, {2: s2}), 2)):
            assert set(series._traces) == {0}
            assert series.coefficient(key).terms() == (((0, j), -c), ((0, j + 1), -c))
            assert series.coefficient(key) == -c * L ** (j + 1) - c * L**j


def test_alt_series_normal_form_against_motive_class():
    """Sums, scalings, products and psi_m of the integer channels agree with
    the same operations done coefficient by coefficient in MotiveClass."""
    rng = random.Random(13)
    zero = MotiveClass.zero()
    for _ in range(60):
        n = rng.randint(0, 8)
        (a, ca), (b, cb) = _random_alt(rng, n), _random_alt(rng, n)
        assert (a + b) - b == a
        p, q = rng.choice([-5, -3, -1, 1, 2, 7]), rng.randint(1, 6)
        assert a.scaled(Fraction(p, q)).scaled(Fraction(q, p)) == a
        scaled = {d: c * Fraction(p, q) for d, c in ca.items()}
        assert a.scaled(Fraction(p, q)) == sf.AltSeries(n, scaled)

        def by_coefficients():
            out = {}
            for d in range(n + 1):
                total = zero
                for i in range(d + 1):
                    total = total + ca.get(i, zero) * cb.get(d - i, zero)
                out[d] = total
            return out

        want = _outcome(by_coefficients)
        got = _outcome(lambda: a * b)
        if isinstance(want, dict):
            assert [got.coefficient(d) for d in range(n + 1)] == [want[d] for d in range(n + 1)]
        else:
            assert got is want is UnsupportedCuspOperation
        for m in range(1, n + 2):
            want = _outcome(
                lambda: {
                    d * m: c.adams(m) * (-1) ** ((m - 1) * d) for d, c in ca.items() if d * m <= n
                }
            )
            got = _outcome(lambda: a.adams(m))
            if isinstance(want, dict):
                assert [got.coefficient(d) for d in range(n + 1)] == [
                    want.get(d, zero) for d in range(n + 1)
                ]
            else:
                assert got is want is UnsupportedCuspOperation


def test_alt_series_adams():
    f = sf.AltSeries(9, {1: L, 2: ONE + L, 3: 2 * ONE})
    # degree d -> d*m, sign (-1)^((m-1)d), L -> L^m; beyond the truncation drops
    assert f.adams(1) == f
    assert f.adams(2) == sf.AltSeries(9, {2: -(L * L), 4: ONE + L * L, 6: -2 * ONE})
    assert f.adams(3) == sf.AltSeries(9, {3: L**3, 6: ONE + L**3, 9: 2 * ONE})
    assert f.adams(10) == sf.AltSeries(9)
    # agrees with Alt of the plethysm by p_m on a Tate-only series
    g = sf.complete(2, 6).scaled(L) + sf.power_sum(1, 6) * sf.power_sum(2, 6)
    for m in range(1, 7):
        assert sf.power_sum(m, 6).plethysm(g).alt() == g.alt().adams(m)
    with pytest.raises(ValueError):
        f.adams(0)
    with pytest.raises(UnsupportedCuspOperation):
        sf.AltSeries(4, {1: MotiveClass.cusp(12)}).adams(2)


def test_series_functions_commute_with_alt():
    g = sf.complete(1, 7).scaled(L) + sf.complete(2, 7) - sf.elementary(3, 7)
    assert sf.log_one_minus(g.alt()) == sf.log_one_minus(g).alt()
    assert sf.geometric(g.alt()) == sf.geometric(g).alt()
    assert sf.log_one_minus(sf.AltSeries(5)) == sf.AltSeries(5)
    with pytest.raises(ValueError):
        sf.geometric(sf.AltSeries(5, {0: 1, 1: 1}))


def test_json_round_trips():
    f = sf.complete(2, 4).scaled(L) + sf.power_sum(1, 4).scaled(
        MotiveClass.cusp(12)
    )
    assert sf.SymSeries.from_json(f.to_json()) == f
    doc = f.to_json(basis="schur")
    assert doc["basis"] == "schur"
    alt_doc = f.alt().to_json()
    assert alt_doc["max_degree"] == 4


def test_truncation_must_be_an_integer():
    """A float or a string is refused as a truncation, for both series types,
    instead of being stored and printed as the degree."""
    for cls, bad in ((sf.SymSeries, 3.5), (sf.AltSeries, 2.5), (sf.SymSeries, "3")):
        with pytest.raises(TypeError):
            cls(bad)
        with pytest.raises(TypeError):
            cls._make(bad, {})
    assert sf.SymSeries(3).max_degree == 3 and sf.AltSeries(2).max_degree == 2


def test_keys_are_integers_and_coefficients_stay_in_the_truncation():
    """A float or str degree is refused, not truncated, and a coefficient
    outside degrees 0..max_degree is an error, not 0, for both series types."""
    for bad in ({2.5: 1}, {"3": 2}, {2.0: 1}):
        with pytest.raises(TypeError):
            sf.AltSeries(5, bad)
    alt = sf.AltSeries(4, {1: L, 4: ONE})
    assert alt.coefficient(4) == ONE and alt.coefficient(0).is_zero()
    a0 = genus0.a0_series(4)
    assert a0.coefficient(P(2, 2)) == genus0.a0_series(5).coefficient(P(2, 2))
    assert sf.SymSeries(3).coefficient(()).is_zero()
    for series, key in ((alt, 5), (alt, -1), (a0, P(3, 2)), (sf.SymSeries(3), P(2, 2))):
        with pytest.raises(ValueError, match="beyond truncation"):
            series.coefficient(key)


def test_from_json_refuses_non_integer_partitions():
    def doc(partition, coeff="1/2"):
        term = {"degree": 2, "partition": partition, "coeff": {"tate": [[0, coeff]], "cusp": []}}
        return {"max_degree": 3, "basis": "power", "terms": [term]}

    assert sf.SymSeries.from_json(doc([2])) == sf.power_sum(2, 3).scaled(Fraction(1, 2))
    for bad in ([2.7], [2.0], ["2"], [1, 0.5], [True], [2, True]):
        with pytest.raises(ValueError):
            sf.SymSeries.from_json(doc(bad))
    with pytest.raises(ValueError):
        sf.SymSeries.from_json(doc([2], 0.5))
    twice = doc([2])
    twice["terms"] *= 2
    with pytest.raises(ValueError):
        sf.SymSeries.from_json(twice)
    for bad in (3.5, True):
        with pytest.raises(TypeError):
            sf.SymSeries.from_json({**doc([2]), "max_degree": bad})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedCuspOperation as exc:
        return type(exc)


def test_series_functions_match_power_chain():
    rng = random.Random(2026)
    for max_degree in range(1, 11):
        for min_degree in (1, 2, 3):
            for series in (
                _random_series(rng, max_degree, min_degree=min_degree),
                _random_series(rng, max_degree, min_degree=min_degree).alt(),
                sf.SymSeries(max_degree),
                sf.AltSeries(max_degree),
            ):
                assert sf.log_one_minus(series) == power_chain.log_one_minus(series)
                assert sf.geometric(series) == power_chain.geometric(series)


def test_series_functions_match_power_chain_on_cusp_coefficients():
    rng = random.Random(4)
    raised = kept_cusp = 0
    for max_degree in range(2, 11):
        for min_degree in (1, 2, 3):
            g = _random_series(rng, max_degree, allow_cusp=True, min_degree=min_degree)
            for series in (g, g.alt()):
                for fn, oracle in (
                    (sf.log_one_minus, power_chain.log_one_minus),
                    (sf.geometric, power_chain.geometric),
                ):
                    got = _outcome(fn, series)
                    assert got == _outcome(oracle, series)
                    if got is UnsupportedCuspOperation:
                        raised += 1
                    elif any(not c.is_tate_only() for _, c in got.items()):
                        kept_cusp += 1
    # both kinds of cusp input occurred: a product of two cusp symbols inside
    # the truncation, and cusp terms too far apart to meet
    assert raised and kept_cusp


# -- the integer trace kernel against the Fraction oracle --------------------


def _run(thunk):
    try:
        return thunk()
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def _agree(kernel, oracle):
    """Both routes raise the same error or give the same value."""
    got, want = _run(kernel), _run(oracle)
    if isinstance(got, sf.SymSeries):
        got = fs.FractionSeries.of(got)
    assert got == want
    return got


def test_kernel_matches_fraction_oracle_on_random_series():
    rng = random.Random(20261018)
    raised = set()
    for case in range(80):
        n = rng.randint(1, 7)
        f = _random_series(rng, n, allow_cusp=True)
        g = _random_series(rng, n, allow_cusp=True, min_degree=rng.randint(0, 1))
        h = _random_series(rng, n, min_degree=1)
        F, G, H = (fs.FractionSeries.of(s) for s in (f, g, h))
        assert F.to_series() == f
        outcomes = [
            _agree(lambda: f * g, lambda: F * G),
            _agree(lambda: f + g, lambda: F + G),
            _agree(lambda: f.scaled(Fraction(-3, 7)), lambda: F.scaled(Fraction(-3, 7))),
            _agree(lambda: f.plethysm(h), lambda: F.plethysm(H)),
            _agree(lambda: f.plethysm(g), lambda: F.plethysm(G)),
            _agree(lambda: h.plethysm(h), lambda: H.plethysm(H)),
            _agree(
                lambda: f.scaled(Fraction(5, 6)).plethysm(h.scaled(Fraction(2, 9))),
                lambda: F.scaled(Fraction(5, 6)).plethysm(H.scaled(Fraction(2, 9))),
            ),
            _agree(lambda: sf.log_one_minus(g), lambda: fs.log_one_minus(G)),
            _agree(lambda: sf.geometric(g), lambda: fs.geometric(G)),
            _agree(lambda: sf.log_one_minus(h), lambda: fs.log_one_minus(H)),
            _agree(lambda: sf.geometric(h), lambda: fs.geometric(H)),
            _agree(f.alt, F.alt),
            _agree(lambda: h.adams(2), lambda: H.adams(2)),
        ]
        for k in (1, 2):
            outcomes.append(_agree(lambda: f.p_derivative(k), lambda: F.p_derivative(k)))
        for m in range(n + 1):
            assert f.to_schur(m) == F.to_schur(m)
            _agree(
                lambda: f.inner(g, m),
                lambda: sum(
                    (
                        F.coefficient(lam) * G.coefficient(lam) * z_of(lam)
                        for lam in partitions_of(m)
                    ),
                    MotiveClass.zero(),
                ),
            )
            assert f.dimension(m) == F.coefficient((1,) * m) * math.factorial(m)
        assert fs.FractionSeries.of(f.tate_layer(1)) == F.tate_layer(1)
        raised.update(o for o in outcomes if isinstance(o, type))
    # both guards fired on both routes: two cusp symbols meeting, and a constant term
    assert raised == {UnsupportedCuspOperation, ValueError}


def test_too_narrow_packing_width_is_refused(monkeypatch):
    # read at 8 bits, a coefficient of 1000 comes back as a different polynomial
    packed = sf._pack((1000, -3), 8)
    assert sf._unpack(packed, 8, 127) != (1000, -3)
    with pytest.raises(ArithmeticError):
        sf._unpack(packed, 8, 1000)
    w = sf._width(1000)
    assert sf._unpack(sf._pack((1000, -3), w), w, 1000) == (1000, -3)
    a0 = genus0.a0_series(8)
    a0p = genus0.a0_first_derivative(8)
    g = sf.complete(1, 8) + genus0.b0_prime(8)
    monkeypatch.setattr(sf, "_width", lambda bound: 8)
    for thunk in (
        lambda: a0 * a0,
        lambda: a0p.plethysm(g),
        lambda: a0.to_schur(8),
        lambda: a0.inner(a0, 8),
    ):
        with pytest.raises(ArithmeticError, match="too narrow"):
            thunk()
