import math
from fractions import Fraction

import fraction_counts as fc
import fraction_series as fs
import pytest
import signed_walk

from cuspmotive import genus0, pipeline, symfunc as sf
from cuspmotive.combinatorics import Partition, moebius, partitions_of
from cuspmotive.motive import L, ONE, MotiveClass


def P(*parts):
    return Partition(parts)


def R(x):
    return MotiveClass.from_rational(Fraction(x))


def test_closed_point_counts():
    # d times the count of degree-d closed points, constant term first
    assert genus0._closed_point_poly(1) == (1, 1)  # L + 1
    assert genus0._closed_point_poly(2) == (0, -1, 1)  # L^2 - L
    assert genus0._closed_point_poly(3) == (0, -1, 0, 1)  # L^3 - L


def test_a0_degree_three():
    a0 = genus0.a0_series(3)
    assert a0.coefficient(P(1, 1, 1)) == R(Fraction(1, 6))
    assert a0.coefficient(P(2, 1)) == R(Fraction(1, 2))
    assert a0.coefficient(P(3)) == R(Fraction(1, 3))
    assert a0.coefficient(P(1)).is_zero()
    assert a0.coefficient(P(2)).is_zero()


def test_a0_degree_four_frozen():
    a0 = genus0.a0_series(4)
    quarter = Fraction(1, 4)
    assert a0.coefficient(P(1, 1, 1, 1)) == Fraction(1, 24) * (L - 2 * ONE)
    assert a0.coefficient(P(2, 1, 1)) == quarter * L
    assert a0.coefficient(P(2, 2)) == Fraction(1, 8) * (L - 2 * ONE)
    assert a0.coefficient(P(3, 1)) == Fraction(1, 3) * (L + ONE)
    assert a0.coefficient(P(4)) == quarter * L


def test_a0_nonequivariant_ranks():
    # e_c of the open configuration spaces modulo automorphisms
    assert genus0.a0_series(3).dimension(3) == ONE
    assert genus0.a0_series(4).dimension(4) == L - 2 * ONE
    assert genus0.a0_series(5).dimension(5) == L * L - 5 * L + 6 * ONE


def test_a0_weight_bounds():
    a0 = genus0.a0_series(8)
    for n in range(3, 9):
        for lam, coeff in a0.degree_terms(n).items():
            assert coeff.is_tate_only()
            for j, c in coeff.tate_items():
                assert 0 <= j <= n - 3


def test_twisted_count_divisibility_is_enforced():
    # every partition of every degree must divide exactly
    for n in range(3, 21):
        for lam in partitions_of(n):
            genus0.twisted_count_poly(lam)  # raises ArithmeticError on failure


def test_inexact_division_raises():
    assert genus0._divide_by_q3_minus_q((0, -1, 0, 1)) == (1,)
    assert genus0._divide_by_q3_minus_q((0, -2, 1, 1, -1, 1)) == (2, -1, 1)
    with pytest.raises(ArithmeticError):
        genus0._divide_by_q3_minus_q((1, -1, 0, 1))  # q^3 - q + 1
    with pytest.raises(ArithmeticError):
        genus0._divide_by_q3_minus_q((0, 0, 1, 0, 1))  # q^4 + q^2


def test_a0_walk_matches_per_partition_route():
    a0 = genus0.a0_series(20)
    want = {lam: genus0.twisted_count_poly(lam) for n in range(3, 21) for lam in partitions_of(n)}
    assert len(want) == 2710
    assert a0._traces == {0: want}
    assert list(a0._traces[0]) == a0._keys()


def test_a0_series_builds_without_per_partition_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a0_series called twisted_count_poly")

    built = genus0.a0_series.__wrapped__
    want = genus0.a0_series(12)
    monkeypatch.setattr(genus0, "twisted_count_poly", refuse)
    assert built(12) == want


def test_a0_series_divides_once_per_size_3_prefix(monkeypatch):
    """The prefixes first reaching size 3 are (d) for d = 3..20, (2, 1),
    (2, 2) and (1, 1, 1): 21 divisions for 2,710 traces."""
    divisions = []
    divide = genus0._divide_by_q3_minus_q

    def counted(num):
        divisions.append(num)
        return divide(num)

    monkeypatch.setattr(genus0, "_divide_by_q3_minus_q", counted)
    assert genus0.a0_series.__wrapped__(20) == genus0.a0_series(20)
    assert len(divisions) == 21


def test_twisted_count_poly_matches_fraction_oracle():
    for n in range(3, 15):
        for lam in partitions_of(n):
            got = genus0.twisted_count_poly(lam)
            assert all(type(c) is int for c in got), lam
            assert got == tuple(fc.twisted_count_poly(lam)), lam


def test_closed_point_counts_match_fraction_oracle():
    for d in range(1, 13):
        got = genus0._closed_point_poly(d)
        assert all(type(c) is int for c in got), d
        assert got == tuple(d * c for c in fc.closed_point_poly(d)), d


def test_derivatives_shift_degree():
    a0p = genus0.a0_first_derivative(4)
    assert a0p.max_degree == 4
    assert a0p.degree_terms(2) == sf.complete(2, 4).degree_terms(2)
    a0pp = genus0.a0_second_derivative(4)
    assert a0pp.coefficient(P(1)) == ONE


def test_fused_alt_derivatives_match_symseries_route():
    for n in range(2, 15):
        assert genus0.a0_alt_derivatives(n) == (
            genus0.a0_first_derivative(n).alt(),
            genus0.a0_second_derivative(n).alt(),
            genus0.a0_p2_derivative(n).alt(),
        )


def test_fused_alt_derivatives_closed_forms():
    n_max = pipeline.MAX_POINTS
    first, second, p2 = genus0.a0_alt_derivatives(n_max)
    assert first == sf.AltSeries(n_max)
    assert second == sf.AltSeries(n_max, {n: (-1) ** (n - 1) for n in range(1, n_max + 1)})
    assert p2 == sf.AltSeries(n_max, {n: Fraction(1, 2) for n in range(1, n_max + 1)})


def test_product_route_matches_signed_walk():
    n_max = 20
    got = genus0.a0_alt_derivatives(n_max)
    assert got == signed_walk.alt_derivatives(n_max)
    for n in range(1, n_max + 1):
        layer = genus0._alt_derivative_layer(n)  # Alt(a0'), Alt(a0''), 2 Alt(a0dot) in Z[q]
        got_n = tuple(
            MotiveClass(tate=dict(enumerate(p))) * Fraction(1, den)
            for p, den in zip(layer, (1, 1, 2))
        )
        assert got_n == signed_walk.alt_derivative_layer(n), n


def test_product_route_rational_function_identities():
    n = 60
    one, t = sf.AltSeries(n, {0: 1}), sf.AltSeries(n, {1: 1})
    alt_f = sf.AltSeries(
        n,
        {k: MotiveClass(tate=dict(enumerate(genus0._alt_product_layer(k)[0]))) for k in range(n + 1)},
    )
    assert alt_f == (one + t) * (one + t.scaled(L))
    first, second, p2 = genus0.a0_alt_derivatives(n)
    assert first == sf.AltSeries(n)
    assert (one + t) * second == t
    assert (one - t) * p2.scaled(2) == t


def test_ch_lie_low_degrees():
    lie = genus0.ch_lie(6)
    assert not lie.degree_terms(1)
    assert not lie.degree_terms(2)
    assert lie.degree_terms(3) == sf.elementary(3, 6).degree_terms(3)


def test_signed_lie_closed_form():
    n = 8
    signed = genus0.signed_lie(n)
    total = sf.zero(n)
    for m in range(1, n + 1):
        pm = sf.power_sum(m, n)
        total = total - sf.log_one_minus(pm.scaled(-1)).scaled(Fraction(moebius(m), m))
    closed = (
        total * (sf.one(n) + sf.power_sum(1, n))
        + sf.complete(1, n)
        + sf.elementary(2, n)
    )
    assert signed == closed


def test_signed_lie_is_the_coefficientwise_sign_flip():
    """signed_lie, built on traces, against the coefficient route that
    flips each p_lam of ch_lie by (-1)^(rows + 1)."""
    for n in range(3, 13):
        lie = genus0.ch_lie(n)
        want = sf.SymSeries(n, {lam: c * (-1) ** (lam.rows + 1) for lam, c in lie.items()})
        assert genus0.signed_lie(n) == want


def test_signed_lie_derivative_identities():
    n = 9
    signed = genus0.signed_lie(n)
    d1 = signed.p_derivative(1).p_derivative(1)
    # p1/(1+p1) = sum (-1)^(m-1) p1^m
    for m in range(1, n - 1):
        assert d1.coefficient(P(*([1] * m))) == R((-1) ** (m - 1))
    d2 = signed.p_derivative(2)
    geom = sf.geometric(sf.power_sum(2, n - 2).scaled(-1))
    closed = (sf.power_sum(1, n - 2) - sf.power_sum(2, n - 2)).scaled(
        Fraction(1, 2)
    ) * geom
    assert d2 == closed


def test_lie_layer_of_point_count():
    n = 8
    assert genus0.a0_series(n).tate_layer(0) == genus0.signed_lie(n)


def test_b0_prime_low_degrees():
    b = genus0.b0_prime(4)
    assert b.degree_terms(2) == sf.complete(2, 4).degree_terms(2)
    deg3 = sf.complete(3, 4).scaled(L + ONE)
    assert b.degree_terms(3) == deg3.degree_terms(3)
    assert not b.degree_terms(1)


def test_b0_prime_betti_numbers():
    b = genus0.b0_prime(4)
    ranks = [b.tate_layer(j).dimension(4).as_rational() for j in range(3)]
    assert ranks == [1, 5, 1]
    assert b.tate_layer(3).dimension(4).is_zero()


def test_b0_prime_palindromic():
    b = genus0.b0_prime(8)
    for n in range(2, 9):
        for lam, coeff in b.degree_terms(n).items():
            assert coeff == coeff.dual_in_dimension(n - 2)


def test_b0_prime_solves_fixed_point():
    n = 7
    b = genus0.b0_prime(n)
    a0p = genus0.a0_first_derivative(n)
    assert a0p.plethysm(sf.complete(1, n) + b) == b


def _keel_poincare(n_max):
    """Poincare polynomials h_n(q) of M_(0,n)-bar by Keel's recursion.

    h_3 = 1 and h_(n+1) = (1 + q) h_n + (q/2) sum_(i=2..n-2) C(n, i) h_(i+1) h_(n-i+1).
    """
    h = {3: [Fraction(1)]}
    for n in range(3, n_max):
        nxt = [Fraction(0)] * (n - 1)
        for j, c in enumerate(h[n]):
            nxt[j] += c
            nxt[j + 1] += c
        for i in range(2, n - 1):
            for a, x in enumerate(h[i + 1]):
                for b, y in enumerate(h[n - i + 1]):
                    nxt[a + b + 1] += Fraction(math.comb(n, i), 2) * x * y
        h[n + 1] = nxt
    return h


def test_b0_prime_ranks_match_keel_recursion():
    """The rank of the degree-n piece of b0' is the Poincare polynomial of M_(0,n+1)-bar."""
    n_max = 12
    h = _keel_poincare(n_max + 1)
    assert h[7] == [1, 42, 127, 42, 1]
    assert h[9] == [1, 219, 3292, 7723, 3292, 219, 1]
    b = genus0.b0_prime(n_max)
    for n in range(2, n_max + 1):
        rank = b.dimension(n)
        assert [rank.tate_coefficient(j) for j in range(n - 1)] == h[n + 1], n
        assert all(j < n - 1 for j, _ in rank.tate_items()), n


def test_a0_and_b0_prime_match_fraction_oracle():
    """b0' by the integer kernel equals the Fraction plethysm route through degree 12,
    whether solved to 12 or to 14; a0 equals its Fraction point counts over z."""
    assert fs.FractionSeries.of(genus0.a0_series(13)) == fs.a0_series(13)
    want = fs.b0_prime(12)
    for n in (12, 14):
        assert fs.FractionSeries.of(genus0.b0_prime(n).truncate(12)) == want, n


def test_poincare_schur_matches_fraction_oracle():
    for n in range(3, 11):
        assert genus0.poincare_schur(n) == fs.poincare_schur(n), n


def test_poincare_schur_small():
    t4 = genus0.poincare_schur(4)
    assert t4[0] == {P(4): 1}
    assert t4[1] == {P(2, 2): 1}
    assert len(t4) == 2
    t3 = genus0.poincare_schur(3)
    assert t3 == [{P(3): 1}]


def test_poincare_schur_row_bounds():
    for n in range(3, 8):
        for i, rep in enumerate(genus0.poincare_schur(n)):
            for lam in rep:
                assert lam.rows <= i + 1
                assert rep[lam] > 0


def test_range_guards():
    with pytest.raises(ValueError):
        genus0.a0_series(2)
    with pytest.raises(ValueError):
        genus0.a0_alt_derivatives(0)
    with pytest.raises(ValueError):
        genus0.poincare_schur(2)
    with pytest.raises(ValueError):
        genus0.poincare_schur(11)
