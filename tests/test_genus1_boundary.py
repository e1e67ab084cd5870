import random
from fractions import Fraction

import pytest

from cuspmotive import genus0, genus1_boundary as bdry, genus1_fiber as fib, pipeline, symfunc as sf
from cuspmotive.combinatorics import Partition, euler_phi
from cuspmotive.motive import L, ONE, MotiveClass


def P(*parts):
    return Partition(parts)


def test_necklace_degree_one_and_two():
    neck = bdry.necklace_series(2)
    assert neck.coefficient(P(1)) == Fraction(1, 2) * ONE
    assert neck.coefficient(P(1, 1)) == Fraction(1, 4) * (L - ONE)
    assert neck.coefficient(P(2)) == Fraction(1, 4) * (L + ONE)


def test_correction_degree_one():
    corr = bdry.correction_series(2)
    assert corr.coefficient(P(1)) == Fraction(1, 2) * ONE


def test_shared_formula_matches_plethysm_route():
    """Oracle: psi_m(a0'') as the plethysm p_m o a0'', and one logarithm per m."""
    for n in range(2, 11):
        a0pp = genus0.a0_second_derivative(n)
        a0dot = genus0.a0_p2_derivative(n)
        neck = sf.zero(n)
        for m in range(1, n + 1):
            log = sf.log_one_minus(sf.power_sum(m, n).plethysm(a0pp))
            neck = neck + log.scaled(Fraction(euler_phi(m), m))
        assert bdry.necklace_from(a0pp) == neck.scaled(Fraction(-1, 2)), n
        psi2 = sf.power_sum(2, n).plethysm(a0pp)
        corr = (a0dot * a0dot + a0dot + psi2.scaled(Fraction(1, 4))) * sf.geometric(psi2)
        assert bdry.correction_from(a0dot, a0pp) == corr, n


def test_zero_inputs_give_zero():
    z = sf.zero(4)
    assert bdry.necklace_from(z).is_zero()
    assert bdry.correction_from(z, z).is_zero()


def test_boundary_sum_degree_one():
    total = bdry.boundary_sum(3)
    assert total.coefficient(P(1)) == ONE


def test_boundary_alt_closed_form():
    alt = bdry.boundary_alt(8)
    for n in range(1, 9):
        want = ONE if n % 2 else MotiveClass.zero()
        assert alt.coefficient(n) == want


def test_boundary_alt_coefficients_carry_no_weight():
    alt = bdry.boundary_alt(8)
    for n in range(1, 9):
        assert alt.coefficient(n).is_rational()


def test_boundary_alt_matches_symseries_route():
    for n in range(2, 11):
        assert bdry.boundary_alt(n) == bdry.boundary_sum(n).alt()


def test_boundary_alt_truncates_consistently():
    top = bdry.boundary_alt(pipeline.MAX_POINTS)
    for n in range(2, pipeline.MAX_POINTS):
        low = bdry.boundary_alt(n)
        assert all(low.coefficient(k) == top.coefficient(k) for k in range(n + 1))


def _fresh_boundary(monkeypatch):
    """Forget every solved boundary series and count the solves from here on."""
    monkeypatch.setattr(bdry, "_grown", [])
    bdry.boundary_alt.cache_clear()
    solves = []
    solve = bdry.boundary_alt_from

    def counted(*args):
        solves.append(args[0].max_degree)
        return solve(*args)

    monkeypatch.setattr(bdry, "boundary_alt_from", counted)
    return solves


def test_boundary_alt_slices_equal_direct_solves(monkeypatch):
    _fresh_boundary(monkeypatch)
    order = list(range(2, pipeline.MAX_POINTS + 1))
    random.Random(12).shuffle(order)
    for n in order:
        assert bdry.boundary_alt(n) == bdry.boundary_alt_from(*genus0.a0_alt_derivatives(n)), n


def test_boundary_alt_solves_once_per_doubling(monkeypatch):
    solves = _fresh_boundary(monkeypatch)
    for n in range(2, 13):
        bdry.boundary_alt(n)
    assert solves == [2, 4, 8, 16]
    solves = _fresh_boundary(monkeypatch)
    bdry.boundary_alt(11)
    bdry.boundary_alt(7)
    assert solves == [11]
    solves = _fresh_boundary(monkeypatch)
    for n in range(2, pipeline.MAX_POINTS + 3):
        bdry.boundary_alt(n)
    assert solves == [2, 4, 8, 16, pipeline.MAX_POINTS, pipeline.MAX_POINTS + 1, pipeline.MAX_POINTS + 2]


def test_boundary_solve_runs_no_motive_class_arithmetic(monkeypatch):
    """From the product layers to the solved series, all arithmetic is on integers."""
    def refuse(*args, **kwargs):
        raise AssertionError("the boundary solve ran MotiveClass arithmetic")

    genus0._alt_derivative_layer.cache_clear()
    genus0._alt_product_layer.cache_clear()
    closed_form = sf.AltSeries(20, {n: 1 for n in range(1, 21, 2)})  # t/(1 - t^2)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__", "adams"):
        monkeypatch.setattr(MotiveClass, name, refuse)
    assert bdry.boundary_alt_from(*genus0.a0_alt_derivatives(20)) == closed_form


def test_boundary_alt_from_rejects_nonzero_alt_of_a0_first_derivative():
    n = 6
    routes = [
        d(n).alt()
        for d in (genus0.a0_first_derivative, genus0.a0_second_derivative, genus0.a0_p2_derivative)
    ]
    assert bdry.boundary_alt_from(*routes) == bdry.boundary_alt(n)
    a0p, a0pp, a0dot = genus0.a0_alt_derivatives(n)
    bad = a0p + sf.elementary(4, n).alt()
    with pytest.raises(RuntimeError):
        bdry.boundary_alt_from(bad, a0pp, a0dot)


def test_composition_invariance_small():
    n = 6
    u = bdry.boundary_sum(n)
    composed = u.plethysm(sf.complete(1, n) + genus0.b0_prime(n))
    assert composed.alt() == u.alt()


def test_b1_degree_one():
    n = 4
    a1 = fib.interior_exact_series(n)
    b1 = bdry.b1_series(n, a1)
    assert b1.degree_terms(1) == {P(1): L + ONE}


def test_b1_low_degrees_palindromic():
    n = 4
    a1 = fib.interior_small_series(n, n)
    b1 = bdry.b1_series(n, a1)
    for m in range(1, n + 1):
        for lam, coeff in b1.degree_terms(m).items():
            assert coeff == coeff.dual_in_dimension(m)


def test_b1_series_requires_matching_truncation():
    with pytest.raises(ValueError):
        bdry.b1_series(5, fib.interior_exact_series(4))


def test_degree_guards():
    with pytest.raises(ValueError):
        bdry.boundary_alt(1)
    with pytest.raises(ValueError):
        bdry.necklace_series(0)
    with pytest.raises(ValueError):
        bdry.correction_series(-1)
