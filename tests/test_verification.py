from itertools import product

import field_tables as ft

from cuspmotive import genus0, symfunc as sf, verification
from cuspmotive.combinatorics import partitions_of


# Every GF(p^k) small enough to tabulate all its candidate moduli.
SMALL_FIELDS = (
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
    (3, 1), (3, 2), (3, 3), (3, 4),
    (5, 1), (5, 2), (5, 3),
)


def _oracle_fields():
    """Every GF(p^k) the secondary oracle builds: F_(p^e) extended by each part d."""
    return sorted(
        {
            (p, e * d)
            for p, e in verification.ORACLE_FIELDS
            for d in range(1, max(verification.ORACLE_DEGREES) + 1)
        }
    )


def test_field_modulus_matches_table_oracle():
    for p, k in _oracle_fields():
        tail = verification._field_modulus(p, k)
        assert ft.exponent_table(p, tail) is not None, (p, k, tail)
        assert tail == ft.first_primitive_modulus(p, k), (p, k)


def test_certificate_rejects_non_primitive_moduli():
    # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2, but x has order 5
    assert not verification._is_primitive(2, (1, 1, 1, 1))
    # x^2 + 1 = (x + 1)^2 over F_2 and x^2 + 1 = (x + 2)(x + 3) over F_5
    assert not verification._is_primitive(2, (1, 0))
    assert not verification._is_primitive(5, (1, 0))
    # f(0) = 0 makes x a zero divisor
    assert not verification._is_primitive(3, (0, 1))
    for p, k in SMALL_FIELDS:
        for tail in product(range(p), repeat=k):
            assert verification._is_primitive(p, tail) == (
                ft.exponent_table(p, tail) is not None
            ), (p, tail)


def test_norm_filter_keeps_every_primitive_modulus():
    for p, k in SMALL_FIELDS:
        for tail in product(range(p), repeat=k):
            if ft.exponent_table(p, tail) is not None:
                assert verification._norm_generates(p, tail), (p, tail)
    # x^2 + x + 1 over F_5: the norm 1 has order 1, not 4
    assert not verification._norm_generates(5, (1, 1))
    assert not verification._norm_generates(3, (0, 1))


def test_modulus_search_certifies_only_filtered_candidates(monkeypatch):
    certified = []
    real = verification._is_primitive

    def counted(p, tail):
        certified.append((p, tail))
        return real(p, tail)

    monkeypatch.setattr(verification, "_is_primitive", counted)
    verification._field_modulus.cache_clear()
    try:
        moduli = {pk: verification._field_modulus(*pk) for pk in _oracle_fields()}
    finally:
        verification._field_modulus.cache_clear()
    assert moduli == {pk: ft.first_primitive_modulus(*pk) for pk in _oracle_fields()}
    assert len(certified) <= 33
    assert all(verification._norm_generates(p, tail) for p, tail in certified)


def _oracle_point_sets():
    """Every (p, e, d) whose points the secondary oracle counts."""
    return [
        (p, e, d)
        for p, e in verification.ORACLE_FIELDS
        for d in range(1, max(verification.ORACLE_DEGREES) + 1)
    ]


def test_point_ids_match_frobenius_stepping():
    for p, e, d in _oracle_point_sets():
        got = verification._exact_degree_point_ids(p, e, d)
        assert got == tuple(ft.frobenius_point_ids(p, e, d)), (p, e, d)


def test_point_lists_are_built_once_per_field_and_degree():
    verification._exact_degree_point_ids.cache_clear()
    for n in verification.ORACLE_DEGREES:
        for lam in partitions_of(n):
            for p, e in verification.ORACLE_FIELDS:
                verification.twisted_config_count(lam, p, e)
    assert verification._exact_degree_point_ids.cache_info().misses == len(_oracle_point_sets())


def test_composition_invariance_rejects_perturbed_b0_prime(monkeypatch):
    solve = genus0.b0_prime
    monkeypatch.setattr(genus0, "b0_prime", lambda n: solve(n) + sf.complete(6, n))
    result = verification.check_composition_invariance(6)
    assert not result.passed
    assert "does not solve the fixed point" in result.detail
