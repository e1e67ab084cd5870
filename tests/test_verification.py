import field_tables as ft

from cuspmotive import genus0, symfunc as sf, verification
from cuspmotive.combinatorics import partitions_of


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


def test_oracle_fields_pin_down_the_count_polynomials():
    """The exponent model needs each p prime, and the pointwise check
    determines P_lam, of degree n - 3, only at more than n - 3 distinct q."""
    for p, e in verification.ORACLE_FIELDS:
        assert p >= 2 and all(p % r for r in range(2, p)), p
    fields = {p**e for p, e in verification.ORACLE_FIELDS}
    assert len(fields) > max(verification.ORACLE_DEGREES) - 3


def test_secondary_oracle_rejects_each_perturbed_count(monkeypatch):
    solve = genus0.twisted_count_poly
    for n in verification.ORACLE_DEGREES:
        for bad in partitions_of(n):

            def perturbed(lam, bad=bad):
                poly = solve(lam)
                return (poly[0] + 1,) + poly[1:] if lam == bad else poly

            monkeypatch.setattr(genus0, "twisted_count_poly", perturbed)
            result = verification.check_secondary_oracles()
            assert not result.passed, bad
            assert f"lam={tuple(bad)}," in result.detail, (bad, result.detail)


def test_composition_invariance_rejects_perturbed_b0_prime(monkeypatch):
    solve = genus0.b0_prime
    monkeypatch.setattr(genus0, "b0_prime", lambda n: solve(n) + sf.complete(6, n))
    result = verification.check_composition_invariance(6)
    assert not result.passed
    assert "does not solve the fixed point" in result.detail
