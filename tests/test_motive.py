import random
from fractions import Fraction

import pytest

from cuspmotive.motive import (
    L,
    ONE,
    ZERO,
    MotiveClass,
    UnsupportedCuspOperation,
    dim_cusp_forms,
)


def test_basic_ring_ops():
    x = L + 2 * ONE
    y = L * L - ONE
    assert x + y == MotiveClass(tate={2: 1, 1: 1, 0: 1})
    assert x * y == MotiveClass(tate={3: 1, 2: 2, 1: -1, 0: -2})
    assert x - x == ZERO
    assert -x + x == ZERO
    assert (x * ZERO).is_zero()
    assert Fraction(1, 2) * L == MotiveClass(tate={1: Fraction(1, 2)})


def test_constructor_validation():
    with pytest.raises(ValueError):
        MotiveClass(tate={-1: 1})
    with pytest.raises(ValueError):
        MotiveClass.cusp(3)
    with pytest.raises(ValueError):
        MotiveClass.cusp(1)
    with pytest.raises(AttributeError):
        L.foo = 1  # immutable


def test_constructor_refuses_non_integer_keys():
    for bad in (1.5, 2.0, "2", Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            MotiveClass(tate={bad: 1})
        with pytest.raises(ValueError):
            MotiveClass(cusp={(12, bad): 1})
    for bad in (12.9, 12.0, "12", Fraction(12)):
        with pytest.raises(ValueError):
            MotiveClass(cusp={(bad, 0): 1})
    assert MotiveClass(tate={True: 1}) == L


def test_weight_two_rewrite():
    assert MotiveClass.cusp(2) == -L - ONE
    assert MotiveClass.cusp(2, twist=3) == -(L**4) - L**3
    assert MotiveClass(cusp={(2, 0): Fraction(2)}) == -2 * L - 2 * ONE


def test_cusp_products_are_rejected():
    s12 = MotiveClass.cusp(12)
    assert s12 * L == MotiveClass.cusp(12, twist=1)
    assert (s12 + ONE) * (L + ONE) == s12 * L + s12 + L + ONE
    with pytest.raises(UnsupportedCuspOperation):
        s12 * s12
    with pytest.raises(UnsupportedCuspOperation):
        (s12 + ONE) * (MotiveClass.cusp(16) - L)


def test_scalar_product_matches_class_product():
    r = random.Random(29)
    for _ in range(200):
        x = MotiveClass(
            tate={r.randint(0, 4): Fraction(r.randint(-5, 5), r.randint(1, 4)) for _ in range(3)},
            cusp={
                (2 * r.randint(1, 6), r.randint(0, 2)): Fraction(r.randint(-3, 3), r.randint(1, 3))
                for _ in range(r.randint(0, 2))
            },
        )
        s = r.choice([r.randint(-3, 3), Fraction(r.randint(-4, 4), r.randint(1, 5))])
        want = x * MotiveClass.from_rational(s)
        assert x * s == want
        assert s * x == want
        assert -x == x * MotiveClass.from_rational(-1)
    assert (MotiveClass.cusp(12) * 0).is_zero()
    assert (Fraction(0) * L).is_zero()


def test_adams_operations():
    x = L + 2 * ONE
    assert x.adams(3) == L**3 + 2 * ONE
    assert x.adams(1) == x
    r = random.Random(5)
    for _ in range(50):
        y = MotiveClass(
            tate={r.randint(0, 4): Fraction(r.randint(-5, 5)) for _ in range(3)}
        )
        k, m = r.randint(1, 4), r.randint(1, 4)
        assert y.adams(k).adams(m) == y.adams(k * m)
        z = MotiveClass(tate={r.randint(0, 3): r.randint(-3, 3)})
        assert (y + z).adams(k) == y.adams(k) + z.adams(k)
    with pytest.raises(UnsupportedCuspOperation):
        MotiveClass.cusp(12).adams(2)


def _dim_modular_forms_oracle(k):
    """Count monomials in the two classical generators of weights 4 and 6."""
    return sum(1 for a in range(k // 4 + 1) for b in range(k // 6 + 1) if 4 * a + 6 * b == k)


def test_dim_cusp_forms_against_monomial_count():
    for k in range(4, 80, 2):
        assert dim_cusp_forms(k) == _dim_modular_forms_oracle(k) - 1
    assert dim_cusp_forms(0) == 0
    assert dim_cusp_forms(2) == 0
    assert dim_cusp_forms(7) == 0
    assert dim_cusp_forms(12) == 1
    assert dim_cusp_forms(26) == 1
    assert dim_cusp_forms(24) == 2


def test_rank_and_hodge():
    rank, hodge = MotiveClass.cusp(12).realize()
    assert rank == 2
    assert hodge == [(0, 11, 1), (11, 0, 1)]
    rank, hodge = (L**2 + 3 * ONE).realize()
    assert rank == 4
    assert hodge == [(0, 0, 3), (2, 2, 1)]
    # S[k] symbols with no cusp forms realize to nothing
    rank, hodge = MotiveClass.cusp(8).realize()
    assert rank == 0
    assert hodge == []


def test_rank_is_a_ring_homomorphism_on_tate():
    r = random.Random(11)
    for _ in range(50):
        x = MotiveClass(tate={r.randint(0, 3): Fraction(r.randint(-4, 4), r.randint(1, 3))})
        y = MotiveClass(tate={r.randint(0, 3): Fraction(r.randint(-4, 4))})
        assert (x + y).rank() == x.rank() + y.rank()
        assert (x * y).rank() == x.rank() * y.rank()


def test_duality():
    assert L.dual_in_dimension(3) == L**2
    assert ONE.dual_in_dimension(2) == L**2
    x = MotiveClass.cusp(12, twist=1)
    assert x.dual_in_dimension(13) == MotiveClass.cusp(12, twist=1)
    assert (L + ONE).dual_in_dimension(1) == L + ONE


def test_accessors():
    x = 2 * L + MotiveClass.cusp(12) - 3 * ONE
    assert x.tate_coefficient(1) == 2
    assert x.tate_coefficient(5) == 0
    assert x.cusp_coefficient(12) == 1
    assert not x.is_tate_only()
    assert not x.is_rational()
    assert (3 * ONE).as_rational() == 3
    assert x.rank() == 2 * dim_cusp_forms(12) - 1


def test_json_round_trip():
    samples = [
        ZERO,
        L**3 - Fraction(1, 2) * ONE,
        MotiveClass.cusp(16, twist=2) + 5 * L,
        Fraction(7, 3) * MotiveClass.cusp(12),
    ]
    for x in samples:
        assert MotiveClass.from_json(x.to_json()) == x


def test_from_json_refuses_non_integer_keys_and_float_coefficients():
    """The reader leaves key checks to the constructor, refuses a float
    coefficient, whose Fraction would be its binary approximation, a JSON
    true or false as a key or a coefficient, which would read as 1 or 0, and
    a key listed twice, which a dict would silently collapse."""
    for doc in (
        {"tate": [[True, "1/2"]], "cusp": []},
        {"tate": [], "cusp": [[12, False, 1]]},
        {"tate": [], "cusp": [[True, 0, 1]]},
        {"tate": [[0, True]], "cusp": []},
        {"tate": [[1.5, "1/1"]]},
        {"tate": [[1.0, "1"]]},
        {"tate": [["1", "1"]]},
        {"cusp": [[12.9, 0.5, "1"]]},
        {"cusp": [[12, 0.5, "1"]]},
        {"tate": [[1, 0.5]]},
        {"cusp": [[12, 0, 0.1]]},
        {"tate": [[1, "1"], [1.0, "2"]]},
        {"tate": [[1, "1"], [1, "2"]]},
        {"cusp": [[12, 0, "1"], [12, 0, "1"]]},
    ):
        with pytest.raises(ValueError):
            MotiveClass.from_json(doc)
    doc = {"tate": [[1, 2], [0, "-1/2"], [2, "0.25"]], "cusp": [[12, 1, 3]]}
    want = 2 * L - Fraction(1, 2) * ONE + Fraction(1, 4) * L**2 + 3 * MotiveClass.cusp(12, 1)
    assert MotiveClass.from_json(doc) == want


def test_repr_is_readable():
    assert repr(L**2 + 3 * ONE) == "L^2 + 3"
    assert repr(-MotiveClass.cusp(12) - ONE) == "-S[12] - 1"
    assert repr(ZERO) == "0"
