import math

import character_oracle as oracle
import pytest
from fiber_words import compose_perms, identity_perm
from stratum_mobius import bell_number, lattice_mobius, stable_poset_mobius

from cuspmotive import combinatorics
from cuspmotive.combinatorics import (
    MAX_SET_PARTITION_GROUND,
    Partition,
    SetPartition,
    apply_perm_to_set_partition,
    character,
    character_dimension,
    class_sign,
    cycle_type,
    divisors,
    euler_phi,
    moebius,
    partitions_of,
    perm_from_cycle_type,
    set_partitions_of,
    stable_set_partitions,
    z_of,
)


def test_partition_validation():
    lam = Partition((3, 1, 1))
    assert lam.size == 5
    assert Partition(lam) is lam
    assert Partition([3, 1, 1]) == lam and Partition([3, 1, 1]) is not lam
    assert Partition(()).size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_refuses_non_integer_parts():
    """A float part is not truncated and a str part is not parsed."""
    for bad in ([2.7], [2.0], [3, 1.5], ["3"], "3", [None]):
        with pytest.raises(ValueError, match="integers"):
            Partition(bad)
    assert Partition([True]) == (1,)


def test_partition_accessors():
    lam = Partition((4, 2, 2, 1))
    assert lam.rows == 4
    assert lam.multiplicities() == {4: 1, 2: 2, 1: 1}
    for n in range(11):
        for mu in partitions_of(n):
            assert class_sign(mu) == (-1) ** sum(1 for p in mu if p % 2 == 0)


def _partition_count_oracle(n_max):
    """Euler's pentagonal-number recurrence, independent of the generator."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_counts_match_pentagonal_recurrence():
    oracle = _partition_count_oracle(30)
    for n in range(31):
        assert len(partitions_of(n)) == oracle[n]


def test_partitions_are_ordered_and_distinct():
    for n in range(9):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        assert all(lam.size == n for lam in parts)


def test_partitions_match_recursive_oracle():
    for n in range(26):
        parts = partitions_of(n)
        assert parts == oracle.partitions_of(n), n
        assert all(type(lam) is Partition for lam in parts), n


def test_z_and_class_size():
    assert z_of(Partition((2, 2, 1))) == 8
    assert z_of(Partition((3, 1))) == 3
    for n in range(1, 8):
        sizes = {lam: math.factorial(n) // z_of(lam) for lam in partitions_of(n)}
        assert sum(sizes.values()) == math.factorial(n)
        for lam in partitions_of(n):
            assert sizes[lam] * z_of(lam) == math.factorial(n)
    for n in range(21):
        for lam in partitions_of(n):
            want = math.prod(d**m * math.factorial(m) for d, m in lam.multiplicities().items())
            assert z_of(lam) == want, lam


def test_class_sign():
    assert class_sign(Partition((2,))) == -1
    assert class_sign(Partition((3,))) == 1
    assert class_sign(Partition((2, 2))) == 1
    assert class_sign(Partition((1, 1, 1))) == 1


def test_number_theory_helpers():
    assert [euler_phi(n) for n in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 40):
        assert sum(euler_phi(d) for d in divisors(n)) == n
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_character_small_values():
    assert character(Partition((2, 2)), Partition((1, 1, 1, 1))) == 2
    assert character(Partition((2, 2)), Partition((2, 1, 1))) == 0
    assert character(Partition((2, 2)), Partition((2, 2))) == 2
    assert character(Partition((2, 2)), Partition((3, 1))) == -1
    assert character(Partition((2, 2)), Partition((4,))) == 0
    # trivial and sign rows
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character(Partition((n,)), mu) == 1
            assert character(Partition((1,) * n), mu) == class_sign(mu)


def test_character_dimension_hook_lengths():
    assert character_dimension(Partition((3, 2))) == 5
    assert character_dimension(Partition((2, 1))) == 2
    assert character_dimension(Partition((4, 4))) == 14
    for n in range(1, 9):
        assert sum(character_dimension(l) ** 2 for l in partitions_of(n)) == math.factorial(n)
        for lam in partitions_of(n):
            assert character(lam, Partition((1,) * n)) == character_dimension(lam)


def test_character_table_column_orthogonality():
    for n in (*range(2, 7), 14):
        parts = partitions_of(n)
        columns = [[character(lam, mu) for lam in parts] for mu in parts]
        for i, mu in enumerate(parts):
            for j in range(i, len(parts)):
                dot = sum(map(int.__mul__, columns[i], columns[j]))
                assert dot == (z_of(mu) if i == j else 0), (mu, parts[j])


def test_character_matches_recursive_oracle():
    for n in range(13):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert character(lam, mu) == oracle.character(lam, mu), (lam, mu)


def test_character_memo_starts_over_past_its_limit(monkeypatch):
    monkeypatch.setattr(combinatorics, "_STRIP_MEMO_LIMIT", 8)
    combinatorics._STRIP_MEMO.clear()
    parts, sizes = partitions_of(9), []
    for lam in parts:
        for mu in parts:
            assert character(lam, mu) == oracle.character(lam, mu), (lam, mu)
            sizes.append(len(combinatorics._STRIP_MEMO))
    combinatorics._STRIP_MEMO.clear()
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the memo never started over"


def test_set_partitions():
    for n in range(1, 7):
        assert len(set_partitions_of(n)) == bell_number(n)
    assert bell_number(4) == 15
    blocks = SetPartition(((1, 2), (3,)))
    assert blocks.block_sizes() == (2, 1)
    finer = SetPartition(((1,), (2,), (3,)))
    assert finer.refines(blocks)
    assert not blocks.refines(finer)
    assert blocks.refines(SetPartition(((1, 2, 3),)))


def test_set_partition_ground_guard():
    with pytest.raises(ValueError):
        set_partitions_of(MAX_SET_PARTITION_GROUND + 1)


def test_lattice_mobius_product_formula():
    assert lattice_mobius(SetPartition(((1, 2, 3, 4),))) == -6
    assert lattice_mobius(SetPartition(((1, 2), (3, 4)))) == 1
    assert lattice_mobius(SetPartition(((1,), (2,), (3,)))) == 1
    # mu over the whole lattice telescopes to zero for n >= 2
    for n in range(2, 6):
        assert sum(lattice_mobius(p) for p in set_partitions_of(n)) == 0


def test_perm_utilities():
    ident = identity_perm(4)
    assert ident == (1, 2, 3, 4)
    sigma = perm_from_cycle_type(Partition((3, 1)))
    assert cycle_type(sigma) == Partition((3, 1))
    tau = perm_from_cycle_type(Partition((2, 2)))
    assert cycle_type(compose_perms(sigma, sigma)) == Partition((3, 1))
    assert compose_perms(ident, tau) == tau
    for lam in partitions_of(5):
        assert cycle_type(perm_from_cycle_type(lam)) == lam


def test_stable_set_partitions_counts():
    three_cycle = perm_from_cycle_type(Partition((3,)))
    stable = stable_set_partitions(three_cycle)
    assert len(stable) == 2
    swap = perm_from_cycle_type(Partition((2, 1)))
    assert len(stable_set_partitions(swap)) == 3
    ident = identity_perm(3)
    assert len(stable_set_partitions(ident)) == bell_number(3)
    for part, induced in stable_set_partitions(swap):
        assert apply_perm_to_set_partition(swap, part) == part
        assert len(induced) == len(part)


def test_stable_poset_mobius_chain():
    three_cycle = perm_from_cycle_type(Partition((3,)))
    stable = [p for p, _ in stable_set_partitions(three_cycle)]
    mob = stable_poset_mobius(stable)
    values = {len(part): mob[part] for part in stable}
    # chain: singletons below the one-block partition
    assert values == {3: 1, 1: -1}
    ident = identity_perm(3)
    mob_full = stable_poset_mobius([p for p, _ in stable_set_partitions(ident)])
    for part in mob_full:
        assert mob_full[part] == lattice_mobius(part)
