import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import fiber_words as fw
import fraction_series as fs
import pytest
import stratum_mobius

from cuspmotive import cli, genus1_fiber as fib, pipeline
from cuspmotive.combinatorics import (
    Partition,
    class_sign,
    cycle_type,
    partitions_of,
    perm_from_cycle_type,
)
from cuspmotive.motive import L, ONE, MotiveClass


def P(*parts):
    return Partition(parts)


def test_word_grading():
    assert fw.word_degree((1, 2, 3)) == 4
    assert fw.word_weight((1, 2, 3)) == 0
    assert fw.word_weight((1, 1)) == 2


def test_word_mul_slotwise_relations():
    # alpha * beta = point, beta * alpha = -point, squares vanish
    assert fw.word_mul((1,), (2,)) == (1, (3,))
    assert fw.word_mul((2,), (1,)) == (-1, (3,))
    assert fw.word_mul((1,), (1,)) is None
    assert fw.word_mul((3,), (3,)) is None
    assert fw.word_mul((0,), (3,)) == (1, (3,))


def test_word_mul_koszul_cross_slot():
    # odd letter passing an odd letter in an earlier slot picks up a sign
    assert fw.word_mul((1, 0), (0, 2)) == (1, (1, 2))
    assert fw.word_mul((0, 2), (1, 0)) == (-1, (1, 2))


def test_word_mul_graded_commutative():
    rng = random.Random(7)
    words = list(fw.FiberAlgebra(3).words())
    for _ in range(300):
        u = rng.choice(words)
        v = rng.choice(words)
        uv = fw.word_mul(u, v)
        vu = fw.word_mul(v, u)
        sign = (-1) ** (fw.word_degree(u) * fw.word_degree(v))
        if uv is None:
            assert vu is None
        else:
            assert vu is not None
            assert uv[1] == vu[1]
            assert uv[0] == sign * vu[0]


def test_word_mul_associative():
    rng = random.Random(13)
    words = list(fw.FiberAlgebra(3).words())

    def as_combo(res):
        return {} if res is None else {res[1]: res[0]}

    for _ in range(200):
        u, v, w = (rng.choice(words) for _ in range(3))
        uv = fw.word_mul(u, v)
        left = {}
        if uv is not None:
            res = fw.word_mul(uv[1], w)
            if res is not None:
                left = {res[1]: res[0] * uv[0]}
        vw = fw.word_mul(v, w)
        right = {}
        if vw is not None:
            res = fw.word_mul(u, vw[1])
            if res is not None:
                right = {res[1]: res[0] * vw[0]}
        assert left == right


def test_algebra_dimension():
    for n in range(2, 5):
        alg = fw.FiberAlgebra(n)
        assert alg.dimension == 4 ** (n - 1)
        assert len(list(alg.words())) == 4 ** (n - 1)


def test_transposition_action_two_points():
    act = fw.transposition_action(2, 1)
    assert act[(0,)] == {(0,): 1}
    assert act[(1,)] == {(1,): -1}
    assert act[(2,)] == {(2,): -1}
    assert act[(3,)] == {(3,): 1}


def test_transposition_action_three_points_frozen():
    act = fw.transposition_action(3, 1)
    assert act[(1, 2)] == {(3, 0): 1, (1, 2): -1}
    assert act[(0, 1)] == {(0, 1): 1, (1, 0): -1}
    slot_swap = fw.transposition_action(3, 2)
    assert slot_swap[(1, 0)] == {(0, 1): 1}
    assert slot_swap[(1, 2)] == {(2, 1): -1}  # two odd letters cross


def test_action_respects_multiplication():
    # each generator acts by algebra homomorphisms
    rng = random.Random(23)
    for n in (2, 3, 4):
        words = list(fw.FiberAlgebra(n).words())
        for i in range(1, n):
            act = fw.transposition_action(n, i)
            for _ in range(60):
                u, v = rng.choice(words), rng.choice(words)
                prod = fw.word_mul(u, v)
                lhs = {} if prod is None else {
                    w: c * prod[0] for w, c in act[prod[1]].items()
                }
                rhs = fw.combo_mul(act[u], act[v])
                assert lhs == rhs


def test_permutation_action_contravariant():
    rng = random.Random(31)
    for n, _ in product(range(2, 6), range(40)):
        sig = list(fw.identity_perm(n))
        tau = list(fw.identity_perm(n))
        rng.shuffle(sig)
        rng.shuffle(tau)
        sig, tau = tuple(sig), tuple(tau)
        lhs = fw.permutation_action(n, fw.compose_perms(sig, tau))
        m_s = fw.permutation_action(n, sig)
        m_t = fw.permutation_action(n, tau)
        rhs = {w: fw.apply_map(m_t, combo) for w, combo in m_s.items()}
        assert lhs == rhs


def test_adjacent_transposition_word_reconstructs():
    for lam in partitions_of(5):
        sigma = perm_from_cycle_type(lam)
        word = fw.adjacent_transposition_word(sigma)
        acc = fw.identity_perm(5)
        for i in word:
            t = list(fw.identity_perm(5))
            t[i - 1], t[i] = t[i], t[i - 1]
            acc = fw.compose_perms(tuple(t), acc)
        assert acc == sigma


def test_coxeter_relations():
    """Generators square to the identity, satisfy the braid relation and
    commute when far apart."""

    def compose_maps(a, b):
        return {w: fw.apply_map(a, combo) for w, combo in b.items()}

    for n in range(2, 6):
        ident = {w: {w: 1} for w in fw.FiberAlgebra(n).words()}
        gens = {i: fw.transposition_action(n, i) for i in range(1, n)}
        for i in range(1, n):
            assert compose_maps(gens[i], gens[i]) == ident
        for i in range(1, n - 1):
            lhs = compose_maps(compose_maps(gens[i], gens[i + 1]), gens[i])
            rhs = compose_maps(compose_maps(gens[i + 1], gens[i]), gens[i + 1])
            assert lhs == rhs
        for i in range(1, n):
            for j in range(i + 2, n):
                assert compose_maps(gens[i], gens[j]) == compose_maps(gens[j], gens[i])


def test_graded_traces_identity_gives_dimensions():
    for n in (2, 3, 4):
        traces = fib.graded_traces(n, P(*([1] * n)))
        total = sum(traces.values())
        assert total == 4 ** (n - 1)
        for (m, w), tr in traces.items():
            count = sum(
                1
                for word in fw.FiberAlgebra(n).words()
                if fw.word_degree(word) == m and fw.word_weight(word) == w
            )
            assert tr == count
    for n in range(1, 21):
        assert fib.graded_traces(n, P(*([1] * n))) == {
            (a + b, a - b): math.comb(n - 1, a) * math.comb(n - 1, b)
            for a in range(n)
            for b in range(n)
        }


def test_graded_traces_match_word_oracle():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert fib.graded_traces(n, lam) == fw.graded_traces(n, lam)


def test_graded_traces_match_two_variable_product():
    for n in range(1, 15):
        for lam in partitions_of(n):
            assert fib.graded_traces(n, lam) == fw.product_traces(n, lam), lam


def test_alternating_component_small():
    for n in range(2, 6):
        dims = fib.alternating_component(n)
        assert dims == {(n - 1, w): 1 for w in range(-(n - 1), n, 2)}


def test_alternating_component_reads_no_graded_traces(monkeypatch):
    """The sign component sums one-variable lists, never the two-variable tables."""

    def refuse(n, ct):
        raise AssertionError("alternating_component read graded_traces")

    monkeypatch.setattr(fib, "graded_traces", refuse)
    for n in range(2, 13):
        assert fib.alternating_component(n) == {(n - 1, w): 1 for w in range(-(n - 1), n, 2)}


def _projector_rank(n, m, w):
    """Rank of the sign projector on the (degree, weight) block, by
    exact Gaussian elimination over the rationals."""
    words = [
        word
        for word in fw.FiberAlgebra(n).words()
        if fw.word_degree(word) == m and fw.word_weight(word) == w
    ]
    index = {word: i for i, word in enumerate(words)}
    size = len(words)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for perm in permutations(range(1, n + 1)):
        act = fw.permutation_action(n, perm)
        sign = class_sign(cycle_type(perm))
        for word in words:
            for image, c in act[word].items():
                if image in index:
                    matrix[index[image]][index[word]] += Fraction(
                        sign * c, math.factorial(n)
                    )
    rank = 0
    for col in range(size):
        pivot = next(
            (r for r in range(rank, size) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(size):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def test_alternating_component_matches_projector_rank():
    for n in (2, 3, 4):
        dims = fib.alternating_component(n)
        blocks = set()
        for word in fw.FiberAlgebra(n).words():
            blocks.add((fw.word_degree(word), fw.word_weight(word)))
        for (m, w) in sorted(blocks):
            assert _projector_rank(n, m, w) == dims.get((m, w), 0)


def test_ec_open_stratum_two_points_frozen():
    ec = fib.ec_open_stratum(2)
    assert ec.bins == {
        (1, 1): {P(1, 1): -1, P(2): 1},
        (1, -1): {P(1, 1): -1, P(2): 1},
        (2, 0): {P(1, 1): 1, P(2): 1},
    }


def test_ec_open_stratum_matches_mobius_oracle():
    strata = fib.ec_open_strata(7)
    for n in range(1, 8):
        assert fib.ec_open_stratum(n).bins == strata[n].bins == stratum_mobius.stratum_bins(n)


def test_ec_open_strata_walk_every_n_at_once():
    strata = fib.ec_open_strata(12)
    assert list(strata) == list(range(1, 13))
    for n, ec in strata.items():
        assert ec == fib.ec_open_stratum(n)
    assert fib.ec_open_strata(0) == {}


def test_open_stratum_json_bytes_at_12_points_are_pinned(tmp_path):
    """``open-stratum -n 12 --json`` as the per-partition cache wrote it, byte for byte."""
    out = tmp_path / "stratum.json"
    assert cli.main(["open-stratum", "-n", "12", "--json", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 236511
    assert hashlib.sha256(data).hexdigest() == (
        "dfeb21966c6186cd89de26e13f6fb96e580b1e4ae4087badcbaca5c58126ebad"
    )


def _fresh_peak_mib(body: str) -> float:
    """Run ``body`` in a fresh interpreter and return its peak RSS in MiB.

    On Linux ``ru_maxrss`` starts from the high-water mark of the image
    that exec replaced, which a spawned child shares with the test runner,
    so the new image's own VmHWM is read from /proc where it exists.
    """
    script = body + (
        "import resource, sys\n"
        "try:\n"
        "    status = open('/proc/self/status').read()\n"
        "    print(int(status.split('VmHWM:')[1].split()[0]) / 2**10)\n"
        "except OSError:\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(peak / 2**20 if sys.platform == 'darwin' else peak / 2**10)\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return float(proc.stdout)


def test_open_stratum_json_at_20_points_is_pinned_and_keeps_one_level(tmp_path):
    """``open-stratum -n 20 --json`` in a fresh process writes the 7,514,925
    bytes that the all-levels walk wrote, and peaks under the 90 MiB that
    holding the tables of every n <= 20 took."""
    out = tmp_path / "stratum.json"
    argv = ["open-stratum", "-n", "20", "--json", "--out", str(out)]
    peak = _fresh_peak_mib(f"from cuspmotive import cli\nassert cli.main({argv!r}) == 0\n")
    data = out.read_bytes()
    assert len(data) == 7514925
    assert hashlib.sha256(data).hexdigest() == (
        "e0fb82cbb1727222db8450aac59f9ba5c6073b0794f2993eeade64091c7a880d"
    )
    assert peak < 84, f"peak RSS {peak} MiB"


def test_interior_checks_keep_no_tables():
    """Criteria 6 and 7 in a fresh process peak well under the 159 MiB that
    the per-partition stratum cache and the two-variable fiber tables took."""
    peak = _fresh_peak_mib(
        "from cuspmotive import verification as v\n"
        "assert v.check_interior(14).passed and v.check_alternating_component().passed\n"
    )
    assert peak < 110, f"peak RSS {peak} MiB"


def test_ec_open_stratum_traces():
    ec3 = fib.ec_open_stratum(3)
    # full e_c traces: sum over all (degree, weight) bins
    def full_trace(ec, ct):
        return sum(table.get(ct, 0) for table in ec.bins.values())

    assert full_trace(ec3, P(3)) == 8
    assert full_trace(ec3, P(2, 1)) == 0
    for n in range(1, 6):
        ec = fib.ec_open_stratum(n)
        assert ec.identity_trace() == (-1) ** (n - 1) * math.factorial(n - 1)
        assert ec.is_weight_symmetric()


def test_ec_open_stratum_alternating_parts():
    for n in range(1, 6):
        ec = fib.ec_open_stratum(n)
        assert ec.alternating_parts() == {(n - 1, 0): (-1) ** (n - 1)}
        assert ec.sym_multiplicities is ec.sym_multiplicities


def test_open_stratum_json_computes_sym_multiplicities_once(capsys, monkeypatch):
    calls = []
    prop = fib.EquivariantClass.sym_multiplicities
    computed = prop.func

    def counted(self):
        calls.append(self.n)
        return computed(self)

    monkeypatch.setattr(prop, "func", counted)
    for n in (1, 3, 5):
        calls.clear()
        assert cli.main(["open-stratum", "-n", str(n), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["alternating"] == [[n - 1, 0, (-1) ** (n - 1)]]
        assert calls == [n]
        calls.clear()
        assert cli.main(["open-stratum", "-n", str(n)]) == 0
        assert f"({n - 1}, 0): {(-1) ** (n - 1)}" in capsys.readouterr().out
        assert calls == [n]


def test_open_stratum_text_keys_the_sign_component_by_local_system(capsys):
    """The last block of the text form is keyed by the Sym^k (x) L^j slot
    (k, j) of ``alternating_parts``, not by a (degree, weight) bin."""
    for n in (5, 6, 7):
        assert cli.main(["open-stratum", "-n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines.index("sign component by local system (k, j) of Sym^k (x) L^j:")
        parts = fib.ec_open_stratum(n).alternating_parts()
        assert lines[head + 1:] == [f"  ({k}, {j}): {c}" for (k, j), c in sorted(parts.items())]
        assert not any("degree, weight" in line for line in lines)


def test_open_stratum_json_matches_list_construction(capsys):
    """The document ``open-stratum --json`` writes, against one built
    with an explicit list for every cycle type and every (ct, v) pair."""
    for n in range(1, 8):
        ec = fib.ec_open_stratum(n)
        bins = [
            [m, w, [[list(ct), v] for ct, v in sorted(ec.bins[(m, w)].items())]]
            for (m, w) in sorted(ec.bins)
        ]
        sym = [
            [k, j, [[list(ct), v] for ct, v in sorted(table.items())]]
            for (k, j), table in sorted(ec.sym_multiplicities.items())
        ]
        alt = [[m, w, c] for (m, w), c in sorted(ec.alternating_parts().items())]
        result = {"points": n, "bins": bins, "sym_multiplicities": sym, "alternating": alt}
        expected = {
            "schema_version": 1,
            "command": "open-stratum",
            "max_degree": None,
            "result": result,
        }
        assert cli.main(["open-stratum", "-n", str(n), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == expected, n


def test_sym_multiplicities_two_points():
    ec = fib.ec_open_stratum(2)
    mults = ec.sym_multiplicities
    assert mults == {
        (0, 1): {P(1, 1): 1, P(2): 1},
        (1, 0): {P(1, 1): -1, P(2): 1},
    }


def test_local_system_euler():
    assert fib.local_system_euler(0) == L
    assert fib.local_system_euler(1).is_zero()
    assert fib.local_system_euler(3).is_zero()
    assert fib.local_system_euler(2) == -MotiveClass.cusp(4) - ONE
    assert fib.local_system_euler(10) == -MotiveClass.cusp(12) - ONE


def test_interior_alternating_table():
    assert fib.interior_alternating(1) == L
    assert fib.interior_alternating(2).is_zero()
    assert fib.interior_alternating(3) == -MotiveClass.cusp(4) - ONE
    assert fib.interior_alternating(4).is_zero()
    assert fib.interior_alternating(11) == -MotiveClass.cusp(12) - ONE


def test_interior_series_agree_where_both_defined():
    n_max = 4
    small = fib.interior_small_series(6, n_max)
    exact = fib.interior_exact_series(6)
    assert small.alt() == exact.truncate(n_max).zero_extended(6).alt()


def test_interior_small_series_matches_motive_class_route():
    got = fib.interior_small_series(12)
    want = fs.interior_small_series(12)
    assert fs.FractionSeries.of(got) == want
    assert got == want.to_series()


def test_interior_small_series_runs_no_motive_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("MotiveClass product on the interior route")

    want = fib.interior_alternating(3)
    monkeypatch.setattr(MotiveClass, "__mul__", refuse)
    monkeypatch.setattr(MotiveClass, "__rmul__", refuse)
    series = fib.interior_small_series(8)
    assert series.max_degree == 8
    assert series.alt().coefficient(3) == want


def test_interior_small_series_refuses_non_integer_local_systems(monkeypatch):
    half = MotiveClass.from_rational(Fraction(1, 2))
    monkeypatch.setattr(fib, "local_system_euler", lambda k: half)
    with pytest.raises(ArithmeticError):
        fib.interior_small_series(3)


def test_range_guards(capsys):
    with pytest.raises(ValueError):
        fib.alternating_component(1)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fiber", "-n", str(pipeline.MAX_POINTS + 1)])
    assert exc.value.code == 2
    assert f"between 2 and {pipeline.MAX_POINTS}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["open-stratum", "-n", str(pipeline.MAX_POINTS + 1)])
    assert exc.value.code == 2
    assert f"between 1 and {pipeline.MAX_POINTS}" in capsys.readouterr().err
    with pytest.raises(ValueError):
        fib.ec_open_stratum(0)
