import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fraction_series as fs
import pytest

from cuspmotive import cli, genus0, genus1_boundary, genus1_fiber, pipeline, symfunc as sf
from cuspmotive.motive import L, ONE, MotiveClass


def test_main_theorem_small_n():
    r1 = pipeline.main_theorem(1)
    assert r1.total == L + ONE
    assert r1.total == pipeline.expected_total(1)
    for n in range(1, 9):
        res = pipeline.main_theorem(n)
        assert res.total == pipeline.expected_total(n)
        assert res.total == res.interior + res.boundary


def test_expected_total_values():
    assert pipeline.expected_total(2).is_zero()
    assert pipeline.expected_total(3) == -MotiveClass.cusp(4)
    assert pipeline.expected_total(11) == -MotiveClass.cusp(12)


def test_realization_ranks():
    assert pipeline.main_theorem(5).rank == 0
    r11 = pipeline.main_theorem(11)
    assert r11.rank == -2
    assert r11.hodge == ((0, 11, -1), (11, 0, -1))


def test_result_json():
    doc = pipeline.main_theorem(3).to_json()
    assert doc["n"] == 3
    assert doc["total"] == (-MotiveClass.cusp(4)).to_json()
    assert doc["rank"] == 0


def test_main_theorem_range_guard():
    with pytest.raises(ValueError):
        pipeline.main_theorem(0)
    with pytest.raises(ValueError):
        pipeline.main_theorem(pipeline.MAX_POINTS + 1)


# -- command line -----------------------------------------------------------


def test_cli_a0_json(capsys):
    assert cli.main(["a0", "--max-degree", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "a0"
    assert doc["max_degree"] == 4
    assert doc["result"]["basis"] == "power"


def test_cli_motive_json(capsys):
    assert cli.main(["motive", "-n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["total"] == (-MotiveClass.cusp(4)).to_json()
    assert doc["result"]["rank"] == 0


def test_cli_motive_text(capsys):
    assert cli.main(["motive", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "total:    L + 1" in out


def test_cli_interior_text(capsys):
    assert cli.main(["interior", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "n=3: -S[4] - 1" in out
    assert "n=4: 0" in out


def test_cli_fiber_and_stratum(capsys):
    assert cli.main(["fiber", "-n", "2"]) == 0
    assert "degree 1, weight -1: multiplicity 1" in capsys.readouterr().out
    assert cli.main(["open-stratum", "-n", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["alternating"] == [[1, 0, -1]]


def test_cli_rows_check(capsys):
    assert cli.main(["rows-check", "-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "s[2,2] x 1" in out


def test_cli_boundary(capsys):
    assert cli.main(["boundary", "--max-degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "t^1: 1" in out
    assert "t^2: 0" in out


def test_cli_out_file(tmp_path, capsys):
    target = tmp_path / "b0.json"
    assert cli.main(["b0prime", "--max-degree", "3", "--json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "b0prime"


def test_cli_schur_basis(capsys):
    assert cli.main(["lie", "--max-degree", "4", "--signed", "--basis", "schur"]) == 0
    out = capsys.readouterr().out
    assert "s[3] -> 1" in out
    assert "s[2,2] -> -1" in out


def test_cli_rejects_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["a0", "--max-degree", "2"])
    assert exc.value.code == 2
    assert "between 3 and 20" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["a0", "--max-degree", "many"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_verify_all_quick(capsys):
    assert cli.main(["verify-all", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
    assert "11/11 checks passed" in out
    assert all(re.match(r"PASS [\w-]+ \(\d+\.\d\d s\)", line) for line in out.splitlines()[:11])
    assert cli.main(["verify-all", "--max-degree", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert len(doc["result"]) == 11
    for entry in doc["result"]:
        assert entry["passed"]
        assert set(entry) == {"name", "passed", "detail", "seconds"}
        assert isinstance(entry["seconds"], float) and entry["seconds"] >= 0


def test_cli_loads_verification_on_first_use():
    script = (
        "import sys, cuspmotive, cuspmotive.cli\n"
        "print('cuspmotive.verification' in sys.modules)\n"
        "print(callable(cuspmotive.verification.check_secondary_oracles))\n"
        "print(cuspmotive.cli.main(['verify-all', '--max-degree', '4', '--json']))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "False" and lines[1] == "True" and lines[-1] == "0", proc.stdout
    assert json.loads(lines[2])["command"] == "verify-all"


def test_cli_json_skips_text_rendering(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--json rendered the text form")

    monkeypatch.setattr(cli, "_series_lines", refuse)
    for argv in (
        ["a0", "--max-degree", "6", "--basis", "schur"],
        ["b0prime", "--max-degree", "4"],
        ["lie", "--max-degree", "5", "--signed"],
        ["necklace", "--max-degree", "5"],
    ):
        assert cli.main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
    with pytest.raises(AssertionError):
        cli.main(["a0", "--max-degree", "4"])


def test_cli_text_skips_json_only_work(capsys, monkeypatch):
    """The mirror of the test above: a text form builds nothing that only
    ``--json`` prints, such as the equivariant boundary sum."""

    def refuse(*args, **kwargs):
        raise AssertionError("the text form built a JSON-only value")

    monkeypatch.setattr(genus1_boundary, "boundary_sum", refuse)
    monkeypatch.setattr(sf.SymSeries, "to_json", refuse)
    monkeypatch.setattr(cli, "_stratum_json", refuse)
    for argv in (
        ["boundary", "--max-degree", "6"],
        ["a0", "--max-degree", "5", "--basis", "schur"],
        ["b0prime", "--max-degree", "4"],
        ["lie", "--max-degree", "5", "--signed"],
        ["necklace", "--max-degree", "5"],
        ["open-stratum", "-n", "4"],
    ):
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out.strip(), argv
    with pytest.raises(AssertionError):
        cli.main(["boundary", "--max-degree", "6", "--json"])


def test_series_text_sorts_the_keys_at_most_once(monkeypatch):
    series = genus0.a0_series(12)
    by_degree = {}
    for lam, c in series.items():
        by_degree.setdefault(lam.size, {})[lam] = f"  {cli._partition_name(lam)} -> {c!r}"
    want = []
    for n, table in sorted(by_degree.items()):
        want += [f"degree {n}:"] + [table[lam] for lam in sorted(table)]
    calls = []
    keys = sf.SymSeries._keys

    def counted(self):
        calls.append(None)
        return keys(self)

    monkeypatch.setattr(sf.SymSeries, "_keys", counted)
    assert cli._series_lines(series) == want
    assert len(calls) <= 1


def test_theorem_path_builds_no_symseries_derivatives(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the theorem path built a SymSeries derivative or its Alt")

    monkeypatch.setattr(sf.SymSeries, "p_derivative", refuse)
    monkeypatch.setattr(sf.SymSeries, "alt", refuse)
    monkeypatch.setattr(genus1_boundary, "_grown", [])
    genus1_boundary.boundary_alt.cache_clear()
    genus0._alt_derivative_layer.cache_clear()
    genus0._alt_product_layer.cache_clear()
    for n in range(1, 13):
        assert pipeline.main_theorem(n).total == pipeline.expected_total(n)


def test_theorem_path_walks_no_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the theorem path walked partitions or counted points by cycle type")

    monkeypatch.setattr(genus1_boundary, "_grown", [])
    genus1_boundary.boundary_alt.cache_clear()
    genus0._alt_derivative_layer.cache_clear()
    genus0._alt_product_layer.cache_clear()
    monkeypatch.setattr(genus0, "partitions_of", refuse)
    monkeypatch.setattr(genus0, "twisted_count_poly", refuse)
    monkeypatch.setattr(genus0, "prefix_walk", refuse)
    monkeypatch.setattr(genus1_fiber, "prefix_walk", refuse)
    for n in range(1, pipeline.MAX_POINTS + 1):
        assert pipeline.main_theorem(n).total == pipeline.expected_total(n)


def test_cli_json_bytes_match_fraction_oracle(tmp_path):
    """The documents the series commands write at degree 10, rebuilt byte
    for byte from the Fraction oracle route of ``tests/fraction_series.py``."""
    n = 10
    neck, corr = fs.necklace_series(n), fs.correction_series(n)
    boundary = neck + corr
    rows = [[[list(lam), rep[lam]] for lam in sorted(rep)] for rep in fs.poincare_schur(n)]
    expected = {
        ("a0", "--max-degree", "10"): (n, fs.a0_series(n).to_json()),
        ("b0prime", "--max-degree", "10"): (n, fs.b0_prime(n).to_json()),
        ("lie", "--max-degree", "10"): (n, {"signed": False, "series": fs.ch_lie(n).to_json()}),
        ("necklace", "--max-degree", "10"): (
            n,
            {"necklace": neck.to_json(), "correction": corr.to_json()},
        ),
        ("boundary", "--max-degree", "10"): (
            n,
            {"series": boundary.to_json(), "alt": boundary.alt().to_json()},
        ),
        ("rows-check", "-n", "10"): (None, {"points": n, "cohomology": rows}),
    }
    for argv, (max_degree, result) in expected.items():
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main([*argv, "--json", "--out", str(out)]) == 0
        doc = {"schema_version": 1, "command": argv[0], "max_degree": max_degree, "result": result}
        encoded = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert out.read_bytes() == encoded.encode(), argv


def test_cli_a0_json_bytes_at_degree_20_are_pinned(tmp_path):
    """The 601,430-byte ``a0 --max-degree 20 --json`` document, whose 2,710
    terms follow the series' key order, is unchanged byte for byte."""
    out = tmp_path / "a0.json"
    assert cli.main(["a0", "--max-degree", "20", "--json", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 601430
    assert hashlib.sha256(data).hexdigest() == (
        "66e495c22677998d26d37aae229164c4cb89506e0e2967f382dcafef32626ded"
    )


def test_cli_a0_schur_json_bytes_at_degree_20_are_pinned(tmp_path):
    """The 458,783-byte ``a0 --max-degree 20 --basis schur --json``
    document, as the per-pair character route wrote it, byte for byte."""
    out = tmp_path / "a0-schur.json"
    argv = ["a0", "--max-degree", "20", "--basis", "schur", "--json", "--out", str(out)]
    assert cli.main(argv) == 0
    data = out.read_bytes()
    assert len(data) == 458783
    assert hashlib.sha256(data).hexdigest() == (
        "3cb6969e9191a5e2fc7dd9ee3d8aaa85bf9472d6e64fe803f423e0b8d8537a82"
    )


def test_cli_out_to_an_unwritable_path_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["motive", "-n", "3", "--json", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert captured.out == "" and not out.parent.exists()


def test_cli_builds_one_parser_per_process(capsys, monkeypatch):
    """Every ``main`` call after the first reuses the parser, whose help is
    that of a freshly built one, and a series function patched after the
    build is the one called."""
    cli.build_parser.cache_clear()
    helps = {}
    for argv in (["--help"], ["verify-all", "--help"], ["a0", "--help"], ["--help"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        got = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(argv)
        assert got == capsys.readouterr().out, argv
        assert helps.setdefault(tuple(argv), got) == got
    called = []
    b0_prime = genus0.b0_prime
    monkeypatch.setattr(genus0, "b0_prime", lambda n: called.append(n) or b0_prime(n))
    assert cli.main(["b0prime", "--max-degree", "4", "--json"]) == 0
    assert cli.main(["interior", "-n", "3", "--json"]) == 0
    capsys.readouterr()
    assert called == [4]
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_cli_json_stays_in_c_encoder(tmp_path, capsys, monkeypatch):
    """Every ``--json`` document is encoded without the pure-Python
    encoder, which any ``indent`` would select, and is one compact line."""

    def refuse(*args, **kwargs):
        raise AssertionError("--json fell back to the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for argv in (
        ["a0", "--max-degree", "4"],
        ["b0prime", "--max-degree", "4"],
        ["lie", "--max-degree", "5", "--signed"],
        ["rows-check", "-n", "4"],
        ["fiber", "-n", "3"],
        ["open-stratum", "-n", "4"],
        ["necklace", "--max-degree", "5"],
        ["boundary", "--max-degree", "5"],
        ["interior", "-n", "4"],
        ["motive", "-n", "3"],
    ):
        assert cli.main(argv + ["--json"]) == 0, argv
        text = capsys.readouterr().out
        out = tmp_path / f"{argv[0]}.json"
        assert cli.main(argv + ["--json", "--out", str(out)]) == 0, argv
        assert out.read_bytes() == text.encode(), argv
        assert text.endswith("\n") and text.count("\n") == 1, argv
        doc = json.loads(text)
        assert doc["command"] == argv[0] and doc["schema_version"] == 1
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == text, argv
