"""Byte pins of the command line, and README's command list against the parser.

Every pin below is the SHA-256 of what the command printed when the pins
were taken: each ``--help`` screen, the text and ``--json`` forms of
every command at small sizes, and the stderr of argparse's refusals.
Help screens and usage lines are formatted to the terminal width, so
each run here sets ``COLUMNS=80``.
"""

import hashlib
import re
import shlex
import sys
from pathlib import Path

import pytest

from cuspmotive import cli, verification
from cuspmotive.verification import CheckResult

# Python 3.13 lays out an option with aliases as ``--points, -n POINTS``.
HELP = {
    "--help": "8cc5f204b259d10e2d2ed9524ef185cfedf8c60fa3d6cbdda5702dd0b51c5771",
    "a0 --help": "fc6be88a4ac719fb116bdcdc99b24bf78cd76ba83ca8d114d916429a8f0a5483",
    "b0prime --help": "a7b562e851048ea0fba9c9ea414c0e58c7433c57bfe46b9d5c6544130784b8f6",
    "lie --help": "9d0ca45ba24ec6743d74dc33456a4b499559dd5195c206998412c5c58ab1236b",
    "rows-check --help": "ca4f9cc5f2ff217e05fb323269e64fc8661df9366349c7e70f87c80a514eca0f",
    "fiber --help": "97fedfb6459ad1d3f16f370435336061b94b997b115643c899543eaf73bb45ab",
    "open-stratum --help": "b12783796fa6d658a95733daebe732d4378456ddc59db753bd97d44ca82c2d94",
    "necklace --help": "3740fc3cdb27f41da03d926e4f22f8d22db7479deadcc2f1934f4d8b3b95f1e4",
    "boundary --help": "81e57dc7b5716351daaf1260d9dfefe7f37efe4513945dea57984054328d4c4a",
    "interior --help": "315990af9a9f42b14e7a0bfc161730cae1f357ce7a827a2cd325268592870e14",
    "motive --help": "80152d71fabcec008a2e88d3c23b593363e666b55b912c54b642a4be93e3d3ef",
    "verify-all --help": "a132d5ce2d393ad2d6c8aace06423b8d8eee44b1c70c79f480064c2b1feaa268",
}

# Each command line is run as given and with ``--json``: (text, JSON).
OUTPUT = {
    "a0 --max-degree 5": (
        "1a6f21d5ee3d58270c03e0a8dc3b63f840d9e8b7ade224b6f77770407ce2d490",
        "3e6853056ee5e38f2cfbb98f33c289be9db7086ad7f2849e4efbf3ba6e67544e",
    ),
    "a0 --max-degree 5 --basis schur": (
        "e3a26f8038847f41c316539435531b9614e582b7de8fb6cbb53952fc56c415ee",
        "8133f933a93de31a8b1d4d47bdb45ebe49d9a075d797f47b88a229b63b040e80",
    ),
    "b0prime --max-degree 5": (
        "2591eccf5973daf5904d573ca8ace5b3db975203f320cf60a81649be7c82d6d5",
        "86d8687eb4f374ef1dbc89a85b1a58d626ec5b83f23fb5b92aa068acf2c7fb88",
    ),
    "b0prime --max-degree 5 --basis schur": (
        "77dd5b3d9e456c8e39cdd8ecf6c5834bf5e2ec129402bc2b05dd7c6e075681ed",
        "9804bf3d0d50068fa960c955840ef82f18b0c266d97b47b09525395636f6735f",
    ),
    "lie --max-degree 5": (
        "6c4ba07a115aeca249d4356f4425adff5ba647c22259bfad89526787286c91d9",
        "2181097961df3247fc4b316784bbbeab3e6f95dcd887793613db9e6f9ec505f0",
    ),
    "lie --max-degree 5 --signed --basis schur": (
        "c2b3bcd59d72575a15ec707c68678844a33343dd5ed2dff425d9d2d12627851c",
        "0d061df1ebd00d3914089566109796577c89050903c841e4148a3b2824af15aa",
    ),
    "lie --signed": (  # the default --max-degree, 14
        "e17f840d01b35f044268a9e8ab8badddbcf4142ece1b536efdd0939797f16516",
        "e9e0bc9619f271cb3a2d24b74955adc0b8881a45fd4ac89ff7560ee37b5085c5",
    ),
    "rows-check -n 5": (
        "29f36272f414db2731b0ff4d323fb7069a618661b4934c6c39a790abd4b9cf86",
        "bb84f44d3b1763f9604e803f01cda608c9aece425fb5d7106fd8b137df145a98",
    ),
    "fiber -n 4": (
        "9196a9ec851a0e8f30b9b5f2882325bb925e10eeed24b21a93315141e123e693",
        "26d3c1625200f956cf120f39a53427187c742c172b68fe610efb9e488a4d25b5",
    ),
    "open-stratum -n 4": (
        "6ac82282c1c234f7957a1fe83f71319a9626e04caaa6679d9bdbb2d444952fa8",
        "52e1e9e1676f854e0914be563a4b4807ef5fd9ace90d778d12ad424a4f6cd09e",
    ),
    "necklace --max-degree 6": (
        "97aaa24db045eaec4f33526951c44bf76ff74ec356f386c28f01327df2cc057e",
        "14e4be430f2d0b5864b64275998da243ba3ca886395388fea85c7e5fa768ee8d",
    ),
    "boundary --max-degree 6": (
        "8ebceaa53dfcbfbfd5ca3800375bcb3716a4d5178508bfccefa1ad0e9914cf51",
        "f3e721fad985aa9fab486609ebabeeacfe66f0df035c13a00eb5223292e9af16",
    ),
    "boundary": (
        "644044edd820d8c0bfb799de9fcec67e9f67c180afc233d22051c928b69b0a8e",
        "b1639e66c2924ccb660145bc2a706e9d59c81213e280955b37c90dbca7576371",
    ),
    "interior -n 6": (
        "eea61e750345d0af2a39083d39ec6f646cf92d45f73a8cfea542520836e79ea0",
        "6ce688b2e136f319459c46b6a83c1bf43480bab2a628b4cf7b76c6e383a09b87",
    ),
    "motive -n 5": (
        "0cbc1dda5c7d3f7f626a1403988f44a6a080ccd916e2283a77d154c7bc2cbf56",
        "a69c6af566586e30233016adf64464a67a6e756a623dfc3d784085a5552753dd",
    ),
    "motive -n 11": (
        "138e5c5d218e9710699ed6f5ee28d3c556f411c5ae424c630d17bcb90318f8fd",
        "a5d342f9b3f37aa79b2657b718c3ebe07a66b4ac0136f0df2e1737bce2e35d82",
    ),
}

# argparse refusals: exit status 2, nothing on stdout, and this stderr.
REFUSED = {
    "motive -n 21": "c91f466d2b815bb40ff35c4c50ecc9baad70c1ccbc9ced984cb047423fabbe6e",
    "a0 --max-degree 2": "d2b016656520fd8b476669558dde862d396e373c27f8358b309eee691df92197",
    "rows-check -n 11": "73cb89506a741f7a042083795a94855bcb88ab2317d530e5a5a13f79afe28678",
    "a0 --max-degree many": "0fbc34e96d988f6641d26cb225723abea2462514df40e298aeb1d72011a89d12",
    "no-such-command": "13d641caebcc9baf39be00187936468b41a7ba6ed27d65155025406eb2f52b43",
}


@pytest.fixture
def run(capsys, monkeypatch):
    """``run(argv)`` -> (exit status, stdout, stderr) of one ``cli.main`` call."""
    monkeypatch.setenv("COLUMNS", "80")

    def go(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return go


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help layout changed in Python 3.13")
def test_help_screens_are_pinned(run):
    for line, digest in HELP.items():
        code, out, err = run(line.split())
        assert (code, err, _sha(out)) == (0, "", digest), line


def test_text_and_json_outputs_are_pinned(run):
    for line, (text, doc) in OUTPUT.items():
        for argv, digest in ((line.split(), text), (line.split() + ["--json"], doc)):
            code, out, err = run(argv)
            assert (code, err, _sha(out)) == (0, "", digest), argv


def test_argparse_refusals_are_pinned(run):
    for line, digest in REFUSED.items():
        code, out, err = run(line.split())
        assert (code, out, _sha(err)) == (2, "", digest), line


def test_verify_all_forms_and_exit_status(run, monkeypatch):
    """Both forms of ``verify-all`` for a given battery outcome: exit
    status 1 when a check fails, else 0."""
    passed = CheckResult("alt-a0pp", True, "", 0.12345)
    failed = CheckResult("row-bounds", False, "H^2 has 4 rows", 2.0)
    monkeypatch.setattr(verification, "run_all", lambda n: [passed, failed])
    assert run(["verify-all", "--max-degree", "4"]) == (
        1,
        "PASS alt-a0pp (0.12 s)\nFAIL row-bounds (2.00 s): H^2 has 4 rows\n1/2 checks passed\n",
        "",
    )
    assert run(["verify-all", "--max-degree", "4", "--json"]) == (
        1,
        '{"command":"verify-all","max_degree":4,"result":['
        '{"detail":"","name":"alt-a0pp","passed":true,"seconds":0.123},'
        '{"detail":"H^2 has 4 rows","name":"row-bounds","passed":false,"seconds":2.0}],'
        '"schema_version":1}\n',
        "",
    )
    monkeypatch.setattr(verification, "run_all", lambda n: [passed])
    assert run(["verify-all"]) == (0, "PASS alt-a0pp (0.12 s)\n1/1 checks passed\n", "")
    assert run(["verify-all", "--json"]) == (
        0,
        '{"command":"verify-all","max_degree":14,"result":['
        '{"detail":"","name":"alt-a0pp","passed":true,"seconds":0.123}],"schema_version":1}\n',
        "",
    )


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_command_block_matches_the_parser():
    """Every registered subcommand is in README's "Command line" block, and
    every line of that block parses; nothing is run."""
    parser = cli.build_parser()
    registered = parser._subparsers._group_actions[0].choices
    lines = _readme_commands()
    assert all(argv[0] == "cuspmotive" for argv in lines)
    assert set(registered) == {argv[1] for argv in lines}
    for argv in lines:
        assert parser.parse_args(argv[1:]).command == argv[1], argv
