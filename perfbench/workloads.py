"""One workload process of the benchmark: import, run, verify, report.

Run by ``run.py``, never by hand:

    python3 perfbench/workloads.py --root ROOT --workload NAME --seed N \
        --tmp DIR [--trace] [--setup-only]

The process puts ``ROOT/src`` first on ``sys.path``, imports ``cuspmotive``
and ``cuspmotive.cli`` and prints ``ready`` (the parent times set-up up to
that line).  It then runs the workload's operations in the order the seed
gives, checks every output against a closed form that does not go through
the package's series, and prints one JSON line with its wall, CPU and
memory figures.  ``--trace`` imports ``tracing.py`` and wraps the package
before the first operation; untraced processes never import it.

Each workload runs in a process of its own because the package's
``functools.cache`` layers make a second run inside one process free.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SWEEP_POINTS = range(1, 13)


class OracleMismatch(Exception):
    """An output disagreed with its closed form."""


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleMismatch(msg)


# ---------------------------------------------------------------------------
# Closed forms.  None of these calls into the package's series code.


def dim_cusp_forms(k: int) -> int:
    """dim S_k(SL_2(Z)): monomials E4^a E6^b of weight k, less the Eisenstein line."""
    if k < 4 or k % 2:
        return 0
    return sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0) - 1


def expected_realization(n: int):
    """(rank, hodge) of -S[n+1] for odd n (S[2] = -L - 1) and of 0 for even n."""
    if n % 2 == 0:
        return 0, ()
    if n == 1:
        return 2, ((0, 0, 1), (1, 1, 1))
    d = dim_cusp_forms(n + 1)
    if d == 0:
        return 0, ()
    return -2 * d, ((0, n, -d), (n, 0, -d))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def m0n_point_count(n: int) -> list[int]:
    """#M_{0,n}(F_q) = prod_{k=2}^{n-2} (q - k), constant term first."""
    poly = [1]
    for k in range(2, n - 1):
        poly = _poly_mul(poly, [-k, 1])
    return poly


def m0n_betti(n: int) -> list[int]:
    """Betti numbers of M_{0,n}: Poincare polynomial prod_{k=2}^{n-2} (1 + k t)."""
    poly = [1]
    for k in range(2, n - 1):
        poly = _poly_mul(poly, [1, k])
    return poly


def irrep_dimension(lam) -> int:
    """Hook length formula."""
    n = sum(lam)
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= part - j + conj[j] - i - 1
    return math.factorial(n) // hooks


def _json_poly(coeff: dict) -> dict[int, Fraction]:
    _expect(coeff["cusp"] == [], f"unexpected cusp part {coeff['cusp']}")
    return {int(j): Fraction(c) for j, c in coeff["tate"]}


# ---------------------------------------------------------------------------
# Operations.  Each raises on a wrong answer and returns bytes written.


def _cli(pkg, tmp: Path, name: str, args: list[str]) -> tuple[dict, int]:
    out = tmp / f"{name}.json"
    code = pkg.cli.main(args + ["--json", "--out", str(out)])
    _expect(code == 0, f"`{' '.join(args)}` exited with {code}")
    size = out.stat().st_size
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    out.unlink()
    _expect(doc["schema_version"] == 1 and doc["command"] == args[0], "bad header")
    return doc["result"], size


def theorem_ops(pkg, tmp: Path) -> dict:
    MotiveClass = pkg.motive.MotiveClass
    ops = {}
    for n in SWEEP_POINTS:
        want = -MotiveClass.cusp(n + 1) if n % 2 else MotiveClass.zero()
        rank, hodge = expected_realization(n)

        def op(n=n, want=want, rank=rank, hodge=hodge):
            res = pkg.pipeline.main_theorem(n)
            _expect(res.total == want, f"n={n}: total {res.total!r}")
            _expect(res.rank == rank and res.hodge == hodge,
                    f"n={n}: rank {res.rank}, hodge {res.hodge}")
            return 0

        ops[f"main_theorem({n})"] = op
    # S[2] = -L - 1 makes the n = 1 total the closed form L + 1.
    _expect(-MotiveClass.cusp(2) == MotiveClass.lefschetz(1) + MotiveClass.lefschetz(0),
            "S[2] does not rewrite to -L - 1")
    return ops


def motive_ops(pkg, tmp: Path) -> dict:
    def op():
        res, size = _cli(pkg, tmp, "motive", ["motive", "-n", "11"])
        rank, hodge = expected_realization(11)
        _expect(res["n"] == 11, f"n is {res['n']}")
        _expect(res["total"] == {"tate": [], "cusp": [[12, 0, "-1/1"]]},
                f"total is {res['total']}")
        _expect(res["rank"] == rank == -2, f"rank is {res['rank']}")
        _expect(res["hodge"] == [list(h) for h in hodge] == [[0, 11, -1], [11, 0, -1]],
                f"hodge is {res['hodge']}")
        return size

    return {"motive -n 11": op}


def tables_ops(pkg, tmp: Path) -> dict:
    def a0():
        res, size = _cli(pkg, tmp, "a0", ["a0", "--max-degree", "20"])
        _expect(res["max_degree"] == 20 and res["basis"] == "power", "bad series header")
        ones = {e["degree"]: e["coeff"] for e in res["terms"]
                if e["partition"] == [1] * e["degree"]}
        for n in range(3, 21):
            got = _json_poly(ones.get(n, {"tate": [], "cusp": []}))
            got = {j: c * math.factorial(n) for j, c in got.items()}
            want = {j: c for j, c in enumerate(m0n_point_count(n)) if c}
            _expect(got == want, f"a0: n! * [p_1^{n}] is {got}, want {want}")
        return size

    def fiber():
        res, size = _cli(pkg, tmp, "fiber", ["fiber", "-n", "7"])
        want = [[6, w, 1] for w in range(-6, 7, 2)]
        _expect(res["multiplicities"] == want, f"fiber: {res['multiplicities']}")
        return size

    def open_stratum():
        res, size = _cli(pkg, tmp, "open-stratum", ["open-stratum", "-n", "6"])
        _expect(res["alternating"] == [[5, 0, -1]], f"stratum: {res['alternating']}")
        bins = {(m, w): table for m, w, table in res["bins"]}
        _expect(all(bins.get((m, -w)) == t for (m, w), t in bins.items()),
                "stratum weight table is not symmetric")
        return size

    def rows_check():
        res, size = _cli(pkg, tmp, "rows-check", ["rows-check", "-n", "10"])
        coh = res["cohomology"]
        _expect(coh[0] == [[[10], 1]], f"H^0 is {coh[0]}")
        betti = m0n_betti(10)
        _expect(len(coh) == len(betti), f"{len(coh)} degrees, want {len(betti)}")
        for i, entries in enumerate(coh):
            for lam, mult in entries:
                _expect(len(lam) <= i + 1 and mult > 0, f"H^{i} has {lam} x {mult}")
            rank = sum(mult * irrep_dimension(lam) for lam, mult in entries)
            _expect(rank == betti[i], f"H^{i} has rank {rank}, want {betti[i]}")
        return size

    def oracles():
        result = pkg.verification.check_secondary_oracles()
        _expect(result.passed, f"secondary oracles: {result.detail}")
        return 0

    return {
        "a0 --max-degree 20": a0,
        "fiber -n 7": fiber,
        "open-stratum -n 6": open_stratum,
        "rows-check -n 10": rows_check,
        "check_secondary_oracles()": oracles,
    }


OPERATIONS = {"theorem-sweep": theorem_ops, "motive-one": motive_ops, "tables": tables_ops}


def ordered(workload: str, names: list[str], seed: int) -> list[str]:
    """Seed 0 keeps the default order; any other seed shuffles it.

    In ``tables`` the a0 export stays first: run after ``fiber -n 7``, it
    peaks with the word-algebra caches still resident (61 MiB against
    45 MiB), so moving it would make ``peak_rss_mb`` measure the seed.
    """
    fixed = 1 if workload == "tables" else 0
    head, rest = names[:fixed], names[fixed:]
    if seed:
        random.Random(seed).shuffle(rest)
    return head + rest


# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import cuspmotive
    import cuspmotive.cli

    where = Path(cuspmotive.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"cuspmotive was imported from {where}, not from {src}")
    return cuspmotive


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(OPERATIONS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = _import_package(args.root)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    ops = OPERATIONS[args.workload](pkg, args.tmp)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(pkg)
    failures, out_bytes = [], 0
    for name in ordered(args.workload, list(ops), args.seed):
        try:
            out_bytes += ops[name]()
        except Exception as exc:  # every failure is counted and reported
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - wall0
    cpu = _cpu_seconds() - cpu0
    rss_kib = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kib / 1024,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "out_bytes": out_bytes,
    }
    if tracer is not None:
        result["layers"] = tracer.report(out_bytes=out_bytes, wall_s=wall)
        tracer.write_spans(args.tmp / "spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
