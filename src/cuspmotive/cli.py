"""Command line entry points.

Every subcommand prints human-readable text by default and a stable JSON
document with ``--json``, written as one compact key-sorted line;
``--out FILE`` redirects either form to a file. Series commands share
``--max-degree`` (3 to 20); per-point commands take ``--points`` with the
range the underlying computation supports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import genus0, genus1_boundary, genus1_fiber, pipeline


def _int_between(what: str, lo: int, hi: int):
    """An argparse type: an integer from lo to hi, called ``what`` in errors."""

    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer")
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"{what} must be between {lo} and {hi}")
        return n

    return parse


def _partition_name(lam, head: str = "p") -> str:
    return head + "[" + ",".join(str(part) for part in lam) + "]"


def _series_lines(series, basis: str = "power") -> list[str]:
    if basis == "schur":
        head, tables = "s", {n: series.to_schur(n) for n in range(series.max_degree + 1)}
    else:  # one pass over the sorted keys, grouped by degree
        head, tables = "p", {}
        for lam, c in series.items():
            tables.setdefault(lam.size, {})[lam] = c
    lines = []
    for n, table in tables.items():
        if not table:
            continue
        lines.append(f"degree {n}:")
        for lam in sorted(table):
            lines.append(f"  {_partition_name(lam, head)} -> {table[lam]!r}")
    return lines or ["(zero)"]


def _stratum_json(ec) -> dict:
    # A cycle type is a tuple, so the encoder writes each (ct, v) pair as
    # [[parts], v] without a copy.
    bins = [[m, w, sorted(ec.bins[(m, w)].items())] for (m, w) in sorted(ec.bins)]
    sym = [
        [k, j, sorted(table.items())] for (k, j), table in sorted(ec.sym_multiplicities.items())
    ]
    alt = [[k, j, c] for (k, j), c in sorted(ec.alternating_parts().items())]
    return {"points": ec.n, "bins": bins, "sym_multiplicities": sym, "alternating": alt}


def _emit(args, command: str, result, text_lines, max_degree=None) -> None:
    """Print ``result`` as JSON, or the text form ``text_lines()`` builds.

    The text form is passed as a zero-argument callable so that ``--json``
    never renders it.
    """
    if args.json:
        doc = {
            "schema_version": 1,
            "command": command,
            "max_degree": max_degree,
            "result": result,
        }
        # Compact separators keep the encoding in the C encoder; any indent
        # falls back to the pure-Python one.
        out = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        out = "\n".join(text_lines())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


# ---------------------------------------------------------------------------
# Subcommand bodies.


def _cmd_series(args) -> int:
    series = getattr(genus0, args.series)(args.max_degree)
    result = series.to_json(basis=args.basis)
    _emit(args, args.command, result, lambda: _series_lines(series, args.basis), args.max_degree)
    return 0


def _cmd_lie(args) -> int:
    series = genus0.signed_lie(args.max_degree) if args.signed else genus0.ch_lie(args.max_degree)
    name = "signed lie" if args.signed else "lie"
    result = {"signed": args.signed, "series": series.to_json(basis=args.basis)}

    def text():
        return [f"{name} character series:"] + _series_lines(series, args.basis)

    _emit(args, "lie", result, text, args.max_degree)
    return 0


def _cmd_rows_check(args) -> int:
    tables = genus0.poincare_schur(args.points)

    def text():
        lines = []
        for i, rep in enumerate(tables):
            lines.append(f"H^{i}:")
            for lam in sorted(rep):
                lines.append(
                    f"  {_partition_name(lam, 's')} x {rep[lam]}  ({lam.rows} rows, bound {i + 1})"
                )
        lines.append("row bounds satisfied: every constituent of H^i has at most i+1 rows")
        return lines

    result = [[[list(lam), rep[lam]] for lam in sorted(rep)] for rep in tables]
    _emit(args, "rows-check", {"points": args.points, "cohomology": result}, text)
    return 0


def _cmd_fiber(args) -> int:
    dims = genus1_fiber.alternating_component(args.points)

    def text():
        lines = [f"sign-isotypic fiber cohomology, {args.points} points:"]
        for (deg, w) in sorted(dims):
            lines.append(f"  degree {deg}, weight {w}: multiplicity {dims[(deg, w)]}")
        return lines

    result = {
        "points": args.points,
        "multiplicities": [[deg, w, dims[(deg, w)]] for (deg, w) in sorted(dims)],
    }
    _emit(args, "fiber", result, text)
    return 0


def _cmd_open_stratum(args) -> int:
    ec = genus1_fiber.ec_open_stratum(args.points)

    def text():
        lines = [f"equivariant weight table, {args.points} points:"]
        for (m, w) in sorted(ec.bins):
            row = ", ".join(
                f"{_partition_name(ct)}:{v}" for ct, v in sorted(ec.bins[(m, w)].items())
            )
            lines.append(f"  (degree {m}, weight {w})  {row}")
        lines.append("local-system multiplicities (k, twist):")
        for (k, j), table in sorted(ec.sym_multiplicities.items()):
            row = ", ".join(f"{_partition_name(ct)}:{v}" for ct, v in sorted(table.items()))
            lines.append(f"  (k={k}, j={j})  {row}")
        lines.append("sign component by local system (k, j) of Sym^k (x) L^j:")
        for (k, j), c in sorted(ec.alternating_parts().items()):
            lines.append(f"  ({k}, {j}): {c}")
        return lines

    _emit(args, "open-stratum", _stratum_json(ec), text)
    return 0


def _cmd_necklace(args) -> int:
    neck = genus1_boundary.necklace_series(args.max_degree)
    corr = genus1_boundary.correction_series(args.max_degree)

    def text():
        return (["necklace series:"] + _series_lines(neck)
                + ["correction series:"] + _series_lines(corr))

    result = {"necklace": neck.to_json(), "correction": corr.to_json()}
    _emit(args, "necklace", result, text, args.max_degree)
    return 0


def _cmd_boundary(args) -> int:
    alt = genus1_boundary.boundary_alt(args.max_degree)

    def text():
        lines = ["alternating image of the boundary sum:"]
        lines += [f"  t^{n}: {alt.coefficient(n)!r}" for n in range(1, args.max_degree + 1)]
        return lines

    result = {
        "series": genus1_boundary.boundary_sum(args.max_degree).to_json(),
        "alt": alt.to_json(),
    }
    _emit(args, "boundary", result, text, args.max_degree)
    return 0


def _cmd_interior(args) -> int:
    classes = {n: genus1_fiber.interior_alternating(n) for n in range(1, args.points + 1)}

    def text():
        return ["interior sign-isotypic classes:"] + [
            f"  n={n}: {cls!r}" for n, cls in classes.items()
        ]

    table = [[n, cls.to_json()] for n, cls in classes.items()]
    _emit(args, "interior", {"classes": table}, text)
    return 0


def _cmd_motive(args) -> int:
    res = pipeline.main_theorem(args.points)

    def text():
        return [
            f"n = {res.n}",
            f"interior: {res.interior!r}",
            f"boundary: {res.boundary!r}",
            f"total:    {res.total!r}",
            f"rank:     {res.rank}",
            "hodge:    " + (", ".join(f"h^{{{p},{q}}} x {m}" for p, q, m in res.hodge) or "(none)"),
        ]

    _emit(args, "motive", res.to_json(), text)
    return 0


def _cmd_verify_all(args) -> int:
    from . import verification  # only this command needs the battery

    results = verification.run_all(args.max_degree)

    def text():
        lines = []
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{mark} {r.name} ({r.seconds:.2f} s)"
            lines.append(line + (f": {r.detail}" if r.detail else ""))
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        return lines

    result = [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    _emit(args, "verify-all", result, text, args.max_degree)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.

    It is pure configuration: ``parse_args`` returns a fresh namespace
    each time, and series functions are named, not bound, so a module
    attribute wrapped or patched after the first build is still the one
    called.
    """
    parser = argparse.ArgumentParser(
        prog="cuspmotive",
        description="exact symmetric-function computations for pointed curve spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, series=False, basis=False, points=None):
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        if series:
            p.add_argument(
                "--max-degree",
                type=_int_between("max degree", 3, 20),
                default=14,
                help="truncation degree, 3 to 20 (default 14)",
            )
        if basis:
            p.add_argument(
                "--basis",
                choices=("power", "schur"),
                default="power",
                help="output basis for series terms",
            )
        if points is not None:
            lo, hi = points
            p.add_argument(
                "--points",
                "-n",
                type=_int_between("points", lo, hi),
                required=True,
                help=f"number of marked points, {lo} to {hi}",
            )

    for name, series, about in (
        ("a0", "a0_series", "open genus-zero configuration series"),
        ("b0prime", "b0_prime", "stable genus-zero series"),
    ):
        p = sub.add_parser(name, help=about)
        common(p, series=True, basis=True)
        p.set_defaults(fn=_cmd_series, series=series)

    p = sub.add_parser("lie", help="Lie character series")
    common(p, series=True, basis=True)
    p.add_argument("--signed", action="store_true", help="apply the sign twist")
    p.set_defaults(fn=_cmd_lie)

    p = sub.add_parser("rows-check", help="cohomology Schur tables with row bounds")
    common(p, points=(3, 10))
    p.set_defaults(fn=_cmd_rows_check)

    p = sub.add_parser("fiber", help="sign component of the fiber power cohomology")
    common(p, points=(2, pipeline.MAX_POINTS))
    p.set_defaults(fn=_cmd_fiber)

    p = sub.add_parser("open-stratum", help="equivariant weight table of the open stratum")
    common(p, points=(1, pipeline.MAX_POINTS))
    p.set_defaults(fn=_cmd_open_stratum)

    p = sub.add_parser("necklace", help="cycle and correction boundary series")
    common(p, series=True)
    p.set_defaults(fn=_cmd_necklace)

    p = sub.add_parser("boundary", help="boundary sum and its alternating image")
    common(p, series=True)
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("interior", help="interior sign-isotypic classes up to n points")
    common(p, points=(1, pipeline.MAX_POINTS))
    p.set_defaults(fn=_cmd_interior)

    p = sub.add_parser("motive", help="assembled sign-isotypic motive for n points")
    common(p, points=(1, pipeline.MAX_POINTS))
    p.set_defaults(fn=_cmd_motive)

    p = sub.add_parser("verify-all", help="run the full acceptance battery")
    common(p, series=True)
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
