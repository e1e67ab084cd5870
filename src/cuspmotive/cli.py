"""Command line entry points.

Every subcommand prints human-readable text by default and a stable JSON
document with ``--json``, written as one compact key-sorted line;
``--out FILE`` redirects either form to a file. Series commands share
``--max-degree`` (3 to 20); per-point commands take ``--points`` with the
range the underlying computation supports.

One table in :func:`build_parser` registers every subcommand: its name,
its parent parsers (the options it shares with other commands), its
handler and its help. A handler computes what both forms print and
returns the JSON document and the text lines as two zero-argument
callables; ``main`` calls the one the run asks for, so a text run
builds nothing that only ``--json`` prints (``boundary`` never builds
the equivariant boundary sum) and ``--json`` renders no text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import genus0, genus1_boundary, genus1_fiber, pipeline

# The genus0 function each series command prints, looked up at each call.
_SERIES = {"a0": "a0_series", "b0prime": "b0_prime"}


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


def _emit(args, doc, text) -> None:
    """Print the JSON document ``doc()`` under ``--json``, else the lines ``text()``."""
    if args.json:
        out = json.dumps(
            {
                "schema_version": 1,
                "command": args.command,
                "max_degree": vars(args).get("max_degree"),
                "result": doc(),
            },
            # Compact separators keep the encoding in the C encoder; any
            # indent falls back to the pure-Python one.
            sort_keys=True,
            separators=(",", ":"),
        )
    else:
        out = "\n".join(text())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


# ---------------------------------------------------------------------------
# Subcommand bodies: each computes what both forms share and returns the
# JSON document and the text lines as two zero-argument callables.


def _cmd_series(args):
    series = getattr(genus0, _SERIES[args.command])(args.max_degree)
    return lambda: series.to_json(basis=args.basis), lambda: _series_lines(series, args.basis)


def _cmd_lie(args):
    series = (genus0.signed_lie if args.signed else genus0.ch_lie)(args.max_degree)
    name = "signed lie" if args.signed else "lie"
    return (
        lambda: {"signed": args.signed, "series": series.to_json(basis=args.basis)},
        lambda: [f"{name} character series:"] + _series_lines(series, args.basis),
    )


def _cmd_rows_check(args):
    tables = genus0.poincare_schur(args.points)

    def doc():
        cohomology = [[[list(lam), rep[lam]] for lam in sorted(rep)] for rep in tables]
        return {"points": args.points, "cohomology": cohomology}

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

    return doc, text


def _cmd_fiber(args):
    dims = genus1_fiber.alternating_component(args.points)
    keys = sorted(dims)
    return (
        lambda: {"points": args.points, "multiplicities": [[d, w, dims[(d, w)]] for d, w in keys]},
        lambda: [f"sign-isotypic fiber cohomology, {args.points} points:"]
        + [f"  degree {d}, weight {w}: multiplicity {dims[(d, w)]}" for d, w in keys],
    )


def _cmd_open_stratum(args):
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

    return lambda: _stratum_json(ec), text


def _cmd_necklace(args):
    neck = genus1_boundary.necklace_series(args.max_degree)
    corr = genus1_boundary.correction_series(args.max_degree)
    return (
        lambda: {"necklace": neck.to_json(), "correction": corr.to_json()},
        lambda: ["necklace series:"] + _series_lines(neck)
        + ["correction series:"] + _series_lines(corr),
    )


def _cmd_boundary(args):
    alt = genus1_boundary.boundary_alt(args.max_degree)
    return (
        # Only the JSON form prints the equivariant sum itself.
        lambda: {
            "series": genus1_boundary.boundary_sum(args.max_degree).to_json(),
            "alt": alt.to_json(),
        },
        lambda: ["alternating image of the boundary sum:"]
        + [f"  t^{n}: {alt.coefficient(n)!r}" for n in range(1, args.max_degree + 1)],
    )


def _cmd_interior(args):
    classes = {n: genus1_fiber.interior_alternating(n) for n in range(1, args.points + 1)}
    return (
        lambda: {"classes": [[n, cls.to_json()] for n, cls in classes.items()]},
        lambda: ["interior sign-isotypic classes:"]
        + [f"  n={n}: {cls!r}" for n, cls in classes.items()],
    )


def _cmd_motive(args):
    res = pipeline.main_theorem(args.points)
    return res.to_json, lambda: [
        f"n = {res.n}",
        f"interior: {res.interior!r}",
        f"boundary: {res.boundary!r}",
        f"total:    {res.total!r}",
        f"rank:     {res.rank}",
        "hodge:    " + (", ".join(f"h^{{{p},{q}}} x {m}" for p, q, m in res.hodge) or "(none)"),
    ]


def _cmd_verify_all(args):
    from . import verification  # only this command needs the battery

    results = verification.run_all(args.max_degree)
    args.status = 0 if all(r.passed for r in results) else 1

    def text():
        lines = []
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.seconds:.2f} s)"
            lines.append(line + (f": {r.detail}" if r.detail else ""))
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        return lines

    return lambda: [
        {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ], text


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from one command table.

    It is pure configuration: ``parse_args`` returns a fresh namespace
    each time, and series functions are named, not bound, so a module
    attribute wrapped or patched after the first build is still the one
    called.
    """

    def parent(*flags, **kw):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kw)
        return p

    def points(lo, hi):
        kind, about = _int_between("points", lo, hi), f"number of marked points, {lo} to {hi}"
        return parent("--points", "-n", type=kind, required=True, help=about)

    io = parent("--json", action="store_true", help="emit a JSON document")
    io.add_argument("--out", metavar="FILE", help="write output to FILE")
    degree = parent(
        "--max-degree",
        type=_int_between("max degree", 3, 20),
        default=14,
        help="truncation degree, 3 to 20 (default 14)",
    )
    basis = parent(
        "--basis", choices=("power", "schur"), default="power", help="output basis for series terms"
    )
    signed = parent("--signed", action="store_true", help="apply the sign twist")
    rows, fibers = points(3, 10), points(2, pipeline.MAX_POINTS)
    stratum = points(1, pipeline.MAX_POINTS)
    commands = (  # name, parents besides io, handler, help
        ("a0", (degree, basis), _cmd_series, "open genus-zero configuration series"),
        ("b0prime", (degree, basis), _cmd_series, "stable genus-zero series"),
        ("lie", (degree, basis, signed), _cmd_lie, "Lie character series"),
        ("rows-check", (rows,), _cmd_rows_check, "cohomology Schur tables with row bounds"),
        ("fiber", (fibers,), _cmd_fiber, "sign component of the fiber power cohomology"),
        ("open-stratum", (stratum,), _cmd_open_stratum,
         "equivariant weight table of the open stratum"),
        ("necklace", (degree,), _cmd_necklace, "cycle and correction boundary series"),
        ("boundary", (degree,), _cmd_boundary, "boundary sum and its alternating image"),
        ("interior", (stratum,), _cmd_interior, "interior sign-isotypic classes up to n points"),
        ("motive", (stratum,), _cmd_motive, "assembled sign-isotypic motive for n points"),
        ("verify-all", (degree,), _cmd_verify_all, "run the full acceptance battery"),
    )
    parser = argparse.ArgumentParser(
        prog="cuspmotive",
        description="exact symmetric-function computations for pointed curve spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, fn, about in commands:
        sub.add_parser(name, help=about, parents=(io, *parents)).set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, *args.fn(args))
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return vars(args).get("status", 0)  # verify-all sets 1 when a check fails


if __name__ == "__main__":
    sys.exit(main())
