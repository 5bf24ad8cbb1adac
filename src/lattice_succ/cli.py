"""Command-line front door: queries, verification suites, exports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .cf_engine import ConvergentTable
from .core_arith import DEFAULT_BIT_BUDGET, _SPLIT_BITS, GridPoint, LatticeError, validate_pair, value
from .successor import next_point, prev_point, walk

# The handlers of enum, tile, gaps and verify import the verifier modules
# themselves, so `next`, `prev` and `cf` load only the query path.

BUDGET_ENV_VAR = "LATTICE_SUCC_BIT_BUDGET"
FORMATS = ("text", "json-lines", "tsv")


def _decimal(n: int) -> str:
    """The decimal digits of an int of any length, without lifting the interpreter's limit."""
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    d = n.bit_length() * 3 // 20  # about half of n's digits: log10(2) > 3/10
    hi, lo = divmod(n, 10**d)
    return _decimal(hi) + _decimal(lo).zfill(d)


def _field(v, dump) -> str:
    """One printed field: exact digits for an int (bool excluded), dump(v) otherwise."""
    return _decimal(v) if type(v) is int else dump(v)


def _emit(records: list[dict], columns: list[str], fmt: str, out) -> None:
    """Write records as JSON lines, or as TSV for the tsv and text formats."""
    if fmt == "json-lines":
        # json.dumps's own layout, with ints written out by _decimal
        for rec in records:
            out.write("{" + ", ".join(f"{json.dumps(c)}: {_field(rec[c], json.dumps)}" for c in columns) + "}\n")
    else:
        out.write("\t".join(columns) + "\n")
        for rec in records:
            out.write("\t".join(_field(rec[c], str) for c in columns) + "\n")


def _emit_point(p: GridPoint, val, fmt: str, out) -> None:
    if fmt == "text":
        suffix = f" {_decimal(val)}" if val is not None else ""
        out.write(f"({p.i},{p.j}){suffix}\n")
    else:
        rec = {"i": p.i, "j": p.j}
        cols = ["i", "j"]
        if val is not None:
            rec["value"] = val
            cols.append("value")
        _emit([rec], cols, fmt, out)


def _check_count(flag: str, n: int, least: int = 1) -> None:
    """Refuse a count below least (0 or 1), the smallest that gives output; the error names the flag."""
    if n < least:
        raise ValueError(f"{flag} must be {('non-negative', 'positive')[least]}, got {n}")


def _cmd_cf(args: argparse.Namespace, pair, out) -> int:
    _check_count("--depth", args.depth, 0)
    table = ConvergentTable(pair).extend_to(args.depth)
    records = [
        {"index": i, "quotient": a, "h": h, "k": k}
        for i, (a, (h, k)) in enumerate(zip(table.quotients, table.convergents))
    ]
    if args.fmt == "text":
        out.write("quotients " + " ".join(str(r["quotient"]) for r in records) + "\n")
    _emit(records, ["index", "quotient", "h", "k"], args.fmt, out)
    return 0


def _cmd_step(args: argparse.Namespace, pair, out) -> int:
    step = next_point if args.command == "next" else prev_point
    q = step(ConvergentTable(pair), GridPoint(args.i, args.j))
    _emit_point(q, value(pair, q) if args.value else None, args.fmt, out)
    return 0


def _cmd_enum(args: argparse.Namespace, pair, out) -> int:
    from .oracle import enumerate_sorted

    _check_count("--count", args.count)
    elems = enumerate_sorted(pair, args.count)
    records = [
        {"index": idx, "i": p.i, "j": p.j, "value": v} for idx, (p, v) in enumerate(elems)
    ]
    _emit(records, ["index", "i", "j", "value"], args.fmt, out)
    return 0


def _cmd_tile(args: argparse.Namespace, pair, out) -> int:
    from .tiling import Rectangle, rectangles_in_window

    _check_count("--width", args.width)
    _check_count("--height", args.height)
    table = ConvergentTable(pair)
    rects = rectangles_in_window(table, args.width, args.height, tilde=args.tilde)
    _emit([r._asdict() for r in rects], list(Rectangle._fields), args.fmt, out)
    if args.svg:
        from .svg import render_tiling_svg  # only this handler draws

        with open(args.svg, "w") as fh:
            fh.write(render_tiling_svg(rects, args.width, args.height))
    return 0


def _cmd_gaps(args: argparse.Namespace, pair, out) -> int:
    from .tiling import large_gap

    family = args.family
    first = 1 if family == "A" else 0  # family A starts at level 1
    _check_count("--levels", args.levels, first)
    table = ConvergentTable(pair)
    records = []
    for level in range(first, args.levels + 1):
        w = large_gap(table, level, family=family)
        records.append(
            {
                "level": w.level,
                "family": w.family,
                "i": w.point.i,
                "j": w.point.j,
                "succ_i": w.succ.i,
                "succ_j": w.succ.j,
                "gap": w.gap,
            }
        )
    _emit(records, ["level", "family", "i", "j", "succ_i", "succ_j", "gap"], args.fmt, out)
    return 0


def _cmd_verify(args: argparse.Namespace, pair, out) -> int:
    W, H = args.window
    if W < 1 or H < 1:
        raise ValueError(f"--window must be positive, got {W}x{H}")
    scan = args.scan
    depth = args.depth
    _check_count("--scan", scan)
    _check_count("--depth", depth)

    from .oracle import _merge
    from .sequences import (
        minimal_fractional_subsequences,
        predicted_record_indices,
        verify_fg_at_convergents,
        verify_monotone_fractional_chains,
    )
    from .tiling import verify_partition

    table = ConvergentTable(pair)
    records: list[dict] = []

    def suite(name: str, ok: bool, detail: str) -> None:
        records.append({"suite": name, "ok": ok, "detail": detail})

    src = verify_partition(table, W, H, tilde=False)
    suite("partition-source", src.ok, f"{src.rectangle_count} rectangles on {W}x{H}")
    tld = verify_partition(table, W, H, tilde=True)
    suite("partition-tilde", tld.ok, f"{tld.rectangle_count} rectangles on {W}x{H}")

    # walk's points against the oracle's exponent pairs, which are plain tuples: a GridPoint
    # equals its tuple. Both lists follow (0, 0), so they agree iff every oracle step is next_point's.
    stepped = _merge(pair, scan + 1)[0][1:]
    walked = walk(table, GridPoint(0, 0), scan)
    mismatches = 0
    if walked != stepped:
        mismatches = abs(len(walked) - len(stepped)) + sum(1 for p, q in zip(walked, stepped) if p != q)
    suite("oracle-agreement", mismatches == 0, f"{scan} successor steps, {mismatches} mismatches")

    fg = verify_fg_at_convergents(table, depth)
    suite("fg-identities", fg.ok, f"{fg.checked} identities" + ("" if fg.ok else f"; {fg.failures[0]}"))

    chains = verify_monotone_fractional_chains(table, depth)
    suite("monotone-chains", chains.ok, f"{chains.checked} links" + ("" if chains.ok else f"; {chains.failures[0]}"))

    got = minimal_fractional_subsequences(table, scan)
    want = predicted_record_indices(table, scan)
    suite("record-subsequences", got == want, f"scan N={scan}")

    if args.fmt == "text":
        for rec in records:
            out.write(f"{'PASS' if rec['ok'] else 'FAIL'} {rec['suite']}: {rec['detail']}\n")
    else:
        _emit(records, ["suite", "ok", "detail"], args.fmt, out)
    return 0 if all(rec["ok"] for rec in records) else 1


def _parse_window(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window must look like 200x200, got {text!r}") from exc


@lru_cache(maxsize=4)
def build_parser(budget_default: str) -> argparse.ArgumentParser:
    """The argument parser, built once per --bit-budget default string.

    argparse converts that default at parse time, so a non-integer one exits 2.
    Its `commands` attribute maps each subcommand name to that subcommand's parser.
    """
    parser = argparse.ArgumentParser(
        prog="lattice-succ",
        description="Successor/predecessor queries in S = {p1^i * p2^j} via "
        "continued-fraction rectangle tilings, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p1", type=int, required=True, help="smaller generator (> 1)")
        p.add_argument("--p2", type=int, required=True, help="larger generator (> p1)")
        p.add_argument("--format", choices=FORMATS, default="text", dest="fmt")
        p.add_argument(
            "--bit-budget",
            type=int,
            default=budget_default,
            help=f"cap on power-comparison bit sizes (env {BUDGET_ENV_VAR})",
        )

    p = sub.add_parser("cf", help="partial quotients and convergent table")
    common(p)
    p.add_argument("--depth", type=int, default=10)

    for name, hlp in (("next", "successor coordinates"), ("prev", "predecessor coordinates")):
        p = sub.add_parser(name, help=hlp)
        common(p)
        p.add_argument("--i", type=int, required=True, help="exponent of p1")
        p.add_argument("--j", type=int, required=True, help="exponent of p2")
        p.add_argument("--value", action="store_true", help="also print the exact integer")

    p = sub.add_parser("enum", help="first elements of S in sorted order")
    common(p)
    p.add_argument("--count", type=int, default=20)

    p = sub.add_parser("tile", help="rectangle decomposition over a window")
    common(p)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="translated (next-number) family")
    p.add_argument("--svg", type=str, default=None, help="also write an SVG figure")

    p = sub.add_parser("gaps", help="large-gap witnesses per level")
    common(p)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--family", choices=("A", "P"), default="A")

    p = sub.add_parser("verify", help="run every property suite")
    common(p)
    p.add_argument("--window", type=_parse_window, default=(100, 100), help="WxH, e.g. 200x200")
    p.add_argument("--scan", type=int, default=500)
    p.add_argument("--depth", type=int, default=8)

    parser.commands = sub.choices
    return parser


_COMMANDS = {
    "cf": _cmd_cf,
    "next": _cmd_step,
    "prev": _cmd_step,
    "enum": _cmd_enum,
    "tile": _cmd_tile,
    "gaps": _cmd_gaps,
    "verify": _cmd_verify,
}


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser(os.environ.get(BUDGET_ENV_VAR) or str(DEFAULT_BIT_BUDGET))
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # What the top-level parse does with a subcommand, without its pass
        # over the whole argv: the subcommand's parser takes the rest, and
        # what it leaves is the top-level parser's error.
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        pair = validate_pair(args.p1, args.p2, args.bit_budget)
        return _COMMANDS[args.command](args, pair, out)
    except BrokenPipeError:
        raise  # the reader of the output left; main exits quietly
    except (LatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()  # output that fit the buffer meets a closed pipe here
    except BrokenPipeError:
        # As `| head` expects: exit 128 + SIGPIPE with nothing on stderr, and
        # point stdout at devnull so the interpreter's last flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(status)


if __name__ == "__main__":
    main()
