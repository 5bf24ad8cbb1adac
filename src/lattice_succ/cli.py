"""Command-line front door: queries, verification suites, exports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .cf_engine import ConvergentTable
from .core_arith import DEFAULT_BIT_BUDGET, _SPLIT_BITS, GridPoint, LatticeError, _count, validate_pair, value
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


def _emit(rows, columns, fmt: str, out) -> None:
    """Write rows, each a sequence of fields in column order, as JSON lines or as TSV (tsv and text)."""
    if fmt == "json-lines":
        # json.dumps's own layout, with ints written out by _decimal
        for row in rows:
            fields = (f"{json.dumps(c)}: {_field(v, json.dumps)}" for c, v in zip(columns, row))
            out.write("{" + ", ".join(fields) + "}\n")
    else:
        out.write("\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(_field(v, str) for v in row) + "\n")


def _cmd_cf(args: argparse.Namespace, pair, out) -> int:
    table = ConvergentTable(pair).extend_to(_count(args.depth, "--depth", 0))
    rows = [(i, a, h, k) for i, (a, (h, k)) in enumerate(zip(table.quotients, table.convergents))]
    if args.fmt == "text":
        out.write("quotients " + " ".join(str(row[1]) for row in rows) + "\n")
    _emit(rows, ["index", "quotient", "h", "k"], args.fmt, out)
    return 0


def _cmd_step(args: argparse.Namespace, pair, out) -> int:
    step = next_point if args.command == "next" else prev_point
    q = step(ConvergentTable(pair), GridPoint(args.i, args.j))
    row = (*q, value(pair, q)) if args.value else q
    if args.fmt == "text":
        out.write(f"({q.i},{q.j})" + (f" {_decimal(row[2])}" if args.value else "") + "\n")
    else:
        _emit([row], ["i", "j", "value"][: len(row)], args.fmt, out)
    return 0


def _cmd_enum(args: argparse.Namespace, pair, out) -> int:
    from .oracle import enumerate_sorted

    rows = [(idx, *p, v) for idx, (p, v) in enumerate(enumerate_sorted(pair, _count(args.count, "--count", 1)))]
    _emit(rows, ["index", "i", "j", "value"], args.fmt, out)
    return 0


def _cmd_tile(args: argparse.Namespace, pair, out) -> int:
    from .tiling import Rectangle, rectangles_in_window

    W, H = _count(args.width, "--width", 1), _count(args.height, "--height", 1)
    rects = rectangles_in_window(ConvergentTable(pair), W, H, tilde=args.tilde)
    if args.svg:  # before the table, so an unwritable path prints nothing but its error
        from .svg import render_tiling_svg  # only this handler draws

        with open(args.svg, "w") as fh:
            fh.write(render_tiling_svg(rects, W, H))
    _emit(rects, Rectangle._fields, args.fmt, out)
    return 0


def _cmd_gaps(args: argparse.Namespace, pair, out) -> int:
    from .tiling import large_gap

    family = args.family
    first = 1 if family == "A" else 0  # family A starts at level 1
    levels = _count(args.levels, "--levels", first)
    table = ConvergentTable(pair)
    witnesses = [large_gap(table, level, family=family) for level in range(first, levels + 1)]
    rows = [(w.level, w.family, *w.point, *w.succ, w.gap) for w in witnesses]
    _emit(rows, ["level", "family", "i", "j", "succ_i", "succ_j", "gap"], args.fmt, out)
    return 0


def _cmd_verify(args: argparse.Namespace, pair, out) -> int:
    W, H = args.window
    if W < 1 or H < 1:
        raise ValueError(f"--window must be positive, got {W}x{H}")
    scan, depth = _count(args.scan, "--scan", 1), _count(args.depth, "--depth", 1)

    from .oracle import _merge
    from .sequences import (
        minimal_fractional_subsequences,
        predicted_record_indices,
        verify_fg_at_convergents,
        verify_monotone_fractional_chains,
    )
    from .tiling import verify_partition

    table = ConvergentTable(pair)
    records: list[tuple[str, bool, str]] = []
    suite = records.append

    src = verify_partition(table, W, H, tilde=False)
    suite(("partition-source", src.ok, f"{src.rectangle_count} rectangles on {W}x{H}"))
    tld = verify_partition(table, W, H, tilde=True)
    suite(("partition-tilde", tld.ok, f"{tld.rectangle_count} rectangles on {W}x{H}"))

    # walk's points against the oracle's exponent pairs, which are plain tuples: a GridPoint
    # equals its tuple. Both lists follow (0, 0), so they agree iff every oracle step is next_point's.
    stepped = _merge(pair, scan + 1)[0][1:]
    walked = walk(table, GridPoint(0, 0), scan)
    mismatches = 0
    if walked != stepped:
        mismatches = abs(len(walked) - len(stepped)) + sum(1 for p, q in zip(walked, stepped) if p != q)
    suite(("oracle-agreement", mismatches == 0, f"{scan} successor steps, {mismatches} mismatches"))

    fg = verify_fg_at_convergents(table, depth)
    suite(("fg-identities", fg.ok, f"{fg.checked} identities" + ("" if fg.ok else f"; {fg.failures[0]}")))

    chains = verify_monotone_fractional_chains(table, depth)
    detail = f"{chains.checked} links" + ("" if chains.ok else f"; {chains.failures[0]}")
    suite(("monotone-chains", chains.ok, detail))

    got = minimal_fractional_subsequences(table, scan)
    want = predicted_record_indices(table, scan)
    suite(("record-subsequences", got == want, f"scan N={scan}"))

    if args.fmt == "text":
        for name, ok, detail in records:
            out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
    else:
        _emit(records, ["suite", "ok", "detail"], args.fmt, out)
    return 0 if all(ok for _, ok, _ in records) else 1


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
    Each subcommand's parser sets the default `handler`, the function that `run`
    calls with the parsed arguments, the checked pair and the output stream.
    The parser's `commands` attribute maps each subcommand name to that parser.
    """
    parser = argparse.ArgumentParser(
        prog="lattice-succ",
        description="Successor/predecessor queries in S = {p1^i * p2^j} via "
        "continued-fraction rectangle tilings, with a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
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
    common(p, _cmd_cf)
    p.add_argument("--depth", type=int, default=10)

    for name, hlp in (("next", "successor coordinates"), ("prev", "predecessor coordinates")):
        p = sub.add_parser(name, help=hlp)
        common(p, _cmd_step)
        p.add_argument("--i", type=int, required=True, help="exponent of p1")
        p.add_argument("--j", type=int, required=True, help="exponent of p2")
        p.add_argument("--value", action="store_true", help="also print the exact integer")

    p = sub.add_parser("enum", help="first elements of S in sorted order")
    common(p, _cmd_enum)
    p.add_argument("--count", type=int, default=20)

    p = sub.add_parser("tile", help="rectangle decomposition over a window")
    common(p, _cmd_tile)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--tilde", action="store_true", help="translated (next-number) family")
    p.add_argument("--svg", type=str, default=None, help="also write an SVG figure")

    p = sub.add_parser("gaps", help="large-gap witnesses per level")
    common(p, _cmd_gaps)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--family", choices=("A", "P"), default="A")

    p = sub.add_parser("verify", help="run every property suite")
    common(p, _cmd_verify)
    p.add_argument("--window", type=_parse_window, default=(100, 100), help="WxH, e.g. 200x200")
    p.add_argument("--scan", type=int, default=500)
    p.add_argument("--depth", type=int, default=8)

    parser.commands = sub.choices
    return parser


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
        return args.handler(args, pair, out)
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
