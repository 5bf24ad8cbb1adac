import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

import pytest

from lattice_succ import GridPoint, SortedStream, cli, enumerate_sorted, oracle, sequences, tiling, validate_pair, value
from lattice_succ.cli import BUDGET_ENV_VAR, build_parser, run

from conftest import PAIR_ARGS


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_next_text_example():
    code, out = invoke(["next", "--p1", "2", "--p2", "3", "--i", "3", "--j", "2", "--value"])
    assert code == 0
    assert out.strip() == "(0,4) 81"


def test_prev_text_example():
    code, out = invoke(["prev", "--p1", "2", "--p2", "3", "--i", "0", "--j", "4", "--value"])
    assert code == 0
    assert out.strip() == "(3,2) 72"


def test_next_without_value():
    code, out = invoke(["next", "--p1", "2", "--p2", "3", "--i", "0", "--j", "0"])
    assert code == 0
    assert out.strip() == "(1,0)"


def test_cf_quotients_example():
    code, out = invoke(["cf", "--p1", "2", "--p2", "3", "--depth", "8"])
    assert code == 0
    assert out.splitlines()[0] == "quotients 0 1 1 1 2 2 3 1 5"


def test_prev_of_origin_exits_2(capsys):
    code, _ = invoke(["prev", "--p1", "2", "--p2", "3", "--i", "0", "--j", "0"])
    assert code == 2
    assert "no predecessor" in capsys.readouterr().err


def test_dependent_generators_exit_2(capsys):
    code, _ = invoke(["next", "--p1", "4", "--p2", "8", "--i", "1", "--j", "1"])
    assert code == 2
    assert "multiplicatively independent" in capsys.readouterr().err


def test_invalid_order_exit_2():
    code, _ = invoke(["enum", "--p1", "5", "--p2", "2", "--count", "3"])
    assert code == 2


def test_enum_json_lines_round_trip():
    code, out = invoke(
        ["enum", "--p1", "2", "--p2", "3", "--count", "8", "--format", "json-lines"]
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["value"] for r in records] == [1, 2, 3, 4, 6, 8, 9, 12]
    # coordinates round-trip to the same values
    for r in records:
        assert 2 ** r["i"] * 3 ** r["j"] == r["value"]


def test_next_json_round_trip():
    code, out = invoke(
        ["next", "--p1", "2", "--p2", "3", "--i", "3", "--j", "2", "--value", "--format", "json-lines"]
    )
    rec = json.loads(out)
    assert code == 0
    assert (rec["i"], rec["j"], rec["value"]) == (0, 4, 81)


def test_enum_tsv():
    code, out = invoke(["enum", "--p1", "2", "--p2", "3", "--count", "3", "--format", "tsv"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "index\ti\tj\tvalue"
    assert lines[1] == "0\t0\t0\t1"


def test_tile_output_and_svg(tmp_path):
    svg_path = tmp_path / "tiles.svg"
    code, out = invoke(
        [
            "tile", "--p1", "2", "--p2", "3", "--width", "20", "--height", "20",
            "--svg", str(svg_path), "--format", "json-lines",
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    keys = [(r["family"], r["level"], r["band"]) for r in records]
    assert keys == sorted(keys)
    text = svg_path.read_text()
    assert text.startswith("<?xml") and "<svg" in text and "</svg>" in text


def test_tile_unwritable_svg_exits_2(tmp_path, capsys):
    # A missing directory and a directory itself: the error line is all the output.
    for svg in (tmp_path / "missing" / "tiles.svg", tmp_path):
        code, out = invoke(["tile", "--p1", "2", "--p2", "3", "--width", "5", "--height", "5", "--svg", str(svg)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")


def _console(argv, **kwargs):
    """The command line in a process of its own, as `lattice-succ argv...` runs it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-m", "lattice_succ.cli", *argv], cwd=src, stderr=subprocess.PIPE, text=True, **kwargs
    )


def test_a_reader_that_leaves_early_gets_a_quiet_exit_141():
    # `lattice-succ enum ... | head -2`: the output outgrows the pipe, and the
    # reader closes it after two lines.
    proc = _console(["enum", "--p1", "2", "--p2", "3", "--count", "20000"], stdout=subprocess.PIPE)
    lines = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert lines == ["index\ti\tj\tvalue\n", "0\t0\t0\t1\n"]
    assert (proc.returncode, err) == (141, "")


def test_output_that_fits_the_buffer_meets_a_closed_pipe_quietly():
    # The pipe is closed before the process starts, and five lines fit the
    # output buffer, so the closed pipe shows only when main flushes it.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _console(["enum", "--p1", "2", "--p2", "3", "--count", "5"], stdout=write)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, "")


def test_unwritable_svg_exits_2_in_its_own_process(tmp_path):
    proc = _console(
        ["tile", "--p1", "2", "--p2", "3", "--width", "5", "--height", "5", "--svg", str(tmp_path / "missing" / "t.svg")],
        stdout=subprocess.PIPE,
    )
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_tile_tilde_differs():
    _, src = invoke(["tile", "--p1", "2", "--p2", "3", "--width", "10", "--height", "10"])
    _, tld = invoke(["tile", "--p1", "2", "--p2", "3", "--width", "10", "--height", "10", "--tilde"])
    assert src != tld
    assert "A~" in tld and "P~" in tld


def test_gaps_table():
    code, out = invoke(["gaps", "--p1", "2", "--p2", "3", "--levels", "2", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["gap"] == 2
    assert records[1]["gap"] == 1441152


@contextlib.contextmanager
def no_digit_limit():
    """Lift the interpreter's int-to-str digit limit (where it has one) to parse the output."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def _last_record(out: str, fmt: str) -> dict:
    lines = out.splitlines()
    if fmt == "json-lines":
        return json.loads(lines[-1])
    return {c: int(v) if v.isdigit() else v for c, v in zip(lines[0].split("\t"), lines[-1].split("\t"))}


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_gaps_print_the_exact_gap_past_the_digit_limit(fmt):
    # The README's command; the level-5 gap of (2,3) has more digits than the
    # interpreter converts by default.
    code, out = invoke(["gaps", "--p1", "2", "--p2", "3", "--levels", "5", "--format", fmt])
    assert code == 0
    assert len(out.splitlines()) == 5 + (fmt != "json-lines")  # the TSV formats print a header
    with no_digit_limit():
        rec = _last_record(out, fmt)
        pair = validate_pair(2, 3)
        point, succ = GridPoint(rec["i"], rec["j"]), GridPoint(rec["succ_i"], rec["succ_j"])
        assert rec["level"] == 5
        assert rec["gap"] == value(pair, succ) - value(pair, point)
        assert len(str(rec["gap"])) > 4300


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_next_prints_a_value_past_the_digit_limit(fmt):
    code, out = invoke(["next", "--p1", "2", "--p2", "3", "--i", "20000", "--j", "0", "--value", "--format", fmt])
    assert code == 0
    with no_digit_limit():
        if fmt == "text":
            point, digits = out.split()
            i, j = map(int, point.strip("()").split(","))
            got = int(digits)
        else:
            rec = _last_record(out, fmt)
            i, j, got = rec["i"], rec["j"], rec["value"]
        assert got == value(validate_pair(2, 3), GridPoint(i, j)) > 10**4300


def test_decimal_digits_equal_str():
    # Around the split width, and powers of ten whose low halves are all zeros.
    ints = [0, 7, -7, 2**2000, 2**2001, 10**5000, 10**5000 - 1, 10**5000 + 1, -(3**20000), 7**100_000]
    got = [cli._decimal(n) for n in ints]
    with no_digit_limit():
        assert got == [str(n) for n in ints]


def test_verify_passes():
    code, out = invoke(
        ["verify", "--p1", "2", "--p2", "3", "--window", "40x40", "--scan", "100", "--depth", "6"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


VERIFY_ARGS = ["verify", "--p1", "2", "--p2", "3", "--window", "40x40", "--scan", "100", "--depth", "6"]


def test_verify_text_lines():
    _, out = invoke(VERIFY_ARGS)
    assert out.splitlines()[0] == "PASS partition-source: 10 rectangles on 40x40"
    assert out.splitlines()[2] == "PASS oracle-agreement: 100 successor steps, 0 mismatches"


def test_verify_json_lines_and_tsv():
    code, out = invoke(VERIFY_ARGS + ["--format", "json-lines"])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["suite"] for r in records][:2] == ["partition-source", "partition-tilde"]
    assert len(records) == 6 and all(r["ok"] is True for r in records)
    assert records[0]["detail"] == "10 rectangles on 40x40"
    code, out = invoke(VERIFY_ARGS + ["--format", "tsv"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "suite\tok\tdetail"
    assert lines[1] == "partition-source\tTrue\t10 rectangles on 40x40"
    assert len(lines) == 7


def test_verify_fails_on_a_walk_that_skips_a_step(monkeypatch):
    real = cli._walk

    def skipping(table, p, n):
        i, j = real(table, p, n + 1)
        return i[:40] + i[41:], j[:40] + j[41:]

    monkeypatch.setattr(cli, "_walk", skipping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert "FAIL oracle-agreement: 100 successor steps, 60 mismatches" in out.splitlines()


@pytest.mark.parametrize("drop,line", [
    (40, "FAIL oracle-agreement: 100 successor steps, 61 mismatches"),
    # An oracle one element short that agrees with walk on the rest still fails.
    (100, "FAIL oracle-agreement: 100 successor steps, 1 mismatches"),
])
def test_verify_fails_on_an_oracle_that_drops_an_element(monkeypatch, drop, line):
    real = oracle._merge

    def dropping(pair, count):
        i, j, vals = real(pair, count)
        return i[:drop] + i[drop + 1:], j[:drop] + j[drop + 1:], vals[:drop] + vals[drop + 1:]

    monkeypatch.setattr(oracle, "_merge", dropping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert line in out.splitlines()


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_enumerate_sorted_is_the_merge_made_grid_points(p1, p2):
    # verify compares walk's i and j lists with the merge's; enumerate_sorted zips them into GridPoints.
    pair = validate_pair(p1, p2)
    elems = enumerate_sorted(pair, 500)
    assert elems == [(q, value(pair, q)) for q in islice(SortedStream(pair), 500)]
    assert all(type(q) is GridPoint and type(v) is int for q, v in elems)
    i, j, vals = oracle._merge(pair, 500)
    assert all(type(x) is int for x in i + j)
    ij = list(zip(i, j))
    assert all(type(q) is tuple for q in ij)
    assert (ij, vals) == ([tuple(q) for q, _ in elems], [v for _, v in elems])


def test_verify_fails_on_a_dropped_record(monkeypatch):
    real = sequences.minimal_fractional_subsequences

    def dropping(table, N):
        n_records, m_records = real(table, N)
        return n_records[:-1], m_records

    monkeypatch.setattr(sequences, "minimal_fractional_subsequences", dropping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert "FAIL record-subsequences: scan N=100" in out.splitlines()


def test_verify_fails_on_a_dropped_band(monkeypatch):
    real = tiling.rectangles_in_window

    def dropping(table, W, H, tilde=False):
        rects = real(table, W, H, tilde)
        return rects[:1] + rects[2:]

    monkeypatch.setattr(tiling, "rectangles_in_window", dropping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert "FAIL partition-source: 9 rectangles on 40x40" in out.splitlines()


def test_a_shared_table_never_shows_in_output():
    pair = ["--p1", "2", "--p2", "3"]
    # A deep query grows (2, 3)'s shared table; cf builds its own and prints rows 0-3 only.
    assert invoke(["next", *pair, "--i", "900000", "--j", "0"]) == (0, "(119761,492276)\n")
    assert cli._table(validate_pair(2, 3)).depth > 3
    code, out = invoke(["cf", *pair, "--depth", "3"])
    assert code == 0
    assert out.splitlines() == [
        "quotients 0 1 1 1", "index\tquotient\th\tk", "0\t0\t0\t1", "1\t1\t1\t1", "2\t1\t1\t2", "3\t1\t2\t3",
    ]
    # The first verify grows fresh tables, the second reads them grown; both print the same bytes.
    cli._table.cache_clear()
    for p1, p2 in PAIR_ARGS:
        argv = ["verify", "--p1", str(p1), "--p2", str(p2), "--window", "200x200", "--scan", "240", "--depth", "6"]
        first = invoke(argv)
        assert first[0] == 0
        assert invoke(argv) == first


def test_threads_sharing_the_tables_print_what_a_serial_run_prints():
    argvs = [["verify", "--p1", str(p1), "--p2", str(p2), "--window", "200x200", "--scan", "240", "--depth", "6"]
             for p1, p2 in PAIR_ARGS]
    cli._table.cache_clear()  # the threads race to grow cold tables
    start = threading.Barrier(4)

    def worker():
        start.wait(timeout=60)
        return [invoke(argv) for argv in argvs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, mid-growth too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker) for _ in range(4)]
            threaded = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    cli._table.cache_clear()
    serial = [invoke(argv) for argv in argvs]
    assert all(code == 0 for code, _ in serial)
    assert threaded == [serial] * 4


def test_parser_built_once_per_budget_default(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    build_parser.cache_clear()
    far = ["next", "--p1", "2", "--p2", "3", "--i", "500", "--j", "500"]
    assert invoke(far)[0] == 0
    assert invoke(far)[0] == 0
    assert build_parser.cache_info().misses == 1
    # each run reads the variable afresh: 50 bits refuse the query, unset allows it
    monkeypatch.setenv(BUDGET_ENV_VAR, "50")
    assert invoke(far)[0] == 2
    monkeypatch.delenv(BUDGET_ENV_VAR)
    assert invoke(far)[0] == 0
    assert build_parser.cache_info().misses == 2
    monkeypatch.setenv(BUDGET_ENV_VAR, "1e6")
    with pytest.raises(SystemExit) as exc:
        invoke(far)
    assert exc.value.code == 2


def test_env_var_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "50")
    # a 50-bit budget cannot even evaluate a modest power comparison
    code, _ = invoke(["next", "--p1", "2", "--p2", "3", "--i", "500", "--j", "500"])
    assert code == 2


def test_non_integer_env_var_budget_exits_2(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1e6")
    with pytest.raises(SystemExit) as exc:
        invoke(["next", "--p1", "2", "--p2", "3", "--i", "1", "--j", "1"])
    assert exc.value.code == 2


def test_bad_window_string():
    with pytest.raises(SystemExit) as exc:
        invoke(["verify", "--p1", "2", "--p2", "3", "--window", "banana"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--scan", "-4"), ("--scan", "0"), ("--depth", "0"), ("--depth", "-3")],
)
def test_verify_rejects_a_count_below_one(capsys, flag, value):
    code, out = invoke(VERIFY_ARGS + [flag, value])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {flag} must be positive, got {value}\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["cf", "--depth", "-3"], "--depth must be non-negative, got -3"),
        (["tile", "--width", "0", "--height", "3"], "--width must be positive, got 0"),
        (["tile", "--width", "3", "--height", "-1"], "--height must be positive, got -1"),
        (["gaps", "--levels", "-2"], "--levels must be positive, got -2"),
        (["gaps", "--levels", "0"], "--levels must be positive, got 0"),
        (["gaps", "--levels", "-1", "--family", "P"], "--levels must be non-negative, got -1"),
        (["enum", "--count", "0"], "--count must be positive, got 0"),
        (["enum", "--count", "-1"], "--count must be positive, got -1"),
        (["verify", "--window", "0x5"], "--window must be positive, got 0x5"),
        (["verify", "--window", "5x-1"], "--window must be positive, got 5x-1"),
    ],
)
def test_a_count_with_no_output_is_refused(capsys, argv, err):
    code, out = invoke(argv[:1] + ["--p1", "2", "--p2", "3"] + argv[1:])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv, lines",
    [(["cf", "--depth", "0"], 3), (["gaps", "--levels", "0", "--family", "P"], 2), (["gaps", "--levels", "1"], 2)],
)
def test_the_least_count_still_answers(argv, lines):
    code, out = invoke(argv[:1] + ["--p1", "2", "--p2", "3"] + argv[1:])
    assert code == 0
    assert len(out.splitlines()) == lines  # header (and the quotient line for cf) plus one record


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p1", "2", "--p2", "3", "--bogus"],
        ["verify", "--p2", "3"],
        ["nope"],
        ["-h"],
        ["verify", "-h"],
        ["verify", "--p1", "2", "--p2", "3", "--window", "3y3"],
        ["next", "--p1", "2", "--p2", "3", "--i", "18", "--j", "4"],
        [],
    ],
)
def test_subcommand_dispatch_matches_the_top_level_parse(argv, capsys, monkeypatch):
    # The console script's call: run() reads sys.argv.
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    monkeypatch.setattr(sys, "argv", ["lattice-succ"] + argv)

    def outcome():
        try:
            status = run()
        except SystemExit as exc:
            status = exc.code
        return (status, *capsys.readouterr())

    got = outcome()
    # The reference: with no subcommand to dispatch to, every argv goes through parse_args.
    monkeypatch.setattr(build_parser(str(cli.DEFAULT_BIT_BUDGET)), "commands", {})
    assert got == outcome()
    if "--bogus" in argv:
        assert got[0] == 2
        assert got[2].splitlines()[-1] == "lattice-succ: error: unrecognized arguments: --bogus"


def _benchmark_verify_argvs(seed: int) -> list[list[str]]:
    """The 1000 argvs of the benchmark's verify workload for a seed, by the same recipe."""
    rng = random.Random(seed)
    pairs = ((2, 3), (2, 5), (3, 5), (2, 12), (6, 10))
    argvs = []
    for n in range(1000):
        p1, p2 = pairs[n % len(pairs)]
        w, h = rng.randrange(120, 201), rng.randrange(120, 201)
        argvs.append(["verify", "--p1", str(p1), "--p2", str(p2), "--window", f"{w}x{h}",
                      "--scan", str(rng.randrange(120, 241)), "--depth", "6"])
    return argvs


def test_verify_output_over_the_benchmark_argvs_is_unchanged():
    # Digest of every exit status and text output at seed 1, recorded from the
    # dataclass-based records that the tuple and slots records replaced.
    digest = hashlib.sha256()
    for argv in _benchmark_verify_argvs(1):
        code, out = invoke(argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "aa07ba697d20d4c172cac60aa02164ee640afcb26d12a7e113aa356d8946a5d5"


def _cli_argvs() -> list[list[str]]:
    """Every subcommand on (2, 3) in each format, plus a digit-limit value and two refusals."""
    pair = ["--p1", "2", "--p2", "3"]
    argvs = []
    for fmt in cli.FORMATS:
        for argv in (
            ["cf", "--depth", "12"],
            ["next", "--i", "18", "--j", "4"],
            ["next", "--i", "3", "--j", "2", "--value"],
            ["prev", "--i", "0", "--j", "4", "--value"],
            ["prev", "--i", "0", "--j", "0"],
            ["next", "--i", "20000", "--j", "0", "--value"],
            ["enum", "--count", "30"],
            ["tile", "--width", "30", "--height", "30"],
            ["tile", "--width", "30", "--height", "30", "--tilde"],
            ["gaps", "--levels", "5", "--family", "A"],
            ["gaps", "--levels", "4", "--family", "P"],
            ["verify", "--window", "40x40", "--scan", "100", "--depth", "6"],
        ):
            argvs.append([*argv[:1], *pair, *argv[1:], "--format", fmt])
        argvs.append(["next", "--p1", "4", "--p2", "8", "--i", "1", "--j", "1", "--format", fmt])
    return argvs


def test_cli_output_over_every_subcommand_and_format_is_unchanged(capsys):
    # Digest of each argv's exit status, stdout and stderr, recorded before the
    # output records became rows in column order.
    digest = hashlib.sha256()
    for argv in _cli_argvs():
        code, out = invoke(argv)
        digest.update(f"{argv}\n{code}\n{out}\n{capsys.readouterr().err}".encode())
    assert digest.hexdigest() == "2fde39380567af98fd358fee2e30fa82ff9fb2cadfe903d1eff5ee94b972a6a1"
