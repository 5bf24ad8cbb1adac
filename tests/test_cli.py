import io
import json

import pytest

from lattice_succ import cli
from lattice_succ.cli import BUDGET_ENV_VAR, build_parser, run


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
    code, _ = invoke(
        [
            "tile", "--p1", "2", "--p2", "3", "--width", "5", "--height", "5",
            "--svg", str(tmp_path / "missing" / "tiles.svg"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    real = cli.walk

    def skipping(table, p, n):
        points = real(table, p, n + 1)
        return points[:40] + points[41:]

    monkeypatch.setattr(cli, "walk", skipping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert "FAIL oracle-agreement: 100 successor steps, 60 mismatches" in out.splitlines()


def test_verify_fails_on_a_dropped_record(monkeypatch):
    real = cli.minimal_fractional_subsequences

    def dropping(table, N):
        n_records, m_records = real(table, N)
        return n_records[:-1], m_records

    monkeypatch.setattr(cli, "minimal_fractional_subsequences", dropping)
    code, out = invoke(VERIFY_ARGS)
    assert code == 1
    assert "FAIL record-subsequences: scan N=100" in out.splitlines()


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
