"""The benchmark tracer looks library names up by name; this keeps them there.

`perfbench/tracing.py` wraps the ConvergentTable accessors and extenders it
finds in `vars(ConvergentTable)` and every public function of each module. A
rename or deletion there breaks `perfbench/run.py --trace 1`, which only the
benchmark runs. The tracer is loaded from its file and used unchanged.
"""

import importlib.util
import io
from pathlib import Path

import lattice_succ
from lattice_succ import ConvergentTable, GridPoint, cli, next_point, prev_point

from conftest import pair_for

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TABLE_NAMES = ("depth", "h", "k", "quotient", "extend_to", "extend_until", "_append_row")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_restores():
    tracing = _load_tracing()
    table_before = {name: vars(ConvergentTable).get(name) for name in TABLE_NAMES}
    functions_before = (lattice_succ.next_point, cli.next_point, cli.run)
    pair = pair_for(2, 3)
    want = next_point(ConvergentTable(pair), GridPoint(18, 4)), prev_point(ConvergentTable(pair), GridPoint(7, 11))

    tracer = tracing.Tracer(100_000)
    tracer.install(lattice_succ)
    try:
        assert vars(ConvergentTable)["extend_until"] is not table_before["extend_until"]
        table = ConvergentTable(pair)
        # through the package attributes, which install() re-points at the wrappers
        got = lattice_succ.next_point(table, GridPoint(18, 4)), lattice_succ.prev_point(table, GridPoint(7, 11))
        status = cli.run(["verify", "--p1", "2", "--p2", "3", "--window", "20x20", "--scan", "30", "--depth", "4"],
                         out=io.StringIO())
    finally:
        tracer.uninstall()

    assert got == want == (GridPoint(7, 11), GridPoint(18, 4))
    assert status == 0
    calls, _ = tracer.self_times()
    assert calls["successor.next_point"] >= 1 and calls["successor.prev_point"] >= 1
    assert calls["cf_engine.extend"] >= 1 and calls["cli.run"] == 1
    assert {name: vars(ConvergentTable)[name] for name in TABLE_NAMES} == table_before
    assert (lattice_succ.next_point, cli.next_point, cli.run) == functions_before
