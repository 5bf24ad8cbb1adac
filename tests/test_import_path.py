"""The query path imports only what a query runs; the package re-exports are lazy.

`import lattice_succ` loads no submodule. A `next_point`/`prev_point` query, or
`lattice-succ next`, loads `core_arith`, `cf_engine` and `successor` but not the
verifiers (`tiling`, `sequences`, `oracle`) nor `dataclasses`, `inspect` or
`heapq`. The oracle is the converse: it rests on `core_arith` alone, so checking
the engine against it loads neither `cf_engine` nor `successor`, and
`GridPoint`, `value` and `f` load only `core_arith`; so `f` is independent of the
convergent table that `verify_fg_at_convergents` checks against it. The checks run in a fresh
interpreter started with -S, so that only the library's own imports are
counted, not those of site hooks. GridPoints pickled when `successor` defined
the type still load.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_succ

SRC = str(Path(lattice_succ.__file__).resolve().parents[1])
VERIFIERS = ("lattice_succ.tiling", "lattice_succ.sequences", "lattice_succ.oracle")
OFF_THE_QUERY_PATH = ("dataclasses", "inspect", "heapq") + VERIFIERS

# Every name the package exports, by the submodule that defines it.
EXPORTED = {
    "cf_engine": ["ConvergentTable", "IndexBeyondTable"],
    "core_arith": [
        "DEFAULT_BIT_BUDGET", "EQUAL", "GREATER", "LESS", "AffineForm", "BudgetExceeded",
        "GeneratorPair", "GridPoint", "InvalidArgument", "LatticeError", "NonIntegerArgument",
        "OrderViolation", "RationalLogRatio", "compare_affine", "compare_fraction", "f", "g",
        "validate_pair", "value",
    ],
    "oracle": ["SortedStream", "enumerate_sorted", "naive_next"],
    "sequences": [
        "minimal_fractional_subsequences", "predicted_record_indices",
        "verify_fg_at_convergents", "verify_monotone_fractional_chains",
    ],
    "successor": ["NoPredecessor", "next_point", "prev_point", "walk"],
    "tiling": [
        "GapWitness", "PartitionReport", "Rectangle", "large_gap", "locate", "locate_tilde",
        "rectangles_in_window", "verify_partition",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)
SUBMODULES = ("lattice_succ",) + tuple(f"lattice_succ.{m}" for m in (*EXPORTED, "cli", "svg"))


def _loaded_after(code: str, watched) -> list[str]:
    """Which of `watched` a fresh interpreter has in sys.modules after running `code`."""
    script = f"import sys\n{code}\nprint(' '.join(m for m in {tuple(watched)!r} if m in sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=60, cwd=SRC, check=True,
    )
    return done.stdout.split()


def test_import_loads_no_submodule():
    loaded = _loaded_after("import lattice_succ", ("lattice_succ",) + tuple(f"lattice_succ.{m}" for m in EXPORTED))
    assert loaded == ["lattice_succ"]


def test_queries_load_only_the_query_path():
    code = (
        "import lattice_succ as ls\n"
        "table = ls.ConvergentTable(ls.validate_pair(2, 3))\n"
        "assert ls.next_point(table, ls.GridPoint(18, 4)) == (7, 11)\n"
        "assert ls.prev_point(table, ls.GridPoint(7, 11)) == (18, 4)\n"
    )
    assert _loaded_after(code, OFF_THE_QUERY_PATH) == []


def test_cli_next_loads_no_verifier():
    code = (
        "import io\n"
        "from lattice_succ import cli\n"
        "out = io.StringIO()\n"
        "assert cli.run(['next', '--p1', '2', '--p2', '3', '--i', '18', '--j', '4', '--value'], out=out) == 0\n"
        "assert out.getvalue() == '(7,11) 22674816\\n'\n"
    )
    assert _loaded_after(code, VERIFIERS + ("dataclasses",)) == []


def test_oracle_loads_neither_the_engine_nor_the_queries():
    code = (
        "from itertools import islice\n"
        "import lattice_succ.oracle as oracle\n"
        "from lattice_succ.core_arith import validate_pair\n"
        "pair = validate_pair(2, 3)\n"
        "elems = oracle.enumerate_sorted(pair, 50)\n"
        "assert list(islice(oracle.SortedStream(pair), 50)) == [p for p, _ in elems]\n"
        "assert oracle.naive_next(pair, (18, 4)) == (7, 11)\n"
        "assert oracle.naive_next(pair, elems[20][0]) == elems[21][0]\n"
    )
    assert _loaded_after(code, SUBMODULES) == ["lattice_succ", "lattice_succ.core_arith", "lattice_succ.oracle"]


def test_grid_point_and_value_load_only_core_arith():
    code = (
        "from lattice_succ import GridPoint, value, validate_pair\n"
        "assert value(validate_pair(2, 3), GridPoint(18, 4)) == 21233664\n"
        "assert GridPoint.__module__ == 'lattice_succ.core_arith'\n"
    )
    assert _loaded_after(code, SUBMODULES) == ["lattice_succ", "lattice_succ.core_arith"]


def test_f_loads_only_core_arith():
    # 10**60 takes f's decimal-log guess, the path that could read the table instead.
    code = (
        "from lattice_succ.core_arith import f, validate_pair\n"
        "assert f(validate_pair(2, 3), 10**60) == 1584962500721156181453738943947816508759814407692481060455753\n"
    )
    assert _loaded_after(code, SUBMODULES) == ["lattice_succ", "lattice_succ.core_arith"]


# pickle.dumps(GridPoint(18, 4), protocol) for protocols 0 to 5, made when the
# type was defined in lattice_succ.successor; the bytes name that module.
PICKLED_UNDER_SUCCESSOR = [
    b"clattice_succ.successor\nGridPoint\np0\n(I18\nI4\ntp1\nRp2\n.",
    b"clattice_succ.successor\nGridPoint\nq\x00(K\x12K\x04tq\x01Rq\x02.",
    b"\x80\x02clattice_succ.successor\nGridPoint\nq\x00K\x12K\x04\x86q\x01Rq\x02.",
    b"\x80\x03clattice_succ.successor\nGridPoint\nq\x00K\x12K\x04\x86q\x01Rq\x02.",
    b"\x80\x04\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x16lattice_succ.successor\x94\x8c\tGridPoint"
    b"\x94\x93\x94K\x12K\x04\x86\x94R\x94.",
    b"\x80\x05\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x16lattice_succ.successor\x94\x8c\tGridPoint"
    b"\x94\x93\x94K\x12K\x04\x86\x94R\x94.",
]


@pytest.mark.parametrize("data", PICKLED_UNDER_SUCCESSOR, ids=[f"protocol{n}" for n in range(6)])
def test_grid_point_pickled_under_successor_still_loads(data):
    point = pickle.loads(data)
    assert type(point) is lattice_succ.GridPoint and point == lattice_succ.GridPoint(18, 4)
    assert lattice_succ.successor.GridPoint is lattice_succ.core_arith.GridPoint
    assert pickle.loads(pickle.dumps(point)) == point


def test_cli_verify_loads_the_verifiers():
    # the converse, so the checks above cannot pass by watching the wrong names
    code = (
        "import io\n"
        "from lattice_succ import cli\n"
        "argv = ['verify', '--p1', '2', '--p2', '3', '--window', '20x20', '--scan', '30']\n"
        "assert cli.run(argv, out=io.StringIO()) == 0\n"
    )
    assert _loaded_after(code, VERIFIERS) == list(VERIFIERS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_exported_name_resolves_to_its_module(name):
    home = next(module for module, names in EXPORTED.items() if name in names)
    module = getattr(lattice_succ, home)
    assert getattr(lattice_succ, name) is getattr(module, name)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from lattice_succ import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES
    assert namespace["next_point"] is lattice_succ.successor.next_point


def test_dir_lists_every_exported_name():
    listed = dir(lattice_succ)
    assert set(ALL_NAMES) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lattice_succ.no_such_name
    assert not hasattr(lattice_succ, "dataclass")
    with pytest.raises(ImportError):
        exec("from lattice_succ import no_such_name", {})
