"""The query path imports only what a query runs; the package re-exports are lazy.

`import lattice_succ` loads no submodule. A `next_point`/`prev_point` query, or
`lattice-succ next`, loads `core_arith`, `cf_engine` and `successor` but not the
verifiers (`tiling`, `sequences`, `oracle`) nor `dataclasses`, `inspect` or
`heapq`. The checks run in a fresh interpreter started with -S, so that only
the library's own imports are counted, not those of site hooks.
"""

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
        "GeneratorPair", "InvalidArgument", "LatticeError", "NonIntegerArgument", "OrderViolation",
        "RationalLogRatio", "compare_affine", "compare_fraction", "f", "g", "validate_pair",
    ],
    "oracle": ["SortedStream", "enumerate_sorted", "naive_next"],
    "sequences": [
        "minimal_fractional_subsequences", "predicted_record_indices",
        "verify_fg_at_convergents", "verify_monotone_fractional_chains",
    ],
    "successor": [
        "GridPoint", "NoPredecessor", "next_point", "prev_point", "value", "walk",
    ],
    "tiling": [
        "GapWitness", "PartitionReport", "Rectangle", "large_gap", "locate", "locate_tilde",
        "rectangles_in_window", "verify_partition",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTED.values() for name in names)


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
