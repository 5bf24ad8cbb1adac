"""Exact successor/predecessor queries in two-generator multiplicatively closed sets.

The names below are re-exported lazily (PEP 562): `import lattice_succ` loads
no submodule, and a name's submodule is imported the first time the name is
used. A query therefore loads only `core_arith`, `cf_engine` and `successor`,
not the verifiers in `tiling`, `sequences` and `oracle`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cf_engine": ("ConvergentTable", "IndexBeyondTable"),
    "core_arith": (
        "DEFAULT_BIT_BUDGET", "EQUAL", "GREATER", "LESS", "AffineForm", "BudgetExceeded",
        "GeneratorPair", "LatticeError", "NonIntegerArgument", "OrderViolation",
        "RationalLogRatio", "compare_affine", "compare_fraction", "f", "g", "validate_pair",
    ),
    "oracle": ("SortedStream", "enumerate_sorted", "naive_next"),
    "sequences": (
        "minimal_fractional_subsequences", "predicted_record_indices",
        "verify_fg_at_convergents", "verify_monotone_fractional_chains",
    ),
    "successor": (
        "GridPoint", "NoPredecessor", "next_point", "prev_point", "value", "walk",
    ),
    "tiling": (
        "GapWitness", "PartitionReport", "Rectangle", "large_gap", "locate", "locate_tilde",
        "rectangles_in_window", "verify_partition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(_import_module(f"{__name__}.{home}"), name)
        globals()[name] = value  # later lookups are plain module attributes
        return value
    if name in _EXPORTS:  # `lattice_succ.tiling` without an import statement, as before
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
