"""Exact successor/predecessor queries in two-generator multiplicatively closed sets."""

from .cf_engine import ConvergentTable, IndexBeyondTable
from .core_arith import (
    DEFAULT_BIT_BUDGET,
    EQUAL,
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    GeneratorPair,
    LatticeError,
    NonIntegerArgument,
    OrderViolation,
    RationalLogRatio,
    compare_affine,
    compare_fraction,
    f,
    g,
    validate_pair,
)
from .oracle import SortedStream, enumerate_sorted, naive_next
from .sequences import (
    minimal_fractional_subsequences,
    predicted_record_indices,
    verify_fg_at_convergents,
    verify_monotone_fractional_chains,
)
from .successor import (
    GridPoint,
    NoPredecessor,
    RectangleId,
    locate,
    locate_tilde,
    next_point,
    prev_point,
    rectangle_point,
    translation,
    value,
    walk,
)
from .tiling import GapWitness, PartitionReport, Rectangle, large_gap, rectangles_in_window, verify_partition

__version__ = "0.1.0"
