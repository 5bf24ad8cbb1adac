"""Semantics of the library's record types.

GeneratorPair and VerifyReport are __slots__ classes; AffineForm, Rectangle,
GapWitness and PartitionReport are NamedTuples, so they compare equal to plain
tuples and are copied with `_replace`.
"""

import copy
import math
import pickle

import pytest

from lattice_succ import (
    DEFAULT_BIT_BUDGET,
    AffineForm,
    GapWitness,
    GeneratorPair,
    GridPoint,
    PartitionReport,
    Rectangle,
    large_gap,
    locate,
    locate_tilde,
    rectangles_in_window,
    validate_pair,
    verify_fg_at_convergents,
    verify_partition,
)
from lattice_succ.sequences import VerifyReport, check_strictly_decreasing


class TestGeneratorPair:
    def test_fields_and_repr(self):
        pair = validate_pair(2, 3)
        assert (pair.p1, pair.p2, pair.bit_budget) == (2, 3, DEFAULT_BIT_BUDGET)
        assert repr(pair) == f"GeneratorPair(p1=2, p2=3, bit_budget={DEFAULT_BIT_BUDGET})"
        assert repr(GeneratorPair(2, 5, 64)) == "GeneratorPair(p1=2, p2=5, bit_budget=64)"

    @pytest.mark.parametrize("name", ["p1", "p2", "bit_budget", "_log2", "extra"])
    def test_frozen(self, name):
        pair = GeneratorPair(2, 3)
        with pytest.raises(AttributeError):
            setattr(pair, name, 5)
        with pytest.raises(AttributeError):
            delattr(pair, name)
        assert (pair.p1, pair.p2, pair.bit_budget) == (2, 3, DEFAULT_BIT_BUDGET)

    def test_equal_and_hashed_on_the_three_fields(self):
        pair = GeneratorPair(2, 3)
        assert pair == validate_pair(2, 3) and hash(pair) == hash(validate_pair(2, 3))
        assert hash(pair) == hash((2, 3, DEFAULT_BIT_BUDGET))
        assert pair != GeneratorPair(2, 3, 64)
        assert pair != GeneratorPair(2, 5)
        assert pair != (2, 3, DEFAULT_BIT_BUDGET)  # unlike the NamedTuple records
        assert len({pair, GeneratorPair(2, 3), GeneratorPair(2, 3, 64)}) == 2

    def test_log2_is_computed_once_and_ignored_by_equality(self):
        pair = GeneratorPair(2, 3)
        assert pair._log2 == (math.log2(2), math.log2(3))
        assert pair._log2 is pair._log2
        other = GeneratorPair(2, 3)
        object.__setattr__(other, "_log2", (0.0, 0.0))  # as if the logs differed
        assert other == pair and hash(other) == hash(pair)

    def test_pickle_and_copy_round_trip(self):
        pair = GeneratorPair(3, 5, 777)
        for clone in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
            assert clone == pair and clone._log2 == pair._log2

    def test_match_positional(self):
        match GeneratorPair(2, 3, 64):
            case GeneratorPair(p1, p2, budget):
                assert (p1, p2, budget) == (2, 3, 64)


class TestVerifyReport:
    def test_reports_never_share_a_failures_list(self):
        a, b = VerifyReport(ok=True, checked=0), VerifyReport(ok=True, checked=0)
        assert a.failures == [] and a.failures is not b.failures
        a.failures.append("x")
        assert b.failures == []

    def test_verifiers_return_fresh_lists(self, pair23, table23):
        one = verify_fg_at_convergents(table23, 0)
        two = verify_fg_at_convergents(table23, 0)
        assert one.failures is not two.failures
        three = check_strictly_decreasing(pair23, [])
        assert three.failures is not one.failures

    def test_mutable_fields_equality_and_repr(self):
        report = VerifyReport(True, 0)
        report.ok, report.checked = False, 2
        report.failures.append("link 0")
        assert report == VerifyReport(False, 2, ["link 0"])
        assert report != VerifyReport(False, 2)
        assert repr(report) == "VerifyReport(ok=False, checked=2, failures=['link 0'])"
        with pytest.raises(AttributeError):
            report.extra = 1
        with pytest.raises(TypeError):
            hash(report)


class TestTupleRecords:
    def test_rectangle_width_and_height(self, table23):
        r = Rectangle("A", 1, 0, 2, 4, 0, 1)
        assert (r.width, r.height) == (3, 2)
        for r in rectangles_in_window(table23, 40, 40) + rectangles_in_window(table23, 40, 40, tilde=True):
            assert type(r) is Rectangle
            assert r.width == r.x_max - r.x_min + 1 >= 1
            assert r.height == r.y_max - r.y_min + 1 >= 1

    def test_rectangles_are_tuples(self, table23):
        r = rectangles_in_window(table23, 10, 10)[0]
        assert r == tuple(r) and r == Rectangle(*r)
        assert r._replace(x_max=r.x_max + 1).width == r.width + 1
        with pytest.raises(AttributeError):
            r.x_max = 0

    def test_located_rectangles_are_tiling_records(self, table23):
        src, tld = locate(table23, GridPoint(0, 4)), locate_tilde(table23, GridPoint(0, 4))
        assert type(src) is Rectangle and type(tld) is Rectangle
        assert src in rectangles_in_window(table23, 1, 5)
        assert tld in rectangles_in_window(table23, 1, 5, tilde=True)
        assert tld.family.endswith("~") and src != tld

    def test_other_records_compare_equal_to_tuples(self, table23):
        assert AffineForm(1, 2) == (1, 2) and AffineForm(coeff=1, const=2).const == 2
        assert repr(AffineForm(1, 2)) == "AffineForm(coeff=1, const=2)"
        w = large_gap(table23, 1)
        assert type(w) is GapWitness and w == (w.level, w.family, w.point, w.succ, w.gap)
        report = verify_partition(table23, 20, 20)
        assert type(report) is PartitionReport
        assert report == (True, 20, 20, False, report.rectangle_count, [])
