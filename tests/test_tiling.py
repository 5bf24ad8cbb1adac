import pytest

from lattice_succ import (
    ConvergentTable,
    GridPoint,
    enumerate_sorted,
    next_point,
    rectangles_in_window,
    value,
    verify_partition,
)
from lattice_succ.tiling import Rectangle, large_gap

from conftest import PAIR_ARGS, table_for


def covering(rects, x, y):
    return [r for r in rects if r.x_min <= x <= r.x_max and r.y_min <= y <= r.y_max]


class TestRectanglesInWindow:
    def test_3x1_source(self, table23):
        rects = rectangles_in_window(table23, 3, 1)
        by_key = {(r.family, r.level, r.band): r for r in rects}
        p00 = by_key[("P", 0, 0)]
        assert (p00.x_min, p00.x_max, p00.y_min, p00.y_max) == (0, 0, 0, 0)
        a10 = by_key[("A", 1, 0)]
        assert (a10.x_min, a10.x_max, a10.y_min, a10.y_max) == (1, 2, 0, 0)

    def test_1x1_source_single_cover(self, table23):
        rects = rectangles_in_window(table23, 1, 1)
        assert len(covering(rects, 0, 0)) == 1

    def test_1x1_tilde_origin_uncovered(self, table23):
        rects = rectangles_in_window(table23, 1, 1, tilde=True)
        assert covering(rects, 0, 0) == []

    def test_sorted_and_full_extents(self, table23):
        rects = rectangles_in_window(table23, 40, 40)
        keys = [(r.family, r.level, r.band) for r in rects]
        assert keys == sorted(keys)
        for r in rects:
            # extents are reported unclipped, with theorem dimensions
            if r.family == "A":
                assert (r.width, r.height) == (table23.k(2 * r.level), table23.h(2 * r.level))
            else:
                assert (r.width, r.height) == (
                    table23.k(2 * r.level + 1),
                    table23.h(2 * r.level + 1),
                )

    def test_rejects_empty_window(self, table23):
        with pytest.raises(ValueError):
            rectangles_in_window(table23, 0, 5)


def ref_rectangles(table, W, H, tilde):
    """The band walk written out through the table accessors, then sorted."""
    families = (("A~", "h", 1), ("P~", "k", 0)) if tilde else (("A", "k", 1), ("P", "h", 0))
    rects = []
    for family, seq, parity in families:
        coord = table.h if seq == "h" else table.k
        limit = W if seq == "k" else H
        table.extend_to(parity)
        n = parity
        while coord(n) < limit:
            table.extend_to(n + 2)
            for t in range(table.quotient(n + 2)):
                start = coord(n) + t * coord(n + 1)
                if start >= limit:
                    break
                if seq == "k":
                    extents = (start, start + table.k(n + 1) - 1, 0, table.h(n + 1) - 1)
                else:
                    extents = (0, table.k(n + 1) - 1, start, start + table.h(n + 1) - 1)
                rects.append(Rectangle(family, (n + 1) // 2, t, *extents))
            n += 2
    rects.sort(key=lambda r: (r.family, r.level, r.band))
    return rects


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
@pytest.mark.parametrize("tilde", [False, True])
def test_rectangles_match_reference_walk(p1, p2, tilde):
    pair = table_for(p1, p2).pair
    for W, H in [(1, 1), (3, 1), (1, 3), (7, 150), (150, 7), (40, 40), (333, 17), (200, 200)]:
        ref_table, new_table = ConvergentTable(pair), ConvergentTable(pair)
        assert rectangles_in_window(new_table, W, H, tilde) == ref_rectangles(ref_table, W, H, tilde)
        # the enumeration grows a fresh table exactly as far as the walk does
        assert new_table.depth == ref_table.depth


class TestVerifyPartition:
    @pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5), (3, 5)])
    @pytest.mark.parametrize("tilde", [False, True])
    def test_passes_200x200(self, p1, p2, tilde):
        report = verify_partition(table_for(p1, p2), 200, 200, tilde=tilde)
        assert report.ok, report.violations

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_asymmetric_windows(self, p1, p2):
        table = table_for(p1, p2)
        assert verify_partition(table, 150, 7).ok
        assert verify_partition(table, 7, 150, tilde=True).ok


class TestTranslationConsistency:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_source_plus_translation_is_tilde_partner(self, p1, p2):
        from lattice_succ import translation

        table = table_for(p1, p2)
        sources = rectangles_in_window(table, 60, 60)
        shifts = {
            (r.family, r.level, r.band): translation(table, r.family, r.level, r.band)
            for r in sources
        }
        # a tilde window just large enough to contain every translated partner
        W2 = max(r.x_max + shifts[(r.family, r.level, r.band)][0] for r in sources) + 1
        H2 = max(r.y_max + shifts[(r.family, r.level, r.band)][1] for r in sources) + 1
        tildes = {
            (r.family[0], r.level, r.band): r
            for r in rectangles_in_window(table, W2, H2, tilde=True)
        }
        for src in sources:
            dx, dy = shifts[(src.family, src.level, src.band)]
            partner = tildes[(src.family, src.level, src.band)]
            assert (src.x_min + dx, src.x_max + dx) == (partner.x_min, partner.x_max)
            assert (src.y_min + dy, src.y_max + dy) == (partner.y_min, partner.y_max)


class TestLargeGap:
    def test_level_1(self, table23):
        w = large_gap(table23, 1)
        assert w.point == GridPoint(2, 0)
        assert w.succ == GridPoint(1, 1)
        assert w.gap == 2

    def test_level_2(self, table23):
        w = large_gap(table23, 2)
        assert w.point == GridPoint(18, 4)
        assert value(table23.pair, w.point) == 21233664
        assert w.succ == GridPoint(7, 11)
        assert value(table23.pair, w.succ) == 22674816
        assert w.gap == 1441152

    @pytest.mark.parametrize("family,first_level", [("A", 1), ("P", 0)])
    def test_gap_at_least_one(self, table23, family, first_level):
        for level in range(first_level, first_level + 4):
            w = large_gap(table23, level, family=family)
            assert w.gap >= 1
            assert w.succ == next_point(table23, w.point)
            # the witness is the far corner of the level's last band
            last = [
                r
                for r in rectangles_in_window(table23, w.point.i + 1, w.point.j + 1)
                if (r.family, r.level) == (family, level)
            ][-1]
            assert (last.x_max, last.y_max) == w.point

    def test_bad_arguments(self, table23):
        with pytest.raises(ValueError):
            large_gap(table23, 0, family="A")
        with pytest.raises(ValueError):
            large_gap(table23, 1, family="B")

    def test_witness_is_adjacent_in_enumeration(self, table23):
        # oracle spot-check for a small level
        w = large_gap(table23, 1)
        elems = enumerate_sorted(table23.pair, 20)
        coords = [p for p, _ in elems]
        k = coords.index(w.point)
        assert coords[k + 1] == w.succ

    def test_gaps_unbounded(self, table23):
        gaps = [large_gap(table23, level).gap for level in range(1, 7)]
        for bound in (1, 10**2, 10**6):
            assert any(g > bound for g in gaps)
