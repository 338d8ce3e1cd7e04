"""Unit tests for the maximal-rectangles bottom-left packer."""

import pytest

from hpcbundle.packing import (
    FreeRect,
    PackingBin,
    Placement,
    ResourceRect,
    bounding_request,
    waste_fraction,
)

from reference import OracleBin, contains, overlaps


def place_all(bin_, rects):
    placements = []
    for cores, minutes in rects:
        p = bin_.insert(ResourceRect(cores, minutes))
        assert p is not None, f"{cores}x{minutes} unexpectedly did not fit"
        placements.append(p)
    return placements


class TestResourceRect:
    def test_area(self):
        assert ResourceRect(3, 40).area == 120

    @pytest.mark.parametrize("cores,minutes", [(0, 100), (100, 0), (-1, 5), (5, -1)])
    def test_rejects_degenerate_dimensions(self, cores, minutes):
        with pytest.raises(ValueError):
            ResourceRect(cores, minutes)


class TestNewBin:
    def test_initial_free_list_is_whole_bin(self):
        bin_ = PackingBin(6, 100)
        assert bin_.placements == []
        assert bin_.free_list == [FreeRect(0, 0, 6, 100)]

    def test_minimal_bin(self):
        assert PackingBin(1, 1).free_list == [FreeRect(0, 0, 1, 1)]

    @pytest.mark.parametrize("width,height", [(0, 100), (100, 0), (-2, 3)])
    def test_rejects_degenerate_dimensions(self, width, height):
        with pytest.raises(ValueError):
            PackingBin(width, height)


class TestInsert:
    def test_empty_bin_places_at_origin(self):
        p = PackingBin(6, 100).insert(ResourceRect(3, 40))
        assert (p.x, p.y) == (0, 0)

    def test_second_rect_prefers_lower_top_edge(self):
        # 3x30 beside the 3x40 tops out at 30; stacking would top at 70.
        bin_ = PackingBin(6, 100)
        _, second = place_all(bin_, [(3, 40), (3, 30)])
        assert (second.x, second.y) == (3, 0)

    def test_full_width_rect_goes_above_taller_column(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, [(3, 40), (3, 30)])
        third = bin_.insert(ResourceRect(6, 30))
        assert (third.x, third.y) == (0, 40)

    def test_nofit_returns_none_and_leaves_bin_unchanged(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, [(6, 90)])
        before_placements = list(bin_.placements)
        before_free = bin_.free_list
        assert bin_.insert(ResourceRect(6, 20)) is None
        assert bin_.placements == before_placements
        assert bin_.free_list == before_free

    def test_too_wide_for_bin(self):
        assert PackingBin(6, 100).insert(ResourceRect(7, 10)) is None

    def test_order_preserved_and_earlier_placements_fixed(self):
        bin_ = PackingBin(8, 60)
        rects = [(2, 10), (3, 20), (8, 5), (1, 30), (4, 10)]
        placements = place_all(bin_, rects)
        assert bin_.placements == placements
        snapshot = [(p.x, p.y, p.rect) for p in placements]
        bin_.insert(ResourceRect(2, 2))
        assert [(p.x, p.y, p.rect) for p in bin_.placements[:5]] == snapshot

    def test_identical_sequences_identical_placements(self):
        rects = [(3, 12), (5, 7), (2, 30), (6, 4), (1, 19)]
        a = PackingBin(8, 60)
        b = PackingBin(8, 60)
        assert place_all(a, rects) == place_all(b, rects)


class TestFigureScenario:
    """Five-job worked example: A=3x40, B=3x30, C=6x30, D=2x20, E=3x25."""

    RECTS = [(3, 40), (3, 30), (6, 30), (2, 20), (3, 25)]
    EXPECTED = [(0, 0), (3, 0), (0, 40), (0, 70), (2, 70)]

    def test_placements(self):
        bin_ = PackingBin(6, 100)
        placements = place_all(bin_, self.RECTS)
        assert [(p.x, p.y) for p in placements] == self.EXPECTED

    def test_placements_match_oracle(self):
        oracle = OracleBin(6, 100)
        assert [oracle.insert(c, m) for c, m in self.RECTS] == self.EXPECTED

    def test_bounding_request(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, self.RECTS)
        assert bin_.bounding() == (6, 95)

    def test_waste_fraction_from_area_arithmetic(self):
        # Sum of areas: 3*40 + 3*30 + 6*30 + 2*20 + 3*25 = 505 over 6*95.
        bin_ = PackingBin(6, 100)
        place_all(bin_, self.RECTS)
        assert bin_.waste_fraction() == pytest.approx(1 - 505 / 570, abs=1e-9)


class TestBounding:
    def test_single_rect(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, [(3, 40)])
        assert bin_.bounding() == (3, 40)

    def test_interior_gap_counts(self):
        placements = [
            Placement(0, 0, ResourceRect(2, 10)),
            Placement(4, 0, ResourceRect(2, 10)),
        ]
        assert bounding_request(placements) == (6, 10)
        assert waste_fraction(placements) == pytest.approx(1 / 3)

    def test_empty_bin_is_an_error(self):
        with pytest.raises(ValueError):
            PackingBin(6, 100).bounding()
        with pytest.raises(ValueError):
            PackingBin(6, 100).waste_fraction()

    def test_zero_waste_when_bundle_equals_bounding_box(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, [(3, 40)])
        assert bin_.waste_fraction() == 0.0


class TestFreeList:
    def test_split_after_center_insert(self):
        bin_ = PackingBin(6, 100)
        bin_.insert(ResourceRect(2, 30))
        for fr in bin_.free_list:
            assert not any(overlaps(p, fr) for p in bin_.placements)
        # Both maximal residuals must be present: right band and top band.
        assert FreeRect(2, 0, 4, 100) in bin_.free_list
        assert FreeRect(0, 30, 6, 70) in bin_.free_list

    def test_no_contained_free_rects(self):
        bin_ = PackingBin(8, 60)
        for rect in [(3, 12), (5, 7), (2, 30), (6, 4), (1, 19), (4, 10)]:
            bin_.insert(ResourceRect(*rect))
            free = bin_.free_list
            for i, a in enumerate(free):
                for j, b in enumerate(free):
                    if i != j:
                        assert not contains(a, b)


class TestRender:
    def test_render_shows_labels_bottom_up(self):
        bin_ = PackingBin(6, 100)
        place_all(bin_, [(3, 40), (3, 30)])
        grid = bin_.render(row_minutes=10, labels="AB")
        lines = grid.splitlines()
        assert lines[-1].endswith("+" + "-" * 6 + "+")
        assert "|AAABBB|" in lines[-2]  # bottom row: A beside B
        assert "|AAA...|" in lines[0]  # minute 30: only A left

    def test_render_rejects_bad_row_height(self):
        with pytest.raises(ValueError):
            PackingBin(6, 100).render(row_minutes=0, labels="")
