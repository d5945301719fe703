/// Non-rectangular dies: rows with different x origins and widths (the
/// .scl SubrowOrigin case). Everything downstream — segments, windows,
/// min/max packing, MLL, the full legalizer — must respect per-row
/// extents, not just a global die box.

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// A "staircase" die: row y spans [2*y, 2*y + 40).
Database staircase_design(SiteCoord rows) {
    Floorplan fp;
    for (SiteCoord y = 0; y < rows; ++y) {
        fp.add_row(Row{y, static_cast<SiteCoord>(2 * y), 40});
    }
    return Database{std::move(fp)};
}

TEST(RowOrigins, SegmentsFollowRowExtents) {
    Database db = staircase_design(4);
    const SegmentGrid grid = SegmentGrid::build(db);
    for (SiteCoord y = 0; y < 4; ++y) {
        const auto segs = grid.row_segments(y);
        ASSERT_EQ(segs.size(), 1u);
        EXPECT_EQ(grid.segment(segs[0]).span,
                  (Span{static_cast<SiteCoord>(2 * y),
                        static_cast<SiteCoord>(2 * y + 40)}));
    }
    EXPECT_EQ(db.floorplan().die(), (Rect{0, 0, 46, 4}));
    EXPECT_EQ(db.floorplan().free_site_area(), 160);
}

TEST(RowOrigins, PlacementRespectsRowStart) {
    Database db = staircase_design(4);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = db.add_cell(Cell("c", 4, 1));
    // Row 3 starts at x=6; placing at x=4 must fail.
    EXPECT_THROW(grid.place(db, c, 4, 3), AssertionError);
    EXPECT_FALSE(db.cell(c).placed());
    grid.place(db, c, 6, 3);
    EXPECT_TRUE(check_legality(db, grid, {.require_all_placed = false})
                    .legal);
}

TEST(RowOrigins, MultiRowCellNeedsAllRowsToCover) {
    Database db = staircase_design(4);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId m = db.add_cell(Cell("m", 4, 2, RailPhase::kEven));
    // x=1 is inside row 0 ([0,40)) but outside row 1 ([2,42)).
    EXPECT_THROW(grid.place(db, m, 1, 0), AssertionError);
    grid.place(db, m, 2, 0);  // inside both
    EXPECT_TRUE(db.cell(m).placed());
}

TEST(RowOrigins, MllPlacesWithinStaircase) {
    Database db = staircase_design(8);
    SegmentGrid grid = SegmentGrid::build(db);
    // Preferred position left of row 5's origin: MLL must clamp into the
    // covered region.
    const CellId t = add_unplaced(db, "t", 1.0, 5.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 1.0, 5.0);
    ASSERT_TRUE(r.success());
    const Cell& cell = db.cell(t);
    const Row& row = db.floorplan().row(cell.y());
    EXPECT_GE(cell.x(), row.x);
    EXPECT_LE(cell.x() + cell.width(), row.x + row.num_sites);
    EXPECT_TRUE(check_legality(db, grid, {.require_all_placed = false})
                    .legal);
}

TEST(RowOrigins, NearestAlignedClampsPerRow) {
    Database db = staircase_design(8);
    const CellId c = db.add_cell(Cell("c", 4, 2, RailPhase::kEven));
    const Point p = nearest_aligned_position(db, c, 0.0, 6.0, true);
    // Base row 6 starts at 12; the footprint also covers row 7 (origin
    // 14), so x must be >= 14.
    EXPECT_EQ(p.y, 6);
    EXPECT_GE(p.x, 14);
}

TEST(RowOrigins, FullLegalizationOnStaircase) {
    Database db = staircase_design(10);
    Rng rng(71);
    for (int i = 0; i < 80; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 5));
        const bool dbl = i % 8 == 0;
        const CellId id = db.add_cell(
            Cell("c" + std::to_string(i), w, dbl ? 2 : 1));
        db.cell(id).set_gp(rng.uniform01() * 50.0, rng.uniform01() * 8.0);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats stats = legalize_placement(db, grid);
    EXPECT_TRUE(stats.success) << stats.unplaced;
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    // Every placed cell sits within each row it crosses.
    for (const Cell& c : db.cells()) {
        for (SiteCoord y = c.y(); y < c.y() + c.height(); ++y) {
            const Row& row = db.floorplan().row(y);
            EXPECT_GE(c.x(), row.x);
            EXPECT_LE(c.x() + c.width(), row.x + row.num_sites);
        }
    }
}

}  // namespace
}  // namespace mrlg::test
