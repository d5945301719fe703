/// Fence regions (ISPD2015 semantics): members stay inside their fence,
/// core cells stay outside. Exercises the region tagging in SegmentGrid,
/// the region-filtered queries, MLL/legalizer/greedy/rip-up behaviour and
/// the generator's fence mode.

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/greedy.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// 6 rows x 60 sites, fence region 1 over x [40, 60).
Database fenced_design() {
    Database db = empty_design(6, 60);
    db.floorplan().add_fence(1, Rect{40, 0, 20, 6});
    return db;
}

TEST(Fences, SegmentsSplitAndTagged) {
    Database db = fenced_design();
    const SegmentGrid grid = SegmentGrid::build(db);
    for (SiteCoord y = 0; y < 6; ++y) {
        const auto segs = grid.row_segments(y);
        ASSERT_EQ(segs.size(), 2u) << "row " << y;
        EXPECT_EQ(grid.segment(segs[0]).span, (Span{0, 40}));
        EXPECT_EQ(grid.segment(segs[0]).region, 0);
        EXPECT_EQ(grid.segment(segs[1]).span, (Span{40, 60}));
        EXPECT_EQ(grid.segment(segs[1]).region, 1);
    }
}

TEST(Fences, AdjacentSameRegionRectsMerge) {
    Database db = empty_design(2, 60);
    db.floorplan().add_fence(1, Rect{10, 0, 10, 2});
    db.floorplan().add_fence(1, Rect{20, 0, 10, 2});
    const SegmentGrid grid = SegmentGrid::build(db);
    const auto segs = grid.row_segments(0);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(grid.segment(segs[1]).span, (Span{10, 30}));
    EXPECT_EQ(grid.segment(segs[1]).region, 1);
}

TEST(Fences, OverlappingDifferentRegionsAssert) {
    Database db = empty_design(2, 60);
    db.floorplan().add_fence(1, Rect{10, 0, 10, 2});
    EXPECT_THROW(db.floorplan().add_fence(2, Rect{15, 0, 10, 2}),
                 AssertionError);
    EXPECT_THROW(db.floorplan().add_fence(0, Rect{30, 0, 5, 2}),
                 AssertionError);  // region 0 reserved for the core
}

TEST(Fences, BlockageWinsOverFence) {
    Database db = empty_design(1, 60);
    db.floorplan().add_fence(1, Rect{40, 0, 20, 1});
    db.floorplan().add_blockage(Rect{45, 0, 5, 1});
    const SegmentGrid grid = SegmentGrid::build(db);
    const auto segs = grid.row_segments(0);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(grid.segment(segs[1]).span, (Span{40, 45}));
    EXPECT_EQ(grid.segment(segs[1]).region, 1);
    EXPECT_EQ(grid.segment(segs[2]).span, (Span{50, 60}));
    EXPECT_EQ(grid.segment(segs[2]).region, 1);
}

TEST(Fences, PlaceRejectsWrongRegion) {
    Database db = fenced_design();
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId core = db.add_cell(Cell("core", 4, 1));
    const CellId member = db.add_cell(Cell("mem", 4, 1));
    db.cell(member).set_region(1);
    EXPECT_THROW(grid.place(db, core, 45, 0), AssertionError);    // in fence
    EXPECT_THROW(grid.place(db, member, 10, 0), AssertionError);  // outside
    grid.place(db, core, 10, 0);
    grid.place(db, member, 45, 0);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Fences, PlaceableRespectsRegion) {
    Database db = fenced_design();
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_TRUE(grid.placeable(db, Rect{45, 0, 4, 1}, CellId{}, 1));
    EXPECT_FALSE(grid.placeable(db, Rect{45, 0, 4, 1}, CellId{}, 0));
    EXPECT_TRUE(grid.placeable(db, Rect{45, 0, 4, 1}));  // kAnyRegion
    EXPECT_FALSE(grid.placeable(db, Rect{38, 0, 4, 1}, CellId{}, 0));
    // ^ straddles the fence boundary: contained in no single segment.
}

TEST(Fences, LegalityFlagsRegionViolations) {
    Database db = fenced_design();
    const SegmentGrid grid = SegmentGrid::build(db);
    const CellId core = db.add_cell(Cell("core", 4, 1));
    db.cell(core).set_pos(45, 0);  // bypass the grid: core cell in fence
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_GE(rep.num_out_of_rows, 1u);
}

TEST(Fences, MllKeepsTargetInItsRegion) {
    Database db = fenced_design();
    SegmentGrid grid = SegmentGrid::build(db);
    // Member cell prefers a spot deep in the core — MLL must pull it into
    // the fence anyway.
    const CellId member =
        add_unplaced(db, "mem", 10.0, 2.0, 4, 1);
    db.cell(member).set_region(1);
    const MllPlan r = mll_place(db, grid, member, 10.0, 2.0);
    ASSERT_TRUE(r.success());
    EXPECT_GE(r.x, 40);
    // And a core cell preferring the fence stays out.
    const CellId core = add_unplaced(db, "core", 50.0, 2.0, 4, 1);
    const MllPlan rc = mll_place(db, grid, core, 50.0, 2.0);
    ASSERT_TRUE(rc.success());
    EXPECT_LE(rc.x + 4, 40);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Fences, MllShiftsOnlySameRegionNeighbours) {
    Database db = fenced_design();
    SegmentGrid grid = SegmentGrid::build(db);
    // A core cell right at the fence boundary must be invisible to a
    // member insertion (regions never push across the wall).
    const CellId wall_neighbor = db.add_cell(Cell("cn", 4, 1));
    grid.place(db, wall_neighbor, 36, 2);
    const CellId m0 = db.add_cell(Cell("m0", 18, 1));
    db.cell(m0).set_region(1);
    grid.place(db, m0, 40, 2);  // fence row 2 nearly full: [40,58) of 20
    const CellId member = add_unplaced(db, "mem", 41.0, 2.0, 4, 1);
    db.cell(member).set_region(1);
    const MllPlan r = mll_place(db, grid, member, 41.0, 2.0);
    ASSERT_TRUE(r.success());
    EXPECT_NE(r.y, 2);  // row 2's fence part cannot host 4 more sites
    EXPECT_EQ(db.cell(wall_neighbor).x(), 36);  // untouched
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Fences, GreedyRespectsRegions) {
    Database db = fenced_design();
    SegmentGrid grid = SegmentGrid::build(db);
    Rng rng(83);
    for (int i = 0; i < 30; ++i) {
        const CellId c = add_unplaced(db, "c" + std::to_string(i),
                                      rng.uniform01() * 55.0,
                                      rng.uniform01() * 5.0, 3, 1);
        if (i % 3 == 0) {
            db.cell(c).set_region(1);
        }
    }
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_TRUE(s.success);
    for (const Cell& c : db.cells()) {
        if (c.region() == 1) {
            EXPECT_GE(c.x(), 40);
        } else {
            EXPECT_LE(c.x() + c.width(), 40);
        }
    }
}

TEST(Fences, FullLegalizationWithGeneratorFences) {
    GenProfile p;
    p.name = "fenced";
    p.num_single = 700;
    p.num_double = 70;
    p.density = 0.55;
    p.fence_cell_frac = 0.2;
    p.seed = 9;
    GenResult gen = generate_benchmark(p);
    ASSERT_TRUE(gen.packed_ok);
    ASSERT_EQ(gen.db.floorplan().fences().size(), 1u);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    const LegalizerStats stats = legalize_placement(gen.db, grid);
    EXPECT_TRUE(stats.success) << stats.unplaced;
    const LegalityReport rep = check_legality(gen.db, grid);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    // Every member inside the strip, every core cell outside.
    const Rect fence = gen.db.floorplan().fences()[0].rect;
    std::size_t members = 0;
    for (const Cell& c : gen.db.cells()) {
        if (c.region() == 1) {
            ++members;
            EXPECT_TRUE(fence.contains(c.rect())) << c.name();
        } else {
            EXPECT_FALSE(fence.overlaps(c.rect())) << c.name();
        }
    }
    EXPECT_GT(members, 100u);
}

}  // namespace
}  // namespace mrlg::test
