#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/mll.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TEST(Mll, PlacesIntoEmptyRegionAtPreferredSpot) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_unplaced(db, "t", 40.0, 5.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.x, 40);
    EXPECT_EQ(r.y, 5);
    EXPECT_TRUE(db.cell(t).placed());
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_NEAR(r.real_cost_um, 0.0, 1e-9);
}

TEST(Mll, ShiftsNeighboursMinimally) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Row 5 is packed around x=40; target forces a small shuffle.
    const CellId a = add_placed(db, grid, "a", 36, 5, 4, 1);
    const CellId b = add_placed(db, grid, "b", 40, 5, 4, 1);
    const CellId c = add_placed(db, grid, "c", 44, 5, 4, 1);
    const CellId t = add_unplaced(db, "t", 40.0, 5.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y, 5);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(grid.audit(db).empty());
    // All four cells now distinct and ordered on row 5.
    static_cast<void>(a);
    static_cast<void>(b);
    static_cast<void>(c);
}

TEST(Mll, RespectsRailParityForDoubleHeightTarget) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t =
        add_unplaced(db, "t", 40.0, 5.0, 4, 2, RailPhase::kEven);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y % 2, 0);  // even parity
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Mll, RelaxedRailAllowsAnyRow) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t =
        add_unplaced(db, "t", 40.0, 5.0, 4, 2, RailPhase::kEven);
    MllOptions opts;
    opts.check_rail = false;
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0, opts);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y, 5);  // odd row allowed when relaxed
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
}

TEST(Mll, FailsWhenRegionFull) {
    Database db = empty_design(1, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 10, 1);
    add_placed(db, grid, "b", 10, 0, 10, 1);
    const CellId t = add_unplaced(db, "t", 5.0, 0.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 5.0, 0.0);
    EXPECT_FALSE(r.success());
    EXPECT_EQ(r.status, MllStatus::kNoInsertionPoint);
    // Abort semantics: nothing changed.
    EXPECT_FALSE(db.cell(t).placed());
    EXPECT_EQ(db.cell(db.find_cell("a")).x(), 0);
    EXPECT_EQ(db.cell(db.find_cell("b")).x(), 10);
}

TEST(Mll, MipFailureCountsLikeTheLegalizer) {
    // FailsWhenRegionFull's design solved by the MIP: mll_place must count
    // the failed attempt exactly as the legalizer's commit does.
    Database db = empty_design(1, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 10, 1);
    add_placed(db, grid, "b", 10, 0, 10, 1);
    const CellId t = add_unplaced(db, "t", 5.0, 0.0, 4, 1);
    MllOptions opts;
    opts.use_mip = true;
    obs::Tracer tracer;
    obs::ScopedTracer install(tracer);
    const MllPlan r = mll_place(db, grid, t, 5.0, 0.0, opts);
    EXPECT_EQ(r.status, MllStatus::kNoInsertionPoint);
    EXPECT_EQ(tracer.counter("mll.attempts"), 1u);
    EXPECT_EQ(tracer.counter("mll.no_insertion_point"), 1u);
    EXPECT_FALSE(db.cell(t).placed());
}

TEST(Mll, FailsOffDie) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_unplaced(db, "t", 10.0, 100.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 10.0, 100.0);
    EXPECT_FALSE(r.success());
    EXPECT_EQ(r.status, MllStatus::kNoRegion);
}

TEST(Mll, PlacedTargetAsserts) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_placed(db, grid, "t", 10, 0, 4, 1);
    EXPECT_THROW(mll_place(db, grid, t, 10.0, 0.0), AssertionError);
}

TEST(Mll, StaleCommitAsserts) {
    // One row, packed around the preferred spot: the plan must shift cells.
    Database db = empty_design(1, 24);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 4, 0, 4, 1);
    add_placed(db, grid, "b", 8, 0, 4, 1);
    add_placed(db, grid, "c", 12, 0, 4, 1);
    const CellId t = add_unplaced(db, "t", 8.0, 0.0, 4, 1);
    const MllPlan plan = mll_plan(db, grid, t, 8.0, 0.0);
    ASSERT_TRUE(plan.success());
    ASSERT_FALSE(plan.moves.empty());
    // Move one of the shifted cells after planning: the plan is stale, and
    // committing it is a caller bug, not a status.
    const CellId moved = plan.moves.front().id;
    const SiteCoord away = db.cell(moved).x() < 8 ? 0 : 20;
    grid.remove(db, moved);
    grid.place(db, moved, away, 0);
    EXPECT_THROW(mll_commit(db, grid, t, plan), AssertionError);
}

TEST(Mll, CommitIntoTakenSlotAsserts) {
    Database db = empty_design(1, 24);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_unplaced(db, "t", 8.0, 0.0, 4, 1);
    const MllPlan plan = mll_plan(db, grid, t, 8.0, 0.0);
    ASSERT_TRUE(plan.success());
    ASSERT_TRUE(plan.moves.empty());
    add_placed(db, grid, "late", plan.x, plan.y, 4, 1);
    EXPECT_THROW(mll_commit(db, grid, t, plan), AssertionError);
}

TEST(Mll, PlanIdenticalWithAndWithoutScratch) {
    // One reused MllScratch carries buffers from every earlier plan (other
    // targets, sizes and modes) into the next; a plan must not depend on
    // what they left behind.
    Rng rng(29);
    RandomDesign d = random_legal_design(rng, 12, 100, 150, 0.3, 3);
    std::vector<CellId> targets;
    for (int i = 0; i < 40; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 5));
        const SiteCoord h = static_cast<SiteCoord>(rng.uniform(1, 3));
        const RailPhase phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
        targets.push_back(add_unplaced(
            d.db, "t" + std::to_string(i), rng.uniform01() * 95.0,
            rng.uniform01() * (12.0 - h), w, h, phase));
    }
    MllScratch scratch;
    std::size_t shifted = 0;
    for (const bool exact : {false, true}) {
        MllOptions opts;
        opts.exact_evaluation = exact;
        for (const CellId t : targets) {
            const Cell& c = d.db.cell(t);
            const MllPlan fresh =
                mll_plan(d.db, d.grid, t, c.gp_x(), c.gp_y(), opts);
            const MllPlan reused = mll_plan(d.db, d.grid, t, c.gp_x(),
                                            c.gp_y(), opts, &scratch);
            SCOPED_TRACE(c.name() + (exact ? " exact" : " approx"));
            EXPECT_EQ(reused.status, fresh.status);
            EXPECT_EQ(reused.x, fresh.x);
            EXPECT_EQ(reused.y, fresh.y);
            EXPECT_EQ(reused.num_points, fresh.num_points);
            EXPECT_EQ(reused.est_cost_um, fresh.est_cost_um);
            ASSERT_EQ(reused.moves.size(), fresh.moves.size());
            for (std::size_t i = 0; i < fresh.moves.size(); ++i) {
                EXPECT_EQ(reused.moves[i].id, fresh.moves[i].id);
                EXPECT_EQ(reused.moves[i].old_x, fresh.moves[i].old_x);
                EXPECT_EQ(reused.moves[i].new_x, fresh.moves[i].new_x);
            }
            shifted += fresh.moves.size();
        }
    }
    EXPECT_GT(shifted, 0u);  // the plans did real work
}

TEST(Mll, Figure5Scenario) {
    // The paper's running example (Fig. 5): a 3x2 target inserted into a
    // 4-row local region with cells a, b, c, d, e. We reproduce the
    // qualitative outcome: a feasible optimal point exists with total
    // displacement 2 sites (the paper's optimal {(2,L,c),(3,a,c),(4,a,b)}).
    Database db = empty_design(4, 10);
    SegmentGrid grid = SegmentGrid::build(db);
    // Layout loosely mirroring Fig. 5(a) (site-level positions inferred):
    // rows are 0-based here (paper rows 1-4 bottom-up).
    add_placed(db, grid, "e", 0, 0, 3, 1, RailPhase::kEven);   // row 0
    add_placed(db, grid, "c", 5, 0, 3, 1, RailPhase::kOdd);    // row 0
    add_placed(db, grid, "a", 0, 1, 2, 2, RailPhase::kOdd);    // rows 1-2
    add_placed(db, grid, "d", 6, 1, 3, 1, RailPhase::kOdd);    // row 1
    add_placed(db, grid, "b", 3, 3, 3, 1, RailPhase::kOdd);    // row 3
    const CellId t =
        add_unplaced(db, "t", 4.0, 1.0, 3, 2, RailPhase::kOdd);
    MllOptions opts;
    opts.check_rail = false;  // the figure ignores parity
    const MllPlan r = mll_place(db, grid, t, 4.0, 1.0, opts);
    ASSERT_TRUE(r.success());
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
    EXPECT_TRUE(grid.audit(db).empty());
    // Some displacement is unavoidable, but it must be small.
    EXPECT_LE(r.real_cost_um / db.floorplan().site_w_um(), 12.0);
}

TEST(Mll, ApproxAndExactBothLegalExactNoWorse) {
    Rng rng(81);
    for (int trial = 0; trial < 8; ++trial) {
        RandomDesign d = random_legal_design(rng, 10, 120, 80, 0.3);
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 5));
        const SiteCoord h = static_cast<SiteCoord>(rng.uniform(1, 2));
        const double px = static_cast<double>(rng.uniform(10, 110));
        const double py = static_cast<double>(rng.uniform(0, 9 - h));
        const RailPhase phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;

        // Run approx on one copy and exact on an identical copy.
        double costs[2] = {0, 0};
        for (int mode = 0; mode < 2; ++mode) {
            Rng rng_copy(1000 + static_cast<std::uint64_t>(trial));
            RandomDesign dd =
                random_legal_design(rng_copy, 10, 120, 80, 0.3);
            const CellId t = add_unplaced(
                dd.db, "target", px, py, w, h, phase);
            MllOptions opts;
            opts.exact_evaluation = mode == 1;
            const MllPlan r =
                mll_place(dd.db, dd.grid, t, px, py, opts);
            if (!r.success()) {
                costs[0] = costs[1] = -1;
                break;
            }
            costs[mode] = r.real_cost_um;
            LegalityOptions lopts;
            lopts.require_all_placed = false;
            EXPECT_TRUE(check_legality(dd.db, dd.grid, lopts).legal);
            EXPECT_TRUE(dd.grid.audit(dd.db).empty());
        }
        if (costs[0] >= 0) {
            EXPECT_LE(costs[1], costs[0] + 1e-6) << "trial " << trial;
        }
        static_cast<void>(d);
    }
}

TEST(Mll, ManySequentialInsertionsStayLegal) {
    Database db = empty_design(10, 120);
    SegmentGrid grid = SegmentGrid::build(db);
    Rng rng(83);
    int placed = 0;
    for (int i = 0; i < 150; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 5));
        const bool dbl = rng.chance(0.2);
        const double px = static_cast<double>(rng.uniform(0, 115));
        const double py = static_cast<double>(rng.uniform(0, 8));
        const CellId t = add_unplaced(db, "c" + std::to_string(i), px, py,
                                      w, dbl ? 2 : 1);
        const MllPlan r = mll_place(db, grid, t, px, py);
        placed += r.success() ? 1 : 0;
        if (i % 25 == 0) {
            LegalityOptions lopts;
            lopts.require_all_placed = false;
            ASSERT_TRUE(check_legality(db, grid, lopts).legal)
                << "after " << i;
            ASSERT_TRUE(grid.audit(db).empty());
        }
    }
    EXPECT_GT(placed, 140);  // density ~0.35, almost everything fits
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
}

}  // namespace
}  // namespace mrlg::test
