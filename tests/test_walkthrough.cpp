/// Pins every number in docs/ALGORITHM.md: if this test needs changing,
/// update the walkthrough alongside it.

#include <gtest/gtest.h>

#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

struct Walkthrough {
    Database db;
    SegmentGrid grid;
    CellId a, c, m, b, t;

    Walkthrough() : db(Floorplan(2, 20)), grid(SegmentGrid::build(db)) {
        a = add_placed(db, grid, "a", 2, 0, 4, 1);
        m = add_placed(db, grid, "m", 8, 0, 3, 2);
        b = add_placed(db, grid, "b", 13, 0, 4, 1);
        c = add_placed(db, grid, "c", 3, 1, 3, 1);
        t = add_unplaced(db, "t", 6.0, 0.0, 3, 2);
    }
};

int lp_index(const LocalProblem& lp, CellId id) {
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (lp.cell(i).id == id) {
            return i;
        }
    }
    return -1;
}

TEST(Walkthrough, Stage2MinMax) {
    Walkthrough w;
    LocalProblem lp =
        make_local_problem(w.db, w.grid, Rect{-24, -5, 63, 12});
    compute_minmax_placement(lp);
    EXPECT_EQ(lp.num_cells(), 4);
    const LpCell& a = lp.cell(lp_index(lp, w.a));
    EXPECT_EQ(a.xl, 0);
    EXPECT_EQ(a.xr, 9);
    const LpCell& c = lp.cell(lp_index(lp, w.c));
    EXPECT_EQ(c.xl, 0);
    EXPECT_EQ(c.xr, 10);
    const LpCell& m = lp.cell(lp_index(lp, w.m));
    EXPECT_EQ(m.xl, 4);
    EXPECT_EQ(m.xr, 13);
    const LpCell& b = lp.cell(lp_index(lp, w.b));
    EXPECT_EQ(b.xl, 7);
    EXPECT_EQ(b.xr, 16);
}

TEST(Walkthrough, Stage3IntervalsAndStage4Points) {
    Walkthrough w;
    LocalProblem lp =
        make_local_problem(w.db, w.grid, Rect{-24, -5, 63, 12});
    compute_minmax_placement(lp);
    const auto ivs = build_insertion_intervals(lp, 3);
    ASSERT_EQ(ivs.size(), 7u);  // 4 gaps row 0, 3 gaps row 1

    TargetSpec ts;
    ts.w = 3;
    ts.h = 2;
    ts.pref_x = 6.0;
    ts.pref_y = 0.0;
    ts.rail_phase = RailPhase::kEven;
    const auto en = enumerate_insertion_points(lp, ivs, ts);
    ASSERT_EQ(en.points.size(), 6u);  // straddles of m excluded

    // The winning point (a,m)+(c,m): range [4,10], xt = 6. m borders the
    // gap in both rows but is one cell and moves once, so approx and
    // exact agree at 0.20 um (docs/ALGORITHM.md stage 4).
    bool found = false;
    for (const auto& p : en.points) {
        if (p.k0 == 0 && p.gaps == std::vector<int>{1, 1}) {
            found = true;
            EXPECT_EQ(p.lo, 4);
            EXPECT_EQ(p.hi, 10);
            const Evaluation approx =
                evaluate_insertion_point_approx(lp, p, ts);
            EXPECT_EQ(approx.xt, 6);
            EXPECT_NEAR(approx.cost_um, 0.20, 1e-9);
            const Evaluation exact =
                evaluate_insertion_point_exact(lp, p, ts);
            EXPECT_EQ(exact.xt, 6);
            EXPECT_NEAR(exact.cost_um, 0.20, 1e-9);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Walkthrough, Stage5CommitAndUndo) {
    Walkthrough w;
    const MllPlan r = mll_place(w.db, w.grid, w.t, 6.0, 0.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.x, 6);
    EXPECT_EQ(r.y, 0);
    EXPECT_NEAR(r.real_cost_um, 0.20, 1e-9);
    ASSERT_EQ(r.moves.size(), 1u);
    EXPECT_EQ(r.moves[0].id, w.m);
    EXPECT_EQ(r.moves[0].old_x, 8);
    EXPECT_EQ(w.db.cell(w.m).x(), 9);
    EXPECT_EQ(w.db.cell(w.b).x(), 13);  // untouched

    mll_undo(w.db, w.grid, w.t, r);
    EXPECT_EQ(w.db.cell(w.m).x(), 8);
    EXPECT_FALSE(w.db.cell(w.t).placed());
}

}  // namespace
}  // namespace mrlg::test
