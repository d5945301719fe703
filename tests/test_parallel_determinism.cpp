#include <gtest/gtest.h>

#include <vector>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

std::vector<std::pair<SiteCoord, SiteCoord>> positions(const Database& db) {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    pos.reserve(db.num_cells());
    for (const Cell& c : db.cells()) {
        pos.emplace_back(c.x(), c.y());
    }
    return pos;
}

void unplace_all(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
}

/// Legalizes the same seeded generated design serially and with 4 worker
/// threads; every cell position and every stat must be bit-identical
/// (pipeline.hpp's serial-equivalence argument for the cell-level plan
/// fan-out, and thread_pool.hpp's fixed-chunk contract for HPWL).
void expect_deterministic(bool exact_evaluation) {
    GenProfile profile;
    profile.name = "determinism";
    profile.num_single = 400;
    profile.num_double = 60;
    profile.density = 0.65;
    profile.seed = 7;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    SegmentGrid grid = SegmentGrid::build(db);

    LegalizerStats serial_stats;
    std::vector<std::pair<SiteCoord, SiteCoord>> serial_pos;
    double serial_hpwl = 0.0;
    for (const int threads : {1, 4}) {
        unplace_all(db, grid);
        LegalizerOptions opts;
        opts.seed = 5;
        opts.num_threads = threads;
        opts.mll.exact_evaluation = exact_evaluation;
        const LegalizerStats stats = legalize_placement(db, grid, opts);
        EXPECT_TRUE(stats.success);
        const double hpwl =
            hpwl_um(db, PositionSource::kLegalized, threads);
        if (threads == 1) {
            serial_stats = stats;
            serial_pos = positions(db);
            serial_hpwl = hpwl;
            continue;
        }
        EXPECT_EQ(positions(db), serial_pos) << "threads=" << threads;
        EXPECT_EQ(stats.direct_placements, serial_stats.direct_placements);
        EXPECT_EQ(stats.mll_successes, serial_stats.mll_successes);
        EXPECT_EQ(stats.mll_failures, serial_stats.mll_failures);
        EXPECT_EQ(stats.fallback_placements,
                  serial_stats.fallback_placements);
        EXPECT_EQ(stats.ripup_placements, serial_stats.ripup_placements);
        EXPECT_EQ(stats.unplaced, serial_stats.unplaced);
        EXPECT_EQ(stats.rounds, serial_stats.rounds);
        EXPECT_EQ(stats.mll_points_evaluated,
                  serial_stats.mll_points_evaluated);
        // HPWL partial sums combine in fixed chunk order → bit-identical.
        EXPECT_EQ(hpwl, serial_hpwl);
    }
}

TEST(ParallelDeterminism, ApproxEvaluation) {
    expect_deterministic(/*exact_evaluation=*/false);
}

TEST(ParallelDeterminism, ExactEvaluation) {
    expect_deterministic(/*exact_evaluation=*/true);
}

TEST(ParallelDeterminism, PointAccountingIsThreadCountInvariant) {
    // num_points must count points actually evaluated — identical at any
    // thread count, and nonzero on a design where MLL does real work.
    GenProfile profile;
    profile.num_single = 300;
    profile.num_double = 40;
    profile.density = 0.7;
    profile.seed = 3;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    SegmentGrid grid = SegmentGrid::build(db);

    std::size_t serial_points = 0;
    for (const int threads : {1, 3}) {
        unplace_all(db, grid);
        LegalizerOptions opts;
        opts.num_threads = threads;
        const LegalizerStats stats = legalize_placement(db, grid, opts);
        EXPECT_TRUE(stats.success);
        if (threads == 1) {
            serial_points = stats.mll_points_evaluated;
            EXPECT_GT(serial_points, 0u);
        } else {
            EXPECT_EQ(stats.mll_points_evaluated, serial_points);
        }
    }
}

TEST(ParallelDeterminism, LegalityReportIdenticalAcrossThreadCounts) {
    // Build a deliberately broken placement: overlaps, wrong parity, and
    // an unplaced cell; the report must not depend on the thread count.
    Rng rng(21);
    RandomDesign d = random_legal_design(rng, 24, 200, 160, 0.25);
    // Force two overlaps by stacking cells manually.
    const CellId a = d.db.movable_cells()[0];
    const CellId b = d.db.movable_cells()[1];
    d.grid.remove(d.db, a);
    const Cell& cb = d.db.cell(b);
    d.db.cell(a).set_pos(cb.x(), cb.y());

    LegalityOptions base;
    base.require_all_placed = false;
    base.max_messages = 1000;

    base.num_threads = 1;
    const LegalityReport serial = check_legality(d.db, d.grid, base);
    for (const int threads : {2, 4}) {
        LegalityOptions opts = base;
        opts.num_threads = threads;
        const LegalityReport rep = check_legality(d.db, d.grid, opts);
        EXPECT_EQ(rep.legal, serial.legal);
        EXPECT_EQ(rep.num_overlaps, serial.num_overlaps);
        EXPECT_EQ(rep.num_out_of_rows, serial.num_out_of_rows);
        EXPECT_EQ(rep.num_rail_violations, serial.num_rail_violations);
        EXPECT_EQ(rep.num_unplaced, serial.num_unplaced);
        EXPECT_EQ(rep.messages, serial.messages);
    }
    EXPECT_FALSE(serial.legal);  // the breakage was detected at all
}

}  // namespace
}  // namespace mrlg::test
