/// \file test_region_parallel.cpp
/// Determinism and unit coverage for the region-parallel plan/commit
/// pipeline (legalize/pipeline.hpp): the bucketed schedule must be
/// byte-identical to Pipeline::kSerial (one cell per wave) on every design,
/// at every thread count — that is its entire correctness contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/legality.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/local_region.hpp"
#include "legalize/pipeline.hpp"
#include "obs/timeline.hpp"
#include "qa/generators.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace mrlg::test {
namespace {

// ---------------------------------------------------------------------------
// Footprint unit tests.

TEST(AttemptFootprint, HullsWindowAndFittedWithPad) {
    const Rect window{10, 2, 20, 4};   // x [10,30), rows [2,6)
    const Rect fitted{32, 1, 4, 2};    // x [32,36), rows [1,3)
    const AttemptFootprint fp =
        compute_attempt_footprint(window, fitted, /*max_cell_width=*/5);
    EXPECT_EQ(fp.rows.lo, 1);
    EXPECT_EQ(fp.rows.hi, 6);
    EXPECT_EQ(fp.x.lo, 10 - 4);  // pad = max_cell_width - 1
    EXPECT_EQ(fp.x.hi, 36 + 4);
}

TEST(AttemptFootprint, OverlapNeedsBothAxes) {
    AttemptFootprint a;
    a.rows = Span{0, 2};
    a.x = Span{0, 10};
    AttemptFootprint b;
    b.rows = Span{2, 4};  // touching rows only — half-open, disjoint
    b.x = Span{0, 10};
    EXPECT_FALSE(a.overlaps(b));
    b.rows = Span{1, 3};
    b.x = Span{10, 20};  // overlapping rows, touching x — disjoint
    EXPECT_FALSE(a.overlaps(b));
    b.x = Span{9, 20};
    EXPECT_TRUE(a.overlaps(b));
}

// ---------------------------------------------------------------------------
// Level-schedule unit tests.

AttemptFootprint fp(SiteCoord row_lo, SiteCoord row_hi, SiteCoord x_lo,
                    SiteCoord x_hi) {
    AttemptFootprint f;
    f.rows = Span{row_lo, row_hi};
    f.x = Span{x_lo, x_hi};
    return f;
}

/// Wave of `second` when `first` is the only earlier task, on an 8-row die
/// spanning `x_extent`.
std::uint32_t wave_behind(const AttemptFootprint& first,
                          const AttemptFootprint& second,
                          Span x_extent = Span{0, 1024}) {
    LevelSchedule schedule;
    schedule.reset(8, x_extent);
    EXPECT_EQ(schedule.assign(first), 1u);
    return schedule.assign(second);
}

TEST(LevelSchedule, BucketConservativeAndDieClamped) {
    const AttemptFootprint claim = fp(0, 2, 16, 30);
    EXPECT_EQ(wave_behind(claim, fp(1, 3, 24, 48)), 2u);  // real overlap
    EXPECT_EQ(wave_behind(claim, fp(2, 4, 24, 48)), 1u);  // rows disjoint
    // Buckets are kBucketSites wide and footprints round outward: one
    // sharing a bucket with an earlier one waits a wave even when the
    // exact spans only touch. That delays a cell by a wave; never wrong.
    EXPECT_EQ(wave_behind(claim, fp(0, 2, 30, 48)), 2u);
    // From the next bucket boundary onward it is clean again.
    EXPECT_EQ(wave_behind(claim, fp(0, 2, 32, 48)), 1u);
    EXPECT_EQ(wave_behind(fp(4, 6, 500, 560), fp(5, 6, 520, 530)), 2u);
    EXPECT_EQ(wave_behind(fp(4, 6, 500, 560), fp(4, 6, 320, 420)), 1u);
    // Buckets start at the die's x origin, not at site 0.
    EXPECT_EQ(wave_behind(fp(0, 1, 100, 108), fp(0, 1, 108, 116),
                          Span{100, 200}),
              1u);
    EXPECT_EQ(wave_behind(fp(0, 1, 100, 108), fp(0, 1, 107, 116),
                          Span{100, 200}),
              2u);
    // Rows and x outside the die are clamped away, not tracked.
    EXPECT_EQ(wave_behind(fp(-3, 0, 0, 16), fp(0, 1, 0, 16)), 1u);
    EXPECT_EQ(wave_behind(fp(8, 10, 0, 16), fp(7, 8, 0, 16)), 1u);
    EXPECT_EQ(wave_behind(fp(6, 8, -200, 0), fp(6, 8, 0, 40)), 1u);
    EXPECT_EQ(wave_behind(fp(6, 8, 1024, 1100), fp(6, 8, 1000, 1024)), 1u);
    EXPECT_EQ(wave_behind(fp(6, 8, -200, 0), fp(6, 8, -100, 0)), 1u);
}

TEST(LevelSchedule, LaterWaveTaskStillBlocksLaterTasks) {
    std::vector<PlanTask> tasks(4);
    tasks[0].footprint = fp(0, 2, 0, 10);
    tasks[1].footprint = fp(0, 2, 5, 15);   // shares buckets with 0
    tasks[2].footprint = fp(0, 2, 12, 20);  // shares bucket 1 with 0 and 1
    tasks[3].footprint = fp(4, 6, 0, 10);   // independent rows
    LevelSchedule schedule;
    schedule.reset(8, Span{0, 256});
    for (PlanTask& t : tasks) {
        t.wave = schedule.assign(t.footprint);
    }
    // Task 2 lands in wave 3, not 2: task 1, itself waiting for wave 2,
    // still blocks it — the serial-equivalence rule: later cells yield to
    // every earlier cell they touch, whichever wave that cell is in.
    EXPECT_EQ(tasks[0].wave, 1u);
    EXPECT_EQ(tasks[1].wave, 2u);
    EXPECT_EQ(tasks[2].wave, 3u);
    EXPECT_EQ(tasks[3].wave, 1u);
    EXPECT_EQ(schedule.num_waves(), 3u);

    std::vector<std::size_t> order;
    std::vector<std::size_t> offsets;
    order_by_wave(tasks, schedule.num_waves(), order, offsets);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 3, 1, 2}));
    EXPECT_EQ(offsets, (std::vector<std::size_t>{0, 2, 3, 4}));
}

/// Independent restatement of the schedule's conflict rule: clamp both
/// footprints to the die, round x outward to buckets counted from the die's
/// x origin, and test the resulting row × bucket boxes for overlap.
bool share_bucket(const AttemptFootprint& a, const AttemptFootprint& b,
                  SiteCoord num_rows, Span x_extent) {
    const SiteCoord k = LevelSchedule::kBucketSites;
    auto box = [&](const AttemptFootprint& f, Span& rows, Span& buckets) {
        rows = Span{std::max<SiteCoord>(f.rows.lo, 0),
                    std::min(f.rows.hi, num_rows)};
        const SiteCoord x_lo = std::max(f.x.lo, x_extent.lo);
        const SiteCoord x_hi = std::min(f.x.hi, x_extent.hi);
        buckets = Span{(x_lo - x_extent.lo) / k,
                       (x_hi - x_extent.lo + k - 1) / k};
        return !rows.empty() && x_lo < x_hi;
    };
    Span ra, ba, rb, bb;
    return box(a, ra, ba) && box(b, rb, bb) && ra.overlaps(rb) &&
           ba.overlaps(bb);
}

TEST(LevelSchedule, RandomFootprintsMatchGreedyPartition) {
    // The waves must be exactly those of a greedy per-wave partition that
    // batches a pending task iff it shares no bucket with any earlier
    // pending task. Characterised per task t in wave L:
    //   (1) tasks of one wave are pairwise bucket-disjoint;
    //   (2) if L > 1, some earlier task in wave L-1 shares a bucket with t;
    //   (3) no earlier task in a wave >= L shares a bucket with t.
    std::uint32_t deepest = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        Rng rng(seed);
        const auto num_rows = static_cast<SiteCoord>(rng.uniform(1, 12));
        const auto x_lo = static_cast<SiteCoord>(rng.uniform(-20, 20));
        const Span die_x{x_lo,
                         static_cast<SiteCoord>(x_lo + rng.uniform(1, 300))};
        std::vector<PlanTask> tasks(150);
        LevelSchedule schedule;
        schedule.reset(static_cast<std::size_t>(num_rows), die_x);
        for (PlanTask& t : tasks) {
            const auto r = static_cast<SiteCoord>(rng.uniform(-3, num_rows));
            const auto x = static_cast<SiteCoord>(
                rng.uniform(die_x.lo - 30, die_x.hi + 10));
            t.footprint = fp(r, static_cast<SiteCoord>(r + rng.uniform(0, 6)),
                             x, static_cast<SiteCoord>(x + rng.uniform(0, 60)));
            t.wave = schedule.assign(t.footprint);
        }
        std::uint32_t highest = 0;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const std::uint32_t level = tasks[i].wave;
            ASSERT_GE(level, 1u);
            highest = std::max(highest, level);
            bool fed_by_previous_wave = false;
            for (std::size_t j = 0; j < i; ++j) {
                if (!share_bucket(tasks[j].footprint, tasks[i].footprint,
                                  num_rows, die_x)) {
                    continue;
                }
                EXPECT_LT(tasks[j].wave, level)  // (1) and (3)
                    << "seed " << seed << " tasks " << j << "," << i;
                fed_by_previous_wave |= tasks[j].wave + 1 == level;
            }
            EXPECT_EQ(fed_by_previous_wave, level > 1)  // (2)
                << "seed " << seed << " task " << i;
        }
        EXPECT_EQ(schedule.num_waves(), highest);
        deepest = std::max(deepest, highest);

        // order_by_wave is a stable sort by wave.
        std::vector<std::size_t> order;
        std::vector<std::size_t> offsets;
        order_by_wave(tasks, schedule.num_waves(), order, offsets);
        ASSERT_EQ(offsets.size(), static_cast<std::size_t>(highest) + 1);
        EXPECT_EQ(offsets.front(), 0u);
        EXPECT_EQ(offsets.back(), tasks.size());
        for (std::size_t w = 1; w < offsets.size(); ++w) {
            for (std::size_t k = offsets[w - 1]; k < offsets[w]; ++k) {
                EXPECT_EQ(tasks[order[k]].wave, w);
                if (k > offsets[w - 1]) {
                    EXPECT_LT(order[k - 1], order[k]);
                }
            }
        }
    }
    // The generator must actually build deep conflict chains.
    EXPECT_GE(deepest, 4u);
}

// ---------------------------------------------------------------------------
// Whole-flow bit-identity: region-parallel vs serial pipeline.

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

struct RunOutcome {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    LegalizerStats stats;
};

/// Legalizes `db` from scratch with `opts` (seed, pipeline and thread
/// count overridden).
RunOutcome run(Database& db, SegmentGrid& grid,
               LegalizerOptions::Pipeline pipeline, int threads,
               LegalizerOptions opts = {}) {
    unplace_all(db, grid);
    opts.seed = 5;
    opts.pipeline = pipeline;
    opts.num_threads = threads;
    // Every run records a wall-clock timeline: this test sits in the
    // `parallel` tier that CI re-runs under TSan, so the Timeline's
    // lock-free lane writes get raced by real pool workers here.
    obs::Timeline timeline;
    obs::ScopedTimeline install(timeline);
    RunOutcome out;
    out.stats = legalize_placement(db, grid, opts);
    out.pos = positions(db);
    return out;
}

void expect_equal(const RunOutcome& a, const RunOutcome& b,
                  const char* what) {
    EXPECT_EQ(a.pos, b.pos) << what;
    EXPECT_EQ(a.stats.success, b.stats.success) << what;
    EXPECT_EQ(a.stats.direct_placements, b.stats.direct_placements) << what;
    EXPECT_EQ(a.stats.mll_successes, b.stats.mll_successes) << what;
    EXPECT_EQ(a.stats.mll_failures, b.stats.mll_failures) << what;
    EXPECT_EQ(a.stats.fallback_placements, b.stats.fallback_placements)
        << what;
    EXPECT_EQ(a.stats.ripup_placements, b.stats.ripup_placements) << what;
    EXPECT_EQ(a.stats.unplaced, b.stats.unplaced) << what;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << what;
    EXPECT_EQ(a.stats.mll_points_evaluated, b.stats.mll_points_evaluated)
        << what;
}

/// The three golden-suite benchmark flavours (test_golden.cpp); identity
/// on these means identity on the reports the golden tier pins down.
GenProfile golden_profile(int flavour) {
    GenProfile p;
    switch (flavour) {
        case 0:  // uniform_small
            p.num_single = 300; p.num_double = 30;
            p.density = 0.55; p.seed = 11;
            break;
        case 1:  // blocked_mixed
            p.num_single = 220; p.num_double = 40;
            p.num_triple = 12; p.num_quad = 8;
            p.density = 0.6; p.seed = 22;
            p.num_blockages = 2; p.blockage_area_frac = 0.04;
            break;
        default:  // fenced_dense
            p.num_single = 260; p.num_double = 30;
            p.density = 0.5; p.seed = 33;
            p.fence_cell_frac = 0.15;
            break;
    }
    return p;
}

void expect_pipeline_identity(Database& db, SegmentGrid& grid,
                              const char* what) {
    const RunOutcome serial =
        run(db, grid, LegalizerOptions::Pipeline::kSerial, 1);
    // kSerial runs exactly one attempt per wave.
    EXPECT_EQ(serial.stats.waves, serial.stats.direct_placements +
                                      serial.stats.mll_successes +
                                      serial.stats.mll_failures)
        << what;
    for (const int threads : {1, 2, 8}) {
        const RunOutcome rp = run(
            db, grid, LegalizerOptions::Pipeline::kRegionParallel, threads);
        expect_equal(rp, serial, what);
        EXPECT_GT(rp.stats.waves, 0u) << what;
    }
    // And the wave structure itself is thread-count independent.
    const RunOutcome rp1 =
        run(db, grid, LegalizerOptions::Pipeline::kRegionParallel, 1);
    const RunOutcome rp8 =
        run(db, grid, LegalizerOptions::Pipeline::kRegionParallel, 8);
    EXPECT_EQ(rp1.stats.waves, rp8.stats.waves) << what;
    EXPECT_EQ(rp1.stats.conflict_requeues, rp8.stats.conflict_requeues)
        << what;
}

TEST(RegionParallel, GoldenProfilesBitIdenticalToSerial) {
    for (int flavour = 0; flavour < 3; ++flavour) {
        GenResult gen = generate_benchmark(golden_profile(flavour));
        SegmentGrid grid = SegmentGrid::build(gen.db);
        expect_pipeline_identity(gen.db, grid,
                                 flavour == 0   ? "uniform_small"
                                 : flavour == 1 ? "blocked_mixed"
                                                : "fenced_dense");
    }
}

TEST(RegionParallel, SaturatedDesignsDegradeGracefully) {
    // Adversarial high-density cases (qa fuzz generator): footprints
    // conflict constantly, so waves thin out toward serial order — the
    // result must stay bit-identical and the conflicts must be visible in
    // the stats.
    std::size_t total_requeues = 0;
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
        Rng rng(seed);
        Database db = qa::gen_saturated_case(rng, /*num_targets=*/3);
        SegmentGrid grid = qa::materialize_case(db);
        const RunOutcome serial =
            run(db, grid, LegalizerOptions::Pipeline::kSerial, 1);
        for (const int threads : {1, 2, 8}) {
            const RunOutcome rp =
                run(db, grid, LegalizerOptions::Pipeline::kRegionParallel,
                    threads);
            expect_equal(rp, serial, "saturated");
            total_requeues += rp.stats.conflict_requeues;
        }
    }
    // At ~90% density the schedule must actually spread cells over waves.
    EXPECT_GT(total_requeues, 0u);
}

TEST(RegionParallel, FallbackAndRipupRunInCommit) {
    // The free-slot fallback and rip-up run inside commit, one task per
    // wave with a die-wide footprint. Each design below needs one of them;
    // at full audit depth both pipelines must agree bit for bit.
    LegalizerOptions opts;
    opts.order = LegalizerOptions::Order::kInputOrder;  // adversarial
    opts.max_rounds = 12;
    opts.audit = AuditLevel::kFull;

    // Rows 1-2 fill completely, so the double-height cell finds no free
    // row pair (rows 0 and 3 are not adjacent): only rip-up places it.
    Database ripup_db = empty_design(4, 40);
    for (int i = 0; i < 8; ++i) {
        add_unplaced(ripup_db, "r1_" + std::to_string(i), i * 5.0, 1.0, 5, 1);
        add_unplaced(ripup_db, "r2_" + std::to_string(i), i * 5.0, 2.0, 5, 1);
    }
    add_unplaced(ripup_db, "dbl", 18.0, 1.0, 4, 2, RailPhase::kOdd);
    SegmentGrid ripup_grid = SegmentGrid::build(ripup_db);

    // Row 0 fills completely and a window of zero half-height (ry = 0, so
    // no y jitter either) never leaves it: the ninth cell fails MLL in
    // every round until the free-slot fallback drops it into row 1.
    Database fallback_db = empty_design(2, 40);
    for (int i = 0; i < 9; ++i) {
        add_unplaced(fallback_db, "r0_" + std::to_string(i),
                     i == 8 ? 18.0 : i * 5.0, 0.0, 5, 1);
    }
    SegmentGrid fallback_grid = SegmentGrid::build(fallback_db);
    LegalizerOptions fallback_opts = opts;
    fallback_opts.mll.ry = 0;

    const RunOutcome ripup = run(ripup_db, ripup_grid,
                                 LegalizerOptions::Pipeline::kSerial, 1, opts);
    const RunOutcome fallback =
        run(fallback_db, fallback_grid, LegalizerOptions::Pipeline::kSerial,
            1, fallback_opts);
    EXPECT_TRUE(ripup.stats.success);
    EXPECT_GE(ripup.stats.ripup_placements, 1u);
    EXPECT_TRUE(fallback.stats.success);
    EXPECT_GE(fallback.stats.fallback_placements, 1u);
    for (const int threads : {1, 2, 8}) {
        expect_equal(run(ripup_db, ripup_grid,
                         LegalizerOptions::Pipeline::kRegionParallel, threads,
                         opts),
                     ripup, "ripup");
        expect_equal(run(fallback_db, fallback_grid,
                         LegalizerOptions::Pipeline::kRegionParallel, threads,
                         fallback_opts),
                     fallback, "fallback");
    }
}

TEST(RegionParallel, WavesAccountedInStats) {
    GenResult gen = generate_benchmark(golden_profile(0));
    SegmentGrid grid = SegmentGrid::build(gen.db);
    const RunOutcome rp =
        run(gen.db, grid, LegalizerOptions::Pipeline::kRegionParallel, 2);
    // Every round runs at least one wave; requeued cells appear in the
    // requeue counter, and a wave can never batch zero cells.
    EXPECT_GE(rp.stats.waves, static_cast<std::size_t>(rp.stats.rounds));
    EXPECT_TRUE(rp.stats.success);
}

}  // namespace
}  // namespace mrlg::test
