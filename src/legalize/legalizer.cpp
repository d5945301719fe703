#include "legalize/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "check/audit.hpp"
#include "check/audit_plan.hpp"
#include "db/write_cap.hpp"
#include "eval/legality.hpp"
#include "legalize/greedy.hpp"
#include "legalize/pipeline.hpp"
#include "legalize/ripup.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mrlg {

Point nearest_aligned_position(const Database& db, CellId cell_id, double px,
                               double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const SiteCoord max_y =
        std::max<SiteCoord>(0, fp.num_rows() - cell.height());

    SiteCoord y = static_cast<SiteCoord>(std::lround(py));
    y = std::clamp<SiteCoord>(y, 0, max_y);
    if (check_rail && !rail_compatible(y, cell.height(), cell.rail_phase())) {
        // Even-height cell on the wrong parity: pick the closer adjacent
        // row of correct parity.
        const SiteCoord up = y + 1 <= max_y ? y + 1 : y - 1;
        const SiteCoord down = y - 1 >= 0 ? y - 1 : y + 1;
        const double du = std::abs(static_cast<double>(up) - py);
        const double dd = std::abs(static_cast<double>(down) - py);
        y = du <= dd ? up : down;
        y = std::clamp<SiteCoord>(y, 0, max_y);
        if (!rail_compatible(y, cell.height(), cell.rail_phase())) {
            // Die edge forced us to the wrong parity; step inward.
            y = std::clamp<SiteCoord>(y + (y == 0 ? 1 : -1), 0, max_y);
        }
    }

    // Clamp x into the intersection of the rows the cell will span.
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + cell.height() && fp.has_row(r); ++r) {
        const Row& row = fp.row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi,
                        static_cast<SiteCoord>(row.x + row.num_sites -
                                               cell.width()));
    }
    SiteCoord x = static_cast<SiteCoord>(std::lround(px));
    if (x_lo <= x_hi) {
        x = std::clamp(x, x_lo, x_hi);
    }
    return Point{x, y};
}

SiteCoord max_window_radius(const LegalizerOptions& opts) {
    return kSiteCoordMax / (4 * static_cast<SiteCoord>(opts.max_rounds));
}

LegalizerStats legalize_placement(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts) {
    MRLG_OBS_PHASE("legalize");
    // Serial orchestration entry: everything below may mutate db/grid
    // except the plan-phase fan-out, which deliberately does NOT
    // re-assert the capability (db/write_cap.hpp).
    GridWriteScope grid_write;
    Timer timer;
    LegalizerStats stats;
    Rng rng(opts.seed);
    MRLG_ASSERT(opts.max_rounds >= 1, "max_rounds must be at least 1");
    MRLG_ASSERT(opts.mll.rx >= 0 && opts.mll.ry >= 0 &&
                    opts.mll.rx <= max_window_radius(opts) &&
                    opts.mll.ry <= max_window_radius(opts),
                "MLL window radii must be in [0, max_window_radius]");

    // Wall-clock execution timeline (two-tracer model, obs/timeline.hpp):
    // hoisted once so worker lambdas receive the pointer by capture and
    // never read ambient state. nullptr (the default) keeps every probe a
    // single branch.
    obs::Timeline* const timeline = obs::current_timeline();

    MllOptions mll_opts = opts.mll;
    if (mll_opts.audit < opts.audit) {
        mll_opts.audit = opts.audit;
    }
    MllScratch scratch;  // reused by every rip-up transaction of this run

    // Invariant-audit hook (MRLG_VALIDATE / LegalizerOptions::audit):
    // structural grid audit at phase boundaries, and after every commit
    // at kFull. Failures throw AssertionError out of the legalizer.
    const AuditLevel audit = opts.audit;
    auto audit_grid = [&](AuditLevel at_least) {
        if (audit >= at_least) {
            ++stats.audits_run;
            enforce(audit_segment_grid(db, grid, AuditLevel::kCheap,
                                       mll_opts.check_rail));
        }
    };

    std::vector<CellId> unplaced;
    {
        MRLG_OBS_PHASE("setup");
        std::vector<CellId> order = db.movable_cells();
        stats.num_cells = order.size();
        switch (opts.order) {
            case LegalizerOptions::Order::kInputOrder:
                break;
            case LegalizerOptions::Order::kLeftToRight:
                std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
                    return db.cell(a).gp_x() < db.cell(b).gp_x();
                });
                break;
            case LegalizerOptions::Order::kAreaDescending:
                std::stable_sort(order.begin(), order.end(),
                                 [&](CellId a, CellId b) {
                                     const auto& ca = db.cell(a);
                                     const auto& cb = db.cell(b);
                                     return ca.width() * ca.height() >
                                            cb.width() * cb.height();
                                 });
                break;
            case LegalizerOptions::Order::kMultiRowFirst:
                std::stable_sort(order.begin(), order.end(),
                                 [&](CellId a, CellId b) {
                                     return db.cell(a).height() >
                                            db.cell(b).height();
                                 });
                break;
        }

        if (opts.unplace_first) {
            for (const CellId c : order) {
                if (db.cell(c).placed()) {
                    grid.remove(db, c);
                }
            }
        }

        for (const CellId c : order) {
            if (!db.cell(c).placed()) {
                unplaced.push_back(c);
            }
        }
        audit_grid(AuditLevel::kCheap);  // post-setup pre-condition
    }

    // ---- plan/commit round state -----------------------------------------
    // Footprint padding must cover any movable cell a plan might read (see
    // compute_attempt_footprint); fixed cells are frozen into the segments
    // and never appear in the lists, so the movable maximum suffices.
    SiteCoord max_cell_width = 1;
    for (const CellId c : db.movable_cells()) {
        max_cell_width = std::max(max_cell_width, db.cell(c).width());
    }
    // The schedule clamps footprints to the die: no cell or segment exists
    // outside it, so footprint slices out there cannot carry conflicts.
    const Rect die = db.floorplan().die();
    const Span die_x{die.x, static_cast<SiteCoord>(die.x + die.w)};
    const auto num_rows = static_cast<std::size_t>(db.floorplan().num_rows());
    const AttemptFootprint die_footprint{
        Span{0, static_cast<SiteCoord>(num_rows)}, die_x};
    LevelSchedule schedule;
    std::vector<PlanTask> tasks;
    std::vector<std::size_t> order;    // task indices by wave (order_by_wave)
    std::vector<std::size_t> offsets;  // per-wave bounds into `order`

    auto task_footprint = [](const PlanTask& t) {
        return PlannedFootprint{t.cell.value(), t.footprint.rows,
                                t.footprint.x};
    };

    // Round 1: input positions (Algorithm 1 lines 2-7). Later rounds:
    // growing random offsets (lines 9-17). Every round runs as plan/commit
    // waves; pipeline.hpp documents the serial-equivalence argument.
    for (int round = 1; !unplaced.empty() && round <= opts.max_rounds;
         ++round) {
        MRLG_OBS_PHASE("round");
        assert_grid_write_cap();  // commit waves run on this serial thread
        stats.rounds = round;
        const bool allow_fallback = round >= opts.free_slot_fallback_round;
        const bool allow_ripup =
            opts.enable_ripup &&
            round >= opts.free_slot_fallback_round + 2;
        // The free-slot fallback and rip-up may write anywhere on the die,
        // so their rounds (rip-up rounds are fallback rounds too) and every
        // round of the kSerial oracle give each task its own wave and a
        // die-wide footprint.
        const bool one_per_wave =
            allow_fallback ||
            opts.pipeline == LegalizerOptions::Pipeline::kSerial;
        const std::size_t points_before = stats.mll_points_evaluated;

        // Build the round's tasks in queue order. This draws the round's
        // jitter as Algorithm 1 does: two uniforms per cell, queue order,
        // so the Rng stream is the same under every schedule. Each task's
        // wave is fixed here, once its footprint is known.
        tasks.clear();
        tasks.reserve(unplaced.size());
        schedule.reset(num_rows, die_x);
        for (const CellId c : unplaced) {
            const Cell& cell = db.cell(c);
            PlanTask t;
            t.cell = c;
            t.px = cell.gp_x();
            t.py = cell.gp_y();
            if (round > 1) {
                const SiteCoord range_x =
                    static_cast<SiteCoord>(opts.mll.rx) * (round - 1);
                const SiteCoord range_y =
                    static_cast<SiteCoord>(opts.mll.ry) * (round - 1);
                t.px += static_cast<double>(rng.uniform(-range_x, range_x));
                t.py += static_cast<double>(rng.uniform(-range_y, range_y));
            }
            const Point p = nearest_aligned_position(db, c, t.px, t.py,
                                                     mll_opts.check_rail);
            t.fitted = Rect{p.x, p.y, cell.width(), cell.height()};
            t.rail_ok =
                !mll_opts.check_rail ||
                rail_compatible(p.y, cell.height(), cell.rail_phase());
            if (one_per_wave) {
                // A die-wide footprint would touch every bucket: skip the
                // schedule, the task's queue position is its wave.
                t.footprint = die_footprint;
                t.wave = static_cast<std::uint32_t>(tasks.size() + 1);
            } else {
                t.footprint = compute_attempt_footprint(
                    mll_window(mll_opts, cell.width(), cell.height(), t.px,
                               t.py),
                    t.fitted, max_cell_width);
                t.wave = schedule.assign(t.footprint);
            }
            tasks.push_back(std::move(t));
        }
        order_by_wave(tasks,
                      one_per_wave ? static_cast<std::uint32_t>(tasks.size())
                                   : schedule.num_waves(),
                      order, offsets);

        for (std::size_t w = 1; w < offsets.size(); ++w) {
            MRLG_OBS_PHASE("wave");
            ++stats.waves;
            // Timeline keys: the global wave sequence number is the stable
            // major key; slot/task come from the (deterministic) schedule.
            const std::uint32_t wave_id =
                static_cast<std::uint32_t>(stats.waves);
            obs::TimelineSpan wave_span(timeline, "wave", {wave_id, 0, 0});
            const std::span<const std::size_t> batch =
                std::span<const std::size_t>(order).subspan(
                    offsets[w - 1], offsets[w] - offsets[w - 1]);
            // Tasks in later waves wait out this one.
            stats.conflict_requeues += tasks.size() - offsets[w];
            MRLG_OBS_OBSERVE("legalize.batch_size",
                             static_cast<double>(batch.size()));

            {
                MRLG_OBS_PHASE("plan");
                // Workers execute instrumented MLL code; the ambient
                // tracer is not thread-safe, so it pauses for the whole
                // fan-out — at every thread count, keeping the emitted
                // metrics configuration-independent.
                obs::TracerPause pause;
                obs::TimelineSpan plan_span(timeline, "plan",
                                            {wave_id, 0, 0});
                // Const views of the shared state: overload resolution
                // must pick the const accessors (db.cell) here — the
                // non-const ones require GridWriteCap, which the plan
                // fan-out deliberately does not hold.
                const Database& plan_db = db;
                const SegmentGrid& plan_grid = grid;
                parallel_for(
                    batch.size(), /*grain=*/1, opts.num_threads,
                    [&](std::size_t begin, std::size_t end) {
                        thread_local MllScratch plan_scratch;
                        for (std::size_t i = begin; i < end; ++i) {
                            // The wall-clock Timeline (NOT the paused
                            // Tracer) is the one observer workers may
                            // write: lock-free per-thread lanes.
                            obs::TimelineSpan task_span(
                                timeline, "plan.task",
                                {wave_id, static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(batch[i])});
                            PlanTask& t = tasks[batch[i]];
                            const Cell& cell = plan_db.cell(t.cell);
                            t.direct =
                                t.rail_ok &&
                                plan_grid.placeable(plan_db, t.fitted,
                                                    CellId{}, cell.region());
                            if (!t.direct) {
                                t.plan = mll_plan(plan_db, plan_grid, t.cell,
                                                  t.px, t.py, mll_opts,
                                                  &plan_scratch);
                            }
                        }
                    });
            }

            if (audit >= AuditLevel::kCheap) {
                // The schedule promised these footprints are pairwise
                // disjoint; re-derive that from scratch before trusting
                // the plans (check/audit_plan.hpp).
                std::vector<PlannedFootprint> fps;
                fps.reserve(batch.size());
                for (const std::size_t idx : batch) {
                    fps.push_back(task_footprint(tasks[idx]));
                }
                ++stats.audits_run;
                enforce(audit_plan_batch(fps));
            }

            {
                MRLG_OBS_PHASE("commit");
                obs::TimelineSpan commit_span(timeline, "commit",
                                              {wave_id, 0, 0});
                for (std::size_t slot = 0; slot < batch.size(); ++slot) {
                    const std::size_t idx = batch[slot];
                    obs::TimelineSpan commit_task_span(
                        timeline, "commit.task",
                        {wave_id, static_cast<std::uint32_t>(slot),
                         static_cast<std::uint32_t>(idx)});
                    PlanTask& t = tasks[idx];
                    const Cell& cell = db.cell(t.cell);
                    if (t.direct) {
                        // The slot was free at wave start and the schedule
                        // keeps other commits out of this footprint.
                        MRLG_ASSERT(grid.placeable(db, t.fitted, CellId{},
                                                   cell.region()),
                                    "direct slot taken since planning");
                        grid.place(db, t.cell, t.fitted.x, t.fitted.y);
                        ++stats.direct_placements;
                        t.placed = true;
                        audit_grid(AuditLevel::kFull);
                        continue;
                    }
                    // The plan pass ran with the tracer paused (workers
                    // must not touch it — see obs::TracerPause), so the
                    // attempt is counted here, in commit order.
                    count_mll_attempt(t.plan, mll_opts);
                    stats.mll_points_evaluated += t.plan.num_points;
                    if (t.plan.success()) {
                        mll_commit(db, grid, t.cell, t.plan);
                        ++stats.mll_successes;
                        MRLG_OBS_OBSERVE("legalize.mll_real_cost_um",
                                         t.plan.real_cost_um);
                        if (audit >= AuditLevel::kFull) {
                            // Commit writes must stay inside the claimed
                            // footprint (the other half of the pipeline's
                            // correctness argument).
                            std::vector<Rect> writes;
                            writes.push_back(Rect{t.plan.x, t.plan.y,
                                                  cell.width(),
                                                  cell.height()});
                            for (const MllPlan::Move& m : t.plan.moves) {
                                const Cell& mc = db.cell(m.id);
                                const SiteCoord lo =
                                    std::min(m.old_x, m.new_x);
                                const SiteCoord hi = static_cast<SiteCoord>(
                                    std::max(m.old_x, m.new_x) +
                                    mc.width());
                                writes.push_back(Rect{lo, mc.y(),
                                                      static_cast<SiteCoord>(
                                                          hi - lo),
                                                      mc.height()});
                            }
                            ++stats.audits_run;
                            enforce(audit_plan_writes(task_footprint(t),
                                                      writes));
                        }
                        t.placed = true;
                        audit_grid(AuditLevel::kFull);
                        continue;
                    }
                    ++stats.mll_failures;
                    // Only one-task waves get here with these enabled;
                    // their die-wide footprint covers any slot they take.
                    if (allow_fallback) {
                        // Deterministic tail handling: snap to the nearest
                        // free slot around the *original* gp position (not
                        // the jittered one).
                        const auto free_slot = find_nearest_free_position(
                            db, grid, t.cell, cell.gp_x(), cell.gp_y(),
                            mll_opts.check_rail);
                        if (free_slot) {
                            grid.place(db, t.cell, free_slot->x,
                                       free_slot->y);
                            ++stats.fallback_placements;
                            t.placed = true;
                            audit_grid(AuditLevel::kFull);
                            continue;
                        }
                    }
                    if (allow_ripup) {
                        RipupOptions ropts;
                        ropts.mll = mll_opts;
                        if (ripup_place(db, grid, t.cell, cell.gp_x(),
                                        cell.gp_y(), ropts, &scratch)
                                .success) {
                            ++stats.ripup_placements;
                            t.placed = true;
                            audit_grid(AuditLevel::kFull);  // post-transaction
                        }
                    }
                }
            }
        }

        // Round-level exactness: every insertion point the final plans
        // evaluated — and nothing else — entered the stats.
        std::size_t expected_points = 0;
        std::vector<CellId> still_unplaced;
        for (const PlanTask& t : tasks) {
            if (!t.direct) {
                expected_points += t.plan.num_points;
            }
            if (!t.placed) {
                still_unplaced.push_back(t.cell);
            }
        }
        MRLG_ASSERT(stats.mll_points_evaluated ==
                        points_before + expected_points,
                    "plan/commit round lost insertion-point accounting");
        unplaced = std::move(still_unplaced);
        audit_grid(AuditLevel::kCheap);  // post-round invariants
    }

    if (audit >= AuditLevel::kCheap) {
        // Final audit at the configured depth: kFull adds the independent
        // eval/legality overlap sweep and the blockage intrusion check.
        MRLG_OBS_PHASE("final_audit");
        ++stats.audits_run;
        enforce(audit_placement(db, grid, audit, mll_opts.check_rail));
    }

    stats.unplaced = unplaced.size();
    stats.success = unplaced.empty();
    stats.runtime_s = timer.elapsed_s();

    // Mirror the run's stats into the ambient tracer so a run report's
    // counter block is complete even when the caller drops the stats.
    MRLG_OBS_COUNT("legalize.runs", 1);
    MRLG_OBS_COUNT("legalize.cells", stats.num_cells);
    MRLG_OBS_COUNT("legalize.rounds", stats.rounds);
    MRLG_OBS_COUNT("legalize.direct_placements", stats.direct_placements);
    MRLG_OBS_COUNT("legalize.mll_successes", stats.mll_successes);
    MRLG_OBS_COUNT("legalize.mll_failures", stats.mll_failures);
    MRLG_OBS_COUNT("legalize.fallback_placements",
                   stats.fallback_placements);
    MRLG_OBS_COUNT("legalize.ripup_placements", stats.ripup_placements);
    MRLG_OBS_COUNT("legalize.unplaced", stats.unplaced);
    MRLG_OBS_COUNT("legalize.points_evaluated", stats.mll_points_evaluated);
    MRLG_OBS_COUNT("legalize.audits_run", stats.audits_run);
    MRLG_OBS_COUNT("legalize.waves", stats.waves);
    MRLG_OBS_COUNT("legalize.conflict_requeues", stats.conflict_requeues);
    if (!stats.success) {
        MRLG_LOG(kWarn) << "legalization left " << stats.unplaced
                        << " cells unplaced after " << stats.rounds
                        << " rounds";
    }
    return stats;
}

}  // namespace mrlg
