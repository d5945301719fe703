#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "db/write_cap.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/local_region.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "util/rng.hpp"

namespace mrlg_bench {

using namespace mrlg;
using Clock = std::chrono::steady_clock;

namespace {

double us_since(Clock::time_point& t) {
    const Clock::time_point now = Clock::now();
    const double us = std::chrono::duration<double, std::micro>(now - t).count();
    t = now;
    return us;
}

/// Runs the MLL stages of one attempt exactly as mll_plan does (window of
/// mll.cpp; approx or exact evaluation; first strictly better point
/// wins), adding stage times and counts to `rep`. Returns true when the
/// outcome matches `plan`.
bool replay_one(const Database& db, const SegmentGrid& grid, CellId id,
                const MllOptions& opts, const MllPlan& plan,
                MllScratch& scratch, EvalScratch& eval_scratch,
                ReplayReport& rep) {
    const Cell& cell = db.cell(id);
    TargetSpec target;
    target.id = id;
    target.w = cell.width();
    target.h = cell.height();
    target.pref_x = cell.gp_x();
    target.pref_y = cell.gp_y();
    target.rail_phase = cell.rail_phase();
    const SiteCoord ax = static_cast<SiteCoord>(std::lround(target.pref_x));
    const SiteCoord ay = static_cast<SiteCoord>(std::lround(target.pref_y));
    const Rect window{static_cast<SiteCoord>(ax - opts.rx),
                      static_cast<SiteCoord>(ay - opts.ry),
                      static_cast<SiteCoord>(2 * opts.rx + target.w),
                      static_cast<SiteCoord>(2 * opts.ry + target.h)};

    Clock::time_point t = Clock::now();
    const bool agrees = [&] {
        const LocalRegion region = extract_local_region(
            db, grid, window, cell.region(), &scratch.region);
        rep.extract_us += us_since(t);
        if (region.height() == 0) {
            return plan.status == MllStatus::kNoRegion;
        }
        LocalProblem lp = LocalProblem::build(db, region, &scratch.problem);
        rep.build_us += us_since(t);
        rep.local_cells += static_cast<std::uint64_t>(lp.num_cells());
        compute_minmax_placement(lp);
        rep.minmax_us += us_since(t);
        const std::vector<InsertionInterval> intervals =
            build_insertion_intervals(lp, target.w);
        rep.intervals_us += us_since(t);
        rep.intervals += intervals.size();

        EnumerationOptions eopts;
        eopts.check_rail = opts.check_rail;
        eopts.max_points = opts.max_points;
        const EnumerationResult enumr =
            enumerate_insertion_points(lp, intervals, target, eopts);
        rep.enumeration_us += us_since(t);
        rep.points += enumr.points.size();
        rep.truncated += enumr.truncated ? 1 : 0;

        const InsertionPoint* best = nullptr;
        Evaluation best_eval;
        for (const InsertionPoint& p : enumr.points) {
            const Evaluation ev =
                opts.exact_evaluation
                    ? evaluate_insertion_point_exact(lp, p, target, eval_scratch)
                    : evaluate_insertion_point_approx(lp, p, target,
                                                      eval_scratch);
            if (ev.feasible && (best == nullptr || ev.cost_um < best_eval.cost_um)) {
                best_eval = ev;
                best = &p;
            }
        }
        rep.evaluation_us += us_since(t);
        if (best == nullptr) {
            return plan.status == MllStatus::kNoInsertionPoint;
        }

        const Realization real =
            realize_insertion(lp, *best, best_eval.xt, target.w);
        rep.realization_us += us_since(t);
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (real.new_x[static_cast<std::size_t>(i)] != lp.cell(i).x) {
                ++rep.cells_shifted;
            }
        }
        return plan.success() && real.ok && real.xt == plan.x &&
               lp.y0() + best->k0 == plan.y;
    }();
    // The stage results are freed when the lambda returns. mll_plan pays
    // for the same frees, and for listing the shifted cells, inside its call.
    rep.free_us += us_since(t);
    return agrees;
}

}  // namespace

ReplayReport replay_stages(Database& db, SegmentGrid& grid,
                           const MllOptions& opts, std::size_t num_samples,
                           std::uint64_t seed) {
    GridWriteScope grid_write;
    MllOptions serial = opts;
    serial.num_threads = 1;

    std::vector<CellId> pool;
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            pool.push_back(c);
        }
    }
    Rng rng(seed);
    const std::size_t n = std::min(num_samples, pool.size());
    for (std::size_t i = 0; i < n; ++i) {  // partial Fisher-Yates
        const auto j = static_cast<std::size_t>(rng.uniform(
            static_cast<std::int64_t>(i),
            static_cast<std::int64_t>(pool.size() - 1)));
        std::swap(pool[i], pool[j]);
    }

    ReplayReport rep;
    MllScratch scratch;
    EvalScratch eval_scratch;
    for (std::size_t i = 0; i < n; ++i) {
        const CellId c = pool[i];
        const SiteCoord x0 = db.cell(c).x();
        const SiteCoord y0 = db.cell(c).y();
        grid.remove(db, c);
        const Database& cdb = db;
        const SegmentGrid& cgrid = grid;
        const double px = cdb.cell(c).gp_x();
        const double py = cdb.cell(c).gp_y();
        // Untimed warm-up so the timed plan and the timed stages both see
        // the local region in cache.
        mll_plan(cdb, cgrid, c, px, py, serial, &scratch);
        Clock::time_point t = Clock::now();
        const MllPlan plan = mll_plan(cdb, cgrid, c, px, py, serial, &scratch);
        rep.plan_us.push_back(us_since(t));
        if (!replay_one(cdb, cgrid, c, serial, plan, scratch, eval_scratch,
                        rep)) {
            ++rep.disagreements;
        }
        grid.place(db, c, x0, y0);
        ++rep.samples;
    }
    return rep;
}

}  // namespace mrlg_bench
