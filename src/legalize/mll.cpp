#include "legalize/mll.hpp"

#include <cmath>
#include <limits>

#include "check/audit_local.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/ilp_local.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/local_region.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mrlg {

namespace {

constexpr std::size_t kNoPoint = static_cast<std::size_t>(-1);

/// The winner of a scan; index kNoPoint when no point is feasible.
struct ScanBest {
    Evaluation eval;
    std::size_t index = kNoPoint;
};

/// Evaluates every enumerated point in index order and returns the best
/// feasible one: the first strictly lower cost wins, so ties go to the
/// lower index. Read-only over `lp`.
ScanBest scan_insertion_points(const LocalProblem& lp,
                               const EnumerationResult& enumr,
                               const TargetSpec& target,
                               const MllOptions& opts, EvalScratch& scratch) {
    ScanBest best;
    for (std::size_t i = 0; i < enumr.points.size(); ++i) {
        const InsertionPoint& p = enumr.points[i];
        const Evaluation ev =
            opts.exact_evaluation
                ? evaluate_insertion_point_exact(lp, p, target, scratch)
                : evaluate_insertion_point_approx(lp, p, target, scratch);
        if (ev.feasible &&
            (best.index == kNoPoint || ev.cost_um < best.eval.cost_um)) {
            best.eval = ev;
            best.index = i;
        }
    }
    return best;
}

}  // namespace

Rect mll_window(const MllOptions& opts, SiteCoord width, SiteCoord height,
                double pref_x, double pref_y) {
    const SiteCoord ax = static_cast<SiteCoord>(std::lround(pref_x));
    const SiteCoord ay = static_cast<SiteCoord>(std::lround(pref_y));
    return Rect{static_cast<SiteCoord>(ax - opts.rx),
                static_cast<SiteCoord>(ay - opts.ry),
                static_cast<SiteCoord>(2 * opts.rx + width),
                static_cast<SiteCoord>(2 * opts.ry + height)};
}

MllPlan mll_plan(const Database& db, const SegmentGrid& grid,
                 CellId target_cell, double pref_x, double pref_y,
                 const MllOptions& opts, MllScratch* scratch) {
    MRLG_OBS_PHASE("mll");
    MllScratch local_scratch;
    if (scratch == nullptr) {
        scratch = &local_scratch;
    }
    MllPlan res;
    const Cell& cell = db.cell(target_cell);
    MRLG_ASSERT(!cell.placed(), "MLL target must be unplaced");
    MRLG_ASSERT(!cell.fixed(), "MLL target must be movable");

    TargetSpec target;
    target.id = target_cell;
    target.w = cell.width();
    target.h = cell.height();
    target.pref_x = pref_x;
    target.pref_y = pref_y;
    target.rail_phase = cell.rail_phase();

    const Rect window = mll_window(opts, target.w, target.h, pref_x, pref_y);
    const LocalRegion region = extract_local_region(
        db, grid, window, cell.region(), &scratch->region);
    if (region.height() == 0) {
        return res;
    }
    if (opts.audit >= AuditLevel::kFull) {
        enforce(audit_local_region(db, grid, region, cell.region()));
    }
    LocalProblem lp = LocalProblem::build(db, region, &scratch->problem);
    res.num_local_cells = static_cast<std::size_t>(lp.num_cells());

    compute_minmax_placement(lp);
    if (opts.audit >= AuditLevel::kFull) {
        enforce(audit_local_problem(lp, /*minmax_filled=*/true));
    }
    const std::vector<InsertionInterval> intervals =
        build_insertion_intervals(lp, target.w);

    EnumerationOptions eopts;
    eopts.check_rail = opts.check_rail;
    eopts.max_points = opts.max_points;

    // Select the insertion point: MIP search, or enumeration + (exact |
    // approximate) evaluation.
    InsertionPoint mip_point;
    EnumerationResult enumr;  // must outlive best_point, which aliases it
    const InsertionPoint* best_point = nullptr;
    Evaluation best_eval;
    best_eval.cost_um = std::numeric_limits<double>::max();

    if (opts.use_mip) {
        const IlpLocalResult mip = solve_local_ilp(lp, target, eopts);
        if (!mip.feasible) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        res.num_points = 1;
        mip_point.k0 = mip.base_row_k;
        mip_point.gaps = mip.gaps;
        // Feasible x range from the per-row intervals of the chosen gaps.
        // Every row of the chosen combination must match an interval: a row
        // without one means the MIP picked a gap that interval construction
        // discarded, and the lo/hi sentinels would otherwise pass the
        // lo <= hi check and let an unconstrained x slip through.
        MRLG_ASSERT(bind_point_to_intervals(intervals, mip_point.k0,
                                            mip_point.gaps, mip_point.lo,
                                            mip_point.hi),
                    "MIP solution row has no matching insertion interval");
        MRLG_ASSERT(mip_point.lo <= mip_point.hi,
                    "MIP solution has no matching interval range");
        best_eval = evaluate_insertion_point_exact(lp, mip_point, target,
                                                   scratch->eval);
        MRLG_ASSERT(best_eval.feasible, "MIP point fails exact evaluation");
        best_point = &mip_point;
    } else {
        enumr = enumerate_insertion_points(lp, intervals, target, eopts);
        res.enumeration_truncated = enumr.truncated;
        if (enumr.points.empty()) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        ScanBest best;
        {
            MRLG_OBS_PHASE("scan");
            best = scan_insertion_points(lp, enumr, target, opts,
                                         scratch->eval);
        }
        res.num_points = enumr.points.size();
        if (best.index == kNoPoint) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        best_eval = best.eval;
        best_point = &enumr.points[best.index];
    }

    const Realization real =
        realize_insertion(lp, *best_point, best_eval.xt, target.w);
    MRLG_ASSERT(real.ok, "realization failed for an enumerated point");

    // Record the would-be commit: shifted local cells (row lists keep
    // their order) and the target slot. Nothing is mutated here.
    for (int i = 0; i < lp.num_cells(); ++i) {
        const LpCell& c = lp.cell(i);
        const SiteCoord nx = real.new_x[static_cast<std::size_t>(i)];
        if (nx != c.x) {
            res.moves.push_back(MllPlan::Move{c.id, c.x, nx});
        }
    }
    const SiteCoord y_abs = lp.y0() + best_point->k0;

    res.status = MllStatus::kSuccess;
    res.x = real.xt;
    res.y = y_abs;
    res.est_cost_um = best_eval.cost_um;
    res.real_cost_um =
        real.moved_sites * lp.site_w_um() +
        std::abs(static_cast<double>(real.xt) - pref_x) * lp.site_w_um() +
        std::abs(static_cast<double>(y_abs) - pref_y) * lp.site_h_um();
    return res;
}

void mll_commit(Database& db, SegmentGrid& grid, CellId target_cell,
                const MllPlan& plan) {
    MRLG_ASSERT(plan.success(), "can only commit a successful MLL plan");
    const Cell& target = db.cell(target_cell);
    MRLG_ASSERT(!target.placed(), "MLL commit target must be unplaced");

    // Every move base must still hold (a shifted base means another
    // commit touched this plan's footprint) ...
    for (const MllPlan::Move& m : plan.moves) {
        Cell& c = db.cell(m.id);
        MRLG_ASSERT(c.placed() && c.x() == m.old_x,
                    "stale MLL plan: a cell it shifts has moved");
        c.set_x(m.new_x);
    }
    // ... and after the shifts the target slot must be free.
    const Rect slot{plan.x, plan.y, target.width(), target.height()};
    MRLG_ASSERT(grid.placeable(db, slot, CellId{}, target.region()),
                "stale MLL plan: target slot is taken");
    grid.place(db, target_cell, plan.x, plan.y);
    MRLG_OBS_COUNT("mll.commits", 1);
    MRLG_OBS_COUNT("mll.cells_shifted", plan.moves.size());
}

void count_mll_attempt(const MllPlan& plan, const MllOptions& opts) {
    MRLG_OBS_COUNT("mll.attempts", 1);
    if (plan.status == MllStatus::kNoRegion) {
        MRLG_OBS_COUNT("mll.no_region", 1);
        return;
    }
    if (plan.enumeration_truncated) {
        MRLG_OBS_COUNT("mll.enumerations_truncated", 1);
    }
    if (!opts.use_mip && plan.num_points > 0) {
        MRLG_OBS_COUNT("mll.points_evaluated", plan.num_points);
    }
    if (plan.status == MllStatus::kNoInsertionPoint) {
        MRLG_OBS_COUNT("mll.no_insertion_point", 1);
    }
}

MllPlan mll_place(Database& db, SegmentGrid& grid, CellId target_cell,
                  double pref_x, double pref_y, const MllOptions& opts,
                  MllScratch* scratch) {
    MllPlan plan =
        mll_plan(db, grid, target_cell, pref_x, pref_y, opts, scratch);
    count_mll_attempt(plan, opts);
    if (plan.success()) {
        mll_commit(db, grid, target_cell, plan);
    }
    return plan;
}

void mll_undo(Database& db, SegmentGrid& grid, CellId target_cell,
              const MllPlan& plan) {
    MRLG_ASSERT(plan.success(), "can only undo a successful MLL commit");
    grid.remove(db, target_cell);
    // Restoring x values cannot change any row list's relative order:
    // shifted cells return to positions that were legal before the move.
    for (const MllPlan::Move& m : plan.moves) {
        db.cell(m.id).set_x(m.old_x);
    }
}

}  // namespace mrlg
