#pragma once
/// \file mll.hpp
/// Multi-row Local Legalization (paper §4): insert one unplaced target cell
/// near a preferred position, shifting local cells minimally in x.
///
/// Pipeline: window → local region extraction → leftmost/rightmost packing
/// → insertion intervals → scanline enumeration → per-point evaluation
/// (neighbour approximation by default, exact optionally; one serial scan
/// in point order, the first strictly cheaper point wins) → realization of
/// the best point → commit to the database/segment grid.
/// On failure nothing is modified (the paper's abort semantics).
///
/// The operation is split into a read-only planning half (mll_plan) and a
/// mutating commit half (mll_commit) so the legalizer's region-parallel
/// pipeline can compute many plans concurrently against a frozen grid and
/// apply them serially in queue order. mll_place composes the two and is
/// the drop-in serial entry point. Every entry point reports an attempt as
/// one MllPlan, and count_mll_attempt is the one function that turns it
/// into the per-attempt mll.* counters.

#include "check/audit.hpp"
#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/evaluation.hpp"

namespace mrlg {

struct MllOptions {
    SiteCoord rx = 30;  ///< Window half-width (paper: Rx = 30).
    SiteCoord ry = 5;   ///< Window half-height (paper: Ry = 5).
    bool check_rail = true;
    /// Evaluate insertion points exactly (push chains over every cell the
    /// target can push) instead of the paper's O(h_t) neighbour
    /// approximation. With exact evaluation the chosen solution is optimal
    /// for the local subproblem — this is the "ILP" configuration of
    /// Table 1 (see DESIGN.md substitution notes).
    bool exact_evaluation = false;
    /// Solve each local problem with the actual MIP formulation (our
    /// simplex + branch & bound, the lpsolve stand-in) instead of
    /// enumeration. Equally optimal, orders of magnitude slower — used to
    /// reproduce the paper's 185x ILP runtime ratio (bench_table1
    /// --true-ilp). Takes precedence over exact_evaluation.
    bool use_mip = false;
    std::size_t max_points = 1u << 20;
    /// Invariant-audit level for this attempt. At kFull every extraction
    /// is checked against the §2.1.3 post-conditions and every min/max
    /// packing against the §5.1.1 bounds (audit_local.hpp) before the
    /// result is trusted; violations throw AssertionError. kOff/kCheap
    /// skip the per-attempt audits (the legalizer still audits the grid
    /// at phase boundaries).
    AuditLevel audit = AuditLevel::kOff;
    /// Ignored: the insertion-point scan is serial, and the legalizer's
    /// cell-level plan fan-out takes LegalizerOptions::num_threads. Kept
    /// only until its last writer, the mrlg_bench stage replay, drops it.
    int num_threads = 0;
};

/// Reusable buffers shared by successive mll_plan/mll_place calls (the
/// legalizer holds one per plan thread and one for rip-up). Optional —
/// with nullptr a call uses a scratch of its own.
struct MllScratch {
    LocalRegionScratch region;
    LocalProblemScratch problem;
    EvalScratch eval;
};

enum class MllStatus {
    kSuccess,
    kNoInsertionPoint,  ///< Region extracted but no feasible point.
    kNoRegion,          ///< Window contains no usable rows.
};

/// The one record of an MLL attempt: the chosen insertion point and the
/// realized x of every shifted local cell (paper Algorithm 2), or the
/// reason no point exists. Produced by mll_plan (read-only over db/grid),
/// applied by mll_commit, reverted by mll_undo, and returned by mll_place.
struct MllPlan {
    MllStatus status = MllStatus::kNoRegion;
    SiteCoord x = 0;  ///< Planned target position (success only).
    SiteCoord y = 0;
    double est_cost_um = 0.0;   ///< Evaluator cost of the chosen point.
    double real_cost_um = 0.0;  ///< Realized displacement cost, microns.
    std::size_t num_points = 0;
    std::size_t num_local_cells = 0;
    bool enumeration_truncated = false;
    /// One shifted local cell. `old_x` is the position the plan was
    /// computed against; commit validates it before applying `new_x`. MLL
    /// only ever changes x (rows and orders are invariant), so an exact
    /// undo is "restore every old_x and remove the target".
    struct Move {
        CellId id;
        SiteCoord old_x = 0;
        SiteCoord new_x = 0;
    };
    std::vector<Move> moves;  ///< Shifted cells, row-list order.

    bool success() const { return status == MllStatus::kSuccess; }
};

/// The MLL window of paper §3 for a `width` x `height` cell preferring
/// (pref_x, pref_y): lower-left (x - Rx, y - Ry), size (2Rx + w) x
/// (2Ry + h), anchored at the rounded preferred position.
Rect mll_window(const MllOptions& opts, SiteCoord width, SiteCoord height,
                double pref_x, double pref_y);

/// Read-only planning half of MLL: computes where `target_cell` (must be
/// unplaced) would be inserted near (pref_x, pref_y) and which local cells
/// would shift, without mutating `db` or `grid`. Safe to run concurrently
/// with other mll_plan calls on the same db/grid as long as nothing
/// mutates them; pass a per-thread scratch. Counts nothing: the caller
/// reports the plan it keeps through count_mll_attempt.
MRLG_EFFECT_READONLY
MllPlan mll_plan(const Database& db, const SegmentGrid& grid,
                 CellId target_cell, double pref_x, double pref_y,
                 const MllOptions& opts = {}, MllScratch* scratch = nullptr);

/// Applies a successful plan: shifts the moved cells and registers the
/// target. The plan must still match the live grid — every move base
/// unchanged and the target slot placeable after the shifts. A stale plan
/// means a caller let another commit into this plan's footprint (the
/// region-parallel schedule rules that out), so it throws AssertionError,
/// possibly after applying some shifts. Counts mll.commits and
/// mll.cells_shifted.
void mll_commit(Database& db, SegmentGrid& grid, CellId target_cell,
                const MllPlan& plan) MRLG_REQUIRES(grid_write_cap());

/// Exactly reverts a committed plan: removes the target and restores every
/// shifted cell to its old_x. The grid must not have been modified in
/// between.
void mll_undo(Database& db, SegmentGrid& grid, CellId target_cell,
              const MllPlan& plan) MRLG_REQUIRES(grid_write_cap());

/// Emits the per-attempt mll.* counters for one attempt's final plan:
/// mll.attempts always; then mll.no_region, or mll.enumerations_truncated,
/// mll.points_evaluated (enumeration only) and mll.no_insertion_point as
/// they apply. The single emitter behind mll_place and the legalizer's
/// commit, so both report an attempt identically.
void count_mll_attempt(const MllPlan& plan, const MllOptions& opts);

/// Places `target_cell` (must be unplaced) as close as possible to the
/// preferred fractional position (pref_x, pref_y), legalizing the local
/// neighbourhood. Commits on success; leaves everything untouched on
/// failure. Equivalent to mll_plan, count_mll_attempt and (on success)
/// mll_commit; returns the plan, which mll_undo accepts.
MllPlan mll_place(Database& db, SegmentGrid& grid, CellId target_cell,
                  double pref_x, double pref_y, const MllOptions& opts = {},
                  MllScratch* scratch = nullptr)
    MRLG_REQUIRES(grid_write_cap());

}  // namespace mrlg
