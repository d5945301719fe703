#pragma once
/// \file local_problem.hpp
/// Dense, index-based view of one localized legalization problem. All MLL
/// stages (min/max placement, interval construction, enumeration,
/// evaluation, realization) operate on this structure; the Database is only
/// touched when a chosen solution is committed.
///
/// Concurrency contract: build() reads the Database/SegmentGrid without
/// mutating them, and every buffer it fills lives in the LocalProblem or
/// the caller-supplied scratch. The legalizer's region-parallel plan phase
/// relies on this to build many LocalProblems concurrently against the
/// shared grid — one LocalProblem + scratch per worker thread, never
/// shared across threads.

#include <unordered_map>
#include <vector>

#include "db/database.hpp"
#include "legalize/local_region.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// Reusable buffers for LocalProblem::build (one build per MLL attempt).
struct LocalProblemScratch {
    std::unordered_map<CellId, int> index_of;
};

/// A local cell, indexed 0..num_cells-1 within the problem.
struct LpCell {
    CellId id;
    SiteCoord x = 0;  ///< Current x (site units).
    SiteCoord w = 0;
    SiteCoord y = 0;  ///< Current bottom row (absolute).
    SiteCoord h = 0;
    SiteCoord xl = 0;  ///< Leftmost feasible x (filled by compute_minmax).
    SiteCoord xr = 0;  ///< Rightmost feasible x (filled by compute_minmax).
    int k0 = 0;        ///< Local row index of the bottom row.
    /// First of the cell's h entries in LocalProblem::slots(); entry j is
    /// the cell on local row k0 + j.
    int slot0 = 0;
};

/// One (cell, row) pair: where the cell sits in the row's cell list and
/// which cells flank it there.
struct LpSlot {
    int pos = -1;    ///< Index of the cell in the row's cell list.
    int left = -1;   ///< Left neighbour's cell index, or -1 (segment wall).
    int right = -1;  ///< Right neighbour's cell index, or -1 (segment wall).
};

/// A local row: its span and the local cells crossing it, in x order.
struct LpRow {
    bool present = false;
    SiteCoord y = 0;  ///< Absolute row index.
    Span span;        ///< Usable x range (walls at both ends).
    std::vector<int> cells;  ///< Local-cell indices, ordered by x.
};

/// The extracted local problem. Row k corresponds to absolute row y0 + k.
class LocalProblem {
public:
    MRLG_EFFECT_READONLY
    static LocalProblem build(const Database& db, const LocalRegion& region,
                              LocalProblemScratch* scratch = nullptr);

    int num_rows() const { return static_cast<int>(rows_.size()); }
    bool has_row(int k) const {
        return k >= 0 && k < num_rows() &&
               rows_[static_cast<std::size_t>(k)].present;
    }
    const LpRow& row(int k) const { return rows_[static_cast<std::size_t>(k)]; }
    SiteCoord y0() const { return y0_; }

    const std::vector<LpCell>& cells() const { return cells_; }
    std::vector<LpCell>& mutable_cells() { return cells_; }
    const LpCell& cell(int i) const {
        return cells_[static_cast<std::size_t>(i)];
    }
    int num_cells() const { return static_cast<int>(cells_.size()); }

    /// Cell `ci` on local row cell(ci).k0 + j, for 0 <= j < cell(ci).h.
    const LpSlot& slot(int ci, int j) const {
        return slots_[static_cast<std::size_t>(
            cells_[static_cast<std::size_t>(ci)].slot0 + j)];
    }
    /// Every cell's slots, cell by cell (LpCell::slot0 indexes into it).
    const std::vector<LpSlot>& slots() const { return slots_; }

    /// Cell indices sorted by current x ascending (ties by index). Shared
    /// by min/max placement and realization.
    const std::vector<int>& by_x() const { return by_x_; }

    double site_w_um() const { return site_w_um_; }
    double site_h_um() const { return site_h_um_; }

private:
    SiteCoord y0_ = 0;
    std::vector<LpRow> rows_;
    std::vector<LpCell> cells_;
    std::vector<LpSlot> slots_;
    std::vector<int> by_x_;
    double site_w_um_ = 1.0;
    double site_h_um_ = 1.0;
};

}  // namespace mrlg
