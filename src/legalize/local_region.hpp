#pragma once
/// \file local_region.hpp
/// Local region extraction (paper §2.1.3): given a window W, select one
/// "local segment" per row (the non-blocked, non-local-cell-free run
/// closest to the window centre) and classify cells into local (free to
/// shift in x during MLL) and non-local (frozen, acting as obstacles).

#include <optional>
#include <unordered_set>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// One row's selected local segment.
struct LocalRow {
    SiteCoord y = 0;           ///< Absolute row index.
    Span span;                 ///< Absolute x range of the local segment.
    SegmentId global_segment;  ///< Enclosing SegmentGrid segment.
    /// Local cells whose footprint crosses this row, ordered by x.
    std::vector<CellId> cells;
};

/// Extracted localized placement problem. Row k of the region corresponds
/// to absolute row y0() + k; a row may be absent (no usable segment).
class LocalRegion {
public:
    LocalRegion(Rect window, SiteCoord y0, std::size_t height)
        : window_(window), y0_(y0), rows_(height) {}

    const Rect& window() const { return window_; }
    SiteCoord y0() const { return y0_; }
    int height() const { return static_cast<int>(rows_.size()); }

    bool has_row(int k) const {
        return k >= 0 && k < height() && rows_[static_cast<std::size_t>(k)];
    }
    const LocalRow& row(int k) const { return *rows_[static_cast<std::size_t>(k)]; }

    /// All distinct local cells (a multi-row cell is listed once).
    const std::vector<CellId>& local_cells() const { return local_cells_; }

    /// Local row index for absolute row y, or -1 when outside the region.
    int row_index(SiteCoord y) const {
        const SiteCoord k = y - y0_;
        return (k >= 0 && k < static_cast<SiteCoord>(rows_.size()))
                   ? static_cast<int>(k)
                   : -1;
    }

    // Builder access (used by extract_local_region).
    std::optional<LocalRow>& mutable_row(int k) {
        return rows_[static_cast<std::size_t>(k)];
    }
    void set_local_cells(std::vector<CellId> cells) {
        local_cells_ = std::move(cells);
    }

private:
    Rect window_;
    SiteCoord y0_;
    std::vector<std::optional<LocalRow>> rows_;
    std::vector<CellId> local_cells_;
};

/// Reusable buffers for extract_local_region. The legalizer extracts one
/// region per MLL attempt (thousands per run); passing the same scratch to
/// every call keeps the per-row piece vectors, the blocker set and the
/// local-cell list at their high-water capacity instead of reallocating
/// them each time. A default-constructed scratch is always valid.
struct LocalRegionScratch {
    struct RowScratch {
        std::vector<Span> pieces;
        std::vector<SegmentId> piece_segment;
        std::optional<std::size_t> chosen;
    };
    std::vector<RowScratch> rows;
    std::unordered_set<CellId> blockers;
    std::vector<CellId> locals;
    std::vector<Span> seg_pieces;  ///< per-segment piece accumulator.
    std::vector<Span> span_tmp;    ///< subtract() double-buffer.
};

/// Conservative bound on everything one legalization attempt (direct
/// placement try + MLL plan/commit) may read or write, as row/x spans in
/// site units. Two attempts whose footprints are disjoint can be planned
/// against the same frozen grid and committed in either order with
/// identical results — the invariant behind the legalizer's region-parallel
/// pipeline (see legalize/pipeline.hpp for the schedule that enforces it).
struct AttemptFootprint {
    Span rows;  ///< Absolute row range [lo, hi).
    Span x;     ///< Site range [lo, hi).

    bool overlaps(const AttemptFootprint& o) const {
        return rows.overlaps(o.rows) && x.overlaps(o.x);
    }
};

/// Computes the footprint of an attempt with MLL window `window` and
/// direct-placement rectangle `fitted` (the nearest_aligned_position slot,
/// which clamping can push outside the window).
///
/// Why this bounds the attempt:
///  * Rows: extraction reads only segments of rows intersecting `window`
///    (extract_local_region clips to it) and the direct try reads only
///    `fitted`'s rows; realization shifts cells whose slices lie in chosen
///    pieces, i.e. inside the window, and the commit registers the target
///    inside window ∪ fitted. No read or write leaves hull(window, fitted)
///    vertically.
///  * X: every piece is clipped to the window x-span and the direct try is
///    confined to fitted's x-span, but *reads* include any cell whose
///    slice overlaps those spans — a cell of width ≤ max_cell_width
///    overlapping [lo, hi) has its origin in [lo - (max_cell_width - 1),
///    hi), and its full slice lies in [lo - (max_cell_width - 1),
///    hi + (max_cell_width - 1)). Padding the hull by max_cell_width - 1
///    on both sides therefore covers the read set; writes are a subset.
AttemptFootprint compute_attempt_footprint(const Rect& window,
                                           const Rect& fitted,
                                           SiteCoord max_cell_width);

/// Extracts the localized problem inside `window`.
///
/// Implementation note: the paper defines non-local cells in two layers
/// (cells not fully inside W, then cells inside W but not contained in the
/// chosen local segments). A cell of the second kind that overlaps a chosen
/// local segment must additionally *cut* it (it will not move, so its sites
/// are unusable). We run the selection to a fixpoint: blockers accumulate
/// monotonically, so this terminates.
MRLG_EFFECT_READONLY
LocalRegion extract_local_region(const Database& db, const SegmentGrid& grid,
                                 const Rect& window, int fence_region = 0,
                                 LocalRegionScratch* scratch = nullptr);

}  // namespace mrlg
