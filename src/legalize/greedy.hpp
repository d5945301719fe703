#pragma once
/// \file greedy.hpp
/// Greedy ("Tetris"-style, Hill [7]) mixed-size legalizer baseline: cells
/// are processed once in a chosen order and snapped to the nearest free
/// legal position; *placed cells never move*. The paper's introduction
/// argues this class of legalizers suffers high displacement at high
/// design density — bench_baselines quantifies that claim against MLL.

#include <cstdint>
#include <optional>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

struct GreedyOptions {
    bool check_rail = true;
    enum class Order {
        kLeftToRight,    ///< Classic Tetris order (by gp x).
        kInputOrder,
        kAreaDescending, ///< Big cells first — helps multi-row cells fit.
    };
    Order order = Order::kLeftToRight;
};

struct GreedyStats {
    bool success = false;
    std::size_t num_cells = 0;
    std::size_t unplaced = 0;
    double runtime_s = 0.0;
};

/// Legalizes every movable cell greedily. Cells that fit nowhere remain
/// unplaced (success = false).
GreedyStats greedy_legalize(Database& db, SegmentGrid& grid,
                            const GreedyOptions& opts = {});

/// Nearest completely free legal position for `cell` around the preferred
/// fractional position (px, py), without moving any placed cell (the
/// greedy baseline's inner search). The cost is |x − px|·site_w +
/// |y − py|·site_h. Returns nullopt when no free slot exists, including
/// for a cell taller than the die. px and py must be finite.
///
/// The search is local. Rows come outward from py in order of |y − py|;
/// on equal |y − py| the lower row goes first. Rail-incompatible rows are
/// skipped when `check_rail` is set, and the walk stops at the first row
/// whose y cost alone cannot beat the best slot found. Within a row, the
/// free gaps are merged over the h covered rows inside an x window around
/// px, which doubles until no gap outside it can win. Among gaps, the
/// smaller |x − px| wins, and on equal distance the leftmost gap. The
/// result equals that of scanning every row and every gap.
///
/// Also used by the full legalizer as a deterministic fallback when the
/// randomized retry rounds of Algorithm 1 keep missing the remaining free
/// space on very dense designs, and by the generator's hidden packing.
std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell, double px,
                                                double py, bool check_rail);

}  // namespace mrlg
