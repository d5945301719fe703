#include "legalize/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "eval/legality.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// Initial reach (sites) of the x window around px; doubled until the
/// window's answer is provably the whole row's answer.
constexpr double kInitialReach = 32.0;

/// Nearest feasible x to px for a (w × h) footprint with bottom row y,
/// searched only inside the x window `win` (which the caller keeps inside
/// the covered rows' common extent). Merges the blocked intervals of all
/// covered rows inside `win` and scans the free gaps left to right: the
/// smaller |x − px| wins, the leftmost gap on equal distance. Sets
/// `best_d` to the winner's distance (max double when none fits).
std::optional<SiteCoord> nearest_free_x_in(const Database& db,
                                           const SegmentGrid& grid,
                                           SiteCoord y, double px,
                                           SiteCoord w, SiteCoord h,
                                           int region, Span win,
                                           std::vector<Span>& blocked,
                                           double& best_d) {
    // Blocked spans: segment gaps (blockages) + placed cells.
    blocked.clear();
    for (SiteCoord r = y; r < y + h; ++r) {
        SiteCoord cursor = win.lo;
        for (const SegmentId sid : grid.row_segments(r)) {
            const Segment& seg = grid.segment(sid);
            const Span s = intersect(seg.span, win);
            if (s.empty()) {
                continue;
            }
            if (seg.region != region) {
                blocked.push_back(s);  // other regions are hard walls
                continue;
            }
            if (s.lo > cursor) {
                blocked.push_back(Span{cursor, s.lo});
            }
            cursor = std::max(cursor, s.hi);
            const auto [first, last] = grid.cells_overlapping(db, seg, win);
            for (std::size_t i = first; i < last; ++i) {
                const Cell& c = db.cell(seg.cells[i]);
                blocked.push_back(Span{c.x(), c.x() + c.width()});
            }
        }
        if (cursor < win.hi) {
            blocked.push_back(Span{cursor, win.hi});
        }
    }
    std::sort(blocked.begin(), blocked.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });

    // Scan free gaps between merged blocked spans.
    std::optional<SiteCoord> best;
    best_d = std::numeric_limits<double>::max();
    auto consider_gap = [&](SiteCoord lo, SiteCoord hi) {
        if (hi - lo < w) {
            return;
        }
        const double xc = std::clamp(px, static_cast<double>(lo),
                                     static_cast<double>(hi - w));
        const SiteCoord x = std::clamp<SiteCoord>(
            static_cast<SiteCoord>(std::lround(xc)), lo,
            static_cast<SiteCoord>(hi - w));
        const double d = std::abs(static_cast<double>(x) - px);
        if (d < best_d) {
            best_d = d;
            best = x;
        }
    };
    SiteCoord cursor = win.lo;
    for (const Span& b : blocked) {
        if (b.lo > cursor) {
            consider_gap(cursor, b.lo);
        }
        cursor = std::max(cursor, b.hi);
    }
    if (cursor < win.hi) {
        consider_gap(cursor, win.hi);
    }
    return best;
}

/// `v` clamped to [lo, hi] and converted; safe for any finite v.
SiteCoord clamp_to_sites(double v, SiteCoord lo, SiteCoord hi) {
    if (v <= static_cast<double>(lo)) {
        return lo;
    }
    if (v >= static_cast<double>(hi)) {
        return hi;
    }
    return static_cast<SiteCoord>(v);
}

/// Nearest feasible x to px for a (w × h) footprint with bottom row y, or
/// nullopt: the whole row's answer, found from a window around px.
///
/// The window is [⌊px⌋ − R, ⌈px⌉ + w + R] clipped to the covered rows'
/// common extent, with R = 32, 64, ... Every gap's candidate x is
/// clamp(lround(px), lo, hi − w), and lround(px) lies inside the window, so
/// a gap the window cuts keeps its candidate unless the cut leaves it too
/// short to fit. A gap missed or cut that way lies wholly beyond a clipped
/// edge: its distance is at least px − W_lo + 1 (left edge) or
/// W_hi − w − px + 1 (right edge). So once the window's best distance is
/// below both margins, no gap outside can win or tie it, and the winner
/// and its leftmost-on-ties order are the whole row's. A window that
/// reaches both row ends is the whole row.
std::optional<SiteCoord> nearest_free_x(const Database& db,
                                        const SegmentGrid& grid, SiteCoord y,
                                        double px, SiteCoord w, SiteCoord h,
                                        int region,
                                        std::vector<Span>& blocked) {
    // Usable x range: intersection of covered rows' extents.
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + h; ++r) {
        const Row& row = db.floorplan().row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi, static_cast<SiteCoord>(row.x + row.num_sites));
    }
    if (x_hi - x_lo < w) {
        return std::nullopt;
    }

    for (double reach = kInitialReach;; reach *= 2.0) {
        const Span win{
            clamp_to_sites(std::floor(px) - reach, x_lo, x_hi),
            clamp_to_sites(std::ceil(px) + static_cast<double>(w) + reach,
                           x_lo, x_hi)};
        double best_d = 0.0;
        const auto best = nearest_free_x_in(db, grid, y, px, w, h, region,
                                            win, blocked, best_d);
        const bool lo_clipped = win.lo > x_lo;
        const bool hi_clipped = win.hi < x_hi;
        if (!lo_clipped && !hi_clipped) {
            return best;
        }
        double margin = std::numeric_limits<double>::max();
        if (lo_clipped) {
            margin = std::min(margin, px - static_cast<double>(win.lo));
        }
        if (hi_clipped) {
            margin = std::min(margin, static_cast<double>(win.hi - w) - px);
        }
        if (best && best_d < margin) {
            return best;
        }
    }
}

}  // namespace

std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell_id, double px,
                                                double py, bool check_rail) {
    MRLG_ASSERT(std::isfinite(px) && std::isfinite(py),
                "free-slot search needs a finite preferred position");
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const double sw = fp.site_w_um();
    const double sh = fp.site_h_um();
    const SiteCoord h = cell.height();
    if (h > fp.num_rows()) {
        return std::nullopt;  // taller than the die
    }
    const SiteCoord max_y = fp.num_rows() - h;
    auto usable = [&](SiteCoord y) {
        return !check_rail || rail_compatible(y, h, cell.rail_phase());
    };

    // Rows in order of |y − py|, generated outward from py: `down` walks
    // ⌊py⌋, ⌊py⌋ − 1, ... and `up` walks ⌊py⌋ + 1, ..., both clamped to
    // [0, max_y]. On equal |dy| the lower row goes first.
    const double fy = std::floor(py);
    SiteCoord down = clamp_to_sites(fy, -1, max_y);
    SiteCoord up = clamp_to_sites(fy + 1.0, 0, max_y + 1);
    std::vector<Span> blocked;
    double best_cost = std::numeric_limits<double>::max();
    std::optional<Point> best;
    for (;;) {
        while (down >= 0 && !usable(down)) {
            --down;
        }
        while (up <= max_y && !usable(up)) {
            ++up;
        }
        if (down < 0 && up > max_y) {
            break;
        }
        const double dy_down = down >= 0
                                   ? py - static_cast<double>(down)
                                   : std::numeric_limits<double>::max();
        const double dy_up = up <= max_y
                                 ? static_cast<double>(up) - py
                                 : std::numeric_limits<double>::max();
        const SiteCoord y = dy_down <= dy_up ? down-- : up++;
        const double y_cost = std::min(dy_down, dy_up) * sh;
        if (y_cost >= best_cost) {
            break;  // rows come in |dy| order; nothing further can win
        }
        const auto x = nearest_free_x(db, grid, y, px, cell.width(), h,
                                      cell.region(), blocked);
        if (!x) {
            continue;
        }
        const double cost =
            y_cost + std::abs(static_cast<double>(*x) - px) * sw;
        if (cost < best_cost) {
            best_cost = cost;
            best = Point{*x, y};
        }
    }
    return best;
}

GreedyStats greedy_legalize(Database& db, SegmentGrid& grid,
                            const GreedyOptions& opts) {
    GridWriteScope grid_write;
    Timer timer;
    GreedyStats stats;
    std::vector<CellId> order = db.movable_cells();
    stats.num_cells = order.size();
    switch (opts.order) {
        case GreedyOptions::Order::kLeftToRight:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 return db.cell(a).gp_x() < db.cell(b).gp_x();
                             });
            break;
        case GreedyOptions::Order::kInputOrder:
            break;
        case GreedyOptions::Order::kAreaDescending:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 const auto& ca = db.cell(a);
                                 const auto& cb = db.cell(b);
                                 return ca.width() * ca.height() >
                                        cb.width() * cb.height();
                             });
            break;
    }

    for (const CellId c : order) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }

    for (const CellId c : order) {
        const Cell& cell = db.cell(c);
        const auto best = find_nearest_free_position(
            db, grid, c, cell.gp_x(), cell.gp_y(), opts.check_rail);
        if (best) {
            grid.place(db, c, best->x, best->y);
        } else {
            ++stats.unplaced;
        }
    }
    stats.success = stats.unplaced == 0;
    stats.runtime_s = timer.elapsed_s();
    return stats;
}

}  // namespace mrlg
