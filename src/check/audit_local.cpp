#include "check/audit_local.hpp"

#include <algorithm>
#include <sstream>

namespace mrlg {

namespace {

std::string lr_who(const Database& db, CellId id) {
    std::ostringstream os;
    os << "cell '" << db.cell(id).name() << "' (#" << id << ")";
    return os.str();
}

/// Whether cell i's h slots lie inside the problem's slot array.
bool slots_in_range(const LocalProblem& lp, int i) {
    const LpCell& c = lp.cell(i);
    return c.slot0 >= 0 && c.h >= 0 &&
           static_cast<std::size_t>(c.slot0) + static_cast<std::size_t>(c.h) <=
               lp.slots().size();
}

}  // namespace

AuditReport audit_local_region(const Database& db, const SegmentGrid& grid,
                               const LocalRegion& region, int fence_region) {
    AuditReport r;
    r.scope = "local-region";
    const std::vector<CellId>& locals = region.local_cells();

    if (!std::is_sorted(locals.begin(), locals.end()) ||
        std::adjacent_find(locals.begin(), locals.end()) != locals.end()) {
        r.add("lr-locals-sorted",
              "local_cells() not sorted or contains duplicates");
    }
    const auto is_local = [&](CellId c) {
        return std::binary_search(locals.begin(), locals.end(), c);
    };

    std::size_t listed = 0;
    for (int k = 0; k < region.height(); ++k) {
        if (!region.has_row(k)) {
            continue;
        }
        const LocalRow& row = region.row(k);
        const SiteCoord y = region.y0() + static_cast<SiteCoord>(k);
        if (row.y != y) {
            std::ostringstream os;
            os << "local row " << k << " claims absolute row " << row.y
               << ", expected " << y;
            r.add("lr-row-index", os.str());
        }
        if (row.span.empty()) {
            std::ostringstream os;
            os << "local row " << k << " has empty span " << row.span;
            r.add("lr-span", os.str());
        }
        if (!region.window().x_span().contains(row.span)) {
            std::ostringstream os;
            os << "local row " << k << " span " << row.span
               << " leaves the window " << region.window().x_span();
            r.add("lr-span", os.str());
        }
        if (!row.global_segment.valid()) {
            std::ostringstream os;
            os << "local row " << k << " has no enclosing segment";
            r.add("lr-segment", os.str());
            continue;
        }
        const Segment& seg = grid.segment(row.global_segment);
        if (seg.y != row.y || !seg.span.contains(row.span) ||
            seg.region != fence_region) {
            std::ostringstream os;
            os << "local row " << k << " span " << row.span
               << " not enclosed by segment #" << seg.id << " (row " << seg.y
               << " span " << seg.span << " region " << seg.region << ")";
            r.add("lr-segment", os.str());
        }

        SiteCoord prev_end = row.span.lo;
        for (const CellId cid : row.cells) {
            const Cell& c = db.cell(cid);
            ++listed;
            if (!c.placed()) {
                r.add("lr-cell-placed",
                      "unplaced " + lr_who(db, cid) + " listed as local");
                continue;
            }
            if (c.y() > row.y || c.y() + c.height() <= row.y) {
                std::ostringstream os;
                os << lr_who(db, cid) << " does not cross local row " << k;
                r.add("lr-cell-row", os.str());
            }
            if (c.x() < row.span.lo || c.x() + c.width() > row.span.hi) {
                std::ostringstream os;
                os << lr_who(db, cid) << " outside local row " << k
                   << " span " << row.span;
                r.add("lr-cell-span", os.str());
            }
            if (!region.window().contains(c.rect())) {
                r.add("lr-cell-window",
                      lr_who(db, cid) + " not fully inside the window");
            }
            if (c.x() < prev_end) {
                r.add("lr-cell-order",
                      "overlap or order violation before " + lr_who(db, cid) +
                          " on local row " + std::to_string(k));
            }
            prev_end = c.x() + c.width();
            if (!is_local(cid)) {
                r.add("lr-locals-list",
                      lr_who(db, cid) + " listed on a row but missing from "
                                        "local_cells()");
            }
        }

        // Frozen non-local cells act as obstacles: none may intersect the
        // chosen span (their sites would have been subtracted in §2.1.3).
        const auto [first, last] = grid.cells_overlapping(db, seg, row.span);
        for (std::size_t i = first; i < last; ++i) {
            const CellId cid = seg.cells[i];
            const Cell& c = db.cell(cid);
            const Span xs{c.x(), c.x() + c.width()};
            if (xs.overlaps(row.span) && !is_local(cid)) {
                std::ostringstream os;
                os << "non-local " << lr_who(db, cid)
                   << " intersects local row " << k << " span " << row.span;
                r.add("lr-nonlocal-free", os.str());
            }
        }
    }

    // Every local cell must be listed on each region row it crosses, and
    // the per-row lists must not mention anyone else.
    std::size_t expected_listed = 0;
    for (const CellId cid : locals) {
        const Cell& c = db.cell(cid);
        if (!c.placed()) {
            r.add("lr-cell-placed",
                  "unplaced " + lr_who(db, cid) + " in local_cells()");
            continue;
        }
        for (SiteCoord y = c.y(); y < c.y() + c.height(); ++y) {
            const int k = region.row_index(y);
            ++expected_listed;
            if (k < 0 || !region.has_row(k)) {
                std::ostringstream os;
                os << lr_who(db, cid) << " crosses row " << y
                   << " which has no local segment";
                r.add("lr-cell-rows", os.str());
                continue;
            }
            const auto& cells = region.row(k).cells;
            if (std::find(cells.begin(), cells.end(), cid) == cells.end()) {
                std::ostringstream os;
                os << lr_who(db, cid) << " missing from local row " << k
                   << "'s cell list";
                r.add("lr-cell-rows", os.str());
            }
        }
    }
    if (listed != expected_listed && !r.has("lr-cell-rows") &&
        !r.has("lr-locals-list")) {
        std::ostringstream os;
        os << "row lists hold " << listed << " entries, expected "
           << expected_listed;
        r.add("lr-cell-rows", os.str());
    }
    return r;
}

AuditReport audit_local_problem(const LocalProblem& lp, bool minmax_filled) {
    AuditReport r;
    r.scope = "local-problem";
    const int n = lp.num_cells();

    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const LpRow& row = lp.row(k);
        if (row.y != lp.y0() + static_cast<SiteCoord>(k)) {
            std::ostringstream os;
            os << "lp row " << k << " claims absolute row " << row.y;
            r.add("lp-row-index", os.str());
        }
        if (row.span.empty()) {
            std::ostringstream os;
            os << "lp row " << k << " has empty span " << row.span;
            r.add("lp-row-span", os.str());
        }
        SiteCoord prev_end = row.span.lo;
        for (std::size_t pos = 0; pos < row.cells.size(); ++pos) {
            const int i = row.cells[pos];
            if (i < 0 || i >= n) {
                std::ostringstream os;
                os << "lp row " << k << " references invalid cell index "
                   << i;
                r.add("lp-ref", os.str());
                continue;
            }
            const LpCell& c = lp.cell(i);
            if (c.x < row.span.lo || c.x + c.w > row.span.hi) {
                std::ostringstream os;
                os << "lp cell " << i << " outside lp row " << k << " span "
                   << row.span;
                r.add("lp-span", os.str());
            }
            if (c.x < prev_end) {
                std::ostringstream os;
                os << "overlap or order violation before lp cell " << i
                   << " on lp row " << k;
                r.add("lp-order", os.str());
            }
            prev_end = c.x + c.w;
            const int j = k - c.k0;
            const int left = pos > 0 ? row.cells[pos - 1] : -1;
            const int right =
                pos + 1 < row.cells.size() ? row.cells[pos + 1] : -1;
            if (j < 0 || j >= c.h || !slots_in_range(lp, i) ||
                lp.slot(i, j).pos != static_cast<int>(pos) ||
                lp.slot(i, j).left != left || lp.slot(i, j).right != right) {
                std::ostringstream os;
                os << "lp cell " << i << " slot inconsistent on lp row " << k;
                r.add("lp-pos", os.str());
            }
        }
    }

    for (int i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(i);
        if (c.w <= 0 || c.h <= 0) {
            std::ostringstream os;
            os << "lp cell " << i << " has non-positive size " << c.w << "x"
               << c.h;
            r.add("lp-cell-geometry", os.str());
        }
        if (c.y != lp.y0() + static_cast<SiteCoord>(c.k0)) {
            std::ostringstream os;
            os << "lp cell " << i << " k0 " << c.k0
               << " disagrees with its row " << c.y;
            r.add("lp-cell-row", os.str());
        }
        if (!slots_in_range(lp, i)) {
            std::ostringstream os;
            os << "lp cell " << i << " slots [" << c.slot0 << ", "
               << c.slot0 + c.h << ") outside the " << lp.slots().size()
               << " slots of the problem";
            r.add("lp-pos-size", os.str());
        }
        for (SiteCoord j = 0; j < c.h; ++j) {
            if (!lp.has_row(c.k0 + static_cast<int>(j))) {
                std::ostringstream os;
                os << "lp cell " << i << " crosses absent lp row "
                   << c.k0 + static_cast<int>(j);
                r.add("lp-cell-rows", os.str());
            }
        }
        if (minmax_filled) {
            // §5.1.1: the current (legal) position lies between the
            // leftmost and rightmost packings.
            if (!(c.xl <= c.x && c.x <= c.xr)) {
                std::ostringstream os;
                os << "lp cell " << i << " x " << c.x
                   << " outside min/max bounds [" << c.xl << ", " << c.xr
                   << "]";
                r.add("lp-minmax", os.str());
            }
            for (SiteCoord j = 0; j < c.h; ++j) {
                const int k = c.k0 + static_cast<int>(j);
                if (!lp.has_row(k)) {
                    continue;
                }
                const Span span = lp.row(k).span;
                if (c.xl < span.lo || c.xr + c.w > span.hi) {
                    std::ostringstream os;
                    os << "lp cell " << i << " packing bounds [" << c.xl
                       << ", " << c.xr << "] leave lp row " << k << " span "
                       << span;
                    r.add("lp-minmax-span", os.str());
                }
            }
        }
    }

    if (minmax_filled) {
        // Both packings must preserve each row's cell order without
        // overlap — they are legal placements by construction (Fig. 6).
        for (int k = 0; k < lp.num_rows(); ++k) {
            if (!lp.has_row(k)) {
                continue;
            }
            const auto& cells = lp.row(k).cells;
            for (std::size_t pos = 1; pos < cells.size(); ++pos) {
                const LpCell& a = lp.cell(cells[pos - 1]);
                const LpCell& b = lp.cell(cells[pos]);
                if (a.xl + a.w > b.xl || a.xr + a.w > b.xr) {
                    std::ostringstream os;
                    os << "packing overlap between lp cells "
                       << cells[pos - 1] << " and " << cells[pos]
                       << " on lp row " << k;
                    r.add("lp-minmax-order", os.str());
                }
            }
        }
    }

    // by_x: a permutation of all indices, sorted by (x, index).
    const std::vector<int>& by_x = lp.by_x();
    if (static_cast<int>(by_x.size()) != n) {
        r.add("lp-by-x", "by_x() is not a permutation of the cell indices");
    } else {
        std::vector<bool> seen(static_cast<std::size_t>(n), false);
        bool order_ok = true;
        for (std::size_t pos = 0; pos < by_x.size(); ++pos) {
            const int i = by_x[pos];
            if (i < 0 || i >= n || seen[static_cast<std::size_t>(i)]) {
                r.add("lp-by-x",
                      "by_x() is not a permutation of the cell indices");
                order_ok = false;
                break;
            }
            seen[static_cast<std::size_t>(i)] = true;
            if (pos > 0) {
                const LpCell& a = lp.cell(by_x[pos - 1]);
                const LpCell& b = lp.cell(i);
                if (a.x > b.x || (a.x == b.x && by_x[pos - 1] > i)) {
                    order_ok = false;
                }
            }
        }
        if (!order_ok && !r.has("lp-by-x")) {
            r.add("lp-by-x", "by_x() not sorted by (x, index)");
        }
    }
    return r;
}

}  // namespace mrlg
