#include "legalize/local_problem.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/assert.hpp"

namespace mrlg {

LocalProblem LocalProblem::build(const Database& db,
                                 const LocalRegion& region,
                                 LocalProblemScratch* scratch) {
    LocalProblem lp;
    lp.y0_ = region.y0();
    lp.site_w_um_ = db.floorplan().site_w_um();
    lp.site_h_um_ = db.floorplan().site_h_um();
    lp.rows_.resize(static_cast<std::size_t>(region.height()));

    LocalProblemScratch local_scratch;
    std::unordered_map<CellId, int>& index_of =
        (scratch != nullptr ? *scratch : local_scratch).index_of;
    index_of.clear();
    index_of.reserve(region.local_cells().size());
    lp.cells_.reserve(region.local_cells().size());
    int num_slots = 0;
    for (const CellId id : region.local_cells()) {
        const Cell& c = db.cell(id);
        const int idx = static_cast<int>(lp.cells_.size());
        index_of.emplace(id, idx);
        LpCell lc;
        lc.id = id;
        lc.x = c.x();
        lc.w = c.width();
        lc.y = c.y();
        lc.h = c.height();
        lc.k0 = region.row_index(c.y());
        MRLG_ASSERT(lc.k0 >= 0, "local cell outside region rows");
        lc.slot0 = num_slots;
        num_slots += lc.h;
        lp.cells_.push_back(lc);
    }
    lp.slots_.assign(static_cast<std::size_t>(num_slots), LpSlot{});

    for (int k = 0; k < region.height(); ++k) {
        LpRow& row = lp.rows_[static_cast<std::size_t>(k)];
        if (!region.has_row(k)) {
            continue;
        }
        const LocalRow& lr = region.row(k);
        row.present = true;
        row.y = lr.y;
        row.span = lr.span;
        row.cells.reserve(lr.cells.size());
        for (const CellId id : lr.cells) {
            const auto it = index_of.find(id);
            MRLG_ASSERT(it != index_of.end(),
                        "row lists a cell missing from local set");
            const int ci = it->second;
            const LpCell& lc = lp.cells_[static_cast<std::size_t>(ci)];
            const int j = k - lc.k0;
            MRLG_ASSERT(j >= 0 && j < lc.h, "cell listed on a row outside "
                                            "its footprint");
            LpSlot& s = lp.slots_[static_cast<std::size_t>(lc.slot0 + j)];
            s.pos = static_cast<int>(row.cells.size());
            if (!row.cells.empty()) {
                const int left = row.cells.back();
                s.left = left;
                const LpCell& lcl = lp.cells_[static_cast<std::size_t>(left)];
                lp.slots_[static_cast<std::size_t>(lcl.slot0 + k - lcl.k0)]
                    .right = ci;
            }
            row.cells.push_back(ci);
        }
    }

    for (const LpSlot& s : lp.slots_) {
        MRLG_ASSERT(s.pos >= 0, "local cell missing from a row list");
    }

    lp.by_x_.resize(lp.cells_.size());
    for (std::size_t i = 0; i < lp.cells_.size(); ++i) {
        lp.by_x_[i] = static_cast<int>(i);
    }
    std::sort(lp.by_x_.begin(), lp.by_x_.end(), [&](int a, int b) {
        const LpCell& ca = lp.cells_[static_cast<std::size_t>(a)];
        const LpCell& cb = lp.cells_[static_cast<std::size_t>(b)];
        return ca.x < cb.x || (ca.x == cb.x && a < b);
    });
    return lp;
}

}  // namespace mrlg
