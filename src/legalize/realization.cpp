#include "legalize/realization.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

namespace {

bool is_comb_row(const InsertionPoint& p, int k) {
    return k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
}

}  // namespace

Realization realize_insertion(const LocalProblem& lp,
                              const InsertionPoint& point, SiteCoord xt,
                              SiteCoord target_w) {
    MRLG_ASSERT(xt >= point.lo && xt <= point.hi,
                "target x outside the insertion point's feasible range");
    Realization r;
    r.xt = xt;
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());

    // Right side: ascending x. R starts at the current position; pushes
    // only ever increase it.
    std::vector<SiteCoord> R(n);
    for (std::size_t i = 0; i < n; ++i) {
        R[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (const int ci : lp.by_x()) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = R[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const LpSlot& s = lp.slot(ci, j);
            if (is_comb_row(point, k) &&
                s.pos == point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::max<SiteCoord>(x, xt + target_w);
            } else if (s.left >= 0) {
                const int l = s.left;
                const LpCell& lc = lp.cell(l);
                x = std::max<SiteCoord>(
                    x, R[static_cast<std::size_t>(l)] + lc.w);
            }
        }
        R[static_cast<std::size_t>(ci)] = x;
    }

    // Left side: descending x.
    std::vector<SiteCoord> L(n);
    for (std::size_t i = 0; i < n; ++i) {
        L[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (auto it = lp.by_x().rbegin(); it != lp.by_x().rend(); ++it) {
        const int ci = *it;
        const LpCell& c = lp.cell(ci);
        SiteCoord x = L[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const LpSlot& s = lp.slot(ci, j);
            if (is_comb_row(point, k) &&
                s.pos + 1 ==
                    point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::min<SiteCoord>(x, xt - c.w);
            } else if (s.right >= 0) {
                const int rr = s.right;
                x = std::min<SiteCoord>(
                    x, L[static_cast<std::size_t>(rr)] - c.w);
            }
        }
        L[static_cast<std::size_t>(ci)] = x;
    }

    // Merge: a cell may move left or right, never both (valid insertion
    // points have disjoint push sets).
    r.new_x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(static_cast<int>(i));
        const bool moved_left = L[i] < c.x;
        const bool moved_right = R[i] > c.x;
        MRLG_ASSERT(!(moved_left && moved_right),
                    "cell pushed in both directions — invalid insertion "
                    "point slipped through enumeration");
        const SiteCoord nx = moved_left ? L[i] : R[i];
        MRLG_ASSERT(nx >= c.xl && nx <= c.xr,
                    "pushed cell left its feasible range");
        r.new_x[i] = nx;
        r.moved_sites += static_cast<double>(std::abs(nx - c.x));
    }
    r.ok = true;
    return r;
}

}  // namespace mrlg
