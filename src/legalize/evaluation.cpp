#include "legalize/evaluation.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace mrlg {

namespace {

/// Post-insertion right neighbour of local cell `ci` on local row `k`:
/// returns the neighbour cell index, or -2 when the neighbour is the
/// target, or -1 when there is none (segment wall).
int right_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                   int k) {
    const LpSlot& s = lp.slot(ci, k - lp.cell(ci).k0);
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && s.pos + 1 == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the right
    }
    return s.right;
}

/// Post-insertion left neighbour; same encoding as right_neighbor.
int left_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                  int k) {
    const LpSlot& s = lp.slot(ci, k - lp.cell(ci).k0);
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && s.pos == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the left
    }
    return s.left;
}

double y_cost_um(const LocalProblem& lp, const InsertionPoint& p,
                 const TargetSpec& target) {
    const double y_abs = static_cast<double>(lp.y0() + p.k0);
    return std::abs(y_abs - target.pref_y) * lp.site_h_um();
}

}  // namespace

std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi) {
    EvalScratch scratch;
    return minimize_hinge_cost(hinges, lo, hi, scratch);
}

std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi,
                                                 EvalScratch& scratch) {
    MRLG_ASSERT(lo <= hi, "empty feasible range");
    std::vector<SiteCoord>& a = scratch.a_sorted;
    std::vector<SiteCoord>& b = scratch.b_sorted;
    a.assign(hinges.a.begin(), hinges.a.end());
    b.assign(hinges.b.begin(), hinges.b.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    const std::size_t na = a.size();
    const std::size_t nb = b.size();

    // Suffix sums of a (for sum of a_i > x); the prefix sum of b (for sum
    // of b_j < x) is accumulated in the same order as the sweep advances.
    std::vector<double>& a_suffix = scratch.a_suffix;
    a_suffix.assign(na + 1, 0.0);
    for (std::size_t i = na; i-- > 0;) {
        a_suffix[i] = a_suffix[i + 1] + static_cast<double>(a[i]);
    }

    // Candidate positions: lo, hi, the integers around pref and every
    // breakpoint, each clamped into [lo, hi]. Clamping is monotone, so the
    // clamped a and b stay sorted, and {lo, floor(pref), ceil(pref), hi}
    // is sorted too; the candidates are a three-way merge of those lists,
    // visited in ascending order without repeats. hi is the largest
    // candidate, so the merge ends with the fixed list.
    const double pc = std::clamp(hinges.pref, static_cast<double>(lo),
                                 static_cast<double>(hi));
    const std::array<SiteCoord, 4> fixed = {
        lo, static_cast<SiteCoord>(std::floor(pc)),
        static_cast<SiteCoord>(std::ceil(pc)), hi};
    auto clamped = [&](SiteCoord v) { return std::clamp(v, lo, hi); };

    std::size_t fa = 0;  // next clamped a to merge
    std::size_t fb = 0;  // next clamped b to merge
    std::size_t ff = 0;  // next fixed candidate to merge
    std::size_t ia = 0;  // first a_i > x
    std::size_t ib = 0;  // first b_j >= x
    double b_prefix = 0.0;  // sum of b_j < x
    SiteCoord best_x = lo;
    double best_cost = std::numeric_limits<double>::max();
    while (ff < fixed.size()) {
        SiteCoord x = fixed[ff];
        if (fa < na) {
            x = std::min(x, clamped(a[fa]));
        }
        if (fb < nb) {
            x = std::min(x, clamped(b[fb]));
        }
        while (ff < fixed.size() && fixed[ff] == x) {
            ++ff;
        }
        while (fa < na && clamped(a[fa]) == x) {
            ++fa;
        }
        while (fb < nb && clamped(b[fb]) == x) {
            ++fb;
        }
        while (ia < na && a[ia] <= x) {
            ++ia;
        }
        while (ib < nb && b[ib] < x) {
            b_prefix = b_prefix + static_cast<double>(b[ib]);
            ++ib;
        }
        // sum over a_i > x of (a_i - x), and over b_j < x of (x - b_j)
        const double ca = a_suffix[ia] - static_cast<double>(na - ia) *
                                             static_cast<double>(x);
        const double cb = static_cast<double>(ib) * static_cast<double>(x) -
                          b_prefix;
        const double c =
            ca + cb + std::abs(static_cast<double>(x) - hinges.pref);
        const double d_pref = std::abs(static_cast<double>(x) - hinges.pref);
        const double best_d_pref =
            std::abs(static_cast<double>(best_x) - hinges.pref);
        if (c < best_cost - 1e-9 ||
            (std::abs(c - best_cost) <= 1e-9 &&
             (d_pref < best_d_pref - 1e-9 ||
              (std::abs(d_pref - best_d_pref) <= 1e-9 && x < best_x)))) {
            best_cost = c;
            best_x = x;
        }
    }
    return {best_x, best_cost};
}

Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target) {
    EvalScratch scratch;
    return evaluate_insertion_point_approx(lp, point, target, scratch);
}

Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target,
                                           EvalScratch& scratch) {
    Evaluation ev;
    if (point.lo > point.hi) {
        return ev;
    }
    HingeSet& hinges = scratch.hinges;
    hinges.a.clear();
    hinges.b.clear();
    hinges.pref = target.pref_x;
    const int ht = static_cast<int>(point.gaps.size());
    // One hinge per neighbouring CELL, not per combination row: a
    // multi-row neighbour adjacent to the target in several rows still
    // moves only once, so per-row hinges would double-count its
    // displacement (and the estimate would stop being a lower bound on
    // the realized cost). ht is tiny; linear membership checks suffice.
    std::vector<int>& seen_left = scratch.seen_left;
    std::vector<int>& seen_right = scratch.seen_right;
    seen_left.clear();
    seen_right.clear();
    for (int j = 0; j < ht; ++j) {
        const int k = point.k0 + j;
        const LpRow& row = lp.row(k);
        const int gap = point.gaps[static_cast<std::size_t>(j)];
        if (gap > 0) {
            const int li = row.cells[static_cast<std::size_t>(gap - 1)];
            if (std::find(seen_left.begin(), seen_left.end(), li) ==
                seen_left.end()) {
                seen_left.push_back(li);
                const LpCell& left = lp.cell(li);
                hinges.a.push_back(left.x + left.w);
            }
        }
        if (gap < static_cast<int>(row.cells.size())) {
            const int ri = row.cells[static_cast<std::size_t>(gap)];
            if (std::find(seen_right.begin(), seen_right.end(), ri) ==
                seen_right.end()) {
                seen_right.push_back(ri);
                const LpCell& right = lp.cell(ri);
                hinges.b.push_back(right.x - target.w);
            }
        }
    }
    const auto [xt, cost_sites] =
        minimize_hinge_cost(hinges, point.lo, point.hi, scratch);
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = cost_sites * lp.site_w_um() + y_cost_um(lp, point, target);
    return ev;
}

CriticalPositions compute_critical_positions(const LocalProblem& lp,
                                             const InsertionPoint& point,
                                             SiteCoord target_w) {
    EvalScratch scratch;
    compute_critical_positions(lp, point, target_w, scratch);
    return std::move(scratch.cp);
}

void compute_critical_positions(const LocalProblem& lp,
                                const InsertionPoint& point,
                                SiteCoord target_w, EvalScratch& scratch) {
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());
    CriticalPositions& cp = scratch.cp;
    cp.xa.assign(n, kSiteCoordMin);
    cp.xb.assign(n, kSiteCoordMax);
    std::vector<unsigned char>& pending = scratch.pending;
    const int ht = static_cast<int>(point.gaps.size());

    // Only cells the target can push get a finite threshold: those next to
    // a gap, and the cells those push in turn. Each pass therefore starts
    // from the gap's neighbours and marks a cell pending when one of its
    // pushers gets a finite threshold; cells that never become pending keep
    // their ±inf. A cell's pushers lie strictly right of it in the
    // push-left pass (left of it in the push-right pass), so in by-x order
    // every pending mark lands before the marked cell is visited.

    // Push-left thresholds: process cells right-to-left; a cell is pushed
    // left when its post-insertion right neighbour (or the target) forces
    // it:  xa_k = x_k + w_k + max over pushers r of (xa_r - x_r),
    // with the target contributing 0.
    pending.assign(n, 0);
    scratch.pushed_left.clear();
    for (int j = 0; j < ht; ++j) {
        const int gap = point.gaps[static_cast<std::size_t>(j)];
        if (gap > 0) {
            pending[static_cast<std::size_t>(
                lp.row(point.k0 + j).cells[static_cast<std::size_t>(
                    gap - 1)])] = 1;
        }
    }
    for (auto it = lp.by_x().rbegin(); it != lp.by_x().rend(); ++it) {
        const int ci = *it;
        if (pending[static_cast<std::size_t>(ci)] == 0) {
            continue;
        }
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMin;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int nb = right_neighbor(lp, point, ci, k);
            if (nb == -2) {
                best = std::max<SiteCoord>(best, 0);
                any = true;
            } else if (nb >= 0 &&
                       cp.xa[static_cast<std::size_t>(nb)] != kSiteCoordMin) {
                best = std::max<SiteCoord>(
                    best, cp.xa[static_cast<std::size_t>(nb)] -
                              lp.cell(nb).x);
                any = true;
            }
        }
        if (any) {
            cp.xa[static_cast<std::size_t>(ci)] = c.x + c.w + best;
            scratch.pushed_left.push_back(ci);
            for (SiteCoord j = 0; j < c.h; ++j) {
                const int nb = left_neighbor(lp, point, ci, c.k0 + j);
                if (nb >= 0) {
                    pending[static_cast<std::size_t>(nb)] = 1;
                }
            }
        }
    }

    // Push-right thresholds, mirrored:  xb_k = x_k + min over pushers l of
    // (xb_l - x_l - w_l), target contributing -target_w.
    pending.assign(n, 0);
    scratch.pushed_right.clear();
    for (int j = 0; j < ht; ++j) {
        const LpRow& row = lp.row(point.k0 + j);
        const int gap = point.gaps[static_cast<std::size_t>(j)];
        if (gap < static_cast<int>(row.cells.size())) {
            pending[static_cast<std::size_t>(
                row.cells[static_cast<std::size_t>(gap)])] = 1;
        }
    }
    for (const int ci : lp.by_x()) {
        if (pending[static_cast<std::size_t>(ci)] == 0) {
            continue;
        }
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMax;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int nb = left_neighbor(lp, point, ci, k);
            if (nb == -2) {
                best = std::min<SiteCoord>(best, -target_w);
                any = true;
            } else if (nb >= 0 &&
                       cp.xb[static_cast<std::size_t>(nb)] != kSiteCoordMax) {
                const LpCell& l = lp.cell(nb);
                best = std::min<SiteCoord>(
                    best,
                    cp.xb[static_cast<std::size_t>(nb)] - l.x - l.w);
                any = true;
            }
        }
        if (any) {
            cp.xb[static_cast<std::size_t>(ci)] = c.x + best;
            scratch.pushed_right.push_back(ci);
            for (SiteCoord j = 0; j < c.h; ++j) {
                const int nb = right_neighbor(lp, point, ci, c.k0 + j);
                if (nb >= 0) {
                    pending[static_cast<std::size_t>(nb)] = 1;
                }
            }
        }
    }
}

Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target) {
    EvalScratch scratch;
    return evaluate_insertion_point_exact(lp, point, target, scratch);
}

Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target,
                                          EvalScratch& scratch) {
    Evaluation ev;
    if (point.lo > point.hi) {
        return ev;
    }
    compute_critical_positions(lp, point, target.w, scratch);
    const CriticalPositions& cp = scratch.cp;
    HingeSet& hinges = scratch.hinges;
    hinges.a.clear();
    hinges.b.clear();
    hinges.pref = target.pref_x;
    // The hinge minimizer sorts a and b, so collecting them in pass order
    // rather than cell order leaves its result unchanged.
    for (const int ci : scratch.pushed_left) {
        hinges.a.push_back(cp.xa[static_cast<std::size_t>(ci)]);
    }
    for (const int ci : scratch.pushed_right) {
        MRLG_ASSERT(cp.xa[static_cast<std::size_t>(ci)] == kSiteCoordMin,
                    "cell reachable from both push directions — "
                    "inconsistent insertion point");
        hinges.b.push_back(cp.xb[static_cast<std::size_t>(ci)]);
    }
    const auto [xt, cost_sites] =
        minimize_hinge_cost(hinges, point.lo, point.hi, scratch);
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = cost_sites * lp.site_w_um() + y_cost_um(lp, point, target);
    return ev;
}

}  // namespace mrlg
