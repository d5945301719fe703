#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "legalize/evaluation.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TargetSpec make_target(SiteCoord w, SiteCoord h, double px, double py,
                       RailPhase phase = RailPhase::kEven) {
    TargetSpec t;
    t.w = w;
    t.h = h;
    t.pref_x = px;
    t.pref_y = py;
    t.rail_phase = phase;
    return t;
}

// ---------------- hinge minimizer ----------------

TEST(HingeMin, NoHingesSnapsToPref) {
    HingeSet h;
    h.pref = 12.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 12);
    EXPECT_NEAR(c, 0.0, 1e-12);
}

TEST(HingeMin, PrefOutsideRangeClamped) {
    HingeSet h;
    h.pref = 100.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 40);
    EXPECT_NEAR(c, 60.0, 1e-12);
}

TEST(HingeMin, FractionalPrefPicksNearestInteger) {
    HingeSet h;
    h.pref = 10.4;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 10);
    EXPECT_NEAR(c, 0.4, 1e-12);
}

TEST(HingeMin, LeftHingePullsRight) {
    // Left neighbour critical at 20: positions below 20 cost (20-x).
    HingeSet h;
    h.a = {20};
    h.pref = 15.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    // Balance: moving from 15 to 20 trades |x-pref| 1:1 against the hinge
    // — any x in [15,20] costs 5. Tie-break prefers closeness to pref.
    EXPECT_EQ(x, 15);
    EXPECT_NEAR(c, 5.0, 1e-12);
}

TEST(HingeMin, MajorityWins) {
    HingeSet h;
    h.a = {20, 20, 20};  // three cells want x >= 20
    h.pref = 15.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 20);
    EXPECT_NEAR(c, 5.0, 1e-12);
}

TEST(HingeMin, MatchesBruteForceRandomized) {
    Rng rng(53);
    for (int t = 0; t < 200; ++t) {
        HingeSet h;
        const int na = static_cast<int>(rng.uniform(0, 5));
        const int nb = static_cast<int>(rng.uniform(0, 5));
        for (int i = 0; i < na; ++i) {
            h.a.push_back(static_cast<SiteCoord>(rng.uniform(-20, 60)));
        }
        for (int i = 0; i < nb; ++i) {
            h.b.push_back(static_cast<SiteCoord>(rng.uniform(-20, 60)));
        }
        h.pref = static_cast<double>(rng.uniform(-10, 50)) +
                 rng.uniform01();
        const SiteCoord lo = static_cast<SiteCoord>(rng.uniform(-10, 20));
        const SiteCoord hi =
            lo + static_cast<SiteCoord>(rng.uniform(0, 40));
        const auto [x, c] = minimize_hinge_cost(h, lo, hi);
        EXPECT_GE(x, lo);
        EXPECT_LE(x, hi);
        const double ref = brute_force_hinge_min(h.a, h.b, h.pref, lo, hi);
        EXPECT_NEAR(c, ref, 1e-9) << "trial " << t;
    }
}

// ---------------- approximate evaluation ----------------

TEST(EvalApprox, FreeGapZeroCost) {
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "b", 50, 0, 5, 1);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 20.0, 0.0);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};
    p.lo = 5;
    p.hi = 46;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_EQ(ev.xt, 20);
    EXPECT_NEAR(ev.cost_um, 0.0, 1e-9);
}

TEST(EvalApprox, CountsNeighbourDisplacement) {
    // Target wants x=2 but the left neighbour ends at 5: either the target
    // moves right or the neighbour moves left.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 2.0, 0.0);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};  // right of a
    p.lo = 0;      // a can pack to xl=0? no: gap (a,R): lo = xl_a + 5 = 5
    p.lo = 5;
    p.hi = 56;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_EQ(ev.xt, 5);
    // cost = |5-2| site widths (x in microns / site_w = 3 sites).
    EXPECT_NEAR(ev.cost_um / lp.site_w_um(), 3.0, 1e-9);
}

TEST(EvalApprox, YDisplacementIncluded) {
    Database db = empty_design(4, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 4});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 10.0, 2.6);
    InsertionPoint p;
    p.k0 = 0;  // absolute row 0, pref row 2.6 → dy = 2.6 rows
    p.gaps = {0};
    p.lo = 0;
    p.hi = 56;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_NEAR(ev.cost_um, 2.6 * lp.site_h_um(), 1e-9);
}

// ---------------- exact critical positions ----------------

TEST(CriticalPositions, ChainOfLeftCells) {
    // Cells a(0,w5) b(5,w5) c(10,w5); target inserted right of c.
    // xa_c = 15, xa_b = xa_c - x_c + x_b + w_b = 15-10+5+5=15? Chain with
    // no slack: xa_b = x_b + w_b + (xa_c - x_c) = 5+5+5 = 15, xa_a = 15.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 5, 0, 5, 1);
    const CellId c = add_placed(db, grid, "c", 10, 0, 5, 1);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {3};
    p.lo = 15;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(c))], 15);
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(b))], 15);
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(a))], 15);
    // No push-right thresholds (nothing right of the gap).
    EXPECT_EQ(cp.xb[static_cast<std::size_t>(idx(a))], kSiteCoordMax);
}

TEST(CriticalPositions, SlackBreaksChains) {
    // a(0,w5), c(20,w5): pushing c left only reaches a when the target
    // goes below a's edge plus the gap.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId c = add_placed(db, grid, "c", 20, 0, 5, 1);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {2};  // right of c
    p.lo = 10;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(c))], 25);
    // xa_a = x_a + w_a + (xa_c - x_c) = 0+5+5 = 10.
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(a))], 10);
}

TEST(CriticalPositions, MultiRowPropagatesAcrossRows) {
    // Double-height m couples rows: pushing m in row 0 pushes s in row 1.
    Database db = empty_design(2, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId s = add_placed(db, grid, "s", 0, 1, 5, 1);
    const CellId m = add_placed(db, grid, "m", 5, 0, 4, 2);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 60, 2});
    compute_minmax_placement(lp);
    // Single-row target in row 0, right of m.
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};
    p.lo = 9;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(m))], 9);
    // s is pushed via m: xa_s = x_s + w_s + (xa_m - x_m) = 0+5+4 = 9.
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(s))], 9);
}

// ---------------- exact vs realization ----------------

TEST(EvalExact, CostMatchesRealizedDisplacement) {
    // Property: for every enumerated point, the exact evaluation's cost
    // equals target-pref displacement + realized local displacement.
    Rng rng(61);
    for (int trial = 0; trial < 20; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 100, 60, 0.3);
        LocalProblem lp =
            make_local_problem(d.db, d.grid, Rect{10, 0, 70, 8});
        compute_minmax_placement(lp);
        const TargetSpec t = make_target(
            static_cast<SiteCoord>(rng.uniform(1, 5)),
            static_cast<SiteCoord>(rng.uniform(1, 2)),
            static_cast<double>(rng.uniform(10, 70)),
            static_cast<double>(rng.uniform(0, 7)),
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const auto& pt : res.points) {
            const Evaluation ev =
                evaluate_insertion_point_exact(lp, pt, t);
            ASSERT_TRUE(ev.feasible);
            const Realization real =
                realize_insertion(lp, pt, ev.xt, t.w);
            const double real_cost =
                real.moved_sites * lp.site_w_um() +
                std::abs(static_cast<double>(ev.xt) - t.pref_x) *
                    lp.site_w_um() +
                std::abs(static_cast<double>(lp.y0() + pt.k0) - t.pref_y) *
                    lp.site_h_um();
            EXPECT_NEAR(ev.cost_um, real_cost, 1e-6)
                << "trial " << trial << " point k0=" << pt.k0;
        }
    }
}

TEST(EvalExact, ExactNeverWorseThanApproxChoice) {
    // The approximate evaluator may misjudge a point's cost, but for any
    // fixed point the exact optimum x is at least as good as realizing the
    // approximate x.
    Rng rng(67);
    for (int trial = 0; trial < 10; ++trial) {
        RandomDesign d = random_legal_design(rng, 6, 80, 40, 0.3);
        LocalProblem lp =
            make_local_problem(d.db, d.grid, Rect{0, 0, 80, 6});
        compute_minmax_placement(lp);
        const TargetSpec t =
            make_target(3, 1, static_cast<double>(rng.uniform(0, 75)),
                        static_cast<double>(rng.uniform(0, 5)));
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const auto& pt : res.points) {
            const Evaluation ex = evaluate_insertion_point_exact(lp, pt, t);
            const Evaluation ap =
                evaluate_insertion_point_approx(lp, pt, t);
            ASSERT_TRUE(ex.feasible && ap.feasible);
            const Realization at_approx =
                realize_insertion(lp, pt, ap.xt, t.w);
            const double approx_real_cost =
                at_approx.moved_sites * lp.site_w_um() +
                std::abs(static_cast<double>(ap.xt) - t.pref_x) *
                    lp.site_w_um() +
                std::abs(static_cast<double>(lp.y0() + pt.k0) - t.pref_y) *
                    lp.site_h_um();
            EXPECT_LE(ex.cost_um, approx_real_cost + 1e-6);
        }
    }
}

// ---------------- rewritten kernels vs. their whole-window originals ----

// The evaluator's two kernels before they became sparse and linear, kept as
// oracles: critical positions computed for every local cell in both by-x
// passes, and the hinge minimizer that sorts and de-duplicates every
// clamped breakpoint and binary-searches each candidate's cost. The
// rewritten kernels must agree with them bit for bit.

int oracle_right_neighbor(const LocalProblem& lp, const InsertionPoint& p,
                          int ci, int k) {
    const int pos = lp.slot(ci, k - lp.cell(ci).k0).pos;
    const auto& row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos + 1 == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;
    }
    if (pos + 1 < static_cast<int>(row_cells.size())) {
        return row_cells[static_cast<std::size_t>(pos + 1)];
    }
    return -1;
}

int oracle_left_neighbor(const LocalProblem& lp, const InsertionPoint& p,
                         int ci, int k) {
    const int pos = lp.slot(ci, k - lp.cell(ci).k0).pos;
    const auto& row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;
    }
    if (pos > 0) {
        return row_cells[static_cast<std::size_t>(pos - 1)];
    }
    return -1;
}

CriticalPositions oracle_critical_positions(const LocalProblem& lp,
                                            const InsertionPoint& point,
                                            SiteCoord target_w) {
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());
    CriticalPositions cp;
    cp.xa.assign(n, kSiteCoordMin);
    cp.xb.assign(n, kSiteCoordMax);
    for (auto it = lp.by_x().rbegin(); it != lp.by_x().rend(); ++it) {
        const int ci = *it;
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMin;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int nb = oracle_right_neighbor(lp, point, ci, c.k0 + j);
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
        }
    }
    for (const int ci : lp.by_x()) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMax;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int nb = oracle_left_neighbor(lp, point, ci, c.k0 + j);
            if (nb == -2) {
                best = std::min<SiteCoord>(best, -target_w);
                any = true;
            } else if (nb >= 0 &&
                       cp.xb[static_cast<std::size_t>(nb)] != kSiteCoordMax) {
                const LpCell& l = lp.cell(nb);
                best = std::min<SiteCoord>(
                    best, cp.xb[static_cast<std::size_t>(nb)] - l.x - l.w);
                any = true;
            }
        }
        if (any) {
            cp.xb[static_cast<std::size_t>(ci)] = c.x + best;
        }
    }
    return cp;
}

std::pair<SiteCoord, double> oracle_minimize_hinge_cost(
    const HingeSet& hinges, SiteCoord lo, SiteCoord hi) {
    std::vector<SiteCoord> a(hinges.a.begin(), hinges.a.end());
    std::vector<SiteCoord> b(hinges.b.begin(), hinges.b.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<double> a_suffix(a.size() + 1, 0.0);
    for (std::size_t i = a.size(); i-- > 0;) {
        a_suffix[i] = a_suffix[i + 1] + static_cast<double>(a[i]);
    }
    std::vector<double> b_prefix(b.size() + 1, 0.0);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b_prefix[i + 1] = b_prefix[i] + static_cast<double>(b[i]);
    }
    auto cost_at = [&](SiteCoord x) -> double {
        const std::size_t ia = static_cast<std::size_t>(
            std::upper_bound(a.begin(), a.end(), x) - a.begin());
        const double ca = a_suffix[ia] - static_cast<double>(a.size() - ia) *
                                             static_cast<double>(x);
        const std::size_t ib = static_cast<std::size_t>(
            std::lower_bound(b.begin(), b.end(), x) - b.begin());
        const double cb =
            static_cast<double>(ib) * static_cast<double>(x) - b_prefix[ib];
        return ca + cb + std::abs(static_cast<double>(x) - hinges.pref);
    };
    std::vector<SiteCoord> cand = {lo, hi};
    auto push_clamped = [&](double v) {
        const double c = std::clamp(v, static_cast<double>(lo),
                                    static_cast<double>(hi));
        cand.push_back(static_cast<SiteCoord>(std::floor(c)));
        cand.push_back(static_cast<SiteCoord>(std::ceil(c)));
    };
    for (const SiteCoord v : a) {
        push_clamped(static_cast<double>(v));
    }
    for (const SiteCoord v : b) {
        push_clamped(static_cast<double>(v));
    }
    push_clamped(hinges.pref);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    SiteCoord best_x = lo;
    double best_cost = std::numeric_limits<double>::max();
    for (const SiteCoord x : cand) {
        const double c = cost_at(x);
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

/// The exact evaluator over the oracle kernels: hinges collected in cell
/// index order, as the whole-window evaluator did.
Evaluation oracle_evaluate_exact(const LocalProblem& lp,
                                 const InsertionPoint& point,
                                 const TargetSpec& target) {
    const CriticalPositions cp =
        oracle_critical_positions(lp, point, target.w);
    HingeSet hinges;
    hinges.pref = target.pref_x;
    for (std::size_t i = 0; i < cp.xa.size(); ++i) {
        if (cp.xa[i] != kSiteCoordMin) {
            hinges.a.push_back(cp.xa[i]);
        } else if (cp.xb[i] != kSiteCoordMax) {
            hinges.b.push_back(cp.xb[i]);
        }
    }
    const auto [xt, cost_sites] =
        oracle_minimize_hinge_cost(hinges, point.lo, point.hi);
    Evaluation ev;
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = cost_sites * lp.site_w_um() +
                 std::abs(static_cast<double>(lp.y0() + point.k0) -
                          target.pref_y) *
                     lp.site_h_um();
    return ev;
}

/// The approximate evaluator over the oracle hinge minimizer.
Evaluation oracle_evaluate_approx(const LocalProblem& lp,
                                  const InsertionPoint& point,
                                  const TargetSpec& target) {
    HingeSet hinges;
    hinges.pref = target.pref_x;
    std::vector<int> seen_left;
    std::vector<int> seen_right;
    for (std::size_t j = 0; j < point.gaps.size(); ++j) {
        const LpRow& row = lp.row(point.k0 + static_cast<int>(j));
        const int gap = point.gaps[j];
        if (gap > 0) {
            const int li = row.cells[static_cast<std::size_t>(gap - 1)];
            if (std::find(seen_left.begin(), seen_left.end(), li) ==
                seen_left.end()) {
                seen_left.push_back(li);
                hinges.a.push_back(lp.cell(li).x + lp.cell(li).w);
            }
        }
        if (gap < static_cast<int>(row.cells.size())) {
            const int ri = row.cells[static_cast<std::size_t>(gap)];
            if (std::find(seen_right.begin(), seen_right.end(), ri) ==
                seen_right.end()) {
                seen_right.push_back(ri);
                hinges.b.push_back(lp.cell(ri).x - target.w);
            }
        }
    }
    const auto [xt, cost_sites] =
        oracle_minimize_hinge_cost(hinges, point.lo, point.hi);
    Evaluation ev;
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = cost_sites * lp.site_w_um() +
                 std::abs(static_cast<double>(lp.y0() + point.k0) -
                          target.pref_y) *
                     lp.site_h_um();
    return ev;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(EvalDifferential, HingeSweepMatchesOracleBitwise) {
    Rng rng(71);
    EvalScratch scratch;  // reused across sets, as mll_plan reuses it
    int lo_eq_hi = 0;
    int empty_side = 0;
    int half_pref = 0;
    for (int t = 0; t < 12000; ++t) {
        HingeSet h;
        const int na = static_cast<int>(rng.uniform(0, 12));
        const int nb = static_cast<int>(rng.uniform(0, 12));
        const bool dup_heavy = rng.chance(0.3);  // few distinct values
        const std::int64_t spread = dup_heavy ? 4 : 80;
        for (int i = 0; i < na; ++i) {
            h.a.push_back(static_cast<SiteCoord>(rng.uniform(-20, -20 + spread)));
        }
        for (int i = 0; i < nb; ++i) {
            h.b.push_back(static_cast<SiteCoord>(rng.uniform(-20, -20 + spread)));
        }
        const SiteCoord lo = static_cast<SiteCoord>(rng.uniform(-30, 40));
        const SiteCoord hi =
            rng.chance(0.15) ? lo
                             : lo + static_cast<SiteCoord>(rng.uniform(0, 60));
        // pref: anywhere (also far outside [lo, hi]), at k + 0.5, or within
        // 1e-12 of k + 0.5.
        const double k = static_cast<double>(rng.uniform(-60, 110));
        switch (rng.uniform(0, 3)) {
            case 0:
                h.pref = k + rng.uniform01();
                break;
            case 1:
                h.pref = k + 0.5;
                break;
            case 2:
                h.pref = k + 0.5 + (rng.chance(0.5) ? 1e-12 : -1e-12);
                break;
            default:
                h.pref = k;
                break;
        }
        lo_eq_hi += lo == hi ? 1 : 0;
        empty_side += (na == 0 || nb == 0) ? 1 : 0;
        half_pref += std::abs(h.pref - std::floor(h.pref) - 0.5) < 1e-11;
        const auto [x, c] = minimize_hinge_cost(h, lo, hi, scratch);
        const auto [ox, oc] = oracle_minimize_hinge_cost(h, lo, hi);
        ASSERT_EQ(x, ox) << "set " << t;
        ASSERT_EQ(bits(c), bits(oc)) << "set " << t << ": " << c << " vs "
                                     << oc;
    }
    // The edge cases the generator aims for all occurred.
    EXPECT_GT(lo_eq_hi, 1000);
    EXPECT_GT(empty_side, 1000);
    EXPECT_GT(half_pref, 3000);
}

TEST(EvalDifferential, CriticalPositionsAndEvaluatorsMatchOracle) {
    Rng rng(73);
    EvalScratch scratch;  // one scratch across every point and problem
    std::size_t points = 0;
    std::size_t multi_row_points = 0;
    for (int trial = 0; trial < 36; ++trial) {
        const double multi_frac = 0.5 * static_cast<double>(trial % 6) / 5.0;
        const int num_cells = static_cast<int>(rng.uniform(30, 90));
        RandomDesign d =
            random_legal_design(rng, 10, 100, num_cells, multi_frac, 4);
        LocalProblem lp =
            make_local_problem(d.db, d.grid, Rect{20, 0, 40, 10});
        compute_minmax_placement(lp);
        for (int tt = 0; tt < 3; ++tt) {
            const TargetSpec t = make_target(
                static_cast<SiteCoord>(rng.uniform(1, 6)),
                static_cast<SiteCoord>(rng.uniform(1, 4)),
                static_cast<double>(rng.uniform(15, 65)) + rng.uniform01(),
                static_cast<double>(rng.uniform(0, 8)) + rng.uniform01(),
                rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
            const auto intervals = build_insertion_intervals(lp, t.w);
            const auto res = enumerate_insertion_points(lp, intervals, t);
            for (const auto& pt : res.points) {
                ++points;
                multi_row_points += pt.gaps.size() > 1 ? 1 : 0;
                const CriticalPositions want =
                    oracle_critical_positions(lp, pt, t.w);
                const CriticalPositions got =
                    compute_critical_positions(lp, pt, t.w);
                ASSERT_EQ(got.xa, want.xa) << "trial " << trial;
                ASSERT_EQ(got.xb, want.xb) << "trial " << trial;
                compute_critical_positions(lp, pt, t.w, scratch);
                ASSERT_EQ(scratch.cp.xa, want.xa) << "trial " << trial;
                ASSERT_EQ(scratch.cp.xb, want.xb) << "trial " << trial;

                const Evaluation ex =
                    evaluate_insertion_point_exact(lp, pt, t, scratch);
                const Evaluation oex = oracle_evaluate_exact(lp, pt, t);
                ASSERT_EQ(ex.feasible, oex.feasible);
                ASSERT_EQ(ex.xt, oex.xt) << "trial " << trial;
                ASSERT_EQ(bits(ex.cost_um), bits(oex.cost_um))
                    << "trial " << trial;

                const Evaluation ap =
                    evaluate_insertion_point_approx(lp, pt, t, scratch);
                const Evaluation oap = oracle_evaluate_approx(lp, pt, t);
                ASSERT_EQ(ap.feasible, oap.feasible);
                ASSERT_EQ(ap.xt, oap.xt) << "trial " << trial;
                ASSERT_EQ(bits(ap.cost_um), bits(oap.cost_um))
                    << "trial " << trial;
            }
        }
    }
    EXPECT_GT(points - multi_row_points, 300u);
    EXPECT_GT(multi_row_points, 5000u);
}

}  // namespace
}  // namespace mrlg::test
