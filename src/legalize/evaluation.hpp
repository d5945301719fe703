#pragma once
/// \file evaluation.hpp
/// Insertion-point evaluation (paper §5.2, Fig. 9).
///
/// Every local cell's displacement as a function of the target position xt
/// is a hinge: zero inside [xa_i, xb_i], slope ±1 outside (Eq. (3)). The
/// optimal xt minimizes the sum of hinges plus the target's own |xt - x't|;
/// the paper takes the median of the critical positions. We implement:
///   * evaluate_insertion_point_approx — the paper's default: critical
///     positions of the <= 2·h_t immediate neighbours only,
///     O(h_t log h_t);
///   * evaluate_insertion_point_exact  — critical positions of every local
///     cell the target can push, via the push-chain recursion over the
///     neighbour DAG. The recursion runs only on the P pushable cells
///     (O(sum of their heights)); two by-x flag scans and the buffer
///     resets touch all |C_W| cells at a few instructions each; sorting
///     the P thresholds is O(P log P) and the median sweep over them is
///     linear. Unreachable cells keep ±inf thresholds and add no hinge.
///
/// Concurrency contract: both evaluators are pure functions of the
/// LocalProblem plus their scratch argument — no globals, no Database
/// access. mll_plan scores one problem's points serially, and the
/// plan/commit pipeline runs whole problems concurrently on distinct
/// worker threads; each thread must bring its own scratch.

#include <optional>
#include <vector>

#include "legalize/enumeration.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/target.hpp"
#include "util/annotations.hpp"

namespace mrlg {

struct Evaluation {
    bool feasible = false;
    SiteCoord xt = 0;     ///< Chosen target x (site units).
    double cost_um = 0.0; ///< Estimated displacement cost, microns
                          ///< (locals' x moves + target's x and y move).
};

/// Hinge cost model: sum_i max(0, a_i - x) + sum_j max(0, x - b_j)
/// + |x - pref|. `a` are left-cell critical positions (cell moves when the
/// target goes below a_i), `b` right-cell ones.
struct HingeSet {
    std::vector<SiteCoord> a;
    std::vector<SiteCoord> b;
    double pref = 0.0;
};

/// Exact critical positions for every local cell under `point`:
/// result[i] = {xa, xb} with xa = -inf (kSiteCoordMin) when the cell can
/// never be pushed left-ward chainwise, xb = +inf (kSiteCoordMax) likewise.
/// Exposed for tests and the exact evaluator.
struct CriticalPositions {
    std::vector<SiteCoord> xa;  ///< Push-left thresholds (left-side cells).
    std::vector<SiteCoord> xb;  ///< Push-right thresholds (right-side cells).
};

/// Reusable buffers for the per-candidate evaluation hot path. One scratch
/// object per thread; mll_plan uses the one in its MllScratch, so
/// steady-state evaluation performs no allocations. A default-constructed
/// scratch is always valid.
struct EvalScratch {
    HingeSet hinges;
    CriticalPositions cp;
    // compute_critical_positions internals: per-cell "threshold due" flags,
    // and the cells each pass gave a finite threshold, in visit order.
    std::vector<unsigned char> pending;
    std::vector<int> pushed_left;
    std::vector<int> pushed_right;
    // evaluate_insertion_point_approx: neighbour cells already hinged
    std::vector<int> seen_left;
    std::vector<int> seen_right;
    // minimize_hinge_cost internals
    std::vector<SiteCoord> a_sorted;
    std::vector<SiteCoord> b_sorted;
    std::vector<double> a_suffix;
};

/// Minimizes the hinge cost over integer x in [lo, hi] (lo <= hi required).
/// Returns (argmin, cost). Cost unit: sites. Ties break toward smaller
/// |x - pref|, then smaller x — deterministic across platforms. Sorts a
/// and b, then sweeps the clamped breakpoints in one merged ascending pass:
/// O(n log n) for n = |a| + |b|.
std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi);
std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi,
                                                 EvalScratch& scratch);

/// Paper §5.2 approximation: neighbours of the gap only.
MRLG_EFFECT_READONLY
Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target);
Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target,
                                           EvalScratch& scratch);

/// Exact evaluation: critical positions for all local cells.
MRLG_EFFECT_READONLY
Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target);
Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target,
                                          EvalScratch& scratch);

CriticalPositions compute_critical_positions(const LocalProblem& lp,
                                             const InsertionPoint& point,
                                             SiteCoord target_w);
/// In-place variant: fills scratch.cp, reusing the scratch's buffers.
void compute_critical_positions(const LocalProblem& lp,
                                const InsertionPoint& point,
                                SiteCoord target_w, EvalScratch& scratch);

}  // namespace mrlg
