#pragma once
/// \file legalizer.hpp
/// Full-design incremental legalization (paper §3, Algorithm 1):
/// first pass places every cell at (or MLL-legalizes around) its global
/// placement position; cells that could not be placed are retried with
/// uniformly random offsets whose range grows with the round number
/// (Rand_x(k) ∈ [-Rx·(k-1), Rx·(k-1)], likewise Rand_y).

#include <cstdint>

#include "check/audit.hpp"
#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/mll.hpp"
#include "util/annotations.hpp"

namespace mrlg {

struct LegalizerOptions {
    MllOptions mll;
    std::uint64_t seed = 1;
    /// Bound on retry rounds (Algorithm 1's while-loop runs until empty;
    /// we guard against infeasible inputs). A round whose offsets reach
    /// the die size effectively searches everywhere.
    int max_rounds = 64;
    enum class Order {
        kInputOrder,   ///< Paper: "arbitrary order".
        kLeftToRight,  ///< Sort by gp x.
        kAreaDescending,
        /// Multi-row cells first (input order within each group). Single-
        /// row cells can always squeeze into leftover gaps, but a late
        /// multi-row cell can be starved when earlier single-row cells
        /// consume the paired-row capacity (MLL never moves a placed cell
        /// across rows, §4). The paper leaves the order "arbitrary"; this
        /// is the robust arbitrary choice, and the default.
        kMultiRowFirst,
    };
    Order order = Order::kMultiRowFirst;
    /// Unplace all movable cells before starting (Algorithm 1 line 1).
    bool unplace_first = true;
    /// From this retry round on, a failed MLL attempt additionally falls
    /// back to the nearest completely free slot (deterministic; no cells
    /// moved). Algorithm 1's random offsets alone can keep missing the
    /// few remaining free pockets on very dense designs; the fallback
    /// bounds the tail. Set past max_rounds to disable.
    int free_slot_fallback_round = 6;
    /// Last resort, two rounds after the free-slot fallback: evict
    /// single-row cells under a candidate footprint, place the target and
    /// re-insert the evicted cells (transactional — see ripup.hpp).
    /// Rescues multi-row cells whose paired-row capacity was starved.
    bool enable_ripup = true;
    /// Worker threads for the cell-level plan fan-out, the run's one
    /// parallel layer (callers pass the same count to legality and HPWL).
    /// 0 means the MRLG_THREADS environment default. Results are
    /// bit-identical for any value (legalize/pipeline.hpp).
    int num_threads = 0;
    /// Main-loop parallelization strategy. Every round runs as plan/commit
    /// waves (legalize/pipeline.hpp); the strategy decides how the round's
    /// cells are spread over them.
    enum class Pipeline {
        /// Every cell is its own wave, with a die-wide footprint: one cell
        /// at a time, fully serial at every thread count. The trivially
        /// sound schedule, kept as the test oracle for kRegionParallel.
        kSerial,
        /// Cells whose conservative local-region footprints don't overlap
        /// share a wave: they are planned concurrently and committed
        /// serially in queue order. Bit-identical to kSerial at every
        /// thread count. Rounds that enable the free-slot fallback or
        /// rip-up (both may write anywhere on the die) run one cell per
        /// wave, as under kSerial, and those attempts run in commit.
        kRegionParallel,
    };
    Pipeline pipeline = Pipeline::kRegionParallel;
    /// Invariant-audit level for the run; defaults to the MRLG_VALIDATE
    /// environment level (off when unset, so production runs pay nothing).
    /// kCheap audits the database and segment grid after setup, after
    /// every retry round, and once more at the end. kFull additionally
    /// audits after every committed placement and every rip-up
    /// transaction, checks each MLL extraction/packing (see MllOptions),
    /// and cross-checks the final state with the independent
    /// eval/legality sweep. Violations throw AssertionError.
    AuditLevel audit = audit_level_from_env();
};

/// Per-run statistics. Contract: every field here is surfaced verbatim in
/// the run report's `legalizer` block (obs/run_report.cpp stats_json —
/// keep the two in sync; test_obs.cpp RunReport.ContainsAllBlocks checks)
/// and mirrored as `legalize.*` obs counters at the end of a run.
struct LegalizerStats {
    bool success = false;       ///< Every movable cell placed.
    std::size_t num_cells = 0;
    std::size_t direct_placements = 0;  ///< Overlap-free at first try.
    std::size_t mll_successes = 0;
    std::size_t mll_failures = 0;  ///< Failed MLL attempts (incl. retries).
    std::size_t fallback_placements = 0;  ///< Free-slot fallback hits.
    std::size_t ripup_placements = 0;     ///< Rip-up transactions applied.
    std::size_t unplaced = 0;      ///< Cells still unplaced at the end.
    /// Insertion points evaluated across all direct MLL attempts (each
    /// plan's num_points, summed; rip-up internals excluded).
    std::size_t mll_points_evaluated = 0;
    /// Invariant audits executed by this run's hooks (0 when auditing is
    /// off); lets callers and tests confirm the hooks actually fired.
    std::size_t audits_run = 0;
    /// Plan/commit waves executed: per round, the highest wave of the
    /// round's level schedule (legalize/pipeline.hpp). A round with no
    /// footprint conflicts is one wave; a fully-conflicting round degrades
    /// to one wave per cell. Rounds that run one cell per wave (every
    /// round under Pipeline::kSerial, and fallback/rip-up rounds) add one
    /// wave per attempt, so under kSerial this equals direct_placements +
    /// mll_successes + mll_failures.
    std::size_t waves = 0;
    /// Σ(wave − 1) over the cells of every round: each wave adds the
    /// round's cells scheduled into later waves, because their footprints
    /// share a bucket with an earlier cell's (or, one cell per wave, just
    /// come later: n(n − 1)/2 for a round of n cells). Pipeline-health
    /// signal: high values mean the batches are thin and the round is
    /// effectively serial.
    std::size_t conflict_requeues = 0;
    int rounds = 0;
    double runtime_s = 0.0;
};

/// The largest MLL window radius (mll.rx or mll.ry) legalize_placement
/// accepts: kSiteCoordMax / (4·max_rounds), for max_rounds >= 1. The
/// widest jitter range r·(max_rounds − 1) plus the window width 2·r + w
/// then stays within a quarter of kSiteCoordMax, and die coordinates and
/// cell widths w keep the rest: no derived coordinate can overflow.
SiteCoord max_window_radius(const LegalizerOptions& opts);

/// Legalizes every movable cell of `db`. Fixed cells must already be
/// frozen into the floorplan (Database::freeze_fixed_cells) and `grid`
/// built afterwards. Asserts max_rounds >= 1 and window radii in
/// [0, max_window_radius(opts)].
LegalizerStats legalize_placement(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts = {});

/// Rounds the preferred fractional position to the nearest site-aligned,
/// in-die, rail-compatible position for `cell` (paper §3 "nearest
/// site-aligned and power-rail matching position").
MRLG_EFFECT_READONLY
Point nearest_aligned_position(const Database& db, CellId cell, double px,
                               double py, bool check_rail);

}  // namespace mrlg
