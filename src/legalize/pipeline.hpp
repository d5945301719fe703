#pragma once
/// \file pipeline.hpp
/// Plan/commit pipeline support for the legalizer.
///
/// Every retry round of the legalizer processes its pending-cell queue as
/// *waves*:
///
///   1. schedule — while the round's tasks are built in queue order, each
///      task gets its wave from a LevelSchedule: 1 + the highest wave
///      among earlier tasks whose conservative AttemptFootprints share a
///      bucket with its own (1 when none does) — the task's level in the
///      conflict DAG. A stable counting sort by wave (order_by_wave) then
///      lists every wave's batch in queue order; each wave takes the next
///      batch off that list.
///   2. plan — the batch's MLL problems are solved concurrently, read-only
///      against the wave-start grid (mll_plan, per-thread scratch).
///   3. commit — plans are applied serially in queue order (mll_commit).
///
/// Rounds that enable the free-slot fallback or rip-up skip the schedule:
/// both may write anywhere on the die, so each task gets a die-wide
/// footprint and its own wave (its queue position), and a failed plan runs
/// find_nearest_free_position and then ripup_place inside commit. The
/// plan fan-out is the only parallel layer: a one-task wave plans
/// serially.
/// Pipeline::kSerial runs every round that way, which makes it the
/// trivially sound oracle the bucketed schedule is tested against.
///
/// Serial equivalence, by induction over the waves: every earlier task
/// whose footprint shares a bucket with task t sits in an earlier wave, so
/// it has committed before t plans; every later such task sits in a later
/// wave, so it has not. A serial attempt only mutates state inside its own
/// footprint (failed attempts mutate nothing), so the state t's plan reads
/// equals the state its serial turn would have seen, and its commit writes
/// exactly what the serial attempt would have written. Tasks of one wave
/// are pairwise bucket-disjoint, so their concurrent plans read a frozen
/// grid. The outcome is therefore bit-identical to one cell per wave in
/// queue order (kSerial) at every thread count — the bucketed schedule
/// degrades to exactly that in the dense case where every footprint
/// conflicts (serial order, serial speed). A plan that is stale at commit
/// is a broken proof, not a retry: mll_commit asserts it (so does the
/// direct-slot commit), and audit_plan_batch / audit_plan_writes re-check
/// both halves of the argument when auditing is on.
///
/// The wave a task gets is the one a greedy per-wave partition would pick
/// — batch a pending task iff it shares no bucket with any earlier pending
/// task — since footprints are fixed when the round's tasks are built.
/// Hence `waves` per round is the highest level, and the tasks a wave
/// leaves for later waves sum to Σ(wave − 1) over the round's tasks.
///
/// Determinism contract: the schedule is a pure function of the queue
/// order and the footprints, kept in a fixed-layout array — nothing here
/// may iterate an unordered container or depend on thread scheduling
/// (`tools/mrlg_lint.py determinism` pins this file down).

#include <cstdint>
#include <vector>

#include "legalize/local_region.hpp"
#include "legalize/mll.hpp"

namespace mrlg {

/// Per die row, the highest wave assigned so far to a footprint touching
/// each kBucketSites-wide x bucket. Footprints round *outward* to bucket
/// boundaries, so sharing a bucket is conservative — footprints up to
/// kBucketSites-1 sites apart may share one, which only delays a cell by a
/// wave, never lets a real overlap through.
class LevelSchedule {
public:
    /// Sites per conflict bucket.
    static constexpr SiteCoord kBucketSites = 8;

    /// Starts a round on `num_rows` die rows spanning `x_extent` sites.
    /// Footprints are clamped to the die on both axes: a footprint slice
    /// outside the rows or the x extent can hold no cell or segment, so
    /// two footprints overlapping only out there cannot interact.
    void reset(std::size_t num_rows, Span x_extent);

    /// Assigns the wave (1-based) of the next task in queue order, whose
    /// footprint is `fp`: 1 + the highest wave of every earlier footprint
    /// sharing a bucket with `fp`.
    std::uint32_t assign(const AttemptFootprint& fp);

    /// Highest wave assigned since reset (0 when none).
    std::uint32_t num_waves() const { return num_waves_; }

private:
    Span x_extent_{0, 0};
    std::size_t num_rows_ = 0;
    std::size_t buckets_per_row_ = 0;
    std::uint32_t num_waves_ = 0;
    /// Row-major, buckets_per_row_ entries per row.
    std::vector<std::uint32_t> last_wave_;
};

/// One pending cell's state in a round.
struct PlanTask {
    CellId cell;
    double px = 0.0;  ///< Preferred x for this round (gp + jitter).
    double py = 0.0;
    Rect fitted;      ///< nearest_aligned_position slot for (px, py).
    bool rail_ok = false;  ///< fitted row passes the rail-parity check.
    AttemptFootprint footprint;
    std::uint32_t wave = 0;  ///< LevelSchedule::assign result (1-based).

    /// Plan-phase result (filled by the wave's parallel plan pass).
    bool direct = false;  ///< fitted slot was free; no MLL plan needed.
    MllPlan plan;
    bool placed = false;  ///< Committed (direct or MLL); else retry.
};

/// Stable counting sort of the indices of `tasks` by wave (`num_waves` is
/// the highest): on return wave w's batch is `order[offsets[w - 1],
/// offsets[w])`, in queue order, and `offsets` has num_waves + 1 entries.
void order_by_wave(const std::vector<PlanTask>& tasks, std::uint32_t num_waves,
                   std::vector<std::size_t>& order,
                   std::vector<std::size_t>& offsets);

}  // namespace mrlg
