#pragma once
/// \file replay.hpp
/// Stage replay: per-stage MLL timings, measured from outside the program.
///
/// The program's tracer is paused while the pipeline plans, so no MLL stage
/// ever shows in its phase tree. The replay recovers them on a legal
/// result: for each sampled movable cell it removes the cell, times
/// mll_plan at the cell's global-placement position, then times each
/// stage's public call in the order mll_plan makes them, and finally puts
/// the cell back where it was. Everything runs on one thread, so the stage
/// times add up to the plan time they came from.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/mll.hpp"

namespace mrlg_bench {

struct ReplayReport {
    std::size_t samples = 0;
    std::vector<double> plan_us;  ///< One mll_plan time per sample.
    // Stage totals over all samples, microseconds.
    double extract_us = 0;
    double build_us = 0;
    double minmax_us = 0;
    double intervals_us = 0;
    double enumeration_us = 0;
    double evaluation_us = 0;
    double realization_us = 0;
    double free_us = 0;  ///< Listing shifted cells, freeing stage results.
    // Work counts over all samples.
    std::uint64_t local_cells = 0;
    std::uint64_t intervals = 0;
    std::uint64_t points = 0;
    std::uint64_t truncated = 0;
    std::uint64_t cells_shifted = 0;
    /// Samples whose stage-by-stage result differs from mll_plan's (a
    /// replay that does not reproduce its parent is a failed check).
    std::size_t disagreements = 0;

    double stage_sum_us() const {
        return extract_us + build_us + minmax_us + intervals_us +
               enumeration_us + evaluation_us + realization_us + free_us;
    }
};

/// Replays `num_samples` movable cells drawn with `seed` (without
/// replacement) from the placed design. `opts` are the run's MLL options;
/// the replay forces one thread. The placement is unchanged on return.
ReplayReport replay_stages(mrlg::Database& db, mrlg::SegmentGrid& grid,
                           const mrlg::MllOptions& opts,
                           std::size_t num_samples, std::uint64_t seed);

}  // namespace mrlg_bench
