#include "legalize/pipeline.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

void LevelSchedule::reset(std::size_t num_rows, Span x_extent) {
    x_extent_ = x_extent;
    num_rows_ = num_rows;
    const std::size_t extent =
        x_extent.hi > x_extent.lo
            ? static_cast<std::size_t>(x_extent.hi - x_extent.lo)
            : 0;
    buckets_per_row_ = (extent + static_cast<std::size_t>(kBucketSites) - 1) /
                       static_cast<std::size_t>(kBucketSites);
    num_waves_ = 0;
    last_wave_.assign(num_rows_ * buckets_per_row_, 0);
}

std::uint32_t LevelSchedule::assign(const AttemptFootprint& fp) {
    const SiteCoord row_lo = std::max<SiteCoord>(fp.rows.lo, 0);
    const SiteCoord row_hi = std::min<SiteCoord>(
        fp.rows.hi, static_cast<SiteCoord>(num_rows_));
    const SiteCoord x_lo = std::max(fp.x.lo, x_extent_.lo);
    const SiteCoord x_hi = std::min(fp.x.hi, x_extent_.hi);
    if (row_lo >= row_hi || x_lo >= x_hi) {
        // Entirely off the die: shares no bucket with anything.
        num_waves_ = std::max<std::uint32_t>(num_waves_, 1);
        return 1;
    }
    // Buckets touched by [x_lo, x_hi), rounded outward (conservative).
    const std::size_t b_lo = static_cast<std::size_t>(x_lo - x_extent_.lo) /
                             static_cast<std::size_t>(kBucketSites);
    const std::size_t b_hi =
        (static_cast<std::size_t>(x_hi - x_extent_.lo) +
         static_cast<std::size_t>(kBucketSites) - 1) /
        static_cast<std::size_t>(kBucketSites);
    auto row_buckets = [&](SiteCoord r) {
        return last_wave_.begin() +
               static_cast<std::ptrdiff_t>(static_cast<std::size_t>(r) *
                                               buckets_per_row_ +
                                           b_lo);
    };
    const auto width = static_cast<std::ptrdiff_t>(b_hi - b_lo);
    std::uint32_t highest = 0;
    for (SiteCoord r = row_lo; r < row_hi; ++r) {
        const auto row = row_buckets(r);
        highest = std::max(highest, *std::max_element(row, row + width));
    }
    const std::uint32_t wave = highest + 1;
    for (SiteCoord r = row_lo; r < row_hi; ++r) {
        const auto row = row_buckets(r);
        std::fill(row, row + width, wave);
    }
    num_waves_ = std::max(num_waves_, wave);
    return wave;
}

void order_by_wave(const std::vector<PlanTask>& tasks, std::uint32_t num_waves,
                   std::vector<std::size_t>& order,
                   std::vector<std::size_t>& offsets) {
    offsets.assign(static_cast<std::size_t>(num_waves) + 1, 0);
    for (const PlanTask& t : tasks) {
        MRLG_DCHECK(t.wave >= 1 && t.wave <= num_waves,
                    "task wave outside the schedule");
        ++offsets[t.wave];
    }
    for (std::size_t w = 1; w < offsets.size(); ++w) {
        offsets[w] += offsets[w - 1];
    }
    // Scatter in queue order through per-wave cursors (the stable pass).
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    order.resize(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        order[cursor[tasks[i].wave - 1]++] = i;
    }
}

}  // namespace mrlg
