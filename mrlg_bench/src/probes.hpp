#pragma once
/// \file probes.hpp
/// Measurement helpers of mrlg-bench that do not depend on a workload:
/// placement hashing, peak-RSS sampling, order statistics and the
/// environment stamp.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "legalize/legalizer.hpp"

namespace mrlg_bench {

/// FNV-1a over every cell's (placed, x, y, orientation), in cell order.
/// Equal hashes mean the same legal result, so the hash is printed per
/// design and compared across repeats.
std::uint64_t placement_hash(const mrlg::Database& db);
std::string hex(std::uint64_t v);

/// Displacement of every placed movable cell from its global-placement
/// position, in site widths, measured as displacement_stats measures it.
std::vector<double> displacement_sites(const mrlg::Database& db);

/// True when two runs produced identical counts (every LegalizerStats
/// field except the wall-clock runtime).
bool same_counts(const mrlg::LegalizerStats& a, const mrlg::LegalizerStats& b);

/// Resets the process's peak-RSS high-water mark to the current RSS via
/// /proc/self/clear_refs. Returns false where the kernel refuses, in
/// which case peak_rss_mb() keeps reporting the whole-process peak.
bool reset_peak_rss();
/// VmHWM in MB (10^6 bytes); 0 when /proc is unavailable.
double peak_rss_mb();

/// Median of `v` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// Seconds elapsed since `t0` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

}  // namespace mrlg_bench
