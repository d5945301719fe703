#include "probes.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace mrlg_bench {

std::uint64_t placement_hash(const mrlg::Database& db) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::int64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const mrlg::Cell& c : db.cells()) {
        mix(c.placed() ? 1 : 0);
        mix(c.placed() ? c.x() : 0);
        mix(c.placed() ? c.y() : 0);
        mix(static_cast<std::int64_t>(c.orient()));
    }
    return h;
}

std::string hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<double> displacement_sites(const mrlg::Database& db) {
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    std::vector<double> out;
    for (const mrlg::Cell& c : db.cells()) {
        if (c.fixed() || !c.placed()) {
            continue;
        }
        const double dx = std::abs(static_cast<double>(c.x()) - c.gp_x());
        const double dy = std::abs(static_cast<double>(c.y()) - c.gp_y());
        out.push_back((dx * sw + dy * sh) / sw);
    }
    return out;
}

bool same_counts(const mrlg::LegalizerStats& a,
                 const mrlg::LegalizerStats& b) {
    return a.success == b.success && a.num_cells == b.num_cells &&
           a.direct_placements == b.direct_placements &&
           a.mll_successes == b.mll_successes &&
           a.mll_failures == b.mll_failures &&
           a.fallback_placements == b.fallback_placements &&
           a.ripup_placements == b.ripup_placements &&
           a.unplaced == b.unplaced &&
           a.mll_points_evaluated == b.mll_points_evaluated &&
           a.audits_run == b.audits_run && a.waves == b.waves &&
           a.conflict_requeues == b.conflict_requeues &&
           a.rounds == b.rounds;
}

bool reset_peak_rss() {
    std::ofstream f("/proc/self/clear_refs");
    if (!f) {
        return false;
    }
    f << "5\n";  // 5 = reset the peak resident set size
    f.flush();
    return static_cast<bool>(f);
}

double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
        }
    }
    return 0.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

int nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace mrlg_bench
