/// bench_ablation_eval — Ablation A (DESIGN.md): the paper's §5.2 claim
/// that the O(h_t) neighbour-approximated insertion-point evaluation is
/// "accurate enough to choose the near-optimal place". Runs the full
/// legalizer with approximate vs exact evaluation on a subset of Table 1
/// profiles and reports displacement gap and runtime ratio.
///
/// Each mode legalizes each design kRepeats times, alternating which mode
/// goes first; the runtimes are medians, and a displacement that differs
/// between repeats is fatal (exit 1).
///
/// Flags: --scale F in (0, 1] (default 0.02), --seed N (default 0)

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "io/profiles.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

/// Legalizations per mode and design. At the default scale one takes
/// 0.01-0.12 s, so a single run's ratio is mostly host noise.
constexpr int kRepeats = 5;

/// The repeats of one mode on one design: the first run's metrics and
/// every run's runtime.
struct Repeats {
    RunMetrics first;
    std::vector<double> runtime_s;

    double median_s() {
        std::ranges::sort(runtime_s);
        return runtime_s[runtime_s.size() / 2];
    }
};

/// Legalizes the unplaced design into `out`; false when the displacement
/// differs from the mode's first run.
bool run_once(Database& db, SegmentGrid& grid, const LegalizerOptions& opts,
              Repeats& out) {
    const RunMetrics m = run_legalization(db, grid, opts);
    reset_placement(db, grid);
    if (out.runtime_s.empty()) {
        out.first = m;
    }
    out.runtime_s.push_back(m.runtime_s);
    return m.disp_avg_sites == out.first.disp_avg_sites &&
           m.disp_max_sites == out.first.disp_max_sites;
}

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    double scale = 0.02;
    flags.real("--scale", scale, 0.0, kMaxScale, Flags::Upper::kClosed);
    int seed_offset = 0;
    flags.count("--seed", seed_offset);
    if (!flags.ok()) {
        return flags.usage(
            "usage: bench_ablation_eval [--scale F] [--seed N]\n");
    }
    set_log_level(LogLevel::kWarn);

    // A spread of densities: low, mid, high.
    const std::vector<std::size_t> picks = {14, 3, 8, 4, 0};

    std::cout << "=== Ablation A: approximate vs exact insertion-point "
                 "evaluation (paper 5.2) ===\n";
    Table t({"Benchmark", "Density", "Disp approx", "Disp exact",
             "Disp gap %", "RT approx(s)", "RT exact(s)", "RT ratio"});
    std::cout << "(runtimes: median of " << kRepeats << " runs per mode)\n";
    double sum_gap = 0;
    double sum_ratio = 0;
    const auto all = table1_benchmarks(scale);
    for (const std::size_t idx : picks) {
        GenProfile profile = all[idx].profile;
        profile.seed += static_cast<std::uint64_t>(seed_offset);
        GenResult gen = generate_benchmark(profile);
        SegmentGrid grid = SegmentGrid::build(gen.db);

        LegalizerOptions approx;
        LegalizerOptions exact = approx;
        exact.mll.exact_evaluation = true;
        Repeats ra;
        Repeats re;
        for (int r = 0; r < kRepeats; ++r) {
            // Alternate the order so neither mode always runs on a cold
            // cache or first after a host hiccup.
            const bool same = r % 2 == 0
                                  ? run_once(gen.db, grid, approx, ra) &&
                                        run_once(gen.db, grid, exact, re)
                                  : run_once(gen.db, grid, exact, re) &&
                                        run_once(gen.db, grid, approx, ra);
            if (!same) {
                std::cerr << "FATAL: displacement differs between repeats ("
                          << profile.name << ")\n";
                return 1;
            }
        }
        const RunMetrics& ma = ra.first;
        const RunMetrics& me = re.first;
        const double rt_approx = ra.median_s();
        const double rt_exact = re.median_s();

        const double gap =
            me.disp_avg_sites > 0
                ? (ma.disp_avg_sites / me.disp_avg_sites - 1.0) * 100.0
                : 0.0;
        const double ratio = rt_approx > 0 ? rt_exact / rt_approx : 0.0;
        sum_gap += gap;
        sum_ratio += ratio;
        t.add_row({profile.name, format_fixed(gen.db.density(), 2),
                   format_fixed(ma.disp_avg_sites, 3),
                   format_fixed(me.disp_avg_sites, 3),
                   format_fixed(gap, 1), format_fixed(rt_approx, 3),
                   format_fixed(rt_exact, 3), format_fixed(ratio, 1)});
    }
    t.add_row({"Avg.", "", "", "",
               format_fixed(sum_gap / static_cast<double>(picks.size()), 1),
               "", "",
               format_fixed(sum_ratio / static_cast<double>(picks.size()),
                            1)});
    t.print(std::cout);
    std::cout << "\nPaper claim: approximation loses ~13% displacement vs "
                 "the exact/ILP optimum while being far faster.\n";
    return 0;
}
