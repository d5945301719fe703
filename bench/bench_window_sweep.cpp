/// bench_window_sweep — Ablation B (DESIGN.md): the paper fixes the MLL
/// window at Rx=30, Ry=5 (§3). Sweeps both radii on one mid-density
/// profile and reports displacement / runtime, showing the
/// quality-vs-speed knee that motivates the paper's choice.
///
/// Flags: --scale F in (0, 1] (default 0.02), --profile N (index into
/// Table 1's 20 rows, default 4: fft_1)

#include <iostream>

#include "bench_common.hpp"
#include "io/profiles.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace mrlg;
using namespace mrlg::bench;

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    double scale = 0.02;
    flags.real("--scale", scale, 0.0, kMaxScale, Flags::Upper::kClosed);
    std::size_t pick = 4;  // fft_1
    flags.count("--profile", pick, table1_benchmarks().size() - 1);
    if (!flags.ok()) {
        return flags.usage(
            "usage: bench_window_sweep [--scale F] [--profile N]\n");
    }
    set_log_level(LogLevel::kWarn);

    const auto all = table1_benchmarks(scale);
    const GenProfile& profile = all[pick].profile;
    std::cout << "=== Ablation B: MLL window size sweep on "
              << profile.name << " (paper default Rx=30, Ry=5) ===\n";

    Table t({"Rx", "Ry", "Disp (sites)", "dHPWL %", "Runtime (s)",
             "Success"});
    struct Cfg {
        SiteCoord rx;
        SiteCoord ry;
    };
    const std::vector<Cfg> cfgs = {{5, 5},  {10, 5}, {20, 5}, {30, 5},
                                   {50, 5}, {30, 1}, {30, 2}, {30, 3},
                                   {30, 8}, {10, 2}, {50, 8}};
    GenResult gen = generate_benchmark(profile);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    for (const Cfg& cfg : cfgs) {
        reset_placement(gen.db, grid);
        LegalizerOptions opts;
        opts.mll.rx = cfg.rx;
        opts.mll.ry = cfg.ry;
        const RunMetrics m = run_legalization(gen.db, grid, opts);
        t.add_row({std::to_string(cfg.rx), std::to_string(cfg.ry),
                   format_fixed(m.disp_avg_sites, 3),
                   format_fixed(m.dhpwl_pct, 2),
                   format_fixed(m.runtime_s, 3), m.success ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout << "\nSmaller windows are faster but find fewer insertion "
                 "points (worse displacement / failures at density); "
                 "larger windows cost runtime for little quality.\n";
    return 0;
}
