/// bench_detailed — extension experiment: the detailed-placement
/// application the paper motivates MLL with (§1). Measures HPWL recovery
/// and runtime of the median-move optimizer with instant legalization on
/// Table 1 profiles, aligned vs relaxed power rails.
///
/// Flags: --scale F in (0, 1] (default 0.01), --passes N (default 2)

#include <iostream>

#include "bench_common.hpp"
#include "dp/detailed_placer.hpp"
#include "dp/row_polish.hpp"
#include "eval/metrics.hpp"
#include "io/profiles.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace mrlg;
using namespace mrlg::bench;

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    double scale = 0.01;
    flags.real("--scale", scale, 0.0, kMaxScale, Flags::Upper::kClosed);
    int passes = 2;
    flags.count("--passes", passes);
    if (!flags.ok()) {
        return flags.usage("usage: bench_detailed [--scale F] [--passes N]\n");
    }
    set_log_level(LogLevel::kWarn);

    const std::vector<std::size_t> picks = {4, 3, 8, 0};  // fft_1 etc.

    std::cout << "=== Extension: detailed placement with instant "
                 "legalization (HPWL recovery) ===\n";
    Table t({"Benchmark", "Density", "HPWL legal (m)", "HPWL dp (m)",
             "Gain %", "+swap %", "+polish %", "Rows untouchable %",
             "Moves ok/try", "MLL fails", "RT (s)"});
    const auto all = table1_benchmarks(scale);
    for (const std::size_t idx : picks) {
        GenProfile profile = all[idx].profile;
        // Extra GP noise: leaves wirelength on the table for dp to win
        // back, as a real global placement would.
        profile.gp_sigma_x = 3.0;
        profile.gp_sigma_y = 0.8;
        GenResult gen = generate_benchmark(profile);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        LegalizerOptions lopts;
        if (!legalize_placement(gen.db, grid, lopts).success) {
            std::cerr << profile.name << ": legalization failed\n";
            continue;
        }
        DetailedPlacementOptions dopts;
        dopts.max_passes = passes;
        const DetailedPlacementStats s = detailed_place(gen.db, grid, dopts);
        // Follow-up single-row polish ([8,9]-style): only touches segments
        // free of multi-row cells — its skip rate quantifies the paper's
        // §1 claim about single-row techniques.
        const SwapStats sp = swap_pass(gen.db, grid);
        const RowPolishStats rp = row_polish(gen.db, grid);
        const double occupied = static_cast<double>(
            rp.segments_polished + rp.segments_skipped_multirow);
        t.add_row({profile.name, format_fixed(gen.db.density(), 2),
                   format_fixed(s.hpwl_before_um * 1e-6, 4),
                   format_fixed(s.hpwl_after_um * 1e-6, 4),
                   format_fixed(s.improvement_pct(), 2),
                   format_fixed(sp.hpwl_before_um > 0
                                    ? (1.0 - sp.hpwl_after_um /
                                                 sp.hpwl_before_um) * 100
                                    : 0.0,
                                2),
                   format_fixed(rp.improvement_pct(), 2),
                   format_fixed(occupied > 0
                                    ? 100.0 *
                                          static_cast<double>(
                                              rp.segments_skipped_multirow) /
                                          occupied
                                    : 0.0,
                                1),
                   std::to_string(s.moves_accepted) + "/" +
                       std::to_string(s.moves_attempted),
                   std::to_string(s.mll_failures),
                   format_fixed(s.runtime_s, 2)});
    }
    t.print(std::cout);
    std::cout << "\nEvery intermediate state is legal (the [11,12]-style "
                 "instant legalization the paper enables).\n";
    return 0;
}
