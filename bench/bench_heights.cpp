/// bench_heights — extension experiment beyond the paper's evaluation:
/// the DAC'16 algorithm is formulated for arbitrary multi-row heights
/// (§2), but its benchmarks only contain double-height cells. This bench
/// sweeps the height mix (singles / doubles / triples / quads) and shows
/// the legalizer keeps succeeding with bounded displacement as taller,
/// parity-constrained cells are added.
///
/// Flags: --cells N at most 2000000 (default 4000), --density F in
/// (0, 0.96)
/// (default 0.6)

#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace mrlg;
using namespace mrlg::bench;

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    std::size_t cells = 4000;
    flags.count("--cells", cells, GenProfile::kMaxCells);
    double density = 0.6;
    flags.real("--density", density, 0.0, GenProfile::kMaxDensity,
               Flags::Upper::kOpen);
    if (!flags.ok()) {
        return flags.usage("usage: bench_heights [--cells N] [--density F]\n");
    }
    set_log_level(LogLevel::kWarn);

    struct Mix {
        const char* name;
        double singles, doubles, triples, quads;
    };
    const std::vector<Mix> mixes = {
        {"all-single (classic)", 1.00, 0.00, 0.00, 0.00},
        {"paper (10% double)", 0.90, 0.10, 0.00, 0.00},
        {"+triples", 0.85, 0.10, 0.05, 0.00},
        {"+quads", 0.82, 0.10, 0.05, 0.03},
        {"tall-heavy", 0.60, 0.20, 0.12, 0.08},
    };

    std::cout << "=== Extension: height-mix sweep at density "
              << format_fixed(density, 2) << " ===\n";
    Table t({"Mix", "#1r", "#2r", "#3r", "#4r", "Disp (sites)", "dHPWL %",
             "RT (s)", "Legal"});
    for (const Mix& mix : mixes) {
        GenProfile p;
        p.name = mix.name;
        p.num_single =
            static_cast<std::size_t>(mix.singles * static_cast<double>(cells));
        p.num_double =
            static_cast<std::size_t>(mix.doubles * static_cast<double>(cells));
        p.num_triple =
            static_cast<std::size_t>(mix.triples * static_cast<double>(cells));
        p.num_quad =
            static_cast<std::size_t>(mix.quads * static_cast<double>(cells));
        p.density = density;
        p.seed = 77;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        LegalizerOptions opts;
        const RunMetrics m = run_legalization(gen.db, grid, opts);
        t.add_row({mix.name, std::to_string(p.num_single),
                   std::to_string(p.num_double),
                   std::to_string(p.num_triple), std::to_string(p.num_quad),
                   format_fixed(m.disp_avg_sites, 3),
                   format_fixed(m.dhpwl_pct, 2),
                   format_fixed(m.runtime_s, 3), m.success ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout << "\nTaller cells are rarer but costlier to place (taller "
                 "windows, parity for even heights); displacement grows "
                 "mildly while the flow stays legal.\n";
    return 0;
}
