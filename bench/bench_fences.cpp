/// bench_fences — extension experiment: the ISPD2015 suite the paper
/// evaluates on is "Benchmarks with Fence Regions and Routing Blockages";
/// this bench sweeps the fraction of fence-constrained cells and measures
/// the legalization cost of the fence walls (members can only shuffle
/// within their region, so local slack shrinks).
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
        return flags.usage("usage: bench_fences [--cells N] [--density F]\n");
    }
    set_log_level(LogLevel::kWarn);

    std::cout << "=== Extension: fence regions at density "
              << format_fixed(density, 2) << " ===\n";
    Table t({"Fenced cells %", "Disp (sites)", "Disp fenced", "Disp core",
             "dHPWL %", "RT (s)", "Legal"});
    for (const double frac : {0.0, 0.1, 0.2, 0.35, 0.5}) {
        GenProfile p;
        p.name = "fences";
        p.num_single = cells * 9 / 10;
        p.num_double = cells / 10;
        p.density = density;
        p.fence_cell_frac = frac;
        p.seed = 31;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        LegalizerOptions opts;
        const RunMetrics m = run_legalization(gen.db, grid, opts);

        // Per-population displacement.
        const double sw = gen.db.floorplan().site_w_um();
        const double sh = gen.db.floorplan().site_h_um();
        double disp_f = 0;
        double disp_c = 0;
        std::size_t n_f = 0;
        std::size_t n_c = 0;
        for (const Cell& c : gen.db.cells()) {
            if (!c.placed()) {
                continue;
            }
            const double d =
                (std::abs(c.x() - c.gp_x()) * sw +
                 std::abs(c.y() - c.gp_y()) * sh) /
                sw;
            if (c.region() != 0) {
                disp_f += d;
                ++n_f;
            } else {
                disp_c += d;
                ++n_c;
            }
        }
        t.add_row({format_fixed(frac * 100, 0),
                   format_fixed(m.disp_avg_sites, 3),
                   n_f > 0 ? format_fixed(disp_f / static_cast<double>(n_f),
                                          3)
                           : "-",
                   n_c > 0 ? format_fixed(disp_c / static_cast<double>(n_c),
                                          3)
                           : "-",
                   format_fixed(m.dhpwl_pct, 2),
                   format_fixed(m.runtime_s, 3), m.success ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::cout << "\nFence members pay a displacement premium (their local "
                 "regions end at the fence wall); the core is unaffected.\n";
    return 0;
}
