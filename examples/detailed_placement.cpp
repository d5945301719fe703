/// detailed_placement — the paper's primary flow (§6): take an ISPD2015-
/// style design with a global placement, legalize it with the multi-row
/// algorithm, and report Table-1-style metrics. Also demonstrates the
/// exact ("ILP") configuration on the same design and writes the legalized
/// result in Bookshelf format.
///
/// Usage: detailed_placement [cells] [density] [out_dir]
///   cells    movable cells, a whole number up to 2000000 (default 20000)
///   density  target density in (0, 0.96) (default 0.6)
/// Exit code: 0 when the result is legal, 1 when not, 2 on a malformed or
/// out-of-range argument.

#include <iostream>

#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "legalize/legalizer.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
    using namespace mrlg;
    Flags flags(argc, argv, {"cells", "density", "out_dir"});
    std::size_t cells = 20000;
    flags.count("cells", cells, GenProfile::kMaxCells);
    double density = 0.6;
    flags.real("density", density, 0.0, GenProfile::kMaxDensity,
               Flags::Upper::kOpen);
    const char* out_dir = flags.value("out_dir");
    if (!flags.ok()) {
        return flags.usage(
            "usage: detailed_placement [cells] [density] [out_dir]\n");
    }

    // 1. Synthesize the design (cells, nets, macros, GP positions).
    GenProfile profile;
    profile.name = "detailed_placement_demo";
    profile.num_single = cells * 9 / 10;
    profile.num_double = cells / 10;  // the paper's 10% double-height mix
    profile.density = density;
    profile.num_blockages = 3;
    profile.blockage_area_frac = 0.03;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    std::cout << "design: " << db.num_single_row_cells()
              << " single-row + " << db.num_multi_row_cells()
              << " double-row cells, density " << db.density() << "\n"
              << "GP HPWL: " << hpwl_m(db, PositionSource::kGlobalPlacement)
              << " m\n\n";

    // 2. Legalize with the paper's defaults (Rx=30, Ry=5, rail checked).
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts;
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    const LegalityReport legal = check_legality(db, grid);
    const DisplacementStats disp = displacement_stats(db);

    std::cout << "MLL legalization (" << stats.runtime_s << " s):\n"
              << "  legal              : " << (legal.legal ? "yes" : "NO")
              << "\n"
              << "  direct / MLL / fb  : " << stats.direct_placements
              << " / " << stats.mll_successes << " / "
              << stats.fallback_placements << "\n"
              << "  avg disp (sites)   : " << disp.avg_sites << "\n"
              << "  max disp (sites)   : " << disp.max_sites << "\n"
              << "  HPWL change        : " << hpwl_delta(db) * 100 << " %\n";

    // 3. Same design through the exact local solver (Table 1's "ILP").
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
    LegalizerOptions exact = opts;
    exact.mll.exact_evaluation = true;
    const LegalizerStats estats = legalize_placement(db, grid, exact);
    const DisplacementStats edisp = displacement_stats(db);
    std::cout << "\nexact / ILP configuration (" << estats.runtime_s
              << " s):\n"
              << "  avg disp (sites)   : " << edisp.avg_sites << "\n"
              << "  runtime ratio      : "
              << (stats.runtime_s > 0 ? estats.runtime_s / stats.runtime_s
                                      : 0)
              << "x\n";

    // 4. Optionally export the legalized design.
    if (out_dir != nullptr) {
        write_bookshelf(db, out_dir, profile.name, false);
        std::cout << "\nwrote " << out_dir << "/" << profile.name
                  << ".{aux,nodes,nets,pl,scl}\n";
    }
    return legal.legal && stats.success ? 0 : 1;
}
