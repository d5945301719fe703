/// bench_baselines — Ablation D (DESIGN.md): quantifies the paper's §1
/// motivation against the classic alternatives.
///  (1) Greedy/Tetris (placed cells never move, Hill [7]) vs MLL across a
///      density sweep — greedy displacement blows up at high density.
///  (2) Abacus [3] on a single-row-height design (its home turf) vs MLL,
///      and its rejection of multi-row designs.
///
/// Flags: --cells N at most 2000000 (default 4000)

#include <iostream>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "legalize/abacus.hpp"
#include "legalize/greedy.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

GenProfile profile_for(double density, std::size_t cells, bool multi_row) {
    GenProfile p;
    p.name = "sweep";
    p.num_single = multi_row ? cells * 9 / 10 : cells;
    p.num_double = multi_row ? cells / 10 : 0;
    p.density = density;
    p.seed = 12345 + static_cast<std::uint64_t>(density * 100);
    return p;
}

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    std::size_t cells = 4000;
    flags.count("--cells", cells, GenProfile::kMaxCells);
    if (!flags.ok()) {
        return flags.usage("usage: bench_baselines [--cells N]\n");
    }
    set_log_level(LogLevel::kWarn);

    std::cout << "=== Ablation D1: greedy (no placed-cell movement) vs MLL "
                 "across density (paper 1's motivation) ===\n";
    Table t1({"Density", "Disp greedy", "Disp MLL", "Ratio",
              "Greedy unplaced", "MLL unplaced"});
    for (const double density : {0.3, 0.5, 0.7, 0.8, 0.9}) {
        const GenProfile p = profile_for(density, cells, true);
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);

        GreedyOptions gopts;
        const GreedyStats gs = greedy_legalize(gen.db, grid, gopts);
        const double disp_greedy = displacement_stats(gen.db).avg_sites;

        reset_placement(gen.db, grid);
        LegalizerOptions mopts;
        const LegalizerStats ms = legalize_placement(gen.db, grid, mopts);
        const double disp_mll = displacement_stats(gen.db).avg_sites;

        t1.add_row({format_fixed(density, 2), format_fixed(disp_greedy, 3),
                    format_fixed(disp_mll, 3),
                    format_fixed(disp_mll > 0 ? disp_greedy / disp_mll : 0,
                                 2),
                    std::to_string(gs.unplaced),
                    std::to_string(ms.unplaced)});
    }
    t1.print(std::cout);

    std::cout << "\n=== Ablation D2: Abacus on single-row designs; "
                 "rejection of multi-row designs ===\n";
    Table t2({"Design", "Algorithm", "Disp (sites)", "Runtime (s)",
              "Outcome"});
    {
        // Single-row-only design: Abacus's home turf.
        const GenProfile p = profile_for(0.6, cells, false);
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);

        const AbacusStats as = abacus_legalize(gen.db, grid);
        const double disp_ab = displacement_stats(gen.db).avg_sites;
        t2.add_row({"single-row d=0.6", "Abacus",
                    format_fixed(disp_ab, 3), format_fixed(as.runtime_s, 3),
                    as.success ? "legal" : "FAILED"});

        reset_placement(gen.db, grid);
        LegalizerOptions mopts;
        const LegalizerStats ms = legalize_placement(gen.db, grid, mopts);
        t2.add_row({"single-row d=0.6", "MLL",
                    format_fixed(displacement_stats(gen.db).avg_sites, 3),
                    format_fixed(ms.runtime_s, 3),
                    ms.success ? "legal" : "FAILED"});
    }
    {
        // Mixed-height design: Abacus cannot handle it (paper 1).
        const GenProfile p = profile_for(0.6, cells, true);
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        const AbacusStats as = abacus_legalize(gen.db, grid);
        t2.add_row({"multi-row d=0.6", "Abacus", "-",
                    format_fixed(as.runtime_s, 3),
                    as.rejected_multi_row ? "rejected (multi-row cells)"
                                          : "unexpected"});
        LegalizerOptions mopts;
        const LegalizerStats ms = legalize_placement(gen.db, grid, mopts);
        t2.add_row({"multi-row d=0.6", "MLL",
                    format_fixed(displacement_stats(gen.db).avg_sites, 3),
                    format_fixed(ms.runtime_s, 3),
                    ms.success ? "legal" : "FAILED"});
    }
    t2.print(std::cout);
    return 0;
}
