/// legalize_bookshelf — command-line front end: read a Bookshelf design,
/// legalize it with the DAC'16 multi-row algorithm, report Table-1-style
/// metrics, and write the legalized placement (plus an optional SVG).
///
/// Usage:
///   legalize_bookshelf <design.aux> [options]
///     --out DIR      write <design>_legal.{aux,...} into DIR
///     --svg FILE     render the result as SVG
///     --relaxed      drop the power-rail parity constraint
///     --exact        exact local optimality (Table 1's "ILP" config)
///     --dp           run the detailed placer afterwards
///     --swap         run the global same-footprint swap pass
///     --polish       run the single-row polish pass afterwards
///     --report       print the placement quality report
///     --rx N --ry N  MLL window radii, at most 2097151 (default 30 / 5)
///     --demo         generate the demo design instead of reading one
///                    (mrlg_legalize --gen's 2200-cell default profile)
///     --lef L --def D  read an ISPD2015-style LEF/DEF pair instead
/// Exit code: 0 on success, 1 on failure, 2 on usage or parse errors (a
/// missing, malformed or out-of-range value and an unknown flag are usage
/// errors).

#include <filesystem>
#include <iostream>
#include <optional>

#include "db/segment.hpp"
#include "dp/detailed_placer.hpp"
#include "dp/row_polish.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "io/bookshelf.hpp"
#include "io/design_source.hpp"
#include "io/svg.hpp"
#include "legalize/legalizer.hpp"
#include "util/cli.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: legalize_bookshelf <design.aux> | --lef L --def D | --demo\n"
    "       [--out DIR] [--svg FILE] [--relaxed] [--exact] [--dp] [--swap]\n"
    "       [--polish] [--report] [--rx N] [--ry N]\n";

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    LegalizerOptions opts;
    flags.count("--rx", opts.mll.rx, max_window_radius(opts));
    flags.count("--ry", opts.mll.ry, max_window_radius(opts));
    opts.mll.check_rail = !flags.has("--relaxed");
    opts.mll.exact_evaluation = flags.has("--exact");
    const char* out = flags.value("--out");
    const char* svg = flags.value("--svg");
    const bool detailed = flags.has("--dp");
    const bool swap = flags.has("--swap");
    const bool polish = flags.has("--polish");
    const bool report = flags.has("--report");

    std::optional<LoadedDesign> loaded;
    if (!flags.has("--demo")) {
        loaded = load_design(flags);
    } else if (flags.ok()) {
        loaded = generate_design(cli_gen_profile("demo"));
    }
    if (!flags.ok()) {
        return flags.usage(kUsage);
    }
    if (!loaded) {
        return 2;  // parse error, already reported
    }
    Database& db = loaded->db;
    const std::string& design = loaded->name;

    SegmentGrid grid = SegmentGrid::build(db);

    const double gp_hpwl = hpwl_m(db, PositionSource::kGlobalPlacement);
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    LegalityOptions lopts;
    lopts.check_rail_alignment = opts.mll.check_rail;
    const LegalityReport rep = check_legality(db, grid, lopts);
    const DisplacementStats disp = displacement_stats(db);

    std::cout << design << ": " << db.num_single_row_cells()
              << " single-row + " << db.num_multi_row_cells()
              << " multi-row cells, density " << db.density() << "\n"
              << "  legalized in " << stats.runtime_s << " s ("
              << stats.direct_placements << " direct, "
              << stats.mll_successes << " MLL, "
              << stats.fallback_placements << " fallback, "
              << stats.ripup_placements << " rip-up)\n"
              << "  legal: " << (rep.legal ? "yes" : "NO") << "\n"
              << "  avg displacement: " << disp.avg_sites << " sites\n"
              << "  GP HPWL " << gp_hpwl << " m -> "
              << hpwl_m(db, PositionSource::kLegalized) << " m ("
              << hpwl_delta(db) * 100 << " %)\n";
    if (!rep.legal || !stats.success) {
        for (const auto& msg : rep.messages) {
            std::cerr << "  violation: " << msg << "\n";
        }
        return 1;
    }

    if (detailed) {
        const DetailedPlacementStats d = detailed_place(db, grid);
        std::cout << "  detailed placement: " << d.moves_accepted << "/"
                  << d.moves_attempted << " moves, HPWL -"
                  << d.improvement_pct() << " % in " << d.runtime_s
                  << " s\n";
    }
    if (swap) {
        const SwapStats ss = swap_pass(db, grid);
        std::cout << "  global swap: " << ss.swaps_accepted << "/"
                  << ss.swaps_attempted << " swaps, HPWL "
                  << ss.hpwl_before_um * 1e-6 << " m -> "
                  << ss.hpwl_after_um * 1e-6 << " m\n";
    }
    if (polish) {
        const RowPolishStats rp = row_polish(db, grid);
        std::cout << "  row polish: " << rp.segments_accepted
                  << " segments improved, HPWL -" << rp.improvement_pct()
                  << " % (" << rp.segments_skipped_multirow
                  << " segments untouchable due to multi-row cells)\n";
    }

    if (report) {
        print_quality_report(
            make_quality_report(db, grid, opts.mll.check_rail), std::cout);
    }

    if (out != nullptr) {
        if (loaded->from_def) {
            std::filesystem::create_directories(out);
            const std::string def_path =
                std::string(out) + "/" + design + "_legal.def";
            write_def(db, loaded->lef, def_path, design + "_legal");
            std::cout << "  wrote " << def_path << "\n";
        } else {
            write_bookshelf(db, out, design + "_legal", false);
            std::cout << "  wrote " << out << "/" << design
                      << "_legal.aux\n";
        }
    }
    if (svg != nullptr) {
        SvgOptions sopts;
        sopts.draw_gp_arrows = db.num_cells() < 5000;
        if (write_svg(db, svg, sopts)) {
            std::cout << "  wrote " << svg << "\n";
        }
    }
    return 0;
}
