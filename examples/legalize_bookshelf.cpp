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
///     --demo         generate a small demo design instead of reading one
///     --lef L --def D  read an ISPD2015-style LEF/DEF pair instead
/// Exit code: 0 on success, 1 on failure, 2 on usage or parse errors.

#include <cstring>
#include <filesystem>
#include <iostream>

#include "db/segment.hpp"
#include "dp/detailed_placer.hpp"
#include "dp/row_polish.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/lefdef.hpp"
#include "io/svg.hpp"
#include "legalize/legalizer.hpp"
#include "util/str.hpp"

using namespace mrlg;

namespace {

const char* find_arg(int argc, char** argv, const char* key) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], key) == 0) {
            return argv[i + 1];
        }
    }
    return nullptr;
}

bool has_flag(int argc, char** argv, const char* key) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], key) == 0) {
            return true;
        }
    }
    return false;
}

/// Reads `key`'s value, when the flag is given, as a whole number no
/// larger than `max`; false on a malformed or larger value.
bool radius_flag(int argc, char** argv, const char* key, std::size_t max,
                 SiteCoord& out) {
    const char* s = find_arg(argc, argv, key);
    std::size_t v = 0;
    if (s == nullptr) {
        return true;
    }
    if (!parse_count(s, v) || v > max) {
        return false;
    }
    out = static_cast<SiteCoord>(v);
    return true;
}

/// Reads --rx and --ry into `opts`; false on a bad value. The cap is
/// mrlg_legalize's, kSiteCoordMax / (4·max_rounds), under which no derived
/// window or jitter coordinate can overflow.
bool radius_flags_ok(int argc, char** argv, LegalizerOptions& opts) {
    const auto max_radius = static_cast<std::size_t>(
        kSiteCoordMax / (4 * static_cast<SiteCoord>(opts.max_rounds)));
    return radius_flag(argc, argv, "--rx", max_radius, opts.mll.rx) &&
           radius_flag(argc, argv, "--ry", max_radius, opts.mll.ry);
}

int usage() {
    std::cerr << "usage: legalize_bookshelf <design.aux> | --lef L --def D"
                 " | --demo\n"
                 "       [--out DIR] [--svg FILE] [--relaxed] [--exact]"
                 " [--dp] [--swap]\n"
                 "       [--polish] [--report] [--rx N] [--ry N]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    LegalizerOptions opts;
    if (!radius_flags_ok(argc, argv, opts)) {
        return usage();
    }
    opts.mll.check_rail = !has_flag(argc, argv, "--relaxed");
    opts.mll.exact_evaluation = has_flag(argc, argv, "--exact");

    Database db;
    std::string design = "design";
    LefLibrary lef;          // populated in LEF/DEF mode
    bool lefdef_mode = false;
    if (find_arg(argc, argv, "--lef") != nullptr &&
        find_arg(argc, argv, "--def") != nullptr) {
        // ISPD2015-style input: --lef tech.lef --def design.def
        try {
            lef = read_lef(find_arg(argc, argv, "--lef"));
            DefReadResult r = read_def(find_arg(argc, argv, "--def"), lef);
            db = std::move(r.db);
            design = r.design_name;
            lefdef_mode = true;
        } catch (const LefDefError& e) {
            std::cerr << "parse error: " << e.what() << "\n";
            return 2;
        }
        db.freeze_fixed_cells();
    } else if (has_flag(argc, argv, "--demo")) {
        GenProfile p;
        p.name = "demo";
        p.num_single = 2000;
        p.num_double = 200;
        p.density = 0.6;
        GenResult gen = generate_benchmark(p);
        db = std::move(gen.db);
        design = "demo";
    } else {
        if (argc < 2 || argv[1][0] == '-') {
            // (reached only when neither --demo nor --lef/--def was given)
            return usage();
        }
        try {
            BookshelfReadResult r = read_bookshelf(argv[1]);
            db = std::move(r.db);
            design = r.design_name;
        } catch (const ParseError& e) {
            std::cerr << "parse error: " << e.what() << "\n";
            return 2;
        }
        db.freeze_fixed_cells();
    }

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

    if (has_flag(argc, argv, "--dp")) {
        const DetailedPlacementStats d = detailed_place(db, grid);
        std::cout << "  detailed placement: " << d.moves_accepted << "/"
                  << d.moves_attempted << " moves, HPWL -"
                  << d.improvement_pct() << " % in " << d.runtime_s
                  << " s\n";
    }
    if (has_flag(argc, argv, "--swap")) {
        const SwapStats ss = swap_pass(db, grid);
        std::cout << "  global swap: " << ss.swaps_accepted << "/"
                  << ss.swaps_attempted << " swaps, HPWL "
                  << ss.hpwl_before_um * 1e-6 << " m -> "
                  << ss.hpwl_after_um * 1e-6 << " m\n";
    }
    if (has_flag(argc, argv, "--polish")) {
        const RowPolishStats rp = row_polish(db, grid);
        std::cout << "  row polish: " << rp.segments_accepted
                  << " segments improved, HPWL -" << rp.improvement_pct()
                  << " % (" << rp.segments_skipped_multirow
                  << " segments untouchable due to multi-row cells)\n";
    }

    if (has_flag(argc, argv, "--report")) {
        print_quality_report(
            make_quality_report(db, grid, opts.mll.check_rail), std::cout);
    }

    if (const char* out = find_arg(argc, argv, "--out")) {
        if (lefdef_mode) {
            std::filesystem::create_directories(out);
            const std::string def_path =
                std::string(out) + "/" + design + "_legal.def";
            write_def(db, lef, def_path, design + "_legal");
            std::cout << "  wrote " << def_path << "\n";
        } else {
            write_bookshelf(db, out, design + "_legal", false);
            std::cout << "  wrote " << out << "/" << design
                      << "_legal.aux\n";
        }
    }
    if (const char* svg = find_arg(argc, argv, "--svg")) {
        SvgOptions sopts;
        sopts.draw_gp_arrows = db.num_cells() < 5000;
        if (write_svg(db, svg, sopts)) {
            std::cout << "  wrote " << svg << "\n";
        }
    }
    return 0;
}
