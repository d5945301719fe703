/// mrlg_legalize — the canonical end-to-end legalization driver: read a
/// design (Bookshelf, LEF/DEF, or a generated synthetic one), legalize it
/// with the DAC'16 multi-row flow, optionally run detailed placement, and
/// emit the machine-readable run report (docs/REPORT.md) that every mrlg
/// reporting surface shares. Exit code: 0 on success (all cells placed,
/// result legal), 1 on failure, 2 on usage or parse errors.
///
/// Usage:
///   mrlg_legalize <design.aux> [options]
///   mrlg_legalize --lef tech.lef --def design.def [options]
///   mrlg_legalize --gen [options]
///     --gen             legalize a synthetic benchmark
///     --singles N       generator: single-row cells   (default 2000)
///     --doubles N       generator: double-row cells   (default 200)
///     --density D       generator: target density in (0, 0.96)
///                       (default 0.6)
///     --gen-seed S      generator: rng seed           (default 1)
///     --seed S          legalizer rng seed            (default 1)
///     --threads T       evaluation threads, 0 = MRLG_THREADS (default 0)
///     --rx N / --ry N   MLL window radii, at most 2097151
///                                                     (default 30 / 5)
///     --exact           exact insertion-point evaluation ("ILP" config)
///     --relaxed         drop the power-rail parity constraint
///     --dp              run the detailed placer afterwards
///     --report FILE     write the JSON run report to FILE
///     --trace FILE      write a Chrome trace-event / Perfetto JSON
///                       timeline of the parallel pipeline to FILE
///     --deterministic   counted-tick tracer clock: the report becomes a
///                       pure function of the execution path (golden mode)
///     --out DIR         write the legalized design as Bookshelf into DIR
///     --quiet           suppress the stdout summary

#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "db/segment.hpp"
#include "dp/detailed_placer.hpp"
#include "eval/report.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/lefdef.hpp"
#include "legalize/legalizer.hpp"
#include "obs/run_report.hpp"
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

/// Reads --singles, --doubles (non-negative integers) and --density (in
/// the generator's (0, kMaxDensity)) into `p`; false on a bad value.
bool gen_flags_ok(int argc, char** argv, GenProfile& p) {
    const char* s = find_arg(argc, argv, "--singles");
    if (s != nullptr && !parse_count(s, p.num_single)) {
        return false;
    }
    s = find_arg(argc, argv, "--doubles");
    if (s != nullptr && !parse_count(s, p.num_double)) {
        return false;
    }
    s = find_arg(argc, argv, "--density");
    if (s != nullptr && !parse_double(s, p.density)) {
        return false;
    }
    return p.density > 0.0 && p.density < GenProfile::kMaxDensity;
}

/// Reads `key`'s value, when the flag is given, as a whole non-negative
/// integer no larger than `max`; false on a malformed or larger value.
template <typename T>
bool count_flag(int argc, char** argv, const char* key, std::size_t max,
                T& out) {
    const char* s = find_arg(argc, argv, key);
    std::size_t v = 0;
    if (s == nullptr) {
        return true;
    }
    if (!parse_count(s, v) || v > max) {
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

/// Reads --seed, --threads, --rx and --ry into `opts`; false on a bad
/// value. A window radius r is capped at kSiteCoordMax / (4·max_rounds),
/// so the widest jitter range r·(max_rounds − 1) plus the window width
/// 2·r + w stays within a quarter of kSiteCoordMax and die coordinates
/// and cell widths w keep the rest: no derived coordinate can overflow.
bool legalizer_flags_ok(int argc, char** argv, LegalizerOptions& opts) {
    const auto max_radius = static_cast<std::size_t>(
        kSiteCoordMax / (4 * static_cast<SiteCoord>(opts.max_rounds)));
    return count_flag(argc, argv, "--seed",
                      std::numeric_limits<std::uint64_t>::max(), opts.seed) &&
           count_flag(argc, argv, "--threads",
                      static_cast<std::size_t>(
                          std::numeric_limits<int>::max()),
                      opts.num_threads) &&
           count_flag(argc, argv, "--rx", max_radius, opts.mll.rx) &&
           count_flag(argc, argv, "--ry", max_radius, opts.mll.ry);
}

int usage() {
    std::cerr
        << "usage: mrlg_legalize <design.aux> | --lef L --def D | --gen\n"
           "       [--singles N] [--doubles N] [--density D] [--gen-seed S]\n"
           "       [--seed S] [--threads T] [--rx N] [--ry N] [--exact]\n"
           "       [--relaxed] [--dp] [--report FILE] [--trace FILE]\n"
           "       [--deterministic] [--out DIR] [--quiet]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    LegalizerOptions opts;
    if (!legalizer_flags_ok(argc, argv, opts)) {
        return usage();
    }
    opts.mll.exact_evaluation = has_flag(argc, argv, "--exact");
    opts.mll.check_rail = !has_flag(argc, argv, "--relaxed");

    Database db;
    std::string design = "design";

    if (has_flag(argc, argv, "--gen")) {
        GenProfile p;
        p.name = "legalize-gen";
        p.num_single = 2000;
        p.num_double = 200;
        p.density = 0.6;
        if (!gen_flags_ok(argc, argv, p) ||
            !count_flag(argc, argv, "--gen-seed",
                        std::numeric_limits<std::uint64_t>::max(), p.seed)) {
            return usage();
        }
        GenResult gen = generate_benchmark(p);
        db = std::move(gen.db);
        design = p.name;
    } else if (find_arg(argc, argv, "--lef") != nullptr &&
               find_arg(argc, argv, "--def") != nullptr) {
        try {
            const LefLibrary lef = read_lef(find_arg(argc, argv, "--lef"));
            DefReadResult r = read_def(find_arg(argc, argv, "--def"), lef);
            db = std::move(r.db);
            design = r.design_name;
        } catch (const LefDefError& e) {
            std::cerr << "parse error: " << e.what() << "\n";
            return 2;
        }
        db.freeze_fixed_cells();
    } else if (argc >= 2 && argv[1][0] != '-') {
        try {
            BookshelfReadResult r = read_bookshelf(argv[1]);
            db = std::move(r.db);
            design = r.design_name;
        } catch (const ParseError& e) {
            std::cerr << "parse error: " << e.what() << "\n";
            return 2;
        }
        db.freeze_fixed_cells();
    } else {
        return usage();
    }

    const bool quiet = has_flag(argc, argv, "--quiet");

    // One tracer for the whole run; --deterministic swaps in counted
    // ticks so the report is reproducible byte for byte.
    obs::TickClock tick_clock;
    obs::WallClock wall_clock;
    const bool deterministic = has_flag(argc, argv, "--deterministic");
    obs::Tracer tracer(deterministic
                           ? static_cast<obs::Clock*>(&tick_clock)
                           : static_cast<obs::Clock*>(&wall_clock));
    obs::ScopedTracer install(tracer);

    // Wall-clock execution timeline for --trace and the (wall-only)
    // report `timeline` block. Harmless under --deterministic: the report
    // excludes it there, and goldens stay byte-identical.
    const char* trace_path = find_arg(argc, argv, "--trace");
    obs::Timeline timeline;
    obs::ScopedTimeline install_timeline(timeline);

    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerStats stats;
    try {
        stats = legalize_placement(db, grid, opts);
        if (has_flag(argc, argv, "--dp")) {
            DetailedPlacementOptions dopts;
            dopts.mll = opts.mll;
            detailed_place(db, grid, dopts);
        }
    } catch (const AssertionError& e) {
        std::cerr << design << ": in-run audit failed:\n" << e.what()
                  << "\n";
        return 1;
    }

    obs::RunReportSpec spec;
    spec.tool = "mrlg_legalize";
    spec.design = design;
    spec.db = &db;
    spec.grid = &grid;
    spec.check_rail = opts.mll.check_rail;
    spec.num_threads = opts.num_threads;
    spec.options = &opts;
    spec.stats = &stats;
    spec.tracer = &tracer;
    spec.timeline = &timeline;
    const obs::Json report = obs::make_run_report(spec);
    if (const char* path = find_arg(argc, argv, "--report")) {
        if (!obs::write_json_file(path, report)) {
            return 2;
        }
    }
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(trace_path, timeline,
                                     "mrlg_legalize " + design)) {
            return 2;
        }
    }

    if (const char* dir = find_arg(argc, argv, "--out")) {
        try {
            write_bookshelf(db, dir, design + "_legal");
        } catch (const std::exception& e) {
            std::cerr << "write error: " << e.what() << "\n";
            return 2;
        }
    }

    const QualityReport quality =
        make_quality_report(db, grid, opts.mll.check_rail);
    if (!quiet) {
        std::cout << design << ": legalized " << stats.num_cells
                  << " cells in " << stats.rounds << " rounds ("
                  << stats.direct_placements << " direct, "
                  << stats.mll_successes << " MLL, "
                  << stats.fallback_placements << " fallback, "
                  << stats.ripup_placements << " rip-up)\n";
        print_quality_report(quality, std::cout);
    }
    return stats.success && quality.legal ? 0 : 1;
}
