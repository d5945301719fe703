/// mrlg_legalize — the canonical end-to-end legalization driver: read a
/// design (Bookshelf, LEF/DEF, or a generated synthetic one), legalize it
/// with the DAC'16 multi-row flow, optionally run detailed placement, and
/// emit the machine-readable run report (docs/REPORT.md) that every mrlg
/// reporting surface shares. Exit code: 0 on success (all cells placed,
/// result legal), 1 on failure, 2 on usage or parse errors; a missing,
/// malformed or out-of-range value (a value flag given last included) and
/// an unknown flag are usage errors.
///
/// Usage:
///   mrlg_legalize <design.aux> [options]
///   mrlg_legalize --lef tech.lef --def design.def [options]
///   mrlg_legalize --gen [options]
///     --gen             legalize a synthetic benchmark (2200 cells by
///                       default; the same as mrlg_audit --gen)
///     --singles N       generator: single-row cells   (default 2000)
///     --doubles N       generator: double-row cells   (default 200);
///                       singles + doubles at most 2000000
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

#include <iostream>
#include <optional>
#include <string>

#include "db/segment.hpp"
#include "dp/detailed_placer.hpp"
#include "eval/report.hpp"
#include "io/bookshelf.hpp"
#include "io/design_source.hpp"
#include "legalize/legalizer.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: mrlg_legalize <design.aux> | --lef L --def D | --gen\n"
    "       [--singles N] [--doubles N] [--density D] [--gen-seed S]\n"
    "       [--seed S] [--threads T] [--rx N] [--ry N] [--exact]\n"
    "       [--relaxed] [--dp] [--report FILE] [--trace FILE]\n"
    "       [--deterministic] [--out DIR] [--quiet]\n";

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    LegalizerOptions opts;
    flags.count("--seed", opts.seed);
    flags.count("--threads", opts.num_threads);
    flags.count("--rx", opts.mll.rx, max_window_radius(opts));
    flags.count("--ry", opts.mll.ry, max_window_radius(opts));
    opts.mll.exact_evaluation = flags.has("--exact");
    opts.mll.check_rail = !flags.has("--relaxed");
    const char* report_path = flags.value("--report");
    const char* trace_path = flags.value("--trace");
    const char* out_dir = flags.value("--out");
    const bool quiet = flags.has("--quiet");
    const bool deterministic = flags.has("--deterministic");
    const bool detailed = flags.has("--dp");

    std::optional<LoadedDesign> loaded =
        load_or_generate(flags, "legalize-gen", "--gen-seed");
    if (!flags.ok()) {
        return flags.usage(kUsage);
    }
    if (!loaded) {
        return 2;  // parse error, already reported
    }
    Database& db = loaded->db;
    const std::string& design = loaded->name;

    // One tracer for the whole run; --deterministic swaps in counted
    // ticks so the report is reproducible byte for byte.
    obs::TickClock tick_clock;
    obs::WallClock wall_clock;
    obs::Tracer tracer(deterministic
                           ? static_cast<obs::Clock*>(&tick_clock)
                           : static_cast<obs::Clock*>(&wall_clock));
    obs::ScopedTracer install(tracer);

    // Wall-clock execution timeline for --trace and the (wall-only)
    // report `timeline` block. Harmless under --deterministic: the report
    // excludes it there, and goldens stay byte-identical.
    obs::Timeline timeline;
    obs::ScopedTimeline install_timeline(timeline);

    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerStats stats;
    try {
        stats = legalize_placement(db, grid, opts);
        if (detailed) {
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
    if (report_path != nullptr) {
        if (!obs::write_json_file(report_path, report)) {
            return 2;
        }
    }
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(trace_path, timeline,
                                     "mrlg_legalize " + design)) {
            return 2;
        }
    }

    if (out_dir != nullptr) {
        try {
            write_bookshelf(db, out_dir, design + "_legal");
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
