/// mrlg_fuzz — differential fuzz driver for the legalization stack
/// (src/qa). Generates seeded adversarial cases, runs every independent
/// implementation against its oracle twin, shrinks any mismatch to a
/// minimal repro and (optionally) dumps it as a replayable Bookshelf
/// design. Bit-reproducible: the same --seed yields the same report at
/// any --threads value. Exit code: 0 when all oracles agree, 1 on a
/// divergence, 2 on usage errors (including a missing, malformed or
/// out-of-range value, a value flag given last, or an unknown flag).
///
/// Usage:
///   mrlg_fuzz [options]
///   mrlg_fuzz --replay repro.aux
///     --seed S          master seed                    (default 1)
///     --iters N         iterations per scenario        (default 50)
///     --threads T       legalizer threads, 0 = env default (default 0)
///     --scenario NAME   restrict to one scenario:
///                       legality|local|mll|ripup|design (default: all)
///     --out DIR         dump shrunk repros under DIR
///     --no-shrink       keep failing cases at full size
///     --no-ilp          skip the MIP cross-check
///     --max-failures N  stop after N divergences       (default 8)
///     --report FILE     write the JSON run report (docs/REPORT.md)
///     --trace FILE      write a Chrome trace-event / Perfetto JSON
///                       timeline of the campaign's parallel phases
///     --replay FILE.aux replay a dumped repro instead of fuzzing

#include <iostream>
#include <string>

#include "obs/run_report.hpp"
#include "qa/fuzz.hpp"
#include "util/cli.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: mrlg_fuzz [--seed S] [--iters N] [--threads T]\n"
    "       [--scenario legality|local|mll|ripup|design]\n"
    "       [--out DIR] [--no-shrink] [--no-ilp]\n"
    "       [--max-failures N] [--report FILE] [--trace FILE]\n"
    "       | --replay repro.aux\n";

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    qa::FuzzOptions opts;
    flags.count("--seed", opts.seed);
    flags.count("--iters", opts.iters);
    flags.count("--threads", opts.num_threads);
    flags.count("--max-failures", opts.max_failures);
    if (opts.iters <= 0) {
        flags.fail("--iters");
    }
    if (const char* s = flags.value("--out")) {
        opts.repro_dir = s;
    }
    if (const char* s = flags.value("--scenario")) {
        qa::FuzzScenario scen{};
        if (qa::scenario_from_string(s, scen)) {
            opts.scenarios.push_back(scen);
        } else {
            flags.fail("--scenario");
        }
    }
    opts.shrink = !flags.has("--no-shrink");
    opts.exercise_ilp = !flags.has("--no-ilp");
    const char* report_path = flags.value("--report");
    const char* trace_path = flags.value("--trace");
    const char* replay = flags.value("--replay");
    if (!flags.ok()) {
        return flags.usage(kUsage);
    }

    if (replay != nullptr) {
        try {
            const std::string diff = qa::replay_repro(replay);
            if (diff.empty()) {
                std::cout << replay << ": all oracles agree\n";
                return 0;
            }
            std::cout << replay << ": " << diff << "\n";
            return 1;
        } catch (const std::exception& e) {
            std::cerr << replay << ": " << e.what() << "\n";
            return 2;
        }
    }

    obs::Tracer tracer;
    obs::Timeline timeline;
    qa::FuzzReport report;
    {
        obs::ScopedTracer install(tracer);
        obs::ScopedTimeline install_timeline(timeline);
        report = qa::run_fuzz(opts);
    }
    std::cout << "mrlg_fuzz seed " << opts.seed << ": " << report.summary();
    if (report_path != nullptr) {
        obs::RunReportSpec spec;
        spec.tool = "mrlg_fuzz";
        spec.design = "fuzz-seed-" + std::to_string(opts.seed);
        spec.num_threads = opts.num_threads;
        spec.tracer = &tracer;
        spec.timeline = &timeline;
        if (!obs::write_run_report(report_path, spec)) {
            return 2;
        }
    }
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(
                trace_path, timeline,
                "mrlg_fuzz seed " + std::to_string(opts.seed))) {
            return 2;
        }
    }
    return report.ok() ? 0 : 1;
}
