/// bench_parallel — thread-scaling sweep of the cell-level plan fan-out.
/// For each synthesized design and evaluation mode, legalizes the same
/// global placement at 1/2/4/8 threads under both pipeline series:
///
///   serial          — Pipeline::kSerial: one cell per plan/commit wave,
///                     fully serial at every thread count (the reference
///                     the other series must reproduce);
///   region_parallel — plan/commit waves batching cells with disjoint
///                     local-region footprints (legalize/pipeline.hpp, the
///                     default); fallback/rip-up rounds still run one cell
///                     per wave.
///
/// Every run is verified bit-identical to the serial baseline of its
/// series AND to the other series (the pipeline's serial-equivalence
/// contract), then emitted into a machine-readable JSON trajectory
/// together with the real machine configuration — speedup numbers are
/// meaningless without the hardware_threads that produced them. This is
/// the one thread-sweep harness: with --trace, each run entry also
/// carries its `schedule` block (pool utilization, straggler share,
/// commit-serialization share and critical path; obs/timeline.hpp).
///
/// Flags:
///   --json PATH    output file (default BENCH_parallel.json)
///   --threads CSV  positive thread counts to sweep (default "1,2,4,8")
///   --scale F      cell-count scale factor in (0, 1] (default 1.0)
///   --seed N       generator seed offset (default 0)
///   --approx-only / --exact-only   restrict the evaluation modes
///   --large-only   run only the largest design
///   --trace PATH   install a fresh wall-clock timeline per run, add its
///                  `schedule` block to the run's entry, and write the
///                  last run's Chrome trace-event / Perfetto JSON to PATH
///                  (off by default so the no-timeline overhead claim
///                  stays measurable here)

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "io/profiles.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

std::vector<std::pair<SiteCoord, SiteCoord>> snapshot(const Database& db) {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    pos.reserve(db.num_cells());
    for (const Cell& c : db.cells()) {
        pos.emplace_back(c.x(), c.y());
    }
    return pos;
}

struct Series {
    const char* name;
    LegalizerOptions::Pipeline pipeline;
};

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    const char* json_arg = flags.value("--json");
    const std::string json_path =
        json_arg != nullptr ? json_arg : "BENCH_parallel.json";
    std::vector<int> threads = {1, 2, 4, 8};
    flags.int_list("--threads", threads);
    double scale = 1.0;
    flags.real("--scale", scale, 0.0, kMaxScale, Flags::Upper::kClosed);
    int seed_offset = 0;
    flags.count("--seed", seed_offset);
    const char* trace_path = flags.value("--trace");
    std::vector<std::string> designs = parallel_profile_names();
    if (flags.has("--large-only")) {
        designs = {designs.back()};
    }
    std::vector<bool> modes;  // true = exact evaluation
    if (!flags.has("--exact-only")) {
        modes.push_back(false);
    }
    if (!flags.has("--approx-only")) {
        modes.push_back(true);
    }
    if (!flags.ok()) {
        return flags.usage(
            "usage: bench_parallel [--json PATH] [--threads CSV] [--scale F]"
            " [--seed N]\n"
            "       [--approx-only | --exact-only] [--large-only]"
            " [--trace PATH]\n");
    }
    set_log_level(LogLevel::kWarn);

    // The timeline is installed ONLY with --trace: default bench runs
    // measure the true zero-observer cost of the instrumented hot paths.
    std::unique_ptr<obs::Timeline> timeline;
    std::unique_ptr<obs::ScopedTimeline> timeline_guard;
    const Series series[] = {
        {"serial", LegalizerOptions::Pipeline::kSerial},
        {"region_parallel", LegalizerOptions::Pipeline::kRegionParallel},
    };

    Json root = Json::object();
    root.set("bench", Json::str("bench_parallel"));
    root.set("scale", Json::num(scale));
    root.set("seed_offset", Json::num(static_cast<std::int64_t>(seed_offset)));
    Json runs = Json::array();

    for (const std::string& design_name : designs) {
        GenProfile profile;
        if (!parallel_profile(design_name, scale, seed_offset, profile)) {
            std::cerr << "unknown parallel design profile: " << design_name
                      << "\n";
            return 1;
        }
        GenResult gen = generate_benchmark(profile);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        const std::size_t num_cells = db.num_cells();

        for (const bool exact : modes) {
            // Reference placement: the serial path at 1 thread. Every run
            // of every series must reproduce it bit for bit.
            std::vector<std::pair<SiteCoord, SiteCoord>> reference_pos;
            for (const Series& s : series) {
                double baseline_time = 0.0;
                for (const int t : threads) {
                    reset_placement(db, grid);
                    if (trace_path != nullptr) {
                        // Fresh timeline per run; the last run's events are
                        // what ends up in the trace file.
                        timeline_guard.reset();
                        timeline = std::make_unique<obs::Timeline>();
                        timeline_guard =
                            std::make_unique<obs::ScopedTimeline>(*timeline);
                    }
                    LegalizerOptions opts;
                    opts.seed = profile.seed;
                    opts.num_threads = t;
                    opts.pipeline = s.pipeline;
                    opts.mll.exact_evaluation = exact;
                    const RunMetrics m = run_legalization(db, grid, opts);
                    const auto pos = snapshot(db);
                    if (reference_pos.empty()) {
                        reference_pos = pos;
                    }
                    if (t == threads.front()) {
                        baseline_time = m.runtime_s;
                    }
                    const bool identical = pos == reference_pos;
                    const double speedup =
                        m.runtime_s > 0.0 ? baseline_time / m.runtime_s
                                          : 0.0;
                    std::cerr << design_name << " ["
                              << (exact ? "exact" : "approx") << "/"
                              << s.name << "] t=" << t << ": "
                              << format_fixed(m.runtime_s, 3) << "s"
                              << " speedup=" << format_fixed(speedup, 2)
                              << (identical ? "" : "  MISMATCH") << "\n";

                    // Sanity guard: no run can legitimately beat linear
                    // scaling. A speedup above the thread count (plus
                    // timer-noise slack) means the baseline, the clock, or
                    // the recorded environment is lying — exactly the class
                    // of bug behind a hardware_threads:1 machine reporting
                    // 7 pool workers.
                    if (speedup > static_cast<double>(t) + 0.25) {
                        std::cerr << "FATAL: speedup_vs_serial "
                                  << format_fixed(speedup, 2)
                                  << " exceeds the thread count " << t
                                  << " (series=" << s.name
                                  << " design=" << design_name
                                  << ") - baseline or clock is broken\n";
                        return 1;
                    }

                    const ThreadPoolConfig tp_now = ThreadPool::config();
                    Json run = Json::object();
                    run.set("design", Json::str(design_name));
                    run.set("cells", Json::num(num_cells));
                    run.set("mode", Json::str(exact ? "exact" : "approx"));
                    run.set("series", Json::str(s.name));
                    run.set("threads",
                            Json::num(static_cast<std::int64_t>(t)));
                    run.set("threads_effective",
                            Json::num(static_cast<std::int64_t>(std::min(
                                t, tp_now.pool_workers + 1))));
                    run.set("legalize_s", Json::num(m.runtime_s));
                    run.set("success", Json::boolean(m.success));
                    run.set("points_evaluated",
                            Json::num(m.points_evaluated));
                    run.set("waves", Json::num(m.waves));
                    run.set("conflict_requeues",
                            Json::num(m.conflict_requeues));
                    run.set("disp_avg_sites", Json::num(m.disp_avg_sites));
                    run.set("dhpwl_pct", Json::num(m.dhpwl_pct));
                    run.set("speedup_vs_serial", Json::num(speedup));
                    run.set("identical_to_serial",
                            Json::boolean(identical));
                    if (timeline != nullptr) {
                        run.set("schedule",
                                obs::schedule_report_json(
                                    obs::derive_schedule_report(*timeline,
                                                                t)));
                    }
                    runs.push(std::move(run));
                    if (!identical) {
                        std::cerr << "FATAL: run diverged from the serial "
                                     "placement (design=" << design_name
                                  << " series=" << s.name
                                  << " threads=" << t << ")\n";
                        return 1;
                    }
                }
            }
        }
    }
    root.set("runs", std::move(runs));

    // Machine configuration, captured AFTER the sweep so the global pool
    // has been instantiated and pool_workers_active reflects the helper
    // threads that really ran (not -1, and never a made-up count that
    // contradicts hardware_threads).
    root.set("environment", obs::environment_json());

    if (!write_json_file(json_path, root)) {
        return 1;
    }
    std::cerr << "wrote " << json_path << "\n";
    if (trace_path != nullptr && timeline != nullptr) {
        if (!obs::write_chrome_trace(trace_path, *timeline,
                                     "bench_parallel")) {
            return 1;
        }
        std::cerr << "wrote " << trace_path << "\n";
    }
    return 0;
}
