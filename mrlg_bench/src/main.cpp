/// mrlg-bench — full-scale Table-1 legalization, timed end to end and
/// traced per layer. See ../README.md for how to run and read it.
///
///   mrlg_bench --workload NAME --seed N --seconds S --trace 0|1
///              [--rev TEXT] [--scale F] [--inject-failure]
///
/// --trace 0 (timed run): sets up kDesignsPerRun designs, legalizes each
/// repeatedly for its share of S seconds with no tracer installed, checks
/// every result and prints the end-to-end metrics.
/// --trace 1 (traced run): sets up one design, legalizes it untraced, then
/// once under the program's Tracer and Timeline, then replays the MLL
/// stages on a sample of cells; prints the per-layer metrics.
/// The last stdout line is one JSON object {correct, attempted, failed,
/// metrics}. Exit status: 0 when every check passed, 1 when a check
/// failed, 2 on bad arguments, 3 when the build or environment would
/// measure a different program (not Release, or MRLG_VALIDATE not off).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hpp"
#include "db/segment.hpp"
#include "db/write_cap.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/profiles.hpp"
#include "legalize/legalizer.hpp"
#include "obs/clock.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "replay.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

using namespace mrlg;
using namespace mrlg_bench;
using SteadyClock = std::chrono::steady_clock;

namespace {

/// The workloads. Keep `why` in step with BENCHMARK.json.
struct Workload {
    const char* name;
    const char* profile;  ///< Row of table1_benchmarks(1.0).
    bool exact;           ///< Exact evaluation (Table 1's "ILP" setting).
    int threads;          ///< Capped at nproc.
    const char* why;
};

constexpr Workload kWorkloads[] = {
    {"matrix_mult_a", "matrix_mult_a", false, 4,
     "largest Table-1 working set (149,650 cells, density 0.42), approx, 4 "
     "threads: mostly direct placements, and the wave schedule is most of "
     "the time"},
    {"fft_1_exact", "fft_1", true, 1,
     "fft_1 (32,281 cells, density 0.84) with exact evaluation on 1 thread: "
     "MLL planning dominates and the thread pool is bypassed"},
    // Not in BENCHMARK.json: its 12-17 s generation, three times per run,
    // does not fit the benchmark's time budget (README.md). Kept for runs
    // by hand.
    {"des_perf_1", "des_perf_1", false, 4,
     "densest Table-1 design (112,644 cells, density 0.91), approx, 4 "
     "threads: the wave schedule and the retry path are heavy"},
};

/// Designs per timed run. Each is generated from its own seed, so the
/// setup median and the quality medians rest on three designs.
constexpr int kDesignsPerRun = 3;
/// Untraced legalizations the traced run makes at least, for the
/// trace-overhead baseline.
constexpr int kMinUntracedRuns = 2;
/// Cells the stage replay samples: enough that p99 has 10 samples above it.
constexpr std::size_t kReplaySamples = 1000;
/// Accepted range of mll.stage_sum_ratio (stage times / mll_plan time).
constexpr double kStageSumRatioMin = 0.75;
constexpr double kStageSumRatioMax = 1.25;
/// Timeline sized so no event of a full-scale run is overwritten.
constexpr std::size_t kTimelineLanes = 12;
constexpr std::size_t kTimelineLaneCapacity = std::size_t{1} << 18;

struct Args {
    std::string workload;
    long seed = -1;
    double seconds = -1;
    int trace = -1;
    double scale = 1.0;
    std::string rev = "unknown";
    bool inject_failure = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const bool has_value = i + 1 < argc;
        if (k == "--inject-failure") {
            a.inject_failure = true;
        } else if (!has_value) {
            return std::nullopt;
        } else if (k == "--workload") {
            a.workload = argv[++i];
        } else if (k == "--seed") {
            a.seed = std::strtol(argv[++i], nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (k == "--trace") {
            a.trace = std::atoi(argv[++i]);
        } else if (k == "--scale") {
            a.scale = std::strtod(argv[++i], nullptr);
        } else if (k == "--rev") {
            a.rev = argv[++i];
        } else {
            return std::nullopt;
        }
    }
    if (a.workload.empty() || a.seed < 0 || a.seconds <= 0 ||
        (a.trace != 0 && a.trace != 1) || a.scale <= 0 || a.scale > 1) {
        return std::nullopt;
    }
    return a;
}

/// One metric of the result line.
struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void print_metric_lines(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::cout << "metric " << m.name << " " << num(m.value) << " "
                  << m.unit << "\n";
    }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
    print_metric_lines(metrics);
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
}

/// A generated design, ready to legalize.
struct Design {
    GenProfile profile;
    GenResult gen;
    SegmentGrid grid;
    double generate_s = 0;
    double grid_build_s = 0;
};

std::unique_ptr<Design> set_up(const GenProfile& profile) {
    auto d = std::make_unique<Design>();
    d->profile = profile;
    const SteadyClock::time_point t0 = SteadyClock::now();
    d->gen = generate_benchmark(profile);
    d->generate_s = seconds_since(t0);
    const SteadyClock::time_point t1 = SteadyClock::now();
    d->grid = SegmentGrid::build(d->gen.db);
    d->grid_build_s = seconds_since(t1);
    return d;
}

/// Overlaps two placed neighbours of one segment so the legality check
/// must fail; returns the undo (cell, old x). Used by the self-test to
/// prove a failed check is counted, not dropped.
std::pair<CellId, SiteCoord> corrupt_placement(Database& db,
                                               const SegmentGrid& grid) {
    GridWriteScope grid_write;
    for (const Segment& s : grid.segments()) {
        if (s.cells.size() >= 2) {
            const CellId a = s.cells[0];
            const CellId b = s.cells[1];
            const SiteCoord old_x = db.cell(b).x();
            db.cell(b).set_x(db.cell(a).x());
            return {b, old_x};
        }
    }
    return {CellId{}, 0};
}

void restore_placement(Database& db, std::pair<CellId, SiteCoord> undo) {
    GridWriteScope grid_write;
    if (undo.first.valid()) {
        db.cell(undo.first).set_x(undo.second);
    }
}

/// One checked legalization of `d`.
struct RunOutcome {
    bool ok = false;
    std::string why;  ///< First failed check, empty when ok.
    LegalizerStats stats;
    std::uint64_t hash = 0;
    double legalize_s = 0;
    double peak_rss_mb = 0;
};

RunOutcome legalize_and_check(Design& d, const LegalizerOptions& opts,
                              bool rss_reset, bool inject_failure) {
    RunOutcome out;
    {
        // Unplace outside the timed call, so every repeat starts from the
        // state the design's first legalization saw.
        GridWriteScope grid_write;
        for (const CellId c : d.gen.db.movable_cells()) {
            if (d.gen.db.cell(c).placed()) {
                d.grid.remove(d.gen.db, c);
            }
        }
    }
    if (rss_reset) {
        reset_peak_rss();
    }
    try {
        const SteadyClock::time_point t0 = SteadyClock::now();
        out.stats = legalize_placement(d.gen.db, d.grid, opts);
        out.legalize_s = seconds_since(t0);
    } catch (const std::exception& e) {
        out.why = std::string("legalize_placement threw: ") + e.what();
        return out;
    }
    out.peak_rss_mb = peak_rss_mb();
    if (!out.stats.success) {
        out.why = "LegalizerStats.success is false";
        return out;
    }
    std::pair<CellId, SiteCoord> undo{CellId{}, 0};
    if (inject_failure) {
        undo = corrupt_placement(d.gen.db, d.grid);
    }
    LegalityOptions lopts;
    lopts.check_rail_alignment = opts.mll.check_rail;
    lopts.require_all_placed = true;
    lopts.num_threads = opts.num_threads;
    const LegalityReport rep = check_legality(d.gen.db, d.grid, lopts);
    restore_placement(d.gen.db, undo);
    if (!rep.legal) {
        out.why = "check_legality: " + std::to_string(rep.num_overlaps) +
                  " overlaps, " + std::to_string(rep.num_out_of_rows) +
                  " out of rows, " + std::to_string(rep.num_rail_violations) +
                  " rail, " + std::to_string(rep.num_unplaced) + " unplaced";
        return out;
    }
    out.hash = placement_hash(d.gen.db);
    out.ok = true;
    return out;
}

/// Per-design determinism contract: every repeat matches the first
/// accepted one in hash and counts.
struct Reference {
    bool set = false;
    std::uint64_t hash = 0;
    LegalizerStats stats;

    bool admit(RunOutcome& r) {
        if (!r.ok) {
            return false;
        }
        if (!set) {
            set = true;
            hash = r.hash;
            stats = r.stats;
            return true;
        }
        if (r.hash != hash || !same_counts(r.stats, stats)) {
            r.ok = false;
            r.why = "not deterministic: hash " + hex(r.hash) + " vs " +
                    hex(hash) + " or LegalizerStats counts differ";
        }
        return r.ok;
    }
};

struct Env {
    int threads = 1;
    bool rss_reset = false;
};

void print_env(const Args& args, const Env& env) {
    const char* mt = std::getenv("MRLG_THREADS");
    const ThreadPoolConfig pool = ThreadPool::config();
    std::cout << "env rev=" << args.rev << " nproc=" << nproc()
              << " hardware_concurrency=" << std::thread::hardware_concurrency()
              << " threads=" << env.threads
              << " pool_workers_active=" << pool.pool_workers_active
              << " MRLG_THREADS=" << (mt != nullptr ? mt : "unset")
              << " build=" << MRLG_BENCH_BUILD_TYPE << " compiler=\""
              << MRLG_BENCH_COMPILER << "\" peak_rss="
              << (env.rss_reset ? "reset_after_setup" : "process_peak")
              << "\n";
}

void print_design(int index, const Design& d, const RunOutcome& r) {
    const LegalizerStats& s = r.stats;
    std::cout << "design " << index << " profile_seed=" << d.profile.seed
              << " cells=" << s.num_cells << " hash=" << hex(r.hash)
              << " rounds=" << s.rounds << " waves=" << s.waves
              << " conflict_requeues=" << s.conflict_requeues
              << " mll_failures=" << s.mll_failures
              << " fallback=" << s.fallback_placements
              << " ripup=" << s.ripup_placements << "\n";
}

LegalizerOptions options_for(const Workload& w, int threads) {
    LegalizerOptions o;
    o.mll.exact_evaluation = w.exact;
    o.num_threads = threads;
    return o;
}

GenProfile profile_for(const Workload& w, const Args& args, int design) {
    for (const Table1Entry& e : table1_benchmarks(args.scale)) {
        if (e.profile.name == w.profile) {
            GenProfile p = e.profile;
            p.seed += static_cast<std::uint64_t>(args.seed) * kDesignsPerRun +
                      static_cast<std::uint64_t>(design);
            return p;
        }
    }
    std::abort();  // kWorkloads names only Table-1 rows
}

// --- timed run ---------------------------------------------------------------

int timed_run(const Workload& w, const Args& args, const Env& env) {
    const LegalizerOptions opts = options_for(w, env.threads);
    std::vector<double> setup_s, legalize_s, cells_per_s, rss_mb;
    std::vector<double> disp_avg, disp_p99, disp_max, dhpwl;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    const double slice = args.seconds / kDesignsPerRun;

    for (int di = 0; di < kDesignsPerRun; ++di) {
        std::unique_ptr<Design> d = set_up(profile_for(w, args, di));
        setup_s.push_back(d->generate_s + d->grid_build_s);
        Reference ref;
        const SteadyClock::time_point start = SteadyClock::now();
        do {
            const bool inject = args.inject_failure && attempted == 0;
            RunOutcome r =
                legalize_and_check(*d, opts, env.rss_reset, inject);
            ++attempted;
            const bool first = !ref.set;
            if (!ref.admit(r)) {
                ++failed;
                std::cout << "FAILED design " << di << ": " << r.why << "\n";
                continue;
            }
            legalize_s.push_back(r.legalize_s);
            cells_per_s.push_back(static_cast<double>(r.stats.num_cells) /
                                  r.legalize_s);
            // Only the first design's peak is clean: later designs start
            // from a heap that still holds pages of the earlier ones.
            if (di == 0) {
                rss_mb.push_back(r.peak_rss_mb);
            }
            if (first) {
                const DisplacementStats ds = displacement_stats(d->gen.db);
                disp_avg.push_back(ds.avg_sites);
                disp_max.push_back(ds.max_sites);
                disp_p99.push_back(
                    quantile(displacement_sites(d->gen.db), 0.99));
                dhpwl.push_back(hpwl_delta(d->gen.db, env.threads) * 100.0);
                print_design(di, *d, r);
                std::cout << "  setup_s=" << num(setup_s.back())
                          << " disp_avg_sites=" << num(disp_avg.back())
                          << " disp_p99_sites=" << num(disp_p99.back())
                          << " disp_max_sites=" << num(disp_max.back())
                          << " dhpwl_pct=" << num(dhpwl.back()) << "\n";
            }
            std::cout << "  legalize_s=" << num(r.legalize_s)
                      << " peak_rss_mb=" << num(r.peak_rss_mb) << "\n";
        } while (seconds_since(start) < slice);
        d.reset();
    }

    print_env(args, env);
    const double dhpwl_med = median(dhpwl);
    // Printed for reading, kept out of the result: failed runs are the
    // result's `failed` count, and the maximum and the signed HPWL change
    // swing too much from design to design to carry a relative bound.
    print_metric_lines({
        {"failed_runs",
         static_cast<double>(failed) / static_cast<double>(attempted), "share"},
        {"disp_max_sites", median(disp_max), "sites"},
        {"dhpwl_pct", dhpwl_med, "%"},
    });
    const std::vector<Metric> metrics = {
        {"legalize_s", median(legalize_s), "s"},
        {"cells_per_s", median(cells_per_s), "cells/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", median(rss_mb), "MB"},
        {"disp_avg_sites", median(disp_avg), "sites"},
        {"disp_p99_sites", median(disp_p99), "sites"},
        {"hpwl_ratio_pct", 100.0 + dhpwl_med, "%"},
    };
    const bool correct = failed == 0 && !legalize_s.empty();
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

// --- traced run --------------------------------------------------------------

const obs::PhaseNode* find_child(const obs::PhaseNode* n, const char* name) {
    if (n == nullptr) {
        return nullptr;
    }
    for (const auto& c : n->children) {
        if (c->name == name) {
            return c.get();
        }
    }
    return nullptr;
}

double phase_s(const obs::PhaseNode* n) {
    return n != nullptr ? static_cast<double>(n->total_ns) * 1e-9 : 0.0;
}

int traced_run(const Workload& w, const Args& args, const Env& env) {
    const LegalizerOptions opts = options_for(w, env.threads);
    std::unique_ptr<Design> d = set_up(profile_for(w, args, 0));
    Design& des = *d;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    Reference ref;
    const auto check = [&](RunOutcome& r, const char* what) {
        ++attempted;
        if (!ref.admit(r)) {
            ++failed;
            std::cout << "FAILED " << what << ": " << r.why << "\n";
            return false;
        }
        return true;
    };

    // Untraced baseline for the trace overhead.
    std::vector<double> untraced_s;
    const SteadyClock::time_point start = SteadyClock::now();
    while (static_cast<int>(untraced_s.size()) < kMinUntracedRuns ||
           seconds_since(start) < args.seconds) {
        RunOutcome r = legalize_and_check(des, opts, false,
                                          args.inject_failure && attempted == 0);
        if (check(r, "untraced run")) {
            untraced_s.push_back(r.legalize_s);
        }
        if (attempted >= 2 * static_cast<std::size_t>(kMinUntracedRuns) &&
            untraced_s.empty()) {
            break;  // every attempt fails; report rather than loop
        }
    }

    // Traced run: the program's Tracer (wall clock) and Timeline.
    obs::WallClock wall;
    obs::Tracer tracer(&wall);
    obs::Timeline timeline(kTimelineLanes, kTimelineLaneCapacity);
    RunOutcome traced;
    {
        obs::ScopedTracer st(tracer);
        obs::ScopedTimeline stl(timeline);
        traced = legalize_and_check(des, opts, false, false);
    }
    check(traced, "traced run");
    print_design(0, des, traced);
    const LegalizerStats& s = traced.stats;

    const obs::PhaseNode* legalize = find_child(&tracer.root(), "legalize");
    const obs::PhaseNode* wave = find_child(find_child(legalize, "round"), "wave");
    const double partition = phase_s(find_child(wave, "partition"));
    const double plan = phase_s(find_child(wave, "plan"));
    const double commit = phase_s(find_child(wave, "commit"));
    const obs::Histogram* batch = tracer.histogram("legalize.batch_size");
    const double batched = batch != nullptr ? batch->sum : 0.0;
    const obs::ScheduleReport sched =
        obs::derive_schedule_report(timeline, env.threads);
    if (sched.dropped_events != 0) {
        std::cout << "note timeline dropped " << sched.dropped_events
                  << " events; thread_pool.* metrics are partial\n";
    }

    SteadyClock::time_point t = SteadyClock::now();
    LegalityOptions lopts;
    lopts.check_rail_alignment = opts.mll.check_rail;
    lopts.num_threads = env.threads;
    const bool legal = check_legality(des.gen.db, des.grid, lopts).legal;
    const double check_s = seconds_since(t);
    t = SteadyClock::now();
    const DisplacementStats ds = displacement_stats(des.gen.db);
    hpwl_delta(des.gen.db, env.threads);
    const double quality_s = seconds_since(t);

    // Stage replay on the legal result; the placement must come back intact.
    const std::uint64_t before = placement_hash(des.gen.db);
    const ReplayReport rp =
        replay_stages(des.gen.db, des.grid, opts.mll, kReplaySamples,
                      static_cast<std::uint64_t>(args.seed) + 1);
    const std::uint64_t after = placement_hash(des.gen.db);
    const double plan_total_us =
        std::accumulate(rp.plan_us.begin(), rp.plan_us.end(), 0.0);
    const double ratio = plan_total_us > 0 ? rp.stage_sum_us() / plan_total_us : 0;
    const double n = rp.samples > 0 ? static_cast<double>(rp.samples) : 1.0;
    std::cout << "replay samples=" << rp.samples << " hash_before=" << hex(before)
              << " hash_after=" << hex(after)
              << " disagreements=" << rp.disagreements
              << " stage_sum_ratio=" << num(ratio) << " bound=["
              << kStageSumRatioMin << ", " << kStageSumRatioMax << "]\n";
    ++attempted;
    if (after != before || rp.disagreements != 0 ||
        ratio < kStageSumRatioMin || ratio > kStageSumRatioMax) {
        ++failed;
        std::cout << "FAILED stage replay\n";
    }

    const double untraced = median(untraced_s);
    const auto mb = [](const std::vector<ArenaUsage>& a) {
        return static_cast<double>(total_arena_bytes(a)) / 1e6;
    };
    const std::vector<Metric> metrics = {
        {"benchmark_gen.generate_s", des.generate_s, "s"},
        {"segment.grid_build_s", des.grid_build_s, "s"},
        {"database.arena_mb", mb(des.gen.db.memory_breakdown()), "MB"},
        {"segment.arena_mb", mb(des.grid.memory_breakdown()), "MB"},
        {"legalizer.rounds", static_cast<double>(s.rounds), "count"},
        {"legalizer.direct_placements", static_cast<double>(s.direct_placements), "count"},
        {"legalizer.mll_successes", static_cast<double>(s.mll_successes), "count"},
        {"legalizer.mll_failures", static_cast<double>(s.mll_failures), "count"},
        {"legalizer.mll_success_ratio",
         static_cast<double>(s.mll_successes) /
             std::max(1.0, static_cast<double>(s.mll_successes + s.mll_failures)),
         "ratio"},
        {"legalizer.fallback_placements", static_cast<double>(s.fallback_placements), "count"},
        {"legalizer.ripup_placements", static_cast<double>(s.ripup_placements), "count"},
        {"legalizer.points_evaluated", static_cast<double>(s.mll_points_evaluated), "count"},
        {"pipeline.waves", static_cast<double>(s.waves), "count"},
        {"pipeline.conflict_requeues", static_cast<double>(s.conflict_requeues), "count"},
        {"pipeline.partition_yield",
         batched / std::max(1.0, batched + static_cast<double>(s.conflict_requeues)),
         "ratio"},
        {"pipeline.partition_s", partition, "s"},
        {"pipeline.plan_s", plan, "s"},
        {"pipeline.commit_s", commit, "s"},
        {"pipeline.wave_self_s", phase_s(wave) - partition - plan - commit, "s"},
        {"legalizer.setup_s", phase_s(find_child(legalize, "setup")), "s"},
        {"thread_pool.utilization", sched.pool_utilization, "ratio"},
        {"thread_pool.straggler_share", sched.straggler_share, "ratio"},
        {"thread_pool.critical_path_s", static_cast<double>(sched.critical_path_ns) * 1e-9, "s"},
        {"mll.plan_us_p50", quantile(rp.plan_us, 0.5), "us"},
        {"mll.plan_us_p99", quantile(rp.plan_us, 0.99), "us"},
        {"local_region.extract_us", rp.extract_us / n, "us"},
        {"local_region.local_cells", static_cast<double>(rp.local_cells) / n, "count"},
        {"local_problem.build_us", rp.build_us / n, "us"},
        {"minmax_placement.us", rp.minmax_us / n, "us"},
        {"insertion_interval.us", rp.intervals_us / n, "us"},
        {"insertion_interval.count", static_cast<double>(rp.intervals) / n, "count"},
        {"enumeration.us", rp.enumeration_us / n, "us"},
        {"enumeration.points", static_cast<double>(rp.points) / n, "count"},
        {"enumeration.truncated", static_cast<double>(rp.truncated), "count"},
        {"evaluation.us", rp.evaluation_us / n, "us"},
        {"evaluation.ns_per_point",
         rp.points > 0 ? rp.evaluation_us * 1e3 / static_cast<double>(rp.points) : 0.0,
         "ns"},
        {"realization.us", rp.realization_us / n, "us"},
        {"realization.cells_shifted", static_cast<double>(rp.cells_shifted) / n, "count"},
        {"mll.free_us", rp.free_us / n, "us"},
        {"mll.stage_sum_ratio", ratio, "ratio"},
        {"legality.check_s", check_s, "s"},
        {"metrics.quality_s", quality_s, "s"},
        {"metrics.disp_max_sites", ds.max_sites, "sites"},
        {"obs.trace_overhead_pct",
         untraced > 0 ? (traced.legalize_s - untraced) / untraced * 100.0 : 0.0, "%"},
    };
    print_env(args, env);
    const bool correct = failed == 0 && legal && !untraced_s.empty();
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    set_log_level(LogLevel::kWarn);
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
        std::cerr << "usage: mrlg_bench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--rev TEXT] [--scale F] "
                     "[--inject-failure]\n";
        return 2;
    }
    const Workload* w = nullptr;
    for (const Workload& k : kWorkloads) {
        if (args->workload == k.name) {
            w = &k;
        }
    }
    if (w == nullptr) {
        std::cerr << "mrlg_bench: unknown workload '" << args->workload << "'\n";
        return 2;
    }
#ifndef NDEBUG
    const bool asserts_on = true;
#else
    const bool asserts_on = false;
#endif
    if (std::strcmp(MRLG_BENCH_BUILD_TYPE, "Release") != 0 || asserts_on) {
        std::cerr << "mrlg_bench: refusing to measure a non-Release build ("
                  << MRLG_BENCH_BUILD_TYPE << ")\n";
        return 3;
    }
    if (audit_level_from_env() != AuditLevel::kOff) {
        std::cerr << "mrlg_bench: refusing to measure with MRLG_VALIDATE="
                  << to_string(audit_level_from_env())
                  << "; audits measure a different program\n";
        return 3;
    }

    Env env;
    env.threads = std::min(w->threads, nproc());
    env.rss_reset = reset_peak_rss();
    std::cout << "mrlg-bench workload=" << w->name << " profile=" << w->profile
              << " seed=" << args->seed << " trace=" << args->trace
              << " scale=" << args->scale << " exact=" << w->exact
              << " why=\"" << w->why << "\"\n";
    try {
        return args->trace == 1 ? traced_run(*w, *args, env)
                                : timed_run(*w, *args, env);
    } catch (const std::exception& e) {
        std::cerr << "mrlg_bench: " << e.what() << "\n";
        return 1;
    }
}
