/// mrlg_audit — on-demand invariant audit of a design (check/audit.hpp).
///
/// Reads a design (Bookshelf, LEF/DEF, or a generated synthetic one),
/// optionally legalizes it with the audit hooks armed, then runs the
/// database/segment-grid auditors at the requested level and prints the
/// report. Exit code: 0 when every audit passes, 1 on violations, 2 on
/// usage or parse errors; a missing, malformed or out-of-range value (a
/// value flag given last included) and an unknown flag are usage errors.
///
/// Usage:
///   mrlg_audit <design.aux> [options]
///   mrlg_audit --lef tech.lef --def design.def [options]
///   mrlg_audit --gen [options]
///     --gen             audit a synthetic benchmark instead of a file
///                       (the same design as mrlg_legalize --gen)
///     --singles N       generator: single-row cells   (default 2000)
///     --doubles N       generator: double-row cells   (default 200);
///                       singles + doubles at most 2000000
///     --density D       generator: target density in (0, 0.96)
///                       (default 0.6)
///     --seed S          generator: rng seed           (default 1)
///     --legalize        run the legalizer first, hooks at --level
///     --relaxed         drop the power-rail parity constraint
///     --level L         off|cheap|full (default: MRLG_VALIDATE, else full)
///     --report FILE     write the JSON run report (docs/REPORT.md)

#include <iostream>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "db/segment.hpp"
#include "io/design_source.hpp"
#include "legalize/legalizer.hpp"
#include "obs/run_report.hpp"
#include "util/cli.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: mrlg_audit <design.aux> | --lef L --def D | --gen\n"
    "       [--singles N] [--doubles N] [--density D] [--seed S]\n"
    "       [--legalize] [--relaxed] [--level off|cheap|full]\n"
    "       [--report FILE]\n";

}  // namespace

int main(int argc, char** argv) {
    Flags flags(argc, argv);
    AuditLevel level = audit_level_from_env();
    if (const char* l = flags.value("--level")) {
        const std::string v(l);
        if (v == "off") {
            level = AuditLevel::kOff;
        } else if (v == "cheap") {
            level = AuditLevel::kCheap;
        } else if (v == "full") {
            level = AuditLevel::kFull;
        } else {
            flags.fail("--level");
        }
    } else if (level == AuditLevel::kOff) {
        level = AuditLevel::kFull;  // explicit CLI run: audit for real
    }
    const char* report_path = flags.value("--report");
    const bool check_rail = !flags.has("--relaxed");
    const bool legalize = flags.has("--legalize");

    std::optional<LoadedDesign> loaded =
        load_or_generate(flags, "audit-gen", "--seed");
    if (!flags.ok()) {
        return flags.usage(kUsage);
    }
    if (!loaded) {
        return 2;  // parse error, already reported
    }
    Database& db = loaded->db;
    const std::string& design = loaded->name;

    // Trace the run so --report can serialize phases and audit counters.
    obs::Tracer tracer;
    obs::ScopedTracer install(tracer);

    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts;
    LegalizerStats stats;
    bool legalized = false;
    if (legalize) {
        opts.mll.check_rail = check_rail;
        opts.audit = level;
        try {
            stats = legalize_placement(db, grid, opts);
            legalized = true;
            std::cout << design << ": legalized " << stats.num_cells
                      << " cells in " << stats.runtime_s << " s, "
                      << stats.audits_run << " in-run audits at level "
                      << to_string(level) << "\n";
            if (!stats.success) {
                std::cerr << design << ": " << stats.unplaced
                          << " cells left unplaced\n";
            }
        } catch (const AssertionError& e) {
            std::cerr << design << ": in-run audit failed:\n"
                      << e.what() << "\n";
            return 1;
        }
    }

    const AuditReport report = audit_placement(db, grid, level, check_rail);
    std::cout << design << ": " << report.to_string() << "\n";

    if (report_path != nullptr) {
        obs::RunReportSpec spec;
        spec.tool = "mrlg_audit";
        spec.design = design;
        spec.db = &db;
        spec.grid = &grid;
        spec.check_rail = check_rail;
        if (legalized) {
            spec.options = &opts;
            spec.stats = &stats;
        }
        spec.tracer = &tracer;
        if (!obs::write_run_report(report_path, spec)) {
            return 2;
        }
    }
    return report.ok() ? 0 : 1;
}
