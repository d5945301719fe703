/// mrlg_audit — on-demand invariant audit of a design (check/audit.hpp).
///
/// Reads a design (Bookshelf, LEF/DEF, or a generated synthetic one),
/// optionally legalizes it with the audit hooks armed, then runs the
/// database/segment-grid auditors at the requested level and prints the
/// report. Exit code: 0 when every audit passes, 1 on violations, 2 on
/// usage or parse errors.
///
/// Usage:
///   mrlg_audit <design.aux> [options]
///   mrlg_audit --lef tech.lef --def design.def [options]
///   mrlg_audit --gen [options]
///     --gen             audit a synthetic benchmark instead of a file
///     --singles N       generator: single-row cells   (default 2000)
///     --doubles N       generator: double-row cells   (default 200)
///     --density D       generator: target density in (0, 0.96)
///                       (default 0.6)
///     --seed S          generator: rng seed           (default 1)
///     --legalize        run the legalizer first, hooks at --level
///     --relaxed         drop the power-rail parity constraint
///     --level L         off|cheap|full (default: MRLG_VALIDATE, else full)
///     --report FILE     write the JSON run report (docs/REPORT.md)

#include <cstring>
#include <iostream>
#include <string>

#include "check/audit.hpp"
#include "db/segment.hpp"
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

/// Reads --singles, --doubles, --seed (non-negative integers) and
/// --density (in the generator's (0, kMaxDensity)) into `p`; false on a
/// bad value.
bool gen_flags_ok(int argc, char** argv, GenProfile& p) {
    const char* s = find_arg(argc, argv, "--singles");
    if (s != nullptr && !parse_count(s, p.num_single)) {
        return false;
    }
    s = find_arg(argc, argv, "--doubles");
    if (s != nullptr && !parse_count(s, p.num_double)) {
        return false;
    }
    s = find_arg(argc, argv, "--seed");
    std::size_t seed = 0;
    if (s != nullptr) {
        if (!parse_count(s, seed)) {
            return false;
        }
        p.seed = seed;
    }
    s = find_arg(argc, argv, "--density");
    if (s != nullptr && !parse_double(s, p.density)) {
        return false;
    }
    return p.density > 0.0 && p.density < GenProfile::kMaxDensity;
}

int usage() {
    std::cerr << "usage: mrlg_audit <design.aux> | --lef L --def D | --gen\n"
                 "       [--singles N] [--doubles N] [--density D] [--seed S]\n"
                 "       [--legalize] [--relaxed] [--level off|cheap|full]\n"
                 "       [--report FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Database db;
    std::string design = "design";

    if (has_flag(argc, argv, "--gen")) {
        GenProfile p;
        p.name = "audit-gen";
        if (!gen_flags_ok(argc, argv, p)) {
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

    AuditLevel level = audit_level_from_env();
    if (const char* l = find_arg(argc, argv, "--level")) {
        const std::string v(l);
        if (v == "off") {
            level = AuditLevel::kOff;
        } else if (v == "cheap") {
            level = AuditLevel::kCheap;
        } else if (v == "full") {
            level = AuditLevel::kFull;
        } else {
            return usage();
        }
    } else if (level == AuditLevel::kOff) {
        level = AuditLevel::kFull;  // explicit CLI run: audit for real
    }
    const bool check_rail = !has_flag(argc, argv, "--relaxed");

    // Trace the run so --report can serialize phases and audit counters.
    obs::Tracer tracer;
    obs::ScopedTracer install(tracer);

    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts;
    LegalizerStats stats;
    bool legalized = false;
    if (has_flag(argc, argv, "--legalize")) {
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

    if (const char* path = find_arg(argc, argv, "--report")) {
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
        if (!obs::write_run_report(path, spec)) {
            return 2;
        }
    }
    return report.ok() ? 0 : 1;
}
