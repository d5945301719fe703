#pragma once
/// \file design_source.hpp
/// Where a command-line program gets its design: a Bookshelf
/// `<design.aux>`, an ISPD2015-style `--lef L --def D` pair, or the
/// synthetic generator. One owner for the format dispatch, the parse-error
/// report and the fixed-cell freeze that every front end needs.

#include <optional>
#include <string>
#include <string_view>

#include "db/database.hpp"
#include "io/benchmark_gen.hpp"
#include "io/lefdef.hpp"
#include "util/cli.hpp"

namespace mrlg {

/// A design read or generated for a command-line program.
struct LoadedDesign {
    Database db;
    std::string name = "design";
    /// The LEF library of a `--lef/--def` design (write_def needs it).
    LefLibrary lef;
    bool from_def = false;
};

/// Loads the design a command line names: `--lef L --def D` when both
/// are given, else the Bookshelf `<design.aux>` given as the first
/// positional argument; fixed cells are frozen. When the command line
/// names no design, records "<design.aux>" as bad in `flags`; when the
/// files do not parse, prints "parse error: ..." to stderr. Either way
/// returns std::nullopt — and also, reading nothing, when `flags` already
/// holds a bad value or an unknown flag (so the caller asks about all of
/// its other flags first).
std::optional<LoadedDesign> load_design(Flags& flags);

/// With `--gen`, generates cli_gen_profile(gen_name) as adjusted by
/// --singles, --doubles (whole numbers summing to at most
/// GenProfile::kMaxCells), --density (in (0, GenProfile::kMaxDensity)) and
/// `seed_key` (the generator seed), recording a bad value in `flags` and
/// generating nothing; without it, load_design(flags). Either way an
/// unknown flag, too, means nothing is read or generated.
std::optional<LoadedDesign> load_or_generate(Flags& flags,
                                             std::string gen_name,
                                             std::string_view seed_key);

/// The synthetic design the command-line programs generate (mrlg_legalize
/// and mrlg_audit `--gen`, legalize_bookshelf `--demo`): 2000 single-row
/// and 200 double-row cells at density 0.6, seed 1.
GenProfile cli_gen_profile(std::string name);

/// Generates `p`'s design.
LoadedDesign generate_design(const GenProfile& p);

}  // namespace mrlg
