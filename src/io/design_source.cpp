#include "io/design_source.hpp"

#include <iostream>
#include <stdexcept>
#include <utility>

#include "db/write_cap.hpp"
#include "io/bookshelf.hpp"

namespace mrlg {

std::optional<LoadedDesign> load_design(Flags& flags) {
    GridWriteScope grid_write;
    const char* lef = flags.value("--lef");
    const char* def = flags.value("--def");
    const char* aux = flags.positional(0);
    const bool from_def = lef != nullptr && def != nullptr;
    if (!from_def && aux == nullptr) {
        flags.fail("<design.aux>");
    }
    if (!flags.ok()) {
        return std::nullopt;
    }
    LoadedDesign d;
    try {
        if (from_def) {
            d.lef = read_lef(lef);
            DefReadResult r = read_def(def, d.lef);
            d.db = std::move(r.db);
            d.name = r.design_name;
            d.from_def = true;
        } else {
            BookshelfReadResult r = read_bookshelf(aux);
            d.db = std::move(r.db);
            d.name = r.design_name;
        }
    } catch (const std::runtime_error& e) {  // ParseError, LefDefError
        std::cerr << "parse error: " << e.what() << "\n";
        return std::nullopt;
    }
    d.db.freeze_fixed_cells();
    return d;
}

std::optional<LoadedDesign> load_or_generate(Flags& flags,
                                             std::string gen_name,
                                             std::string_view seed_key) {
    if (!flags.has("--gen")) {
        return load_design(flags);
    }
    GenProfile p = cli_gen_profile(std::move(gen_name));
    flags.count("--singles", p.num_single, GenProfile::kMaxCells);
    flags.count("--doubles", p.num_double, GenProfile::kMaxCells);
    if (p.num_single + p.num_double > GenProfile::kMaxCells) {
        flags.fail("--singles + --doubles");
    }
    flags.real("--density", p.density, 0.0, GenProfile::kMaxDensity,
               Flags::Upper::kOpen);
    flags.count(seed_key, p.seed);
    if (!flags.ok()) {
        return std::nullopt;
    }
    return generate_design(p);
}

GenProfile cli_gen_profile(std::string name) {
    GenProfile p;
    p.name = std::move(name);
    p.num_single = 2000;
    p.num_double = 200;
    p.density = 0.6;
    return p;
}

LoadedDesign generate_design(const GenProfile& p) {
    LoadedDesign d;
    d.db = generate_benchmark(p).db;
    d.name = p.name;
    return d;
}

}  // namespace mrlg
