#include "io/lefdef.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/assert.hpp"
#include "util/str.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// Whitespace tokenizer with ';', '(' and ')' as standalone tokens and
/// '#'-to-end-of-line comments stripped.
std::vector<std::string> tokenize_file(const std::string& path,
                                       const char* what) {
    std::ifstream in(path);
    if (!in) {
        throw LefDefError(std::string("cannot open ") + what + " file: " +
                          path);
    }
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::string cur;
        auto flush = [&] {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
        };
        for (const char c : line) {
            if (c == ' ' || c == '\t' || c == '\r') {
                flush();
            } else if (c == ';' || c == '(' || c == ')') {
                flush();
                tokens.push_back(std::string(1, c));
            } else {
                cur.push_back(c);
            }
        }
        flush();
    }
    return tokens;
}

/// Cursor over the token stream with checked accessors.
class Cursor {
public:
    Cursor(std::vector<std::string> tokens, const char* what)
        : tokens_(std::move(tokens)), what_(what) {}

    bool done() const { return pos_ >= tokens_.size(); }
    const std::string& peek() const {
        check(!done(), "unexpected end of file");
        return tokens_[pos_];
    }
    std::string next() {
        check(!done(), "unexpected end of file");
        return tokens_[pos_++];
    }
    /// Next token as a finite number that is the whole token (std::stod
    /// alone would also accept "nan" and "inf", and read "1.0abc" as 1).
    double next_num() {
        const std::string t = next();
        double v = 0.0;
        std::size_t used = 0;
        try {
            v = std::stod(t, &used);
        } catch (const std::exception&) {
            used = 0;
        }
        check(used != 0 && used == t.size(),
              "expected a number, got '" + t + "'");
        check(std::isfinite(v), "expected a finite number, got '" + t + "'");
        return v;
    }
    void expect(const std::string& tok) {
        const std::string t = next();
        check(t == tok, "expected '" + tok + "', got '" + t + "'");
    }
    /// Skips tokens until (and including) the next ';'.
    void skip_statement() {
        while (!done() && next() != ";") {
        }
    }
    void check(bool ok, const std::string& msg) const {
        if (!ok) {
            fail(msg);
        }
    }
    [[noreturn]] void fail(const std::string& msg) const {
        std::ostringstream oss;
        oss << what_ << " parse error near token " << pos_ << ": " << msg;
        throw LefDefError(oss.str());
    }

private:
    std::vector<std::string> tokens_;
    std::size_t pos_ = 0;
    const char* what_;
};

/// Simple glob: '*' matches any suffix (the form ISPD GROUPS use).
bool pattern_matches(const std::string& pattern, const std::string& name) {
    const std::size_t star = pattern.find('*');
    if (star == std::string::npos) {
        return pattern == name;
    }
    return name.size() >= star &&
           name.compare(0, star, pattern, 0, star) == 0;
}

SiteCoord to_sites(double um, double site_um, const char* ctx) {
    const double v = um / site_um;
    if (std::abs(v - std::round(v)) > 1e-4) {
        throw LefDefError(std::string(ctx) +
                          " is not an integral number of sites");
    }
    return static_cast<SiteCoord>(std::llround(v));
}

}  // namespace

LefLibrary read_lef(const std::string& path) {
    Cursor cur(tokenize_file(path, "LEF"), "LEF");
    LefLibrary lib;
    while (!cur.done()) {
        const std::string tok = cur.next();
        if (tok == "UNITS") {
            // UNITS DATABASE MICRONS <n> ; END UNITS
            while (!cur.done()) {
                const std::string t = cur.next();
                if (t == "END" && !cur.done() && cur.peek() == "UNITS") {
                    cur.next();
                    break;
                }
                if (t == "MICRONS") {
                    lib.dbu_per_micron = cur.next_num();
                }
            }
        } else if (tok == "SITE") {
            const std::string name = cur.next();
            while (true) {
                const std::string t = cur.next();
                if (t == "END" && cur.peek() == name) {
                    cur.next();
                    break;
                }
                if (t == "SIZE") {
                    lib.site_w_um = cur.next_num();
                    cur.expect("BY");
                    lib.site_h_um = cur.next_num();
                }
            }
        } else if (tok == "MACRO") {
            LefMacro macro;
            macro.name = cur.next();
            while (true) {
                const std::string t = cur.next();
                // Bare "END" tokens close nested PORT/OBS blocks; the
                // macro itself closes with "END <name>".
                if (t == "END" && cur.peek() == macro.name) {
                    cur.next();
                    break;
                }
                if (t == "CLASS") {
                    macro.is_core = cur.next() == "CORE";
                } else if (t == "SIZE") {
                    macro.w_um = cur.next_num();
                    cur.expect("BY");
                    macro.h_um = cur.next_num();
                } else if (t == "PIN") {
                    LefPin pin;
                    pin.name = cur.next();
                    bool have_rect = false;
                    while (true) {
                        const std::string pt = cur.next();
                        if (pt == "END" && cur.peek() == pin.name) {
                            cur.next();
                            break;
                        }
                        if (pt == "RECT" && !have_rect) {
                            const double x1 = cur.next_num();
                            const double y1 = cur.next_num();
                            const double x2 = cur.next_num();
                            const double y2 = cur.next_num();
                            pin.offset_x_um = (x1 + x2) / 2.0;
                            pin.offset_y_um = (y1 + y2) / 2.0;
                            have_rect = true;
                        }
                    }
                    macro.pins.emplace(pin.name, pin);
                }
            }
            lib.macros.emplace(macro.name, std::move(macro));
        }
        // Unknown top-level tokens are skipped token-by-token.
    }
    if (lib.site_w_um <= 0 || lib.site_h_um <= 0) {
        throw LefDefError("LEF defines no SITE with a SIZE");
    }
    return lib;
}

DefReadResult read_def(const std::string& path, const LefLibrary& lef) {
    GridWriteScope grid_write;
    Cursor cur(tokenize_file(path, "DEF"), "DEF");
    DefReadResult result;
    double dbu = lef.dbu_per_micron;
    const double site_w = lef.site_w_um;
    const double site_h = lef.site_h_um;

    struct DefRow {
        double x_dbu, y_dbu;
        long num_sites;
    };
    std::vector<DefRow> rows;
    struct DefComp {
        std::string inst, macro, status;
        double x_dbu = 0, y_dbu = 0;
    };
    std::vector<DefComp> comps;
    struct DefRegion {
        std::string name;
        std::vector<std::array<double, 4>> rects;  ///< DBU (x1,y1,x2,y2).
    };
    std::vector<DefRegion> regions;
    struct DefGroup {
        std::vector<std::string> patterns;
        std::string region;
    };
    std::vector<DefGroup> groups;
    struct DefNet {
        std::string name;
        std::vector<std::pair<std::string, std::string>> pins;
    };
    std::vector<DefNet> nets;

    while (!cur.done()) {
        const std::string tok = cur.next();
        if (tok == "DESIGN" && result.design_name.empty()) {
            result.design_name = cur.next();
            cur.skip_statement();
        } else if (tok == "UNITS") {
            cur.expect("DISTANCE");
            cur.expect("MICRONS");
            dbu = cur.next_num();
            cur.skip_statement();
        } else if (tok == "ROW") {
            cur.next();  // row name
            cur.next();  // site name
            DefRow r{};
            r.x_dbu = cur.next_num();
            r.y_dbu = cur.next_num();
            cur.next();  // orient
            r.num_sites = 1;
            if (cur.peek() == "DO") {
                cur.next();
                r.num_sites = static_cast<long>(cur.next_num());
                cur.expect("BY");
                cur.next_num();  // rows in y (1)
            }
            cur.skip_statement();
            rows.push_back(r);
        } else if (tok == "COMPONENTS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefComp c;
                c.inst = cur.next();
                c.macro = cur.next();
                c.status = "UNPLACED";
                while (cur.peek() != ";") {
                    const std::string t = cur.next();
                    if (t == "PLACED" || t == "FIXED") {
                        c.status = t;
                        cur.expect("(");
                        c.x_dbu = cur.next_num();
                        c.y_dbu = cur.next_num();
                        cur.expect(")");
                    }
                }
                cur.expect(";");
                comps.push_back(std::move(c));
            }
            cur.expect("END");
            cur.expect("COMPONENTS");
        } else if (tok == "REGIONS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefRegion r;
                r.name = cur.next();
                while (cur.peek() == "(") {
                    cur.next();
                    const double x1 = cur.next_num();
                    const double y1 = cur.next_num();
                    cur.expect(")");
                    cur.expect("(");
                    const double x2 = cur.next_num();
                    const double y2 = cur.next_num();
                    cur.expect(")");
                    r.rects.push_back({x1, y1, x2, y2});
                }
                cur.skip_statement();
                regions.push_back(std::move(r));
            }
            cur.expect("END");
            cur.expect("REGIONS");
        } else if (tok == "GROUPS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefGroup g;
                cur.next();  // group name
                while (cur.peek() != ";") {
                    const std::string t = cur.next();
                    if (t == "+") {
                        if (cur.next() == "REGION") {
                            g.region = cur.next();
                        }
                    } else {
                        g.patterns.push_back(t);
                    }
                }
                cur.expect(";");
                groups.push_back(std::move(g));
            }
            cur.expect("END");
            cur.expect("GROUPS");
        } else if (tok == "NETS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefNet n;
                n.name = cur.next();
                while (cur.peek() != ";") {
                    if (cur.next() == "(") {
                        const std::string inst = cur.next();
                        const std::string pin = cur.next();
                        cur.expect(")");
                        if (inst != "PIN") {  // die-level I/O pins skipped
                            n.pins.emplace_back(inst, pin);
                        }
                    }
                }
                cur.expect(";");
                nets.push_back(std::move(n));
            }
            cur.expect("END");
            cur.expect("NETS");
        }
    }

    // ---- build the floorplan ------------------------------------------------
    if (rows.empty()) {
        throw LefDefError("DEF has no ROW statements");
    }
    std::sort(rows.begin(), rows.end(),
              [](const DefRow& a, const DefRow& b) {
                  return a.y_dbu < b.y_dbu;
              });
    const double site_w_dbu = site_w * dbu;
    const double site_h_dbu = site_h * dbu;
    const double y0 = rows.front().y_dbu;
    Floorplan fp;
    fp.set_site_dims_um(site_w, site_h);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double expect_y = y0 + static_cast<double>(i) * site_h_dbu;
        if (std::abs(rows[i].y_dbu - expect_y) > 0.5) {
            throw LefDefError("DEF rows are not contiguous/uniform");
        }
        fp.add_row(Row{static_cast<SiteCoord>(i),
                       static_cast<SiteCoord>(
                           std::llround(rows[i].x_dbu / site_w_dbu)),
                       static_cast<SiteCoord>(rows[i].num_sites)});
    }

    // Fence regions.
    int next_region = 1;
    for (const DefRegion& r : regions) {
        const int id = next_region++;
        result.region_ids.emplace(r.name, id);
        for (const auto& q : r.rects) {
            const SiteCoord x1 = static_cast<SiteCoord>(
                std::llround(q[0] / site_w_dbu));
            const SiteCoord y1 = static_cast<SiteCoord>(
                std::llround((q[1] - y0) / site_h_dbu));
            const SiteCoord x2 = static_cast<SiteCoord>(
                std::llround(q[2] / site_w_dbu));
            const SiteCoord y2 = static_cast<SiteCoord>(
                std::llround((q[3] - y0) / site_h_dbu));
            fp.add_fence(id, Rect{x1, y1, static_cast<SiteCoord>(x2 - x1),
                                  static_cast<SiteCoord>(y2 - y1)});
        }
    }

    Database db(std::move(fp));

    // Components.
    for (const DefComp& c : comps) {
        const LefMacro* macro = lef.find_macro(c.macro);
        if (macro == nullptr) {
            throw LefDefError("DEF references unknown macro " + c.macro);
        }
        const SiteCoord w = to_sites(macro->w_um, site_w, "macro width");
        const SiteCoord h = to_sites(macro->h_um, site_h, "macro height");
        Cell cell(c.inst, w, h, RailPhase::kEven,
                  c.status == "FIXED");
        const double gx = c.x_dbu / site_w_dbu;
        const double gy = (c.y_dbu - y0) / site_h_dbu;
        cell.set_gp(gx, gy);
        if (c.status == "FIXED") {
            cell.set_pos(static_cast<SiteCoord>(std::llround(gx)),
                         static_cast<SiteCoord>(std::llround(gy)));
        }
        db.add_cell(std::move(cell));
    }

    // Group membership → cell regions.
    for (const DefGroup& g : groups) {
        const auto rit = result.region_ids.find(g.region);
        if (rit == result.region_ids.end()) {
            continue;
        }
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
            for (const std::string& pat : g.patterns) {
                if (pattern_matches(pat, cell.name())) {
                    cell.set_region(rit->second);
                    break;
                }
            }
        }
    }

    // Nets.
    for (const DefNet& n : nets) {
        const NetId net = db.add_net(n.name);
        for (const auto& [inst, pin_name] : n.pins) {
            const CellId cid = db.find_cell(inst);
            if (!cid.valid()) {
                throw LefDefError("NET " + n.name +
                                  " references unknown component " + inst);
            }
            // Pin offset from the LEF macro (centre of the cell if the
            // pin is unknown — robust to trimmed libraries).
            double ox = db.cell(cid).width() / 2.0;
            double oy = db.cell(cid).height() / 2.0;
            // Re-find the macro via the cell's dimensions is ambiguous, so
            // look the component's macro up again by name.
            for (const DefComp& c : comps) {
                if (c.inst == inst) {
                    const LefMacro* macro = lef.find_macro(c.macro);
                    if (macro != nullptr) {
                        const auto pit = macro->pins.find(pin_name);
                        if (pit != macro->pins.end()) {
                            ox = pit->second.offset_x_um / site_w;
                            oy = pit->second.offset_y_um / site_h;
                        }
                    }
                    break;
                }
            }
            db.add_pin(cid, net, ox, oy);
        }
    }

    result.db = std::move(db);
    return result;
}

void write_def(const Database& db, const LefLibrary& lef,
               const std::string& path, const std::string& design) {
    std::ofstream out(path);
    MRLG_ASSERT(static_cast<bool>(out), "cannot open DEF for writing: " +
                                            path);
    const double dbu = lef.dbu_per_micron;
    const double site_w_dbu = lef.site_w_um * dbu;
    const double site_h_dbu = lef.site_h_um * dbu;
    const Rect die = db.floorplan().die();

    out << "VERSION 5.8 ;\nDESIGN " << design << " ;\n"
        << "UNITS DISTANCE MICRONS " << static_cast<long>(dbu) << " ;\n";
    out << "DIEAREA ( " << static_cast<long>(die.x * site_w_dbu) << " 0 ) ( "
        << static_cast<long>(die.x_hi() * site_w_dbu) << " "
        << static_cast<long>(die.h * site_h_dbu) << " ) ;\n";
    for (const Row& r : db.floorplan().rows()) {
        out << "ROW row_" << r.y << " core "
            << static_cast<long>(r.x * site_w_dbu) << " "
            << static_cast<long>(r.y * site_h_dbu) << " N DO "
            << r.num_sites << " BY 1 STEP "
            << static_cast<long>(site_w_dbu) << " 0 ;\n";
    }
    out << "COMPONENTS " << db.num_cells() << " ;\n";
    for (const Cell& c : db.cells()) {
        out << "- " << c.name() << " " << c.name() << "_master + ";
        if (c.fixed()) {
            out << "FIXED ( " << static_cast<long>(c.x() * site_w_dbu)
                << " " << static_cast<long>(c.y() * site_h_dbu) << " ) N";
        } else if (c.placed()) {
            out << "PLACED ( " << static_cast<long>(c.x() * site_w_dbu)
                << " " << static_cast<long>(c.y() * site_h_dbu) << " ) "
                << (c.orient() == Orient::kN ? "N" : "FS");
        } else {
            out << "UNPLACED";
        }
        out << " ;\n";
    }
    out << "END COMPONENTS\n";
    out << "NETS " << db.nets().size() << " ;\n";
    for (const Net& n : db.nets()) {
        out << "- " << n.name();
        for (const PinId pid : n.pins()) {
            out << " ( " << db.cell(db.pin(pid).cell).name() << " p" << pid
                << " )";
        }
        out << " ;\n";
    }
    out << "END NETS\nEND DESIGN\n";
}

}  // namespace mrlg
