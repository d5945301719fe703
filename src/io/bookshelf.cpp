#include "io/bookshelf.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "util/str.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

namespace fs = std::filesystem;

/// Reads all meaningful lines (comments '#' stripped, blanks dropped).
std::vector<std::string> read_lines(const fs::path& path) {
    std::ifstream in(path);
    if (!in) {
        throw ParseError("cannot open " + path.string());
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        const auto t = trim(line);
        if (!t.empty()) {
            lines.emplace_back(t);
        }
    }
    return lines;
}

/// Parses a finite number that is the whole token: std::stod also accepts
/// "nan" and "inf", which no coordinate or size may be, and stops at the
/// first character that is not part of a number ("1.0abc" reads as 1).
double to_double(std::string_view tok, const std::string& ctx) {
    const std::string s(tok);
    double v = 0.0;
    std::size_t used = 0;
    try {
        v = std::stod(s, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != s.size()) {
        throw ParseError("bad number '" + s + "' in " + ctx);
    }
    if (!std::isfinite(v)) {
        throw ParseError("non-finite number '" + s + "' in " + ctx);
    }
    return v;
}

/// Parses an integer that is the whole token ("12abc" is rejected).
long to_long(std::string_view tok, const std::string& ctx) {
    const std::string s(tok);
    long v = 0;
    std::size_t used = 0;
    try {
        v = std::stol(s, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (used == 0 || used != s.size()) {
        throw ParseError("bad integer '" + s + "' in " + ctx);
    }
    return v;
}

struct SclRow {
    double coord_y = 0;
    double height = 0;
    double site_width = 1;
    double subrow_origin = 0;
    long num_sites = 0;
};

}  // namespace

BookshelfReadResult read_bookshelf(const std::string& aux_path) {
    GridWriteScope grid_write;
    const fs::path aux(aux_path);
    const fs::path dir = aux.parent_path();

    // ---- .aux -------------------------------------------------------------
    const auto aux_lines = read_lines(aux);
    if (aux_lines.empty()) {
        throw ParseError("empty aux file: " + aux_path);
    }
    std::string nodes_file;
    std::string nets_file;
    std::string pl_file;
    std::string scl_file;
    for (const auto tok_view : split_ws(aux_lines[0])) {
        const std::string tok(tok_view);
        if (tok.ends_with(".nodes")) {
            nodes_file = tok;
        } else if (tok.ends_with(".nets")) {
            nets_file = tok;
        } else if (tok.ends_with(".pl")) {
            pl_file = tok;
        } else if (tok.ends_with(".scl")) {
            scl_file = tok;
        }
    }
    if (nodes_file.empty() || pl_file.empty() || scl_file.empty()) {
        throw ParseError("aux file must reference .nodes, .pl and .scl: " +
                         aux_path);
    }

    // ---- .scl -------------------------------------------------------------
    std::vector<SclRow> scl_rows;
    {
        const auto lines = read_lines(dir / scl_file);
        SclRow cur;
        bool in_row = false;
        for (const auto& line : lines) {
            const auto toks = split_ws(line);
            if (toks.empty()) {
                continue;
            }
            if (iequals(toks[0], "CoreRow")) {
                in_row = true;
                cur = SclRow{};
                continue;
            }
            if (!in_row) {
                continue;
            }
            if (iequals(toks[0], "End")) {
                scl_rows.push_back(cur);
                in_row = false;
                continue;
            }
            // "Key : value" pairs; a line may hold several.
            for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
                if (toks[i + 1] != ":") {
                    continue;
                }
                const std::string_view key = toks[i];
                const std::string_view val = toks[i + 2];
                if (iequals(key, "Coordinate")) {
                    cur.coord_y = to_double(val, "scl");
                } else if (iequals(key, "Height")) {
                    cur.height = to_double(val, "scl");
                } else if (iequals(key, "Sitewidth")) {
                    cur.site_width = to_double(val, "scl");
                } else if (iequals(key, "SubrowOrigin")) {
                    cur.subrow_origin = to_double(val, "scl");
                } else if (iequals(key, "NumSites")) {
                    cur.num_sites = to_long(val, "scl");
                }
            }
        }
    }
    if (scl_rows.empty()) {
        throw ParseError("no rows in scl");
    }
    std::sort(scl_rows.begin(), scl_rows.end(),
              [](const SclRow& a, const SclRow& b) {
                  return a.coord_y < b.coord_y;
              });
    const double row_h = scl_rows[0].height;
    const double site_w = scl_rows[0].site_width;
    const double y0 = scl_rows[0].coord_y;
    for (std::size_t i = 0; i < scl_rows.size(); ++i) {
        const SclRow& r = scl_rows[i];
        if (std::abs(r.height - row_h) > 1e-6 ||
            std::abs(r.site_width - site_w) > 1e-6) {
            throw ParseError("non-uniform row height / site width");
        }
        const double expect_y = y0 + static_cast<double>(i) * row_h;
        if (std::abs(r.coord_y - expect_y) > 1e-6) {
            throw ParseError("rows are not contiguous in scl");
        }
    }

    Floorplan fp;
    fp.set_site_dims_um(site_w, row_h);
    for (std::size_t i = 0; i < scl_rows.size(); ++i) {
        const SclRow& r = scl_rows[i];
        fp.add_row(Row{static_cast<SiteCoord>(i),
                       static_cast<SiteCoord>(
                           std::llround(r.subrow_origin / site_w)),
                       static_cast<SiteCoord>(r.num_sites)});
    }
    Database db(std::move(fp));

    // ---- .nodes -----------------------------------------------------------
    {
        const auto lines = read_lines(dir / nodes_file);
        for (const auto& line : lines) {
            const auto toks = split_ws(line);
            if (toks.empty() || starts_with(line, "UCLA") ||
                iequals(toks[0], "NumNodes") ||
                iequals(toks[0], "NumTerminals")) {
                continue;
            }
            if (toks.size() < 3) {
                throw ParseError("bad node line: " + line);
            }
            const std::string name(toks[0]);
            const double wd = to_double(toks[1], "nodes");
            const double hd = to_double(toks[2], "nodes");
            const bool terminal =
                toks.size() > 3 && (iequals(toks[3], "terminal") ||
                                    iequals(toks[3], "terminal_NI"));
            const double w_sites = wd / site_w;
            const double h_rows = hd / row_h;
            if (std::abs(w_sites - std::round(w_sites)) > 1e-6 ||
                std::abs(h_rows - std::round(h_rows)) > 1e-6) {
                throw ParseError("node " + name +
                                 " is not site/row aligned in size");
            }
            db.add_cell(Cell(name,
                             static_cast<SiteCoord>(std::llround(w_sites)),
                             static_cast<SiteCoord>(std::llround(h_rows)),
                             RailPhase::kEven, terminal));
        }
    }

    // ---- .pl --------------------------------------------------------------
    {
        const auto lines = read_lines(dir / pl_file);
        for (const auto& line : lines) {
            const auto toks = split_ws(line);
            if (toks.empty() || starts_with(line, "UCLA")) {
                continue;
            }
            if (toks.size() < 3) {
                throw ParseError("bad pl line: " + line);
            }
            const std::string name(toks[0]);
            const CellId id = db.find_cell(name);
            if (!id.valid()) {
                throw ParseError("pl references unknown node " + name);
            }
            const double x = to_double(toks[1], "pl") / site_w;
            const double y = (to_double(toks[2], "pl") - y0) / row_h;
            Cell& cell = db.cell(id);
            cell.set_gp(x, y);
            bool fixed_marker = false;
            for (const auto& t : toks) {
                if (iequals(t, "/FIXED") || iequals(t, "/FIXED_NI")) {
                    fixed_marker = true;
                }
            }
            if (cell.fixed() || fixed_marker) {
                cell.set_pos(static_cast<SiteCoord>(std::llround(x)),
                             static_cast<SiteCoord>(std::llround(y)));
            }
        }
    }

    // ---- .nets ------------------------------------------------------------
    if (!nets_file.empty() && fs::exists(dir / nets_file)) {
        const auto lines = read_lines(dir / nets_file);
        NetId cur_net;
        int net_counter = 0;
        for (const auto& line : lines) {
            const auto toks = split_ws(line);
            if (toks.empty() || starts_with(line, "UCLA") ||
                iequals(toks[0], "NumNets") || iequals(toks[0], "NumPins")) {
                continue;
            }
            if (iequals(toks[0], "NetDegree")) {
                std::string net_name =
                    toks.size() >= 4 ? std::string(toks[3])
                                     : "net_" + std::to_string(net_counter);
                ++net_counter;
                cur_net = db.add_net(std::move(net_name));
                continue;
            }
            if (!cur_net.valid()) {
                throw ParseError("pin line before NetDegree: " + line);
            }
            // "nodename I/O/B : dx dy" — offsets from the node centre.
            const std::string name(toks[0]);
            const CellId id = db.find_cell(name);
            if (!id.valid()) {
                throw ParseError("nets references unknown node " + name);
            }
            double dx = 0;
            double dy = 0;
            for (std::size_t i = 0; i < toks.size(); ++i) {
                if (toks[i] == ":") {
                    if (i + 1 < toks.size()) {
                        dx = to_double(toks[i + 1], "nets");
                    }
                    if (i + 2 < toks.size()) {
                        dy = to_double(toks[i + 2], "nets");
                    }
                    break;
                }
            }
            const Cell& cell = db.cell(id);
            db.add_pin(id, cur_net,
                       static_cast<double>(cell.width()) / 2.0 + dx / site_w,
                       static_cast<double>(cell.height()) / 2.0 +
                           dy / row_h);
        }
    }

    return BookshelfReadResult{std::move(db), aux.stem().string()};
}

void write_bookshelf(const Database& db, const std::string& dir,
                     const std::string& design, bool use_gp_positions) {
    fs::create_directories(dir);
    const double site_w = db.floorplan().site_w_um();
    const double row_h = db.floorplan().site_h_um();

    {
        std::ofstream aux(fs::path(dir) / (design + ".aux"));
        aux << "RowBasedPlacement : " << design << ".nodes " << design
            << ".nets " << design << ".pl " << design << ".scl\n";
    }
    {
        std::ofstream nodes(fs::path(dir) / (design + ".nodes"));
        nodes << "UCLA nodes 1.0\n";
        std::size_t terminals = 0;
        for (const Cell& c : db.cells()) {
            terminals += c.fixed() ? 1 : 0;
        }
        nodes << "NumNodes : " << db.num_cells() << "\n";
        nodes << "NumTerminals : " << terminals << "\n";
        for (const Cell& c : db.cells()) {
            nodes << c.name() << ' '
                  << static_cast<double>(c.width()) * site_w << ' '
                  << static_cast<double>(c.height()) * row_h
                  << (c.fixed() ? " terminal" : "") << "\n";
        }
    }
    {
        std::ofstream pl(fs::path(dir) / (design + ".pl"));
        pl << "UCLA pl 1.0\n";
        for (const Cell& c : db.cells()) {
            double x;
            double y;
            if (c.fixed() || (!use_gp_positions && c.placed())) {
                x = static_cast<double>(c.x());
                y = static_cast<double>(c.y());
            } else {
                x = c.gp_x();
                y = c.gp_y();
            }
            pl << c.name() << ' ' << x * site_w << ' ' << y * row_h
               << " : N" << (c.fixed() ? " /FIXED" : "") << "\n";
        }
    }
    {
        std::ofstream nets(fs::path(dir) / (design + ".nets"));
        nets << "UCLA nets 1.0\n";
        nets << "NumNets : " << db.nets().size() << "\n";
        nets << "NumPins : " << db.pins().size() << "\n";
        for (const Net& n : db.nets()) {
            nets << "NetDegree : " << n.degree() << ' ' << n.name() << "\n";
            for (const PinId pid : n.pins()) {
                const Pin& p = db.pin(pid);
                const Cell& c = db.cell(p.cell);
                const double dx =
                    (p.offset_x - static_cast<double>(c.width()) / 2.0) *
                    site_w;
                const double dy =
                    (p.offset_y - static_cast<double>(c.height()) / 2.0) *
                    row_h;
                nets << "  " << c.name() << " B : " << dx << ' ' << dy
                     << "\n";
            }
        }
    }
    {
        std::ofstream scl(fs::path(dir) / (design + ".scl"));
        scl << "UCLA scl 1.0\n";
        scl << "NumRows : " << db.floorplan().num_rows() << "\n";
        for (const Row& r : db.floorplan().rows()) {
            scl << "CoreRow Horizontal\n";
            scl << "  Coordinate : " << static_cast<double>(r.y) * row_h
                << "\n";
            scl << "  Height : " << row_h << "\n";
            scl << "  Sitewidth : " << site_w << "\n";
            scl << "  Sitespacing : " << site_w << "\n";
            scl << "  Siteorient : 1\n";
            scl << "  Sitesymmetry : 1\n";
            scl << "  SubrowOrigin : " << static_cast<double>(r.x) * site_w
                << "  NumSites : " << r.num_sites << "\n";
        scl << "End\n";
        }
    }
}

}  // namespace mrlg
