#include "io/benchmark_gen.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "db/segment.hpp"
#include "legalize/greedy.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

SiteCoord sample_width(Rng& rng, SiteCoord lo, SiteCoord hi) {
    return static_cast<SiteCoord>(rng.uniform(lo, hi));
}

/// Net degree distribution loosely matching real netlists (most nets are
/// 2-3 pins, a thin tail of wider fanout).
std::size_t sample_degree(Rng& rng) {
    const double u = rng.uniform01();
    if (u < 0.50) return 2;
    if (u < 0.72) return 3;
    if (u < 0.84) return 4;
    if (u < 0.91) return 5;
    if (u < 0.95) return 6;
    return static_cast<std::size_t>(rng.uniform(7, 12));
}

}  // namespace

GenResult generate_benchmark(const GenProfile& p) {
    GridWriteScope grid_write;
    Rng rng(p.seed);

    // ---- cells -----------------------------------------------------------
    for (const std::size_t n :
         {p.num_single, p.num_double, p.num_triple, p.num_quad}) {
        MRLG_ASSERT(n <= GenProfile::kMaxCells,
                    "cell count above GenProfile::kMaxCells");
    }
    MRLG_ASSERT(p.num_single + p.num_double + p.num_triple + p.num_quad <=
                    GenProfile::kMaxCells,
                "total cell count above GenProfile::kMaxCells");
    std::vector<Cell> protos;
    protos.reserve(p.num_single + p.num_double);
    std::int64_t cell_area = 0;
    for (std::size_t i = 0; i < p.num_single; ++i) {
        const SiteCoord w = sample_width(rng, p.single_w_min, p.single_w_max);
        protos.emplace_back("s" + std::to_string(i), w, 1);
        cell_area += w;
    }
    for (std::size_t i = 0; i < p.num_double; ++i) {
        const SiteCoord w = sample_width(rng, p.double_w_min, p.double_w_max);
        // All double-height cells share one rail phase, as a real library
        // would (paper §2: even-height cells restricted to alternate rows).
        protos.emplace_back("d" + std::to_string(i), w, 2, RailPhase::kEven);
        cell_area += 2 * w;
    }
    for (std::size_t i = 0; i < p.num_triple; ++i) {
        const SiteCoord w = sample_width(rng, p.double_w_min, p.double_w_max);
        protos.emplace_back("t" + std::to_string(i), w, 3, RailPhase::kEven);
        cell_area += 3 * w;
    }
    for (std::size_t i = 0; i < p.num_quad; ++i) {
        const SiteCoord w = sample_width(rng, p.double_w_min, p.double_w_max);
        protos.emplace_back("q" + std::to_string(i), w, 4, RailPhase::kEven);
        cell_area += 4 * w;
    }

    // ---- die -------------------------------------------------------------
    MRLG_ASSERT(p.density > 0.0 && p.density < GenProfile::kMaxDensity,
                "density must be in (0, 0.96)");
    const double free_needed =
        static_cast<double>(cell_area) / p.density;
    const double die_area = free_needed / (1.0 - p.blockage_area_frac);
    SiteCoord rows = static_cast<SiteCoord>(
        std::ceil(std::sqrt(die_area / p.aspect_sites_per_row)));
    rows = std::max<SiteCoord>(rows, 8);
    if (rows % 2 != 0) {
        ++rows;  // even row count keeps both parities equally available
    }
    const SiteCoord sites = static_cast<SiteCoord>(
        std::ceil(die_area / static_cast<double>(rows)));
    Floorplan fp(rows, sites, p.site_w_um, p.site_h_um);

    // ---- blockages ---------------------------------------------------------
    if (p.num_blockages > 0 && p.blockage_area_frac > 0.0) {
        const double per_blockage =
            p.blockage_area_frac * die_area /
            static_cast<double>(p.num_blockages);
        for (int b = 0; b < p.num_blockages; ++b) {
            SiteCoord bh = static_cast<SiteCoord>(std::clamp<std::int64_t>(
                rng.uniform(rows / 8, rows / 3), 2, rows - 2));
            SiteCoord bw = static_cast<SiteCoord>(std::clamp<std::int64_t>(
                static_cast<std::int64_t>(per_blockage /
                                          static_cast<double>(bh)),
                4, sites / 2));
            const SiteCoord bx = static_cast<SiteCoord>(
                rng.uniform(0, std::max<std::int64_t>(0, sites - bw)));
            const SiteCoord by = static_cast<SiteCoord>(
                rng.uniform(0, std::max<std::int64_t>(0, rows - bh)));
            fp.add_blockage(Rect{bx, by, bw, bh});
        }
    }

    Database db(std::move(fp));
    for (Cell& c : protos) {
        db.add_cell(std::move(c));
    }

    // Fence region 1: a right-edge strip with matching internal density;
    // the last `fence_cell_frac` of each height class becomes a member.
    if (p.fence_cell_frac > 0.0) {
        std::int64_t member_area = 0;
        const std::size_t num_members = static_cast<std::size_t>(
            p.fence_cell_frac * static_cast<double>(db.num_cells()));
        for (std::size_t i = db.num_cells() - num_members;
             i < db.num_cells(); ++i) {
            Cell& c = db.cell(CellId{static_cast<CellId::underlying>(i)});
            c.set_region(1);
            member_area +=
                static_cast<std::int64_t>(c.width()) * c.height();
        }
        const SiteCoord die_rows0 = db.floorplan().num_rows();
        const SiteCoord die_sites0 = db.floorplan().die().w;
        SiteCoord strip_w = static_cast<SiteCoord>(
            std::ceil(static_cast<double>(member_area) / p.density /
                      static_cast<double>(die_rows0)));
        strip_w = std::min<SiteCoord>(strip_w, die_sites0 / 2);
        db.floorplan().add_fence(
            1, Rect{static_cast<SiteCoord>(die_sites0 - strip_w), 0,
                    strip_w, die_rows0});
    }

    // ---- hidden legal packing → GP positions --------------------------------
    // Seed a uniform scatter and run the greedy (Tetris) legalizer; the
    // result is a well-distributed legal placement.
    SegmentGrid grid = SegmentGrid::build(db);
    const SiteCoord die_rows = db.floorplan().num_rows();
    const SiteCoord die_sites = db.floorplan().die().w;
    for (const CellId c : db.movable_cells()) {
        Cell& cell = db.cell(c);
        // Scatter within the cell's own fence region (the whole die for
        // core cells) so the packing converges.
        double x_lo = 0.0;
        double x_hi = static_cast<double>(die_sites);
        if (cell.region() != 0) {
            for (const Floorplan::Fence& f : db.floorplan().fences()) {
                if (f.region == cell.region()) {
                    x_lo = static_cast<double>(f.rect.x);
                    x_hi = static_cast<double>(f.rect.x_hi());
                    break;
                }
            }
        }
        cell.set_gp(x_lo + rng.uniform01() *
                               (x_hi - x_lo -
                                static_cast<double>(cell.width())),
                    rng.uniform01() *
                        static_cast<double>(die_rows - cell.height()));
    }
    GreedyOptions gopts;
    gopts.order = GreedyOptions::Order::kAreaDescending;
    const GreedyStats gstats = greedy_legalize(db, grid, gopts);
    GenResult result{Database(), gstats.success};
    if (!gstats.success) {
        MRLG_LOG(kWarn) << "generator packing left " << gstats.unplaced
                        << " cells unplaced (density too high?)";
    }

    // ---- netlist (before noise, from the legal packing) ---------------------
    // Spatial buckets over cell centres.
    const SiteCoord bucket = std::max<SiteCoord>(p.net_radius, 8);
    // Rows are much coarser than sites, so y uses a finer bucket to get
    // genuine two-dimensional locality.
    const SiteCoord bucket_y = std::max<SiteCoord>(2, bucket / 8);
    std::unordered_map<std::int64_t, std::vector<CellId>> buckets;
    auto bucket_key = [&](SiteCoord x, SiteCoord y) {
        return (static_cast<std::int64_t>(x / bucket) << 32) |
               static_cast<std::int64_t>(
                   static_cast<std::uint32_t>(y / bucket_y));
    };
    std::vector<CellId> placed_cells;
    for (const CellId c : db.movable_cells()) {
        const Cell& cell = db.cell(c);
        if (cell.placed()) {
            buckets[bucket_key(cell.x(), cell.y())].push_back(c);
            placed_cells.push_back(c);
        }
    }
    const std::size_t num_nets = static_cast<std::size_t>(
        p.nets_per_cell * static_cast<double>(placed_cells.size()));
    for (std::size_t n = 0; n < num_nets && !placed_cells.empty(); ++n) {
        const CellId seed = placed_cells[static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(placed_cells.size()) - 1))];
        const Cell& sc = db.cell(seed);
        // Candidate pool: 3x3 bucket neighbourhood around the seed.
        std::vector<CellId> pool;
        for (SiteCoord dx = -1; dx <= 1; ++dx) {
            for (SiteCoord dy = -1; dy <= 1; ++dy) {
                const auto it = buckets.find(bucket_key(
                    sc.x() + dx * bucket, sc.y() + dy * bucket_y));
                if (it != buckets.end()) {
                    pool.insert(pool.end(), it->second.begin(),
                                it->second.end());
                }
            }
        }
        const std::size_t degree = sample_degree(rng);
        std::vector<CellId> members{seed};
        for (std::size_t k = 1; k < degree; ++k) {
            const auto& src = pool.size() > 1 ? pool : placed_cells;
            const CellId cand = src[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(src.size()) - 1))];
            if (std::find(members.begin(), members.end(), cand) ==
                members.end()) {
                members.push_back(cand);
            }
        }
        if (members.size() < 2) {
            continue;
        }
        const NetId net = db.add_net("n" + std::to_string(n));
        for (const CellId m : members) {
            const Cell& mc = db.cell(m);
            const double ox =
                (0.1 + 0.8 * rng.uniform01()) *
                static_cast<double>(mc.width());
            const double oy =
                (0.1 + 0.8 * rng.uniform01()) *
                static_cast<double>(mc.height());
            db.add_pin(m, net, ox, oy);
        }
    }

    // ---- GP = legal + noise; then unplace -----------------------------------
    for (const CellId c : db.movable_cells()) {
        Cell& cell = db.cell(c);
        if (!cell.placed()) {
            continue;  // keep the scatter position as gp
        }
        const double sigma_y =
            cell.even_height() ? p.gp_sigma_y_double : p.gp_sigma_y;
        const double gx = std::clamp(
            static_cast<double>(cell.x()) + rng.normal(0.0, p.gp_sigma_x),
            0.0, static_cast<double>(die_sites - cell.width()));
        const double gy = std::clamp(
            static_cast<double>(cell.y()) + rng.normal(0.0, sigma_y),
            0.0, static_cast<double>(die_rows - cell.height()));
        cell.set_gp(gx, gy);
        grid.remove(db, c);
    }

    result.db = std::move(db);
    return result;
}

}  // namespace mrlg
