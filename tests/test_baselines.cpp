#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "db/write_cap.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "legalize/abacus.hpp"
#include "legalize/greedy.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

Database scattered(Rng& rng, SiteCoord rows, SiteCoord sites, int singles,
                   int doubles) {
    Database db = empty_design(rows, sites);
    for (int i = 0; i < singles; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 7));
        add_unplaced(db, "s" + std::to_string(i),
                     rng.uniform01() * (sites - w),
                     rng.uniform01() * (rows - 1), w, 1);
    }
    for (int i = 0; i < doubles; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        add_unplaced(db, "d" + std::to_string(i),
                     rng.uniform01() * (sites - w),
                     rng.uniform01() * (rows - 2), w, 2);
    }
    return db;
}

// ---------------- greedy ----------------

TEST(Greedy, LegalizesMixedHeightDesign) {
    Rng rng(301);
    Database db = scattered(rng, 12, 140, 120, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(grid.audit(db).empty());
}

TEST(Greedy, RespectsRailParity) {
    Rng rng(303);
    Database db = scattered(rng, 12, 140, 60, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(greedy_legalize(db, grid).success);
    for (const Cell& c : db.cells()) {
        if (c.even_height()) {
            EXPECT_TRUE(rail_compatible(c.y(), c.height(), c.rail_phase()));
        }
    }
}

TEST(Greedy, AvoidsBlockages) {
    Rng rng(305);
    Database db = scattered(rng, 12, 140, 100, 10);
    db.floorplan().add_blockage(Rect{40, 0, 30, 12});
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(greedy_legalize(db, grid).success);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Greedy, ReportsUnplacedWhenOverfull) {
    Database db = empty_design(1, 20);
    for (int i = 0; i < 6; ++i) {
        add_unplaced(db, "c" + std::to_string(i), 0.0, 0.0, 5, 1);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.unplaced, 2u);
}

TEST(Greedy, HighDensityDisplacementWorseThanMll) {
    // The §1 claim: placed objects never move, so at high density the
    // greedy baseline pays much more displacement than MLL.
    double disp_greedy = 0;
    double disp_mll = 0;
    for (int mode = 0; mode < 2; ++mode) {
        Rng rng(307);
        Database db = scattered(rng, 10, 100, 160, 12);  // density ~0.8
        SegmentGrid grid = SegmentGrid::build(db);
        if (mode == 0) {
            ASSERT_TRUE(greedy_legalize(db, grid).success);
            disp_greedy = displacement_stats(db).avg_sites;
        } else {
            ASSERT_TRUE(legalize_placement(db, grid).success);
            disp_mll = displacement_stats(db).avg_sites;
        }
    }
    EXPECT_GT(disp_greedy, disp_mll);
}

TEST(Greedy, CellTallerThanDieIsUnplaced) {
    // A 3-row cell on a 2-row die fits nowhere: counted unplaced, and the
    // free-slot search never reads a row past the die.
    Database db = empty_design(2, 30);
    add_unplaced(db, "tall", 4.0, 0.0, 2, 3);
    add_unplaced(db, "small", 10.0, 1.0, 3, 1);
    SegmentGrid grid = SegmentGrid::build(db);
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.unplaced, 1u);
    EXPECT_FALSE(db.cell(db.find_cell("tall")).placed());
    EXPECT_TRUE(db.cell(db.find_cell("small")).placed());
}

TEST(Greedy, EqualRowDistanceTakesLowerRow) {
    // py = k + 0.5 is equally far from rows k and k + 1: the lower wins.
    Database db = empty_design(8, 40);
    const CellId c = add_unplaced(db, "c", 10.0, 0.0, 3, 1);
    const CellId d = add_unplaced(db, "d", 10.0, 0.0, 3, 2,
                                  RailPhase::kOdd);
    const SegmentGrid grid = SegmentGrid::build(db);
    for (SiteCoord k = 0; k + 1 < 8; ++k) {
        const double py = static_cast<double>(k) + 0.5;
        const auto p = find_nearest_free_position(db, grid, c, 10.0, py, true);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(*p, (Point{10, k})) << "py " << py;
    }
    // Without rail checks a double-height cell ties the same way; with
    // them the rail-compatible row of the two wins.
    for (SiteCoord k = 0; k + 2 < 8; ++k) {
        const double py = static_cast<double>(k) + 0.5;
        const auto free = find_nearest_free_position(db, grid, d, 10.0, py,
                                                     false);
        ASSERT_TRUE(free.has_value());
        EXPECT_EQ(free->y, k) << "py " << py;
        const auto railed = find_nearest_free_position(db, grid, d, 10.0, py,
                                                       true);
        ASSERT_TRUE(railed.has_value());
        EXPECT_TRUE(rail_compatible(railed->y, 2, RailPhase::kOdd));
        EXPECT_EQ(railed->y, rail_compatible(k, 2, RailPhase::kOdd) ? k
                                                                    : k + 1)
            << "py " << py;
    }
}

// ---------------- free-slot search vs. whole-row oracle ----------------

/// The whole-row free-slot search the local one replaced, kept as its
/// oracle: every row in |dy| order (std::stable_sort, so the lower row wins
/// an |dy| tie, the documented rule), and per row every blocked span of
/// the covered rows' whole extent, sorted, then every free gap scanned.
std::optional<SiteCoord> brute_force_nearest_free_x(
    const Database& db, const SegmentGrid& grid, SiteCoord y, double px,
    SiteCoord w, SiteCoord h, int region) {
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + h; ++r) {
        const Row& row = db.floorplan().row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi, static_cast<SiteCoord>(row.x + row.num_sites));
    }
    if (x_hi - x_lo < w) {
        return std::nullopt;
    }
    std::vector<Span> blocked;
    for (SiteCoord r = y; r < y + h; ++r) {
        SiteCoord cursor = x_lo;
        for (const SegmentId sid : grid.row_segments(r)) {
            const Segment& seg = grid.segment(sid);
            const Span s = intersect(seg.span, Span{x_lo, x_hi});
            if (s.empty()) {
                continue;
            }
            if (seg.region != region) {
                blocked.push_back(s);
                continue;
            }
            if (s.lo > cursor) {
                blocked.push_back(Span{cursor, s.lo});
            }
            cursor = std::max(cursor, s.hi);
            const auto [first, last] =
                grid.cells_overlapping(db, seg, Span{x_lo, x_hi});
            for (std::size_t i = first; i < last; ++i) {
                const Cell& c = db.cell(seg.cells[i]);
                blocked.push_back(Span{c.x(), c.x() + c.width()});
            }
        }
        if (cursor < x_hi) {
            blocked.push_back(Span{cursor, x_hi});
        }
    }
    std::sort(blocked.begin(), blocked.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });
    std::optional<SiteCoord> best;
    double best_d = std::numeric_limits<double>::max();
    auto consider_gap = [&](SiteCoord lo, SiteCoord hi) {
        if (hi - lo < w) {
            return;
        }
        const double xc = std::clamp(px, static_cast<double>(lo),
                                     static_cast<double>(hi - w));
        const SiteCoord x = std::clamp<SiteCoord>(
            static_cast<SiteCoord>(std::lround(xc)), lo,
            static_cast<SiteCoord>(hi - w));
        const double d = std::abs(static_cast<double>(x) - px);
        if (d < best_d) {
            best_d = d;
            best = x;
        }
    };
    SiteCoord cursor = x_lo;
    for (const Span& b : blocked) {
        if (b.lo > cursor) {
            consider_gap(cursor, b.lo);
        }
        cursor = std::max(cursor, b.hi);
    }
    if (cursor < x_hi) {
        consider_gap(cursor, x_hi);
    }
    return best;
}

std::optional<Point> brute_force_nearest_free_position(
    const Database& db, const SegmentGrid& grid, CellId cell_id, double px,
    double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const SiteCoord h = cell.height();
    if (h > fp.num_rows()) {
        return std::nullopt;
    }
    const SiteCoord max_y = fp.num_rows() - h;
    std::vector<SiteCoord> rows;
    for (SiteCoord y = 0; y <= max_y; ++y) {
        if (!check_rail || rail_compatible(y, h, cell.rail_phase())) {
            rows.push_back(y);
        }
    }
    std::stable_sort(rows.begin(), rows.end(), [&](SiteCoord a, SiteCoord b) {
        return std::abs(static_cast<double>(a) - py) <
               std::abs(static_cast<double>(b) - py);
    });
    double best_cost = std::numeric_limits<double>::max();
    std::optional<Point> best;
    for (const SiteCoord y : rows) {
        const double y_cost =
            std::abs(static_cast<double>(y) - py) * fp.site_h_um();
        if (y_cost >= best_cost) {
            break;
        }
        const auto x = brute_force_nearest_free_x(db, grid, y, px,
                                                  cell.width(), h,
                                                  cell.region());
        if (!x) {
            continue;
        }
        const double cost = y_cost + std::abs(static_cast<double>(*x) - px) *
                                         fp.site_w_um();
        if (cost < best_cost) {
            best_cost = cost;
            best = Point{*x, y};
        }
    }
    return best;
}

/// A random die filled by random placements: ragged row extents,
/// blockages, an optional fence strip, cells 1-4 rows tall of both rail
/// phases (placed without rail checks, so every parity is occupied).
/// Sparse dies get a random fill; packed dies are filled with narrow cells
/// until only slivers are left, then a few cells are taken out again, so
/// the nearest gap that fits a query cell may be far from it.
struct OracleDesign {
    Database db;
    SegmentGrid grid;
    bool fenced = false;
};

OracleDesign random_oracle_design(Rng& rng) {
    const SiteCoord rows = static_cast<SiteCoord>(rng.uniform(2, 14));
    const SiteCoord sites = static_cast<SiteCoord>(rng.uniform(20, 400));
    const bool packed = rng.chance(0.5);
    const bool ragged = rng.chance(0.3);
    Floorplan fp;
    for (SiteCoord y = 0; y < rows; ++y) {
        const SiteCoord x0 =
            ragged ? static_cast<SiteCoord>(rng.uniform(0, 10)) : 0;
        const SiteCoord trim =
            ragged ? static_cast<SiteCoord>(rng.uniform(0, 10)) : 0;
        fp.add_row(Row{y, x0, static_cast<SiteCoord>(sites - x0 - trim)});
    }
    const int num_blockages = static_cast<int>(rng.uniform(0, 3));
    for (int i = 0; i < num_blockages; ++i) {
        const SiteCoord bw = static_cast<SiteCoord>(rng.uniform(1, sites / 4));
        const SiteCoord bh = static_cast<SiteCoord>(rng.uniform(1, rows));
        fp.add_blockage(Rect{static_cast<SiteCoord>(rng.uniform(0, sites - bw)),
                             static_cast<SiteCoord>(rng.uniform(0, rows - bh)),
                             bw, bh});
    }
    OracleDesign d{Database(), SegmentGrid{}, rng.chance(0.4)};
    if (d.fenced) {
        const SiteCoord fw =
            static_cast<SiteCoord>(rng.uniform(sites / 8, sites / 3));
        const SiteCoord fx = static_cast<SiteCoord>(rng.uniform(0, sites - fw));
        fp.add_fence(1, Rect{fx, 0, fw, rows});
    }
    d.db = Database(std::move(fp));
    d.grid = SegmentGrid::build(d.db);

    GridWriteScope grid_write;
    const double fill = packed ? 3.0 : rng.uniform01() / 2.0;
    const int attempts = static_cast<int>(
        fill * static_cast<double>(rows) * static_cast<double>(sites));
    std::vector<CellId> placed;
    for (int i = 0; i < attempts; ++i) {
        const SiteCoord h = static_cast<SiteCoord>(
            std::min<std::int64_t>(rng.uniform(1, 6), 4));
        if (h > rows) {
            continue;
        }
        const SiteCoord w =
            static_cast<SiteCoord>(rng.uniform(1, packed ? 3 : 8));
        const int region = d.fenced && rng.chance(0.3) ? 1 : 0;
        const Rect r{static_cast<SiteCoord>(rng.uniform(0, sites - w)),
                     static_cast<SiteCoord>(rng.uniform(0, rows - h)), w, h};
        if (!d.grid.placeable(d.db, r, CellId{}, region)) {
            continue;
        }
        const CellId c = d.db.add_cell(
            Cell("p" + std::to_string(i), w, h,
                 rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd));
        d.db.cell(c).set_region(region);
        d.grid.place(d.db, c, r.x, r.y);
        placed.push_back(c);
    }
    const int holes = packed ? static_cast<int>(rng.uniform(0, 6)) : 0;
    for (int i = 0; i < holes && !placed.empty(); ++i) {
        const auto k = static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(placed.size()) - 1));
        d.grid.remove(d.db, placed[k]);
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
    }
    return d;
}

TEST(Greedy, LocalSearchMatchesWholeRowOracle) {
    Rng rng(401);
    int queries = 0;
    int found = 0;
    int none = 0;
    int mismatches = 0;
    for (int design = 0; design < 60; ++design) {
        OracleDesign d = random_oracle_design(rng);
        const Rect die = d.db.floorplan().die();
        const SiteCoord rows = d.db.floorplan().num_rows();
        GridWriteScope grid_write;
        for (int q = 0; q < 120; ++q) {
            // Mostly ordinary cells; some too wide or too tall for any gap.
            SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 10));
            if (rng.chance(0.1)) {
                w = static_cast<SiteCoord>(rng.uniform(die.w / 2, die.w + 5));
            }
            SiteCoord h = static_cast<SiteCoord>(rng.uniform(1, 4));
            if (rng.chance(0.03)) {
                h = static_cast<SiteCoord>(rows + rng.uniform(1, 2));
            }
            const CellId c = d.db.add_cell(Cell(
                "q" + std::to_string(q), w, h,
                rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd));
            d.db.cell(c).set_region(d.fenced && rng.chance(0.4) ? 1 : 0);
            // Preferred positions reach outside the die; some sit exactly
            // between two rows, some at integer x, a few very far away.
            double px = static_cast<double>(die.x) - 30.0 +
                        rng.uniform01() * static_cast<double>(die.w + 60);
            double py = -3.0 + rng.uniform01() * static_cast<double>(rows + 6);
            if (rng.chance(0.15)) {
                py = std::floor(py) + 0.5;
            }
            if (rng.chance(0.15)) {
                px = std::round(px);
            }
            if (rng.chance(0.02)) {
                px = rng.chance(0.5) ? -1e7 : 1e7;
            }
            const bool check_rail = rng.chance(0.5);
            const auto got =
                find_nearest_free_position(d.db, d.grid, c, px, py, check_rail);
            const auto want = brute_force_nearest_free_position(
                d.db, d.grid, c, px, py, check_rail);
            ++queries;
            (want ? found : none) += 1;
            if (got != want) {
                ++mismatches;
                ADD_FAILURE() << "design " << design << " query " << q
                              << " w " << w << " h " << h << " px " << px
                              << " py " << py << " rail " << check_rail
                              << ": local "
                              << (got ? testing::PrintToString(*got) : "none")
                              << " vs whole-row "
                              << (want ? testing::PrintToString(*want)
                                       : "none");
            }
        }
    }
    EXPECT_EQ(mismatches, 0) << "of " << queries << " queries";
    // The battery must cover both outcomes well.
    EXPECT_GT(found, queries / 3);
    EXPECT_GT(none, queries / 20);
}

// ---------------- abacus ----------------

TEST(Abacus, RejectsMultiRowDesigns) {
    Rng rng(311);
    Database db = scattered(rng, 10, 100, 50, 5);
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_TRUE(s.rejected_multi_row);
}

TEST(Abacus, LegalizesSingleRowDesign) {
    Rng rng(313);
    Database db = scattered(rng, 10, 120, 140, 0);
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_TRUE(s.success) << s.unplaced;
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(grid.audit(db).empty());
}

TEST(Abacus, LowDisplacementOnEasyDesign) {
    // A sparse design: every cell should land near its gp position.
    Rng rng(317);
    Database db = scattered(rng, 10, 200, 60, 0);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(abacus_legalize(db, grid).success);
    EXPECT_LT(displacement_stats(db).avg_sites, 8.0);
}

TEST(Abacus, ClusterCollapseKeepsOrder) {
    // Three cells preferring the same spot collapse into one cluster
    // around it, in gp-x order.
    Database db = empty_design(1, 40);
    add_unplaced(db, "a", 10.0, 0.0, 4, 1);
    add_unplaced(db, "b", 10.5, 0.0, 4, 1);
    add_unplaced(db, "c", 11.0, 0.0, 4, 1);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(abacus_legalize(db, grid).success);
    const Cell& a = db.cell(db.find_cell("a"));
    const Cell& b = db.cell(db.find_cell("b"));
    const Cell& c = db.cell(db.find_cell("c"));
    EXPECT_EQ(b.x(), a.x() + 4);
    EXPECT_EQ(c.x(), b.x() + 4);
    // Cluster optimum: x = mean(10-0, 10.5-4, 11-8) = 6.5, so the middle
    // cell sits at ~10.5 (integer rounding ±1).
    EXPECT_NEAR(b.x(), 10.5, 1.0);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Abacus, WorksWithBlockages) {
    Rng rng(319);
    Database db = scattered(rng, 8, 120, 80, 0);
    db.floorplan().add_blockage(Rect{50, 0, 20, 8});
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

}  // namespace
}  // namespace mrlg::test
