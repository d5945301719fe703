#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/profiles.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

GenProfile tiny_profile() {
    GenProfile p;
    p.name = "tiny";
    p.num_single = 300;
    p.num_double = 30;
    p.density = 0.5;
    p.seed = 5;
    return p;
}

TEST(Generator, ProducesRequestedCellMix) {
    const GenResult r = generate_benchmark(tiny_profile());
    EXPECT_TRUE(r.packed_ok);
    EXPECT_EQ(r.db.num_single_row_cells(), 300u);
    EXPECT_EQ(r.db.num_multi_row_cells(), 30u);
}

TEST(Generator, DensityNearTarget) {
    for (const double target : {0.3, 0.6, 0.85}) {
        GenProfile p = tiny_profile();
        p.density = target;
        const GenResult r = generate_benchmark(p);
        EXPECT_TRUE(r.packed_ok);
        EXPECT_NEAR(r.db.density(), target, 0.08) << target;
    }
}

TEST(Generator, CellsUnplacedWithGpInsideDie) {
    const GenResult r = generate_benchmark(tiny_profile());
    const Rect die = r.db.floorplan().die();
    for (const Cell& c : r.db.cells()) {
        EXPECT_FALSE(c.placed());
        EXPECT_GE(c.gp_x(), static_cast<double>(die.x));
        EXPECT_LE(c.gp_x() + c.width(), static_cast<double>(die.x_hi()));
        EXPECT_GE(c.gp_y(), 0.0);
        EXPECT_LE(c.gp_y() + c.height(),
                  static_cast<double>(r.db.floorplan().num_rows()));
    }
}

TEST(Generator, DeterministicForSeed) {
    const GenResult a = generate_benchmark(tiny_profile());
    const GenResult b = generate_benchmark(tiny_profile());
    ASSERT_EQ(a.db.num_cells(), b.db.num_cells());
    for (std::size_t i = 0; i < a.db.num_cells(); ++i) {
        EXPECT_EQ(a.db.cells()[i].gp_x(), b.db.cells()[i].gp_x());
        EXPECT_EQ(a.db.cells()[i].width(), b.db.cells()[i].width());
    }
    EXPECT_EQ(a.db.nets().size(), b.db.nets().size());
}

TEST(Generator, DifferentSeedsDiffer) {
    GenProfile p2 = tiny_profile();
    p2.seed = 6;
    const GenResult a = generate_benchmark(tiny_profile());
    const GenResult b = generate_benchmark(p2);
    int same = 0;
    for (std::size_t i = 0; i < a.db.num_cells(); ++i) {
        same += a.db.cells()[i].gp_x() == b.db.cells()[i].gp_x() ? 1 : 0;
    }
    EXPECT_LT(same, 30);
}

TEST(Generator, NetlistIsSpatiallyLocal) {
    GenProfile p = tiny_profile();
    p.net_radius = 20;
    const GenResult r = generate_benchmark(p);
    EXPECT_GT(r.db.nets().size(), 200u);
    // GP HPWL should be far below what random pin pairing would give
    // (which averages ~1/3 of the die extent per net per axis).
    const Rect die = r.db.floorplan().die();
    const double gp_hpwl = hpwl_um(r.db, PositionSource::kGlobalPlacement);
    const double random_est =
        static_cast<double>(r.db.nets().size()) *
        (die.w * r.db.floorplan().site_w_um() +
         die.h * r.db.floorplan().site_h_um()) /
        3.0;
    EXPECT_LT(gp_hpwl, random_est * 0.8);
    for (const Net& n : r.db.nets()) {
        EXPECT_GE(n.degree(), 2u);
    }
}

TEST(Generator, BlockagesCarvedOut) {
    GenProfile p = tiny_profile();
    p.num_blockages = 3;
    p.blockage_area_frac = 0.05;
    const GenResult r = generate_benchmark(p);
    EXPECT_TRUE(r.packed_ok);
    EXPECT_EQ(r.db.floorplan().blockages().size(), 3u);
    // Density accounting still near target (blockages excluded from free
    // area).
    EXPECT_NEAR(r.db.density(), 0.5, 0.1);
}

TEST(Generator, DoubleHeightCellsShareRailPhase) {
    const GenResult r = generate_benchmark(tiny_profile());
    for (const Cell& c : r.db.cells()) {
        if (c.height() == 2) {
            EXPECT_EQ(c.rail_phase(), RailPhase::kEven);
        }
    }
}

TEST(Profiles, TwentyBenchmarksWithPaperStats) {
    const auto all = table1_benchmarks(1.0);
    ASSERT_EQ(all.size(), 20u);
    EXPECT_EQ(all[0].profile.name, "des_perf_1");
    EXPECT_EQ(all[0].profile.num_single, 103842u);
    EXPECT_EQ(all[0].profile.num_double, 8802u);
    EXPECT_NEAR(all[0].profile.density, 0.91, 1e-9);
    EXPECT_NEAR(all[0].paper.rt_ilp_s, 4098.7, 1e-6);
    EXPECT_EQ(all[16].profile.name, "superblue12");
    EXPECT_EQ(all[16].profile.num_single, 1172586u);
}

TEST(Profiles, ScaleShrinksWithFloor) {
    const auto half = table1_benchmarks(0.5);
    EXPECT_EQ(half[0].profile.num_single, 51921u);
    const auto tiny = table1_benchmarks(1e-6);
    for (const auto& e : tiny) {
        EXPECT_GE(e.profile.num_single, 400u);
        EXPECT_GE(e.profile.num_double, 40u);
    }
}

TEST(Profiles, SeedsAreDistinct) {
    const auto all = table1_benchmarks(0.01);
    std::set<std::uint64_t> seeds;
    for (const auto& e : all) {
        seeds.insert(e.profile.seed);
    }
    EXPECT_EQ(seeds.size(), all.size());
}

/// FNV-1a over every movable cell's gp_x and gp_y bit patterns.
std::uint64_t gp_hash(const Database& db) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](double v) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    for (const CellId c : db.movable_cells()) {
        mix(db.cell(c).gp_x());
        mix(db.cell(c).gp_y());
    }
    return h;
}

TEST(Profiles, Table1GpHashesPinned) {
    // Generated designs are inputs to every Table-1 number, so any change
    // to the generator or to the free-slot search its packing uses (a
    // tie-break, a row order) must show here first.
    const std::uint64_t expected[] = {
        0xd1bf6eda63a36ca8ULL,  // des_perf_1
        0xf7e668f43b9b0070ULL,  // des_perf_a
        0xedf04907583f219cULL,  // des_perf_b
        0x020b812297c49b4eULL,  // edit_dist_a
        0x3a359706f69c313dULL,  // fft_1
        0xe84e271e2a53a30bULL,  // fft_2
        0xa004961bf52bf3cbULL,  // fft_a
        0x4f92041cc5920c7cULL,  // fft_b
        0x626a069aa0e6871dULL,  // matrix_mult_1
        0x72729237661b31d8ULL,  // matrix_mult_2
        0x2c1e35a4de9fe318ULL,  // matrix_mult_a
        0x37dbc5605734df6eULL,  // matrix_mult_b
        0x776675efb7cbeb2eULL,  // matrix_mult_c
        0xe59163db78227cffULL,  // pci_bridge32_a
        0x071ee674a3f98c38ULL,  // pci_bridge32_b
        0x6591bc877fa6ee1dULL,  // superblue11_a
        0xa0ba2df915be195aULL,  // superblue12
        0xe5227d5961125772ULL,  // superblue14
        0x6b4979f3788001a1ULL,  // superblue16_a
        0xa0324bf7a14e0ce4ULL,  // superblue19
    };
    const auto all = table1_benchmarks(0.02);
    ASSERT_EQ(all.size(), std::size(expected));
    for (std::size_t i = 0; i < all.size(); ++i) {
        const GenResult r = generate_benchmark(all[i].profile);
        EXPECT_TRUE(r.packed_ok) << all[i].profile.name;
        EXPECT_EQ(gp_hash(r.db), expected[i])
            << all[i].profile.name << ": 0x" << std::hex << gp_hash(r.db);
    }
}

}  // namespace
}  // namespace mrlg::test
