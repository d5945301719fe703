#include "io/profiles.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace mrlg {

namespace {

Table1Entry make(const char* name, std::size_t s_cells, std::size_t d_cells,
                 double density, Table1Paper paper, std::uint64_t seed) {
    Table1Entry e;
    e.profile.name = name;
    e.profile.num_single = s_cells;
    e.profile.num_double = d_cells;
    e.profile.density = density;
    e.profile.seed = seed;
    // A few macro blockages, scaled with design size, as in the contest
    // floorplans.
    e.profile.num_blockages =
        2 + static_cast<int>((s_cells + d_cells) / 100000);
    e.profile.blockage_area_frac = 0.03;
    e.paper = paper;
    return e;
}

}  // namespace

std::vector<Table1Entry> table1_benchmarks(double scale) {
    MRLG_ASSERT(scale > 0.0 && scale <= kMaxScale,
                "profile scale must be in (0, kMaxScale]");
    // Columns from Table 1 ("Power Line Aligned"):
    // {GP HPWL(m), Disp ILP, Disp Ours, dHPWL% ILP, dHPWL% Ours,
    //  RT ILP, RT Ours}
    std::vector<Table1Entry> all;
    all.push_back(make("des_perf_1", 103842, 8802, 0.91,
                       {1.43, 2.13, 3.32, 2.61, 2.85, 4098.7, 7.2}, 101));
    all.push_back(make("des_perf_a", 99775, 8513, 0.43,
                       {2.57, 0.66, 0.96, 0.11, 0.28, 193.8, 2.6}, 102));
    all.push_back(make("des_perf_b", 103842, 8802, 0.50,
                       {2.13, 0.62, 0.85, 0.12, 0.31, 250.8, 2.4}, 103));
    all.push_back(make("edit_dist_a", 121913, 5500, 0.46,
                       {5.25, 0.45, 0.47, 0.09, 0.10, 206.0, 1.9}, 104));
    all.push_back(make("fft_1", 30297, 1984, 0.84,
                       {0.46, 1.58, 1.81, 2.25, 1.66, 776.8, 1.1}, 105));
    all.push_back(make("fft_2", 30297, 1984, 0.50,
                       {0.46, 0.66, 0.86, 0.55, 0.87, 72.7, 0.4}, 106));
    all.push_back(make("fft_a", 28718, 1907, 0.25,
                       {0.75, 0.60, 0.64, 0.32, 0.33, 38.2, 0.3}, 107));
    all.push_back(make("fft_b", 28718, 1907, 0.28,
                       {0.95, 0.73, 0.80, 0.32, 0.33, 61.9, 0.4}, 108));
    all.push_back(make("matrix_mult_1", 152427, 2898, 0.80,
                       {2.39, 0.49, 0.53, 0.36, 0.28, 967.4, 3.9}, 109));
    all.push_back(make("matrix_mult_2", 152427, 2898, 0.79,
                       {2.59, 0.45, 0.49, 0.30, 0.22, 825.0, 4.0}, 110));
    all.push_back(make("matrix_mult_a", 146837, 2813, 0.42,
                       {3.77, 0.27, 0.33, 0.09, 0.14, 150.7, 1.6}, 111));
    all.push_back(make("matrix_mult_b", 143695, 2740, 0.31,
                       {3.43, 0.25, 0.30, 0.09, 0.13, 127.8, 1.3}, 112));
    all.push_back(make("matrix_mult_c", 143695, 2740, 0.31,
                       {3.29, 0.27, 0.29, 0.11, 0.11, 139.0, 1.4}, 113));
    all.push_back(make("pci_bridge32_a", 26268, 3249, 0.38,
                       {0.46, 0.88, 0.95, 0.52, 0.58, 49.4, 0.3}, 114));
    all.push_back(make("pci_bridge32_b", 25734, 3180, 0.14,
                       {0.98, 0.95, 0.96, 0.12, 0.13, 15.3, 0.2}, 115));
    all.push_back(make("superblue11_a", 861314, 64302, 0.43,
                       {42.94, 1.85, 1.94, 0.15, 0.15, 3073.6, 23.4}, 116));
    all.push_back(make("superblue12", 1172586, 114362, 0.45,
                       {39.23, 1.45, 1.63, 0.18, 0.22, 5079.0, 106.5}, 117));
    all.push_back(make("superblue14", 564769, 47474, 0.56,
                       {27.98, 2.56, 2.62, 0.22, 0.22, 3360.6, 17.1}, 118));
    all.push_back(make("superblue16_a", 625419, 55031, 0.48,
                       {31.35, 1.61, 1.73, 0.10, 0.12, 2470.7, 21.7}, 119));
    all.push_back(make("superblue19", 478109, 27988, 0.52,
                       {20.76, 1.52, 1.60, 0.14, 0.14, 1848.8, 10.9}, 120));

    for (Table1Entry& e : all) {
        e.profile.num_single = std::max<std::size_t>(
            400, static_cast<std::size_t>(
                     std::llround(static_cast<double>(e.profile.num_single) *
                                  scale)));
        e.profile.num_double = std::max<std::size_t>(
            40, static_cast<std::size_t>(
                    std::llround(static_cast<double>(e.profile.num_double) *
                                 scale)));
    }
    return all;
}

bool parallel_profile(const std::string& name, double scale,
                      int seed_offset, GenProfile& out) {
    MRLG_ASSERT(scale > 0.0 && scale <= kMaxScale,
                "profile scale must be in (0, kMaxScale]");
    struct Spec {
        const char* name;
        std::size_t num_single;
        std::size_t num_double;
        double density;
    };
    static constexpr Spec kSpecs[] = {
        {"parallel_s", 2000, 200, 0.70},
        {"parallel_m", 8000, 800, 0.72},
        {"parallel_l", 24000, 2400, 0.75},
    };
    for (const Spec& spec : kSpecs) {
        if (name == spec.name) {
            out.name = spec.name;
            out.num_single = static_cast<std::size_t>(
                static_cast<double>(spec.num_single) * scale);
            out.num_double = static_cast<std::size_t>(
                static_cast<double>(spec.num_double) * scale);
            out.density = spec.density;
            out.seed = 11 + static_cast<std::uint64_t>(seed_offset);
            return true;
        }
    }
    return false;
}

std::vector<std::string> parallel_profile_names() {
    return {"parallel_s", "parallel_m", "parallel_l"};
}

}  // namespace mrlg
