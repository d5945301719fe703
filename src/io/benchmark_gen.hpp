#pragma once
/// \file benchmark_gen.hpp
/// Synthetic ISPD2015-like benchmark generator (DESIGN.md substitution for
/// the contest benchmarks). Produces a Database with:
///  * the requested mix of single-row and double-row-height cells (the
///    paper's modification: sequential cells doubled in height, halved in
///    width — here the double-height population is generated directly);
///  * a die sized so the movable-area / free-area ratio hits the requested
///    density, with optional macro blockages;
///  * a hidden legal packing, which seeds the global-placement input as
///    (legal position + Gaussian noise) — i.e. a well-distributed,
///    overlapping, off-site GP, exactly what legalization consumes;
///  * a spatially local netlist so HPWL deltas behave realistically.

#include <cstdint>
#include <string>

#include "db/database.hpp"

namespace mrlg {

struct GenProfile {
    std::string name = "synthetic";
    std::size_t num_single = 1000;  ///< Single-row-height movable cells.
    std::size_t num_double = 100;   ///< Double-row-height movable cells.
    /// Taller cells — beyond the paper's double-height benchmarks but
    /// fully supported by the algorithm (§2 allows any multiple of the
    /// row height). Triples are odd-height (any row, flipped); quads are
    /// even-height (parity-constrained like doubles).
    std::size_t num_triple = 0;
    std::size_t num_quad = 0;
    /// Inclusive upper bound on each cell count and on their sum: above
    /// superblue12's 1.29M cells, the largest Table-1 design, and far below
    /// where the counts' sum could wrap.
    static constexpr std::size_t kMaxCells = 2'000'000;
    /// Exclusive upper bound on `density`: denser designs may not pack.
    static constexpr double kMaxDensity = 0.96;
    /// Movable area / free site area, in (0, kMaxDensity).
    double density = 0.5;
    std::uint64_t seed = 1;

    // --- cell geometry (sites) ---------------------------------------------
    SiteCoord single_w_min = 2;
    SiteCoord single_w_max = 8;
    SiteCoord double_w_min = 1;  ///< Paper: halved widths.
    SiteCoord double_w_max = 4;

    // --- die / blockages -----------------------------------------------------
    double aspect_sites_per_row = 8.55;  ///< site_h/site_w for a square die.
    int num_blockages = 0;
    double blockage_area_frac = 0.0;  ///< Die fraction covered by blockages.

    // --- fence regions (ISPD2015 feature) -------------------------------
    /// Fraction of cells assigned to fence region 1 (0 disables fences).
    /// The generator carves a full-height strip at the right die edge
    /// sized so the fence's internal density matches `density`. Combine
    /// with blockages at your own risk (blockages may eat fence sites).
    double fence_cell_frac = 0.0;

    // --- global placement noise ---------------------------------------------
    // Calibrated so the legalized average displacement lands in the
    // paper's 0.3-3 site-width band: most cells stay in their row with a
    // small x error, a tail of cells crosses rows.
    double gp_sigma_x = 0.9;  ///< Sites.
    double gp_sigma_y = 0.18; ///< Rows.
    /// Double-height cells get a larger y noise: the contest global
    /// placers the paper legalizes are parity-unaware, so a double-height
    /// cell's preferred row has the wrong power-rail parity about half the
    /// time. This is what makes the paper's "Power Line Not Aligned"
    /// experiment (38-42 % lower displacement) reproducible.
    double gp_sigma_y_double = 1.1;

    // --- netlist ---------------------------------------------------------------
    double nets_per_cell = 1.1;
    SiteCoord net_radius = 40;  ///< Spatial locality of net pins (sites).

    double site_w_um = 0.2;
    double site_h_um = 1.71;
};

struct GenResult {
    Database db;
    /// True when the hidden legal packing placed every cell (always the
    /// case for density <= ~0.95; asserted in tests).
    bool packed_ok = false;
};

/// Generates the design. On return every movable cell is *unplaced* and
/// carries its GP position in gp_x/gp_y; fixed blockages are frozen into
/// the floorplan.
GenResult generate_benchmark(const GenProfile& profile);

}  // namespace mrlg
