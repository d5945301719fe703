#include "bench_common.hpp"

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mrlg::bench {

void reset_placement(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
}

RunMetrics run_legalization(Database& db, SegmentGrid& grid,
                            const LegalizerOptions& opts) {
    RunMetrics m;
    m.gp_hpwl_m = hpwl_m(db, PositionSource::kGlobalPlacement);

    const LegalizerStats stats = legalize_placement(db, grid, opts);
    m.success = stats.success;
    m.runtime_s = stats.runtime_s;
    m.direct = stats.direct_placements;
    m.mll = stats.mll_successes;
    m.points_evaluated = stats.mll_points_evaluated;
    m.waves = stats.waves;
    m.conflict_requeues = stats.conflict_requeues;

    LegalityOptions lopts;
    lopts.check_rail_alignment = opts.mll.check_rail;
    lopts.num_threads = opts.num_threads;
    lopts.require_all_placed = true;
    const LegalityReport rep = check_legality(db, grid, lopts);
    if (!rep.legal) {
        MRLG_LOG(kError) << "bench produced an illegal placement ("
                         << rep.messages.size() << "+ violations)";
        m.success = false;
    }

    const DisplacementStats d = displacement_stats(db);
    m.disp_avg_sites = d.avg_sites;
    m.disp_max_sites = d.max_sites;
    m.dhpwl_pct = hpwl_delta(db) * 100.0;
    return m;
}

}  // namespace mrlg::bench
