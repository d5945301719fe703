// Known-bad fixture for `tools/mrlg_lint.py effects` (never compiled).
// A plan task that fans out again: the cell-level plan parallel_for
// reaches a parallel_reduce through score_points. The analyzer must
// report nested-fanout there, and only there: check_all is a read-only
// root outside the plan dispatch, where a parallel sweep is allowed.

struct Database {
    int cells = 0;
};

namespace mrlg_fixture {

int score_points(const Database& db, int cell, int threads) {
    return parallel_reduce(db.cells, 16, threads, 0,
                           [&](int begin, int end) { return end - begin; },
                           [](int a, int b) { return a + b; }) +
           cell;
}

MRLG_EFFECT_READONLY
int plan_one(const Database& db, int cell) {
    return score_points(db, cell, 1);
}

MRLG_EFFECT_READONLY
int check_all(const Database& db, int threads) {
    return parallel_reduce(db.cells, 64, threads, 0,
                           [&](int begin, int end) { return end - begin; },
                           [](int a, int b) { return a + b; });
}

void run_plan_wave(const Database& db, int n, int threads) {
    MRLG_OBS_PHASE("plan");
    obs::TracerPause pause;
    parallel_for(n, 1, threads, [&](int begin, int end) {
        for (int i = begin; i < end; ++i) {
            plan_one(db, i);
        }
    });
}

}  // namespace mrlg_fixture
