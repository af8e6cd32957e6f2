//! `bench-map` — mapping-phase benchmark and gate.
//!
//! The suite is split into a *regular* half (grid, path — uniform degrees,
//! the HEC-family pass loop converges immediately) and a *skewed* half
//! (rmat, star — skewed degrees, where the work queue stays long and the
//! parallel compaction plus the fused relabel have real work to do). For
//! each graph and each of the paper's Table IV methods this times one
//! `find_mapping_in` through the variant's own [`MapWorkspace`], plus a
//! `hierarchy` variant that runs the full multilevel driver and reports
//! the summed per-level mapping seconds — the number the level-reused
//! workspace improves. Peak heap is measured under the serial policy and
//! normalized per vertex (`bytes_per_vertex`).
//!
//! Each method's labels are then asserted unchanged through the used
//! workspace, and `mis2`, the one schedule-deterministic Table IV method,
//! is asserted to reproduce them under the host policy.
//!
//! Results go to `target/repro/BENCH_map.json`.

use crate::gated::{graphs, Bench, Report, FULL_HALVES, QUICK_HALVES};
use crate::harness::Ctx;
use mlcg_coarsen::{
    coarsen, find_mapping, find_mapping_in, CoarsenOptions, MapMethod, MapWorkspace,
};
use mlcg_par::{ExecPolicy, TraceCollector};

/// Run the mapping benchmark, write `BENCH_map.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let serial = ExecPolicy::serial();
    let mut bench = Bench::new(ctx, "bench-map", serial.clone()).per_vertex();
    for sg in graphs(ctx, QUICK_HALVES, FULL_HALVES) {
        let g = &sg.g;
        bench.graph(&sg);
        for method in MapMethod::TABLE4 {
            let mut ws = MapWorkspace::new();
            let ((parallel, _), _) = bench.variant(
                method.name(),
                |p, _| find_mapping_in(p, g, method, ctx.seed, &mut ws),
                |_| Report::default(),
            );
            // The workspace every measured call went through must not
            // change the serial labels.
            let (fresh, _) = find_mapping(&serial, g, method, ctx.seed);
            let (shared, _) = find_mapping_in(&serial, g, method, ctx.seed, &mut ws);
            assert_eq!(
                fresh,
                shared,
                "{}: {} differs between fresh and shared workspace",
                sg.name,
                method.name()
            );
            if method == MapMethod::Mis2 {
                assert_eq!(
                    parallel, fresh,
                    "{}: mis2 must be policy-invariant",
                    sg.name
                );
            }
        }
        let copts = CoarsenOptions {
            seed: ctx.seed,
            trace: TraceCollector::disabled(),
            ..Default::default()
        };
        bench.variant(
            "hierarchy",
            |p, _| coarsen(p, g, &copts),
            |h| Report::own_seconds(h.stats.map_seconds.iter().sum()),
        );
    }
    bench.finish()
}
