//! `bench-fm` — FM refinement trajectory benchmark.
//!
//! Runs boundary-driven and full-scan FM uncoarsening on one shared
//! hierarchy per suite graph (grid2d / rmat / path) and records the cut
//! and the refinement-only seconds of both in
//! `target/repro/BENCH_fm.json`. With `--trace`, the traced boundary run
//! emits the per-pass `fm/pass*` spans and `fm/boundary_size` gauges.

use crate::gated::{graphs, Bench, Family, Report, Suite, QUICK};
use crate::harness::Ctx;
use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::metrics::edge_cut;
use mlcg_par::ExecPolicy;
use mlcg_partition::fm::{fm_uncoarsen_frac_full_scan, fm_uncoarsen_frac_traced, FmConfig};

const FULL: &Suite = &[
    (Family::Grid, 256),
    (Family::Rmat, 13),
    (Family::Path, 65536),
];

/// Run the FM refinement benchmark, write `BENCH_fm.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let host = ctx.host();
    let serial = ExecPolicy::serial();
    let cfg = FmConfig::default();
    let mut bench = Bench::new(ctx, "bench-fm", ctx.host());
    for sg in graphs(ctx, QUICK, FULL) {
        let g = &sg.g;
        let h = coarsen(&host, g, &CoarsenOptions::default());
        bench.graph(&sg);
        bench.variant(
            "full_scan",
            |_, _| fm_uncoarsen_frac_full_scan(&h, &cfg, 0.5, ctx.seed),
            |(_, cut)| Report::fields(vec![("cut", cut.to_string())]),
        );
        bench.variant(
            "boundary",
            |_, trace| fm_uncoarsen_frac_traced(&serial, &h, &cfg, 0.5, ctx.seed, trace),
            |part| Report::fields(vec![("cut", edge_cut(g, part).to_string())]),
        );
    }
    bench.finish()
}
