//! `bench-parref` — parallel coarse-level refinement benchmark.
//!
//! Runs each suite graph through two uncoarsening paths on one shared
//! hierarchy:
//!
//! * `seq_boundary` — the sequential boundary-driven FM driver
//!   ([`fm_uncoarsen_frac_traced`] under the serial policy);
//! * `par_coarse` — the hybrid driver ([`fm_uncoarsen_frac_hybrid`]):
//!   frontier-based parallel refinement rounds on every level whose
//!   projected frontier crosses the crossover threshold, sequential
//!   boundary FM polish below it and after the rounds.
//!
//! Records the cut and refinement-only seconds of both in
//! `target/repro/BENCH_parref.json`. With `--trace`, the traced hybrid run
//! emits the `parref/rounds` counter, the per-round `parref/frontier_size`
//! gauges and the `par_for/parref/*` dispatch records.

use crate::gated::{graphs, Bench, Family, Report, Suite, QUICK};
use crate::harness::Ctx;
use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::metrics::edge_cut;
use mlcg_par::ExecPolicy;
use mlcg_partition::fm::{fm_uncoarsen_frac_hybrid, fm_uncoarsen_frac_traced, FmConfig};
use mlcg_partition::parref::ParRefConfig;

/// Forced crossover threshold for the `par_coarse` variant in `--quick`
/// mode. The [`ParRefConfig`] default ties the threshold to
/// `HOST_GRAIN × workers`, which on the quick suite's small graphs
/// disables the parallel engine entirely — correct for production,
/// useless for tracking this code path in the CI gate. Quick mode pins
/// a low threshold so the rounds genuinely run on any host; the gate
/// compares against a baseline recorded the same way, so the known
/// small-frontier overhead cancels out.
const CROSSOVER_QUICK: usize = 512;

/// Crossover threshold for the full suite: one dispatch grain
/// (`HOST_GRAIN`), the smallest frontier that can split across workers
/// at all. This keeps the timing comparison honest — the engine engages
/// exactly where a dispatch can go wide (the fat rmat frontiers) and
/// stays off where the boundary is thin (grids, paths), which is the
/// production crossover story at a host-independent pin.
const CROSSOVER_FULL: usize = 2048;

/// Bigger graphs than bench-fm's full suite on purpose: the parallel
/// engine only engages once a level's projected frontier crosses a
/// dispatch grain, and rmat-15 is the smallest suite member whose
/// finest-level frontier (~15k vertices) does. The grid and path stay
/// below the crossover at every level and document the other half of
/// the story: thin-boundary graphs keep the sequential fast path, so
/// their two variants should measure as noise around parity.
const FULL: &Suite = &[
    (Family::Grid, 512),
    (Family::Rmat, 15),
    (Family::Path, 65536),
];

/// The crossover threshold pinned for the `--quick` or full suite; shared
/// with `bench-kway`, whose k-way rounds engine needs the same pin.
pub(crate) fn crossover(ctx: &Ctx) -> usize {
    if ctx.quick {
        CROSSOVER_QUICK
    } else {
        CROSSOVER_FULL
    }
}

/// Run the parallel-refinement benchmark, write `BENCH_parref.json`, and
/// (with `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let host = ctx.host();
    let serial = ExecPolicy::serial();
    let cfg = FmConfig::default();
    let crossover = crossover(ctx);
    let parref = ParRefConfig {
        epsilon: cfg.epsilon,
        crossover_frontier: Some(crossover),
        ..ParRefConfig::default()
    };
    let mut bench =
        Bench::new(ctx, "bench-parref", ctx.host()).param("crossover_frontier", crossover);
    for sg in graphs(ctx, QUICK, FULL) {
        let g = &sg.g;
        let h = coarsen(&host, g, &CoarsenOptions::default());
        let cut = |part: &Vec<u32>| Report::fields(vec![("cut", edge_cut(g, part).to_string())]);
        bench.graph(&sg);
        bench.variant(
            "seq_boundary",
            |_, trace| fm_uncoarsen_frac_traced(&serial, &h, &cfg, 0.5, ctx.seed, trace),
            cut,
        );
        bench.variant(
            "par_coarse",
            |p, trace| fm_uncoarsen_frac_hybrid(p, &h, &cfg, &parref, 0.5, ctx.seed, trace),
            cut,
        );
    }
    bench.finish()
}
