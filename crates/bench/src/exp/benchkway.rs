//! `bench-kway` — direct k-way refinement benchmark.
//!
//! Runs each suite graph at `k = 8` through two variants:
//!
//! * `recursive` — recursive FM bisection only
//!   ([`kway_partition_cfg`] with `direct_refine: false`); its recorded
//!   seconds are the whole partition (coarsen + bisect cascade), the
//!   quantity the post-pass rides on top of;
//! * `direct_refine` — the direct k-way post-pass
//!   ([`kway_direct_refine`]: the frontier round engine and the
//!   sequential boundary FM bisection also runs) applied to a clone of the
//!   last recursive labeling; its recorded seconds are the refinement
//!   alone, so the gate tracks the marginal cost of seeing all k labels
//!   jointly.
//!
//! Records cut, imbalance and median seconds in
//! `target/repro/BENCH_kway.json`. With `--trace`, the traced refinement
//! emits the `kwayref/rounds` counter, the `kwayref/*` gauges and the
//! `par_for/kwayref/*` dispatch records.

use crate::gated::{graphs, Bench, Family, Report, Suite, QUICK};
use crate::harness::Ctx;
use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::metrics::edge_cut;
use mlcg_partition::fm::FmConfig;
use mlcg_partition::kway::{kway_imbalance, kway_partition_cfg, KwayConfig};
use mlcg_partition::kwayref::{kway_direct_refine, KwayRefineConfig};

/// Every suite graph is split into this many parts.
const K: usize = 8;

/// Sized so the k-way boundary (≈ (k−1)× the bisection boundary)
/// crosses the full-suite dispatch grain on the rmat instance while
/// grid and path document the sequential-path half of the crossover
/// story, as in bench-parref.
const FULL: &Suite = &[
    (Family::Grid, 256),
    (Family::Rmat, 14),
    (Family::Path, 65536),
];

/// Run the k-way refinement benchmark, write `BENCH_kway.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let fm = FmConfig::default();
    let crossover = super::benchparref::crossover(ctx);
    let refine_cfg = KwayRefineConfig {
        epsilon: fm.epsilon,
        crossover_frontier: Some(crossover),
        ..KwayRefineConfig::default()
    };
    let recursive_cfg = KwayConfig {
        direct_refine: false,
        ..Default::default()
    };
    let mut bench = Bench::new(ctx, "bench-kway", ctx.host())
        .param("k", K)
        .param("crossover_frontier", crossover);
    for sg in graphs(ctx, QUICK, FULL) {
        let g = &sg.g;
        let quality = |cut: u64, imbalance: f64| {
            Report::fields(vec![
                ("cut", cut.to_string()),
                ("imbalance", format!("{imbalance:.4}")),
            ])
        };
        bench.graph(&sg);
        let (rec, _) = bench.variant(
            "recursive",
            |p, trace| {
                let opts = CoarsenOptions::default();
                kway_partition_cfg(p, g, K, &opts, &fm, &recursive_cfg, ctx.seed, trace)
            },
            |r| quality(r.cut, r.imbalance),
        );
        bench.variant(
            "direct_refine",
            |p, trace| {
                let mut part = rec.part.clone();
                kway_direct_refine(p, g, &mut part, K, &refine_cfg, trace);
                part
            },
            |part| quality(edge_cut(g, part), kway_imbalance(g, part, K)),
        );
    }
    bench.finish()
}
