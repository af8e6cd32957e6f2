//! `bench-coarsen` — coarse-graph construction benchmark and gate.
//!
//! The suite is split into a *regular* half (grid, path — uniform degrees,
//! the skew optimization stays off) and a *skewed* half (rmat, star — hub
//! aggregates, the degree-dedup optimization engages and hub rows are
//! split across workers). For each graph and each of the five
//! [`ConstructMethod`]s this times one coarse-graph construction, plus a
//! `hierarchy` variant that runs the full multilevel driver and reports
//! the summed per-level construction seconds — the number the
//! level-reused `ConstructWorkspace` improves. Every method's output is
//! asserted identical to the first method's. Peak heap is measured under
//! the serial policy.
//!
//! Star graphs use a synthetic grouped-leaves mapping (hub alone, leaves
//! in groups of 8) rather than a HEC mapping: HEC collapses a star in one
//! step, while the grouped mapping produces the adversarial shape the
//! split-row merge exists for — one coarse row holding most of the work.
//!
//! Results go to `target/repro/BENCH_coarsen.json`.

use crate::gated::{graphs, Bench, Report, FULL_HALVES, QUICK_HALVES};
use crate::harness::Ctx;
use mlcg_coarsen::{
    coarsen, construct_coarse_graph, find_mapping, CoarsenOptions, ConstructMethod,
    ConstructOptions, MapMethod, Mapping,
};
use mlcg_par::{ExecPolicy, TraceCollector};

/// Leaves in groups of `group`, the hub alone: the coarse graph is again a
/// star, and aggregate 0's row holds half of all member work.
fn star_mapping(n: usize, group: usize) -> Mapping {
    let map: Vec<u32> = (0..n as u32)
        .map(|u| {
            if u == 0 {
                0
            } else {
                1 + (u - 1) / group as u32
            }
        })
        .collect();
    let n_coarse = (*map.iter().max().unwrap() + 1) as usize;
    Mapping { map, n_coarse }
}

/// Run the construction benchmark, write `BENCH_coarsen.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let serial = ExecPolicy::serial();
    let mut bench = Bench::new(ctx, "bench-coarsen", serial.clone());
    for sg in graphs(ctx, QUICK_HALVES, FULL_HALVES) {
        let g = &sg.g;
        let mapping = if sg.name.starts_with("star") {
            star_mapping(g.n(), 8)
        } else {
            find_mapping(&serial, g, MapMethod::SeqHec, ctx.seed).0
        };
        bench.graph(&sg);
        let mut reference = None;
        for method in ConstructMethod::ALL {
            let opts = ConstructOptions::with_method(method);
            let (coarse, _) = bench.variant(
                method.name(),
                |p, _| construct_coarse_graph(p, g, &mapping, &opts),
                |_| Report::default(),
            );
            let first = reference.get_or_insert_with(|| coarse.clone());
            assert_eq!(
                &coarse,
                first,
                "{}: {} disagrees with {}",
                sg.name,
                method.name(),
                ConstructMethod::ALL[0].name()
            );
        }
        let copts = CoarsenOptions {
            seed: ctx.seed,
            trace: TraceCollector::disabled(),
            ..Default::default()
        };
        bench.variant(
            "hierarchy",
            |p, _| coarsen(p, g, &copts),
            |h| Report::own_seconds(h.stats.construct_seconds.iter().sum()),
        );
    }
    bench.finish()
}
