//! `bench-ingest` — streaming ingest and offset-width benchmark.
//!
//! For each suite graph, times two builds of the same edge multiset:
//!
//! * `inmem` — the one-shot in-memory builder, which stages the whole
//!   edge list (16 bytes/edge of auxiliary memory on top of the CSR);
//! * `streamed` — the two-pass chunked path
//!   ([`mlcg_graph::stream::build_csr`]), whose staging is one chunk
//!   buffer regardless of the graph's size.
//!
//! The streamed result is asserted bit-identical to the in-memory one,
//! its peak auxiliary bytes are asserted bounded by the configured chunk
//! (the acceptance criterion of the streaming substrate), its measured
//! peak heap within 10% of the predictable staging+CSR budget, and the
//! final offsets are asserted to engage the narrow `u32` mode on every
//! suite graph. Two SpMV variants then measure what that narrow mode
//! buys: `spmv_u32` runs on the production (adaptive) matrix,
//! `spmv_usize` on a copy with offsets forcibly widened to `usize`.
//! Results go to `target/repro/BENCH_ingest.json`.

use crate::gated::{graphs, Bench, Family, Report, Suite, QUICK};
use crate::harness::Ctx;
use mlcg_graph::builder::{from_edges_with_mode, EDGE_ITEM_BYTES};
use mlcg_graph::stream::{build_csr, IngestOptions, SliceSource};
use mlcg_graph::{Csr, MergeMode, VId, Weight};
use mlcg_sparse::{spmv, CsrMatrix};

/// SpMV iterations folded into one timed sample, so the small quick-suite
/// matrices produce measurable times.
const SPMV_ITERS: usize = 10;

const FULL: &Suite = &[
    (Family::Grid, 512),
    (Family::Rmat, 15),
    (Family::Path, 65536),
];

fn upper_edges(g: &Csr) -> Vec<(VId, VId, Weight)> {
    let mut edges = Vec::with_capacity(g.m());
    for u in 0..g.n() as VId {
        for (v, w) in g.edges(u) {
            if v > u {
                edges.push((u, v, w));
            }
        }
    }
    edges
}

/// Run the ingest benchmark, write `BENCH_ingest.json`, and (with
/// `--baseline FILE`) gate it. Returns the process exit code.
pub fn run(ctx: &Ctx) -> i32 {
    let chunk_edges: usize = if ctx.quick { 1024 } else { 1 << 16 };
    let mut bench = Bench::new(ctx, "bench-ingest", ctx.host())
        .param("chunk_edges", chunk_edges)
        .param("spmv_iters", SPMV_ITERS);
    for sg in graphs(ctx, QUICK, FULL) {
        let g = &sg.g;
        let edges = upper_edges(g);
        let m = edges.len().max(1) as f64;
        bench.graph(&sg);

        let (inmem, _) = bench.variant(
            "inmem",
            |p, _| from_edges_with_mode(p, g.n(), &edges, MergeMode::Sum),
            |_| {
                let aux = (edges.len() * EDGE_ITEM_BYTES) as f64 / m;
                Report::fields(vec![("aux_bytes_per_edge", format!("{aux:.2}"))])
            },
        );
        assert_eq!(&inmem, g, "in-memory rebuild must reproduce the graph");

        let ((streamed, stats), peak) = bench.variant(
            "streamed",
            |p, _| {
                let opts = IngestOptions {
                    chunk_edges,
                    policy: p.clone(),
                };
                build_csr(&mut SliceSource::new(g.n(), &edges), MergeMode::Sum, &opts)
                    .expect("a slice of valid edges always builds")
            },
            |(_, stats)| {
                let aux = stats.peak_staging_bytes as f64 / m;
                Report::fields(vec![
                    ("aux_bytes_per_edge", format!("{aux:.2}")),
                    ("chunks", stats.chunks.to_string()),
                ])
            },
        );
        let name = &sg.name;
        assert_eq!(
            streamed, inmem,
            "{name}: streamed build must be bit-identical to in-memory"
        );
        assert!(
            stats.peak_staging_bytes <= chunk_edges * EDGE_ITEM_BYTES,
            "{name}: staging {} exceeds the chunk bound {}",
            stats.peak_staging_bytes,
            chunk_edges * EDGE_ITEM_BYTES
        );
        assert!(
            stats.offsets_are_u32,
            "{name}: u32 offset mode must engage on every bench graph"
        );
        // The two-pass scatter arrays (wide degree scan + narrow cursors)
        // are sized to land on the chunk staging buffer plus the finished
        // CSR; a peak beyond that means the builder grew a hidden copy.
        let expected = (stats.peak_staging_bytes + streamed.heap_bytes()) as f64;
        let ratio = peak as f64 / expected;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{name}: streamed peak heap {peak} is {ratio:.3}x the staging+CSR budget {}",
            expected as u64
        );

        let a32 = CsrMatrix::from_graph(g);
        assert!(
            a32.row_ptr.is_u32(),
            "{name}: adaptive matrix must inherit narrow offsets"
        );
        let mut awide = a32.clone();
        awide.row_ptr.widen();
        let x: Vec<f64> = (0..a32.n_cols).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut y = vec![0.0; a32.n_rows];
        for (key, a) in [("spmv_u32", &a32), ("spmv_usize", &awide)] {
            bench.variant(
                key,
                |p, _| {
                    for _ in 0..SPMV_ITERS {
                        spmv(p, a, &x, &mut y);
                    }
                    y[0]
                },
                |_| Report::default(),
            );
        }
    }
    bench.finish()
}
