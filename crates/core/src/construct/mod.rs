//! Coarse-graph construction (`ConstructCoarseGraph` in Algorithm 1).
//!
//! Given the fine graph and a mapping, build the weighted coarse graph:
//! coarse edge `{A, B}` carries the sum of fine edge weights between
//! aggregates `A` and `B`; intra-aggregate edges disappear (no self-loops);
//! coarse vertex weights are sums of member vertex weights.
//!
//! Three strategies, as in the paper:
//! - [`ConstructMethod::Sort`] / [`ConstructMethod::Hash`]: the
//!   vertex-centric Algorithm 6 with sort-based or hash-based per-vertex
//!   deduplication, optionally using the degree-based deduplication
//!   optimization for skewed graphs ([`vertex`]);
//! - [`ConstructMethod::Spgemm`]: `P·A·Pᵀ` via two SpGEMM calls
//!   ([`spgemm`]);
//! - [`ConstructMethod::GlobalSort`]: the global sort-and-reduce baseline
//!   ([`global_sort`]).
//!
//! All strategies produce identical graphs (asserted by the test suite),
//! with or without a shared [`ConstructWorkspace`] — the `_in` entry
//! points reuse one workspace across hierarchy levels so constructions
//! after the first stop re-allocating their full scratch envelope.

pub mod global_sort;
pub mod spgemm;
pub mod vertex;

use crate::mapping::Mapping;
use mlcg_graph::{Csr, VWeight};
use mlcg_par::{
    parallel_fold_chunks, parallel_for, parallel_for_mut, profile, ExecPolicy, TraceCollector,
};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Which construction strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstructMethod {
    /// Vertex-centric with per-vertex sort-based dedup (the paper's GPU
    /// default; bitonic sorts under the device-sim policy).
    Sort,
    /// Vertex-centric with per-vertex hash-table dedup (the paper's CPU
    /// winner).
    Hash,
    /// `P·A·Pᵀ` through the SpGEMM substrate.
    Spgemm,
    /// Global sort of all edge triples (baseline).
    GlobalSort,
    /// Vertex-centric with a per-vertex *hybrid* dedup: hash for long,
    /// duplication-heavy segments, sort otherwise — one of the paper's
    /// stated future-work optimizations, implemented here.
    Hybrid,
}

impl ConstructMethod {
    /// All methods, in the order the paper's tables report them.
    pub const ALL: [ConstructMethod; 5] = [
        ConstructMethod::Sort,
        ConstructMethod::Hash,
        ConstructMethod::Spgemm,
        ConstructMethod::GlobalSort,
        ConstructMethod::Hybrid,
    ];

    /// Stable lowercase name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            ConstructMethod::Sort => "sort",
            ConstructMethod::Hash => "hash",
            ConstructMethod::Spgemm => "spgemm",
            ConstructMethod::GlobalSort => "global-sort",
            ConstructMethod::Hybrid => "hybrid",
        }
    }

    /// Parse a harness name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sort" => ConstructMethod::Sort,
            "hash" => ConstructMethod::Hash,
            "spgemm" => ConstructMethod::Spgemm,
            "global-sort" => ConstructMethod::GlobalSort,
            "hybrid" => ConstructMethod::Hybrid,
            _ => return None,
        })
    }
}

/// Construction tuning knobs.
#[derive(Clone, Debug)]
pub struct ConstructOptions {
    /// Strategy to use.
    pub method: ConstructMethod,
    /// Enable the degree-based deduplication optimization when the fine
    /// graph's `Δ / avg-degree` exceeds this (the paper invokes it
    /// selectively for skewed graphs). `f64::INFINITY` disables it.
    pub degree_dedup_skew_threshold: f64,
}

impl Default for ConstructOptions {
    fn default() -> Self {
        ConstructOptions {
            method: ConstructMethod::Sort,
            degree_dedup_skew_threshold: 10.0,
        }
    }
}

impl ConstructOptions {
    /// Options for a specific method with default thresholds.
    pub fn with_method(method: ConstructMethod) -> Self {
        ConstructOptions {
            method,
            ..Default::default()
        }
    }
}

/// Level-reused scratch for coarse-graph construction.
///
/// One instance is threaded through the multilevel driver so every
/// hierarchy level after the first reuses the previous level's arrays
/// instead of re-allocating the full construction envelope (the heap
/// telemetry of `mem/construct/peak_bytes` showed construction paying its
/// peak again on every level). Lifetime rules:
///
/// - buffers are `clear()`+`resize()`d at every use, so a workspace can be
///   shared across graphs of *any* size and across strategies — contents
///   never survive a call, only capacity does;
/// - capacity only grows; the driver drops the workspace with the
///   hierarchy, so the high-water envelope is one level's, not one per
///   level;
/// - a workspace is `!Sync` by design (exclusive `&mut` access) — one per
///   concurrent coarsening.
#[derive(Default)]
pub struct ConstructWorkspace {
    /// Vertex-centric row build: member grouping, per-task row runs,
    /// pooled accumulators, counting-sort histograms.
    pub(crate) rows: vertex::Scratch,
    /// Pooled per-participant vertex-weight accumulators.
    pub(crate) vwgt_pool: Vec<Vec<VWeight>>,
    /// Global-sort strategy scratch (packed triples, head flags).
    pub(crate) gsort: global_sort::Scratch,
}

impl ConstructWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Build the coarse graph. The mapping must be validated (contiguous
/// labels) and the fine graph must satisfy the [`Csr`] invariants.
///
/// ```
/// use mlcg_coarsen::{construct_coarse_graph, ConstructOptions, Mapping};
/// use mlcg_par::ExecPolicy;
///
/// // Path 0-1-2-3 with aggregates {0,1} and {2,3}.
/// let g = mlcg_graph::builder::from_edges_weighted(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 7)]);
/// let mapping = Mapping { map: vec![0, 0, 1, 1], n_coarse: 2 };
/// let c = construct_coarse_graph(&ExecPolicy::serial(), &g, &mapping, &ConstructOptions::default());
/// assert_eq!(c.find_edge(0, 1), Some(3)); // the 1-2 fine edge survives
/// assert_eq!(c.vwgt(), &[2, 2]);          // aggregate sizes
/// ```
pub fn construct_coarse_graph(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    opts: &ConstructOptions,
) -> Csr {
    construct_coarse_graph_traced_in(
        policy,
        g,
        mapping,
        opts,
        &TraceCollector::disabled(),
        &mut ConstructWorkspace::new(),
    )
}

/// [`construct_coarse_graph`] reusing a caller-held [`ConstructWorkspace`].
pub fn construct_coarse_graph_in(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    opts: &ConstructOptions,
    ws: &mut ConstructWorkspace,
) -> Csr {
    construct_coarse_graph_traced_in(policy, g, mapping, opts, &TraceCollector::disabled(), ws)
}

/// The full-featured entry point behind [`crate::coarsen`]: a trace
/// sink (the vertex-centric paths report hash-probe collisions and
/// per-strategy edges scanned as pipeline counters) plus a level-reused
/// workspace.
pub(crate) fn construct_coarse_graph_traced_in(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    opts: &ConstructOptions,
    trace: &TraceCollector,
    ws: &mut ConstructWorkspace,
) -> Csr {
    debug_assert!(mapping.validate().is_ok());
    let _mem = trace.heap_scope(|| "construct".to_string());
    let mut coarse = match opts.method {
        ConstructMethod::Sort => {
            vertex::construct(policy, g, mapping, vertex::Dedup::Sort, opts, trace, ws)
        }
        ConstructMethod::Hash => {
            vertex::construct(policy, g, mapping, vertex::Dedup::Hash, opts, trace, ws)
        }
        ConstructMethod::Spgemm => spgemm::construct(policy, g, mapping, trace),
        ConstructMethod::GlobalSort => {
            global_sort::construct(policy, g, mapping, trace, &mut ws.gsort)
        }
        ConstructMethod::Hybrid => {
            vertex::construct(policy, g, mapping, vertex::Dedup::Hybrid, opts, trace, ws)
        }
    };
    coarse.set_vwgt(aggregate_vertex_weights_in(policy, g, mapping, ws));
    coarse
}

/// Coarse vertex weights (sums of member fine vertex weights) with pooled
/// accumulators: per-participant dense accumulation merged by a parallel
/// reduction over the coarse-id domain, so hub aggregates never serialize
/// workers on one atomic slot. Falls back to
/// [`aggregate_vertex_weights_atomic`] when the combined accumulator
/// footprint would outgrow the pass (same budget rule as the construction
/// counting passes).
pub fn aggregate_vertex_weights_in(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    ws: &mut ConstructWorkspace,
) -> Vec<VWeight> {
    let _k = profile::kernel("agg_vwgt");
    let n = g.n();
    let nc = mapping.n_coarse;
    let map = &mapping.map;
    let threads = policy.effective_threads(n);
    if threads <= 1 || mlcg_par::pool::in_worker() {
        let mut vwgt = vec![0u64; nc];
        for u in 0..n {
            vwgt[map[u] as usize] += g.vwgt()[u];
        }
        return vwgt;
    }
    if !vertex::use_histograms(threads, nc, n) {
        return aggregate_vertex_weights_atomic(policy, g, mapping);
    }
    let mut vwgt = vec![0u64; nc];
    let pool_m = Mutex::new(std::mem::take(&mut ws.vwgt_pool));
    let parts = parallel_fold_chunks(
        policy,
        n,
        || {
            let mut h = pool_m.lock().unwrap().pop().unwrap_or_default();
            h.clear();
            h.resize(nc, 0);
            h
        },
        |h, range| {
            for u in range {
                h[map[u] as usize] += g.vwgt()[u];
            }
        },
    );
    parallel_for_mut(policy, &mut vwgt, |c, w| {
        *w = parts.iter().map(|p| p[c]).sum()
    });
    let mut back = pool_m.into_inner().unwrap();
    back.extend(parts);
    ws.vwgt_pool = back;
    vwgt
}

/// The pre-sharding formulation: one atomic `fetch_add` per fine vertex
/// into the destination aggregate's slot. Retained as the fallback for
/// huge `n_coarse × workers` products and as the contention baseline in
/// the `bench_primitives` microbenchmarks.
pub fn aggregate_vertex_weights_atomic(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
) -> Vec<VWeight> {
    let _k = profile::kernel("agg_vwgt");
    let mut vwgt = vec![0u64; mapping.n_coarse];
    {
        let view = mlcg_par::atomic::as_atomic_u64(&mut vwgt);
        let map = &mapping.map;
        parallel_for(policy, g.n(), |u| {
            view[map[u] as usize].fetch_add(g.vwgt()[u], Ordering::Relaxed);
        });
    }
    vwgt
}

/// Total weight of intra-aggregate fine edges (dropped during coarsening);
/// used by the conservation tests: coarse total + intra = fine total.
pub fn intra_aggregate_weight(policy: &ExecPolicy, g: &Csr, mapping: &Mapping) -> u64 {
    mlcg_par::parallel_reduce_sum(policy, g.n(), |u| {
        let mut acc = 0;
        for (v, w) in g.edges(u as u32) {
            if mapping.map[u] == mapping.map[v as usize] {
                acc += w;
            }
        }
        acc
    }) / 2
}

/// Cross-strategy checking helpers, shared by the unit tests and the
/// `construct_props` property suite (hence compiled unconditionally).
#[doc(hidden)]
pub mod testkit {
    use super::*;
    use crate::mapping::{find_mapping, MapMethod};
    use mlcg_graph::{VId, Weight};
    use std::collections::BTreeMap;

    /// Naive reference construction — one `BTreeMap` accumulator per
    /// coarse row, sharing no code with the strategies it checks.
    pub fn reference(g: &Csr, mapping: &Mapping) -> Csr {
        let map = &mapping.map;
        let mut rows: Vec<BTreeMap<VId, Weight>> = vec![BTreeMap::new(); mapping.n_coarse];
        let mut vwgt = vec![0; mapping.n_coarse];
        for u in 0..g.n() {
            let cu = map[u] as usize;
            vwgt[cu] += g.vwgt()[u];
            for (v, w) in g.edges(u as VId) {
                let cv = map[v as usize];
                if cv as usize != cu {
                    *rows[cu].entry(cv).or_insert(0) += w;
                }
            }
        }
        let (mut xadj, mut adj, mut wgt) = (vec![0], Vec::new(), Vec::new());
        for row in rows {
            for (v, w) in row {
                adj.push(v);
                wgt.push(w);
            }
            xadj.push(adj.len());
        }
        Csr::from_parts_weighted(xadj, adj, wgt, vwgt)
    }

    /// Construct with every method × skew threshold {0, 10, ∞} × policy,
    /// both with a fresh workspace and through one shared (level-reused)
    /// workspace, and assert every result equals [`reference`]
    /// bit for bit. Returns the reference graph.
    pub fn cross_check_policies(g: &Csr, mapping: &Mapping, policies: &[ExecPolicy]) -> Csr {
        let want = reference(g, mapping);
        want.validate()
            .unwrap_or_else(|e| panic!("reference coarse graph invalid: {e}"));
        assert_eq!(
            want.total_edge_weight() + intra_aggregate_weight(&ExecPolicy::serial(), g, mapping),
            g.total_edge_weight(),
            "reference does not conserve edge weight"
        );
        let mut ws = ConstructWorkspace::new();
        for method in ConstructMethod::ALL {
            for threshold in [0.0, 10.0, f64::INFINITY] {
                let opts = ConstructOptions {
                    method,
                    degree_dedup_skew_threshold: threshold,
                };
                for policy in policies {
                    let name = format!("{method:?}/thr={threshold}/{policy}");
                    let fresh = construct_coarse_graph(policy, g, mapping, &opts);
                    assert!(
                        fresh == want,
                        "{name}: fresh workspace differs from the reference"
                    );
                    let reused = construct_coarse_graph_in(policy, g, mapping, &opts, &mut ws);
                    assert!(
                        reused == want,
                        "{name}: reused workspace differs from the reference"
                    );
                }
            }
        }
        want
    }

    /// [`cross_check_policies`] under the serial policy only.
    pub fn cross_check(g: &Csr, mapping: &Mapping) {
        cross_check_policies(g, mapping, &[ExecPolicy::serial()]);
    }

    /// A graph + mapping pair from a real mapping algorithm.
    pub fn mapped(g: &Csr, seed: u64) -> Mapping {
        find_mapping(&ExecPolicy::serial(), g, MapMethod::SeqHec, seed).0
    }
}
