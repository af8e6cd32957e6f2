//! The traced replay: each op rebuilt from the public per-layer calls the
//! untraced op makes, with a benchmark span around each call.
//!
//! - `io`: `io::ingest_auto`
//! - `cc`: `cc::largest_component`, `cc::induced_subgraph`,
//!   `cc::is_connected`, `cc::components`
//! - `multilevel`: the Algorithm-1 loop of `coarsen()`, rebuilt here, with
//!   `mapping` (`find_mapping_in`) and `construct`
//!   (`construct_coarse_graph_in`) spans for every level
//! - `fm`: `fm_uncoarsen_frac_traced` on the hierarchy that loop built
//! - `kway`: the recursive bisection of `kway_partition` (private in the
//!   program, so rebuilt here from the same public calls it makes)
//! - `kwayref`: `kway_direct_refine`
//!
//! Under `ExecPolicy::serial` the replay's output equals the untraced op's
//! bit for bit (pinned by `tests/selftest.rs`).

use crate::spans::Tracer;
use crate::workload::{coarsen_options, ingest_options, Input, Output, Workload, K};
use mlcg_coarsen::{
    construct_coarse_graph_in, find_mapping_in, CoarsenOptions, CoarsenStats, ConstructWorkspace,
    Hierarchy, Level, MapStats, MapWorkspace,
};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{cc, io, Csr};
use mlcg_par::{ExecPolicy, TraceCollector, TraceReport};
use mlcg_partition::fm::fm_uncoarsen_frac_traced;
use mlcg_partition::{
    kway_direct_refine, kway_imbalance, FmConfig, KwayRefineConfig, KwayResult, PartitionResult,
};
use std::time::Instant;

/// Counts taken from what the layer calls return.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Bytes of input file ingested.
    pub ingest_bytes: u64,
    /// `MapStats::passes`, summed over every mapping call.
    pub map_passes: usize,
    /// Vertices resolved in the first pass, summed over mapping calls.
    pub pass1_resolved: usize,
    /// Vertices of the graphs the mapping calls ran on.
    pub mapped_vertices: usize,
    /// Directed adjacency entries of the fine graphs construction read.
    pub construct_entries: usize,
    /// Levels kept and coarsest size of the op's first hierarchy.
    pub first_hierarchy: Option<(usize, usize)>,
    /// FM bisections the recursion ran.
    pub bisections: usize,
    /// Recursion steps that found a side disconnected and gave each of its
    /// components a whole label instead of bisecting it.
    pub component_splits: usize,
    /// k-way cut before and after the direct refinement post-pass.
    pub refine_cuts: Option<(u64, u64)>,
}

impl Counts {
    fn record_mapping(&mut self, n: usize, stats: &MapStats) {
        self.map_passes += stats.passes;
        self.pass1_resolved += stats.resolved_per_pass.first().copied().unwrap_or(0);
        self.mapped_vertices += n;
    }
}

/// A replayed op: its output, spans and counts.
pub struct Replay {
    /// The op's output, to be checked like an untraced op's.
    pub output: Output,
    /// The op's spans; the root span is named `op`.
    pub tracer: Tracer,
    /// Layer counts.
    pub counts: Counts,
}

/// Replay one op of workload `w` with spans.
pub fn replay_op(
    w: Workload,
    input: &Input,
    policy: &ExecPolicy,
    seed: u64,
) -> std::io::Result<Replay> {
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let opts = coarsen_options(w.method(), seed);
    let mut unrefined = Vec::new();
    let output = tracer.span("op", |tr| -> std::io::Result<Output> {
        match input {
            Input::File { path, bytes, .. } => {
                counts.ingest_bytes = *bytes;
                let (raw, _) = tr.span("io", |_| io::ingest_auto(path, &ingest_options(policy)))?;
                let graph = tr.span("cc", move |_| cc::largest_component(&raw).0);
                let result =
                    kway_traced(tr, &mut counts, policy, &graph, &opts, seed, &mut unrefined);
                Ok(Output::Kway { graph, result })
            }
            Input::Graph(g) => {
                let h = tr.span("multilevel", |tr| {
                    coarsen_traced(tr, &mut counts, policy, g, &opts)
                });
                counts.first_hierarchy = Some((h.num_levels(), h.coarsest().n()));
                Ok(Output::Hierarchy(h))
            }
        }
    })?;
    if let Output::Kway { graph, result } = &output {
        // The pre-refinement cut is recounted after the op, off its clock.
        counts.refine_cuts = Some((edge_cut(graph, &unrefined), result.cut));
    }
    Ok(Replay {
        output,
        tracer,
        counts,
    })
}

/// `coarsen()` rebuilt from its public per-level calls: the same loop,
/// seeds, workspaces, stall guard and discard rule.
pub fn coarsen_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    policy: &ExecPolicy,
    g: &Csr,
    opts: &CoarsenOptions,
) -> Hierarchy {
    let mut levels: Vec<Level> = Vec::new();
    let mut stats = CoarsenStats::default();
    let mut current = g.clone();
    let mut cws = ConstructWorkspace::new();
    let mut mws = MapWorkspace::new();
    let mut i = 0u64;
    while current.n() > opts.cutoff && levels.len() < opts.max_levels {
        let (mapping, map_stats) = tr.span("mapping", |_| {
            find_mapping_in(
                policy,
                &current,
                opts.method,
                opts.seed.wrapping_add(i),
                &mut mws,
            )
        });
        let t_map = tr.last_duration();
        counts.record_mapping(current.n(), &map_stats);
        let coarse = tr.span("construct", |_| {
            construct_coarse_graph_in(policy, &current, &mapping, &opts.construction, &mut cws)
        });
        let t_con = tr.last_duration();
        counts.construct_entries += current.adj().len();
        if mapping.n_coarse >= current.n() {
            break;
        }
        if coarse.n() < opts.min_accept && current.n() > opts.cutoff {
            break;
        }
        stats.map_seconds.push(t_map);
        stats.construct_seconds.push(t_con);
        current = coarse.clone();
        levels.push(Level {
            mapping,
            graph: coarse,
            map_stats,
        });
        i += 1;
    }
    Hierarchy {
        fine: g.clone(),
        levels,
        stats,
        trace: TraceReport::default(),
    }
}

/// `kway_partition(policy, g, K, opts, FmConfig::default(), seed)` with
/// spans: recursion under `kway`, then `kway_direct_refine` under
/// `kwayref`. Leaves the pre-refinement labels in `unrefined`.
fn kway_traced(
    tr: &mut Tracer,
    counts: &mut Counts,
    policy: &ExecPolicy,
    g: &Csr,
    opts: &CoarsenOptions,
    seed: u64,
    unrefined: &mut Vec<u32>,
) -> KwayResult {
    let fm = FmConfig::default();
    let refine = KwayRefineConfig {
        epsilon: fm.epsilon,
        vertex_slack: fm.vertex_slack,
        ..KwayRefineConfig::default()
    };
    let start = Instant::now();
    let mut part = tr.span("kway", |tr| {
        let mut part = vec![0u32; g.n()];
        let ids: Vec<u32> = (0..g.n() as u32).collect();
        let mut rec = Recursion {
            tr,
            counts: &mut *counts,
            policy,
            opts,
            fm: &fm,
            out: &mut part,
        };
        rec.recurse(g, K, 0, seed, &ids);
        part
    });
    unrefined.clone_from(&part);
    let (cut, refine_seconds) = if g.n() > 0 {
        let cut = tr.span("kwayref", |_| {
            kway_direct_refine(
                policy,
                g,
                &mut part,
                K,
                &refine,
                &TraceCollector::disabled(),
            )
        });
        (cut, tr.last_duration())
    } else {
        (edge_cut(g, &part), 0.0)
    };
    let imbalance = tr.span("kway", |_| kway_imbalance(g, &part, K));
    KwayResult {
        part,
        cut,
        imbalance,
        seconds: start.elapsed().as_secs_f64(),
        refine_seconds,
    }
}

/// The private recursion of `kway_partition`, rebuilt from the public calls
/// it makes.
struct Recursion<'a> {
    tr: &'a mut Tracer,
    counts: &'a mut Counts,
    policy: &'a ExecPolicy,
    opts: &'a CoarsenOptions,
    fm: &'a FmConfig,
    out: &'a mut [u32],
}

impl Recursion<'_> {
    /// `fm_bisect_frac`: coarsen, then uncoarsen with FM, then measure the
    /// result as `PartitionResult::new` does.
    fn bisect(&mut self, g: &Csr, frac: f64, seed: u64) -> Vec<u32> {
        self.counts.bisections += 1;
        let (policy, opts, fm) = (self.policy, self.opts, self.fm);
        let counts = &mut *self.counts;
        let h = self.tr.span("multilevel", |tr| {
            coarsen_traced(tr, counts, policy, g, opts)
        });
        if counts.first_hierarchy.is_none() {
            counts.first_hierarchy = Some((h.num_levels(), h.coarsest().n()));
        }
        self.tr.span("fm", move |_| {
            let part =
                fm_uncoarsen_frac_traced(policy, &h, fm, frac, seed, &TraceCollector::disabled());
            PartitionResult::new(g, part, 0.0, 0.0, h.num_levels()).part
        })
    }

    fn recurse(&mut self, g: &Csr, k: usize, base_label: u32, seed: u64, ids: &[u32]) {
        if k <= 1 || g.n() <= 1 {
            for &u in ids {
                self.out[u as usize] = base_label;
            }
            return;
        }
        let k0 = k.div_ceil(2);
        let k1 = k / 2;
        let part = self.bisect(g, k0 as f64 / k as f64, seed);
        let n0 = part.iter().filter(|&&s| s == 0).count();
        if n0 == 0 || n0 == g.n() {
            direct_kway_split(g, k, base_label, self.out, ids);
            return;
        }
        for side in 0..2u32 {
            let sub_k = if side == 0 { k0 } else { k1 };
            let label = if side == 0 {
                base_label
            } else {
                base_label + k0 as u32
            };
            let side_ids: Vec<u32> = (0..g.n() as u32)
                .filter(|&u| part[u as usize] == side)
                .collect();
            if sub_k <= 1 {
                for &u in &side_ids {
                    self.out[ids[u as usize] as usize] = label;
                }
                continue;
            }
            let (sub, _) = self.tr.span("cc", |_| cc::induced_subgraph(g, &side_ids));
            let sub_ids: Vec<u32> = side_ids.iter().map(|&u| ids[u as usize]).collect();
            if side_ids.len() < sub_k {
                direct_kway_split(&sub, sub_k, label, self.out, &sub_ids);
                continue;
            }
            if self.tr.span("cc", |_| cc::is_connected(&sub)) {
                let sub_seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(side as u64 + 1);
                self.recurse(&sub, sub_k, label, sub_seed, &sub_ids);
            } else {
                let (comp, ncomp) = self.tr.span("cc", |_| cc::components(&sub));
                self.counts.component_splits += usize::from(ncomp >= sub_k);
                if ncomp < sub_k {
                    direct_kway_split(&sub, sub_k, label, self.out, &sub_ids);
                    continue;
                }
                let mut loads = vec![0u64; sub_k];
                let mut comp_part = vec![0u32; ncomp];
                let mut comp_weight = vec![0u64; ncomp];
                for (i, &c) in comp.iter().enumerate() {
                    comp_weight[c as usize] += sub.vwgt()[i];
                }
                let mut order: Vec<usize> = (0..ncomp).collect();
                order.sort_by_key(|&c| std::cmp::Reverse(comp_weight[c]));
                for c in order {
                    let target = (0..sub_k).min_by_key(|&p| loads[p]).expect("sub_k >= 1");
                    comp_part[c] = target as u32;
                    loads[target] += comp_weight[c];
                }
                for (i, &c) in comp.iter().enumerate() {
                    self.out[sub_ids[i] as usize] = label + comp_part[c as usize];
                }
            }
        }
    }
}

/// The recursion's label-coverage fallback: vertices, heaviest first, go
/// to the least-loaded label (ties to the lowest).
fn direct_kway_split(g: &Csr, k: usize, base_label: u32, out: &mut [u32], ids: &[u32]) {
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse((g.vwgt()[u], u)));
    let mut loads = vec![0u64; k];
    for u in order {
        let target = (0..k)
            .min_by_key(|&p| (loads[p], p))
            .expect("k >= 1 in direct split");
        out[ids[u] as usize] = base_label + target as u32;
        loads[target] += g.vwgt()[u];
    }
}
