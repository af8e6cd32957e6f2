//! Output checks, run on every op outside its timed region.
//!
//! A check returns the op's partition quality (none for a hierarchy) when
//! the output is valid and a description of the first problem otherwise.
//! The run loop counts a failed check, like a panic or an I/O error, as a
//! failed op.

use crate::workload::{Output, K};
use mlcg_coarsen::{construct_coarse_graph, find_mapping, CoarsenOptions, Hierarchy};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::Csr;
use mlcg_par::ExecPolicy;
use mlcg_partition::{kway_empty_parts, KwayResult};

/// Quality of one partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Cut edge weight over total edge weight.
    pub cut_ratio: f64,
    /// Heaviest part over the mean part weight.
    pub imbalance: f64,
}

/// Check one op's output; see [`check_kway`] and [`check_hierarchy`].
/// Only a partition has a quality.
pub fn check_output(
    policy: &ExecPolicy,
    input: Option<&Csr>,
    opts: &CoarsenOptions,
    out: &Output,
) -> Result<Option<Quality>, String> {
    match (out, input) {
        (Output::Kway { graph, result }, _) => check_kway(graph, result, K).map(Some),
        (Output::Hierarchy(h), Some(g)) => check_hierarchy(policy, g, h, opts).map(|()| None),
        (Output::Hierarchy(_), None) => Err("hierarchy output without an in-memory input".into()),
    }
}

/// A k-way partition is valid when it labels every vertex with a part in
/// `0..k`, leaves no part empty, reports the cut an `edge_cut` recount
/// gives, and reports the imbalance its labels give.
pub fn check_kway(g: &Csr, r: &KwayResult, k: usize) -> Result<Quality, String> {
    if r.part.len() != g.n() {
        return Err(format!("{} labels for {} vertices", r.part.len(), g.n()));
    }
    if let Some(u) = r.part.iter().position(|&p| p as usize >= k) {
        return Err(format!("vertex {u} has label {} outside 0..{k}", r.part[u]));
    }
    let empty = kway_empty_parts(&r.part, k);
    if empty != 0 {
        return Err(format!("{empty} of {k} parts are empty"));
    }
    let recount = edge_cut(g, &r.part);
    if recount != r.cut {
        return Err(format!(
            "reported cut {} but edge_cut gives {recount}",
            r.cut
        ));
    }
    let mut weights = vec![0u64; k];
    for (u, &p) in r.part.iter().enumerate() {
        weights[p as usize] += g.vwgt()[u];
    }
    let imbalance = heaviest_over_mean(&weights);
    if (imbalance - r.imbalance).abs() > 1e-9 * imbalance {
        return Err(format!(
            "reported imbalance {} but the labels give {imbalance}",
            r.imbalance
        ));
    }
    Ok(Quality {
        cut_ratio: crate::stats::ratio(recount as f64, g.total_edge_weight() as f64),
        imbalance,
    })
}

/// A hierarchy is valid when every level's mapping passes
/// `Mapping::validate` and maps the graph above it onto the level's graph,
/// every level's graph passes `Csr::validate`, every level conserves the
/// input's total vertex weight, and coarsening stopped at the cutoff, at
/// the level cap, or because one more level would stall or be discarded.
pub fn check_hierarchy(
    policy: &ExecPolicy,
    input: &Csr,
    h: &Hierarchy,
    opts: &CoarsenOptions,
) -> Result<(), String> {
    if h.fine != *input {
        return Err("hierarchy's finest graph differs from the input".into());
    }
    let total = input.total_vwgt();
    for (i, level) in h.levels.iter().enumerate() {
        let above = h.graph_above(i);
        level
            .mapping
            .validate()
            .map_err(|e| format!("level {i} mapping: {e}"))?;
        if level.mapping.map.len() != above.n() || level.mapping.n_coarse != level.graph.n() {
            return Err(format!(
                "level {i} maps {} of {} vertices onto {} of {}",
                level.mapping.map.len(),
                above.n(),
                level.mapping.n_coarse,
                level.graph.n()
            ));
        }
        level
            .graph
            .validate()
            .map_err(|e| format!("level {i} graph: {e}"))?;
        if level.graph.total_vwgt() != total {
            return Err(format!(
                "level {i} holds vertex weight {} of {total}",
                level.graph.total_vwgt()
            ));
        }
    }
    let coarsest = h.coarsest();
    if coarsest.n() > opts.cutoff && h.num_levels() < opts.max_levels {
        // `coarsen()` may stop above the cutoff only when one more level
        // stalls or collapses below `min_accept`; replay that level.
        let seed = opts.seed.wrapping_add(h.num_levels() as u64);
        let (mapping, _) = find_mapping(policy, coarsest, opts.method, seed);
        let stalled = mapping.n_coarse >= coarsest.n();
        if !stalled {
            let next = construct_coarse_graph(policy, coarsest, &mapping, &opts.construction);
            if next.n() >= opts.min_accept {
                return Err(format!(
                    "stopped at n = {} above the cutoff {} although the next level \
                     reaches n = {}",
                    coarsest.n(),
                    opts.cutoff,
                    next.n()
                ));
            }
        }
    }
    Ok(())
}

fn heaviest_over_mean(weights: &[u64]) -> f64 {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = weights.iter().copied().max().unwrap_or(0);
    max as f64 / (total as f64 / weights.len() as f64)
}
