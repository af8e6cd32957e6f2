//! Shared helpers for the mapping algorithms: heavy-neighbor computation
//! and label relabeling (`FindUniqAndRelabel` in Algorithm 5).

use super::workspace::MapWorkspace;
use super::{Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::scan::exclusive_scan;
use mlcg_par::{parallel_for, parallel_for_mut, profile, ExecPolicy};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Compute the heavy-neighbor array `H[u]`: the first maximum-weight
/// neighbor in adjacency order (adjacency is sorted by id, so ties resolve
/// to the smallest id — which guarantees the directed graph `u → H[u]` has
/// no cycles longer than two), written into a caller-owned buffer. A
/// vertex with no neighbor gets `H[u] = u`: it aggregates alone.
pub fn heavy_neighbors(policy: &ExecPolicy, g: &Csr, h: &mut Vec<u32>) {
    let _k = profile::kernel("heavy_nbrs");
    MapWorkspace::filled(h, g.n(), UNMAPPED);
    parallel_for_mut(policy, h, |u, hu| {
        let mut best_w = 0u64;
        let mut best = u as VId;
        for (v, w) in g.edges(u as VId) {
            if w > best_w {
                best_w = w;
                best = v;
            }
        }
        *hu = best;
    });
}

/// Heavy neighbor restricted by a per-vertex predicate on the *candidate*
/// (used by HEM's unmatched-only selection and GOSH-HEC's high-degree skip).
pub fn heavy_neighbor_where<F>(g: &Csr, u: VId, allow: F) -> Option<VId>
where
    F: Fn(VId) -> bool,
{
    let mut best_w = 0u64;
    let mut best = None;
    for (v, w) in g.edges(u) {
        if w > best_w && allow(v) {
            best_w = w;
            best = Some(v);
        }
    }
    best
}

/// Relabel arbitrary labels in `0..n` to contiguous coarse ids `0..n_c`
/// (parallel flag + prefix sum). Consumes the raw label array. The flag
/// buffer is the workspace's `u32` array: labels are `u32` values other
/// than [`UNMAPPED`], so at most 2³²−1 distinct ones exist and every
/// prefix count fits.
pub fn relabel(policy: &ExecPolicy, labels: Vec<u32>, ws: &mut MapWorkspace) -> Mapping {
    let _k = profile::kernel("relabel");
    let n = labels.len();
    let flag = premark_flags(&mut ws.flag, n);
    parallel_for(policy, n, |u| {
        let l = labels[u];
        assert!(l != UNMAPPED, "relabel: vertex {u} unmapped");
        assert!((l as usize) < n, "relabel: raw label out of range");
        flag[l as usize].store(1, Relaxed);
    });
    compact(policy, labels, &mut ws.flag)
}

/// Zero the relabel flag for a fused mark and view it as atomics: methods
/// whose final pass already sweeps the label array mark `flag[root]`
/// during that sweep and finish with [`relabel_premarked`], eliminating
/// relabel's own mark traversal. Vertices sharing a root mark it at once,
/// so the marks are relaxed atomic stores of 1 (a plain store on x86-64
/// and AArch64); they publish nothing else, and the dispatch's join
/// orders them before the scan reads the flags.
pub(crate) fn premark_flags(flag: &mut Vec<u32>, n: usize) -> &[AtomicU32] {
    flag.clear();
    flag.resize(n + 1, 0);
    as_atomic_u32(flag)
}

/// [`relabel`] when `ws.flag` was already marked through
/// [`premark_flags`] — skips the mark pass.
pub(crate) fn relabel_premarked(
    policy: &ExecPolicy,
    labels: Vec<u32>,
    ws: &mut MapWorkspace,
) -> Mapping {
    let _k = profile::kernel("relabel");
    debug_assert!(labels
        .iter()
        .all(|&l| l != UNMAPPED && (l as usize) < labels.len()));
    debug_assert_eq!(
        ws.flag.len(),
        labels.len() + 1,
        "premarked flag not prepared"
    );
    compact(policy, labels, &mut ws.flag)
}

/// The scan → rewrite core: the exclusive scan of the marked flags gives
/// each used label its coarse id, and every label is rewritten to it.
fn compact(policy: &ExecPolicy, mut labels: Vec<u32>, flag: &mut [u32]) -> Mapping {
    let n_coarse = exclusive_scan(policy, flag) as usize;
    let flag: &[u32] = flag;
    parallel_for_mut(policy, &mut labels, |_, l| *l = flag[*l as usize]);
    Mapping {
        map: labels,
        n_coarse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators::{complete, path};

    #[test]
    fn heavy_neighbor_prefers_weight_then_small_id() {
        // 1 -(5)- 0 -(5)- 2, 0 -(9)- 3.
        let g = from_edges_weighted(4, &[(0, 1, 5), (0, 2, 5), (0, 3, 9)]);
        let mut h = Vec::new();
        heavy_neighbors(&ExecPolicy::serial(), &g, &mut h);
        assert_eq!(h[0], 3); // heaviest wins
        assert_eq!(h[1], 0);
        // Tie between 1 and 2 at vertex 0 would resolve to 1 (smaller id):
        let g2 = from_edges_weighted(3, &[(0, 1, 5), (0, 2, 5)]);
        heavy_neighbors(&ExecPolicy::serial(), &g2, &mut h);
        assert_eq!(h[0], 1);
    }

    #[test]
    fn heavy_neighbor_digraph_has_no_long_cycles() {
        // On an unweighted clique H[u] is the smallest other id, so the only
        // cycle is 0 <-> 1.
        let g = complete(6);
        let mut h = Vec::new();
        heavy_neighbors(&ExecPolicy::serial(), &g, &mut h);
        assert_eq!(h[0], 1);
        for &hu in &h[1..6] {
            assert_eq!(hu, 0);
        }
    }

    #[test]
    fn relabel_compacts_labels() {
        // Raw labels use vertex ids {0, 3, 4}.
        let m = relabel(
            &ExecPolicy::serial(),
            vec![3, 0, 3, 4, 0],
            &mut MapWorkspace::new(),
        );
        assert_eq!(m.n_coarse, 3);
        m.validate().unwrap();
        assert_eq!(m.map[1], m.map[4]);
        assert_eq!(m.map[0], m.map[2]);
        assert_ne!(m.map[0], m.map[3]);
    }

    #[test]
    fn relabel_parallel_matches_serial() {
        let raw: Vec<u32> = (0..10_000u32).map(|i| (i * 7919) % 500).collect();
        let a = relabel(&ExecPolicy::serial(), raw.clone(), &mut MapWorkspace::new());
        for policy in ExecPolicy::all_test_policies() {
            let b = relabel(&policy, raw.clone(), &mut MapWorkspace::new());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn relabel_reused_workspace_matches_fresh() {
        let mut ws = MapWorkspace::new();
        // First use at a large size, then a smaller one: stale flag
        // capacity must not leak into the second result.
        let big: Vec<u32> = (0..50_000u32).map(|i| (i * 31) % 9000).collect();
        let small: Vec<u32> = (0..777u32).map(|i| (i * 13) % 111).collect();
        for raw in [big, small] {
            let fresh = relabel(&ExecPolicy::host(), raw.clone(), &mut MapWorkspace::new());
            let reused = relabel(&ExecPolicy::host(), raw, &mut ws);
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn relabel_premarked_matches_plain() {
        let raw: Vec<u32> = (0..5_000u32)
            .map(|i| (i.wrapping_mul(2654435761)) % 4000)
            .collect();
        for policy in ExecPolicy::all_test_policies() {
            let plain = relabel(&policy, raw.clone(), &mut MapWorkspace::new());
            let mut ws = MapWorkspace::new();
            let flag = premark_flags(&mut ws.flag, raw.len());
            for &l in &raw {
                flag[l as usize].store(1, Relaxed);
            }
            let fused = relabel_premarked(&policy, raw.clone(), &mut ws);
            assert_eq!(plain, fused, "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn relabel_rejects_unmapped() {
        relabel(
            &ExecPolicy::serial(),
            vec![0, UNMAPPED],
            &mut MapWorkspace::new(),
        );
    }

    #[test]
    fn heavy_neighbor_where_respects_filter() {
        let g = path(3); // 0-1-2 unit weights
        let h = heavy_neighbor_where(&g, 1, |v| v != 0);
        assert_eq!(h, Some(2));
        let none = heavy_neighbor_where(&g, 1, |_| false);
        assert_eq!(none, None);
    }
}
