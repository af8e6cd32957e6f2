//! Shared helpers for the mapping algorithms: heavy-neighbor computation
//! and label relabeling (`FindUniqAndRelabel` in Algorithm 5).

use super::workspace::MapWorkspace;
use super::{Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::scan::{exclusive_scan, ScanElem};
use mlcg_par::{parallel_for, profile, ExecPolicy};

/// Compute the heavy-neighbor array `H[u]`: the first maximum-weight
/// neighbor in adjacency order (adjacency is sorted by id, so ties resolve
/// to the smallest id — which guarantees the directed graph `u → H[u]` has
/// no cycles longer than two), written into a caller-owned buffer. A
/// vertex with no neighbor gets `H[u] = u`: it aggregates alone.
pub fn heavy_neighbors(policy: &ExecPolicy, g: &Csr, h: &mut Vec<u32>) {
    let _k = profile::kernel("heavy_nbrs");
    let n = g.n();
    MapWorkspace::filled(h, n, UNMAPPED);
    let base = h.as_mut_ptr() as usize;
    parallel_for(policy, n, move |u| {
        let mut best_w = 0u64;
        let mut best = u as VId;
        for (v, w) in g.edges(u as VId) {
            if w > best_w {
                best_w = w;
                best = v;
            }
        }
        // SAFETY: one write per index.
        unsafe {
            (base as *mut u32).add(u).write(best);
        }
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

/// Flag-array element for the relabel prefix sum: `u32` whenever counts
/// provably fit (labels and totals are bounded by `n ≤ u32::MAX`),
/// `usize` as the defensive wide form. The narrow form halves the
/// 8 B/vertex auxiliary footprint of the old `vec![0usize; n + 1]` flag on
/// every graph the suite runs.
trait FlagWord: ScanElem {
    const ONE: Self;
    fn to_u32(self) -> u32;
    fn to_usize(self) -> usize;
}

impl FlagWord for u32 {
    const ONE: Self = 1;
    #[inline]
    fn to_u32(self) -> u32 {
        self
    }
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
}

impl FlagWord for usize {
    const ONE: Self = 1;
    #[inline]
    fn to_u32(self) -> u32 {
        self as u32
    }
    #[inline]
    fn to_usize(self) -> usize {
        self
    }
}

/// The shared mark → scan → rewrite core. `premarked` skips the mark pass
/// (the caller already set `flag[l] = 1` for every used label during its
/// own final sweep — the fused form that saves one O(n) traversal).
fn relabel_core<T: FlagWord>(
    policy: &ExecPolicy,
    labels: &mut [u32],
    flag: &mut Vec<T>,
    premarked: bool,
) -> usize {
    let n = labels.len();
    if !premarked {
        flag.clear();
        flag.resize(n + 1, T::default());
        let base = flag.as_mut_ptr() as usize;
        let labels_ref = &*labels;
        parallel_for(policy, n, move |u| {
            let l = labels_ref[u];
            assert!(l != UNMAPPED, "relabel: vertex {u} unmapped");
            assert!((l as usize) < n, "relabel: raw label out of range");
            // SAFETY: idempotent writes of the same value; racing threads
            // all write 1.
            unsafe {
                (base as *mut T).add(l as usize).write(T::ONE);
            }
        });
    } else {
        debug_assert_eq!(flag.len(), n + 1, "premarked flag not prepared");
    }
    let n_coarse = exclusive_scan(policy, flag).to_usize();
    {
        let base = labels.as_mut_ptr() as usize;
        let flag_ref = &flag[..];
        let labels_ptr = labels.as_ptr() as usize;
        parallel_for(policy, n, move |u| {
            // SAFETY: disjoint read/write per index.
            unsafe {
                let l = *(labels_ptr as *const u32).add(u);
                (base as *mut u32)
                    .add(u)
                    .write(flag_ref[l as usize].to_u32());
            }
        });
    }
    n_coarse
}

/// Relabel arbitrary labels in `0..n` to contiguous coarse ids `0..n_c`
/// (parallel flag + prefix sum). Consumes the raw label array. The flag
/// buffer comes from the workspace and is `u32` wide whenever `n` fits,
/// `usize` otherwise.
pub fn relabel(policy: &ExecPolicy, mut labels: Vec<u32>, ws: &mut MapWorkspace) -> Mapping {
    let _k = profile::kernel("relabel");
    let n = labels.len();
    let n_coarse = if n < u32::MAX as usize {
        relabel_core(policy, &mut labels, &mut ws.flag, false)
    } else {
        relabel_core(policy, &mut labels, &mut ws.flag_wide, false)
    };
    Mapping {
        map: labels,
        n_coarse,
    }
}

/// Zero the narrow flag buffer for a fused mark: policies whose final pass
/// already sweeps the label array call this first, write
/// `flag[root] = 1` during that sweep (idempotent u32 writes), and finish
/// with [`relabel_premarked`] — eliminating relabel's own mark
/// traversal.
pub(crate) fn prepare_premark(ws: &mut MapWorkspace, n: usize) -> &mut Vec<u32> {
    assert!(n < u32::MAX as usize, "premark requires the narrow flag");
    ws.flag.clear();
    ws.flag.resize(n + 1, 0);
    &mut ws.flag
}

/// [`relabel`] when `ws.flag` was already marked via
/// [`prepare_premark`] — skips the mark pass.
pub(crate) fn relabel_premarked(
    policy: &ExecPolicy,
    mut labels: Vec<u32>,
    ws: &mut MapWorkspace,
) -> Mapping {
    let _k = profile::kernel("relabel");
    debug_assert!(labels
        .iter()
        .all(|&l| l != UNMAPPED && (l as usize) < labels.len()));
    let n_coarse = relabel_core(policy, &mut labels, &mut ws.flag, true);
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
            let flag = prepare_premark(&mut ws, raw.len());
            for &l in &raw {
                flag[l as usize] = 1;
            }
            let fused = relabel_premarked(&policy, raw.clone(), &mut ws);
            assert_eq!(plain, fused, "{policy}");
        }
    }

    #[test]
    fn relabel_narrow_flag_halves_aux_footprint() {
        // The width rule's acceptance criterion: peak auxiliary bytes for
        // a relabel through the narrow flag are less than 60 % of the old
        // usize-flag implementation's (4 B vs 8 B per vertex + scan
        // internals). Measured under the serial policy so the tracking
        // allocator sees the whole envelope.
        let n = 100_000usize;
        let raw: Vec<u32> = (0..n as u32).map(|i| (i * 7) % 50_000).collect();
        let serial = ExecPolicy::serial();
        let mut ws = MapWorkspace::new();
        // Label arrays are allocated outside each scope and returned from
        // it, so the measured peaks are the *auxiliary* envelope only
        // (flag array + scan internals).
        let raw1 = raw.clone();
        let (m1, narrow) = mlcg_par::mem::measure(|| relabel(&serial, raw1, &mut ws));
        let raw2 = raw.clone();
        let (m2, wide) = mlcg_par::mem::measure(|| {
            // The pre-rebuild implementation: usize flag array.
            let mut labels = raw2;
            let mut flag = Vec::new();
            let n_coarse = relabel_core::<usize>(&serial, &mut labels, &mut flag, false);
            (labels, n_coarse)
        });
        assert_eq!(m1.map, m2.0);
        assert_eq!(m1.n_coarse, m2.1);
        assert!(
            (narrow.peak_bytes as f64) <= 0.6 * wide.peak_bytes as f64,
            "narrow flag {} must be <= 60% of wide flag {}",
            narrow.peak_bytes,
            wide.peak_bytes
        );
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
