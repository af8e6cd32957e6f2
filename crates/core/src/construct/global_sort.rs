//! Global sort-based coarse-graph construction — the baseline the paper
//! compares against (and finds uncompetitive): pack every inter-aggregate
//! directed entry into a `(M[u], M[v])` key, sort all `2m'` triples
//! globally, and reduce equal-key runs by summing weights.

use crate::mapping::Mapping;
use mlcg_graph::{Csr, VId, Weight};
use mlcg_par::atomic::as_atomic_usize;
use mlcg_par::scan::exclusive_scan;
use mlcg_par::sort::par_radix_sort_pairs;
use mlcg_par::{parallel_for, parallel_for_mut, profile, ExecPolicy, TraceCollector};
use std::sync::atomic::Ordering;

/// Level-reused scratch for the global-sort strategy: the packed triple
/// arrays and head flags are the strategy's dominant transients (`2m'`
/// entries each), so reusing their capacity across hierarchy levels
/// removes the bulk of its per-level allocation. Contents never survive a
/// call; only capacity does.
#[derive(Default)]
pub struct Scratch {
    offsets: Vec<usize>,
    keys: Vec<u64>,
    vals: Vec<Weight>,
    head: Vec<usize>,
}

/// Build the coarse graph by a global sort-and-reduce.
pub fn construct(
    policy: &ExecPolicy,
    g: &Csr,
    mapping: &Mapping,
    trace: &TraceCollector,
    ws: &mut Scratch,
) -> Csr {
    let n = g.n();
    let nc = mapping.n_coarse;
    let map = &mapping.map;
    assert!(nc <= u32::MAX as usize);
    let _k = profile::kernel("gsort_construct");
    // Two full-adjacency traversals: the per-vertex count and the pack.
    trace.counter_add("construct/edges_scanned", 2 * g.adj().len() as u64);

    // Count inter-aggregate directed entries per fine vertex, then scatter
    // the packed triples.
    let offsets = &mut ws.offsets;
    offsets.clear();
    offsets.resize(n + 1, 0);
    parallel_for_mut(policy, &mut offsets[..n], |u, c| {
        let cu = map[u];
        *c = g
            .neighbors(u as VId)
            .iter()
            .filter(|&&v| map[v as usize] != cu)
            .count();
    });
    let total = exclusive_scan(policy, offsets);
    let keys = &mut ws.keys;
    let vals = &mut ws.vals;
    keys.clear();
    keys.resize(total, 0);
    vals.clear();
    vals.resize(total, 0);
    {
        let _k = profile::kernel("pack");
        let k_base = keys.as_mut_ptr() as usize;
        let v_base = vals.as_mut_ptr() as usize;
        let off: &[usize] = offsets;
        parallel_for(policy, n, move |u| {
            let cu = map[u];
            let mut p = off[u];
            for (v, w) in g.edges(u as VId) {
                let cv = map[v as usize];
                if cv != cu {
                    // SAFETY: each vertex writes its own offset range.
                    unsafe {
                        (k_base as *mut u64)
                            .add(p)
                            .write(((cu as u64) << 32) | cv as u64);
                        (v_base as *mut Weight).add(p).write(w);
                    }
                    p += 1;
                }
            }
        });
    }

    par_radix_sort_pairs(policy, keys, vals);

    // Head flags -> run index per entry -> unique-run count.
    let head = &mut ws.head;
    head.clear();
    head.resize(total + 1, 0);
    {
        let _k = profile::kernel("head_flags");
        let keys: &[u64] = keys;
        parallel_for_mut(policy, &mut head[..total], |i, h| {
            *h = usize::from(i == 0 || keys[i] != keys[i - 1]);
        });
    }
    // Inclusive scan: head[i] becomes (#heads in 0..=i), so the run index
    // of entry i is head[i] - 1.
    let m2 = mlcg_par::scan::inclusive_scan(policy, &mut head[..total]);
    let run_of: &[usize] = head;

    // Reduce weights per run and record each run's key.
    let mut adj: Vec<u32> = vec![0; m2];
    let mut wgt: Vec<Weight> = vec![0; m2];
    let mut row_count = vec![0usize; nc + 1];
    {
        let _k = profile::kernel("reduce_runs");
        let adj_base = adj.as_mut_ptr() as usize;
        let wgt_at = mlcg_par::atomic::as_atomic_u64(&mut wgt);
        let rc = as_atomic_usize(&mut row_count[..nc]);
        let (keys_ref, vals_ref): (&[u64], &[Weight]) = (keys, vals);
        parallel_for(policy, total, move |i| {
            let r = run_of[i] - 1;
            wgt_at[r].fetch_add(vals_ref[i], Ordering::Relaxed);
            if i == 0 || keys_ref[i] != keys_ref[i - 1] {
                let cu = (keys_ref[i] >> 32) as usize;
                let cv = (keys_ref[i] & 0xFFFF_FFFF) as u32;
                rc[cu].fetch_add(1, Ordering::Relaxed);
                // SAFETY: one head per run.
                unsafe {
                    (adj_base as *mut u32).add(r).write(cv);
                }
            }
        });
    }
    // Runs are sorted by (cu, cv), so row offsets follow from run counts.
    exclusive_scan(policy, &mut row_count);
    let mut xadj = row_count;
    xadj[nc] = m2;
    Csr::from_parts(xadj, adj, wgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct_coarse_graph, ConstructMethod, ConstructOptions};
    use mlcg_graph::builder::from_edges_weighted;

    #[test]
    fn agrees_with_sort_construction() {
        let g = from_edges_weighted(
            6,
            &[
                (0, 1, 2),
                (1, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (4, 5, 6),
                (0, 5, 7),
                (1, 4, 8),
            ],
        );
        let mapping = crate::mapping::Mapping {
            map: vec![0, 0, 1, 1, 2, 2],
            n_coarse: 3,
        };
        let policy = ExecPolicy::serial();
        let a = construct_coarse_graph(
            &policy,
            &g,
            &mapping,
            &ConstructOptions::with_method(ConstructMethod::GlobalSort),
        );
        let b = construct_coarse_graph(
            &policy,
            &g,
            &mapping,
            &ConstructOptions::with_method(ConstructMethod::Sort),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn empty_coarse_edge_set() {
        let g = from_edges_weighted(2, &[(0, 1, 3)]);
        let mapping = crate::mapping::Mapping {
            map: vec![0, 0],
            n_coarse: 1,
        };
        let c = construct(
            &ExecPolicy::serial(),
            &g,
            &mapping,
            &TraceCollector::disabled(),
            &mut Scratch::default(),
        );
        assert_eq!(c.n(), 1);
        assert_eq!(c.m(), 0);
    }
}
