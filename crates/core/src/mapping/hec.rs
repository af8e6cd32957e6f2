//! Lock-free parallelization of Heavy Edge Coarsening — the paper's
//! Algorithm 4.
//!
//! Threads sweep the heavy-edge set `⟨u, H[u]⟩` in a random order `P`,
//! claiming endpoints with atomic compare-and-swap on the ownership array
//! `C`:
//!
//! - *create* edge — both `C[u]` and `C[v]` won: a fresh coarse id is
//!   allocated for the pair;
//! - *skip* edge — `C[u]` was already taken: another thread is creating
//!   `u`'s aggregate, nothing to do;
//! - *inherit* edge — `C[v]` was taken and `M[v]` already set: `u` joins
//!   `v`'s aggregate. If `M[v]` is not yet visible, the thread releases
//!   `C[u]` and re-queues `u` for the next pass.
//!
//! The extra vertex-identifier check before the first CAS (mentioned below
//! Algorithm 4 in the paper) defers the larger endpoint of a *mutual* heavy
//! pair, preventing the symmetric claim/claim deadlock. Unresolved vertices
//! are gathered into `R` and the loop repeats; the paper reports ≥99 % of
//! vertices settle within two passes, a statistic [`MapStats`] reproduces.

use super::util::{heavy_neighbors, relabel};
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::Csr;
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::filter::filter_indices_in;
use mlcg_par::perm::random_permutation_in;
use mlcg_par::{parallel_for, profile, ExecPolicy};
use std::sync::atomic::{AtomicU32, Ordering};

/// Ownership sentinel: `C[u] = FREE` means unclaimed.
const FREE: u32 = u32::MAX;

/// Run parallel HEC through a level-reused workspace. Requires a
/// connected graph with `n ≥ 1`.
pub fn hec(policy: &ExecPolicy, g: &Csr, seed: u64, ws: &mut MapWorkspace) -> (Mapping, MapStats) {
    let n = g.n();
    if n <= 1 {
        return (
            Mapping {
                map: vec![0; n.min(1)],
                n_coarse: n.min(1),
            },
            MapStats::default(),
        );
    }
    heavy_neighbors(policy, g, &mut ws.heavy);
    debug_assert!(
        ws.heavy.iter().all(|&x| x != UNMAPPED),
        "graph must have no isolated vertices"
    );

    let mut m = vec![UNMAPPED; n];
    MapWorkspace::filled(&mut ws.own, n, FREE);
    let next_id = AtomicU32::new(0);
    let mut stats = MapStats::default();

    random_permutation_in(policy, n, seed, &mut ws.perm_keys, &mut ws.queue);
    // The pass loop of Algorithm 4 (line 29). Termination: every pass
    // resolves at least the smaller endpoint of the heaviest pending mutual
    // pair; the cap is a defensive bound never reached in practice.
    let max_passes = 64 + 2 * n;
    while !ws.queue.is_empty() && stats.passes < max_passes {
        let before = ws.queue.len();
        {
            let _k = profile::kernel("hec_match");
            let m_at = as_atomic_u32(&mut m);
            let c_at = as_atomic_u32(&mut ws.own);
            let h_ref = &ws.heavy;
            let q_ref = &ws.queue;
            let next = &next_id;
            parallel_for(policy, q_ref.len(), move |i| {
                let u = q_ref[i];
                let v = h_ref[u as usize];
                if m_at[u as usize].load(Ordering::Acquire) != UNMAPPED {
                    return;
                }
                // Deadlock-avoidance id check for mutual heavy pairs: while
                // both endpoints are unmapped, only the smaller one drives
                // the two-sided claim. Once v is mapped (possibly absorbed
                // by a third vertex), u must fall through and inherit.
                if h_ref[v as usize] == u
                    && v < u
                    && m_at[v as usize].load(Ordering::Acquire) == UNMAPPED
                {
                    return; // the (v, u) orientation will create the pair
                }
                if c_at[u as usize].load(Ordering::Relaxed) != FREE {
                    return; // skip edge: another thread owns u
                }
                if c_at[u as usize]
                    .compare_exchange(FREE, v, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    return; // skip edge (lost the race for u)
                }
                if c_at[v as usize]
                    .compare_exchange(FREE, u, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Create edge: a fresh coarse vertex for {u, v}.
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    m_at[v as usize].store(id, Ordering::Release);
                    m_at[u as usize].store(id, Ordering::Release);
                } else {
                    let mv = m_at[v as usize].load(Ordering::Acquire);
                    if mv != UNMAPPED {
                        // Inherit edge: u joins v's aggregate.
                        m_at[u as usize].store(mv, Ordering::Release);
                    } else {
                        // v is mid-creation elsewhere; release u and retry
                        // in the next pass.
                        c_at[u as usize].store(FREE, Ordering::Release);
                    }
                }
            });
        }
        // Parallel, order-stable requeue of the unresolved (bit-identical
        // to the old sequential `retain`).
        filter_indices_in(
            policy,
            &ws.queue,
            |u| m[u as usize] == UNMAPPED,
            &mut ws.fcounts,
            &mut ws.qscratch,
        );
        std::mem::swap(&mut ws.queue, &mut ws.qscratch);
        stats.passes += 1;
        stats.record_resolved(before - ws.queue.len());
    }
    assert!(
        ws.queue.is_empty(),
        "HEC failed to converge within {max_passes} passes"
    );

    let n_coarse = next_id.load(Ordering::Relaxed) as usize;
    // Labels are already contiguous (atomic counter), but relabel defends
    // against the (unobserved) case of allocated-but-unused ids.
    debug_assert!(m.iter().all(|&x| (x as usize) < n_coarse));
    let mapping = relabel(policy, m, ws);
    (mapping, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators as gen;

    #[test]
    fn battery() {
        testkit::run_battery(MapMethod::Hec);
    }

    #[test]
    fn aggregates_are_connected() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 9);
            testkit::check_mapping(name, &g, &m);
            testkit::check_aggregates_connected(&g, &m);
        }
    }

    #[test]
    fn heavy_pair_merges() {
        // 0 -(9)- 1 is the unique heavy edge for both endpoints.
        let g = from_edges_weighted(4, &[(0, 1, 9), (1, 2, 1), (2, 3, 1), (3, 0, 1)]);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 1);
        assert_eq!(m.map[0], m.map[1], "mutual heavy pair must merge");
    }

    #[test]
    fn star_collapses_to_one_aggregate() {
        // Every leaf's heavy neighbor is the hub; HEC absorbs them all.
        let g = gen::star(50);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 3);
        assert_eq!(m.n_coarse, 1, "HEC coarsening ratio is unbounded on stars");
    }

    #[test]
    fn coarsening_ratio_exceeds_matching_bound_on_skewed_graphs() {
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 7));
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 11);
        assert!(
            m.coarsening_ratio() > 2.0,
            "HEC should beat the matching bound on skewed graphs: {}",
            m.coarsening_ratio()
        );
    }

    #[test]
    fn most_vertices_resolve_in_two_passes() {
        // The paper reports 99.4% resolved within two passes on level 1.
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(11, 8, 0.57, 0.19, 0.19, 3));
        for policy in ExecPolicy::all_test_policies() {
            let (_, stats) = find_mapping(&policy, &g, MapMethod::Hec, 5);
            let total = stats.resolved_total();
            let first_two: usize = stats.resolved_per_pass.iter().take(2).sum();
            assert!(
                first_two as f64 >= 0.95 * total as f64,
                "only {first_two}/{total} resolved in two passes ({policy})"
            );
        }
    }

    #[test]
    fn serial_is_deterministic() {
        let g = gen::grid2d(20, 20);
        let (a, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 77);
        let (b, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_policies_produce_valid_mappings_with_similar_ratio() {
        let g = gen::grid2d(40, 40);
        let (serial, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 5);
        for policy in ExecPolicy::all_test_policies() {
            let (m, _) = find_mapping(&policy, &g, MapMethod::Hec, 5);
            m.validate().unwrap();
            let r = m.coarsening_ratio() / serial.coarsening_ratio();
            assert!(
                (0.5..=2.0).contains(&r),
                "policy {policy} ratio {} vs serial {}",
                m.coarsening_ratio(),
                serial.coarsening_ratio()
            );
        }
    }

    #[test]
    fn single_and_two_vertex_graphs() {
        let g1 = gen::path(2);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g1, MapMethod::Hec, 1);
        assert_eq!(m.n_coarse, 1);
        assert_eq!(m.map[0], m.map[1]);
    }
}
