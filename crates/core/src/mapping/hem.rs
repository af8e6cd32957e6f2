//! Multi-pass parallel Heavy Edge Matching (the paper's Algorithm 10).
//!
//! Modeled after Algorithm 4, with the key distinction that a vertex seeks
//! its heaviest **unmatched** neighbor, so the heavy array is recomputed
//! for the unassigned vertices after each pass. Matching means aggregates
//! never exceed two vertices — the ≤2 coarsening-ratio bound the paper
//! contrasts with HEC. Vertices with no unmatched neighbor left become
//! singletons, which is exactly the *stalling* phenomenon two-hop matching
//! (see [`super::twohop`]) exists to mitigate.

use super::util::{heavy_neighbor_where, relabel};
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::filter::filter_indices_in;
use mlcg_par::perm::random_permutation_in;
use mlcg_par::{parallel_for, profile, ExecPolicy};
use std::sync::atomic::Ordering;

const FREE: u32 = u32::MAX;

/// Parallel HEM through a level-reused workspace. Unmatched vertices
/// become singleton aggregates.
pub fn hem(policy: &ExecPolicy, g: &Csr, seed: u64, ws: &mut MapWorkspace) -> (Mapping, MapStats) {
    let (raw, stats) = hem_raw(policy, g, seed, ws);
    (relabel(policy, finalize_singletons(raw), ws), stats)
}

/// The matching phase shared with two-hop coarsening: returns `M` where
/// matched vertices carry the *smaller endpoint's id* as a raw label and
/// unmatched vertices remain [`UNMAPPED`].
pub(crate) fn hem_raw(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Vec<u32>, MapStats) {
    let n = g.n();
    let mut m = vec![UNMAPPED; n];
    if n <= 1 {
        return (m, MapStats::default());
    }
    let mut stats = MapStats::default();
    random_permutation_in(policy, n, seed, &mut ws.perm_keys, &mut ws.queue);
    MapWorkspace::filled(&mut ws.own, n, FREE);
    // Each pass recomputes heavy-unmatched neighbors, then claims pairs.
    // Passes stop when no additional match lands (the stall point).
    loop {
        let before_unmatched = ws.queue.len();
        MapWorkspace::filled(&mut ws.heavy, n, UNMAPPED);
        {
            let _k = profile::kernel("heavy_scan");
            let base = ws.heavy.as_mut_ptr() as usize;
            let m_ref = &m;
            let q_ref = &ws.queue;
            parallel_for(policy, q_ref.len(), move |i| {
                let u = q_ref[i];
                let best = heavy_neighbor_where(g, u as VId, |v| m_ref[v as usize] == UNMAPPED);
                if let Some(v) = best {
                    // SAFETY: disjoint writes per queue entry.
                    unsafe {
                        (base as *mut u32).add(u as usize).write(v);
                    }
                }
            });
        }
        {
            let _k = profile::kernel("hem_match");
            let m_at = as_atomic_u32(&mut m);
            let c_at = as_atomic_u32(&mut ws.own);
            let (h_ref, q_ref) = (&ws.heavy, &ws.queue);
            parallel_for(policy, q_ref.len(), move |i| {
                let u = q_ref[i];
                let v = h_ref[u as usize];
                if v == UNMAPPED {
                    return; // no unmatched neighbor; may become a singleton
                }
                // Mutual-preference id check prevents symmetric deadlock.
                if h_ref[v as usize] == u && v < u {
                    return;
                }
                if c_at[u as usize]
                    .compare_exchange(FREE, v, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    return;
                }
                if c_at[v as usize]
                    .compare_exchange(FREE, u, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    let label = u.min(v);
                    m_at[u as usize].store(label, Ordering::Release);
                    m_at[v as usize].store(label, Ordering::Release);
                } else {
                    // v got claimed; unlike HEC there is nothing to inherit
                    // (matching only) — release and retry with a fresh H.
                    c_at[u as usize].store(FREE, Ordering::Release);
                }
            });
        }
        filter_indices_in(
            policy,
            &ws.queue,
            |u| m[u as usize] == UNMAPPED,
            &mut ws.fcounts,
            &mut ws.qscratch,
        );
        std::mem::swap(&mut ws.queue, &mut ws.qscratch);
        stats.passes += 1;
        stats.record_resolved(before_unmatched - ws.queue.len());
        if ws.queue.is_empty() || before_unmatched == ws.queue.len() {
            break;
        }
        // Reset ownership of the still-unmatched for the next pass.
        for &u in &ws.queue {
            ws.own[u as usize] = FREE;
        }
    }
    (m, stats)
}

/// Give every still-unmatched vertex its own singleton raw label.
pub fn finalize_singletons(mut m: Vec<u32>) -> Vec<u32> {
    for (u, slot) in m.iter_mut().enumerate() {
        if *slot == UNMAPPED {
            *slot = u as u32;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators as gen;

    #[test]
    fn battery() {
        testkit::run_battery(MapMethod::Hem);
    }

    #[test]
    fn hem_is_a_matching() {
        // Aggregates have size <= 2 — the defining matching property.
        for (name, g) in testkit::battery() {
            for policy in ExecPolicy::all_test_policies() {
                let (m, _) = find_mapping(&policy, &g, MapMethod::Hem, 17);
                testkit::check_mapping(name, &g, &m);
                let max = m.aggregate_sizes().into_iter().max().unwrap_or(0);
                assert!(
                    max <= 2,
                    "{name}: aggregate of size {max} breaks matching bound"
                );
            }
        }
    }

    #[test]
    fn matched_pairs_are_adjacent() {
        let g = gen::grid2d(15, 15);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 23);
        let mut members: Vec<Vec<u32>> = vec![vec![]; m.n_coarse];
        for (u, &a) in m.map.iter().enumerate() {
            members[a as usize].push(u as u32);
        }
        for pair in members.iter().filter(|p| p.len() == 2) {
            assert!(
                g.find_edge(pair[0], pair[1]).is_some(),
                "matched pair {pair:?} not adjacent"
            );
        }
    }

    #[test]
    fn star_stalls_with_singletons() {
        // HEM on a star: the hub matches one leaf; all other leaves stall
        // as singletons, so the coarsening ratio approaches 1.
        let g = gen::star(40);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 3);
        assert_eq!(m.n_coarse, 39, "one pair plus 38 singletons");
        assert!(m.coarsening_ratio() < 1.1);
    }

    #[test]
    fn heavy_edge_is_preferred() {
        // 1 -(1)- 0 -(9)- 2: the matching must take (0,2).
        let g = from_edges_weighted(3, &[(0, 1, 1), (0, 2, 9)]);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 7);
        assert_eq!(m.map[0], m.map[2]);
        assert_ne!(m.map[0], m.map[1]);
    }

    #[test]
    fn path_matches_nearly_perfectly() {
        let g = gen::path(100);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 5);
        // A path has a perfect or near-perfect matching; allow some slack
        // from the randomized order.
        assert!(
            m.coarsening_ratio() > 1.5,
            "path matching too sparse: ratio {}",
            m.coarsening_ratio()
        );
    }

    #[test]
    fn hem_raw_labels_are_min_endpoints() {
        let g = gen::cycle(10);
        let (raw, _) = hem_raw(&ExecPolicy::serial(), &g, 1, &mut MapWorkspace::new());
        for (u, &l) in raw.iter().enumerate() {
            if l != UNMAPPED {
                assert!(l as usize <= u || raw[l as usize] == l);
            }
        }
    }
}
