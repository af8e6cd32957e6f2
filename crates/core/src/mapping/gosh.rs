//! GOSH coarsening and the new GOSH+HEC hybrid (the paper's Algorithms 15
//! and 16 of the extended report).
//!
//! GOSH (Akyildiz et al.) aggregates around a maximal independent set,
//! processing vertices in decreasing-degree order and preventing two
//! high-degree vertices from mapping to each other. Our parallelization
//! follows the MIS(2) structure: Luby-style rounds select centers whose
//! (degree, random, id) priority beats every undecided neighbor, then
//! non-centers attach to an adjacent center subject to the high-degree
//! guard. Edge weights are ignored — the drawback the hybrid fixes.
//!
//! The **GOSH+HEC hybrid** keeps HEC's weighted heavy-neighbor choice but
//! skips adjacencies between two high-degree vertices, and executes the
//! low-synchronization HEC3 phases ("less indirection, lower fine-grained
//! synchronization, skips high-degree vertex adjacencies").

use super::util::{heavy_neighbor_where, prepare_premark, relabel, relabel_premarked};
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::perm::{invert_permutation_in, random_permutation_in};
use mlcg_par::rng::hash_index;
use mlcg_par::{parallel_count, parallel_for, ExecPolicy};
use std::sync::atomic::Ordering;

/// Two vertices are both "high degree" when each exceeds this multiple of
/// the average degree; GOSH refuses to contract such pairs.
pub const HIGH_DEGREE_FACTOR: f64 = 4.0;

/// The degree above which a vertex counts as "high degree" for the guard
/// (floor 8 so tiny graphs never trigger it spuriously).
fn high_degree_threshold(g: &Csr) -> usize {
    ((g.avg_degree() * HIGH_DEGREE_FACTOR).ceil() as usize).max(8)
}

/// Priority tuple: decreasing-degree order, randomized within a degree
/// class, uniquely tie-broken by id.
#[inline]
fn priority(g: &Csr, seed: u64, u: usize) -> (usize, u64, usize) {
    (g.degree(u as VId), hash_index(seed, u as u64), u)
}

/// GOSH coarsening (Algorithm 15 parallelization) through a level-reused
/// workspace.
pub fn gosh(policy: &ExecPolicy, g: &Csr, seed: u64, ws: &mut MapWorkspace) -> (Mapping, MapStats) {
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
    let tau = high_degree_threshold(g);
    let mut m = vec![UNMAPPED; n];
    let mut stats = MapStats::default();
    loop {
        let before = parallel_count(policy, n, |u| m[u] == UNMAPPED);
        if before == 0 {
            break;
        }
        // Center selection: local priority maxima among undecided vertices.
        // Decisions read a round-start snapshot so concurrent (or earlier
        // sequential) center writes cannot promote their beaten neighbors.
        {
            MapWorkspace::snapshot(&mut ws.snap, &m);
            let m_at = as_atomic_u32(&mut m);
            let snap = &ws.snap;
            parallel_for(policy, n, |u| {
                if snap[u] != UNMAPPED {
                    return;
                }
                let p = priority(g, seed, u);
                let beaten = g
                    .neighbors(u as VId)
                    .iter()
                    .any(|&v| snap[v as usize] == UNMAPPED && priority(g, seed, v as usize) > p);
                if !beaten {
                    m_at[u].store(u as u32, Ordering::Release);
                }
            });
        }
        // Attachment: join an adjacent center unless the high-degree guard
        // forbids it; isolated leftovers self-center to guarantee progress.
        {
            let m_at = as_atomic_u32(&mut m);
            parallel_for(policy, n, |u| {
                if m_at[u].load(Ordering::Acquire) != UNMAPPED {
                    return;
                }
                let du = g.degree(u as VId);
                let mut any_unmapped_neighbor = false;
                for &v in g.neighbors(u as VId) {
                    let mv = m_at[v as usize].load(Ordering::Acquire);
                    if mv == UNMAPPED {
                        any_unmapped_neighbor = true;
                        continue;
                    }
                    if mv == v {
                        // v is a center.
                        if !(du > tau && g.degree(v) > tau) {
                            m_at[u].store(v, Ordering::Release);
                            return;
                        }
                    }
                }
                if !any_unmapped_neighbor {
                    // Every neighbor is settled but none is joinable —
                    // either the guard blocked the only centers or all
                    // neighbors attached elsewhere. Self-center rather than
                    // stall (GOSH's own escape hatch).
                    m_at[u].store(u as u32, Ordering::Release);
                }
            });
        }
        let after = parallel_count(policy, n, |u| m[u] == UNMAPPED);
        stats.passes += 1;
        stats.record_resolved(before - after);
        assert!(after < before || after == 0, "GOSH made no progress");
    }
    (relabel(policy, m, ws), stats)
}

/// The new GOSH+HEC hybrid (Algorithm 16): weighted heavy neighbors with
/// high-degree adjacencies skipped, executed via the HEC3 phases through a
/// level-reused workspace.
pub fn gosh_hec(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
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
    let tau = high_degree_threshold(g);
    // Heavy neighbor, skipping high-degree/high-degree adjacencies.
    MapWorkspace::filled(&mut ws.heavy, n, UNMAPPED);
    {
        let base = ws.heavy.as_mut_ptr() as usize;
        parallel_for(policy, n, move |u| {
            let du = g.degree(u as VId);
            let pick = heavy_neighbor_where(g, u as VId, |v| !(du > tau && g.degree(v) > tau))
                .or_else(|| heavy_neighbor_where(g, u as VId, |_| true))
                .expect("connected graph has a neighbor");
            // SAFETY: disjoint writes per index.
            unsafe {
                (base as *mut u32).add(u).write(pick);
            }
        });
    }
    // HEC3-style phases over the filtered heavy array.
    random_permutation_in(policy, n, seed, &mut ws.perm_keys, &mut ws.queue);
    {
        let (queue, pos) = (&ws.queue, &mut ws.pos);
        invert_permutation_in(policy, queue, pos);
    }
    let mut m = vec![UNMAPPED; n];
    {
        let base = m.as_mut_ptr() as usize;
        let (h_ref, pos_ref) = (&ws.heavy, &ws.pos);
        parallel_for(policy, n, move |u| {
            let v = h_ref[u] as usize;
            if h_ref[v] as usize == u {
                let root = if pos_ref[u] <= pos_ref[v] { u } else { v };
                // SAFETY: both endpoints write the same value.
                unsafe {
                    (base as *mut u32).add(u).write(root as u32);
                }
            }
        });
    }
    {
        let m_at = as_atomic_u32(&mut m);
        let h_ref = &ws.heavy;
        parallel_for(policy, n, move |u| {
            let v = h_ref[u] as usize;
            if m_at[v].load(Ordering::Relaxed) == UNMAPPED {
                let _ = m_at[v].compare_exchange(
                    UNMAPPED,
                    v as u32,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
            }
        });
    }
    {
        MapWorkspace::snapshot(&mut ws.snap, &m);
        let base = m.as_mut_ptr() as usize;
        let (h_ref, snap) = (&ws.heavy, &ws.snap);
        parallel_for(policy, n, move |u| {
            if snap[u] == UNMAPPED {
                let root = snap[h_ref[u] as usize];
                debug_assert_ne!(root, UNMAPPED);
                // SAFETY: disjoint writes.
                unsafe {
                    (base as *mut u32).add(u).write(root);
                }
            }
        });
    }
    // Final pointer-jump sweep, with the relabel flag-mark fused in.
    {
        MapWorkspace::snapshot(&mut ws.snap, &m);
        prepare_premark(ws, n);
        let base = m.as_mut_ptr() as usize;
        let flag_base = ws.flag.as_mut_ptr() as usize;
        let snap = &ws.snap;
        parallel_for(policy, n, move |u| {
            let mut r = snap[u] as usize;
            while snap[r] as usize != r {
                r = snap[snap[r] as usize] as usize;
            }
            // SAFETY: disjoint label writes per index; flag writes are
            // idempotent (racing threads all write 1).
            unsafe {
                (base as *mut u32).add(u).write(r as u32);
                (flag_base as *mut u32).add(r).write(1);
            }
        });
    }
    (
        relabel_premarked(policy, m, ws),
        MapStats {
            passes: 4,
            resolved_per_pass: vec![n],
            resolved_overflow: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::generators as gen;

    #[test]
    fn battery_gosh() {
        testkit::run_battery(MapMethod::Gosh);
    }

    #[test]
    fn battery_gosh_hec() {
        testkit::run_battery(MapMethod::GoshHec);
    }

    #[test]
    fn gosh_centers_form_an_independent_set_per_round_effect() {
        // After GOSH, roots (vertices mapped to themselves pre-relabel)
        // were selected as priority maxima; the observable invariant is
        // that every aggregate is a star around its center in the fine
        // graph — i.e. aggregates are connected.
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Gosh, 5);
            testkit::check_mapping(name, &g, &m);
            testkit::check_aggregates_connected(&g, &m);
        }
    }

    #[test]
    fn gosh_hec_aggregates_connected() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::GoshHec, 5);
            testkit::check_mapping(name, &g, &m);
            testkit::check_aggregates_connected(&g, &m);
        }
    }

    #[test]
    fn gosh_guard_keeps_hubs_apart() {
        // Two hubs joined by an edge, each with its own leaves: the guard
        // must keep the hubs in different aggregates.
        let mut edges = vec![(0u32, 1u32)];
        for leaf in 2..30u32 {
            edges.push((if leaf % 2 == 0 { 0 } else { 1 }, leaf));
        }
        let g = mlcg_graph::builder::from_edges_unit(30, &edges);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Gosh, 9);
        assert_ne!(
            m.map[0], m.map[1],
            "high-degree hubs must not contract together"
        );
    }

    #[test]
    fn gosh_hec_prefers_heavy_edges_unlike_gosh() {
        // A triangle where one edge is massively heavier: the hybrid must
        // contract it.
        let g = mlcg_graph::builder::from_edges_weighted(
            4,
            &[(0, 1, 100), (1, 2, 1), (0, 2, 1), (2, 3, 1)],
        );
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::GoshHec, 3);
        assert_eq!(m.map[0], m.map[1], "hybrid must respect edge weights");
    }

    #[test]
    fn gosh_coarsens_star_fully() {
        let g = gen::star(25);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Gosh, 2);
        // The hub is the degree maximum -> center; every leaf attaches
        // (leaves are low-degree so the guard does not trigger).
        assert_eq!(m.n_coarse, 1);
    }

    #[test]
    fn gosh_is_less_aggressive_than_hec_on_regular_graphs() {
        let g = gen::grid2d(30, 30);
        let p = ExecPolicy::serial();
        let (mg, _) = find_mapping(&p, &g, MapMethod::Gosh, 3);
        mg.validate().unwrap();
        assert!(
            mg.coarsening_ratio() >= 1.5,
            "ratio {}",
            mg.coarsening_ratio()
        );
    }
}
