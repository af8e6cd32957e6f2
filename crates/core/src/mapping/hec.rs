//! Parallel Heavy Edge Coarsening — the paper's Algorithm 4, resolved by
//! deterministic reservations so that every execution policy returns the
//! labels of the one-worker sweep.
//!
//! Algorithm 4 sweeps the heavy-edge set `⟨u, H[u]⟩` in a random order `P`
//! and settles each vertex `u` with `v = H[u]` as one of:
//!
//! - *create* edge — `u` and `v` are both unmapped: a fresh coarse vertex
//!   for the pair;
//! - *skip* edge — `u` was already absorbed by an earlier create;
//! - *inherit* edge — `v` is mapped: `u` joins `v`'s aggregate.
//!
//! The vertex-identifier check mentioned below Algorithm 4 in the paper
//! defers the larger endpoint of a *mutual* heavy pair while its partner
//! is unmapped; the partner creates the pair later in the sweep, and a
//! deferred vertex that no later vertex claimed joins its partner's
//! aggregate in a last pass.
//!
//! The paper claims endpoints with compare-and-swap on an ownership array,
//! so which claim wins, and with it the coarse graph, depends on the
//! thread schedule. Here the pending vertices instead run in rounds of
//! deterministic reservations. Each one write-mins its position in `P`
//! into reservation slots for `u` and, while `v` is unmapped, for `v`;
//! then each one commits only if it holds the slots it took. A held slot
//! means no earlier pending vertex can still change that endpoint, so `u`
//! acts on exactly the state the sequential sweep would show it. An
//! inherit needs only `u`'s slot, because a label is final once set; and
//! when an earlier vertex maps `v` in the same pass, `u` works out that
//! label and inherits it at once, so hub leaves do not wait a round for
//! their hub. Coarse ids are the `P` positions of each aggregate's
//! creator, compacted by the relabel: creation order, as with the paper's
//! atomic counter.
//!
//! The pending vertex earliest in `P` always commits, so every round
//! settles at least one. Once the pending list is too short to run on
//! more than one worker, the sweep itself finishes it in `P` order; under
//! the serial policy that is the whole run. [`MapStats`] counts each round,
//! and the closing sweep, as a pass.

use super::util::{heavy_neighbors, premark_flags, relabel_premarked};
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::Csr;
use mlcg_par::atomic::as_atomic_u32;
use mlcg_par::filter::filter_indices_in;
use mlcg_par::perm::random_permutation_in;
use mlcg_par::{parallel_for, pool, profile, ExecPolicy};
use std::sync::atomic::Ordering::Relaxed;

/// Reservation sentinel: `S[x] = FREE` means no pending vertex reserved
/// `x` this round.
const FREE: u32 = u32::MAX;

/// Label of a vertex deferred behind its smaller mutual partner. It stays
/// claimable (labels `≥ DEFERRED` count as unmapped) and joins the
/// partner's aggregate in the last pass.
const DEFERRED: u32 = u32::MAX - 1;

/// Run parallel HEC through a level-reused workspace. A vertex with no
/// neighbor becomes a singleton aggregate. The result depends only on the
/// graph and `seed`, not on the policy.
pub(crate) fn hec(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
    let n = g.n();
    assert!(n < DEFERRED as usize, "HEC: n exceeds the label range");
    heavy_neighbors(policy, g, &mut ws.heavy);
    random_permutation_in(policy, n, seed, &mut ws.perm_keys, &mut ws.queue);
    // Pending vertices are kept as their positions in P, in order.
    ws.pos.clear();
    ws.pos.extend(0..n as u32);

    let mut m = vec![UNMAPPED; n];
    let mut stats = MapStats::default();
    // Rounds pay off only while the pending list is long enough to run on
    // several workers; one worker finishes the rest with the sweep itself.
    while policy.effective_threads(ws.pos.len()) > 1 && !pool::in_worker() {
        let before = ws.pos.len();
        // Releasing every slot is one memset, cheaper than revisiting the
        // previous round's scattered reservations.
        MapWorkspace::filled(&mut ws.own, n, FREE);
        {
            let _k = profile::kernel("hec_match");
            // Relaxed is enough: the reserve pass only write-mins slots,
            // whose final values are read in the next pass; the commit
            // pass reads no slot or label another thread writes in it;
            // and the join at the end of each pass orders its writes
            // before the next pass.
            let m_at = as_atomic_u32(&mut m);
            let s_at = as_atomic_u32(&mut ws.own);
            let (h, order, pending) = (&ws.heavy[..], &ws.queue[..], &ws.pos[..]);
            let reserve = |x: usize, p: u32| {
                if s_at[x].load(Relaxed) > p {
                    s_at[x].fetch_min(p, Relaxed);
                }
            };
            parallel_for(policy, pending.len(), |i| {
                let p = pending[i];
                let u = order[p as usize] as usize;
                if m_at[u].load(Relaxed) < DEFERRED {
                    return; // skip edge: absorbed by an earlier create
                }
                let v = h[u] as usize;
                reserve(u, p);
                if v != u && m_at[v].load(Relaxed) >= DEFERRED {
                    reserve(v, p);
                }
            });
            // The label that x, at position p and holding S[x], commits in
            // the pass below without looking further than y = H[x]. It is
            // judged from slots and round-start labels alone: nobody
            // writes m[y] while S[y] is FREE, and any other write to m[y]
            // in that pass comes from the holder of S[y].
            let settle = |x: usize, p: u32| -> Option<u32> {
                let y = h[x] as usize;
                if y == x {
                    return Some(p); // no neighbor: a singleton aggregate
                }
                match s_at[y].load(Relaxed) {
                    // Nobody reserved y, so it was mapped at round start:
                    // inherit edge.
                    FREE => Some(m_at[y].load(Relaxed)),
                    // Deadlock-avoidance id check: the smaller endpoint of
                    // an unmapped mutual pair creates it.
                    s if s == p && h[y] as usize == x && y < x => Some(DEFERRED),
                    s if s == p => Some(p), // create edge
                    _ => None,              // an earlier vertex may still map y
                }
            };
            parallel_for(policy, pending.len(), |i| {
                let p = pending[i];
                let u = order[p as usize] as usize;
                if s_at[u].load(Relaxed) != p {
                    return; // absorbed at round start, or an earlier vertex may absorb u
                }
                let v = h[u] as usize;
                let label = match settle(u, p) {
                    Some(l) => l,
                    None => {
                        // The earlier vertex w holding S[v] maps v in this
                        // pass if it holds its own slot and settles: then
                        // u inherits v's new label.
                        let s = s_at[v].load(Relaxed);
                        let w = order[s as usize] as usize;
                        if s_at[w].load(Relaxed) != s {
                            return;
                        }
                        match settle(w, s) {
                            Some(l) if l < DEFERRED => l,
                            _ => return,
                        }
                    }
                };
                if label == p && v != u {
                    m_at[v].store(p, Relaxed); // a fresh coarse vertex for {u, v}
                }
                m_at[u].store(label, Relaxed);
            });
        }
        let order = &ws.queue;
        filter_indices_in(
            policy,
            &ws.pos,
            |p| m[order[p as usize] as usize] == UNMAPPED,
            &mut ws.fcounts,
            &mut ws.qscratch,
        );
        std::mem::swap(&mut ws.pos, &mut ws.qscratch);
        debug_assert!(ws.pos.len() < before, "the earliest pending vertex commits");
        stats.passes += 1;
        stats.record_resolved(before - ws.pos.len());
    }
    if !ws.pos.is_empty() {
        let (h, order) = (&ws.heavy, &ws.queue);
        for &p in &ws.pos {
            let u = order[p as usize] as usize;
            let v = h[u] as usize;
            if m[u] != UNMAPPED {
                continue;
            }
            m[u] = if v == u {
                p
            } else if m[v] < DEFERRED {
                m[v]
            } else if h[v] as usize == u && v < u {
                DEFERRED
            } else {
                m[v] = p;
                p
            };
        }
        stats.passes += 1;
        stats.record_resolved(ws.pos.len());
    }

    // Last pass: a deferred vertex joins its partner (never deferred
    // itself), with the relabel flag-mark fused in.
    {
        let flag = premark_flags(&mut ws.flag, n);
        let m_at = as_atomic_u32(&mut m);
        let h = &ws.heavy;
        parallel_for(policy, n, |u| {
            let mut l = m_at[u].load(Relaxed);
            if l == DEFERRED {
                l = m_at[h[u] as usize].load(Relaxed);
                m_at[u].store(l, Relaxed);
            }
            flag[l as usize].store(1, Relaxed);
        });
    }
    let mapping = relabel_premarked(policy, m, ws);
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

    /// The one-worker sweep of Algorithm 4, written out sequentially:
    /// visit `P` once, deferring the larger endpoint of an unmapped mutual
    /// pair, then let each deferred vertex nobody claimed join its partner.
    fn sequential_sweep(g: &Csr, seed: u64) -> Vec<u32> {
        let serial = ExecPolicy::serial();
        let mut h = Vec::new();
        heavy_neighbors(&serial, g, &mut h);
        let mut m = vec![UNMAPPED; g.n()];
        let mut next = 0;
        for u in mlcg_par::perm::random_permutation(&serial, g.n(), seed) {
            let (u, v) = (u as usize, h[u as usize] as usize);
            if m[u] != UNMAPPED {
                continue;
            }
            if m[v] != UNMAPPED {
                m[u] = m[v];
            } else if !(v != u && h[v] as usize == u && v < u) {
                m[u] = next;
                m[v] = next;
                next += 1;
            }
        }
        for u in 0..g.n() {
            if m[u] == UNMAPPED {
                m[u] = m[h[u] as usize];
            }
        }
        m
    }

    #[test]
    fn every_policy_returns_the_sequential_sweep() {
        let (rmat, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 4));
        let mut graphs = testkit::battery();
        graphs.push(("rmat-10", rmat));
        graphs.push(("grid-40x40", gen::grid2d(40, 40)));
        for (name, g) in &graphs {
            for seed in [5, 6, 7] {
                let want = sequential_sweep(g, seed);
                for policy in ExecPolicy::all_test_policies() {
                    let (m, _) = find_mapping(&policy, g, MapMethod::Hec, seed);
                    assert_eq!(m.map, want, "{name}/seed{seed} under {policy}");
                }
            }
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
