//! Distance-2 maximal-independent-set coarsening — Bell, Dalton & Olson's
//! MIS(2) aggregation (the paper's Algorithm 14 of the extended report).
//!
//! Luby-style rounds: a vertex enters the MIS when its random priority is
//! the maximum among all *undecided* vertices within distance two (checked
//! with two max-propagation sweeps); every vertex within distance two of a
//! new MIS member is removed. Aggregation then attaches each vertex to a
//! root at distance one, and the remainder through a mapped neighbor
//! (distance two) — maximality guarantees two sweeps suffice.

use super::util::relabel;
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::rng::hash_index;
use mlcg_par::{parallel_count, parallel_for_mut, ExecPolicy};

const UNDECIDED: u32 = 0;
const IN_MIS: u32 = 1;
const REMOVED: u32 = 2;

/// MIS(2) coarsening through a level-reused workspace.
pub(crate) fn mis2(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
    let n = g.n();
    let mut stats = MapStats::default();
    // Unique random priorities: (hash, id) packed into u64 (id in the low
    // bits breaks hash collisions).
    ws.prio.clear();
    ws.prio
        .extend((0..n).map(|u| (hash_index(seed, u as u64) & !0xFFFF_FFFF) | u as u64));
    // `own` doubles as the MIS state array here.
    MapWorkspace::filled(&mut ws.own, n, UNDECIDED);

    // Both propagation arrays and the near flags are fully rewritten every
    // round, so a single capacity-reusing resize suffices.
    ws.t1.clear();
    ws.t1.resize(n, 0);
    ws.t2.clear();
    ws.t2.resize(n, 0);
    ws.near.clear();
    ws.near.resize(n, 0);
    loop {
        let state = &ws.own;
        let undecided = parallel_count(policy, n, |u| state[u] == UNDECIDED);
        if undecided == 0 {
            break;
        }
        // Sweep 1: t1[u] = max undecided priority within distance 1 of u.
        {
            let (state, prio) = (&ws.own, &ws.prio);
            parallel_for_mut(policy, &mut ws.t1, |u, t1u| {
                let mut best = if state[u] == UNDECIDED { prio[u] } else { 0 };
                for &v in g.neighbors(u as VId) {
                    if state[v as usize] == UNDECIDED {
                        best = best.max(prio[v as usize]);
                    }
                }
                *t1u = best;
            });
        }
        // Sweep 2: t2[u] = max of t1 within distance 1 => max undecided
        // priority within distance 2.
        {
            let t1 = &ws.t1;
            parallel_for_mut(policy, &mut ws.t2, |u, t2u| {
                let mut best = t1[u];
                for &v in g.neighbors(u as VId) {
                    best = best.max(t1[v as usize]);
                }
                *t2u = best;
            });
        }
        // Select: undecided local distance-2 maxima join the MIS.
        {
            let (prio, t2) = (&ws.prio, &ws.t2);
            parallel_for_mut(policy, &mut ws.own, |u, state| {
                if *state == UNDECIDED && prio[u] == t2[u] {
                    *state = IN_MIS;
                }
            });
        }
        // Remove everything within distance 2 of a (new) MIS vertex, via
        // two flag propagations.
        {
            let state = &ws.own;
            parallel_for_mut(policy, &mut ws.near, |u, near| {
                let hit = state[u] == IN_MIS
                    || g.neighbors(u as VId)
                        .iter()
                        .any(|&v| state[v as usize] == IN_MIS);
                *near = u8::from(hit);
            });
        }
        {
            let near = &ws.near;
            parallel_for_mut(policy, &mut ws.own, |u, state| {
                if *state == UNDECIDED
                    && (near[u] == 1
                        || g.neighbors(u as VId).iter().any(|&v| near[v as usize] == 1))
                {
                    *state = REMOVED;
                }
            });
        }
        stats.passes += 1;
        let state = &ws.own;
        let now_undecided = parallel_count(policy, n, |u| state[u] == UNDECIDED);
        stats.record_resolved(undecided - now_undecided);
        assert!(now_undecided < undecided, "MIS(2) made no progress");
    }

    // Aggregation: roots, then distance-1 attach, then distance-2 attach.
    let mut m = vec![UNMAPPED; n];
    {
        let state = &ws.own;
        parallel_for_mut(policy, &mut m, |u, mu| {
            if state[u] == IN_MIS {
                *mu = u as u32;
            }
        });
    }
    {
        // Distance-1: attach to the highest-priority adjacent root.
        MapWorkspace::snapshot(&mut ws.snap, &m);
        let (snap, prio, state) = (&ws.snap, &ws.prio, &ws.own);
        parallel_for_mut(policy, &mut m, |u, mu| {
            if snap[u] != UNMAPPED {
                return;
            }
            let mut best: Option<(u64, u32)> = None;
            for &v in g.neighbors(u as VId) {
                if state[v as usize] == IN_MIS {
                    let key = (prio[v as usize], v);
                    if best.is_none_or(|(bp, _)| key.0 > bp) {
                        best = Some(key);
                    }
                }
            }
            if let Some((_, v)) = best {
                *mu = v;
            }
        });
    }
    // Distance-2 (and a defensive loop for any pathological remainder):
    // attach through any already-mapped neighbor.
    loop {
        let remaining = parallel_count(policy, n, |u| m[u] == UNMAPPED);
        if remaining == 0 {
            break;
        }
        MapWorkspace::snapshot(&mut ws.snap, &m);
        let snap = &ws.snap;
        parallel_for_mut(policy, &mut m, |u, mu| {
            if snap[u] != UNMAPPED {
                return;
            }
            if let Some(mv) = g
                .neighbors(u as VId)
                .iter()
                .map(|&v| snap[v as usize])
                .find(|&mv| mv != UNMAPPED)
            {
                *mu = mv;
            }
        });
        let now = parallel_count(policy, n, |u| m[u] == UNMAPPED);
        assert!(
            now < remaining,
            "MIS(2) aggregation stalled (disconnected input?)"
        );
    }
    (relabel(policy, m, ws), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::generators as gen;

    /// BFS distance between two vertices (test helper).
    fn dist(g: &Csr, a: u32, b: u32) -> usize {
        let mut seen = vec![usize::MAX; g.n()];
        let mut q = std::collections::VecDeque::new();
        seen[a as usize] = 0;
        q.push_back(a);
        while let Some(u) = q.pop_front() {
            if u == b {
                return seen[u as usize];
            }
            for &v in g.neighbors(u) {
                if seen[v as usize] == usize::MAX {
                    seen[v as usize] = seen[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        usize::MAX
    }

    #[test]
    fn battery() {
        testkit::run_battery(MapMethod::Mis2);
    }

    #[test]
    fn roots_are_pairwise_distance_three_apart() {
        // The defining MIS(2) property: no two aggregate roots within
        // distance two. Roots are recovered as the (unique) fine vertices
        // that kept their own aggregate: re-derive by checking that each
        // aggregate contains exactly one vertex that is adjacent-or-equal
        // to every member (the star center). Simpler: rerun and inspect.
        let g = gen::grid2d(9, 9);
        let n = g.n();
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Mis2, 7);
        // Recover one representative per aggregate: a member whose every
        // aggregate sibling is within distance 2 — take the member that is
        // within distance 2 of all others.
        let mut members: Vec<Vec<u32>> = vec![vec![]; m.n_coarse];
        for u in 0..n as u32 {
            members[m.map[u as usize] as usize].push(u);
        }
        // Check the diameter bound of each aggregate: every member is
        // within distance 2 of some center, so the diameter is at most 4.
        for (a, mem) in members.iter().enumerate() {
            for i in 0..mem.len() {
                for j in (i + 1)..mem.len() {
                    let d = dist(&g, mem[i], mem[j]);
                    assert!(d <= 4, "aggregate {a}: members {d} apart");
                }
            }
        }
    }

    #[test]
    fn aggressive_on_dense_graphs() {
        // On a clique, the entire graph is one aggregate.
        let g = gen::complete(20);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Mis2, 3);
        assert_eq!(m.n_coarse, 1);
    }

    #[test]
    fn coarsens_faster_than_matching() {
        // MIS(2) needs far fewer levels than matching; per level, its
        // ratio on meshes is well above 2 (aggregates are distance-2 balls).
        let g = gen::grid2d(25, 25);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Mis2, 5);
        assert!(m.coarsening_ratio() > 3.0, "ratio {}", m.coarsening_ratio());
    }

    #[test]
    fn aggregates_connected() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Mis2, 11);
            testkit::check_mapping(name, &g, &m);
            testkit::check_aggregates_connected(&g, &m);
        }
    }

    #[test]
    fn path_roots_spacing() {
        let g = gen::path(30);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Mis2, 13);
        // On a path, aggregates are intervals of length <= 5 (center +- 2).
        let sizes = m.aggregate_sizes();
        assert!(sizes.iter().all(|&s| s <= 5), "sizes {sizes:?}");
    }
}
