//! Suitor weighted matching (Manne & Halappanavar) as a coarsening mapper.
//!
//! The paper lists comparing against "approximation algorithms for
//! weighted maximal matching such as Suitor" as future work; this module
//! implements it. Each vertex proposes to its heaviest neighbor whose
//! current suitor offer it can beat, dislodging weaker suitors, until no
//! proposals change — yielding the same matching as the sequential greedy
//! algorithm (a ½-approximation of maximum weight), but discovered in
//! parallel-friendly local steps.
//!
//! The implementation below runs the classic dislodge loop with a
//! sequential work stack; proposal keys are `(weight, seeded hash)` so
//! ties on unweighted graphs resolve randomly (deterministic per seed).
//! Matched pairs become coarse vertices; leftovers become singletons
//! (like HEM).

use super::hem::finalize_singletons;
use super::util::relabel;
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::perm::{random_permutation, random_permutation_in};
use mlcg_par::rng::hash_index;
use mlcg_par::ExecPolicy;

/// Seeded symmetric *edge* priority. Suitor's correctness (the suitor
/// relation converging to the symmetric greedy-matching fixpoint) needs a
/// total order on edges: per-endpoint tie-breaks let proposal 3-cycles
/// form on equal weights, leaving everyone unmatched. Hashing the
/// unordered endpoint pair gives each edge one global rank, randomized
/// per seed so unweighted graphs still match well.
#[inline]
fn edge_prio(seed: u64, u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    hash_index(seed, ((a as u64) << 32) | b as u64)
}

/// Suitor-based matching coarsening through a level-reused workspace: the
/// suitor array lives in `ws.own`, the (weight, priority) offer keys are
/// split across the two u64 scratch arrays, and the permutation doubles
/// as the work stack.
pub(crate) fn suitor(
    policy: &ExecPolicy,
    g: &Csr,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
    let n = g.n();
    // suitor_of[v] = current best proposer of v; (t1[v], t2[v]) = its
    // (weight, priority) offer key, compared lexicographically.
    MapWorkspace::filled(&mut ws.own, n, UNMAPPED);
    ws.t1.clear();
    ws.t1.resize(n, 0);
    ws.t2.clear();
    ws.t2.resize(n, 0);
    let (suitor_of, offer_w, offer_p) = (&mut ws.own, &mut ws.t1, &mut ws.t2);

    // The random visit order is consumed stack-wise, so generate it
    // straight into the queue buffer and pop in place.
    random_permutation_in(policy, n, seed, &mut ws.perm_keys, &mut ws.queue);
    let stack = &mut ws.queue;
    let mut steps = 0usize;
    while let Some(u) = stack.pop() {
        steps += 1;
        assert!(
            steps <= 4 * n * (g.max_degree() + 2),
            "suitor dislodge loop exceeded its theoretical bound"
        );
        // u proposes along its best-ranked incident edge that can still
        // dislodge the target's current offer.
        let mut best: Option<(u64, u64, u32)> = None;
        for (v, w) in g.edges(u as VId) {
            let key = (w, edge_prio(seed, u, v));
            if key > (offer_w[v as usize], offer_p[v as usize]) {
                let cand = (key.0, key.1, v);
                match best {
                    Some(b) if b >= cand => {}
                    _ => best = Some(cand),
                }
            }
        }
        if let Some((w, ep, v)) = best {
            let dislodged = suitor_of[v as usize];
            suitor_of[v as usize] = u;
            offer_w[v as usize] = w;
            offer_p[v as usize] = ep;
            if dislodged != UNMAPPED {
                stack.push(dislodged); // must propose elsewhere
            }
        }
    }

    // Mutual suitors form the matching.
    let mut m = vec![UNMAPPED; n];
    for v in 0..n as u32 {
        let u = ws.own[v as usize];
        if u != UNMAPPED && ws.own[u as usize] == v && m[v as usize] == UNMAPPED {
            let label = u.min(v);
            m[u as usize] = label;
            m[v as usize] = label;
        }
    }
    let mapping = relabel(policy, finalize_singletons(m), ws);
    (
        mapping,
        MapStats {
            passes: 1,
            resolved_per_pass: vec![n],
            resolved_overflow: 0,
        },
    )
}

/// b-Suitor approximate weighted *b-matching* coarsening (Khan et al.) —
/// the paper's second listed future-work comparison.
///
/// Every vertex may keep up to `b` suitors and make up to `b` proposals;
/// a proposal must beat the target's current *worst* retained offer.
/// Mutual proposals become b-matching edges; contracting them (connected
/// components of the matched edge set) yields the coarse mapping, so
/// aggregates can be chains/cycles of up to `b`-degree vertices rather
/// than pairs.
pub fn b_suitor(policy: &ExecPolicy, g: &Csr, b: usize, seed: u64) -> (Mapping, MapStats) {
    assert!(b >= 1, "b must be positive");
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
    // offers[v]: up to b retained (weight, priority, proposer) triples,
    // ascending, so offers[v][0] is the weakest retained offer. Priorities
    // are hashed (see `prio`) so unweighted graphs still pair up.
    let mut offers: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); n];
    let order = random_permutation(policy, n, seed);
    // Each stack entry is a vertex that still owes proposals.
    let mut stack: Vec<u32> = order.to_vec();
    let mut proposals: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n]; // (w, target)
    let mut steps = 0usize;
    while let Some(u) = stack.pop() {
        steps += 1;
        assert!(
            steps <= 2 * n * (b + 1) * (g.max_degree() + 2),
            "b-suitor dislodge loop exceeded its bound"
        );
        while proposals[u as usize].len() < b {
            // Best-ranked incident edge u can still win and has not
            // already proposed along.
            let mut best: Option<(u64, u64, u32)> = None;
            for (v, w) in g.edges(u as VId) {
                if proposals[u as usize].iter().any(|&(_, t)| t == v) {
                    continue;
                }
                let ep = edge_prio(seed, u, v);
                let beats = offers[v as usize].len() < b
                    || (w, ep) > (offers[v as usize][0].0, offers[v as usize][0].1);
                if beats {
                    let cand = (w, ep, v);
                    match best {
                        Some(bk) if bk >= cand => {}
                        _ => best = Some(cand),
                    }
                }
            }
            let Some((w, ep, v)) = best else { break };
            proposals[u as usize].push((w, v));
            let slot = &mut offers[v as usize];
            slot.push((w, ep, u));
            slot.sort_unstable();
            if slot.len() > b {
                let (_, _, dislodged) = slot.remove(0);
                // The dislodged proposer must retract and re-propose.
                proposals[dislodged as usize].retain(|&(_, t)| t != v);
                stack.push(dislodged);
            }
        }
    }
    // An edge is matched when each endpoint retains the other's offer;
    // contract the matched components.
    let mut dsu = mlcg_graph::cc::Dsu::new(n);
    for v in 0..n as u32 {
        for &(_, _, u) in &offers[v as usize] {
            if offers[u as usize].iter().any(|&(_, _, s)| s == v) {
                dsu.union(u, v);
            }
        }
    }
    let mut raw = vec![super::UNMAPPED; n];
    for u in 0..n as u32 {
        raw[u as usize] = dsu.find(u);
    }
    let mapping = relabel(policy, raw, &mut MapWorkspace::new());
    (
        mapping,
        MapStats {
            passes: 1,
            resolved_per_pass: vec![n],
            resolved_overflow: 0,
        },
    )
}

/// Total weight of the matching encoded in a (pair-sized) mapping.
pub fn matching_weight(g: &Csr, mapping: &Mapping) -> u64 {
    let mut members: Vec<Vec<u32>> = vec![vec![]; mapping.n_coarse];
    for (u, &a) in mapping.map.iter().enumerate() {
        members[a as usize].push(u as u32);
    }
    members
        .iter()
        .filter(|p| p.len() == 2)
        .map(|p| {
            g.find_edge(p[0], p[1])
                .expect("matched pair must be adjacent")
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators as gen;

    #[test]
    fn battery() {
        for policy in ExecPolicy::all_test_policies() {
            for (name, g) in testkit::battery() {
                let (m, _) = find_mapping(&policy, &g, MapMethod::Suitor, 42);
                testkit::check_mapping(name, &g, &m);
                assert!(
                    m.aggregate_sizes().into_iter().max().unwrap_or(0) <= 2,
                    "{name}: suitor must produce a matching"
                );
            }
        }
    }

    #[test]
    fn matches_greedy_on_weighted_path() {
        // Path with weights 1, 9, 1: greedy takes the middle edge only.
        let g = from_edges_weighted(4, &[(0, 1, 1), (1, 2, 9), (2, 3, 1)]);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Suitor, 5);
        assert_eq!(m.map[1], m.map[2]);
        assert_ne!(m.map[0], m.map[1]);
        assert_ne!(m.map[3], m.map[2]);
        assert_eq!(matching_weight(&g, &m), 9);
    }

    #[test]
    fn half_approximation_bound_on_even_path() {
        // Path of 2k vertices with unit weights: max matching = k.
        let g = gen::path(20);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Suitor, 7);
        let w = matching_weight(&g, &m);
        assert!(w * 2 >= 10, "suitor weight {w} below the 1/2-approx bound");
    }

    #[test]
    fn beats_or_ties_hem_weight_on_random_weighted_graphs() {
        // Suitor equals the greedy matching, which dominates random-order
        // HEM in expectation; require it to be at least comparable.
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(3);
        let n = 200usize;
        let mut edges = Vec::new();
        for v in 1..n as u32 {
            edges.push((rng.next_below(v as u64) as u32, v, 1 + rng.next_below(100)));
        }
        for _ in 0..400 {
            let a = rng.next_below(n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            if a != b {
                edges.push((a, b, 1 + rng.next_below(100)));
            }
        }
        let g = mlcg_graph::cc::largest_component(&from_edges_weighted(n, &edges)).0;
        let p = ExecPolicy::serial();
        let (ms, _) = find_mapping(&p, &g, MapMethod::Suitor, 1);
        let (mh, _) = find_mapping(&p, &g, MapMethod::Hem, 1);
        let (ws, wh) = (matching_weight(&g, &ms), matching_weight(&g, &mh));
        assert!(
            ws as f64 >= 0.9 * wh as f64,
            "suitor weight {ws} unexpectedly below HEM weight {wh}"
        );
    }

    #[test]
    fn b_suitor_matches_suitor_for_b_one() {
        for (name, g) in testkit::battery() {
            let p = ExecPolicy::serial();
            let (m1, _) = find_mapping(&p, &g, MapMethod::Suitor, 11);
            let (mb, _) = b_suitor(&p, &g, 1, 11);
            // The matchings coincide (same greedy fixpoint), so the
            // aggregate structure must be identical.
            assert_eq!(m1.n_coarse, mb.n_coarse, "{name}");
            let (mut s1, mut sb) = (m1.aggregate_sizes(), mb.aggregate_sizes());
            s1.sort_unstable();
            sb.sort_unstable();
            assert_eq!(s1, sb, "{name}: size multisets differ");
        }
    }

    #[test]
    fn b_two_aggregates_are_connected_and_low_degree() {
        let g = gen::grid2d(12, 12);
        let (m, _) = b_suitor(&ExecPolicy::serial(), &g, 2, 5);
        crate::mapping::testkit::check_mapping("grid-b2", &g, &m);
        crate::mapping::testkit::check_aggregates_connected(&g, &m);
        // 2-matching components are paths/cycles: ratio in (1, 3+] but the
        // coarse count must be well below HEM's (more merges allowed).
        let (mh, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hem, 5);
        assert!(
            m.n_coarse <= mh.n_coarse,
            "b=2 should merge at least as much"
        );
    }

    #[test]
    fn b_suitor_increases_matched_weight_with_b() {
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(9);
        let n = 150usize;
        let mut edges = Vec::new();
        for v in 1..n as u32 {
            edges.push((rng.next_below(v as u64) as u32, v, 1 + rng.next_below(50)));
        }
        for _ in 0..300 {
            let a = rng.next_below(n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            if a != b {
                edges.push((a, b, 1 + rng.next_below(50)));
            }
        }
        let g = mlcg_graph::cc::largest_component(&from_edges_weighted(n, &edges)).0;
        let p = ExecPolicy::serial();
        // More matching slots -> more intra-aggregate weight contracted.
        let intra =
            |m: &crate::mapping::Mapping| crate::construct::intra_aggregate_weight(&p, &g, m);
        let (m1, _) = b_suitor(&p, &g, 1, 3);
        let (m2, _) = b_suitor(&p, &g, 2, 3);
        assert!(
            intra(&m2) >= intra(&m1),
            "b=2 contracted weight {} below b=1 {}",
            intra(&m2),
            intra(&m1)
        );
    }

    #[test]
    fn matching_is_maximal() {
        let g = gen::grid2d(10, 10);
        let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Suitor, 9);
        let sizes = m.aggregate_sizes();
        for u in 0..g.n() as u32 {
            for &v in g.neighbors(u) {
                let (au, av) = (m.map[u as usize], m.map[v as usize]);
                assert!(
                    !(au != av && sizes[au as usize] == 1 && sizes[av as usize] == 1),
                    "adjacent singletons {u},{v} violate maximality"
                );
            }
        }
    }
}
