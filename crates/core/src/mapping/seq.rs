//! Sequential reference implementations: HEM (the paper's Algorithm 2) and
//! HEC (Algorithm 3). These define the semantics the parallelizations
//! relax, and serve as test oracles for aggregate-structure invariants.

use super::util::relabel;
use super::workspace::MapWorkspace;
use super::{MapStats, Mapping, UNMAPPED};
use mlcg_graph::{Csr, VId};
use mlcg_par::perm::random_permutation_in;
use mlcg_par::ExecPolicy;

/// Sequential Heavy Edge Matching (Algorithm 2): visit vertices in random
/// order; an unmatched vertex pairs with its heaviest *unmatched* neighbor,
/// or becomes a singleton. Runs through a level-reused workspace.
pub(crate) fn seq_hem(g: &Csr, seed: u64, ws: &mut MapWorkspace) -> (Mapping, MapStats) {
    let n = g.n();
    let serial = ExecPolicy::serial();
    random_permutation_in(&serial, n, seed, &mut ws.perm_keys, &mut ws.queue);
    let mut m = vec![UNMAPPED; n];
    let mut next = 0u32;
    for &u in &ws.queue {
        if m[u as usize] != UNMAPPED {
            continue;
        }
        let mut best_w = 0u64;
        let mut best: Option<VId> = None;
        for (v, w) in g.edges(u) {
            if m[v as usize] == UNMAPPED && w > best_w {
                best_w = w;
                best = Some(v);
            }
        }
        if let Some(x) = best {
            m[x as usize] = next;
        }
        m[u as usize] = next;
        next += 1;
    }
    let n_coarse = next as usize;
    (
        Mapping { map: m, n_coarse },
        MapStats {
            passes: 1,
            resolved_per_pass: vec![n],
            resolved_overflow: 0,
        },
    )
}

/// Sequential Heavy Edge Coarsening (Algorithm 3): visit vertices in random
/// order; an unmapped vertex joins its heaviest neighbor's aggregate,
/// creating it if the neighbor is also unmapped; a vertex with no neighbor
/// becomes a singleton aggregate. Runs through a level-reused
/// workspace: the membership scratch array lives in `ws.own`, and only
/// `raw` escapes into the relabel.
pub(crate) fn seq_hec(g: &Csr, seed: u64, ws: &mut MapWorkspace) -> (Mapping, MapStats) {
    let n = g.n();
    let serial = ExecPolicy::serial();
    random_permutation_in(&serial, n, seed, &mut ws.perm_keys, &mut ws.queue);
    MapWorkspace::filled(&mut ws.own, n, UNMAPPED);
    let mut raw = vec![UNMAPPED; n]; // labels are representative vertex ids
    let (m, order) = (&mut ws.own, &ws.queue);
    for &u in order {
        if m[u as usize] != UNMAPPED {
            continue;
        }
        let mut best_w = 0u64;
        let mut x: Option<VId> = None;
        for (v, w) in g.edges(u) {
            if w > best_w {
                best_w = w;
                x = Some(v);
            }
        }
        let x = x.unwrap_or(u);
        if m[x as usize] == UNMAPPED {
            m[x as usize] = x;
            raw[x as usize] = x;
        }
        m[u as usize] = m[x as usize];
        raw[u as usize] = m[x as usize];
    }
    let mapping = relabel(&serial, raw, ws);
    (
        mapping,
        MapStats {
            passes: 1,
            resolved_per_pass: vec![n],
            resolved_overflow: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{find_mapping, testkit, MapMethod};
    use mlcg_graph::builder::from_edges_weighted;
    use mlcg_graph::generators as gen;

    #[test]
    fn battery_seq_hem() {
        testkit::run_battery(MapMethod::SeqHem);
    }

    #[test]
    fn battery_seq_hec() {
        testkit::run_battery(MapMethod::SeqHec);
    }

    #[test]
    fn seq_hem_is_a_maximal_matching() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::SeqHem, 3);
            let sizes = m.aggregate_sizes();
            assert!(sizes.iter().all(|&s| s <= 2), "{name}: matching bound");
            // Maximality: no edge joins two singleton aggregates.
            let mut agg_size = vec![0usize; m.n_coarse];
            for &a in &m.map {
                agg_size[a as usize] += 1;
            }
            for u in 0..g.n() as u32 {
                for &v in g.neighbors(u) {
                    let (au, av) = (m.map[u as usize], m.map[v as usize]);
                    assert!(
                        !(au != av && agg_size[au as usize] == 1 && agg_size[av as usize] == 1),
                        "{name}: unmatched adjacent singletons {u},{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn seq_hec_follows_heavy_edges() {
        // Triangle-free 3-vertex case where every visit order merges the
        // heavy pair: H = [1, 0, 0], so whichever vertex is visited first
        // creates or joins an aggregate containing 0, and 1 inherits it.
        for seed in 0..20 {
            let g = from_edges_weighted(3, &[(0, 1, 9), (0, 2, 1)]);
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::SeqHec, seed);
            assert_eq!(m.map[0], m.map[1], "seed {seed}");
        }
    }

    #[test]
    fn seq_hec_aggregates_connected() {
        for (name, g) in testkit::battery() {
            let (m, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::SeqHec, 7);
            testkit::check_mapping(name, &g, &m);
            testkit::check_aggregates_connected(&g, &m);
        }
    }

    #[test]
    fn seq_hec_star_is_single_aggregate() {
        let (m, _) = find_mapping(&ExecPolicy::serial(), &gen::star(30), MapMethod::SeqHec, 1);
        assert_eq!(m.n_coarse, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::grid2d(15, 15);
        let map = |method, seed| find_mapping(&ExecPolicy::serial(), &g, method, seed).0;
        assert_eq!(map(MapMethod::SeqHec, 5), map(MapMethod::SeqHec, 5));
        assert_eq!(map(MapMethod::SeqHem, 5), map(MapMethod::SeqHem, 5));
        assert_ne!(map(MapMethod::SeqHec, 5), map(MapMethod::SeqHec, 6));
    }

    #[test]
    fn parallel_hec_ratio_tracks_sequential() {
        // The parallel algorithm is "in the spirit of" the sequential one:
        // coarse counts should be in the same ballpark.
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 2));
        let (seq, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::SeqHec, 3);
        let (par, _) = find_mapping(&ExecPolicy::serial(), &g, MapMethod::Hec, 3);
        let ratio = par.n_coarse as f64 / seq.n_coarse as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "par {} vs seq {}",
            par.n_coarse,
            seq.n_coarse
        );
    }
}
