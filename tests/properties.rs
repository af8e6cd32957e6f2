//! Cross-crate property-based tests: random graphs and mappings must
//! satisfy the paper's structural invariants for every algorithm
//! combination.
//!
//! Randomized via the dependency-free `mlcg_par::proplite` harness; a
//! failing case prints the seed that reproduces it.

use multilevel_coarsen::coarsen::construct::intra_aggregate_weight;
use multilevel_coarsen::graph::builder::from_edges_weighted;
use multilevel_coarsen::graph::cc::largest_component;
use multilevel_coarsen::graph::metrics::edge_cut;
use multilevel_coarsen::graph::Csr;
use multilevel_coarsen::par::proplite::{run_cases, Gen};
use multilevel_coarsen::prelude::*;

/// A connected random weighted graph with 2..=60 vertices.
fn connected_graph(g: &mut Gen) -> Csr {
    let n = g.usize_in(2, 60);
    let seed = g.u64();
    let mut rng = multilevel_coarsen::par::rng::Xoshiro256pp::new(seed);
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    // Random spanning tree ensures connectivity.
    for v in 1..n as u32 {
        let u = rng.next_below(v as u64) as u32;
        edges.push((u, v, 1 + rng.next_below(9)));
    }
    // Extra random edges.
    let extra = rng.next_below(3 * n as u64) as usize;
    for _ in 0..extra {
        let a = rng.next_below(n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        if a != b {
            edges.push((a, b, 1 + rng.next_below(9)));
        }
    }
    let (g, _) = largest_component(&from_edges_weighted(n, &edges));
    g
}

#[test]
fn every_mapper_yields_complete_contiguous_mappings() {
    run_cases(48, 0xC1, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let policy = ExecPolicy::serial();
        for method in [
            MapMethod::Hec,
            MapMethod::Hec2,
            MapMethod::Hec3,
            MapMethod::Hem,
            MapMethod::MtMetis,
            MapMethod::Gosh,
            MapMethod::GoshHec,
            MapMethod::Mis2,
            MapMethod::SeqHec,
            MapMethod::SeqHem,
        ] {
            let (m, _) = find_mapping(&policy, &g, method, seed);
            assert!(m.validate().is_ok(), "{method:?}: {:?}", m.validate());
            assert!(
                m.n_coarse < g.n() || g.n() <= 1,
                "{method:?} made no progress"
            );
        }
    });
}

#[test]
fn construction_methods_agree_and_conserve_weight() {
    run_cases(48, 0xC2, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let policy = ExecPolicy::serial();
        let (mapping, _) = find_mapping(&policy, &g, MapMethod::Hec, seed);
        let mut first: Option<Csr> = None;
        for cm in ConstructMethod::ALL {
            for threshold in [0.0, f64::INFINITY] {
                let opts = ConstructOptions {
                    method: cm,
                    degree_dedup_skew_threshold: threshold,
                };
                let c = construct_coarse_graph(&policy, &g, &mapping, &opts);
                assert!(c.validate().is_ok(), "{cm:?}: {:?}", c.validate());
                assert_eq!(
                    c.total_edge_weight() + intra_aggregate_weight(&policy, &g, &mapping),
                    g.total_edge_weight()
                );
                match &first {
                    None => first = Some(c),
                    Some(f) => assert_eq!(&c, f, "{cm:?}/{threshold} differs"),
                }
            }
        }
    });
}

#[test]
fn matchings_never_exceed_pair_size() {
    run_cases(48, 0xC3, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let policy = ExecPolicy::serial();
        for method in [MapMethod::Hem, MapMethod::MtMetis, MapMethod::SeqHem] {
            let (m, _) = find_mapping(&policy, &g, method, seed);
            let max = m.aggregate_sizes().into_iter().max().unwrap_or(0);
            assert!(max <= 2, "{method:?} aggregate size {max}");
        }
    });
}

#[test]
fn fm_never_increases_cut_and_stays_balanced() {
    run_cases(48, 0xC4, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let mut rng = multilevel_coarsen::par::rng::Xoshiro256pp::new(seed);
        let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
        // Repair balance to within one vertex before refining.
        loop {
            let ones = part.iter().filter(|&&p| p == 1).count();
            let zeros = part.len() - ones;
            if ones.abs_diff(zeros) <= 1 {
                break;
            }
            let from = u32::from(ones > zeros);
            let idx = part.iter().position(|&p| p == from).unwrap();
            part[idx] = 1 - from;
        }
        let before = edge_cut(&g, &part);
        let trace = TraceCollector::disabled();
        let cfg = FmConfig::default();
        let after =
            multilevel_coarsen::partition::fm::fm_refine(&g, &mut part, &cfg, 0.5, None, &trace)
                .cut;
        assert!(after <= before, "FM worsened {before} -> {after}");
        assert_eq!(after, edge_cut(&g, &part));
        let (w0, w1) = multilevel_coarsen::graph::metrics::part_weights(&g, &part);
        let total = w0 + w1;
        assert!(
            w0.max(w1) <= (total.div_ceil(2) as f64 * 1.03) as u64 + 1,
            "imbalanced: {w0}/{w1}"
        );
    });
}

#[test]
fn coarsening_projection_preserves_cut() {
    run_cases(48, 0xC5, |gen| {
        let g = connected_graph(gen);
        let seed = gen.u64();
        let policy = ExecPolicy::serial();
        let opts = CoarsenOptions {
            cutoff: 8,
            seed,
            ..Default::default()
        };
        let h = coarsen(&policy, &g, &opts);
        let nc = h.coarsest().n();
        let part: Vec<u32> = (0..nc as u32).map(|u| u % 2).collect();
        let coarse_cut = edge_cut(h.coarsest(), &part);
        let fine = h.project_to_fine(&part);
        assert_eq!(edge_cut(&g, &fine), coarse_cut);
    });
}

#[test]
fn prefix_sums_and_sorts_compose() {
    run_cases(48, 0xC6, |gen| {
        let mut values = gen.vec_u64(300, 100);
        // exclusive_scan(values)[i] + values_orig[i] == inclusive at i.
        let policy = ExecPolicy::serial();
        let orig = values.clone();
        let total = multilevel_coarsen::par::scan::exclusive_scan(&policy, &mut values);
        assert_eq!(total, orig.iter().sum::<u64>());
        for i in 0..orig.len() {
            let expect: u64 = orig[..i].iter().sum();
            assert_eq!(values[i], expect);
        }
    });
}
