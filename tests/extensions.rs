//! Integration tests for the features this reproduction adds beyond the
//! paper's evaluation: Suitor/b-Suitor coarsening, the hybrid dedup
//! construction, ACE weighted aggregation, k-way partitioning, and the
//! parallel refinement — each exercised end-to-end.

use multilevel_coarsen::coarsen::ace::{ace_coarsen, AceOptions};
use multilevel_coarsen::coarsen::mapping::suitor::b_suitor;
use multilevel_coarsen::graph::metrics::edge_cut;
use multilevel_coarsen::graph::suite;
use multilevel_coarsen::partition::fm::fm_uncoarsen_frac_hybrid;
use multilevel_coarsen::partition::kway::kway_partition;
use multilevel_coarsen::partition::parref::ParRefConfig;
use multilevel_coarsen::prelude::*;

#[test]
fn suitor_drives_a_full_multilevel_partition() {
    let policy = ExecPolicy::host();
    for ng in suite::mini_suite(3) {
        let opts = CoarsenOptions {
            method: MapMethod::Suitor,
            ..Default::default()
        };
        let r = fm_bisect(&policy, &ng.graph, &opts, &FmConfig::default(), 5);
        assert_eq!(r.cut, edge_cut(&ng.graph, &r.part), "{}", ng.name);
        assert!(
            r.imbalance <= 1.05,
            "{}: imbalance {}",
            ng.name,
            r.imbalance
        );
        assert!(r.levels >= 1, "{}", ng.name);
    }
}

#[test]
fn hybrid_construction_equals_sort_along_a_hierarchy() {
    let policy = ExecPolicy::host();
    for ng in suite::mini_suite(9) {
        let mk = |cm| CoarsenOptions {
            construction: ConstructOptions::with_method(cm),
            ..Default::default()
        };
        let a = coarsen(&policy, &ng.graph, &mk(ConstructMethod::Sort));
        let b = coarsen(&policy, &ng.graph, &mk(ConstructMethod::Hybrid));
        assert_eq!(a.num_levels(), b.num_levels(), "{}", ng.name);
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.graph, lb.graph, "{}: hybrid dedup diverged", ng.name);
        }
    }
}

#[test]
fn b_suitor_coarsens_deeper_with_larger_b() {
    let policy = ExecPolicy::serial();
    for ng in suite::mini_suite(5) {
        let (m1, _) = b_suitor(&policy, &ng.graph, 1, 3);
        let (m2, _) = b_suitor(&policy, &ng.graph, 2, 3);
        assert!(
            m2.n_coarse <= m1.n_coarse,
            "{}: b=2 gave {} vs b=1 {}",
            ng.name,
            m2.n_coarse,
            m1.n_coarse
        );
        m1.validate().unwrap();
        m2.validate().unwrap();
    }
}

#[test]
fn ace_levels_stack_into_a_multilevel_hierarchy() {
    // Chain two ACE levels manually: coarse operator of level 1 (rounded
    // to a graph) feeds level 2.
    let g = multilevel_coarsen::graph::generators::grid2d(20, 20);
    let policy = ExecPolicy::host();
    let l1 = ace_coarsen(&policy, &g, &AceOptions::default());
    assert!(l1.seeds.len() < g.n());
    assert!(l1.seeds.len() > 20);
    // The coarse operator's diagonal carries intra-aggregate weight; its
    // off-diagonal pattern must connect the seeds (no empty rows).
    for i in 0..l1.coarse.n_rows {
        assert!(!l1.coarse.row(i).0.is_empty(), "isolated coarse vertex {i}");
    }
}

#[test]
fn kway_and_parref_on_the_mini_suite() {
    let policy = ExecPolicy::host();
    for ng in suite::mini_suite(13) {
        let g = &ng.graph;
        let kw = kway_partition(
            &policy,
            g,
            4,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            3,
        );
        assert_eq!(kw.cut, edge_cut(g, &kw.part), "{}", ng.name);
        assert!(
            kw.imbalance <= 1.4,
            "{}: kway imbalance {}",
            ng.name,
            kw.imbalance
        );

        // Crossover 1: parallel rounds run on every uncoarsening level.
        let h = coarsen(&policy, g, &CoarsenOptions::default());
        let parref = ParRefConfig {
            crossover_frontier: Some(1),
            ..Default::default()
        };
        let trace = TraceCollector::disabled();
        let part =
            fm_uncoarsen_frac_hybrid(&policy, &h, &FmConfig::default(), &parref, 0.5, 3, &trace);
        let pr_cut = edge_cut(g, &part);
        let fm = fm_bisect(
            &policy,
            g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            3,
        );
        assert!(
            pr_cut as f64 <= 2.5 * fm.cut.max(1) as f64,
            "{}: parallel refinement too weak ({} vs {})",
            ng.name,
            pr_cut,
            fm.cut
        );
    }
}
