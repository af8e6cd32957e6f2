//! Property suite for coarse-graph construction: every strategy, dedup
//! flavour, skew threshold {0, 10, ∞}, execution policy, and fresh or
//! reused workspace must reproduce a naive per-row `BTreeMap` reference
//! bit for bit — on regular and hub-heavy families and on the edge cases
//! of the row build (a single aggregate, the identity mapping, aggregates
//! with no outside edges, and one aggregate holding most of the member
//! work, which splits its row under every parallel policy). Also pins the
//! workspace's reason to exist: `mem/construct/peak_bytes` drops on
//! hierarchy levels ≥ 1 when one [`ConstructWorkspace`] is reused.
//!
//! Runs in the `MLCG_SPIN_US=0` pure-park CI stress job, where every
//! dispatch parks and wakes workers — the harshest schedule for the
//! counting sorts, the split-row merge, and the transpose.

use mlcg_coarsen::construct::testkit;
use mlcg_coarsen::{
    construct_coarse_graph_in, ConstructMethod, ConstructOptions, ConstructWorkspace, Mapping,
};
use mlcg_graph::builder::from_edges_weighted;
use mlcg_graph::generators as gen;
use mlcg_graph::{Csr, VId};
use mlcg_par::ExecPolicy;

fn mapping(map: Vec<u32>) -> Mapping {
    let n_coarse = map.iter().max().map_or(0, |&c| c as usize + 1);
    let m = Mapping { map, n_coarse };
    m.validate().unwrap();
    m
}

/// Hub alone, leaves in groups of 8: the coarse graph is again a star and
/// aggregate 0's row is the longest by far.
fn grouped_star_mapping(n: usize) -> Mapping {
    mapping(
        (0..n as u32)
            .map(|u| if u == 0 { 0 } else { 1 + (u - 1) / 8 })
            .collect(),
    )
}

/// Disjoint weighted triangles, each collapsed to one aggregate with no
/// outside edge, joined to a path whose vertices pair up.
fn closed_aggregates() -> (Csr, Mapping) {
    let (tris, path) = (6u32, 20u32);
    let mut edges = Vec::new();
    for t in 0..tris {
        let b = 3 * t;
        edges.extend([(b, b + 1, 2 + t as u64), (b + 1, b + 2, 3), (b, b + 2, 5)]);
    }
    let p0 = 3 * tris;
    for i in 0..path - 1 {
        edges.push((p0 + i, p0 + i + 1, 1 + (i % 4) as u64));
    }
    let g = from_edges_weighted((p0 + path) as usize, &edges);
    let map = (0..p0 + path)
        .map(|u| if u < p0 { u / 3 } else { tris + (u - p0) / 2 })
        .collect();
    (g, mapping(map))
}

/// The highest-degree vertices form aggregate 0 until it holds more than
/// half of the member work; the rest pair up in index order.
fn dominant_aggregate(g: &Csr) -> Mapping {
    let mut by_degree: Vec<VId> = (0..g.n() as VId).collect();
    by_degree.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));
    let mut map = vec![u32::MAX; g.n()];
    let mut work = 0;
    for &u in &by_degree {
        if 2 * work > g.adj().len() {
            break;
        }
        map[u as usize] = 0;
        work += g.degree(u);
    }
    for (next, c) in map.iter_mut().filter(|c| **c == u32::MAX).enumerate() {
        *c = 1 + next as u32 / 2;
    }
    mapping(map)
}

fn families() -> Vec<(&'static str, Csr, Mapping)> {
    let grid = gen::grid2d(32, 32);
    let grid_map = testkit::mapped(&grid, 11);
    let (rmat, _) = mlcg_graph::cc::largest_component(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 5));
    let rmat_map = testkit::mapped(&rmat, 13);
    let rmat_dominant = dominant_aggregate(&rmat);
    let star = gen::star(8192);
    let star_map = grouped_star_mapping(8192);
    let single = gen::grid2d(12, 12);
    let single_map = mapping(vec![0; single.n()]);
    let ident = gen::grid2d(16, 16);
    let ident_map = mapping((0..ident.n() as u32).collect());
    let (closed, closed_map) = closed_aggregates();
    vec![
        ("grid-32x32", grid, grid_map),
        ("rmat-9", rmat.clone(), rmat_map),
        ("rmat-9/dominant", rmat, rmat_dominant),
        ("star-8192", star, star_map),
        ("grid-12x12/single", single, single_map),
        ("grid-16x16/identity", ident, ident_map),
        ("triangles+path/closed", closed, closed_map),
    ]
}

#[test]
fn all_methods_policies_and_workspace_reuse_bit_identical() {
    let policies = ExecPolicy::all_test_policies();
    for (name, g, mapping) in families() {
        // cross_check_policies runs every method × threshold × policy,
        // each with a fresh and with one shared workspace, and asserts
        // every result equals the naive reference bit for bit.
        let c = testkit::cross_check_policies(&g, &mapping, &policies);
        assert_eq!(c.n(), mapping.n_coarse, "{name}");
        match name {
            "grid-12x12/single" => assert_eq!(c.m(), 0),
            "grid-16x16/identity" => {
                assert_eq!(
                    (c.offsets(), c.adj(), c.wgt()),
                    (g.offsets(), g.adj(), g.wgt())
                )
            }
            "triangles+path/closed" => {
                assert!((0..6).all(|t| c.degree(t) == 0), "triangles stay isolated")
            }
            _ => {}
        }
    }
}

#[test]
fn two_consecutive_levels_through_one_workspace() {
    // Drive two hierarchy levels through a single workspace (exactly what
    // the multilevel driver does) and check each level against a
    // fresh-workspace build, for every method, under a parallel policy.
    let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 7));
    let policy = ExecPolicy::host();
    for method in ConstructMethod::ALL {
        let opts = ConstructOptions::with_method(method);
        let mut ws = ConstructWorkspace::new();

        let map0 = testkit::mapped(&g, 3);
        let l1_fresh =
            construct_coarse_graph_in(&policy, &g, &map0, &opts, &mut ConstructWorkspace::new());
        let l1 = construct_coarse_graph_in(&policy, &g, &map0, &opts, &mut ws);
        assert_eq!(l1, l1_fresh, "{method:?}: level 0");

        let map1 = testkit::mapped(&l1, 4);
        let l2_fresh =
            construct_coarse_graph_in(&policy, &l1, &map1, &opts, &mut ConstructWorkspace::new());
        let l2 = construct_coarse_graph_in(&policy, &l1, &map1, &opts, &mut ws);
        assert_eq!(l2, l2_fresh, "{method:?}: level 1 through reused workspace");
        l2.validate().unwrap();
    }
}

#[test]
fn workspace_reuse_drops_construct_peak_on_later_levels() {
    // The workspace's acceptance criterion: constructing level 1 through
    // the workspace that already built level 0 must allocate strictly less
    // at peak than the same construction with a cold workspace, because
    // the counting arrays, F/X, and the pooled scratch are already sized.
    // Serial policy so the tracking allocator sees the full envelope
    // (worker-thread allocations are attributed to the allocating thread).
    let policy = ExecPolicy::serial();
    let g = gen::grid2d(64, 64);
    for method in [
        ConstructMethod::Sort,
        ConstructMethod::Hash,
        ConstructMethod::GlobalSort,
    ] {
        let opts = ConstructOptions::with_method(method);
        let mut ws = ConstructWorkspace::new();

        let map0 = testkit::mapped(&g, 21);
        let l1 = construct_coarse_graph_in(&policy, &g, &map0, &opts, &mut ws);
        let map1 = testkit::mapped(&l1, 22);

        let (_, fresh) = mlcg_par::mem::measure(|| {
            construct_coarse_graph_in(&policy, &l1, &map1, &opts, &mut ConstructWorkspace::new())
        });
        let (_, reused) = mlcg_par::mem::measure(|| {
            construct_coarse_graph_in(&policy, &l1, &map1, &opts, &mut ws)
        });
        assert!(
            reused.peak_bytes < fresh.peak_bytes,
            "{method:?}: reused workspace peak {} must be below cold-workspace peak {}",
            reused.peak_bytes,
            fresh.peak_bytes
        );
    }
}
