//! Property suite for the mapping phase: every method must be
//! bit-identical between a fresh [`MapWorkspace`] and a shared, reused one
//! — on regular and hub-heavy families, across two consecutive hierarchy
//! levels — and the schedule-deterministic methods must additionally be
//! bit-identical across every execution policy. Also pins the workspace's
//! reason to exist: the mapping-phase allocation peak drops on hierarchy
//! levels ≥ 1 when one workspace is reused.
//!
//! Runs in the `MLCG_SPIN_US=0` pure-park CI stress job, where every
//! dispatch parks and wakes workers — the harshest schedule for the
//! compaction and relabel passes.

use mlcg_coarsen::{
    construct_coarse_graph, find_mapping, find_mapping_in, ConstructOptions, MapMethod,
    MapWorkspace,
};
use mlcg_graph::generators as gen;
use mlcg_graph::Csr;
use mlcg_par::ExecPolicy;

const ALL_METHODS: [MapMethod; 11] = [
    MapMethod::Hec,
    MapMethod::Hec2,
    MapMethod::Hec3,
    MapMethod::Hem,
    MapMethod::MtMetis,
    MapMethod::Gosh,
    MapMethod::GoshHec,
    MapMethod::Mis2,
    MapMethod::Suitor,
    MapMethod::SeqHec,
    MapMethod::SeqHem,
];

/// Methods whose output is independent of the parallel schedule: no
/// winner-takes-the-slot CAS race reaches the final labels. The remaining
/// methods (Hem, MtMetis, Gosh) are deterministic under the serial policy
/// only.
const SCHEDULE_DETERMINISTIC: [MapMethod; 8] = [
    MapMethod::Hec,
    MapMethod::Hec2,
    MapMethod::Hec3,
    MapMethod::GoshHec,
    MapMethod::Mis2,
    MapMethod::Suitor,
    MapMethod::SeqHec,
    MapMethod::SeqHem,
];

fn families() -> Vec<(&'static str, Csr)> {
    let (rmat, _) = mlcg_graph::cc::largest_component(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 5));
    vec![
        ("grid-32x32", gen::grid2d(32, 32)),
        ("rmat-9", rmat),
        ("star-8192", gen::star(8192)),
    ]
}

#[test]
fn fresh_and_shared_workspace_bit_identical_all_methods() {
    // One workspace threaded through every (family × method × seed) run:
    // stale capacity, stale flags, or stale queue contents from any prior
    // run must never leak into a result.
    let serial = ExecPolicy::serial();
    let mut ws = MapWorkspace::new();
    for (name, g) in families() {
        for method in ALL_METHODS {
            for seed in [7u64, 42] {
                let (fresh, fresh_stats) = find_mapping(&serial, &g, method, seed);
                let (shared, shared_stats) = find_mapping_in(&serial, &g, method, seed, &mut ws);
                assert_eq!(fresh, shared, "{name}/{method:?}/seed{seed}");
                assert_eq!(
                    fresh_stats.passes, shared_stats.passes,
                    "{name}/{method:?}/seed{seed}: pass counts"
                );
                assert_eq!(
                    fresh_stats.resolved_per_pass, shared_stats.resolved_per_pass,
                    "{name}/{method:?}/seed{seed}: per-pass stats"
                );
            }
        }
    }
}

#[test]
fn schedule_deterministic_methods_identical_across_policies() {
    let serial = ExecPolicy::serial();
    for (name, g) in families() {
        for method in SCHEDULE_DETERMINISTIC {
            let (reference, _) = find_mapping(&serial, &g, method, 42);
            for policy in ExecPolicy::all_test_policies() {
                let mut ws = MapWorkspace::new();
                let (fresh, _) = find_mapping(&policy, &g, method, 42);
                let (shared, _) = find_mapping_in(&policy, &g, method, 42, &mut ws);
                assert_eq!(fresh, reference, "{name}/{method:?} under {policy}");
                assert_eq!(shared, reference, "{name}/{method:?} shared under {policy}");
            }
        }
    }
}

#[test]
fn racy_methods_stay_valid_and_comparable_under_parallel_policies() {
    // The CAS-racing methods cannot promise cross-policy bit-identity;
    // what they must deliver under any schedule is a valid mapping with a
    // coarsening ratio in the same ballpark as the serial reference.
    let serial = ExecPolicy::serial();
    let racy = [MapMethod::Hem, MapMethod::MtMetis, MapMethod::Gosh];
    for (name, g) in families() {
        for method in racy {
            let (reference, _) = find_mapping(&serial, &g, method, 42);
            for policy in ExecPolicy::all_test_policies() {
                let mut ws = MapWorkspace::new();
                let (m, _) = find_mapping_in(&policy, &g, method, 42, &mut ws);
                m.validate()
                    .unwrap_or_else(|e| panic!("{name}/{method:?} under {policy}: {e}"));
                let r = m.coarsening_ratio() / reference.coarsening_ratio();
                assert!(
                    (0.4..=2.5).contains(&r),
                    "{name}/{method:?} under {policy}: ratio {} vs serial {}",
                    m.coarsening_ratio(),
                    reference.coarsening_ratio()
                );
            }
        }
    }
}

#[test]
fn two_consecutive_levels_through_one_workspace() {
    // Drive two hierarchy levels through a single workspace (exactly what
    // the multilevel driver does) and check each level's mapping against a
    // fresh-workspace run, for every method, under the serial policy
    // (where all methods are deterministic).
    let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 7));
    let policy = ExecPolicy::serial();
    let copts = ConstructOptions::default();
    for method in ALL_METHODS {
        let mut ws = MapWorkspace::new();

        let (l0_fresh, _) = find_mapping(&policy, &g, method, 3);
        let (l0, _) = find_mapping_in(&policy, &g, method, 3, &mut ws);
        assert_eq!(l0, l0_fresh, "{method:?}: level 0");

        let coarse = construct_coarse_graph(&policy, &g, &l0, &copts);
        if coarse.n() <= 1 {
            continue; // star-like collapse: no level-1 mapping to compare
        }
        let (l1_fresh, _) = find_mapping(&policy, &coarse, method, 4);
        let (l1, _) = find_mapping_in(&policy, &coarse, method, 4, &mut ws);
        assert_eq!(l1, l1_fresh, "{method:?}: level 1 through reused workspace");
        l1.validate().unwrap();
    }
}

#[test]
fn workspace_reuse_drops_mapping_peak_on_later_levels() {
    // The workspace's acceptance criterion: mapping level 1 through the
    // workspace that already mapped level 0 must allocate strictly less at
    // peak than the same mapping with a cold workspace, because the heavy
    // array, ownership array, permutation scratch, queues, and relabel
    // flag are already sized. Serial policy so the tracking allocator sees
    // the full envelope (worker-thread allocations are attributed to the
    // allocating thread).
    let policy = ExecPolicy::serial();
    let g = gen::grid2d(64, 64);
    for method in [MapMethod::Hec, MapMethod::Hem, MapMethod::Mis2] {
        let mut ws = MapWorkspace::new();
        let (l0, _) = find_mapping_in(&policy, &g, method, 21, &mut ws);
        let coarse = construct_coarse_graph(&policy, &g, &l0, &ConstructOptions::default());

        let (_, fresh) = mlcg_par::mem::measure(|| {
            find_mapping_in(&policy, &coarse, method, 22, &mut MapWorkspace::new())
        });
        let (_, reused) =
            mlcg_par::mem::measure(|| find_mapping_in(&policy, &coarse, method, 22, &mut ws));
        assert!(
            reused.peak_bytes < fresh.peak_bytes,
            "{method:?}: reused workspace peak {} must be below cold-workspace peak {}",
            reused.peak_bytes,
            fresh.peak_bytes
        );
    }
}
