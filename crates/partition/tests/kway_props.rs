//! Property suite for direct k-way refinement (`mlcg_partition::kwayref`)
//! and its integration into `kway_partition_cfg`.
//!
//! The explicit matrix covers every test execution policy × 3 fixed
//! seeds × {grid2d, rmat, path} × k ∈ {2, 3, 5, 8} and asserts, for each
//! cell: labels in `0..k`, zero empty parts, reported cut equal to a
//! from-scratch `edge_cut`, the per-part balance envelope never worse
//! than the recursive-bisection entry, and a direct-refined cut at or
//! below the recursive-only cut. A proplite-randomized test stresses the
//! refiner alone from arbitrary (unbalanced) labelings, and dedicated
//! tests pin cross-policy determinism and crossover engagement, the
//! recursion's concurrent sides, the balance envelope on inputs with a
//! giant component plus stray ones, and the FM move counters.

use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::builder::from_edges_unit;
use mlcg_graph::cc::largest_component;
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{generators, Csr};
use mlcg_par::proplite::run_cases;
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::FmConfig;
use mlcg_partition::kway::{
    kway_empty_parts, kway_imbalance, kway_partition, kway_partition_cfg, KwayConfig, KwayResult,
};
use mlcg_partition::kwayref::{kway_direct_refine, KwayRefineConfig};

/// The three graph families the issue names, three fixed instances each.
fn suite() -> Vec<(String, Csr)> {
    let mut graphs = Vec::new();
    for (w, h) in [(10usize, 10usize), (13, 9), (16, 16)] {
        graphs.push((format!("grid2d-{w}x{h}"), generators::grid2d(w, h)));
    }
    for seed in [1u64, 2, 3] {
        let g = largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, seed)).0;
        graphs.push((format!("rmat-7-s{seed}"), g));
    }
    for n in [33usize, 40, 64] {
        graphs.push((format!("path-{n}"), generators::path(n)));
    }
    graphs
}

/// Mirror of the refiner's strict per-part cap (`epsilon = 0.02`, no
/// vertex slack) — written out independently so the tests pin the public
/// envelope contract, not the implementation.
fn strict_bound(g: &Csr, k: usize, epsilon: f64) -> u64 {
    let total = g.total_vwgt();
    let target = total as f64 / k as f64;
    ((target * (1.0 + epsilon)).floor() as u64).max(target.ceil() as u64)
}

/// Total weight above the strict cap, summed over parts.
fn excess(g: &Csr, part: &[u32], k: usize, bound: u64) -> u64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p as usize] += g.vwgt()[u];
    }
    w.iter().map(|&x| x.saturating_sub(bound)).sum()
}

/// Weight of the heaviest part.
fn max_part_weight(g: &Csr, part: &[u32], k: usize) -> u64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        w[p as usize] += g.vwgt()[u];
    }
    w.into_iter().max().unwrap_or(0)
}

fn run(policy: &ExecPolicy, g: &Csr, k: usize, direct: bool, seed: u64) -> KwayResult {
    let cfg = KwayConfig {
        direct_refine: direct,
        ..Default::default()
    };
    kway_partition_cfg(
        policy,
        g,
        k,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        seed,
        &TraceCollector::disabled(),
    )
}

#[test]
fn matrix_direct_refinement_dominates_recursive_bisection() {
    let eps = FmConfig::default().epsilon;
    for (name, g) in suite() {
        for k in [2usize, 3, 5, 8] {
            let bound = strict_bound(&g, k, eps);
            for seed in [3u64, 11, 42] {
                for policy in ExecPolicy::all_test_policies() {
                    let base = run(&policy, &g, k, false, seed);
                    let refined = run(&policy, &g, k, true, seed);
                    let ctx = format!("{name} k={k} seed={seed} {policy}");

                    assert!(
                        refined.part.iter().all(|&p| (p as usize) < k),
                        "{ctx}: label out of range"
                    );
                    assert_eq!(
                        kway_empty_parts(&refined.part, k),
                        0,
                        "{ctx}: empty part (labels {:?})",
                        refined.part
                    );
                    assert_eq!(
                        refined.cut,
                        edge_cut(&g, &refined.part),
                        "{ctx}: reported cut drifted"
                    );
                    assert_eq!(
                        refined.imbalance,
                        kway_imbalance(&g, &refined.part, k),
                        "{ctx}: reported imbalance drifted"
                    );
                    // Quality contract of the entry-cap post-pass: the
                    // direct-refined cut is at or below the recursive
                    // cut, unconditionally, and no part ever outgrows
                    // max(epsilon cap, heaviest recursive part) — so a
                    // balance-feasible recursive entry stays feasible and
                    // an infeasible one (the bisection cascade compounds
                    // its per-level epsilon) never gets worse.
                    assert!(
                        refined.cut <= base.cut,
                        "{ctx}: refined cut {} worse than recursive {}",
                        refined.cut,
                        base.cut
                    );
                    let cap = bound.max(max_part_weight(&g, &base.part, k));
                    assert!(
                        max_part_weight(&g, &refined.part, k) <= cap,
                        "{ctx}: a part outgrew the envelope (cap {cap})"
                    );
                    if excess(&g, &base.part, k, bound) == 0 {
                        assert_eq!(
                            excess(&g, &refined.part, k, bound),
                            0,
                            "{ctx}: envelope violation (bound {bound})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn refiner_is_sound_from_arbitrary_labelings() {
    // The refiner alone, from random (generally unbalanced) k-labelings:
    // under its entry cap the cut never ends worse, no part outgrows
    // max(eps cap, entry max), the incremental cut stays exact and no
    // part is emptied.
    run_cases(24, 0xD1, |gen| {
        let pick = gen.usize_in(0, 3);
        let g = match pick {
            0 => generators::grid2d(gen.usize_in(4, 13), gen.usize_in(4, 13)),
            1 => largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, gen.u64())).0,
            _ => generators::path(gen.usize_in(8, 80)),
        };
        let k = gen.usize_in(2, 9);
        let seed = gen.u64();
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
        let part0: Vec<u32> = (0..g.n())
            .map(|_| rng.next_below(k as u64) as u32)
            .collect();
        let bound = strict_bound(&g, k, KwayRefineConfig::default().epsilon);
        let cut0 = edge_cut(&g, &part0);
        let cap = bound.max(max_part_weight(&g, &part0, k));
        let empties0 = kway_empty_parts(&part0, k);
        for policy in ExecPolicy::all_test_policies() {
            let cfg = KwayRefineConfig::default();
            let mut p = part0.clone();
            let cut = kway_direct_refine(&policy, &g, &mut p, k, &cfg, &TraceCollector::disabled());
            assert_eq!(cut, edge_cut(&g, &p), "{policy}: incremental cut drifted");
            assert!(cut <= cut0, "{policy}: cut worsened {cut0} -> {cut}");
            assert!(
                max_part_weight(&g, &p, k) <= cap,
                "{policy}: a part outgrew the entry cap {cap}"
            );
            assert!(
                kway_empty_parts(&p, k) <= empties0,
                "{policy}: refinement emptied a part"
            );
        }
    });
}

#[test]
fn kway_partition_is_deterministic_across_parallel_policies() {
    // The round engine's sequential selection phase makes the mover set a
    // pure function of (graph, partition, round) — so with the crossover
    // forced on, Host and DeviceSim must agree bit-for-bit.
    let g = generators::grid2d(32, 32);
    for k in [3usize, 8] {
        let cfg = KwayConfig {
            direct_refine: true,
            refine: KwayRefineConfig {
                crossover_frontier: Some(1),
                ..Default::default()
            },
        };
        let mut results: Vec<KwayResult> = Vec::new();
        for policy in [ExecPolicy::host(), ExecPolicy::device_sim()] {
            results.push(kway_partition_cfg(
                &policy,
                &g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &cfg,
                9,
                &TraceCollector::disabled(),
            ));
        }
        assert_eq!(
            results[0].part, results[1].part,
            "k={k}: Host and DeviceSim labelings diverged"
        );
        assert_eq!(results[0].cut, results[1].cut, "k={k}: cuts diverged");
    }
}

#[test]
fn crossover_runs_kway_rounds_under_a_parallel_policy() {
    let g = generators::grid2d(32, 32);
    let cfg = KwayConfig {
        direct_refine: true,
        refine: KwayRefineConfig {
            crossover_frontier: Some(1),
            ..Default::default()
        },
    };
    let trace = TraceCollector::enabled();
    let r = kway_partition_cfg(
        &ExecPolicy::host(),
        &g,
        8,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        9,
        &trace,
    );
    let report = trace.report();
    assert!(
        report.counter("kwayref/rounds") > 0,
        "forced crossover must run k-way parallel rounds"
    );
    assert_eq!(report.counter("kway/direct_refine"), 1);
    assert_eq!(r.cut, edge_cut(&g, &r.part));

    // A serial policy must stay on the dispatch-free sequential path.
    let trace_seq = TraceCollector::enabled();
    kway_partition_cfg(
        &ExecPolicy::serial(),
        &g,
        8,
        &CoarsenOptions::default(),
        &FmConfig::default(),
        &cfg,
        9,
        &trace_seq,
    );
    assert_eq!(
        trace_seq.report().counter("kwayref/rounds"),
        0,
        "serial policy must not take the parallel path"
    );
}

/// FNV-1a over the labels' little-endian bytes, then the cut's.
fn fnv(part: &[u32], cut: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in part
        .iter()
        .flat_map(|p| p.to_le_bytes())
        .chain(cut.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn concurrent_recursion_is_well_formed_under_every_policy() {
    // Under a parallel policy the recursion's two sides run as one
    // two-task dispatch (grain 16 makes every side large enough); each
    // side fills its own labels and the parent scatters them. Whatever
    // the schedule, the labeling must be complete and the cut exact;
    // under the serial policy the sides run in order and the output is
    // pinned.
    let g = generators::grid2d(32, 32);
    // Recorded before the sides ran concurrently.
    let pins = [
        (5usize, 0x3c1a_9534_4688_acab_u64),
        (8, 0x2eeb_1e30_c432_4783),
    ];
    for (k, pin) in pins {
        for policy in ExecPolicy::all_test_policies() {
            let opts = CoarsenOptions {
                trace: TraceCollector::disabled(),
                ..CoarsenOptions::default()
            };
            let r = kway_partition(&policy, &g, k, &opts, &FmConfig::default(), 9);
            let ctx = format!("k={k} {policy}");
            assert!(
                r.part.iter().all(|&p| (p as usize) < k),
                "{ctx}: label out of range"
            );
            assert_eq!(kway_empty_parts(&r.part, k), 0, "{ctx}: empty part");
            assert_eq!(r.cut, edge_cut(&g, &r.part), "{ctx}: reported cut drifted");
            if policy.backend == mlcg_par::Backend::Serial {
                assert_eq!(
                    fnv(&r.part, r.cut),
                    pin,
                    "{ctx}: serial output moved off its pin ({:#018x})",
                    fnv(&r.part, r.cut)
                );
            }
        }
    }
}

/// A `w × h` grid (the giant) plus `strays` separate paths of two to four
/// vertices.
fn giant_plus_strays(w: usize, h: usize, strays: usize) -> Csr {
    let giant = generators::grid2d(w, h);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for u in 0..giant.n() as u32 {
        edges.extend(
            giant
                .neighbors(u)
                .iter()
                .filter(|&&v| u < v)
                .map(|&v| (u, v)),
        );
    }
    let mut n = giant.n() as u32;
    for s in 0..strays as u32 {
        let len = 2 + s % 3;
        edges.extend((n..n + len - 1).map(|u| (u, u + 1)));
        n += len;
    }
    from_edges_unit(n as usize, &edges)
}

#[test]
fn giant_plus_strays_stays_in_the_epsilon_envelope() {
    // Bisecting a graph made of one big component and a few small ones
    // leaves the small ones as stray components of a side. The side's
    // giant must then recurse with a proportional share of the labels;
    // giving each component a whole label instead left the giant in one
    // label, at an imbalance near k/2 (up to 4.0 at k = 8 on this family).
    //
    // The envelope: each of the ⌈log2 k⌉ bisection levels may overshoot
    // its target by the FM epsilon plus one vertex of rounding, and
    // packing a whole stray into the lightest label overshoots by at most
    // that stray's weight. The default HEC coarsens these inputs, whose
    // strays collapse to vertices with no neighbor.
    let eps = FmConfig::default().epsilon;
    let mut component_splits = 0;
    for (w, h) in [(16usize, 12usize), (24, 20)] {
        for strays in [1usize, 3, 6, 12] {
            let g = giant_plus_strays(w, h, strays);
            let total = g.total_vwgt() as f64;
            let max_stray = 4.0;
            for k in [3usize, 4, 5, 8] {
                let levels = k.next_power_of_two().trailing_zeros() as i32;
                let bound =
                    (1.0 + eps).powi(levels) + k as f64 * (f64::from(levels) + max_stray) / total;
                for seed in [1u64, 2] {
                    for policy in ExecPolicy::all_test_policies() {
                        let trace = TraceCollector::enabled();
                        let opts = CoarsenOptions {
                            seed,
                            trace: trace.clone(),
                            ..CoarsenOptions::default()
                        };
                        let r = kway_partition(&policy, &g, k, &opts, &FmConfig::default(), seed);
                        let ctx =
                            format!("grid {w}x{h} + {strays} strays, k={k} seed={seed} {policy}");
                        assert_eq!(kway_empty_parts(&r.part, k), 0, "{ctx}: empty part");
                        assert_eq!(r.cut, edge_cut(&g, &r.part), "{ctx}: reported cut drifted");
                        assert!(
                            r.imbalance <= bound,
                            "{ctx}: imbalance {} outside the envelope {bound}",
                            r.imbalance
                        );
                        component_splits += trace.report().counter("kway/component_splits");
                    }
                }
            }
        }
    }
    assert!(
        component_splits > 0,
        "the family never reached a disconnected side"
    );
}

#[test]
fn fm_counts_committed_and_rolled_back_moves() {
    // Every FM pass commits moves past its best prefix and rolls them
    // back; both counts are recorded for the bisection FM and the k-way
    // post-pass, and no pass can roll back more than it committed.
    let g = generators::grid2d(32, 32);
    let trace = TraceCollector::enabled();
    let opts = CoarsenOptions {
        trace: trace.clone(),
        ..CoarsenOptions::default()
    };
    kway_partition_cfg(
        &ExecPolicy::serial(),
        &g,
        2,
        &opts,
        &FmConfig::default(),
        &KwayConfig::default(),
        3,
        &trace,
    );
    let report = trace.report();
    for layer in ["fm", "kwayref"] {
        let committed = report.counter(&format!("{layer}/moves_committed"));
        let rolled_back = report.counter(&format!("{layer}/moves_rolled_back"));
        assert!(committed > 0, "{layer}: no committed moves recorded");
        assert!(rolled_back > 0, "{layer}: no rolled-back moves recorded");
        assert!(
            committed >= rolled_back,
            "{layer}: rolled back {rolled_back} of only {committed} committed moves"
        );
    }
}
