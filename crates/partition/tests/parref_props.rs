//! Property-based tests for the frontier round engine
//! (`mlcg_partition::parref`) on bisections: cut monotonicity,
//! incremental-cut correctness, and the balance envelope — with and
//! without the sequential polish — across every test execution policy; a
//! multilevel test that the crossover heuristic actually runs parallel
//! rounds on coarse levels (observed through the `parref/rounds` trace
//! counter); and a test that the rounds' output does not depend on the
//! schedule.
//!
//! Randomized via the dependency-free [`mlcg_par::proplite`] harness; a
//! failing case prints the seed that reproduces it.

use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::cc::largest_component;
use mlcg_graph::metrics::{edge_cut, part_weights};
use mlcg_graph::{generators, Csr};
use mlcg_par::proplite::{run_cases, Gen};
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::{fm_refine, fm_uncoarsen_frac_hybrid, Balance, FmConfig};
use mlcg_partition::parref::{parallel_refine_rounds, ParRefOutcome, ParRefWorkspace};

/// The balance slack every test here refines under (the FM default).
const EPSILON: f64 = 0.02;

/// A graph from the family the issue names: grid2d, rmat (largest
/// component), path.
fn suite_graph(gen: &mut Gen) -> Csr {
    match gen.usize_in(0, 3) {
        0 => {
            let w = gen.usize_in(4, 13);
            let h = gen.usize_in(4, 13);
            generators::grid2d(w, h)
        }
        1 => largest_component(&generators::rmat(7, 6, 0.45, 0.22, 0.22, gen.u64())).0,
        _ => generators::path(gen.usize_in(8, 80)),
    }
}

fn balanced_random_part(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed);
    let mut part: Vec<u32> = (0..n).map(|_| rng.next_below(2) as u32).collect();
    loop {
        let ones = part.iter().filter(|&&p| p == 1).count();
        if ones.abs_diff(n - ones) <= 1 {
            break;
        }
        let from = u32::from(ones > n - ones);
        let idx = part.iter().position(|&p| p == from).unwrap();
        part[idx] = 1 - from;
    }
    part
}

/// Rounds to convergence over `seed` (every vertex when `None`) at a
/// 50/50 split, no vertex slack.
fn rounds_from(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    seed: Option<&[u32]>,
) -> ParRefOutcome {
    let trace = TraceCollector::disabled();
    let mut ws = ParRefWorkspace::new();
    let bal = Balance::split(g, EPSILON, false, 0.5);
    parallel_refine_rounds(policy, g, part, &bal, 0, seed, &mut ws, "parref", &trace)
}

fn rounds(policy: &ExecPolicy, g: &Csr, part: &mut [u32]) -> ParRefOutcome {
    rounds_from(policy, g, part, None)
}

/// The strict per-side weight cap epsilon promises for a 50/50 split
/// without vertex slack — written out independently of `fm::Balance` so
/// the tests pin the public contract, not the implementation.
fn strict_bound(g: &Csr, epsilon: f64) -> u64 {
    let total = g.total_vwgt();
    let t0 = ((total as f64 * 0.5).round() as u64).min(total);
    let side = |t: u64| {
        (((t as f64) * (1.0 + epsilon)).floor() as u64).max((total as f64 * 0.5).ceil() as u64)
    };
    side(t0).max(side(total - t0))
}

#[test]
fn parallel_rounds_never_worsen_and_match_edge_cut() {
    run_cases(24, 0xC1, |gen| {
        let g = suite_graph(gen);
        let seed = gen.u64();
        let part = balanced_random_part(g.n(), seed);
        let before = edge_cut(&g, &part);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = part.clone();
            let after = rounds(&policy, &g, &mut p).cut;
            assert!(after <= before, "{policy}: worsened {before} -> {after}");
            assert_eq!(after, edge_cut(&g, &p), "{policy}: returned cut drifted");
        }
    });
}

#[test]
fn envelope_holds_without_polish() {
    // Regression territory for the pre-rewrite bug: the budget granted one
    // max-vertex past the strict limit and the rounds alone shipped the
    // overshoot. From a feasible start, the repair phase (or the
    // rollback-to-entry rule) must restore the strict envelope.
    run_cases(24, 0xC2, |gen| {
        let g = suite_graph(gen);
        let seed = gen.u64();
        let bound = strict_bound(&g, EPSILON);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = balanced_random_part(g.n(), seed);
            let before = edge_cut(&g, &p);
            let after = rounds(&policy, &g, &mut p).cut;
            let (w0, w1) = part_weights(&g, &p);
            assert!(
                w0.max(w1) <= bound,
                "{policy}: weights {w0}/{w1} exceed strict bound {bound}"
            );
            assert!(after <= before, "{policy}: worsened {before} -> {after}");
            assert_eq!(after, edge_cut(&g, &p));
        }
    });
}

#[test]
fn envelope_holds_with_polish() {
    run_cases(24, 0xC3, |gen| {
        let g = suite_graph(gen);
        let seed = gen.u64();
        // The rounds, then the boundary FM seeded by their frontier.
        let trace = TraceCollector::disabled();
        let bound = strict_bound(&g, EPSILON);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = balanced_random_part(g.n(), seed);
            let before = edge_cut(&g, &p);
            let out = rounds(&policy, &g, &mut p);
            let bal = Balance::split(&g, EPSILON, false, 0.5);
            let after = fm_refine(&g, &mut p, &bal, Some(&out.frontier), "fm", &trace).cut;
            let (w0, w1) = part_weights(&g, &p);
            assert!(
                w0.max(w1) <= bound,
                "{policy}: weights {w0}/{w1} exceed strict bound {bound}"
            );
            assert!(after <= before, "{policy}: worsened {before} -> {after}");
            assert_eq!(after, edge_cut(&g, &p));
        }
    });
}

#[test]
fn seeded_rounds_accept_any_boundary_covering_frontier() {
    // The engine's seeded entry point (the hybrid driver's path): a seed
    // covering the boundary — here the exact boundary plus random extras —
    // must give the same guarantees as the full-vertex seed.
    run_cases(24, 0xC4, |gen| {
        let g = suite_graph(gen);
        let seed = gen.u64();
        let part0 = balanced_random_part(g.n(), seed);
        let mut frontier: Vec<u32> = (0..g.n() as u32)
            .filter(|&u| {
                g.edges(u)
                    .any(|(v, _)| part0[u as usize] != part0[v as usize])
            })
            .collect();
        // Random interior extras exercise the superset contract.
        let mut rng = mlcg_par::rng::Xoshiro256pp::new(seed ^ 0x5eed);
        for _ in 0..g.n() / 4 {
            frontier.push(rng.next_below(g.n() as u64) as u32);
        }
        let before = edge_cut(&g, &part0);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = part0.clone();
            let out = rounds_from(&policy, &g, &mut p, Some(&frontier));
            assert!(
                out.cut <= before,
                "{policy}: worsened {before} -> {}",
                out.cut
            );
            assert_eq!(out.cut, edge_cut(&g, &p), "{policy}: returned cut drifted");
            // The returned frontier must cover the final boundary (it
            // seeds the polish pass and the next level's projection).
            let mut in_f = vec![false; g.n()];
            for &u in &out.frontier {
                in_f[u as usize] = true;
            }
            for u in 0..g.n() as u32 {
                if g.edges(u).any(|(v, _)| p[u as usize] != p[v as usize]) {
                    assert!(
                        in_f[u as usize],
                        "{policy}: boundary vertex {u} not in frontier"
                    );
                }
            }
        }
    });
}

#[test]
fn crossover_runs_parallel_rounds_on_coarse_levels() {
    // The hybrid multilevel driver must actually engage the parallel
    // engine when the projected frontier crosses the threshold. A forced
    // low threshold makes every level eligible regardless of the host's
    // core count; the `parref/rounds` counter observes the engagement.
    let g = generators::grid2d(64, 64);
    let policy = ExecPolicy::host();
    let trace = TraceCollector::enabled();
    let opts = CoarsenOptions::default();
    let h = coarsen(&policy, &g, &opts);
    let part =
        fm_uncoarsen_frac_hybrid(&policy, &h, &FmConfig::default(), Some(1), 0.5, 42, &trace);
    let report = trace.report();
    assert!(
        report.counter("parref/rounds") > 0,
        "hybrid driver never ran a parallel round"
    );
    let cut = edge_cut(&g, &part);
    assert!(cut > 0 && cut <= 256, "implausible grid cut {cut}");
    let (w0, w1) = part_weights(&g, &part);
    let bound = strict_bound(&g, EPSILON);
    assert!(w0.max(w1) <= bound, "weights {w0}/{w1} exceed {bound}");

    // Below the threshold the driver must stay sequential: a serial-policy
    // run records no parallel rounds.
    let trace_seq = TraceCollector::enabled();
    let h_seq = coarsen(&ExecPolicy::serial(), &g, &opts);
    fm_uncoarsen_frac_hybrid(
        &ExecPolicy::serial(),
        &h_seq,
        &FmConfig::default(),
        Some(1),
        0.5,
        42,
        &trace_seq,
    );
    assert_eq!(
        trace_seq.report().counter("parref/rounds"),
        0,
        "serial policy must not take the parallel path"
    );
}

#[test]
fn bisection_rounds_do_not_depend_on_the_schedule() {
    // The engine claims its movers sequentially in frontier order, so a
    // round's mover set is a pure function of (graph, partition, round).
    // Every parallel policy must therefore return the labels one
    // participant returns: through the hybrid driver with a forced
    // crossover (rounds on every level, then the FM polish), and from the
    // engine alone on a random balanced bisection.
    let graphs = [
        ("grid2d-32x24", generators::grid2d(32, 24)),
        (
            "rmat-9",
            largest_component(&generators::rmat(9, 8, 0.57, 0.19, 0.19, 3)).0,
        ),
        (
            "box27-8",
            generators::grid3d(8, 8, 8, generators::Stencil::Box27),
        ),
        ("path-1024", generators::path(1024)),
    ];
    let one = ExecPolicy::host_with_threads(1);
    let mut parallel: Vec<ExecPolicy> = ExecPolicy::all_test_policies()
        .into_iter()
        .filter(|p| p.backend != mlcg_par::Backend::Serial)
        .collect();
    parallel.extend([ExecPolicy::host(), ExecPolicy::device_sim()]);
    let trace = TraceCollector::disabled();
    let fm = FmConfig::default();
    for (name, g) in &graphs {
        for seed in [1u64, 7] {
            let opts = CoarsenOptions {
                seed,
                ..CoarsenOptions::default()
            };
            let h = coarsen(&ExecPolicy::serial(), g, &opts);
            let start = balanced_random_part(g.n(), seed);
            let calls = |policy: &ExecPolicy| -> Vec<Vec<u32>> {
                let mut out: Vec<Vec<u32>> = [0.5, 0.375]
                    .iter()
                    .map(|&frac| {
                        fm_uncoarsen_frac_hybrid(policy, &h, &fm, Some(1), frac, seed, &trace)
                    })
                    .collect();
                let mut p = start.clone();
                rounds(policy, g, &mut p);
                out.push(p);
                out
            };
            let reference = calls(&one);
            for policy in &parallel {
                let got = calls(policy);
                for (call, (want, labels)) in ["hybrid@0.5", "hybrid@0.375", "rounds"]
                    .iter()
                    .zip(reference.iter().zip(&got))
                {
                    assert!(
                        want == labels,
                        "{name} s{seed} {call}: {policy} labels differ from one participant's"
                    );
                }
            }
        }
    }
}
