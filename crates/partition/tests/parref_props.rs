//! Property-based tests for the frontier-based parallel refiner
//! (`mlcg_partition::parref`): cut monotonicity, incremental-cut
//! correctness, and the balance envelope — with and without the
//! sequential polish — across every test execution policy, plus a
//! multilevel test that the crossover heuristic actually runs parallel
//! rounds on coarse levels (observed through the `parref/rounds` trace
//! counter).
//!
//! Randomized via the dependency-free [`mlcg_par::proplite`] harness; a
//! failing case prints the seed that reproduces it.

use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::cc::largest_component;
use mlcg_graph::metrics::{edge_cut, part_weights};
use mlcg_graph::{generators, Csr};
use mlcg_par::proplite::{run_cases, Gen};
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_partition::fm::{fm_refine, fm_uncoarsen_frac_hybrid, FmConfig};
use mlcg_partition::parref::{
    parallel_refine_rounds, ParRefConfig, ParRefOutcome, ParRefWorkspace,
};

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

/// Flat rounds over every vertex at a 50/50 split, no vertex slack.
fn rounds(policy: &ExecPolicy, g: &Csr, part: &mut [u32], cfg: &ParRefConfig) -> ParRefOutcome {
    let trace = TraceCollector::disabled();
    let mut ws = ParRefWorkspace::new();
    parallel_refine_rounds(policy, g, part, cfg, 0.5, false, None, &mut ws, &trace)
}

/// The strict per-side weight cap [`ParRefConfig::epsilon`] promises for a
/// 50/50 split without vertex slack — mirrors `fm::Balance` so the tests
/// pin the public contract, not the implementation.
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
        let cfg = ParRefConfig::default();
        for policy in ExecPolicy::all_test_policies() {
            let mut p = part.clone();
            let after = rounds(&policy, &g, &mut p, &cfg).cut;
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
        let cfg = ParRefConfig::default();
        let bound = strict_bound(&g, cfg.epsilon);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = balanced_random_part(g.n(), seed);
            let before = edge_cut(&g, &p);
            let after = rounds(&policy, &g, &mut p, &cfg).cut;
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
        let cfg = ParRefConfig::default();
        // The rounds, then a two-pass boundary FM seeded by their frontier.
        let polish = FmConfig {
            max_passes: 2,
            epsilon: cfg.epsilon,
            vertex_slack: false,
        };
        let trace = TraceCollector::disabled();
        let bound = strict_bound(&g, cfg.epsilon);
        for policy in ExecPolicy::all_test_policies() {
            let mut p = balanced_random_part(g.n(), seed);
            let before = edge_cut(&g, &p);
            let out = rounds(&policy, &g, &mut p, &cfg);
            let after = fm_refine(&g, &mut p, &polish, 0.5, Some(&out.frontier), &trace).cut;
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
        let cfg = ParRefConfig::default();
        for policy in ExecPolicy::all_test_policies() {
            let mut p = part0.clone();
            let mut ws = ParRefWorkspace::new();
            let out = parallel_refine_rounds(
                &policy,
                &g,
                &mut p,
                &cfg,
                0.5,
                false,
                Some(&frontier),
                &mut ws,
                &TraceCollector::disabled(),
            );
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
    let parref = ParRefConfig {
        crossover_frontier: Some(1),
        ..Default::default()
    };
    let part =
        fm_uncoarsen_frac_hybrid(&policy, &h, &FmConfig::default(), &parref, 0.5, 42, &trace);
    let report = trace.report();
    assert!(
        report.counter("parref/rounds") > 0,
        "hybrid driver never ran a parallel round"
    );
    let cut = edge_cut(&g, &part);
    assert!(cut > 0 && cut <= 256, "implausible grid cut {cut}");
    let (w0, w1) = part_weights(&g, &part);
    let bound = strict_bound(&g, 0.02);
    assert!(w0.max(w1) <= bound, "weights {w0}/{w1} exceed {bound}");

    // Below the threshold the driver must stay sequential: a serial-policy
    // run records no parallel rounds.
    let trace_seq = TraceCollector::enabled();
    let h_seq = coarsen(&ExecPolicy::serial(), &g, &opts);
    fm_uncoarsen_frac_hybrid(
        &ExecPolicy::serial(),
        &h_seq,
        &FmConfig::default(),
        &parref,
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
