//! Direct k-way refinement: [`kway_direct_refine`] refines a finished
//! k-way labeling as a post-pass (see `crate::kway::kway_partition_cfg`),
//! since recursive bisection never revisits a cut once a later split
//! changes its context.
//!
//! The refiners themselves serve any number of parts
//! ([`crate::parref::rounds_then_polish`]); this module adds the balance.
//! A uniform per-part cap ([`Balance::uniform`]) is raised to the entry's
//! heaviest part: the recursion's per-level epsilon compounds past the
//! flat k-way envelope, and a post-pass should then refine *cut only* —
//! the cut never worsens and no part outgrows `max(epsilon cap, entry
//! max)`. The refiners' count guard keeps every populated part populated.

use crate::fm::Balance;
use crate::parref::{default_crossover, part_loads, rounds_then_polish, ParRefWorkspace};
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, TraceCollector};

/// Direct k-way refinement tuning.
#[derive(Clone, Debug)]
pub struct KwayRefineConfig {
    /// Allowed imbalance of any part versus `total/k`.
    pub epsilon: f64,
    /// Grant every part one max-vertex of extra strict slack (the k-way
    /// analogue of [`crate::fm::FmConfig::vertex_slack`]).
    pub vertex_slack: bool,
    /// Vertex count at which [`kway_direct_refine`] engages parallel
    /// rounds under a parallel policy. `None` derives
    /// [`default_crossover`].
    pub crossover_frontier: Option<usize>,
}

impl Default for KwayRefineConfig {
    fn default() -> Self {
        KwayRefineConfig {
            epsilon: 0.02,
            vertex_slack: false,
            crossover_frontier: None,
        }
    }
}

/// The cap a k-way refinement of a labeling with part weights `wpart`
/// runs under: `cfg`'s uniform cap, raised to the heaviest part so the
/// refinement starts feasible.
fn entry_cap(g: &Csr, wpart: &[u64], cfg: &KwayRefineConfig) -> Balance {
    let heaviest = wpart.iter().copied().max().unwrap_or(0);
    Balance::uniform(g, wpart.len(), cfg.epsilon, cfg.vertex_slack).at_least(heaviest)
}

/// Refine a finished k-way labeling in place; returns the final cut.
///
/// One [`rounds_then_polish`] step under the entry cap (see the module
/// docs), traced as `kwayref/*`, at the crossover
/// [`KwayRefineConfig::crossover_frontier`] (default
/// [`default_crossover`]): small and deep-recursion inputs stay on the
/// dispatch-free sequential FM.
pub fn kway_direct_refine(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    trace: &TraceCollector,
) -> u64 {
    assert_eq!(part.len(), g.n());
    if g.n() == 0 || k < 2 {
        return 0;
    }
    let _mem = trace.heap_scope(|| "kwayref".to_string());
    let wpart = part_loads(g, part, k).0;
    let bal = entry_cap(g, &wpart, cfg);
    debug_assert_eq!(bal.excess(&wpart), 0, "the entry cap admits the entry");
    let crossover = cfg
        .crossover_frontier
        .unwrap_or_else(|| default_crossover(policy));
    let mut ws = ParRefWorkspace::new();
    let layers = ("kwayref", "kwayref");
    rounds_then_polish(
        policy, g, part, &bal, crossover, None, &mut ws, layers, trace,
    )
    .cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::fm_refine;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::edge_cut;
    use mlcg_par::rng::Xoshiro256pp;

    /// Random k-labeling with per-part vertex counts balanced to within
    /// one (so unit-weight entries are balance-feasible).
    fn balanced_kpart(n: usize, k: usize, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = Xoshiro256pp::new(seed);
        for i in (1..n).rev() {
            let j = rng.next_below((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        let mut part = vec![0u32; n];
        for (i, &u) in order.iter().enumerate() {
            part[u as usize] = (i % k) as u32;
        }
        part
    }

    fn strict_bound(g: &Csr, k: usize, epsilon: f64) -> u64 {
        let total = g.total_vwgt();
        let target = total as f64 / k as f64;
        ((target * (1.0 + epsilon)).floor() as u64).max(target.ceil() as u64)
    }

    #[test]
    fn sequential_refiner_improves_and_keeps_envelope() {
        // The sequential FM under the entry cap, both gain models.
        // 18x18 keeps floor(target·eps) >= 1 for every k here: with zero
        // slack (target·eps < 1) any single move trips the excess key and
        // improvement from a random start is not guaranteed.
        let g = gen::grid2d(18, 18);
        for k in [2usize, 4, 6] {
            let mut part = balanced_kpart(g.n(), k, 3);
            let before = edge_cut(&g, &part);
            let cfg = KwayRefineConfig::default();
            let bal = entry_cap(&g, &part_loads(&g, &part, k).0, &cfg);
            let trace = TraceCollector::disabled();
            let cut = fm_refine(&g, &mut part, &bal, None, "kwayref", &trace).cut;
            assert_eq!(cut, edge_cut(&g, &part), "k={k} cut drifted");
            assert!(cut < before, "k={k}: no improvement {before}");
            let bound = strict_bound(&g, k, cfg.epsilon);
            let mut w = vec![0u64; k];
            for (u, &pp) in part.iter().enumerate() {
                w[pp as usize] += g.vwgt()[u];
            }
            assert!(
                w.iter().all(|&x| x <= bound),
                "k={k} weights {w:?} exceed {bound}"
            );
            // Every part still populated.
            let mut used = part.clone();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used.len(), k, "k={k} dropped a label");
        }
    }

    #[test]
    fn never_empties_a_part() {
        // Singleton parts are pinned by the count guard even when the
        // balance budget would admit the merge — with either gain model
        // (vertex slack lets k = 2 merge within the strict cap).
        for (n, k, vertex_slack) in [(2usize, 2usize, true), (3, 5, false)] {
            let g = gen::path(n);
            let mut part: Vec<u32> = (0..n as u32).collect();
            let before = part.clone();
            let cfg = KwayRefineConfig {
                vertex_slack,
                ..Default::default()
            };
            let trace = TraceCollector::disabled();
            let cut = kway_direct_refine(&ExecPolicy::serial(), &g, &mut part, k, &cfg, &trace);
            assert_eq!(part, before, "k={k}: singleton parts must not merge");
            assert_eq!(cut, edge_cut(&g, &part));
        }

        // A heavy center in its own part stays there.
        let mut star = gen::star(9);
        let mut vw = vec![1u64; star.n()];
        vw[0] = 1000;
        star.set_vwgt(vw);
        let mut p: Vec<u32> = (0..star.n() as u32).map(|u| u % 4).collect();
        kway_direct_refine(
            &ExecPolicy::serial(),
            &star,
            &mut p,
            4,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        let mut used = p.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4, "labels {p:?}");
    }

    #[test]
    fn never_worsens_cut_or_imbalance() {
        // The entry cap: the strict cap is raised to the entry's heaviest
        // part when that exceeds the epsilon cap, so refinement starts
        // feasible, the cut is monotonically non-worsening, and no part
        // ever outgrows max(epsilon cap, entry max).
        for seed in 0..12u64 {
            let (g, _) =
                mlcg_graph::cc::largest_component(&gen::rmat(6, 5, 0.45, 0.22, 0.22, seed));
            let k = 2 + (seed as usize % 7);
            let mut rng = Xoshiro256pp::new(seed ^ 0x517);
            let part0: Vec<u32> = (0..g.n())
                .map(|_| rng.next_below(k as u64) as u32)
                .collect();
            let cfg = KwayRefineConfig::default();
            let mut w0 = vec![0u64; k];
            for (u, &p) in part0.iter().enumerate() {
                w0[p as usize] += g.vwgt()[u];
            }
            let cap = strict_bound(&g, k, cfg.epsilon).max(w0.iter().copied().max().unwrap_or(0));
            let before = edge_cut(&g, &part0);
            for policy in ExecPolicy::all_test_policies() {
                let mut p = part0.clone();
                let cut =
                    kway_direct_refine(&policy, &g, &mut p, k, &cfg, &TraceCollector::disabled());
                assert_eq!(cut, edge_cut(&g, &p), "seed {seed} {policy}: drifted");
                assert!(
                    cut <= before,
                    "seed {seed} {policy}: cut worsened {before} -> {cut}"
                );
                let mut w = vec![0u64; k];
                for (u, &pp) in p.iter().enumerate() {
                    w[pp as usize] += g.vwgt()[u];
                }
                assert!(
                    w.iter().all(|&x| x <= cap),
                    "seed {seed} {policy}: weights {w:?} exceed cap {cap}"
                );
            }
        }
    }

    #[test]
    fn k_below_two_is_a_no_op() {
        let g = gen::grid2d(4, 4);
        let mut part = vec![0u32; g.n()];
        let cut = kway_direct_refine(
            &ExecPolicy::host(),
            &g,
            &mut part,
            1,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(cut, 0);
        assert!(part.iter().all(|&p| p == 0));
    }

    #[test]
    fn crossover_engages_rounds_and_counts_them() {
        let g = gen::grid2d(24, 24);
        let mut part = balanced_kpart(g.n(), 4, 5);
        let trace = TraceCollector::enabled();
        let cfg = KwayRefineConfig {
            crossover_frontier: Some(1),
            ..Default::default()
        };
        let cut = kway_direct_refine(&ExecPolicy::host(), &g, &mut part, 4, &cfg, &trace);
        assert_eq!(cut, edge_cut(&g, &part));
        let report = trace.report();
        assert!(
            report.counter("kwayref/rounds") > 0,
            "forced crossover must run parallel rounds"
        );
    }
}
