//! Multilevel spectral bisection (the paper's primary case study).
//!
//! The Fiedler vector is computed on the coarsest graph by deflated power
//! iteration, interpolated up one level at a time, and re-refined by
//! further power iterations at each level ("multilevel refinement" with
//! the eigenvector as the solution being projected). The final bisection
//! splits at the weighted median of the finest vector, so the reported
//! cuts allow no imbalance — matching the paper's protocol. The stopping
//! criterion is the iterate 2-norm difference falling below 1e-10.

use crate::fm::FmConfig;
use crate::parref::{rounds_then_polish, ParRefConfig, ParRefWorkspace};
use crate::result::{audit_partition, split_weighted_median, PartitionResult};
use mlcg_coarsen::{coarsen, CoarsenOptions};
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, TraceCollector};
use mlcg_sparse::fiedler::{fiedler_from, fiedler_vector, PowerIterResult};

/// Spectral bisection tuning.
#[derive(Clone, Debug)]
pub struct SpectralConfig {
    /// Power-iteration stopping tolerance (paper: 1e-10).
    pub tol: f64,
    /// Iteration cap on the coarsest graph.
    pub coarse_max_iters: usize,
    /// Iteration cap per refinement level (warm-started, so far fewer
    /// iterations are needed than on the coarsest graph).
    pub refine_max_iters: usize,
    /// Optional boundary-driven FM post-pass over the median split.
    ///
    /// `None` (the default) keeps the paper's pure-spectral protocol: the
    /// weighted-median split is final and allows no imbalance. `Some`
    /// polishes the split with [`rounds_then_polish`] (the boundary FM,
    /// preceded by parallel rounds on large graphs), trading up to the
    /// configured epsilon of imbalance for a lower cut.
    pub fm_polish: Option<FmConfig>,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            tol: 1e-10,
            coarse_max_iters: 20_000,
            refine_max_iters: 2_000,
            fm_polish: None,
        }
    }
}

/// Multilevel spectral bisection.
pub fn spectral_bisect(
    policy: &ExecPolicy,
    g: &Csr,
    coarsen_opts: &CoarsenOptions,
    cfg: &SpectralConfig,
    seed: u64,
) -> PartitionResult {
    let trace = coarsen_opts.trace.clone();
    let span = trace.timed_span(|| "partition/spectral/coarsen".to_string());
    let h = coarsen(policy, g, coarsen_opts);
    let coarsen_seconds = span.finish();

    let span = trace.timed_span(|| "partition/spectral/refine".to_string());
    let coarsest = h.coarsest();
    let mut x = traced_power_iteration(&trace, "fiedler/coarsest", || {
        fiedler_vector(policy, coarsest, cfg.tol, cfg.coarse_max_iters, seed)
    });
    for level in (0..h.num_levels()).rev() {
        x = h.interpolate_level(level, &x);
        x = traced_power_iteration(&trace, &format!("fiedler/level{level}"), || {
            fiedler_from(
                policy,
                h.graph_above(level),
                x,
                cfg.tol,
                cfg.refine_max_iters,
            )
        });
    }
    let mut part = split_weighted_median(g, &x);
    if let Some(fm_cfg) = &cfg.fm_polish {
        // Same crossover step as each hybrid uncoarsening level: rounds
        // strip the bulk positive gains on large graphs, then the
        // sequential boundary FM polishes from the rounds' final frontier.
        let _mem = trace.heap_scope(|| "parref/polish".to_string());
        let crossover = ParRefConfig::default().crossover_threshold(policy);
        let mut ws = ParRefWorkspace::new();
        rounds_then_polish(
            policy, g, &mut part, fm_cfg, crossover, 0.5, None, &mut ws, &trace,
        );
    }
    let refine_seconds = span.finish();
    // The weighted-median split overshoots total/2 by at most one vertex;
    // an FM polish may additionally spend its configured imbalance budget.
    let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1) as f64;
    let mut cap = 1.0 + 2.0 * max_vwgt / g.total_vwgt().max(1) as f64 + 1e-9;
    if let Some(fm_cfg) = &cfg.fm_polish {
        cap += fm_cfg.epsilon;
        if fm_cfg.vertex_slack {
            cap += 2.0 * max_vwgt / g.total_vwgt().max(1) as f64;
        }
    }
    audit_partition(&trace, "partition/spectral", g, &part, cap);
    PartitionResult::new(g, part, coarsen_seconds, refine_seconds, h.num_levels())
        .with_trace(trace.report())
}

/// Run one power iteration under a span and heap scope named `phase`,
/// adding its iterations to the `fiedler/power_iterations` counter.
/// Returns the Fiedler estimate.
fn traced_power_iteration(
    trace: &TraceCollector,
    phase: &str,
    run: impl FnOnce() -> PowerIterResult,
) -> Vec<f64> {
    let mem = trace.heap_scope(|| phase.to_string());
    let span = trace.span(|| phase.to_string());
    let r = run();
    trace.counter_add("fiedler/power_iterations", r.iterations as u64);
    span.finish();
    drop(mem);
    r.vector
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_coarsen::MapMethod;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::part_weights;

    fn opts(method: MapMethod) -> CoarsenOptions {
        CoarsenOptions {
            method,
            ..Default::default()
        }
    }

    #[test]
    fn grid_bisection_is_near_optimal_and_balanced() {
        let g = gen::grid2d(16, 8);
        let r = spectral_bisect(
            &ExecPolicy::serial(),
            &g,
            &opts(MapMethod::Hec),
            &SpectralConfig::default(),
            5,
        );
        // Optimal balanced cut of a 16x8 grid is 8 (split the long axis).
        assert!(r.cut <= 16, "spectral grid cut {}", r.cut);
        let (w0, w1) = part_weights(&g, &r.part);
        assert_eq!(w0, 64);
        assert_eq!(w1, 64);
    }

    #[test]
    fn barbell_bridge_found() {
        let mut edges = Vec::new();
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                edges.push((i, j));
                edges.push((i + 8, j + 8));
            }
        }
        edges.push((0, 8));
        let g = mlcg_graph::builder::from_edges_unit(16, &edges);
        let r = spectral_bisect(
            &ExecPolicy::serial(),
            &g,
            &opts(MapMethod::Hec),
            &SpectralConfig::default(),
            3,
        );
        assert_eq!(r.cut, 1);
    }

    #[test]
    fn different_coarseners_give_valid_results() {
        let g = gen::grid2d(12, 12);
        for method in [
            MapMethod::Hec,
            MapMethod::Hem,
            MapMethod::MtMetis,
            MapMethod::Mis2,
        ] {
            let r = spectral_bisect(
                &ExecPolicy::serial(),
                &g,
                &opts(method),
                &SpectralConfig::default(),
                7,
            );
            let (w0, w1) = part_weights(&g, &r.part);
            assert_eq!(w0, w1, "{method:?} imbalanced");
            assert!(r.cut > 0 && r.cut < 144, "{method:?} cut {}", r.cut);
        }
    }

    #[test]
    fn fm_polish_never_worsens_the_spectral_cut() {
        let g = gen::grid2d(16, 8);
        let plain = spectral_bisect(
            &ExecPolicy::serial(),
            &g,
            &opts(MapMethod::Hec),
            &SpectralConfig::default(),
            5,
        );
        let polished = spectral_bisect(
            &ExecPolicy::serial(),
            &g,
            &opts(MapMethod::Hec),
            &SpectralConfig {
                fm_polish: Some(crate::fm::FmConfig {
                    max_passes: 8,
                    epsilon: 0.0,
                    vertex_slack: false,
                }),
                ..Default::default()
            },
            5,
        );
        assert!(
            polished.cut <= plain.cut,
            "polish worsened cut: {} > {}",
            polished.cut,
            plain.cut
        );
        // epsilon 0 on a unit-weight even-total graph keeps exact balance.
        let (w0, w1) = part_weights(&g, &polished.part);
        assert_eq!(w0, w1);
    }

    #[test]
    fn timing_fields_populated() {
        let g = gen::grid2d(20, 20);
        let r = spectral_bisect(
            &ExecPolicy::serial(),
            &g,
            &opts(MapMethod::Hec),
            &SpectralConfig::default(),
            1,
        );
        assert!(r.coarsen_seconds > 0.0);
        assert!(r.refine_seconds > 0.0);
        assert!(r.levels >= 1);
        assert!((0.0..=1.0).contains(&r.coarsen_fraction()));
    }
}
