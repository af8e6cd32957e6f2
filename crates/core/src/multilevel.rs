//! The multilevel coarsening driver — the paper's Algorithm 1.
//!
//! Repeatedly map and construct until the coarse vertex count reaches the
//! cutoff (50 in all of the paper's experiments). Per the paper's protocol,
//! if one iteration drops the count from above the cutoff to below 10 the
//! coarsest graph is discarded; a level cap (mt-Metis-style 200) bounds
//! stalled coarseners such as plain HEM on star-heavy graphs.

use crate::audit::{audit_coarse_graph, audit_mapping};
use crate::construct::{construct_coarse_graph_traced_in, ConstructOptions, ConstructWorkspace};
use crate::mapping::{find_mapping_in, MapMethod, MapStats, MapWorkspace, Mapping};
use mlcg_graph::Csr;
use mlcg_par::{ExecPolicy, TraceCollector, TraceReport};

/// Options controlling a multilevel coarsening run.
#[derive(Clone, Debug)]
pub struct CoarsenOptions {
    /// Mapping algorithm.
    pub method: MapMethod,
    /// Construction strategy and tuning.
    pub construction: ConstructOptions,
    /// Stop once the coarse graph has at most this many vertices (paper: 50).
    pub cutoff: usize,
    /// Discard the coarsest graph if an iteration overshoots below this
    /// (paper: 10).
    pub min_accept: usize,
    /// Hard cap on levels (guards stalled coarsening; mt-Metis uses ~200).
    pub max_levels: usize,
    /// Seed for the randomized visit orders (level `i` uses `seed + i`).
    pub seed: u64,
    /// Trace sink for phase spans, per-level gauges, pipeline counters and
    /// opt-in invariant audits. The default reads `MLCG_TRACE` /
    /// `MLCG_VALIDATE` from the environment; when both are off this is the
    /// no-op collector with negligible overhead.
    pub trace: TraceCollector,
}

impl Default for CoarsenOptions {
    fn default() -> Self {
        CoarsenOptions {
            method: MapMethod::Hec,
            construction: ConstructOptions::default(),
            cutoff: 50,
            min_accept: 10,
            max_levels: 200,
            seed: 0x5eed,
            trace: TraceCollector::from_env(),
        }
    }
}

/// One coarsening level: the mapping from the previous graph and the
/// resulting coarse graph.
#[derive(Clone, Debug)]
pub struct Level {
    /// Fine-to-coarse mapping from the previous level's graph.
    pub mapping: Mapping,
    /// The coarse graph this level produced.
    pub graph: Csr,
    /// Mapping-phase statistics.
    pub map_stats: MapStats,
}

/// Per-run statistics matching the paper's Tables II–IV columns.
#[derive(Clone, Debug, Default)]
pub struct CoarsenStats {
    /// Seconds spent in the mapping phase, per level.
    pub map_seconds: Vec<f64>,
    /// Seconds spent in graph construction, per level.
    pub construct_seconds: Vec<f64>,
}

impl CoarsenStats {
    /// Total coarsening time `t_c`.
    pub fn total_seconds(&self) -> f64 {
        self.map_seconds.iter().sum::<f64>() + self.construct_seconds.iter().sum::<f64>()
    }

    /// Fraction of total time spent constructing (the `% GrCo` column).
    pub fn construction_fraction(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            0.0
        } else {
            self.construct_seconds.iter().sum::<f64>() / t
        }
    }
}

/// A full coarsening hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// The (preprocessed) input graph `G_0`.
    pub fine: Csr,
    /// Coarsening levels `G_1 .. G_l`, finest first.
    pub levels: Vec<Level>,
    /// Phase timings.
    pub stats: CoarsenStats,
    /// Trace snapshot from the run's collector: phase spans, per-level
    /// gauges, pipeline counters and audit outcomes. Empty when tracing
    /// was disabled.
    pub trace: TraceReport,
}

impl Hierarchy {
    /// Number of coarsening levels `l`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest graph (the input graph if no level was produced).
    pub fn coarsest(&self) -> &Csr {
        self.levels.last().map(|l| &l.graph).unwrap_or(&self.fine)
    }

    /// Average per-level coarsening ratio `(n_0 / n_l)^(1/l)` (the paper's
    /// `cr`).
    pub fn avg_coarsening_ratio(&self) -> f64 {
        let l = self.num_levels();
        if l == 0 {
            return 1.0;
        }
        let n0 = self.fine.n() as f64;
        let nl = self.coarsest().n() as f64;
        (n0 / nl).powf(1.0 / l as f64)
    }

    /// Project per-vertex values on the coarsest graph back to the finest:
    /// `out[u] = values[M_l(...M_1(u))]`.
    pub fn project_to_fine<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(
            values.len(),
            self.coarsest().n(),
            "project: length mismatch"
        );
        let mut cur: Vec<T> = values.to_vec();
        for level in self.levels.iter().rev() {
            cur = level.mapping.map.iter().map(|&m| cur[m as usize]).collect();
        }
        cur
    }

    /// Project values one level: from level `i` (0 = finest coarse level)
    /// to the graph above it.
    pub fn interpolate_level<T: Copy>(&self, level: usize, values: &[T]) -> Vec<T> {
        let mapping = &self.levels[level].mapping;
        assert_eq!(values.len(), mapping.n_coarse);
        mapping.map.iter().map(|&m| values[m as usize]).collect()
    }

    /// Fine-side vertex ids (at the graph above `level`) whose aggregate
    /// is marked.
    ///
    /// A fine vertex can lie on a partition boundary only if its aggregate
    /// does (every cross-part fine edge joins two aggregates that share a
    /// cut coarse edge), so projecting the coarse boundary this way yields
    /// a superset of the fine boundary in `O(n)` — no edge scan — which is
    /// how boundary-driven FM refinement seeds its frontier during
    /// uncoarsening.
    pub fn project_frontier(&self, level: usize, coarse_marked: &[bool]) -> Vec<u32> {
        let mapping = &self.levels[level].mapping;
        assert_eq!(
            coarse_marked.len(),
            mapping.n_coarse,
            "project_frontier: mark length mismatch"
        );
        mapping
            .map
            .iter()
            .enumerate()
            .filter(|&(_, &m)| coarse_marked[m as usize])
            .map(|(u, _)| u as u32)
            .collect()
    }

    /// [`Hierarchy::project_frontier`] from a coarse vertex-id list
    /// instead of a mark array: builds the marks internally, so callers
    /// holding a boundary/frontier as ids (the refiners' native output)
    /// don't each re-materialize an `O(n_coarse)` bool vector.
    pub fn project_frontier_ids(&self, level: usize, coarse_ids: &[u32]) -> Vec<u32> {
        let mapping = &self.levels[level].mapping;
        let mut marked = vec![false; mapping.n_coarse];
        for &c in coarse_ids {
            marked[c as usize] = true;
        }
        self.project_frontier(level, &marked)
    }

    /// The graph *above* level `i` (the finer one it was built from).
    pub fn graph_above(&self, level: usize) -> &Csr {
        if level == 0 {
            &self.fine
        } else {
            &self.levels[level - 1].graph
        }
    }
}

/// Run Algorithm 1: build the full hierarchy.
///
/// ```
/// use mlcg_coarsen::{coarsen, CoarsenOptions};
/// use mlcg_par::ExecPolicy;
///
/// let g = mlcg_graph::generators::grid2d(16, 16);
/// let h = coarsen(&ExecPolicy::host(), &g, &CoarsenOptions::default());
/// assert!(h.coarsest().n() <= 50);
/// // Total vertex weight is conserved down the hierarchy.
/// assert_eq!(h.coarsest().total_vwgt(), g.n() as u64);
/// ```
pub fn coarsen(policy: &ExecPolicy, g: &Csr, opts: &CoarsenOptions) -> Hierarchy {
    let trace = &opts.trace;
    // Whole-hierarchy heap attribution: everything the build allocates
    // (mappings, coarse graphs, workspaces) lands in `mem/coarsen/*`.
    let mem = trace.heap_scope(|| "coarsen".to_string());
    let mut levels: Vec<Level> = Vec::new();
    let mut stats = CoarsenStats::default();
    // One construction workspace for the whole hierarchy: levels after the
    // first reuse the previous level's scratch capacity instead of paying
    // the full construction allocation envelope again.
    let mut cws = ConstructWorkspace::new();
    // Same deal for the mapping phase: one workspace, reused every level.
    let mut mws = MapWorkspace::new();
    let mut i = 0u64;
    // Each level reads its input in place — `g` itself, then the previous
    // level's graph — so the returned `fine` is the only copy made.
    loop {
        let current = levels.last().map_or(g, |l: &Level| &l.graph);
        if current.n() <= opts.cutoff || levels.len() >= opts.max_levels {
            break;
        }
        let lvl = levels.len();
        let span = trace.timed_span(|| format!("mapping/{}/level{lvl}", opts.method.name()));
        let (mapping, map_stats) = find_mapping_in(
            policy,
            current,
            opts.method,
            opts.seed.wrapping_add(i),
            &mut mws,
        );
        let t_map = span.finish();
        audit_mapping(trace, &format!("mapping/level{lvl}"), current.n(), &mapping);

        let span = trace
            .timed_span(|| format!("construct/{}/level{lvl}", opts.construction.method.name()));
        let coarse = construct_coarse_graph_traced_in(
            policy,
            current,
            &mapping,
            &opts.construction,
            trace,
            &mut cws,
        );
        let t_con = span.finish();
        audit_coarse_graph(
            policy,
            trace,
            &format!("construct/level{lvl}"),
            current,
            &mapping,
            &coarse,
        );

        if trace.is_enabled() {
            // The heavy-neighbor / matching phase scans every fine edge at
            // least once; conflicts re-matched are the vertices the
            // HEC-family pass loop resolved after its first pass.
            trace.counter_add("mapping/edges_scanned", current.adj().len() as u64);
            trace.counter_add("mapping/passes", map_stats.passes as u64);
            let first = map_stats.resolved_per_pass.first().copied().unwrap_or(0);
            let rematched = map_stats.resolved_total().saturating_sub(first);
            trace.counter_add("mapping/conflicts_rematched", rematched as u64);
            // Per-level series for the mapping phase: pass count and the
            // work-queue length entering pass 2 (0 for single-pass methods).
            let method = opts.method.name();
            trace.gauge(|| format!("map/{method}/passes"), map_stats.passes as f64);
            let queue_len = if map_stats.resolved_per_pass.is_empty() {
                0
            } else {
                current.n().saturating_sub(first)
            };
            trace.gauge(|| format!("map/{method}/queue_len"), queue_len as f64);
            record_level_gauges(trace, lvl, current, &mapping, &coarse);
        }

        // Stall guard: no progress means the method cannot coarsen further.
        if mapping.n_coarse >= current.n() {
            break;
        }
        // The paper's discard rule: a >cutoff -> <min_accept overshoot is
        // rejected and coarsening stops with the previous graph.
        if coarse.n() < opts.min_accept && current.n() > opts.cutoff {
            break;
        }
        stats.map_seconds.push(t_map);
        stats.construct_seconds.push(t_con);
        levels.push(Level {
            mapping,
            graph: coarse,
            map_stats,
        });
        i += 1;
    }
    // Close the heap scope before snapshotting so the report sees the
    // `mem/coarsen/*` gauges.
    drop(mem);
    Hierarchy {
        fine: g.clone(),
        levels,
        stats,
        trace: trace.report(),
    }
}

/// Per-level gauges: size, compression, matched fraction, degree extremes.
fn record_level_gauges(
    trace: &TraceCollector,
    lvl: usize,
    fine: &Csr,
    mapping: &Mapping,
    coarse: &Csr,
) {
    trace.gauge(|| format!("level/{lvl}/nv"), coarse.n() as f64);
    trace.gauge(|| format!("level/{lvl}/ne"), coarse.m() as f64);
    let compression = if coarse.n() > 0 {
        fine.n() as f64 / coarse.n() as f64
    } else {
        f64::INFINITY
    };
    trace.gauge(|| format!("level/{lvl}/compression"), compression);
    let merged: usize = mapping
        .aggregate_sizes()
        .into_iter()
        .filter(|&s| s >= 2)
        .sum();
    trace.gauge(
        || format!("level/{lvl}/matched_frac"),
        merged as f64 / fine.n().max(1) as f64,
    );
    trace.gauge(
        || format!("level/{lvl}/max_coarse_degree"),
        coarse.max_degree() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::ConstructMethod;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::edge_cut;

    fn opts(method: MapMethod) -> CoarsenOptions {
        CoarsenOptions {
            method,
            ..Default::default()
        }
    }

    #[test]
    fn hec_reaches_cutoff_on_grid() {
        let g = gen::grid2d(40, 40);
        let h = coarsen(&ExecPolicy::serial(), &g, &opts(MapMethod::Hec));
        assert!(h.coarsest().n() <= 50, "coarsest n = {}", h.coarsest().n());
        assert!(h.num_levels() >= 2);
        for level in &h.levels {
            level.graph.validate().unwrap();
            level.mapping.validate().unwrap();
        }
        // Vertex weight is conserved along the whole hierarchy.
        assert_eq!(h.coarsest().total_vwgt(), g.n() as u64);
    }

    #[test]
    fn hem_needs_more_levels_than_hec() {
        let g = gen::grid2d(32, 32);
        let p = ExecPolicy::serial();
        let hec = coarsen(&p, &g, &opts(MapMethod::Hec));
        let hem = coarsen(&p, &g, &opts(MapMethod::Hem));
        assert!(
            hem.num_levels() >= hec.num_levels(),
            "HEM {} vs HEC {}",
            hem.num_levels(),
            hec.num_levels()
        );
        // Matching halves at best: cr <= 2 (+ tolerance for rounding).
        assert!(hem.avg_coarsening_ratio() <= 2.01);
        assert!(hec.avg_coarsening_ratio() > 1.5);
    }

    #[test]
    fn projection_round_trips_labels() {
        let g = gen::grid2d(20, 20);
        let h = coarsen(&ExecPolicy::serial(), &g, &opts(MapMethod::Hec));
        let nc = h.coarsest().n();
        let labels: Vec<u32> = (0..nc as u32).collect();
        let fine_labels = h.project_to_fine(&labels);
        assert_eq!(fine_labels.len(), g.n());
        // Every fine vertex lands on the label of its coarsest aggregate.
        let mut compound: Vec<u32> = (0..nc as u32).collect();
        for level in h.levels.iter().rev() {
            compound = level
                .mapping
                .map
                .iter()
                .map(|&m| compound[m as usize])
                .collect();
        }
        assert_eq!(fine_labels, compound);
    }

    #[test]
    fn projected_cut_equals_coarse_cut() {
        // A bisection of the coarsest graph, projected to the fine graph,
        // must cut exactly the weight the coarse cut reports (coarse edge
        // weights aggregate the fine ones).
        let g = gen::grid2d(24, 24);
        let h = coarsen(&ExecPolicy::serial(), &g, &opts(MapMethod::Hec));
        let coarsest = h.coarsest();
        let part: Vec<u32> = (0..coarsest.n() as u32).map(|v| v % 2).collect();
        let coarse_cut = edge_cut(coarsest, &part);
        let fine_part = h.project_to_fine(&part);
        let fine_cut = edge_cut(&g, &fine_part);
        assert_eq!(coarse_cut, fine_cut);
    }

    #[test]
    fn stats_track_every_level() {
        let g = gen::grid2d(30, 30);
        let h = coarsen(&ExecPolicy::serial(), &g, &opts(MapMethod::Hec));
        assert_eq!(h.stats.map_seconds.len(), h.num_levels());
        assert_eq!(h.stats.construct_seconds.len(), h.num_levels());
        assert!(h.stats.total_seconds() > 0.0);
        let f = h.stats.construction_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn small_graph_is_left_alone() {
        let g = gen::complete(10); // already below the cutoff
        let h = coarsen(&ExecPolicy::serial(), &g, &opts(MapMethod::Hec));
        assert_eq!(h.num_levels(), 0);
        assert_eq!(h.coarsest().n(), 10);
        assert_eq!(h.avg_coarsening_ratio(), 1.0);
    }

    #[test]
    fn mis2_overshoot_discard_rule() {
        // MIS2 coarsens very aggressively; with a tight window the discard
        // rule must leave the coarsest graph at >= min_accept vertices (or
        // just above the cutoff if the last step was discarded).
        let g = gen::complete(60);
        let o = CoarsenOptions {
            method: MapMethod::Mis2,
            ..Default::default()
        };
        let h = coarsen(&ExecPolicy::serial(), &g, &o);
        assert!(
            h.coarsest().n() >= o.min_accept || h.coarsest().n() == g.n(),
            "coarsest {} violates discard rule",
            h.coarsest().n()
        );
    }

    #[test]
    fn all_methods_produce_valid_hierarchies() {
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(9, 8, 0.57, 0.19, 0.19, 3));
        for method in MapMethod::TABLE4 {
            let h = coarsen(&ExecPolicy::serial(), &g, &opts(method));
            for level in &h.levels {
                level
                    .graph
                    .validate()
                    .unwrap_or_else(|e| panic!("{method:?}: {e}"));
            }
            assert!(
                h.coarsest().n() <= 200,
                "{method:?} stopped early at {}",
                h.coarsest().n()
            );
        }
    }

    #[test]
    fn construction_methods_agree_along_hierarchy() {
        let g = gen::grid2d(25, 25);
        let p = ExecPolicy::serial();
        let mut hierarchies = Vec::new();
        for cm in ConstructMethod::ALL {
            let o = CoarsenOptions {
                method: MapMethod::Hec,
                construction: ConstructOptions::with_method(cm),
                ..Default::default()
            };
            hierarchies.push(coarsen(&p, &g, &o));
        }
        for h in &hierarchies[1..] {
            assert_eq!(h.num_levels(), hierarchies[0].num_levels());
            for (a, b) in h.levels.iter().zip(&hierarchies[0].levels) {
                assert_eq!(a.graph, b.graph, "construction methods diverged");
            }
        }
    }
}
