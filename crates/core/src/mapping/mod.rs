//! Fine-to-coarse vertex mapping algorithms (`FindCoarseMapping` in
//! Algorithm 1).
//!
//! Every kernel here writes through `mlcg_par`'s safe disjoint-write
//! primitives or its atomic views, so the module forbids `unsafe`.
#![forbid(unsafe_code)]

pub mod classify;
pub mod gosh;
pub mod hec;
pub mod hec23;
pub mod hem;
pub mod mis2;
pub mod seq;
pub mod suitor;
pub mod twohop;
pub mod util;
pub mod workspace;

pub use workspace::MapWorkspace;

use mlcg_graph::Csr;
use mlcg_par::{profile, ExecPolicy};

/// Sentinel for "not yet mapped" (the paper's `M[u] = 0`).
pub const UNMAPPED: u32 = u32::MAX;

/// A fine-to-coarse vertex mapping: `map[u]` is the coarse vertex of fine
/// vertex `u`, with labels contiguous in `0..n_coarse`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Coarse label per fine vertex.
    pub map: Vec<u32>,
    /// Number of coarse vertices.
    pub n_coarse: usize,
}

impl Mapping {
    /// Check completeness (no `UNMAPPED`) and label contiguity.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.n_coarse];
        for (u, &m) in self.map.iter().enumerate() {
            if m == UNMAPPED {
                return Err(format!("vertex {u} unmapped"));
            }
            if (m as usize) >= self.n_coarse {
                return Err(format!("label {m} out of range at vertex {u}"));
            }
            seen[m as usize] = true;
        }
        if let Some(hole) = seen.iter().position(|&s| !s) {
            return Err(format!("coarse label {hole} unused"));
        }
        Ok(())
    }

    /// Sizes of all aggregates.
    pub fn aggregate_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_coarse];
        for &m in &self.map {
            sizes[m as usize] += 1;
        }
        sizes
    }

    /// `n_fine / n_coarse` for this one level.
    pub fn coarsening_ratio(&self) -> f64 {
        if self.n_coarse == 0 {
            0.0
        } else {
            self.map.len() as f64 / self.n_coarse as f64
        }
    }
}

/// Per-run statistics recorded by the mapping algorithms.
#[derive(Clone, Debug, Default)]
pub struct MapStats {
    /// Passes executed (HEC: its reservation rounds plus the closing
    /// sequential sweep, if one ran).
    pub passes: usize,
    /// Vertices resolved in each of the first
    /// [`MapStats::RESOLVED_PASS_CAP`] passes (HEC-family only). A pass
    /// loop may run up to `n` passes, so the vector is capacity-bounded;
    /// later passes accumulate into [`MapStats::resolved_overflow`].
    pub resolved_per_pass: Vec<usize>,
    /// Vertices resolved in passes beyond the per-pass cap.
    pub resolved_overflow: usize,
}

impl MapStats {
    /// Upper bound on `resolved_per_pass.len()`. The paper reports ≥99 %
    /// of vertices settle within two passes; 32 entries keep every
    /// observed run exact while bounding the allocation.
    pub const RESOLVED_PASS_CAP: usize = 32;

    /// Record one pass's resolved count, respecting the cap.
    pub fn record_resolved(&mut self, resolved: usize) {
        if self.resolved_per_pass.len() < Self::RESOLVED_PASS_CAP {
            self.resolved_per_pass.push(resolved);
        } else {
            self.resolved_overflow += resolved;
        }
    }

    /// Total vertices resolved across all passes (including overflow).
    pub fn resolved_total(&self) -> usize {
        self.resolved_per_pass.iter().sum::<usize>() + self.resolved_overflow
    }
}

/// Which mapping algorithm to run. See the crate docs for the table of
/// paper references.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MapMethod {
    /// Parallel Heavy Edge Coarsening (Algorithm 4), resolved by
    /// deterministic reservations: the same labels under every policy.
    Hec,
    /// Two-array race-free HEC variant (HEC2): the same labels under every
    /// policy.
    Hec2,
    /// Pseudoforest HEC variant with pointer jumping (Algorithm 5, HEC3).
    Hec3,
    /// Multi-pass parallel Heavy Edge Matching.
    Hem,
    /// HEM followed by two-hop matching (leaves, twins, relatives) with
    /// mt-Metis thresholds.
    MtMetis,
    /// GOSH coarsening: degree-ordered MIS-style aggregation.
    Gosh,
    /// New hybrid of GOSH and HEC (weighted, skips high-degree adjacencies).
    GoshHec,
    /// Distance-2 maximal-independent-set aggregation (Bell et al.).
    Mis2,
    /// Suitor approximate weighted matching (Manne & Halappanavar) — the
    /// paper's listed future-work comparison, implemented here.
    Suitor,
    /// Sequential HEC reference (Algorithm 3).
    SeqHec,
    /// Sequential HEM reference (Algorithm 2).
    SeqHem,
}

impl MapMethod {
    /// All parallel methods evaluated by the paper's Table IV.
    pub const TABLE4: [MapMethod; 5] = [
        MapMethod::Hec,
        MapMethod::Hem,
        MapMethod::MtMetis,
        MapMethod::Gosh,
        MapMethod::Mis2,
    ];

    /// Stable lowercase name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            MapMethod::Hec => "hec",
            MapMethod::Hec2 => "hec2",
            MapMethod::Hec3 => "hec3",
            MapMethod::Hem => "hem",
            MapMethod::MtMetis => "mtmetis",
            MapMethod::Gosh => "gosh",
            MapMethod::GoshHec => "goshec",
            MapMethod::Mis2 => "mis2",
            MapMethod::Suitor => "suitor",
            MapMethod::SeqHec => "seq-hec",
            MapMethod::SeqHem => "seq-hem",
        }
    }

    /// Parse a harness name back into a method.
    pub fn parse(s: &str) -> Option<MapMethod> {
        Some(match s {
            "hec" => MapMethod::Hec,
            "hec2" => MapMethod::Hec2,
            "hec3" => MapMethod::Hec3,
            "hem" => MapMethod::Hem,
            "mtmetis" => MapMethod::MtMetis,
            "gosh" => MapMethod::Gosh,
            "goshec" => MapMethod::GoshHec,
            "mis2" => MapMethod::Mis2,
            "suitor" => MapMethod::Suitor,
            "seq-hec" => MapMethod::SeqHec,
            "seq-hem" => MapMethod::SeqHem,
            _ => return None,
        })
    }
}

/// Run the selected mapping algorithm on a weighted graph. A vertex with no
/// neighbor always maps to an aggregate of its own.
///
/// The randomized visit order is derived from `seed`; results are
/// deterministic for the serial policy and a fixed seed. HEC, HEC2, HEC3,
/// GOSH-HEC, MIS-2, Suitor and the sequential references return the same
/// labels under every policy; HEM, mt-Metis and GOSH vary in
/// tie-resolution order under parallel policies.
///
/// ```
/// use mlcg_coarsen::{find_mapping, MapMethod};
/// use mlcg_par::ExecPolicy;
///
/// let g = mlcg_graph::generators::grid2d(8, 8);
/// let (mapping, stats) = find_mapping(&ExecPolicy::host(), &g, MapMethod::Hec, 42);
/// assert!(mapping.validate().is_ok());
/// assert!(mapping.n_coarse < g.n());
/// assert!(stats.passes >= 1);
/// ```
pub fn find_mapping(
    policy: &ExecPolicy,
    g: &Csr,
    method: MapMethod,
    seed: u64,
) -> (Mapping, MapStats) {
    find_mapping_in(policy, g, method, seed, &mut MapWorkspace::new())
}

/// [`find_mapping`] through a caller-owned [`MapWorkspace`]: the
/// allocation-free form the multilevel driver uses, so levels after the
/// first reuse the previous level's scratch capacity. Results are
/// bit-identical to the fresh-workspace form (pinned by
/// `mapping_props.rs`).
///
/// All mapping kernels run under the `map` profiler label, so dispatches
/// show up as `par_for/map/<phase>` in Chrome traces — mirroring
/// construction's `par_for/construct/<phase>` scheme.
pub fn find_mapping_in(
    policy: &ExecPolicy,
    g: &Csr,
    method: MapMethod,
    seed: u64,
    ws: &mut MapWorkspace,
) -> (Mapping, MapStats) {
    let _k = profile::kernel("map");
    let n = g.n();
    if n <= 1 {
        // Nothing to coarsen: a lone vertex is its own aggregate.
        let map = vec![0; n];
        return (Mapping { map, n_coarse: n }, MapStats::default());
    }
    match method {
        MapMethod::Hec => hec::hec(policy, g, seed, ws),
        MapMethod::Hec2 => hec23::hec2(policy, g, seed, ws),
        MapMethod::Hec3 => hec23::hec3(policy, g, seed, ws),
        MapMethod::Hem => hem::hem(policy, g, seed, ws),
        MapMethod::MtMetis => twohop::mtmetis(policy, g, seed, ws),
        MapMethod::Gosh => gosh::gosh(policy, g, seed, ws),
        MapMethod::GoshHec => gosh::gosh_hec(policy, g, seed, ws),
        MapMethod::Mis2 => mis2::mis2(policy, g, seed, ws),
        MapMethod::Suitor => suitor::suitor(policy, g, seed, ws),
        MapMethod::SeqHec => seq::seq_hec(g, seed, ws),
        MapMethod::SeqHem => seq::seq_hem(g, seed, ws),
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use mlcg_graph::generators as gen;

    /// Graphs exercised by every mapping algorithm's shared test battery.
    pub fn battery() -> Vec<(&'static str, Csr)> {
        vec![
            ("path", gen::path(50)),
            ("cycle", gen::cycle(33)),
            ("star", gen::star(40)),
            ("complete", gen::complete(12)),
            ("grid", gen::grid2d(12, 9)),
            ("delaunay", {
                let (g, _) = mlcg_graph::cc::largest_component(&gen::delaunay_like(15, 15, 3));
                g
            }),
            ("rmat", {
                let (g, _) =
                    mlcg_graph::cc::largest_component(&gen::rmat(8, 6, 0.57, 0.19, 0.19, 5));
                g
            }),
            ("two-vertex", gen::path(2)),
            // Isolated vertices and a 2-vertex component next to a path:
            // every method must give a vertex with no neighbor an
            // aggregate of its own.
            (
                "strays",
                mlcg_graph::builder::from_edges_unit(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (6, 7)]),
            ),
        ]
    }

    /// Assert the universal mapping postconditions on one graph.
    pub fn check_mapping(name: &str, g: &Csr, m: &Mapping) {
        assert_eq!(m.map.len(), g.n(), "{name}: map length");
        m.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(m.n_coarse >= 1, "{name}: empty coarse set");
        assert!(
            m.n_coarse < g.n() || g.n() <= 1,
            "{name}: no coarsening progress"
        );
    }

    /// Run a method over the battery under every test policy.
    pub fn run_battery(method: MapMethod) {
        for policy in ExecPolicy::all_test_policies() {
            for (name, g) in battery() {
                let (m, _) = find_mapping(&policy, &g, method, 42);
                check_mapping(name, &g, &m);
            }
        }
    }

    /// Assert every aggregate is connected in the fine graph — true for all
    /// the paper's strict aggregation schemes.
    pub fn check_aggregates_connected(g: &Csr, m: &Mapping) {
        use mlcg_graph::cc::Dsu;
        // Union fine endpoints of intra-aggregate edges; each aggregate must
        // form a single set.
        let mut dsu = Dsu::new(g.n());
        for u in 0..g.n() as u32 {
            for &v in g.neighbors(u) {
                if v > u && m.map[u as usize] == m.map[v as usize] {
                    dsu.union(u, v);
                }
            }
        }
        let mut root_of_agg: Vec<Option<u32>> = vec![None; m.n_coarse];
        for u in 0..g.n() as u32 {
            let a = m.map[u as usize] as usize;
            let r = dsu.find(u);
            match root_of_agg[a] {
                None => root_of_agg[a] = Some(r),
                Some(prev) => assert_eq!(prev, r, "aggregate {a} is disconnected"),
            }
        }
    }
}
