//! Sequential Fiduccia–Mattheyses refinement and the FM-based multilevel
//! bisection driver.
//!
//! The paper's FM implementation is sequential ("we are unaware of FM
//! parallelizations for massively multithreaded architectures"); only the
//! coarsening phase is parallel. Each pass greedily moves the
//! best-gain balance-feasible vertex, locking moved vertices, and rolls
//! back to the best prefix — the classic linear-time heuristic, here with
//! a lazy max-heap over weighted gains.
//!
//! Refinement is *boundary-driven*: a pass computes gains and heap-seeds
//! only the frontier (vertices with at least one cut edge, plus anything
//! whose stored gain a move invalidated), so a pass costs
//! `O(boundary + moved · deg)` instead of the `O(n + m)` full rebuild the
//! reference implementation ([`fm_refine_frac_full_scan`]) performs. The
//! multilevel driver seeds each level's frontier from the coarser level's
//! final boundary (see [`mlcg_coarsen::Hierarchy::project_frontier`]), so
//! uncoarsening never rescans interior vertices whose aggregate was
//! interior one level down.

use crate::parref::{rounds_then_polish, ParRefConfig, ParRefWorkspace};
use crate::result::{audit_partition, PartitionResult};
use mlcg_coarsen::{coarsen, CoarsenOptions, Hierarchy};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::{ExecPolicy, TraceCollector};
use std::collections::BinaryHeap;

/// FM tuning parameters.
#[derive(Clone, Debug)]
pub struct FmConfig {
    /// Maximum refinement passes per level.
    pub max_passes: usize,
    /// Allowed imbalance: a move is feasible while the heavier side stays
    /// at or below `(1 + epsilon) · total/2` (always at least `⌈total/2⌉`,
    /// so unit-weight graphs can reach exact balance).
    pub epsilon: f64,
    /// Additionally allow the heavier side one maximum-vertex-weight of
    /// slack. Exact balance is often unreachable on coarse graphs with
    /// heavy aggregates, and forcing it can destroy the cut; the
    /// multilevel driver enables this on every level except the finest
    /// (Metis-style progressive tightening).
    pub vertex_slack: bool,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            max_passes: 8,
            epsilon: 0.02,
            vertex_slack: false,
        }
    }
}

impl FmConfig {
    /// This configuration with [`FmConfig::vertex_slack`] enabled.
    pub fn with_vertex_slack(&self) -> Self {
        FmConfig {
            vertex_slack: true,
            ..self.clone()
        }
    }
}

/// Outcome of one boundary-driven refinement.
#[derive(Clone, Debug)]
pub struct FmRefineOutcome {
    /// Final weighted edge cut.
    pub cut: u64,
    /// Final boundary: every vertex with at least one cut edge. The
    /// multilevel driver projects this down one level (every fine vertex
    /// whose aggregate is listed here) to seed the next refinement.
    pub boundary: Vec<u32>,
}

/// Per-side weight limits derived from a balance slack and a target split.
/// Shared with the parallel refiner (`crate::parref`) so both refiners
/// enforce the identical envelope.
pub(crate) struct Balance {
    /// Final partitions must keep each side at or below its strict limit.
    pub(crate) strict: [u64; 2],
    /// During a pass, moves may wander one max-vertex beyond the strict
    /// limit (otherwise a perfectly balanced start could never move
    /// anything); the best-prefix selection restores strict balance.
    pub(crate) loose: [u64; 2],
}

impl Balance {
    pub(crate) fn new(g: &Csr, epsilon: f64, vertex_slack: bool, frac: f64) -> Balance {
        let total: u64 = g.total_vwgt();
        let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1);
        let t0 = ((total as f64 * frac).round() as u64).min(total);
        let target = [t0, total - t0];
        // Per-side cap: epsilon slack around the side's target, but never
        // below the rounded-up share (so exact balance stays reachable on
        // integer weights), plus one max-vertex of slack on coarse levels.
        let strict_side = |t: u64, share: f64| {
            let mut lim = (((t as f64) * (1.0 + epsilon)).floor() as u64)
                .max((total as f64 * share).ceil() as u64);
            if vertex_slack {
                lim += max_vwgt;
            }
            lim
        };
        let strict = [
            strict_side(target[0], frac),
            strict_side(target[1], 1.0 - frac),
        ];
        Balance {
            strict,
            loose: [strict[0] + max_vwgt, strict[1] + max_vwgt],
        }
    }

    /// How far either side exceeds its strict limit (0 when feasible).
    pub(crate) fn excess(&self, wp: &[u64; 2]) -> u64 {
        wp[0].saturating_sub(self.strict[0]) + wp[1].saturating_sub(self.strict[1])
    }
}

/// Boundary-driven FM refinement of a bisection — the production refiner.
/// Mutates `part` so that part 0 targets `frac` of the total vertex weight
/// (recursive k-way partitioning uses odd splits), and returns the final
/// cut and boundary.
///
/// Each pass computes gains and heap-seeds only the *frontier*; interior
/// vertices enter the heap lazily, when a committed move re-gains them.
/// The frontier is maintained incrementally: the next pass revisits the
/// current boundary plus every vertex whose stored gain a move (committed
/// *or* rolled back) invalidated, so a pass costs
/// `O(boundary + moved · deg)` rather than `O(n + m)`.
///
/// `seed_frontier`, when given, replaces the first pass's full vertex scan;
/// it must cover every vertex with a cut edge (a superset is fine — extra
/// candidates are filtered out after one gain computation). The multilevel
/// driver obtains it by projecting the coarser level's final boundary.
///
/// One exception needs a wider net: while a side exceeds its strict weight
/// limit, the pass also seeds every vertex of the over-limit side, because
/// balance repair may require moving vertices with no cut edge at all
/// (e.g. a degenerate everything-on-one-side start has an *empty*
/// boundary). Balanced runs never pay this cost.
///
/// Each pass records an `fm/pass{N}` span and an `fm/boundary_size` gauge
/// on `trace`, and prefix rollbacks feed the `fm/moves_rolled_back`
/// counter.
pub fn fm_refine(
    g: &Csr,
    part: &mut [u32],
    cfg: &FmConfig,
    frac: f64,
    seed_frontier: Option<&[u32]>,
    trace: &TraceCollector,
) -> FmRefineOutcome {
    let n = g.n();
    assert_eq!(part.len(), n);
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
    if n == 0 {
        return FmRefineOutcome {
            cut: 0,
            boundary: Vec::new(),
        };
    }
    let bal = Balance::new(g, cfg.epsilon, cfg.vertex_slack, frac);

    let mut wpart = [0u64; 2];
    for (u, &p) in part.iter().enumerate() {
        wpart[p as usize] += g.vwgt()[u];
    }

    let mut gain: Vec<i64> = vec![0; n];
    // External (cut-edge) weight per vertex, maintained alongside the
    // gain. Only vertices with `ext > 0` are heap-eligible: moving an
    // interior vertex is pure hill-climbing and re-scans the whole graph
    // one cascade at a time, which is exactly the O(n + m) behaviour this
    // refiner exists to avoid. (The balance-repair fallback below is the
    // one deliberate exception.)
    let mut ext: Vec<u64> = vec![0; n];
    // With a seeded frontier, vertices outside the seed have never had
    // their gain computed; the first touch must be a full recompute, not a
    // delta on the uninitialized value. Once known, a gain is kept fresh
    // by the frontier invariant (any neighbor flip re-frontiers the
    // vertex).
    let mut gain_known: Vec<bool> = vec![false; n];
    let mut version: Vec<u32> = vec![0; n];
    let mut locked: Vec<bool> = vec![false; n];
    // stamp[u] == epoch marks membership in the frontier being built for
    // the *next* pass (and dedups the initial seed at epoch 1).
    let mut stamp: Vec<u32> = vec![0; n];
    let mut epoch: u32 = 0;

    let mut frontier: Vec<u32> = match seed_frontier {
        Some(seed) => {
            debug_assert!(
                seed_covers_boundary(g, part, seed),
                "seed frontier misses a boundary vertex"
            );
            epoch += 1;
            let mut f = Vec::with_capacity(seed.len());
            for &u in seed {
                let ui = u as usize;
                assert!(ui < n, "seed frontier vertex {u} out of range");
                if stamp[ui] != epoch {
                    stamp[ui] = epoch;
                    f.push(u);
                }
            }
            f
        }
        None => (0..n as u32).collect(),
    };

    // Initial cut from the frontier instead of a full O(m) edge scan:
    // both endpoints of every cut edge are boundary vertices and the
    // frontier covers the boundary (asserted above for seeds), so summing
    // external weight over the frontier counts each cut edge exactly
    // twice. With a thin seeded frontier this is the difference between
    // O(m) and O(boundary · deg) per uncoarsening level.
    let mut ext_total: u64 = 0;
    for &u in &frontier {
        for (v, w) in g.edges(u) {
            if part[u as usize] != part[v as usize] {
                ext_total += w;
            }
        }
    }
    debug_assert_eq!(ext_total % 2, 0, "frontier missed a cut edge endpoint");
    let mut cut = (ext_total / 2) as i64;
    debug_assert_eq!(cut, edge_cut(g, part) as i64);

    for pass in 0..cfg.max_passes {
        let span = trace.span(|| format!("fm/pass{pass}"));
        epoch += 1;
        let mut next: Vec<u32> = Vec::new();
        let mut heap: BinaryHeap<(i64, u32, u32)> = BinaryHeap::new();
        // Recompute gains over the frontier; heap-seed only boundary
        // vertices. An interior frontier member keeps its (fresh) gain but
        // can only move after a neighbor's committed move pushes it.
        let mut boundary_size = 0usize;
        for &fu in &frontier {
            let u = fu as usize;
            let mut gsum = 0i64;
            let mut extw = 0u64;
            for (v, w) in g.edges(u as VId) {
                if part[u] == part[v as usize] {
                    gsum -= w as i64;
                } else {
                    gsum += w as i64;
                    extw += w;
                }
            }
            gain[u] = gsum;
            ext[u] = extw;
            gain_known[u] = true;
            locked[u] = false;
            if extw > 0 {
                heap.push((gsum, u as u32, version[u]));
                boundary_size += 1;
                if stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(u as u32);
                }
            }
        }
        trace.gauge_usize(|| "fm/boundary_size".to_string(), boundary_size);
        if bal.excess(&wpart) > 0 {
            // Balance-repair fallback: seed every vertex of any over-limit
            // side (the boundary alone may be unable to shed weight — it
            // can even be empty when one side holds the whole graph).
            for u in 0..n {
                let s = part[u] as usize;
                if wpart[s] > bal.strict[s] && stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(u as u32);
                    let mut gsum = 0i64;
                    let mut extw = 0u64;
                    for (v, w) in g.edges(u as VId) {
                        if part[u] == part[v as usize] {
                            gsum -= w as i64;
                        } else {
                            gsum += w as i64;
                            extw += w;
                        }
                    }
                    gain[u] = gsum;
                    ext[u] = extw;
                    gain_known[u] = true;
                    locked[u] = false;
                    // Pushed even when interior (ext == 0): shedding
                    // weight off an over-limit side may require moving
                    // vertices with no cut edge at all.
                    heap.push((gsum, u as u32, version[u]));
                }
            }
        }

        // Prefix quality key: (how far either side exceeds its strict
        // limit, cut). The empty prefix is the baseline, so an unbalanced
        // start can also be repaired.
        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        let mut moves: Vec<u32> = Vec::new();
        // Early pass termination: committed moves re-frontier their
        // neighbors, so a pass could otherwise sweep the cut line across
        // the whole graph (and roll it all back) — O(n) churn that defeats
        // the boundary restriction. Abort the move loop once a run of
        // moves proportional to the boundary finds no better prefix;
        // productive sequences reset the counter and keep going.
        let abort_limit = (2 * boundary_size).max(64);
        let mut since_best = 0usize;

        while let Some((gval, u, ver)) = heap.pop() {
            let u = u as usize;
            if locked[u] || ver != version[u] || gval != gain[u] {
                continue; // stale entry
            }
            let from = part[u] as usize;
            let to = 1 - from;
            if wpart[to] + g.vwgt()[u] > bal.loose[to] {
                continue; // balance-infeasible right now
            }
            // Commit the move.
            locked[u] = true;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
            cut -= gain[u];
            moves.push(u as u32);
            if stamp[u] != epoch {
                stamp[u] = epoch;
                next.push(u as u32);
            }
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= abort_limit {
                    // Safe to break before this move's neighbor updates:
                    // the move is past the best prefix, so the rollback
                    // below restores part[u] and its neighbors' stored
                    // gains were never touched for either flip. u itself
                    // was stamped into `next` at commit and is recomputed
                    // next pass.
                    break;
                }
            }
            // Update neighbor gains. Every neighbor's stored gain goes
            // stale when u flips (even a locked one, whose update is
            // skipped), so all of them join the next pass's frontier for
            // recomputation — this also covers staleness left behind by
            // the end-of-pass rollback.
            for (v, w) in g.edges(u as VId) {
                let v = v as usize;
                if stamp[v] != epoch {
                    stamp[v] = epoch;
                    next.push(v as u32);
                }
                if locked[v] {
                    continue;
                }
                if gain_known[v] {
                    // u flipped from `from` to `to`, so the (u, v) edge
                    // changed cut status for v as well.
                    if part[v] as usize == from {
                        gain[v] += 2 * w as i64;
                        ext[v] += w;
                    } else {
                        gain[v] -= 2 * w as i64;
                        ext[v] -= w;
                    }
                } else {
                    // First touch of a vertex outside the seeded frontier:
                    // full recompute (part[u] has already flipped, so the
                    // fresh gain includes this move — no delta on top).
                    let mut gsum = 0i64;
                    let mut extw = 0u64;
                    for (x, xw) in g.edges(v as VId) {
                        if part[v] == part[x as usize] {
                            gsum -= xw as i64;
                        } else {
                            gsum += xw as i64;
                            extw += xw;
                        }
                    }
                    gain[v] = gsum;
                    ext[v] = extw;
                    gain_known[v] = true;
                }
                version[v] += 1;
                // Only boundary vertices re-enter the heap; a vertex whose
                // last cut edge just disappeared drops out (its remaining
                // heap entries are stale by the gain change).
                if ext[v] > 0 {
                    heap.push((gain[v], v as u32, version[v]));
                }
            }
        }
        // Roll back past the best prefix.
        trace.counter_add("fm/moves_rolled_back", (moves.len() - best_len) as u64);
        for &u in &moves[best_len..] {
            let u = u as usize;
            let from = part[u] as usize;
            let to = 1 - from;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        span.finish();
        frontier = next;
        // A pass made progress iff a non-empty best prefix was kept — the
        // (excess, cut) key strictly improved, whether by lowering the cut
        // or by repairing balance. (The former `cut >= start_cut` exit
        // wrongly stopped after a pass that repaired balance at an equal
        // or higher cut, even though the next pass, starting from the
        // now-balanced partition, can improve the cut further.)
        if best_len == 0 {
            break;
        }
    }
    // By the frontier invariant, the last built frontier covers every
    // vertex that can still have a cut edge.
    let boundary: Vec<u32> = frontier
        .iter()
        .copied()
        .filter(|&u| {
            g.edges(u)
                .any(|(v, _)| part[u as usize] != part[v as usize])
        })
        .collect();
    FmRefineOutcome {
        cut: cut as u64,
        boundary,
    }
}

/// Debug-build check that a seed frontier covers the current boundary.
/// Label-agnostic, so the k-way refiner shares it.
pub(crate) fn seed_covers_boundary(g: &Csr, part: &[u32], seed: &[u32]) -> bool {
    let mut in_seed = vec![false; g.n()];
    for &u in seed {
        if let Some(s) = in_seed.get_mut(u as usize) {
            *s = true;
        }
    }
    (0..g.n()).all(|u| {
        in_seed[u]
            || g.neighbors(u as VId)
                .iter()
                .all(|&v| part[v as usize] == part[u])
    })
}

/// The pre-boundary reference implementation: rebuilds every gain and
/// heap-seeds all `n` vertices on every pass, costing `O(n + m)` per pass.
/// Kept as the baseline for the boundary-equivalence property tests and
/// the `bench_partition` full-scan/boundary comparison; production callers
/// use [`fm_refine`].
pub fn fm_refine_frac_full_scan(g: &Csr, part: &mut [u32], cfg: &FmConfig, frac: f64) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0, 1]");
    if n == 0 {
        return 0;
    }
    let bal = Balance::new(g, cfg.epsilon, cfg.vertex_slack, frac);

    let mut cut = edge_cut(g, part) as i64;
    let mut wpart = [0u64; 2];
    for (u, &p) in part.iter().enumerate() {
        wpart[p as usize] += g.vwgt()[u];
    }

    let mut gain: Vec<i64> = vec![0; n];
    let mut version: Vec<u32> = vec![0; n];
    let mut locked: Vec<bool> = vec![false; n];

    for _pass in 0..cfg.max_passes {
        // (Re)compute gains: external minus internal weight.
        for u in 0..n {
            let mut gsum = 0i64;
            for (v, w) in g.edges(u as VId) {
                if part[u] == part[v as usize] {
                    gsum -= w as i64;
                } else {
                    gsum += w as i64;
                }
            }
            gain[u] = gsum;
            version[u] = 0;
            locked[u] = false;
        }
        let mut heap: BinaryHeap<(i64, u32, u32)> =
            (0..n).map(|u| (gain[u], u as u32, 0u32)).collect();

        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        let mut moves: Vec<u32> = Vec::new();

        while let Some((gval, u, ver)) = heap.pop() {
            let u = u as usize;
            if locked[u] || ver != version[u] || gval != gain[u] {
                continue; // stale entry
            }
            let from = part[u] as usize;
            let to = 1 - from;
            if wpart[to] + g.vwgt()[u] > bal.loose[to] {
                continue; // balance-infeasible right now
            }
            locked[u] = true;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
            cut -= gain[u];
            moves.push(u as u32);
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
            }
            for (v, w) in g.edges(u as VId) {
                let v = v as usize;
                if locked[v] {
                    continue;
                }
                if part[v] as usize == from {
                    gain[v] += 2 * w as i64;
                } else {
                    gain[v] -= 2 * w as i64;
                }
                version[v] += 1;
                heap.push((gain[v], v as u32, version[v]));
            }
        }
        for &u in &moves[best_len..] {
            let u = u as usize;
            let from = part[u] as usize;
            let to = 1 - from;
            part[u] = to as u32;
            wpart[from] -= g.vwgt()[u];
            wpart[to] += g.vwgt()[u];
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        if best_len == 0 {
            break; // no progress: neither cut nor balance improved
        }
    }
    cut as u64
}

/// Full-scan counterpart of [`fm_uncoarsen_frac_traced`] under the serial
/// policy: the identical multilevel driver, but every level refines with
/// [`fm_refine_frac_full_scan`] (gains rebuilt and the heap re-seeded
/// over all `n` vertices each pass). Kept as the measurement baseline
/// for the boundary-driven refiner — `bench_partition` and the
/// equivalence property tests compare against it on the same hierarchy
/// and seed.
pub fn fm_uncoarsen_frac_full_scan(
    h: &Hierarchy,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
) -> (Vec<u32>, u64) {
    let coarse_cfg = cfg.with_vertex_slack();
    let coarsest = h.coarsest();
    let mut part = crate::ggg::greedy_graph_growing_frac(coarsest, seed, frac);
    let mut cut = fm_refine_frac_full_scan(coarsest, &mut part, &coarse_cfg, frac);
    for level in (0..h.num_levels()).rev() {
        part = h.interpolate_level(level, &part);
        let level_cfg = if level == 0 { cfg } else { &coarse_cfg };
        cut = fm_refine_frac_full_scan(h.graph_above(level), &mut part, level_cfg, frac);
    }
    (part, cut)
}

/// Multilevel bisection with parallel coarsening, greedy-graph-growing
/// initial partitioning, and sequential FM refinement at every level —
/// the paper's Table VI partitioner.
///
/// ```
/// use mlcg_partition::{fm_bisect, FmConfig};
/// use mlcg_coarsen::CoarsenOptions;
/// use mlcg_par::ExecPolicy;
///
/// let g = mlcg_graph::generators::grid2d(16, 8);
/// let r = fm_bisect(&ExecPolicy::host(), &g, &CoarsenOptions::default(),
///                   &FmConfig::default(), 42);
/// assert!(r.cut >= 8);             // optimal balanced cut of a 16x8 grid
/// assert!(r.imbalance <= 1.05);
/// ```
pub fn fm_bisect(
    policy: &ExecPolicy,
    g: &Csr,
    coarsen_opts: &CoarsenOptions,
    cfg: &FmConfig,
    seed: u64,
) -> PartitionResult {
    fm_bisect_frac(policy, g, coarsen_opts, cfg, 0.5, seed)
}

/// [`fm_bisect`] with part 0 targeting `frac` of the vertex weight
/// (recursive k-way partitioning uses 3:2-style splits for odd k).
pub fn fm_bisect_frac(
    policy: &ExecPolicy,
    g: &Csr,
    coarsen_opts: &CoarsenOptions,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
) -> PartitionResult {
    let trace = coarsen_opts.trace.clone();
    let span = trace.timed_span(|| "partition/fm/coarsen".to_string());
    let h = coarsen(policy, g, coarsen_opts);
    let coarsen_seconds = span.finish();
    let span = trace.timed_span(|| "partition/fm/refine".to_string());
    let part = fm_uncoarsen_frac_traced(policy, &h, cfg, frac, seed, &trace);
    let refine_seconds = span.finish();
    // Allowed imbalance on the finest level: the target share plus the
    // epsilon slack and at most one vertex of rounding, relative to total/2.
    let total = g.total_vwgt().max(1) as f64;
    let max_vwgt = g.vwgt().iter().copied().max().unwrap_or(1) as f64;
    let cap = 2.0 * frac.max(1.0 - frac) * (1.0 + cfg.epsilon) + 2.0 * max_vwgt / total + 1e-9;
    audit_partition(&trace, "partition/fm", g, &part, cap);
    PartitionResult::new(g, part, coarsen_seconds, refine_seconds, h.num_levels())
        .with_trace(trace.report())
}

/// The uncoarsening half: initial partition on the coarsest graph (part 0
/// targeting `frac` of the vertex weight), then project + FM-refine level
/// by level, with an execution policy and a trace sink threaded into every
/// per-level refinement. Under the serial policy this is the pure
/// sequential boundary-driven path.
///
/// Delegates to [`fm_uncoarsen_frac_hybrid`] with the default crossover,
/// so coarse levels whose projected frontier crosses the threshold refine
/// with parallel rounds before the sequential boundary pass.
pub fn fm_uncoarsen_frac_traced(
    policy: &ExecPolicy,
    h: &Hierarchy,
    cfg: &FmConfig,
    frac: f64,
    seed: u64,
    trace: &TraceCollector,
) -> Vec<u32> {
    let parref = ParRefConfig::default();
    fm_uncoarsen_frac_hybrid(policy, h, cfg, &parref, frac, seed, trace)
}

/// The hybrid uncoarsening driver: initial partition on the coarsest
/// graph, then project + refine level by level, choosing the refiner per
/// level with a crossover heuristic.
///
/// The coarsest level refines from a full scan; every finer level seeds
/// its frontier by projecting the coarser level's final boundary (a fine
/// vertex can be on the boundary only if its aggregate is), so per-level
/// refinement cost tracks the boundary, not the graph.
///
/// Each finer level is one [`rounds_then_polish`] step at
/// [`ParRefConfig::crossover_threshold`] (default `HOST_GRAIN` × workers —
/// a smaller frontier can't amortize waking the pool, per the
/// dispatch-latency findings in DESIGN §8): when the policy is parallel
/// and the projected frontier reaches the threshold, frontier-based
/// parallel rounds strip the bulk positive-gain moves in fused
/// dispatches, then the sequential boundary pass polishes from the
/// rounds' final frontier. Below the threshold — always on the finest
/// levels, where the boundary is thin — the level runs the sequential
/// boundary pass alone. Only `parref`'s crossover is read; each level's
/// balance comes from `cfg`. One [`ParRefWorkspace`] serves every level.
pub fn fm_uncoarsen_frac_hybrid(
    policy: &ExecPolicy,
    h: &Hierarchy,
    cfg: &FmConfig,
    parref: &ParRefConfig,
    frac: f64,
    seed: u64,
    trace: &TraceCollector,
) -> Vec<u32> {
    let _mem = trace.heap_scope(|| "fm".to_string());
    let coarse_cfg = cfg.with_vertex_slack();
    let coarsest = h.coarsest();
    let mut part = crate::ggg::greedy_graph_growing_frac(coarsest, seed, frac);
    let mut outcome = fm_refine(coarsest, &mut part, &coarse_cfg, frac, None, trace);
    let crossover = parref.crossover_threshold(policy);
    let mut ws = ParRefWorkspace::new();
    for level in (0..h.num_levels()).rev() {
        part = h.interpolate_level(level, &part);
        let frontier = h.project_frontier_ids(level, &outcome.boundary);
        // Tighten to the caller's balance on the finest level only.
        let level_cfg = if level == 0 { cfg } else { &coarse_cfg };
        outcome = rounds_then_polish(
            policy,
            h.graph_above(level),
            &mut part,
            level_cfg,
            crossover,
            frac,
            Some(&frontier),
            &mut ws,
            trace,
        );
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
    use mlcg_graph::metrics::{imbalance, part_weights};
    use mlcg_par::rng::Xoshiro256pp;

    #[test]
    fn fm_never_worsens_and_greatly_improves_alternating_path() {
        let g = gen::path(20);
        // Worst-case alternating partition (cut 19). Flat FM is a local
        // heuristic, so it need not reach the optimum of 1 from an
        // adversarial start — but it must improve drastically and stay
        // balanced.
        let mut part: Vec<u32> = (0..20).map(|i| i % 2).collect();
        let before = edge_cut(&g, &part);
        let trace = TraceCollector::disabled();
        let after = fm_refine(&g, &mut part, &FmConfig::default(), 0.5, None, &trace).cut;
        assert!(after <= before);
        assert_eq!(after, edge_cut(&g, &part));
        assert!(after <= 5, "cut {after} after refinement of {before}");
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(w0, w1);
    }

    #[test]
    fn multilevel_fm_finds_the_optimal_path_cut() {
        // The multilevel driver escapes flat FM's local optima: a balanced
        // path bisection cuts exactly one edge.
        let g = gen::path(64);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            11,
        );
        assert_eq!(r.cut, 1);
        let (w0, w1) = part_weights(&g, &r.part);
        assert_eq!(w0, w1);
    }

    #[test]
    fn balance_repair_pass_does_not_terminate_refinement() {
        // Regression for the pass-termination bug: the old loop broke
        // whenever a pass failed to strictly reduce the cut, even when the
        // pass had just repaired balance — freezing the cut at its
        // pre-repair value. From the unbalanced start [0,1,1,1,1,0] on a
        // 6-path, pass 1 repairs 2:4 to 3:3 at the unchanged cut of 2;
        // only a second pass can slide the boundary to the optimal cut 1.
        let g = gen::path(6);
        let start = vec![0, 1, 1, 1, 1, 0];
        let cfg = FmConfig {
            max_passes: 8,
            epsilon: 0.0,
            vertex_slack: false,
        };

        let mut part1 = start.clone();
        let cut_one_pass = fm_refine(
            &g,
            &mut part1,
            &FmConfig {
                max_passes: 1,
                ..cfg.clone()
            },
            0.5,
            None,
            &TraceCollector::disabled(),
        )
        .cut;

        let mut part = start;
        let cut = fm_refine(&g, &mut part, &cfg, 0.5, None, &TraceCollector::disabled()).cut;
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!((w0, w1), (3, 3), "balance repaired");
        assert!(
            cut_one_pass > cut,
            "instance must need a second pass: pass-1 cut {cut_one_pass}, final {cut}"
        );
        assert_eq!(cut, 1, "second pass reaches the optimal path cut");
    }

    #[test]
    fn fm_respects_balance_limit() {
        let g = gen::complete(10);
        // FM would love to move everything to one side (cut -> 0); the
        // balance limit must prevent it.
        let mut part: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
        fm_refine(
            &g,
            &mut part,
            &FmConfig {
                max_passes: 4,
                epsilon: 0.0,
                vertex_slack: false,
            },
            0.5,
            None,
            &TraceCollector::disabled(),
        );
        let (w0, w1) = part_weights(&g, &part);
        assert_eq!(
            w0.max(w1),
            5,
            "epsilon 0 forbids any imbalance on even totals"
        );
    }

    #[test]
    fn fm_improves_random_partitions_on_grid() {
        let g = gen::grid2d(16, 8);
        let mut rng = Xoshiro256pp::new(3);
        let mut part: Vec<u32> = (0..g.n()).map(|_| rng.next_below(2) as u32).collect();
        // Make it balanced first (random may be off by a few).
        let ones: i64 = part.iter().map(|&p| p as i64).sum::<i64>()
            - (g.n() as i64 - part.iter().map(|&p| p as i64).sum::<i64>());
        let mut excess = ones / 2;
        for p in part.iter_mut() {
            if excess > 0 && *p == 1 {
                *p = 0;
                excess -= 1;
            } else if excess < 0 && *p == 0 {
                *p = 1;
                excess += 1;
            }
        }
        let before = edge_cut(&g, &part);
        let trace = TraceCollector::disabled();
        let after = fm_refine(&g, &mut part, &FmConfig::default(), 0.5, None, &trace).cut;
        assert!(
            after < before / 2,
            "FM should drastically improve random cuts: {before} -> {after}"
        );
    }

    #[test]
    fn fm_bisect_grid_quality() {
        // A 16x8 grid's optimal balanced bisection cuts 8 edges.
        let g = gen::grid2d(16, 8);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            7,
        );
        assert!(r.cut <= 16, "grid cut {} far from optimal 8", r.cut);
        assert!(r.imbalance <= 1.05, "imbalance {}", r.imbalance);
        assert_eq!(r.cut, edge_cut(&g, &r.part));
    }

    #[test]
    fn fm_bisect_separates_barbell() {
        // Two cliques joined by one edge: the optimal cut is 1.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                edges.push((i, j));
                edges.push((i + 10, j + 10));
            }
        }
        edges.push((0, 10));
        let g = mlcg_graph::builder::from_edges_unit(20, &edges);
        let r = fm_bisect(
            &ExecPolicy::serial(),
            &g,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            3,
        );
        assert_eq!(r.cut, 1, "FM must find the barbell bridge");
        assert!((imbalance(&g, &r.part) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fm_handles_weighted_coarse_vertices() {
        let mut g = gen::path(6);
        g.set_vwgt(vec![5, 1, 1, 1, 1, 5]);
        let mut part = vec![0, 0, 0, 1, 1, 1];
        let cut = fm_refine(
            &g,
            &mut part,
            &FmConfig {
                max_passes: 4,
                epsilon: 0.1,
                vertex_slack: false,
            },
            0.5,
            None,
            &TraceCollector::disabled(),
        )
        .cut;
        assert_eq!(cut, edge_cut(&g, &part));
        let (w0, w1) = part_weights(&g, &part);
        assert!(w0.max(w1) <= 8, "weights {w0}/{w1} exceed the 10% slack");
    }
}
