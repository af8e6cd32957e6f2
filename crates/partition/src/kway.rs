//! k-way partitioning by recursive bisection.
//!
//! The paper evaluates bisection only; a downstream user of a multilevel
//! partitioner almost always wants `k` parts. This module recursively
//! applies any bisection routine, splitting the target part count
//! (im)properly for non-powers of two: a 5-way partition first bisects
//! 3:2 by weight, then recurses.
//!
//! Each bisection goes through [`fm_bisect_frac`], whose uncoarsening is
//! the hybrid driver (`fm_uncoarsen_frac_hybrid`): under a parallel
//! policy, coarse levels whose projected frontier crosses the crossover
//! threshold run the frontier round engine (`rounds_then_polish`) before
//! the sequential boundary FM polish — so recursive k-way inherits the
//! parallel engine on the top-level (largest) subproblems, where it pays,
//! and stays on the sequential fast path for the small deep-recursion
//! pieces. The direct k-way post-pass runs the same rounds and the same
//! sequential FM over all `k` labels.
//!
//! Below the top bisection, the two sides of every split are independent
//! subproblems; under a parallel policy they recurse concurrently, one
//! per pool participant (see `recurse`). A side that bisection left
//! disconnected gives its heavy components proportional shares of the
//! labels to recurse into and packs the light ones whole into the
//! lightest labels (see `label_components`).

use crate::fm::{fm_bisect_frac, FmConfig};
use crate::kwayref::{kway_direct_refine, KwayRefineConfig};
use mlcg_coarsen::CoarsenOptions;
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::Csr;
use mlcg_par::{parallel_for_weighted, ExecPolicy, Timer, TraceCollector};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Outcome of a k-way partition.
#[derive(Clone, Debug)]
pub struct KwayResult {
    /// Part label in `0..k` per vertex.
    pub part: Vec<u32>,
    /// Weighted edge cut across all part boundaries.
    pub cut: u64,
    /// `max_p w(p) / (total / k)`; 1.0 is perfect.
    pub imbalance: f64,
    /// Total wall time.
    pub seconds: f64,
    /// Time spent in the direct k-way refinement post-pass (0 when
    /// disabled or `k < 2`).
    pub refine_seconds: f64,
}

/// Configuration for [`kway_partition_cfg`].
#[derive(Clone, Debug)]
pub struct KwayConfig {
    /// Run direct k-way refinement over the finished labeling, so cuts
    /// recursive bisection froze early — and the edge-ignoring
    /// `direct_kway_split` fallback assignments — get revisited with all
    /// `k` labels in view.
    pub direct_refine: bool,
    /// Tuning for the refinement post-pass. `epsilon` and `vertex_slack`
    /// should normally mirror the bisection `FmConfig` (the flat
    /// [`kway_partition`] wrapper copies them over).
    pub refine: KwayRefineConfig,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig {
            direct_refine: true,
            refine: KwayRefineConfig::default(),
        }
    }
}

/// Partition into `k` balanced parts by recursive FM bisection, then
/// direct k-way refinement (see [`kway_partition_cfg`]).
pub fn kway_partition(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
) -> KwayResult {
    let cfg = KwayConfig {
        refine: KwayRefineConfig {
            epsilon: fm.epsilon,
            vertex_slack: fm.vertex_slack,
            ..Default::default()
        },
        ..Default::default()
    };
    kway_partition_cfg(
        policy,
        g,
        k,
        coarsen_opts,
        fm,
        &cfg,
        seed,
        &TraceCollector::disabled(),
    )
}

/// Partition into `k` balanced parts: recursive FM bisection, then —
/// when [`KwayConfig::direct_refine`] is set — one direct k-way
/// refinement pass over the finished labeling.
///
/// The reported cut is the refiner's incrementally maintained value
/// (debug-asserted against, and under `MLCG_VALIDATE` audited as
/// `kway-cut-agree` with, a from-scratch [`edge_cut`] recount); the
/// O(m) recount only runs eagerly when the refinement post-pass is
/// disabled. Each refined partition bumps the `kway/direct_refine`
/// trace counter.
#[allow(clippy::too_many_arguments)]
pub fn kway_partition_cfg(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    cfg: &KwayConfig,
    seed: u64,
    trace: &TraceCollector,
) -> KwayResult {
    assert!(k >= 1, "k must be positive");
    let t = Timer::start();
    let mut part = recurse(policy, g, k, coarsen_opts, fm, seed);
    let (cut, refine_seconds) = if cfg.direct_refine && k >= 2 && g.n() > 0 {
        let rt = Timer::start();
        let cut = kway_direct_refine(policy, g, &mut part, k, &cfg.refine, trace);
        trace.counter_add("kway/direct_refine", 1);
        debug_assert_eq!(cut, edge_cut(g, &part), "refined k-way cut drifted");
        if trace.validate_enabled() {
            let recount = edge_cut(g, &part);
            trace.audit(
                "partition/kway",
                "kway-cut-agree",
                if cut == recount {
                    Ok(())
                } else {
                    Err(format!("incremental cut {cut} != edge_cut {recount}"))
                },
            );
        }
        (cut, rt.seconds())
    } else {
        (edge_cut(g, &part), 0.0)
    };
    let imbalance = kway_imbalance(g, &part, k);
    KwayResult {
        part,
        cut,
        imbalance,
        seconds: t.seconds(),
        refine_seconds,
    }
}

/// `max_p w(p) / (total/k)` for a k-way partition.
///
/// Labels must lie in `0..k` (asserted). Empty parts are tolerated — they
/// are legitimate when `n < k` — and simply never contribute to the max;
/// callers that require every label populated can check
/// [`kway_empty_parts`].
pub fn kway_imbalance(g: &Csr, part: &[u32], k: usize) -> f64 {
    let mut w = vec![0u64; k];
    for (u, &p) in part.iter().enumerate() {
        assert!(
            (p as usize) < k,
            "part label {p} out of range for k={k} (vertex {u})"
        );
        w[p as usize] += g.vwgt()[u];
    }
    let total: u64 = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / k as f64;
    w.iter().copied().max().unwrap_or(0) as f64 / ideal
}

/// Number of labels in `0..k` with no assigned vertex. Zero for a healthy
/// k-way partition whenever `n >= k`; a positive count flags label dropout
/// upstream (the bug this helper exists to surface).
pub fn kway_empty_parts(part: &[u32], k: usize) -> usize {
    let mut seen = vec![false; k];
    for &p in part {
        assert!((p as usize) < k, "part label {p} out of range for k={k}");
        seen[p as usize] = true;
    }
    seen.iter().filter(|&&s| !s).count()
}

/// Label `g`'s vertices `0..k` by recursive bisection: split `k` into
/// `k0 = ⌈k/2⌉` and `k1 = ⌊k/2⌋`, bisect `g` with side 0 targeting
/// `k0/k` of the weight (so odd `k` stays balanced), label each side with
/// [`label_side`], and offset side 1's labels by `k0`. A side with fewer
/// vertices than its share of labels (a heavy vertex held alone, say)
/// takes one label per vertex and hands the surplus to the other side.
///
/// The two sides are independent, so they run as one two-task
/// [`parallel_for_weighted`] dispatch whose team is sized by the lighter
/// side's adjacency (twice it): under a parallel policy, called from
/// outside the pool, two sides that both carry real work recurse
/// concurrently, and every kernel nested inside a side runs inline on the
/// participant that claimed it. Under the serial policy, inside a pool
/// worker, or when either side is too small to amortize a dispatch, side 0
/// runs before side 1 on the calling thread. Each side returns its own
/// label vector and the parent scatters both, so the output does not
/// depend on the schedule.
fn recurse(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
) -> Vec<u32> {
    if k <= 1 || g.n() <= 1 {
        return vec![0; g.n()];
    }
    let k0 = k.div_ceil(2);
    let k1 = k / 2;
    let r = fm_bisect_frac(policy, g, coarsen_opts, fm, k0 as f64 / k as f64, seed);

    // Degenerate bisection: one side came back empty (heavy vertices or a
    // collapsed coarse hierarchy can defeat the balance constraint).
    // Dropping the empty side would silently emit fewer than k labels, so
    // the whole graph is split directly across all k instead.
    let n0 = r.part.iter().filter(|&&s| s == 0).count();
    if n0 == 0 || n0 == g.n() {
        return direct_kway_split(g, k);
    }
    // A side never takes more labels than it has vertices; the surplus
    // goes to the other side.
    let n1 = g.n() - n0;
    let k0 = if n0 < k0 {
        n0
    } else if n1 < k1 {
        k - n1
    } else {
        k0
    };
    let k1 = k - k0;

    // Each side's vertices, its label count, and its induced subgraph when
    // it needs more than one label.
    let sides = [(0u32, k0), (1, k1)].map(|(side, sub_k)| {
        let ids: Vec<u32> = (0..g.n() as u32)
            .filter(|&u| r.part[u as usize] == side)
            .collect();
        let sub = (sub_k > 1).then(|| mlcg_graph::cc::induced_subgraph(g, &ids).0);
        (ids, sub_k, sub)
    });
    let lighter = sides
        .iter()
        .map(|(_, _, sub)| sub.as_ref().map_or(0, |sub| sub.adj().len()))
        .min()
        .unwrap_or(0);
    let labels: [OnceLock<Vec<u32>>; 2] = Default::default();
    parallel_for_weighted(policy, 2 * lighter, 2, |side| {
        let (ids, sub_k, sub) = &sides[side];
        let sub_labels = match sub {
            Some(sub) => {
                let sub_seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(side as u64 + 1);
                label_side(policy, sub, *sub_k, coarsen_opts, fm, sub_seed)
            }
            None => vec![0; ids.len()],
        };
        labels[side]
            .set(sub_labels)
            .expect("each side is labeled once");
    });

    let mut part = vec![0u32; g.n()];
    for ((ids, _, _), (sub_labels, offset)) in sides.iter().zip(labels.into_iter().zip([0, k0])) {
        let sub_labels = sub_labels.into_inner().expect("both sides were labeled");
        for (&u, &l) in ids.iter().zip(&sub_labels) {
            part[u as usize] = offset as u32 + l;
        }
    }
    part
}

/// Label a bisection side's vertices `0..k` (`k >= 2`).
///
/// A side with fewer vertices than labels is split directly (recursion
/// merges everything into one label at its `n <= 1` base case, so it could
/// not populate them all). A connected side recurses. A disconnected side
/// — bisection can leave a few stray vertices cut off from the bulk —
/// goes to [`label_components`] and bumps the `kway/component_splits`
/// counter on the coarsening trace.
fn label_side(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
) -> Vec<u32> {
    if g.n() < k {
        return direct_kway_split(g, k);
    }
    let (comp, ncomp) = mlcg_graph::cc::components(g);
    if ncomp == 1 {
        return recurse(policy, g, k, coarsen_opts, fm, seed);
    }
    coarsen_opts.trace.counter_add("kway/component_splits", 1);
    label_components(policy, g, k, &comp, ncomp, coarsen_opts, fm, seed)
}

/// Label a disconnected side's vertices `0..k` without giving any
/// component a whole label it cannot fill.
///
/// The `m` heaviest components recurse, sharing the labels in proportion
/// to their weight (see [`apportion`]); the rest (the *strays*) are packed
/// whole, heaviest first, onto the lightest label (see [`pack`]). `m` is
/// chosen by the heaviest label it predicts, each recursing component's
/// labels taken at an even split of its weight; ties go to the smaller `m`.
/// The heaviest component therefore always gets labels of its own, and a
/// side made of one giant component and a few strays splits the giant
/// across nearly all of its labels instead of confining it to one.
#[allow(clippy::too_many_arguments)]
fn label_components(
    policy: &ExecPolicy,
    g: &Csr,
    k: usize,
    comp: &[u32],
    ncomp: usize,
    coarsen_opts: &CoarsenOptions,
    fm: &FmConfig,
    seed: u64,
) -> Vec<u32> {
    let mut weight = vec![0u64; ncomp];
    let mut size = vec![0usize; ncomp];
    for (u, &c) in comp.iter().enumerate() {
        weight[c as usize] += g.vwgt()[u];
        size[c as usize] += 1;
    }
    // Heaviest first, ties to the lowest component id.
    let mut order: Vec<usize> = (0..ncomp).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(weight[c]), c));
    let mut best: Option<(u64, Vec<usize>)> = None;
    for m in 1..=k.min(ncomp) {
        let Some(shares) = apportion(&order[..m], k, &weight, &size) else {
            continue;
        };
        let mut loads: Vec<u64> = order[..m]
            .iter()
            .zip(&shares)
            .flat_map(|(&c, &s)| std::iter::repeat_n(weight[c].div_ceil(s as u64), s))
            .collect();
        pack(&mut loads, &order[m..], &weight);
        let peak = loads.into_iter().max().unwrap_or(0);
        if best.as_ref().is_none_or(|(b, _)| peak < *b) {
            best = Some((peak, shares));
        }
    }
    let (_, shares) = best.expect("a side with at least k vertices can take k labels");
    let m = shares.len();

    // Vertices of each recursing component, in ascending id order.
    let mut slot = vec![usize::MAX; ncomp];
    for (i, &c) in order[..m].iter().enumerate() {
        slot[c] = i;
    }
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (u, &c) in comp.iter().enumerate() {
        if let Some(ids) = members.get_mut(slot[c as usize]) {
            ids.push(u as u32);
        }
    }
    let mut part = vec![0u32; g.n()];
    let mut loads = vec![0u64; k];
    let mut base = 0u32;
    for (i, (ids, &share)) in members.iter().zip(&shares).enumerate() {
        let labels = if share > 1 {
            let (sub, _) = mlcg_graph::cc::induced_subgraph(g, ids);
            let sub_seed = seed.wrapping_add(i as u64);
            recurse(policy, &sub, share, coarsen_opts, fm, sub_seed)
        } else {
            vec![0; ids.len()]
        };
        for (&u, &l) in ids.iter().zip(&labels) {
            part[u as usize] = base + l;
            loads[(base + l) as usize] += g.vwgt()[u as usize];
        }
        base += share as u32;
    }
    let stray_labels = pack(&mut loads, &order[m..], &weight);
    let mut label_of = vec![0u32; ncomp];
    for (&c, &l) in order[m..].iter().zip(&stray_labels) {
        label_of[c] = l;
    }
    for (u, &c) in comp.iter().enumerate() {
        if slot[c as usize] == usize::MAX {
            part[u] = label_of[c as usize];
        }
    }
    part
}

/// Share `k` labels among `comps` (heaviest first): one each, then every
/// further label to the component with the heaviest weight per label held
/// (ties to the earlier one), never more labels than it has vertices.
/// `None` when they cannot hold `k` labels.
fn apportion(comps: &[usize], k: usize, weight: &[u64], size: &[usize]) -> Option<Vec<usize>> {
    let mut shares = vec![1usize; comps.len()];
    for _ in comps.len()..k {
        let room = (0..comps.len()).filter(|&i| shares[i] < size[comps[i]]);
        // w_a / s_a < w_b / s_b, cross-multiplied.
        let lighter = |a: usize, b: usize| {
            u128::from(weight[comps[a]]) * (shares[b] as u128)
                < u128::from(weight[comps[b]]) * (shares[a] as u128)
        };
        let i = room.reduce(|a, b| if lighter(a, b) { b } else { a })?;
        shares[i] += 1;
    }
    Some(shares)
}

/// Pack whole components, in the given (heaviest-first) order, each onto
/// the lightest label (ties to the lowest), adding their weights to
/// `loads`. Returns each component's label.
fn pack(loads: &mut [u64], comps: &[usize], weight: &[u64]) -> Vec<u32> {
    let mut by_load: BTreeSet<(u64, u32)> = (0..loads.len() as u32)
        .map(|p| (loads[p as usize], p))
        .collect();
    comps
        .iter()
        .map(|&c| {
            let (load, p) = by_load.pop_first().expect("k >= 1");
            loads[p as usize] = load + weight[c];
            by_load.insert((loads[p as usize], p));
            p
        })
        .collect()
}

/// Greedy weight-balanced direct split of `g` into labels `0..k`: assign
/// vertices, heaviest first, to the least-loaded label (ties broken toward
/// the lowest label, so empty labels fill before any label doubles up).
/// Ignores edges entirely — this is a label-coverage fallback for cases
/// where recursive bisection cannot populate every label, not a quality
/// path.
fn direct_kway_split(g: &Csr, k: usize) -> Vec<u32> {
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by_key(|&u| std::cmp::Reverse((g.vwgt()[u], u)));
    let mut loads = vec![0u64; k];
    let mut part = vec![0u32; g.n()];
    for u in order {
        let target = (0..k)
            .min_by_key(|&p| (loads[p], p))
            .expect("k >= 1 in direct split");
        part[u] = target as u32;
        loads[target] += g.vwgt()[u];
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;

    fn run(g: &Csr, k: usize) -> KwayResult {
        kway_partition(
            &ExecPolicy::serial(),
            g,
            k,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            7,
        )
    }

    #[test]
    fn four_way_grid() {
        let g = gen::grid2d(16, 16);
        let r = run(&g, 4);
        // Optimal 4-way cut of a 16x16 grid is 32 (two orthogonal cuts).
        assert!(r.cut <= 64, "4-way cut {}", r.cut);
        assert!(r.imbalance <= 1.15, "imbalance {}", r.imbalance);
        let mut used: Vec<u32> = r.part.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1, 2, 3], "all four labels used");
    }

    #[test]
    fn k_equal_one_is_trivial() {
        let g = gen::grid2d(8, 8);
        let r = run(&g, 1);
        assert_eq!(r.cut, 0);
        assert!(r.part.iter().all(|&p| p == 0));
        assert!((r.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn odd_k_uses_all_labels() {
        let g = gen::grid2d(20, 12);
        let r = run(&g, 5);
        let mut used: Vec<u32> = r.part.clone();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 5, "labels {used:?}");
        assert!(r.imbalance <= 1.35, "imbalance {}", r.imbalance);
    }

    #[test]
    fn eight_way_mesh_balance() {
        let g = gen::grid3d(10, 10, 10, gen::Stencil::Star7);
        let r = run(&g, 8);
        assert!(r.imbalance <= 1.2, "imbalance {}", r.imbalance);
        assert_eq!(r.cut, edge_cut(&g, &r.part));
    }

    #[test]
    fn kway_on_skewed_graph() {
        let (g, _) = mlcg_graph::cc::largest_component(&gen::rmat(10, 8, 0.57, 0.19, 0.19, 3));
        let r = run(&g, 4);
        assert!(r.imbalance <= 1.35, "imbalance {}", r.imbalance);
        assert!(r.cut > 0);
    }

    #[test]
    fn heavy_vertex_pair_uses_both_labels() {
        // One vertex carries ~99% of the weight, so no bisection can meet
        // the balance constraint and one side may come back empty. The old
        // code silently emitted a single label; the fallback must still
        // produce both.
        let mut g = mlcg_graph::builder::from_edges_weighted(2, &[(0, 1, 1)]);
        g.set_vwgt(vec![1, 100]);
        let r = run(&g, 2);
        assert_eq!(kway_empty_parts(&r.part, 2), 0, "labels {:?}", r.part);
        assert!(r.part.iter().all(|&p| p < 2));
    }

    #[test]
    fn star_with_heavy_center_uses_all_labels() {
        let mut g = gen::star(9);
        let mut vw = vec![1u64; g.n()];
        vw[0] = 1000;
        g.set_vwgt(vw);
        let r = run(&g, 4);
        assert_eq!(kway_empty_parts(&r.part, 4), 0, "labels {:?}", r.part);
        // With the center pinned in one part the other three split the
        // leaves; imbalance is dominated by the center but must be finite
        // and computed against all 4 parts.
        assert!(r.imbalance.is_finite());
    }

    #[test]
    fn more_parts_than_vertices_is_tolerated() {
        let g = gen::path(3);
        let r = run(&g, 5);
        assert!(r.part.iter().all(|&p| p < 5), "labels {:?}", r.part);
        // Exactly 3 labels can be populated; the other 2 are legitimately
        // empty and kway_imbalance must tolerate them.
        assert_eq!(kway_empty_parts(&r.part, 5), 2, "labels {:?}", r.part);
        assert!(r.imbalance.is_finite() && r.imbalance >= 1.0);
    }

    /// The three `direct_kway_split` fallback triggers — (a) a
    /// degenerate bisection side (heavy pair), (b) a side with fewer
    /// vertices than its label budget (tiny path), (c) a disconnected
    /// side with fewer components than labels (disjoint triangles) —
    /// must all be followed by the direct refinement post-pass rather
    /// than shipping the edge-ignoring greedy assignment as-is.
    #[test]
    fn fallback_assignments_route_through_direct_refiner() {
        let mut heavy = mlcg_graph::builder::from_edges_weighted(2, &[(0, 1, 1)]);
        heavy.set_vwgt(vec![1, 100]);
        let tiny = gen::path(3);
        let tris = mlcg_graph::builder::from_edges_weighted(
            9,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
                (6, 7, 1),
                (7, 8, 1),
                (8, 6, 1),
            ],
        );
        for (g, k, empties) in [
            (&heavy, 2usize, Some(0usize)),
            (&tiny, 5, Some(2)),
            (&tris, 8, None),
        ] {
            let policy = ExecPolicy::serial();
            let baseline = kway_partition_cfg(
                &policy,
                g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &KwayConfig {
                    direct_refine: false,
                    ..Default::default()
                },
                7,
                &TraceCollector::disabled(),
            );
            let trace = TraceCollector::enabled();
            let refined = kway_partition_cfg(
                &policy,
                g,
                k,
                &CoarsenOptions::default(),
                &FmConfig::default(),
                &KwayConfig::default(),
                7,
                &trace,
            );
            let report = trace.report();
            assert_eq!(
                report.counter("kway/direct_refine"),
                1,
                "k={k}: refiner post-pass must run on fallback output"
            );
            assert_eq!(refined.cut, edge_cut(g, &refined.part), "k={k}");
            assert!(
                refined.cut <= baseline.cut,
                "k={k}: refined {} worse than raw fallback {}",
                refined.cut,
                baseline.cut
            );
            // Refinement must not introduce label dropout beyond what the
            // recursion itself produced (exact counts pinned where the
            // recursion's outcome is determined by the graph shape).
            let expected = empties.unwrap_or_else(|| kway_empty_parts(&baseline.part, k));
            assert_eq!(
                kway_empty_parts(&refined.part, k),
                expected,
                "k={k} labels {:?}",
                refined.part
            );
        }
    }

    /// Refinement visibly repairs the quality the edge-ignoring fallback
    /// leaves on the table: two disjoint triangles split 2-ways must end
    /// with zero cut (one triangle per part), which the greedy
    /// weight-first split alone does not guarantee.
    #[test]
    fn direct_refine_fixes_the_greedy_split() {
        let g = mlcg_graph::builder::from_edges_weighted(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
            ],
        );
        let mut part = direct_kway_split(&g, 2);
        let raw = edge_cut(&g, &part);
        let cut = crate::kwayref::kway_direct_refine(
            &ExecPolicy::serial(),
            &g,
            &mut part,
            2,
            &crate::kwayref::KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(cut, edge_cut(&g, &part));
        assert_eq!(cut, 0, "triangles should separate (raw fallback cut {raw})");
    }

    #[test]
    fn disabling_direct_refine_recounts_eagerly() {
        let g = gen::grid2d(10, 10);
        let r = kway_partition_cfg(
            &ExecPolicy::serial(),
            &g,
            4,
            &CoarsenOptions::default(),
            &FmConfig::default(),
            &KwayConfig {
                direct_refine: false,
                ..Default::default()
            },
            7,
            &TraceCollector::disabled(),
        );
        assert_eq!(r.cut, edge_cut(&g, &r.part));
        assert_eq!(r.refine_seconds, 0.0);
    }

    #[test]
    fn imbalance_helper() {
        let g = gen::path(8);
        let part = vec![0, 0, 1, 1, 2, 2, 3, 3];
        assert!((kway_imbalance(&g, &part, 4) - 1.0).abs() < 1e-12);
        let lop = vec![0, 0, 0, 0, 0, 1, 2, 3];
        assert!((kway_imbalance(&g, &lop, 4) - 2.5).abs() < 1e-12);
    }
}
