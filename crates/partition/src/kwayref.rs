//! Direct k-way boundary refinement: the sequential k-way boundary FM and
//! [`kway_direct_refine`], which runs it behind the frontier round engine
//! (`crate::parref`) on large inputs.
//!
//! Recursive bisection never revisits a cut once a later split changes
//! its context; this module refines the finished k-way labeling as a
//! post-pass (see `crate::kway::kway_partition_cfg`). The bisection FM
//! carries over with two generalizations:
//!
//! - the per-vertex gain becomes *best-alternative-part*: with
//!   `w(u, q)` the weight of `u`'s edges into part `q`, a vertex in
//!   part `p` has `gain(u) = max_{q≠p} w(u, q) − w(u, p)`, kept in a
//!   compact per-vertex neighbor-part weight map,
//! - the two-sided balance becomes a uniform per-part cap
//!   ([`Balance::uniform`]), raised to the entry's heaviest part: the
//!   recursion's per-level epsilon compounds past the flat k-way
//!   envelope, and a post-pass should then refine *cut only* — the cut
//!   never worsens and no part outgrows `max(epsilon cap, entry max)`.
//!
//! A per-part vertex count guards every move so the refiner can never
//! empty a part: a labeling with zero empty parts keeps zero empty
//! parts, and degenerate inputs (`n < k`, heavy singleton parts) pass
//! through untouched rather than collapsing.

use crate::fm::{entry_frontier, Balance};
use crate::gainheap::GainHeap;
use crate::parref::{
    default_crossover, parallel_refine_rounds, part_loads, ParRefWorkspace, PartScratch,
};
use mlcg_graph::metrics::edge_cut;
use mlcg_graph::{Csr, VId};
use mlcg_par::{Backend, ExecPolicy, TraceCollector};

/// Maximum passes of the sequential boundary refiner.
const MAX_PASSES: usize = 8;

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

/// Per-vertex state of the sequential k-way refiner: the compact
/// neighbor-part weight maps plus the derived gain/target/ext values
/// the heap is keyed on.
struct SeqState {
    /// `conn[u]` lists `(part, weight)` for every part `u` touches, own
    /// part included; adjusted in O(|conn|) per neighbor move.
    conn: Vec<Vec<(u32, u64)>>,
    gain: Vec<i64>,
    /// Best-alternative target; `k` is the sentinel for "no external
    /// connectivity".
    best_to: Vec<u32>,
    ext: Vec<u64>,
    gain_known: Vec<bool>,
    locked: Vec<bool>,
}

impl SeqState {
    fn new(n: usize, k: usize) -> SeqState {
        SeqState {
            conn: vec![Vec::new(); n],
            gain: vec![0; n],
            best_to: vec![k as u32; n],
            ext: vec![0; n],
            gain_known: vec![false; n],
            locked: vec![false; n],
        }
    }

    /// Recompute gain/best_to/ext for `u` from its conn map.
    fn refresh(&mut self, u: usize, pu: u32, k: usize) {
        let mut own = 0u64;
        let mut total = 0u64;
        let mut best: Option<(u64, u32)> = None;
        for &(q, w) in &self.conn[u] {
            total += w;
            if q == pu {
                own = w;
                continue;
            }
            if best.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                best = Some((w, q));
            }
        }
        self.ext[u] = total - own;
        match best {
            Some((w, q)) => {
                self.gain[u] = w as i64 - own as i64;
                self.best_to[u] = q;
            }
            None => {
                self.gain[u] = -(own as i64);
                self.best_to[u] = k as u32;
            }
        }
    }

    /// Rebuild `conn[u]` from the adjacency, then refresh.
    fn build(&mut self, g: &Csr, part: &[u32], u: usize, k: usize, sc: &mut PartScratch) {
        sc.begin(k);
        for (v, w) in g.edges(u as VId) {
            sc.add(part[v as usize], w);
        }
        let list = &mut self.conn[u];
        list.clear();
        for &q in &sc.touched {
            list.push((q, sc.get(q)));
        }
        self.gain_known[u] = true;
        self.refresh(u, part[u], k);
    }

    /// A neighbor of `v` moved `from → to` over an edge of weight `w`:
    /// shift the weight between the two conn entries and refresh.
    fn adjust(&mut self, v: usize, from: u32, to: u32, w: u64, pv: u32, k: usize) {
        {
            let list = &mut self.conn[v];
            if let Some(pos) = list.iter().position(|e| e.0 == from) {
                list[pos].1 -= w;
                if list[pos].1 == 0 {
                    list.swap_remove(pos);
                }
            }
            match list.iter_mut().find(|e| e.0 == to) {
                Some(e) => e.1 += w,
                None => list.push((to, w)),
            }
        }
        self.refresh(v, pv, k);
    }
}

/// Boundary-driven sequential k-way FM — the polish half of
/// [`kway_direct_refine`], and the whole refiner below the crossover.
///
/// The bisection refiner's structure carries over: passes heap-seed
/// only the frontier, gains stay fresh through the frontier invariant
/// (any neighbor flip re-frontiers a vertex for recomputation), the
/// best `(excess, cut)` prefix is kept and the rest rolled back, and an
/// abort limit of `(2·boundary).max(64)` unproductive moves bounds each
/// pass. The gain becomes best-alternative-part over a compact
/// per-vertex neighbor-part weight map, maintained incrementally as
/// neighbors move. Each pass starts inside the entry cap; while a move
/// has pushed a part past its strict cap, a vertex popped there with no
/// feasible connected target may take the least-loaded feasible part. A
/// per-part vertex count guard never empties a part. Each pass records a
/// `kwayref/pass{N}` span and a `kwayref/boundary_size` gauge; its moves
/// feed `kwayref/moves_committed` and the rolled-back ones
/// `kwayref/moves_rolled_back`. Returns the final cut.
fn kway_refine_boundary_traced(
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    seed_frontier: Option<&[u32]>,
    trace: &TraceCollector,
) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    assert!(k >= 1, "k must be positive");
    if n == 0 || k < 2 {
        return 0;
    }
    let (mut wpart, mut counts) = part_loads(g, part, k);
    let bal = entry_cap(g, &wpart, cfg);

    let mut st = SeqState::new(n, k);
    let mut sc = PartScratch::default();
    // Holds exactly the unlocked move candidates, each at its current gain.
    let mut heap = GainHeap::new(n);
    let mut stamp: Vec<u32> = vec![0; n];
    let mut epoch: u32 = 1;
    let mut frontier: Vec<u32> = Vec::new();
    let mut cut = entry_frontier(g, part, seed_frontier, &mut stamp, epoch, &mut frontier) as i64;

    for pass in 0..MAX_PASSES {
        let span = trace.span(|| format!("kwayref/pass{pass}"));
        epoch += 1;
        let mut next: Vec<u32> = Vec::new();
        heap.clear();
        let mut boundary_size = 0usize;
        for &fu in &frontier {
            let u = fu as usize;
            st.build(g, part, u, k, &mut sc);
            st.locked[u] = false;
            if st.ext[u] > 0 {
                heap.upsert(fu, st.gain[u]);
                boundary_size += 1;
                if stamp[u] != epoch {
                    stamp[u] = epoch;
                    next.push(fu);
                }
            }
        }
        trace.gauge_usize(|| "kwayref/boundary_size".to_string(), boundary_size);
        // The cap admits the entry, and every pass keeps a prefix with no
        // more excess than its start, so each pass starts feasible.
        debug_assert_eq!(bal.excess(&wpart), 0, "k-way pass starts over the cap");

        let mut best_key = (bal.excess(&wpart), cut);
        let mut best_len = 0usize;
        let mut moves: Vec<(u32, u32)> = Vec::new();
        let abort_limit = (2 * boundary_size).max(64);
        let mut since_best = 0usize;

        while let Some((_, uu)) = heap.pop() {
            let u = uu as usize;
            let from = part[u];
            if counts[from as usize] <= 1 {
                continue; // moving the last vertex would empty the part
            }
            let vw = g.vwgt()[u];
            // Target: the stored best-alternative if budget-feasible,
            // else the best feasible conn entry; while the source part
            // is over its strict cap, also admit a connectivity-free
            // least-loaded target so the pass can shed that overshoot.
            let stored = st.best_to[u];
            let (to, tgain) = if (stored as usize) < k
                && wpart[stored as usize] + vw <= bal.loose[stored as usize]
            {
                (stored, st.gain[u])
            } else {
                let mut own = 0u64;
                let mut bestc: Option<(u64, u32)> = None;
                for &(q, w) in &st.conn[u] {
                    if q == from {
                        own = w;
                        continue;
                    }
                    if wpart[q as usize] + vw > bal.loose[q as usize] {
                        continue;
                    }
                    if bestc.is_none_or(|(bw, bq)| w > bw || (w == bw && q < bq)) {
                        bestc = Some((w, q));
                    }
                }
                match bestc {
                    Some((w, q)) => (q, w as i64 - own as i64),
                    None if wpart[from as usize] > bal.strict[from as usize] => {
                        let mut bq: Option<u32> = None;
                        for q in 0..k as u32 {
                            if q == from || wpart[q as usize] + vw > bal.loose[q as usize] {
                                continue;
                            }
                            if bq.is_none_or(|b| wpart[q as usize] < wpart[b as usize]) {
                                bq = Some(q);
                            }
                        }
                        match bq {
                            Some(q) => (q, -(own as i64)),
                            None => continue,
                        }
                    }
                    None => continue,
                }
            };
            // Commit the move.
            st.locked[u] = true;
            part[u] = to;
            wpart[from as usize] -= vw;
            wpart[to as usize] += vw;
            counts[from as usize] -= 1;
            counts[to as usize] += 1;
            cut -= tgain;
            moves.push((uu, from));
            if stamp[u] != epoch {
                stamp[u] = epoch;
                next.push(uu);
            }
            let key = (bal.excess(&wpart), cut);
            if key < best_key {
                best_key = key;
                best_len = moves.len();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= abort_limit {
                    break;
                }
            }
            // Shift the (u, v) edge weight in every neighbor's conn map
            // and re-frontier them for the next pass.
            for (v, w) in g.edges(u as VId) {
                let vi = v as usize;
                if stamp[vi] != epoch {
                    stamp[vi] = epoch;
                    next.push(v);
                }
                if st.locked[vi] {
                    continue;
                }
                if st.gain_known[vi] {
                    st.adjust(vi, from, to, w, part[vi], k);
                } else {
                    // First touch outside the seeded frontier: full
                    // build (part[u] already flipped, so the fresh map
                    // includes this move).
                    st.build(g, part, vi, k, &mut sc);
                }
                if st.ext[vi] > 0 {
                    heap.upsert(v, st.gain[vi]);
                } else {
                    heap.remove(v);
                }
            }
        }
        // Roll back past the best prefix.
        trace.counter_add("kwayref/moves_committed", moves.len() as u64);
        trace.counter_add("kwayref/moves_rolled_back", (moves.len() - best_len) as u64);
        for &(uu, from) in moves[best_len..].iter().rev() {
            let u = uu as usize;
            let cur = part[u];
            part[u] = from;
            let vw = g.vwgt()[u];
            wpart[cur as usize] -= vw;
            wpart[from as usize] += vw;
            counts[cur as usize] -= 1;
            counts[from as usize] += 1;
        }
        cut = best_key.1;
        debug_assert_eq!(cut, edge_cut(g, part) as i64, "incremental cut drifted");
        span.finish();
        frontier = next;
        if best_len == 0 {
            break;
        }
    }
    cut as u64
}

/// Refine a finished k-way labeling in place; returns the final cut.
///
/// Under a parallel policy on a graph of at least the crossover
/// ([`KwayRefineConfig::crossover_frontier`], default
/// [`default_crossover`]) vertices, the frontier round engine runs first
/// (handing off once the frontier shrinks below the crossover), then the
/// sequential k-way boundary FM polishes from the rounds' final
/// frontier. Below the crossover the sequential refiner runs alone,
/// keeping small and deep-recursion inputs on the dispatch-free fast
/// path. Both run under the entry cap (see the module docs), so the cut
/// never worsens and the heaviest part never grows past
/// `max(epsilon cap, entry max)`.
pub fn kway_direct_refine(
    policy: &ExecPolicy,
    g: &Csr,
    part: &mut [u32],
    k: usize,
    cfg: &KwayRefineConfig,
    trace: &TraceCollector,
) -> u64 {
    let n = g.n();
    assert_eq!(part.len(), n);
    if n == 0 || k < 2 {
        return 0;
    }
    let _mem = trace.heap_scope(|| "kwayref".to_string());
    let crossover = cfg
        .crossover_frontier
        .unwrap_or_else(|| default_crossover(policy));
    if policy.backend != Backend::Serial && n >= crossover {
        let bal = entry_cap(g, &part_loads(g, part, k).0, cfg);
        let mut ws = ParRefWorkspace::new();
        let rounds = parallel_refine_rounds(
            policy, g, part, &bal, crossover, None, &mut ws, "kwayref", trace,
        );
        kway_refine_boundary_traced(g, part, k, cfg, Some(&rounds.frontier), trace)
    } else {
        kway_refine_boundary_traced(g, part, k, cfg, None, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcg_graph::generators as gen;
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
        // 18x18 keeps floor(target·eps) >= 1 for every k here: with zero
        // slack (target·eps < 1) any single move trips the excess key and
        // improvement from a random start is not guaranteed.
        let g = gen::grid2d(18, 18);
        for k in [2usize, 4, 6] {
            let mut part = balanced_kpart(g.n(), k, 3);
            let before = edge_cut(&g, &part);
            let cfg = KwayRefineConfig::default();
            let cut = kway_refine_boundary_traced(
                &g,
                &mut part,
                k,
                &cfg,
                None,
                &TraceCollector::disabled(),
            );
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
        // balance budget would admit the merge.
        let g = gen::path(3);
        let mut part = vec![0u32, 1, 2];
        let before = part.clone();
        let cut = kway_direct_refine(
            &ExecPolicy::serial(),
            &g,
            &mut part,
            5,
            &KwayRefineConfig::default(),
            &TraceCollector::disabled(),
        );
        assert_eq!(part, before, "singleton parts must not merge");
        assert_eq!(cut, edge_cut(&g, &part));

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
